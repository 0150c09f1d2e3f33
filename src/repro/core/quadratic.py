"""The naive coupled (quadratic) formulation the paper could not solve.

Section 2: "In case the buses talk to each other through bridges the
equality constraints and the cost function have quadratic terms. ... An
attempt was made to solve the nonlinear equations by using the nonlinear
solver from Matlab ver. 6.1. but we were not able to get solutions for
them."

This module reconstructs that formulation honestly so the ablation bench
can compare it against the split method:

* one stationary distribution per subsystem (fixed equal-share
  arbitration, so the chain is well-defined),
* the arrival rate of every bridge-entry buffer is an unknown coupled to
  the *upstream* subsystems' distributions (carried-rate products), making
  the balance equations **bilinear** and the rate-consistency equations
  polynomial — the quadratic terms the paper describes,
* everything is handed to ``scipy.optimize.minimize`` (SLSQP) as one
  nonlinear program.

On anything beyond toy sizes SLSQP fails to converge, stalls at a large
residual, or exhausts its iteration budget — reproducing the paper's
negative result (their Matlab 6.1 attempt) and motivating the split.
:class:`QuadraticDiagnostics` captures exactly how it failed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.topology import Topology
from repro.core.splitting import SplitSystem, split
from repro.errors import SolverError


@dataclass
class QuadraticDiagnostics:
    """Outcome of one naive-formulation solve attempt.

    Attributes
    ----------
    success:
        Whether SLSQP reported success *and* the constraint residual is
        below ``residual_tol`` — both must hold for the solution to count.
    solver_reported_success / message / iterations:
        Raw backend status.
    max_residual:
        Worst violation of the balance / normalisation / rate-consistency
        equations at the returned point.
    objective:
        Weighted loss rate at the returned point (meaningless unless
        ``success``).
    num_variables / num_equality_constraints / num_bilinear_terms:
        Problem-size bookkeeping for the ablation report.
    wall_time_seconds:
        Time spent inside the solver.
    """

    success: bool
    solver_reported_success: bool
    message: str
    iterations: int
    max_residual: float
    objective: float
    num_variables: int
    num_equality_constraints: int
    num_bilinear_terms: int
    wall_time_seconds: float


class QuadraticCoupledSizer:
    """Solve the *unsplit* coupled stationary equations directly.

    Parameters
    ----------
    capacity:
        Buffer capacity used for every client (kept tiny on purpose; the
        state count is the product over clients per subsystem).
    max_iter:
        SLSQP iteration budget.
    residual_tol:
        Max constraint violation accepted as "actually solved".
    """

    def __init__(
        self,
        capacity: int = 1,
        max_iter: int = 200,
        residual_tol: float = 1e-5,
    ) -> None:
        if capacity < 1:
            raise SolverError(f"capacity must be >= 1, got {capacity}")
        if max_iter < 1:
            raise SolverError(f"max_iter must be >= 1, got {max_iter}")
        self.capacity = int(capacity)
        self.max_iter = int(max_iter)
        self.residual_tol = float(residual_tol)

    # ------------------------------------------------------------------

    def _prepare(self, topology: Topology):
        """Precompute state lattices and index maps."""
        system = split(topology, self.capacity)
        subsystem_states: List[List[tuple]] = []
        for sub in system.subsystems:
            caps = [c.capacity for c in sub.clients]
            states = list(
                itertools.product(*(range(k + 1) for k in caps))
            )
            subsystem_states.append(states)
        bridge_clients = [
            name
            for sub in system.subsystems
            for name in sub.bridge_client_names
        ]
        return system, subsystem_states, bridge_clients

    def _unpack(
        self,
        x: np.ndarray,
        subsystem_states: List[List[tuple]],
        num_rates: int,
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        pis = []
        offset = 0
        for states in subsystem_states:
            n = len(states)
            pis.append(x[offset : offset + n])
            offset += n
        rates = x[offset : offset + num_rates]
        return pis, rates

    @staticmethod
    def _client_rates(
        sub, rates: np.ndarray, rate_index: Dict[str, int]
    ) -> List[float]:
        """Arrival rate per client: fixed for processors, variable for bridges."""
        values = []
        for client in sub.clients:
            if client.name in rate_index:
                values.append(rates[rate_index[client.name]])
            else:
                values.append(client.arrival_rate)
        return values

    def _balance_residuals(
        self,
        sub,
        states: List[tuple],
        pi: np.ndarray,
        arrival: Sequence[float],
    ) -> np.ndarray:
        """``pi Q = 0`` residuals under equal-share arbitration.

        Service: the bus splits its attention equally over non-empty
        buffers, so client ``i`` drains at ``mu_i / #nonempty``.
        """
        index = {s: k for k, s in enumerate(states)}
        n = len(states)
        flow = np.zeros(n)
        for k, state in enumerate(states):
            mass = pi[k]
            nonempty = [i for i, q in enumerate(state) if q > 0]
            # Arrivals.
            for i, client in enumerate(sub.clients):
                lam = arrival[i]
                if lam <= 0 or state[i] >= client.capacity:
                    continue
                target = list(state)
                target[i] += 1
                j = index[tuple(target)]
                flow[j] += mass * lam
                flow[k] -= mass * lam
            # Services (equal share).
            if nonempty:
                share = 1.0 / len(nonempty)
                for i in nonempty:
                    mu = sub.clients[i].service_rate * share
                    target = list(state)
                    target[i] -= 1
                    j = index[tuple(target)]
                    flow[j] += mass * mu
                    flow[k] -= mass * mu
        return flow

    def _blocking(
        self,
        sub,
        states: List[tuple],
        pi: np.ndarray,
        client_name: str,
    ) -> float:
        """P(named client's buffer is full) under ``pi``."""
        i = next(
            idx for idx, c in enumerate(sub.clients) if c.name == client_name
        )
        cap = sub.clients[i].capacity
        return float(
            sum(pi[k] for k, s in enumerate(states) if s[i] == cap)
        )

    # ------------------------------------------------------------------

    def solve(self, topology: Topology) -> QuadraticDiagnostics:
        """Attempt the naive coupled solve; never raises on solver failure.

        Returns diagnostics whether or not SLSQP succeeded — the ablation
        bench reports both paths.
        """
        system, subsystem_states, bridge_clients = self._prepare(topology)
        rate_index = {name: i for i, name in enumerate(bridge_clients)}
        num_pi = sum(len(s) for s in subsystem_states)
        num_rates = len(bridge_clients)
        num_vars = num_pi + num_rates

        # Count bilinear terms: every (bridge-rate x pi) product in the
        # balance equations, plus blocking products in rate consistency.
        num_bilinear = 0
        for sub, states in zip(system.subsystems, subsystem_states):
            num_bilinear += len(sub.bridge_client_names) * len(states)
        for hops in system.flow_hops.values():
            if len(hops) > 1:
                num_bilinear += len(hops) - 1

        def residuals(x: np.ndarray) -> np.ndarray:
            pis, rates = self._unpack(x, subsystem_states, num_rates)
            parts: List[np.ndarray] = []
            blocking_cache: Dict[str, float] = {}
            for sub, states, pi in zip(
                system.subsystems, subsystem_states, pis
            ):
                arrival = self._client_rates(sub, rates, rate_index)
                balance = self._balance_residuals(sub, states, pi, arrival)
                # One balance row per subsystem is linearly dependent on
                # the rest (rows sum to zero); drop it so the equality
                # system is not artificially over-determined for SLSQP.
                parts.append(balance[1:])
                parts.append(np.array([pi.sum() - 1.0]))
                for client in sub.clients:
                    blocking_cache[client.name] = self._blocking(
                        sub, states, pi, client.name
                    )
            # Rate consistency: carried-rate thinning along each flow.
            consistency = np.zeros(num_rates)
            accumulated = np.zeros(num_rates)
            for flow_name, hops in system.flow_hops.items():
                rate = system.topology.flows[flow_name].rate
                for j, hop in enumerate(hops):
                    if j > 0:
                        accumulated[rate_index[hop.client]] += rate
                    rate *= 1.0 - blocking_cache.get(hop.client, 0.0)
            consistency = rates - accumulated
            parts.append(consistency)
            return np.concatenate(parts)

        def objective(x: np.ndarray) -> float:
            pis, rates = self._unpack(x, subsystem_states, num_rates)
            total = 0.0
            for sub, states, pi in zip(
                system.subsystems, subsystem_states, pis
            ):
                arrival = self._client_rates(sub, rates, rate_index)
                for k, state in enumerate(states):
                    for i, client in enumerate(sub.clients):
                        if state[i] == client.capacity:
                            total += (
                                pi[k] * client.loss_weight * arrival[i]
                            )
            return total

        # Initial point: uniform distributions, offered rates.
        x0 = np.concatenate(
            [
                np.full(len(states), 1.0 / len(states))
                for states in subsystem_states
            ]
            + [
                np.array(
                    [
                        system.subsystem_of_client(name)
                        .client(name)
                        .arrival_rate
                        for name in bridge_clients
                    ]
                )
                if num_rates
                else np.zeros(0)
            ]
        )
        max_rate = max(
            (f.rate for f in topology.flows.values()), default=1.0
        ) * max(len(topology.flows), 1)
        bounds = [(0.0, 1.0)] * num_pi + [(0.0, max_rate)] * num_rates

        from scipy.optimize import minimize

        num_eq = residuals(x0).size
        start = time.perf_counter()
        try:
            result = minimize(
                objective,
                x0,
                method="SLSQP",
                bounds=bounds,
                constraints=[{"type": "eq", "fun": residuals}],
                options={"maxiter": self.max_iter, "ftol": 1e-10},
            )
            elapsed = time.perf_counter() - start
            final_residual = float(np.abs(residuals(result.x)).max())
            solver_ok = bool(result.success)
            return QuadraticDiagnostics(
                success=solver_ok and final_residual <= self.residual_tol,
                solver_reported_success=solver_ok,
                message=str(result.message),
                iterations=int(result.nit),
                max_residual=final_residual,
                objective=float(result.fun),
                num_variables=num_vars,
                num_equality_constraints=num_eq,
                num_bilinear_terms=num_bilinear,
                wall_time_seconds=elapsed,
            )
        except Exception as exc:  # scipy can raise on pathological inputs
            elapsed = time.perf_counter() - start
            return QuadraticDiagnostics(
                success=False,
                solver_reported_success=False,
                message=f"solver raised: {exc}",
                iterations=0,
                max_residual=float("inf"),
                objective=float("inf"),
                num_variables=num_vars,
                num_equality_constraints=num_eq,
                num_bilinear_terms=num_bilinear,
                wall_time_seconds=elapsed,
            )
