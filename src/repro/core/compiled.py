"""Compiled kernels: CTMDPs frozen into flat CSR-style numpy arrays.

The dict-of-lists :class:`~repro.core.ctmdp.CTMDP` is convenient to build
but slow to solve against: every sweep of a DP solver or every LP
assembly walks Python dictionaries.  This module freezes a built model
into flat arrays once, after which the hot paths — uniformization,
Bellman sweeps, occupation-measure LP assembly — are pure numpy/scipy
operations:

:class:`CompiledCTMDP`
    A read-only array view of any CTMDP: per-pair transition triplets,
    exit rates, cost and constraint vectors, plus a **sparse**
    uniformization (``scipy.sparse.csr_matrix`` instead of the dense
    ``(pairs, states)`` matrix of :meth:`CTMDP.uniformized`).

:class:`CompiledBusLattice`
    The joint bus occupancy model of
    :func:`repro.core.bus_model.build_joint_bus_ctmdp` built *directly*
    into arrays — no intermediate CTMDP object — with every transition
    rate mapped back to its client parameter so arrival rates can be
    **refreshed in place** across the bridge-rate fixed point instead of
    rebuilding the model.

:class:`CompiledClientChain`
    The decomposed per-client birth-death model of
    :func:`repro.core.bus_model.build_client_chain_ctmdp`, frozen once
    per client with the same in-place :meth:`~CompiledClientChain.refresh`
    capability — the chain-path counterpart of the lattice, so
    oversized subsystems stop rebuilding their tiny CTMDPs every
    fixed-point iteration too.

:func:`solve_sparse_lp`
    A thin wrapper over the HiGHS solver (scipy's vendored bindings)
    that keeps the simplex **basis** between solves, so successive LPs
    that differ only in coefficients warm-start in milliseconds.  Falls
    back to ``scipy.optimize.linprog`` when the bindings are missing.

Exact reproducibility note: every accumulation below (exit rates, loss
cost rates) is performed in the same client order and with the same IEEE
operations as the dict-based builders, so the compiled LP coefficients
are bitwise identical to the reference assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError

if TYPE_CHECKING:  # scipy loads on first use, not on import
    from scipy.sparse import csc_matrix, csr_matrix

# The HiGHS bindings scipy vendors for its `method="highs"` family.  They
# expose basis warm-starting, which scipy.optimize.linprog does not.
# Importing them loads most of scipy, so they are probed once per
# process, on the first solve; None afterwards means "use linprog".
_UNPROBED = object()
_highs: Any = _UNPROBED


def highs_bindings():
    """The HiGHS bindings module, loaded on first call; None if unusable."""
    global _highs
    if _highs is _UNPROBED:
        try:
            from scipy.optimize._highspy import _core as _highs
        except Exception:  # bindings missing: the linprog fallback runs
            _highs = None
    return _highs


def __getattr__(name: str):
    # ``HAVE_HIGHS`` stays a module attribute, computed on read so that
    # importing this module does not load scipy.
    if name == "HAVE_HIGHS":
        return highs_bindings() is not None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# Compiled CTMDP view
# ----------------------------------------------------------------------


class CompiledCTMDP:
    """Flat-array view of a validated CTMDP.

    Attributes
    ----------
    states / pairs:
        The model's states and (state, action) pairs in canonical order
        (states by insertion, actions within a state by insertion).
    pair_state:
        ``pair_state[k]`` is the dense index of pair ``k``'s source
        state.  Monotone non-decreasing by construction.
    group_start:
        ``group_start[i]:group_start[i+1]`` is the pair-row range of
        state ``i`` — the grouping DP solvers minimise over.
    t_pair / t_target / t_rate:
        Transition triplets: entry ``e`` is a rated transition of pair
        ``t_pair[e]`` into state ``t_target[e]`` at rate ``t_rate[e]``.
    exit_rates / cost_rates:
        Per-pair total departure rate and cost rate.
    """

    __slots__ = (
        "states",
        "pairs",
        "n_states",
        "n_pairs",
        "pair_state",
        "group_start",
        "t_pair",
        "t_target",
        "t_rate",
        "exit_rates",
        "cost_rates",
        "max_exit_rate",
        "_constraint_vectors",
    )

    def __init__(
        self,
        states: List,
        pairs: List[Tuple],
        pair_state: np.ndarray,
        t_pair: np.ndarray,
        t_target: np.ndarray,
        t_rate: np.ndarray,
        exit_rates: np.ndarray,
        cost_rates: np.ndarray,
        constraint_vectors: Dict[str, np.ndarray],
    ) -> None:
        self.states = states
        self.pairs = pairs
        self.n_states = len(states)
        self.n_pairs = len(pairs)
        self.pair_state = pair_state
        self.group_start = np.searchsorted(
            pair_state, np.arange(self.n_states + 1)
        )
        self.t_pair = t_pair
        self.t_target = t_target
        self.t_rate = t_rate
        self.exit_rates = exit_rates
        self.cost_rates = cost_rates
        self.max_exit_rate = float(exit_rates.max()) if len(exit_rates) else 0.0
        self._constraint_vectors = constraint_vectors

    # ------------------------------------------------------------------

    @classmethod
    def from_model(cls, model) -> "CompiledCTMDP":
        """Freeze a validated :class:`~repro.core.ctmdp.CTMDP`."""
        model.validate()
        states = model.states_ro
        state_index = {s: i for i, s in enumerate(states)}
        pairs: List[Tuple] = []
        pair_state: List[int] = []
        t_pair: List[int] = []
        t_target: List[int] = []
        t_rate: List[float] = []
        exit_rates: List[float] = []
        cost_rates: List[float] = []
        for i, s in enumerate(states):
            for a in model.actions_ro(s):
                k = len(pairs)
                pairs.append((s, a))
                pair_state.append(i)
                # Accumulate the exit rate in transition order — the same
                # float additions the dict-based LP assembly performs.
                exit_rate = 0.0
                for t in model.transitions_ro(s, a):
                    t_pair.append(k)
                    t_target.append(state_index[t.target])
                    t_rate.append(t.rate)
                    exit_rate += t.rate
                exit_rates.append(exit_rate)
                cost_rates.append(model.cost_rate(s, a))
        compiled = cls(
            states=list(states),
            pairs=pairs,
            pair_state=np.asarray(pair_state, dtype=np.int64),
            t_pair=np.asarray(t_pair, dtype=np.int64),
            t_target=np.asarray(t_target, dtype=np.int64),
            t_rate=np.asarray(t_rate, dtype=float),
            exit_rates=np.asarray(exit_rates, dtype=float),
            cost_rates=np.asarray(cost_rates, dtype=float),
            constraint_vectors={},
        )
        for name in model.constraint_names:
            vec = np.zeros(compiled.n_pairs)
            for k, (s, a) in enumerate(pairs):
                vec[k] = model.constraint_rate(name, s, a)
            compiled._constraint_vectors[name] = vec
        return compiled

    # ------------------------------------------------------------------

    def constraint_vector(self, name: str) -> np.ndarray:
        """Per-pair constraint cost rates (zeros when the name is unset)."""
        vec = self._constraint_vectors.get(name)
        if vec is None:
            vec = np.zeros(self.n_pairs)
        return vec

    def pair_index(self) -> Dict[Tuple, int]:
        """``(state, action) -> pair row`` lookup (built on demand)."""
        return {pair: k for k, pair in enumerate(self.pairs)}

    def balance_coo(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO triplets of the occupation-measure balance equations.

        Rows are state indices, columns are pair indices; entry
        ``(j, k)`` is the rate of pair ``k`` into state ``j``, with the
        negated exit rate on each pair's own state (the diagonal of the
        generator).
        """
        rows = np.concatenate([self.t_target, self.pair_state])
        cols = np.concatenate(
            [self.t_pair, np.arange(self.n_pairs, dtype=np.int64)]
        )
        vals = np.concatenate([self.t_rate, -self.exit_rates])
        return rows, cols, vals

    def uniformized_sparse(
        self, rate: Optional[float] = None, tol: float = 1e-6
    ) -> Tuple[csr_matrix, np.ndarray, float]:
        """Sparse uniformization: CSR one-step matrix over (pairs, states).

        Same semantics as the dense :meth:`CTMDP.uniformized` — rows are
        renormalised within ``tol`` and a :class:`ModelError` names the
        offending pair beyond it — but the matrix is a
        ``scipy.sparse.csr_matrix`` whose only stored entries are the
        rated transitions plus the diagonal self-loop slack.
        """
        from scipy.sparse import csr_matrix

        max_exit = self.max_exit_rate
        if rate is None:
            rate = max_exit * (1.0 + 1e-9) if max_exit > 0 else 1.0
        elif rate < max_exit:
            raise ModelError(
                f"uniformization rate {rate:.3g} below max exit {max_exit:.3g}"
            )
        probs = self.t_rate / rate
        # Self-loop slack from the frozen exit rates; the row-sum check
        # below cross-checks them against the transition entries, so any
        # drift between the two raises instead of being renormalised away.
        stay = 1.0 - self.exit_rates / rate
        if (stay < -1e-12).any():
            raise ModelError("uniformization produced negative probabilities")
        stay = np.clip(stay, 0.0, None)
        rows = np.concatenate(
            [self.t_pair, np.arange(self.n_pairs, dtype=np.int64)]
        )
        cols = np.concatenate([self.t_target, self.pair_state])
        vals = np.concatenate([probs, stay])
        p = csr_matrix(
            (vals, (rows, cols)), shape=(self.n_pairs, self.n_states)
        )
        sums = np.asarray(p.sum(axis=1)).ravel()
        deviation = np.abs(sums - 1.0)
        if (deviation > tol).any():
            k = int(deviation.argmax())
            raise ModelError(
                f"uniformized row for pair {self.pairs[k]!r} sums to "
                f"{sums[k]:.12g}; transition rates are inconsistent"
            )
        # Renormalise away round-off (row sums are 1 up to float noise).
        inv = 1.0 / sums
        p = csr_matrix(
            (p.data * np.repeat(inv, np.diff(p.indptr)), p.indices, p.indptr),
            shape=p.shape,
        )
        c = self.cost_rates / rate
        return p, c, float(rate)


# ----------------------------------------------------------------------
# Parameterized joint-bus lattice
# ----------------------------------------------------------------------


class CompiledBusLattice:
    """The joint bus CTMDP compiled directly into refreshable arrays.

    Builds the same model as
    :func:`repro.core.bus_model.build_joint_bus_ctmdp` — actions are the
    serveable clients (or idle), costs are weighted full-buffer loss
    rates — but skips the Python dict representation entirely.  Every
    transition-rate entry is tagged with the client parameter it equals
    (arrival rate ``lambda_j`` or service rate ``mu_i``), so
    :meth:`refresh` updates all coefficient arrays for new arrival rates
    without touching the structure.

    States are enumerated in ``itertools.product`` (lattice) order.  The
    dict builder instead registers states in encounter order (a target
    state is registered the first time a transition reaches it), so the
    two assign different dense indices; the models are identical up to
    that relabelling, and the sizing equivalence tests pin the resulting
    allocations to the dict-based reference path.

    ``clients`` is any sequence of objects with ``name``,
    ``arrival_rate``, ``service_rate``, ``capacity`` and ``loss_weight``
    attributes (duck-typed to avoid importing the model layer here).
    """

    __slots__ = (
        "clients",
        "names",
        "n_clients",
        "capacities",
        "n_states",
        "n_pairs",
        "occ",
        "pair_state",
        "pair_client",
        "t_pair",
        "t_target",
        "t_param",
        "t_rate",
        "exit_rates",
        "cost_rates",
        "_arr_mask",
        "_full_mask",
        "_space",
        "_client_space",
        "_lambdas",
        "_mus",
        "_pairs_cache",
    )

    def __init__(self, clients: Sequence) -> None:
        clients = list(clients)
        if not clients:
            raise ModelError("a bus needs at least one client")
        names = [c.name for c in clients]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate client names in {names}")
        self.clients = clients
        self.names = names
        n = self.n_clients = len(clients)
        caps = self.capacities = np.array(
            [c.capacity for c in clients], dtype=np.int64
        )
        self._lambdas = np.array([c.arrival_rate for c in clients])
        self._mus = np.array([c.service_rate for c in clients])

        # Occupancy lattice in itertools.product order (last axis fastest).
        grids = np.meshgrid(
            *(np.arange(k + 1) for k in caps), indexing="ij"
        )
        occ = self.occ = np.stack(
            [g.reshape(-1) for g in grids], axis=1
        ).astype(np.int64)
        s_count = self.n_states = occ.shape[0]
        # State index strides: product order means the last client varies
        # fastest, so stride_j = prod_{l > j} (k_l + 1).
        strides = np.ones(n, dtype=np.int64)
        for j in range(n - 2, -1, -1):
            strides[j] = strides[j + 1] * (caps[j + 1] + 1)

        # Pairs: one per (state, serveable client); idle only when no
        # buffer is occupied — exactly build_joint_bus_ctmdp's actions.
        serveable = occ > 0  # [S, n]
        acts_per_state = np.maximum(serveable.sum(axis=1), 1)
        p_count = self.n_pairs = int(acts_per_state.sum())
        pair_state = np.repeat(np.arange(s_count), acts_per_state)
        pair_client = np.full(p_count, -1, dtype=np.int64)
        # Serveable clients in index order within each state: np.nonzero
        # iterates row-major, so entries of one state are consecutive and
        # ordered by client index; their rank within the state places
        # them at the right pair row.
        state_ids, client_ids = np.nonzero(serveable)
        offsets = np.concatenate([[0], np.cumsum(acts_per_state)])[:-1]
        first_of_state = np.searchsorted(state_ids, np.arange(s_count))
        rank = np.arange(len(state_ids)) - first_of_state[state_ids]
        pair_client[offsets[state_ids] + rank] = client_ids
        self.pair_state = pair_state
        self.pair_client = pair_client

        # Structural masks (fixed for the life of the lattice).
        lam_positive = self._lambdas > 0
        arr_ok = (occ < caps[None, :]) & lam_positive[None, :]  # [S, n]
        self._arr_mask = arr_ok[pair_state]  # [P, n]
        self._full_mask = (occ == caps[None, :])[pair_state]  # [P, n]

        # Transition entries: arrivals (client order) then services.
        a_pair, a_client = np.nonzero(self._arr_mask)
        a_target = (
            pair_state[a_pair] + strides[a_client]
        )  # occupancy +1 in dim j
        served = np.flatnonzero(pair_client >= 0)
        s_client = pair_client[served]
        s_target = pair_state[served] - strides[s_client]
        self.t_pair = np.concatenate([a_pair, served])
        self.t_target = np.concatenate([a_target, s_target])
        self.t_param = np.concatenate([a_client, self.n_clients + s_client])
        self.t_rate = np.empty(len(self.t_pair))

        # Static constraint vectors.
        space = occ.sum(axis=1).astype(float)
        self._space = space[pair_state]
        self._client_space = occ[pair_state].astype(float)

        self.exit_rates = np.empty(p_count)
        self.cost_rates = np.empty(p_count)
        self._pairs_cache = None
        self._recompute_values()

    # ------------------------------------------------------------------

    def _recompute_values(self) -> None:
        params = np.concatenate([self._lambdas, self._mus])
        self.t_rate[:] = params[self.t_param]
        # Exit rate: arrivals in client order, then the service rate —
        # added one term at a time to mirror the reference accumulation.
        exit_rates = np.zeros(self.n_pairs)
        for j in range(self.n_clients):
            exit_rates += np.where(
                self._arr_mask[:, j], self._lambdas[j], 0.0
            )
        exit_rates += np.where(
            self.pair_client >= 0,
            self._mus[np.maximum(self.pair_client, 0)],
            0.0,
        )
        self.exit_rates[:] = exit_rates
        # Weighted loss rate while any buffer is full, in client order.
        cost = np.zeros(self.n_pairs)
        weights = np.array([c.loss_weight for c in self.clients])
        for j in range(self.n_clients):
            cost += np.where(
                self._full_mask[:, j],
                weights[j] * self._lambdas[j],
                0.0,
            )
        self.cost_rates[:] = cost

    def refresh(self, arrival_rates: Dict[str, float]) -> bool:
        """Update arrival rates in place; returns False when the
        zero/positive pattern changed (caller must rebuild the lattice).
        """
        new = self._lambdas.copy()
        for j, name in enumerate(self.names):
            if name in arrival_rates:
                new[j] = arrival_rates[name]
        if ((new > 0) != (self._lambdas > 0)).any():
            return False
        self._lambdas = new
        self._recompute_values()
        return True

    # ------------------------------------------------------------------

    def constraint_vector(self, name: str) -> np.ndarray:
        from repro.core.bus_model import SPACE  # local to avoid a cycle

        if name == SPACE:
            return self._space
        prefix = SPACE + ":"
        if name.startswith(prefix):
            try:
                j = self.names.index(name[len(prefix):])
            except ValueError:
                return np.zeros(self.n_pairs)
            return self._client_space[:, j]
        return np.zeros(self.n_pairs)

    def balance_coo(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO triplets of the balance equations (see CompiledCTMDP)."""
        rows = np.concatenate([self.t_target, self.pair_state])
        cols = np.concatenate(
            [self.t_pair, np.arange(self.n_pairs, dtype=np.int64)]
        )
        vals = np.concatenate([self.t_rate, -self.exit_rates])
        return rows, cols, vals

    @property
    def pairs(self) -> List[Tuple]:
        """(state tuple, action) pairs, materialised on first use."""
        if self._pairs_cache is None:
            from repro.core.bus_model import IDLE  # avoid import cycle

            states = [tuple(row) for row in self.occ.tolist()]
            pairs = []
            for k in range(self.n_pairs):
                s = states[self.pair_state[k]]
                c = self.pair_client[k]
                pairs.append((s, IDLE if c < 0 else self.names[c]))
            self._pairs_cache = pairs
        return self._pairs_cache

    def client_marginals(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-client occupancy marginals of an occupation measure.

        Vectorised equivalent of
        :func:`repro.core.bus_model.joint_client_marginals`.
        """
        occ_of_pair = self.occ[self.pair_state]  # [P, n]
        marginals: Dict[str, np.ndarray] = {}
        for j, c in enumerate(self.clients):
            p = np.bincount(
                occ_of_pair[:, j], weights=x, minlength=c.capacity + 1
            )
            total = p.sum()
            if total <= 0:
                raise ModelError(
                    f"occupation measure has no mass for client {c.name!r}"
                )
            marginals[c.name] = p / total
        return marginals


# ----------------------------------------------------------------------
# Parameterized per-client chain
# ----------------------------------------------------------------------


class CompiledClientChain:
    """One client's decomposed serve/idle chain, compiled and refreshable.

    Builds the same model as
    :func:`repro.core.bus_model.build_client_chain_ctmdp` — states are
    the client's occupancies ``0..k``; every state has an ``idle``
    action and (for ``q > 0``) a ``serve`` action carrying the
    :data:`~repro.core.bus_model.BUS_TIME` constraint rate — directly
    into the flat arrays :class:`CompiledCTMDP` would produce, skipping
    the dict representation.  Every coefficient is computed with the
    same IEEE operations in the same order as the reference builder, so
    the arrays are bitwise identical to
    ``build_client_chain_ctmdp(client, h).compiled()`` (asserted by the
    equivalence tests).

    :meth:`refresh` swaps in a new arrival rate (and the matching
    holding cost) without touching the structure, which is what lets
    :class:`~repro.core.sizing.BufferSizer` freeze chain blocks once per
    client and only update rate coefficients across bridge-rate
    fixed-point iterations.  Like the lattice, a refresh that flips the
    zero/positive arrival pattern returns False and the caller rebuilds
    (the arrival transitions themselves appear or vanish).

    ``client`` is any object with ``name``, ``arrival_rate``,
    ``service_rate``, ``capacity`` and ``loss_weight`` attributes.
    """

    __slots__ = (
        "name",
        "capacity",
        "service_rate",
        "loss_weight",
        "arrival_rate",
        "holding_cost_rate",
        "n_states",
        "n_pairs",
        "pair_state",
        "t_pair",
        "t_target",
        "t_rate",
        "exit_rates",
        "cost_rates",
        "_serve_mask",
        "_arrival_entries",
        "_space",
        "_bus_time",
        "_pairs_cache",
    )

    def __init__(self, client, holding_cost_rate: float = 0.0) -> None:
        if holding_cost_rate < 0:
            raise ModelError(
                f"holding cost rate must be >= 0, got {holding_cost_rate}"
            )
        k = int(client.capacity)
        if k < 1:
            raise ModelError(
                f"client {client.name!r}: capacity must be >= 1, got {k}"
            )
        self.name = client.name
        self.capacity = k
        self.service_rate = float(client.service_rate)
        self.loss_weight = float(client.loss_weight)
        self.arrival_rate = float(client.arrival_rate)
        self.holding_cost_rate = float(holding_cost_rate)

        # Pair order mirrors the reference builder: per state q, `idle`
        # first, then `serve` for q > 0.
        self.n_states = k + 1
        pair_state = [0]
        serve_mask = [False]
        for q in range(1, k + 1):
            pair_state.extend((q, q))
            serve_mask.extend((False, True))
        self.pair_state = np.asarray(pair_state, dtype=np.int64)
        self._serve_mask = np.asarray(serve_mask, dtype=bool)
        self.n_pairs = len(pair_state)
        self._space = self.pair_state.astype(float)
        self._bus_time = self._serve_mask.astype(float)

        # Transition structure: per pair, the arrival (q < k and
        # lambda > 0) precedes the service transition — the insertion
        # order of the dict builder.
        has_arrival = (self.pair_state < k) & (self.arrival_rate > 0)
        entries: List[Tuple[int, int, bool]] = []  # (pair, target, is_arrival)
        for p in range(self.n_pairs):
            q = int(self.pair_state[p])
            if has_arrival[p]:
                entries.append((p, q + 1, True))
            if serve_mask[p]:
                entries.append((p, q - 1, False))
        self.t_pair = np.asarray([e[0] for e in entries], dtype=np.int64)
        self.t_target = np.asarray([e[1] for e in entries], dtype=np.int64)
        self._arrival_entries = np.asarray(
            [e[2] for e in entries], dtype=bool
        )
        self.t_rate = np.empty(len(entries))
        self.exit_rates = np.empty(self.n_pairs)
        self.cost_rates = np.empty(self.n_pairs)
        self._pairs_cache = None
        self._recompute_values()

    # ------------------------------------------------------------------

    def _recompute_values(self) -> None:
        lam = self.arrival_rate
        mu = self.service_rate
        self.t_rate[:] = np.where(self._arrival_entries, lam, mu)
        # Exit rates accumulate arrival-then-service, mirroring the
        # reference loop's addition order: fl(fl(0 + lam) + mu).
        has_arrival = (self.pair_state < self.capacity) & (lam > 0)
        exit_rates = np.where(has_arrival, lam, 0.0)
        exit_rates = exit_rates + np.where(self._serve_mask, mu, 0.0)
        self.exit_rates[:] = exit_rates
        # Cost: fl(fl(w * lam at q == k) + fl(h * q)).
        loss = np.where(
            self.pair_state == self.capacity,
            self.loss_weight * lam,
            0.0,
        )
        self.cost_rates[:] = loss + self.holding_cost_rate * self._space

    def refresh(
        self, arrival_rate: float, holding_cost_rate: float
    ) -> bool:
        """Swap in new rate coefficients; False on a structure change.

        A structure change means the zero/positive arrival pattern
        flipped (arrival transitions would appear or vanish); the
        caller must rebuild the chain in that case, exactly like
        :meth:`CompiledBusLattice.refresh`.
        """
        if holding_cost_rate < 0:
            raise ModelError(
                f"holding cost rate must be >= 0, got {holding_cost_rate}"
            )
        if (float(arrival_rate) > 0) != (self.arrival_rate > 0):
            return False
        self.arrival_rate = float(arrival_rate)
        self.holding_cost_rate = float(holding_cost_rate)
        self._recompute_values()
        return True

    # ------------------------------------------------------------------

    def constraint_vector(self, name: str) -> np.ndarray:
        from repro.core.bus_model import BUS_TIME, SPACE  # avoid cycle

        if name == BUS_TIME:
            return self._bus_time
        if name == SPACE or name == f"{SPACE}:{self.name}":
            return self._space
        return np.zeros(self.n_pairs)

    def balance_coo(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO triplets of the balance equations (see CompiledCTMDP)."""
        rows = np.concatenate([self.t_target, self.pair_state])
        cols = np.concatenate(
            [self.t_pair, np.arange(self.n_pairs, dtype=np.int64)]
        )
        vals = np.concatenate([self.t_rate, -self.exit_rates])
        return rows, cols, vals

    @property
    def pairs(self) -> List[Tuple]:
        """(occupancy, action) pairs, materialised on first use."""
        if self._pairs_cache is None:
            from repro.core.bus_model import IDLE  # avoid import cycle

            pairs = []
            for p in range(self.n_pairs):
                q = int(self.pair_state[p])
                pairs.append((q, "serve" if self._serve_mask[p] else IDLE))
            self._pairs_cache = pairs
        return self._pairs_cache


# ----------------------------------------------------------------------
# Warm-startable sparse LP solver
# ----------------------------------------------------------------------


@dataclass
class SparseLPResult:
    """Raw result of :func:`solve_sparse_lp`.

    ``status`` is ``"optimal"``, ``"infeasible"`` or ``"error"``;
    ``basis`` is an opaque warm-start token (None when unavailable).
    ``info`` holds the solver's own report of the run (backend,
    iteration counts per algorithm, warm-basis use and the largest
    primal/dual infeasibility of the returned point) for tracing; no
    result depends on it.
    """

    x: np.ndarray
    objective: float
    status: str
    message: str
    iterations: int
    basis: object = None
    info: Dict[str, Any] = field(default_factory=dict)


def _run_highs(
    highs,
    cost: np.ndarray,
    a: csc_matrix,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    warm_basis: object,
    solver: Optional[str],
) -> SparseLPResult:
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    n = len(cost)
    lp = highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = a.shape[0]
    lp.col_cost_ = np.asarray(cost, dtype=float)
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, np.inf)
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    h.passModel(lp)
    if warm_basis is not None:
        h.setBasis(warm_basis)
    elif solver is not None:
        h.setOptionValue("solver", solver)
    h.run()
    status = h.getModelStatus()
    if status == highs.HighsModelStatus.kOptimal:
        kind = "optimal"
    elif status in (
        highs.HighsModelStatus.kInfeasible,
        highs.HighsModelStatus.kUnboundedOrInfeasible,
    ):
        kind = "infeasible"
    else:
        kind = "error"
    info = h.getInfo()
    counts = {
        "ipm_iterations": max(info.ipm_iteration_count, 0),
        "simplex_iterations": max(info.simplex_iteration_count, 0),
        "crossover_iterations": max(info.crossover_iteration_count, 0),
    }
    sol = h.getSolution()
    x = np.asarray(sol.col_value) if kind == "optimal" else np.zeros(n)
    return SparseLPResult(
        x=x,
        objective=float(h.getObjectiveValue()) if kind == "optimal" else 0.0,
        status=kind,
        message=h.modelStatusToString(status),
        iterations=int(
            counts["simplex_iterations"] + counts["ipm_iterations"]
        ),
        basis=h.getBasis() if kind == "optimal" else None,
        info={
            "backend": "highs",
            **counts,
            "warm_basis": warm_basis is not None,
            "max_primal_infeasibility": float(info.max_primal_infeasibility),
            "max_dual_infeasibility": float(info.max_dual_infeasibility),
        },
    )


def solve_sparse_lp(
    cost: np.ndarray,
    a_eq: csc_matrix,
    b_eq: np.ndarray,
    a_ub: Optional[csc_matrix],
    b_ub: Optional[np.ndarray],
    warm_basis: object = None,
) -> SparseLPResult:
    """Minimise ``cost @ x`` s.t. equality/inequality rows, ``x >= 0``.

    With the HiGHS bindings available this solves cold starts via
    interior point (with crossover, matching scipy's ``highs-ipm``) and
    warm starts via simplex from the supplied basis; both fall back to a
    plain simplex run on non-infeasible failures.  Without the bindings
    it degrades to ``scipy.optimize.linprog`` (no warm starts).
    """
    global _highs
    from scipy.sparse import vstack

    if a_ub is not None and a_ub.shape[0] > 0:
        a = vstack([a_eq, a_ub]).tocsc()
        row_lower = np.concatenate(
            [b_eq, np.full(len(b_ub), -np.inf)]
        )
        row_upper = np.concatenate([b_eq, b_ub])
    else:
        a = a_eq.tocsc()
        row_lower = np.asarray(b_eq, dtype=float)
        row_upper = np.asarray(b_eq, dtype=float)

    highs = highs_bindings()
    if highs is not None:
        try:
            result = _run_highs(
                highs, cost, a, row_lower, row_upper, warm_basis, "ipm"
            )
            if result.status == "error":
                # Mirror scipy-path behaviour: retry with (cold) simplex.
                result = _run_highs(
                    highs, cost, a, row_lower, row_upper, None, None
                )
            return result
        except (AttributeError, TypeError):
            # The vendored bindings are private scipy API; if a scipy
            # upgrade drifts them (module imports but members renamed),
            # record that once and degrade to the public linprog path
            # below for this and every later solve.
            _highs = None

    # Fallback: scipy linprog, IPM first then simplex — the historical
    # BlockLP behaviour.  No warm starts are possible on this path.
    from scipy.optimize import linprog

    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ipm",
    )
    if not result.success and result.status not in (2,):
        result = linprog(
            cost,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
        )
    if result.success:
        status = "optimal"
    elif result.status == 2 or "infeasible" in str(result.message).lower():
        status = "infeasible"
    else:
        status = "error"
    return SparseLPResult(
        x=np.asarray(result.x) if result.success else np.zeros(len(cost)),
        objective=float(result.fun) if result.success else 0.0,
        status=status,
        message=str(result.message),
        iterations=int(getattr(result, "nit", 0) or 0),
        basis=None,
        info={"backend": "linprog", "warm_basis": False},
    )
