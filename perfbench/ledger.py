"""Layer ledger: self time per layer, measured from outside the program.

The traced run wraps public callables of each layer at the site the
caller looks them up (a module attribute or a class attribute) and
records, per layer, its *self* time: the span's duration minus the part
covered by nested spans of other wrapped calls.  Self times of disjoint
layers therefore add up to the wall time of the traced window, and the
remainder is reported as ``unattributed_s``.

Spans only count while a timed window is open (:meth:`Ledger.window`);
outside a window a wrapped call goes straight to the original.

The wrappers' own cost is estimated, not measured as a traced minus an
untraced run: the wrapped calls are coarse (an LP solve, a simulation),
so the true overhead is milliseconds, far below the run-to-run noise of
a difference of two runs.  :func:`span_cost` times a wrapped no-op
instead, and the overhead is the number of spans times that cost.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional


class Ledger:
    """Per-layer self times and counters of one traced window set."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.spans = 0
        self._open = False
        # One entry per open span: [layer, child seconds].
        self._stack: List[list] = []

    # -- windows -------------------------------------------------------

    @contextmanager
    def window(self):
        """Count spans (and wall time) inside this block."""
        self._open = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start
            self._open = False

    def rows(self) -> Dict[str, float]:
        """Self seconds per layer plus the unattributed remainder."""
        rows = dict(self.self_s)
        rows["unattributed"] = self.wall_s - sum(self.self_s.values())
        return rows

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: Any,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``layer`` is a name, or a function of the call's arguments that
        returns one.  ``after(result, args, kwargs)`` runs once per
        outermost call of that layer (nested calls of the same layer,
        e.g. ``simulate`` delegating to ``simulate_block``, count once).
        """
        original = getattr(owner, attr)
        ledger = self

        def wrapper(*args, **kwargs):
            if not ledger._open:
                return original(*args, **kwargs)
            name = layer(*args, **kwargs) if callable(layer) else layer
            ledger.spans += 1
            nested = any(frame[0] == name for frame in ledger._stack)
            frame = [name, 0.0]
            ledger._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                ledger._stack.pop()
                ledger.self_s[name] += elapsed - frame[1]
                if ledger._stack:
                    ledger._stack[-1][1] += elapsed
            if after is not None and not nested:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call (median over ``repeats``)."""
    probe = SimpleNamespace(call=lambda: None)
    direct = probe.call
    ledger = Ledger()
    ledger.wrap(probe, "call", "probe")
    wrapped = probe.call
    samples = []
    with ledger.window():
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                direct()
            middle = time.perf_counter()
            for _ in range(calls):
                wrapped()
            end = time.perf_counter()
            samples.append(((end - middle) - (middle - start)) / calls)
    return max(statistics.median(samples), 0.0)


def install_layer_wraps(ledger: Ledger) -> None:
    """Wrap the public calls of every layer the workloads reach."""
    import repro.core.compiled as compiled
    import repro.core.lp as lp
    import repro.core.sizing as sizing
    import repro.dist as dist
    import repro.exec as exec_
    import repro.exec.sweeps as sweeps
    import repro.scenarios.spec as spec
    import repro.sim.runner as runner

    counts = ledger.counts
    maxima = ledger.maxima

    ledger.wrap(spec.ScenarioSpec, "topology", "arch.build")

    ledger.wrap(sweeps, "sweep_budgets", "exec.runtime")
    ledger.wrap(exec_.ExecutionContext, "size", "exec.runtime")
    ledger.wrap(exec_.ExecutionContext, "replicate", "exec.runtime")

    def after_size(result, args, kwargs):
        sizing_result = result[0]
        counts["sizing.runs"] += 1
        counts["sizing.fixed_point_iterations"] += (
            sizing_result.fixed_point_iterations
        )
        counts["sizing.converged"] += bool(sizing_result.converged)

    ledger.wrap(sizing.BufferSizer, "size_warm", "sizing.fixed_point", after_size)
    ledger.wrap(sizing, "split", "splitting.split")
    ledger.wrap(sizing, "CompiledBusLattice", "compiled.build")
    ledger.wrap(sizing, "CompiledClientChain", "compiled.build")
    ledger.wrap(compiled.CompiledBusLattice, "refresh", "compiled.refresh")
    ledger.wrap(compiled.CompiledClientChain, "refresh", "compiled.refresh")
    ledger.wrap(sizing, "allocate_greedy", "kswitching.allocate")

    ledger.wrap(lp.BlockProgram, "solve", "lp.assemble")

    def lp_kind(cost, a_eq, b_eq, a_ub, b_ub, warm_basis=None):
        return "lp.cold_solve" if warm_basis is None else "lp.warm_solve"

    def after_lp(result, args, kwargs):
        cost, a_eq, _b_eq, a_ub = args[:4]
        kind = "warm" if kwargs.get("warm_basis") is not None else "cold"
        counts[f"lp.{kind}_solves"] += 1
        counts[f"lp.{kind}_iterations"] += result.iterations
        nnz = a_eq.nnz + (a_ub.nnz if a_ub is not None else 0)
        maxima["lp.columns"] = max(maxima["lp.columns"], len(cost))
        maxima["lp.nnz"] = max(maxima["lp.nnz"], nnz)

    ledger.wrap(lp, "solve_sparse_lp", lp_kind, after_lp)

    def after_sim(result, args, kwargs):
        runs = result if isinstance(result, list) else [result]
        counts["sim.replications"] += len(runs)
        counts["sim.packets"] += sum(run.total_offered for run in runs)

    ledger.wrap(runner, "simulate", "sim.run", after_sim)
    ledger.wrap(runner, "simulate_block", "sim.run", after_sim)

    # run_block itself ships to fleet workers by reference, so it stays
    # unwrapped; its own overhead lands in the dist.matrix row.
    ledger.wrap(dist, "run_matrix", "dist.matrix")
    ledger.wrap(dist.DistExecutor, "map", "dist.wait")
