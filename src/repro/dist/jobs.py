"""Module-level job functions the fleet ships to workers.

Distributed jobs are pickled *by reference* (module + name), so every
function here must be importable on both ends and a pure function of
its payload — same contract as :func:`repro.exec.pool.parallel_map`
workers, which is exactly what makes the distributed merge
bitwise-identical to the local one.

The one piece of ambient state is the **active cache**: the worker
loop installs its :class:`~repro.dist.cachetier.CacheTier` process-wide
before serving jobs, and :func:`run_block` builds its
:class:`~repro.exec.ExecutionContext` on whatever is installed
(``None`` on a plain local run).  The cache can only skip recomputing
pure results, so its presence or absence never changes a number —
that is asserted by the fleet equality tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro import obs, scenarios
from repro.exec import ExecutionContext
from repro.exec.cache import entry_key


class ProcessMemo:
    """In-process fallback store behind the ``fetch`` cache interface.

    A local (non-fleet) matrix run has no worker tier installed, yet
    every replication block of a cell would otherwise repeat the same
    expensive sizing solve.  ``run_matrix`` installs one of these for
    the duration of a local run, deduplicating the solves within each
    process — the driver's serial loop, or each (forked) pool worker —
    under the same content addresses and the same ``should_store`` gate
    as the real tiers, so its presence can never change a number.
    Scoped to the run (installed before, uninstalled after), it can
    never grow past one run's distinct cells.
    """

    def __init__(self) -> None:
        self._store: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    # The full ResultCache store interface (key/lookup/put/fetch), so
    # a memo-backed context supports every runtime path — sweeps and
    # replicate address the store piecewise, not only through fetch.

    def key(self, kind, payload) -> str:
        return entry_key(kind, payload)

    def lookup(self, key):
        if key in self._store:
            self.hits += 1
            return True, self._store[key]
        self.misses += 1
        return False, None

    def put(self, key, value) -> None:
        self._store[key] = value

    def fetch(self, kind, payload, compute, should_store=None):
        key = self.key(kind, payload)
        hit, value = self.lookup(key)
        if hit:
            return value
        value = compute()
        if should_store is None or should_store(value):
            self.put(key, value)
        return value


#: Process-wide cache the worker loop installs (a CacheTier), consulted
#: by every fleet job running in this process.
_ACTIVE_CACHE: Optional[Any] = None


def set_active_cache(cache: Optional[Any]) -> Optional[Any]:
    """Install the process-wide job cache; returns the previous one."""
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    return previous


def active_cache() -> Optional[Any]:
    """The cache fleet jobs in this process currently run against."""
    return _ACTIVE_CACHE


def echo(item: Any) -> Any:
    """Identity job — the queue-overhead benchmark and smoke tests."""
    return item


def sleep_block(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Sleep for the payload's ``duration`` — a synthetic fleet cell.

    The makespan benchmark's stand-in for a real cell: runtime is the
    payload's declared duration, so the payload shape doubles as the
    scheduler feature source (``scenario`` + ``duration`` are exactly
    what :func:`repro.dist.costmodel.job_features` reads) and the cost
    model converges to near-perfect predictions within one pass.
    Returns a summary echoing the payload identity, so merged results
    still verify submission order.
    """
    import time

    time.sleep(float(payload["duration"]))
    return {
        "scenario": payload.get("scenario"),
        "index": payload.get("index"),
        "duration": float(payload["duration"]),
    }


@dataclass(frozen=True)
class BlockOutcome:
    """One replication block of one fleet cell, fully self-describing.

    ``results`` are the block's :class:`SimulationResult`\\ s in
    replication order (global indices ``start..stop-1``); the sizing
    fields repeat per block so the driver can cross-check that every
    block of a cell solved to the same allocation.
    """

    scenario: str
    budget: int
    start: int
    stop: int
    sizes: Dict[str, int]
    expected_loss_rate: float
    converged: bool
    results: List[Any]


def run_block(payload: Dict[str, Any]) -> BlockOutcome:
    """Size one scenario×budget cell and simulate one replication slice.

    The payload fully determines the outcome: scenario name, budget,
    the *global* replication layout (count, base seed, scheme — seeds
    are derived for the whole cell and indexed by the slice, so the
    block decomposition can never change a seed), horizon and
    simulation backend.  The sizing runs through the active cache when
    one is installed: on a fleet, the worker loop installs its
    :class:`CacheTier` (the first worker to converge a cell's sizing
    publishes it and every other block reuses it); for local runs,
    ``run_matrix`` installs a run-scoped :class:`ProcessMemo` instead.
    """
    from repro.sim.runner import replication_seeds, simulate_block

    spec = scenarios.get(payload["scenario"])
    topology = spec.topology()
    context = ExecutionContext(
        jobs=1,
        cache=active_cache(),
        sim_backend=payload["sim_backend"],
    ).scoped(spec)
    sizing = context.size(
        topology, payload["budget"], sizer_kwargs=dict(spec.sizer_kwargs)
    )
    capacities = sizing.allocation.as_capacities()
    seeds = replication_seeds(
        payload["replications"],
        payload["base_seed"],
        payload["seed_scheme"],
    )
    # One simulate_block call per block: it runs the kernel when an
    # engine resolves, per-seed runs otherwise.  Seeds are indexed from
    # the global list, so the block results are bitwise the per-seed
    # runs the serial path would produce.
    results = simulate_block(
        topology,
        capacities,
        duration=payload["duration"],
        seeds=seeds[payload["start"]:payload["stop"]],
        backend=payload["sim_backend"],
    )
    # Scenario-labeled fleet telemetry: shipped to the broker with the
    # worker's other counters, split out by the Prometheus exposition
    # as repro_fleet_scenario_*_total{scenario=...}.  Counters only —
    # a disabled registry hands back shared no-op stubs, so the
    # zero-overhead contract holds.
    obs.counter("scenario.blocks.%s" % spec.name).inc()
    obs.counter("scenario.replications.%s" % spec.name).inc(
        int(payload["stop"]) - int(payload["start"])
    )
    return BlockOutcome(
        scenario=spec.name,
        budget=int(payload["budget"]),
        start=int(payload["start"]),
        stop=int(payload["stop"]),
        sizes=dict(sizing.allocation.sizes),
        expected_loss_rate=sizing.expected_loss_rate,
        converged=sizing.converged,
        results=results,
    )
