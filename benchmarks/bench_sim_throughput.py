"""Infrastructure bench: discrete-event simulator throughput.

Not a paper artefact — tracks the events-per-second of the simulation
lanes (the heap reference engine, the array-native batched lane and the
mega-batch kernel ``simulate_block`` picks) over a scenario subset (the
paper's netproc testbed plus two template scenarios from the registry)
so performance regressions in the substrate, and each lane's speedup
over the reference, are visible in benchmark runs across architecture
shapes.  Each throughput
bench reports ``events_per_second`` in its ``extra_info`` (arrivals
plus service starts over mean wall time); ``make bench-quick`` groups
the backends per scenario so the ratio reads off directly.
"""

import pytest

from repro import scenarios
from repro.policies.uniform import UniformSizing
from repro.sim.runner import SIM_BACKENDS, simulate, simulate_block
from repro.sim.system import CommunicationSystem

#: Bench lanes.  "megabatch" is not a backend value: it labels the
#: kernel ``simulate_block`` runs for ``"batched"`` when a compiled
#: engine resolves, and keeps the bench ids of earlier runs comparable.
LANES = (*SIM_BACKENDS, "megabatch")

#: Simulated horizon of the throughput benches.  Long enough that the
#: event loop dominates one-time system construction.
DURATION = 400.0

#: Scenario subset the throughput/sizing benches sweep: the paper's
#: testbed plus a bridged template at each end of the size range.
BENCH_SCENARIOS = ("netproc", "fig1", "amba")


def _setup(scenario):
    """``(topology, capacities)`` of one scenario at its default budget."""
    spec = scenarios.get(scenario)
    topology = spec.topology()
    capacities = (
        UniformSizing().allocate(topology, spec.default_budget)
        .as_capacities()
    )
    return topology, capacities


def _skip_without_kernel(backend):
    """Skip a kernel bench when no compiled mega-batch engine resolves
    (``simulate_block`` then runs the batched lane, benched alongside)."""
    from repro.sim.megabatch import resolve_engine

    if backend == "megabatch" and resolve_engine() is None:
        pytest.skip("no compiled mega-batch engine (numba or cc)")


def _run(topology, capacities, backend):
    """One fixed-seed run returning the monitor (event counts)."""
    if backend == "megabatch":
        from repro.sim.megabatch import MegaBatchLane

        lane = MegaBatchLane(topology, capacities, [3])
        lane.start()
        lane.run_until(DURATION)
        return lane.monitor_for(0)
    system = CommunicationSystem(topology, capacities, seed=3)
    if backend == "batched":
        from repro.sim.batched import BatchedSystem

        lane = BatchedSystem(system)
        lane.start()
        lane.run_until(DURATION)
    else:
        for source in system.sources:
            source.start()
        system.simulator.run_until(DURATION)
    return system.monitor


@pytest.mark.parametrize("scenario", BENCH_SCENARIOS)
@pytest.mark.parametrize("backend", LANES)
def test_simulator_throughput(benchmark, scenario, backend):
    benchmark.group = f"simulator_throughput[{scenario}]"
    _skip_without_kernel(backend)
    topology, capacities = _setup(scenario)

    monitor = benchmark(_run, topology, capacities, backend)
    # Executed events = packet arrivals + service starts (the two event
    # kinds of this model); report throughput for the perf trajectory.
    events = monitor.total_offered() + monitor.waiting_time_count
    assert events > 0
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["scenario"] = scenario
        benchmark.extra_info["events"] = events
        benchmark.extra_info["events_per_second"] = round(
            events / benchmark.stats["mean"]
        )


#: Replication counts of the mega-batch replication-throughput bench.
MEGABATCH_RS = (1, 8, 32)


def _run_replications(topology, capacities, backend, replications):
    """One fixed-seed replication batch: per-seed ``simulate`` runs, or
    one ``simulate_block`` call for the kernel lane."""
    seeds = [3 + 1000 * r for r in range(replications)]
    if backend == "megabatch":
        return simulate_block(
            topology, capacities, duration=DURATION, seeds=seeds
        )
    return [
        simulate(
            topology, capacities, duration=DURATION, seed=seed,
            backend=backend,
        )
        for seed in seeds
    ]


@pytest.mark.parametrize("replications", MEGABATCH_RS)
@pytest.mark.parametrize("backend", ("batched", "megabatch"))
def test_replication_throughput(benchmark, backend, replications):
    """Replications/s of one netproc cell: ``simulate_block`` vs serial
    per-seed ``simulate(backend="batched")``.

    The mega-batch acceptance headline — one kernel cell advancing R
    replications at once vs R serial batched runs — measured on the
    paper's testbed through the public entry points, so result
    extraction is timed too.  Reports ``replications_per_second``.
    """
    benchmark.group = f"replication_throughput[netproc,R={replications}]"
    _skip_without_kernel(backend)
    topology, capacities = _setup("netproc")

    results = benchmark(
        _run_replications, topology, capacities, backend, replications
    )
    assert len(results) == replications
    assert all(r.total_offered > 0 for r in results)
    if benchmark.stats:  # absent under --benchmark-disable
        mean = benchmark.stats["mean"]
        benchmark.extra_info["scenario"] = "netproc"
        benchmark.extra_info["replications"] = replications
        benchmark.extra_info["replications_per_second"] = round(
            replications / mean, 3
        )


@pytest.mark.parametrize("scenario", BENCH_SCENARIOS)
def test_backend_equivalence_smoke(scenario):
    """Every lane agrees bitwise on the bench workloads.

    Guards the determinism contract right where the speedup is
    measured: identical fixed-seed metrics from the heap engine,
    per-seed batched runs and ``simulate_block``, so the throughput
    comparison above is apples to apples — on every bench scenario.
    """
    topology, capacities = _setup(scenario)
    heap = simulate(topology, capacities, duration=150.0, seed=3)
    batched = simulate(
        topology, capacities, duration=150.0, seed=3, backend="batched"
    )
    block = simulate_block(topology, capacities, duration=150.0, seeds=[3])
    assert heap == batched
    assert [heap] == block


@pytest.mark.parametrize("scenario", BENCH_SCENARIOS)
def test_sizing_throughput(benchmark, scenario):
    """End-to-end CTMDP sizing latency per scenario at default budget."""
    from repro.core.sizing import BufferSizer

    benchmark.group = f"sizing_throughput[{scenario}]"
    spec = scenarios.get(scenario)
    topology = spec.topology()

    def run():
        return BufferSizer(
            total_budget=spec.default_budget, **spec.sizer_kwargs
        ).size(topology)

    result = benchmark.pedantic(run, iterations=1, rounds=2)
    assert result.allocation.total == spec.default_budget
    benchmark.extra_info["scenario"] = scenario
