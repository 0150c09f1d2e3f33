"""Tests for the mega-batch replication kernel behind ``simulate_block``.

The lane's whole value rests on one claim: stacking ``R`` replications
into one array program changes *nothing* about the numbers.  So the
suite is mostly equality matrices — kernel vs batched vs heap across
scenarios, arbiters, timeout and warmup; every available engine against
the interpreted oracle; serial vs ``jobs=N`` vs distributed merges —
plus the supporting contracts: block-pool stream identity, fallback
gating, progress-event ordering, obs instrumentation, and the
allocation-free hot path.
"""

import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from repro import obs, scenarios
from repro.errors import SimulationError
from repro.exec.pool import parallel_map, partition_blocks
from repro.policies.uniform import UniformSizing
from repro.sim.arbiter import KERNEL_ARBITERS
from repro.sim.fastpath import ExponentialBlockPool, ExponentialPool
from repro.sim.megabatch import (
    MegaBatchLane,
    available_engines,
    megabatch_supported,
    resolve_engine,
)
from repro.sim.runner import (
    SIM_BACKENDS,
    replicate,
    replication_seeds,
    simulate,
    simulate_block,
)

#: Scenario axis of the equivalence matrix: the three fixed scenarios
#: plus one generated random-mesh family member.
SCENARIOS = ("netproc", "fig1", "amba", "random-mesh-2-7")

AVAILABLE_ENGINES = tuple(
    name for name, ok in available_engines().items() if ok
)

#: The engine tests that must drive a real lane use: the compiled one
#: the host resolves, else the interpreted oracle (on a host without
#: numba or cc, ``simulate_block`` itself never builds a lane).
KERNEL_ENGINE = resolve_engine() or "python"


def _per_seed_batched(topology, capacities, replications, duration):
    """The reference every replication batch is pinned to."""
    return [
        simulate(
            topology, capacities, duration=duration, seed=seed,
            backend="batched",
        )
        for seed in replication_seeds(replications)
    ]


def _cell(name):
    spec = scenarios.get(name)
    topology = spec.topology()
    capacities = (
        UniformSizing().allocate(topology, spec.default_budget)
        .as_capacities()
    )
    return topology, capacities


@pytest.fixture(scope="module", params=SCENARIOS)
def cell(request):
    return request.param, *_cell(request.param)


@pytest.fixture()
def lane_widths(monkeypatch):
    """Seed count of every MegaBatchLane built while the test runs."""
    from repro.sim import megabatch

    widths = []

    class CountingLane(megabatch.MegaBatchLane):
        def __init__(self, topology, capacities, seeds, **kwargs):
            widths.append(len(seeds))
            super().__init__(topology, capacities, seeds, **kwargs)

    monkeypatch.setattr(megabatch, "MegaBatchLane", CountingLane)
    return widths


# -- satellite: the 2-D block-draw API ----------------------------------


class TestExponentialBlockPool:
    def test_each_row_bitwise_matches_an_independent_pool(self):
        seeds = [3, 1003, 77, 2**40 + 5]
        pool = ExponentialBlockPool(
            [np.random.default_rng(s) for s in seeds]
        )
        block = pool.take_block(700)  # spans multiple refill chunks
        assert block.shape == (len(seeds), 700)
        for row, seed in enumerate(seeds):
            solo = ExponentialPool(np.random.default_rng(seed))
            expected = solo.take(700)
            assert block[row].tolist() == expected.tolist()

    def test_take_row_continues_the_row_stream(self):
        seeds = [11, 12]
        pool = ExponentialBlockPool(
            [np.random.default_rng(s) for s in seeds]
        )
        first = pool.take_block(100)
        more = pool.take_row(1, 50)
        solo = ExponentialPool(np.random.default_rng(12))
        assert first[1].tolist() == solo.take(100).tolist()
        assert more.tolist() == solo.take(50).tolist()

    def test_rows_property_and_empty_rejected(self):
        pool = ExponentialBlockPool([np.random.default_rng(0)])
        assert pool.rows == 1
        with pytest.raises(ValueError):
            ExponentialBlockPool([])


# -- the bitwise equivalence matrix -------------------------------------


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("arbiter", KERNEL_ARBITERS)
    @pytest.mark.parametrize(
        "timeout,warmup", [(None, 0.0), (4.0, 50.0)]
    )
    def test_megabatch_matches_batched(self, cell, arbiter, timeout, warmup):
        name, topology, capacities = cell
        seeds = [3, 1003, 77]
        block = simulate_block(
            topology,
            capacities,
            duration=120.0,
            seeds=seeds,
            arbiter_kind=arbiter,
            timeout_threshold=timeout,
            warmup=warmup,
        )
        for seed, got in zip(seeds, block):
            ref = simulate(
                topology,
                capacities,
                duration=120.0,
                seed=seed,
                arbiter_kind=arbiter,
                timeout_threshold=timeout,
                warmup=warmup,
                backend="batched",
            )
            assert got == ref, (name, arbiter, timeout, warmup, seed)

    def test_megabatch_matches_heap(self, cell):
        name, topology, capacities = cell
        got = simulate_block(
            topology, capacities, duration=100.0, seeds=[3]
        )[0]
        ref = simulate(
            topology, capacities, duration=100.0, seed=3, backend="heap"
        )
        assert got == ref, name


# -- engine cross-equality ----------------------------------------------


class TestEngines:
    @pytest.mark.parametrize("engine", AVAILABLE_ENGINES)
    def test_engine_bitwise_matches_batched(self, engine):
        topology, capacities = _cell("netproc")
        seeds = [3, 1003]
        block = simulate_block(
            topology,
            capacities,
            duration=150.0,
            seeds=seeds,
            timeout_threshold=3.0,
            engine=engine,
        )
        for seed, got in zip(seeds, block):
            ref = simulate(
                topology, capacities, duration=150.0, seed=seed,
                timeout_threshold=3.0, backend="batched",
            )
            assert got == ref, engine

    @pytest.mark.skipif(
        not available_engines()["numba"], reason="numba not installed"
    )
    def test_numba_jit_engine_matches(self):
        topology, capacities = _cell("fig1")
        block = simulate_block(
            topology, capacities, duration=150.0, seeds=[3],
            engine="numba",
        )
        ref = simulate(
            topology, capacities, duration=150.0, seed=3,
            backend="batched",
        )
        assert block[0] == ref

    def test_forced_unavailable_engine_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CC", "0")
        from repro.sim import _mbcc

        monkeypatch.setattr(_mbcc, "_tried", False)
        monkeypatch.setattr(_mbcc, "_cached", None)
        with pytest.raises(SimulationError, match="cc"):
            resolve_engine("cc")

    def test_unknown_engine_rejected(self, monkeypatch):
        # "numpy" named the deleted lockstep engine.
        for name in ("fortran", "numpy"):
            with pytest.raises(SimulationError, match="unknown"):
                resolve_engine(name)
        monkeypatch.setenv("REPRO_SIM_ENGINE", "numpy")
        with pytest.raises(SimulationError, match="unknown"):
            resolve_engine()

    def test_env_var_forces_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "python")
        assert resolve_engine() == "python"
        monkeypatch.delenv("REPRO_SIM_ENGINE")
        # The automatic path only ever picks the C build.
        assert resolve_engine() in ("cc", None)

    def test_numba_runs_only_when_forced(self, monkeypatch):
        from repro.sim import _mbcc, megabatch

        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        monkeypatch.setattr(_mbcc, "load_kernel", lambda: None)
        monkeypatch.setattr(megabatch, "_load_numba", lambda: object())
        assert resolve_engine() is None
        monkeypatch.setenv("REPRO_SIM_ENGINE", "numba")
        assert resolve_engine() == "numba"


# -- kernel-path gating and fallback ------------------------------------


class TestSupportGate:
    def test_deterministic_arbiters_supported(self):
        topology, _ = _cell("fig1")
        for arbiter in KERNEL_ARBITERS:
            assert megabatch_supported(topology, arbiter)

    def test_weighted_random_not_supported(self):
        topology, _ = _cell("fig1")
        assert not megabatch_supported(topology, "weighted_random")

    def test_stateful_traffic_not_supported(self):
        from repro.arch.traffic import TrafficDescriptor
        from repro.sim.workloads import TraceTraffic

        assert TrafficDescriptor.stateless_sampling is True
        assert TraceTraffic.stateless_sampling is False

    def test_unsupported_backend_falls_back_bitwise(self):
        topology, capacities = _cell("fig1")
        got = simulate_block(
            topology, capacities, duration=100.0, seeds=[3],
            arbiter_kind="weighted_random",
        )[0]
        ref = simulate(
            topology, capacities, duration=100.0, seed=3,
            arbiter_kind="weighted_random", backend="batched",
        )
        assert got == ref

    def test_no_compiled_engine_runs_batched_per_seed(self, monkeypatch):
        from repro.sim import _mbcc, megabatch

        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        monkeypatch.setattr(_mbcc, "load_kernel", lambda: None)
        monkeypatch.setattr(megabatch, "_load_numba", lambda: None)

        def no_lane(*args, **kwargs):
            raise AssertionError("MegaBatchLane built without a compiler")

        monkeypatch.setattr(megabatch, "MegaBatchLane", no_lane)
        assert resolve_engine() is None
        topology, capacities = _cell("netproc")
        seeds = [3, 1003, 77]
        block = simulate_block(
            topology, capacities, duration=120.0, seeds=seeds,
            timeout_threshold=3.0, warmup=20.0,
        )
        for seed, got in zip(seeds, block):
            ref = simulate(
                topology, capacities, duration=120.0, seed=seed,
                timeout_threshold=3.0, warmup=20.0, backend="batched",
            )
            assert got == ref, seed

    def test_lane_needs_an_engine(self, monkeypatch):
        from repro.sim import _mbcc, megabatch

        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        monkeypatch.setattr(_mbcc, "load_kernel", lambda: None)
        monkeypatch.setattr(megabatch, "_load_numba", lambda: None)
        topology, capacities = _cell("fig1")
        with pytest.raises(SimulationError, match="engine='python'"):
            MegaBatchLane(topology, capacities, [3])
        assert MegaBatchLane(
            topology, capacities, [3], engine="python"
        ).engine == "python"

    def test_lane_rejects_randomised_arbiter(self):
        topology, capacities = _cell("fig1")
        with pytest.raises(SimulationError, match="deterministic"):
            MegaBatchLane(
                topology, capacities, [3],
                arbiter_kind="weighted_random",
            )

    def test_lane_rejects_empty_seed_list(self):
        topology, capacities = _cell("fig1")
        with pytest.raises(SimulationError, match="seed"):
            MegaBatchLane(topology, capacities, [])

    def test_lane_window_protocol_errors(self):
        topology, capacities = _cell("fig1")
        lane = MegaBatchLane(
            topology, capacities, [3], engine=KERNEL_ENGINE
        )
        with pytest.raises(SimulationError, match="start"):
            lane.run_until(10.0)
        lane.start()
        with pytest.raises(SimulationError, match="started"):
            lane.start()
        lane.run_until(10.0)
        with pytest.raises(SimulationError, match="before now"):
            lane.run_until(5.0)


# -- block dispatch: replicate / jobs=N / dist --------------------------


class TestBlockDispatch:
    def test_partition_blocks_cover_in_order(self):
        assert partition_blocks(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert partition_blocks(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert partition_blocks(5, 1) == [(0, 5)]
        with pytest.raises(SimulationError):
            partition_blocks(0, 2)

    def test_replicate_matches_batched_serial_and_pooled(self):
        topology, capacities = _cell("amba")
        kwargs = dict(replications=5, duration=150.0)
        ref = _per_seed_batched(topology, capacities, **kwargs)
        serial = replicate(
            topology, capacities, backend="batched", **kwargs
        )
        pooled = replicate(
            topology, capacities, backend="batched", jobs=2, **kwargs
        )
        heap = replicate(topology, capacities, jobs=2, **kwargs)
        assert serial.results == ref
        assert pooled.results == ref
        assert heap.results == ref

    def test_wide_batch_splits_into_capped_blocks(self, lane_widths):
        from repro.sim.runner import MEGABATCH_MAX_BLOCK

        topology, capacities = _cell("amba")
        kwargs = dict(replications=MEGABATCH_MAX_BLOCK + 1, duration=20.0)
        summary = replicate(topology, capacities, backend="batched", **kwargs)
        if resolve_engine() is not None:
            assert lane_widths == [33, 32]
        assert summary.results == _per_seed_batched(
            topology, capacities, **kwargs
        )

    def test_on_result_streams_per_replication_in_index_order(self):
        # Parity with the per-replication streaming contract: a block
        # completes as one unit but still reports every replication.
        topology, capacities = _cell("amba")
        for jobs in (1, 2):
            events = []
            summary = replicate(
                topology,
                capacities,
                replications=5,
                duration=100.0,
                backend="batched",
                jobs=jobs,
                on_result=lambda i, r: events.append((i, r)),
            )
            assert [i for i, _ in events] == list(range(5))
            assert [r for _, r in events] == summary.results


class TestDistMerge:
    @pytest.fixture()
    def server(self):
        from repro.dist import BrokerServer

        broker_server = BrokerServer(
            port=0, lease_timeout=5.0
        ).start_in_thread()
        yield broker_server
        broker_server.stop()

    def test_dist_merge_bitwise_identical(self, server):
        from repro.dist import DistExecutor, worker_loop

        fork = multiprocessing.get_context("fork")
        worker = fork.Process(
            target=worker_loop,
            args=(server.address,),
            kwargs={"poll_interval": 0.02},
            daemon=True,
        )
        worker.start()
        try:
            executor = DistExecutor(
                server.address, poll_interval=0.02, timeout=120
            )
            topology, capacities = _cell("amba")
            kwargs = dict(replications=5, duration=120.0)
            distributed = replicate(
                topology,
                capacities,
                backend="batched",
                executor=executor,
                **kwargs,
            )
            serial = _per_seed_batched(topology, capacities, **kwargs)
            assert distributed.results == serial
        finally:
            worker.terminate()


class TestChaosSmoke:
    def test_chaos_matrix_green_under_megabatch(self):
        # The default sim_backend runs the kernel whenever one resolves.
        from repro.faults.chaos import run_chaos_matrix
        from repro.faults.plan import standard_plans

        plans = dict(list(standard_plans().items())[:2])
        report = run_chaos_matrix(
            ["single-bus-4"],
            budgets=[8],
            replications=2,
            duration=20.0,
            plans=plans,
            modes=("serial", "jobs"),
            jobs=2,
        )
        assert report.all_match, report.render()


# -- cache keys ---------------------------------------------------------


class TestCacheKey:
    def test_backend_in_replicate_cache_key(self, monkeypatch):
        # The key carries the backend value, never the lane that ran: a
        # batch the per-seed lane wrote (on a host without a compiler,
        # or before "batched" took the kernel) is a hit for a kernel run.
        from repro.dist.jobs import ProcessMemo
        from repro.exec import ExecutionContext
        from repro.sim import _mbcc

        topology, capacities = _cell("fig1")
        memo = ProcessMemo()
        kwargs = dict(replications=2, duration=80.0)
        with monkeypatch.context() as patch:
            patch.setattr(_mbcc, "load_kernel", lambda: None)
            patch.delenv("REPRO_SIM_ENGINE", raising=False)
            per_seed = ExecutionContext(jobs=1, cache=memo).replicate(
                topology, capacities, **kwargs
            )
        kernel = ExecutionContext(jobs=1, cache=memo).replicate(
            topology, capacities, **kwargs
        )
        assert kernel.results == per_seed.results
        assert (memo.hits, memo.misses) == (1, 1)
        # A different backend value is a different entry.
        ExecutionContext(jobs=1, cache=memo, sim_backend="heap").replicate(
            topology, capacities, **kwargs
        )
        assert (memo.hits, memo.misses) == (1, 2)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_default_context_picks_the_lane(
        self, monkeypatch, lane_widths, compiled
    ):
        # One lane per batch when an engine resolves, none without one;
        # the same bits as per-seed batched runs either way.
        from repro.exec import ExecutionContext
        from repro.sim import _mbcc

        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        if not compiled:
            monkeypatch.setattr(_mbcc, "load_kernel", lambda: None)
        topology, capacities = _cell("fig1")
        kwargs = dict(replications=3, duration=80.0)
        summary = ExecutionContext(jobs=1).replicate(
            topology, capacities, **kwargs
        )
        assert lane_widths == ([3] if resolve_engine() is not None else [])
        assert summary.results == _per_seed_batched(
            topology, capacities, **kwargs
        )

    def test_cache_hit_still_streams_per_replication(self):
        from repro.dist.jobs import ProcessMemo
        from repro.exec import ExecutionContext

        topology, capacities = _cell("fig1")
        memo = ProcessMemo()
        context = ExecutionContext(jobs=1, cache=memo)
        kwargs = dict(replications=3, duration=80.0)
        context.replicate(topology, capacities, **kwargs)
        events = []
        hit = context.replicate(
            topology,
            capacities,
            on_result=lambda i, r: events.append(i),
            **kwargs,
        )
        assert memo.hits == 1
        assert events == list(range(3))
        assert len(hit.results) == 3


# -- observability ------------------------------------------------------


class TestObservability:
    def test_kernel_spans_and_metrics_fire(self):
        topology, capacities = _cell("fig1")
        obs.enable_metrics()
        obs.enable_tracing()
        try:
            simulate_block(
                topology, capacities, duration=100.0, seeds=[3, 1003],
                engine=KERNEL_ENGINE,
            )
            counters = obs.registry().counters_snapshot()
            assert counters["sim.megabatch.invocations"] >= 1
            histograms = obs.registry().snapshot()["histograms"]
            hist = histograms["sim.megabatch.replications_per_invocation"]
            assert hist["count"] >= 1
            assert hist["max"] == 2.0
            names = [name for name, *_ in obs.recorder().spans()]
            assert "sim.megabatch.kernel" in names
            # The window span names the engine that actually ran.
            lanes = lambda: {
                args.get("backend")
                for name, _, _, args in obs.recorder().spans()
                if name == "sim.window"
            }
            assert lanes() == {KERNEL_ENGINE}
            obs.recorder().clear()
            simulate_block(
                topology, capacities, duration=100.0, seeds=[3],
                arbiter_kind="weighted_random",
            )
            assert lanes() == {"batched"}
        finally:
            obs.reset()

    def test_kernel_allocates_nothing_in_obs_when_disabled(self):
        topology, capacities = _cell("fig1")
        run = lambda: simulate_block(
            topology, capacities, duration=200.0, seeds=[3],
            warmup=50.0, engine=KERNEL_ENGINE,
        )
        run()  # warm lazy imports, the compiled kernel, and caches
        obs_dir = os.path.dirname(obs.__file__)
        filters = [
            tracemalloc.Filter(True, os.path.join(obs_dir, "*")),
            tracemalloc.Filter(True, obs.__file__),
        ]
        tracemalloc.start()
        try:
            run()
            snapshot = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        stats = snapshot.statistics("lineno")
        assert not stats, [str(s) for s in stats]


# -- registry -----------------------------------------------------------


class TestRegistry:
    def test_backend_registered(self):
        # The kernel is picked inside simulate_block, never by name.
        assert SIM_BACKENDS == ("heap", "batched")

    def test_parallel_map_unaffected(self):
        # Block dispatch reuses parallel_map; the plain path stays put.
        assert parallel_map(len, [[1], [1, 2]]) == [1, 2]
