"""Benchmarks for the distributed queue (repro.dist): overhead + makespan.

``bench_dist_overhead`` measures the pure round-trip cost of the
broker/worker path — trivial ``echo`` jobs through an in-process broker
and two local worker processes on the ``batched`` wire shape (the
warm-up call makes ``echo`` a job the broker has seen, so
every all-cheap batch comes back as one pinned bulk lease with zero
per-job ``start()`` RPCs, and each worker uploads ``complete_many()``
batches of up to 8).  ``jobs_per_second`` is the row ``diff_bench.py``
tracks.

``bench_dist_makespan`` measures what cost scheduling is *for*: a
skewed matrix (one long cell submitted last + many short cells) on a
4-worker fleet.  The ``fifo`` rows tag every round with scenarios the
model has never seen, so the broker dispatches them in arrival order —
the production path of any unseen batch: the long job lands on one
worker after the shorts drain, so its full runtime is serialized at
the tail.  The ``cost`` rows reuse the scenarios the warm-up pass
taught the model, so the broker orders the long job first (LPT) and
the shorts pack behind it.  Both rows report ``makespan_seconds`` and
``jobs_per_second`` in ``extra_info`` so ``diff_bench.py`` tracks them
run over run.  The equivalence assert (ordered merge equals the serial
list) rides along like in every other bench.
"""

import itertools
import multiprocessing

import pytest

from repro.dist import BrokerServer, DistExecutor, worker_loop
from repro.dist.jobs import echo, sleep_block

#: Trivial jobs per measured overhead map call.
JOBS_PER_CALL = 32

#: The skewed makespan matrix: many short cells plus one long cell
#: submitted last (the FIFO worst case the scheduler exists to fix).
SHORT_JOBS = 64
SHORT_SECONDS = 0.04
LONG_SECONDS = 1.0

#: Makespans per dispatch, shared across the parametrized cases so the
#: ``cost`` case can assert it actually beat ``fifo`` in-process.
_makespans = {}


def _start_fleet(workers, poll_interval=0.005):
    server = BrokerServer(port=0, lease_timeout=30.0).start_in_thread()
    context = multiprocessing.get_context()
    procs = [
        context.Process(
            target=worker_loop,
            args=(server.address,),
            kwargs=dict(poll_interval=poll_interval),
            daemon=True,
        )
        for _ in range(workers)
    ]
    for proc in procs:
        proc.start()
    return server, procs


@pytest.fixture(scope="module", params=["batched"])
def fleet():
    """A 2-worker fleet on the batched wire shape (pinned bulk leases
    + ``complete_many`` uploads)."""
    server, procs = _start_fleet(workers=2, poll_interval=0.002)
    executor = DistExecutor(
        server.address, poll_interval=0.002, timeout=120
    )
    # Connect, let the workers spin up, and teach the model ``echo``.
    executor.map(echo, [0])
    yield executor
    for proc in procs:
        proc.terminate()
    server.stop()


def test_bench_dist_overhead(benchmark, fleet):
    """Round-trips per second of the work-stealing queue (echo jobs)."""
    executor = fleet
    items = list(range(JOBS_PER_CALL))
    result = benchmark(lambda: executor.map(echo, items))
    assert result == items  # the ordered-merge contract, measured path
    benchmark.extra_info["jobs_per_call"] = JOBS_PER_CALL
    benchmark.extra_info["jobs_per_second"] = round(
        JOBS_PER_CALL / benchmark.stats["mean"], 1
    )
    stats = executor.stats()
    benchmark.extra_info["steals"] = stats["steals"]
    benchmark.extra_info["pinned_leases"] = stats["pinned_leases"]
    # The measured path is the pinned bulk lease, not per-job starts.
    assert stats["pinned_leases"] > 0, stats


@pytest.fixture(scope="module")
def makespan_fleet():
    """A 4-worker fleet with a warm cost model.

    The warm-up pass runs the skewed matrix once so the broker's EWMA
    rates know the long cell from the shorts — the bench then measures
    scheduling quality, not cold-start learning.
    """
    server, procs = _start_fleet(workers=4)
    executor = DistExecutor(
        server.address, poll_interval=0.005, timeout=120
    )
    executor.map(sleep_block, _matrix(scale=0.1))  # spin up + warm model
    executor.map(sleep_block, _matrix(scale=1.0))
    yield executor
    for proc in procs:
        proc.terminate()
    server.stop()


def _matrix(scale=1.0, tag=""):
    """The skewed job list: shorts first, the long cell dead last.

    ``tag`` suffixes both scenario names; a fresh tag makes every job
    one the broker's cost model has never seen.
    """
    items = [
        {"scenario": "short" + tag, "index": i, "duration": SHORT_SECONDS * scale}
        for i in range(SHORT_JOBS)
    ]
    items.append(
        {
            "scenario": "long" + tag,
            "index": SHORT_JOBS,
            "duration": LONG_SECONDS * scale,
        }
    )
    return items


@pytest.mark.parametrize("dispatch", ["fifo", "cost"])
def test_bench_dist_makespan(benchmark, makespan_fleet, dispatch):
    """Skewed-matrix makespan: arrival order (unseen jobs)
    tail-serializes the long cell, cost/LPT (seen jobs) front-loads
    it."""
    rounds = itertools.count()

    def run():
        # Unseen rounds need a scenario tag no earlier round taught the
        # model; seen rounds reuse the warm-up's scenarios.
        tag = f"-unseen-{next(rounds)}" if dispatch == "fifo" else ""
        items = _matrix(tag=tag)
        return items, makespan_fleet.map(sleep_block, items)

    items, result = benchmark.pedantic(run, iterations=1, rounds=2)
    assert result == items  # scheduling cannot change the merge
    makespan = benchmark.stats["mean"]
    _makespans[dispatch] = makespan
    benchmark.extra_info["dispatch"] = dispatch
    benchmark.extra_info["workers"] = 4
    benchmark.extra_info["makespan_seconds"] = round(makespan, 4)
    benchmark.extra_info["jobs_per_second"] = round(
        len(items) / makespan, 1
    )
    if dispatch == "cost" and "fifo" in _makespans:
        # The real acceptance ratio (>= 1.4x) is asserted on the CI
        # artifact; in-process we only guard against cost scheduling
        # being flatly useless (timer noise makes a tight bound flaky).
        assert makespan < _makespans["fifo"] / 1.25
