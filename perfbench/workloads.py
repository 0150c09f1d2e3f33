"""The benchmark's workloads: inputs from a seed, timed operations, checks.

A workload is a list of operations (one *pass*) built from the seed.
Each operation times its own work, returns the per-unit latencies it
saw and an *observation* — the canonical outputs that the check
compares with ``reference.json`` (or, for inputs the reference does not
cover, with the same operation's earlier passes in this run).

* ``size``: warm-chained ``sweep_budgets`` over each scenario's budget
  axis (``netproc``, the heavy ``random-mesh-4-165`` and a seeded
  ``random-mesh-4-<m>`` member).  Unit: one sweep point.
* ``simulate``: replication batches on netproc at the uniform (``pre``)
  and the committed sized (``post``) allocation, on the default lane of
  ``ExecutionContext(jobs=1)``.  Unit: one replication.
* ``fleet-matrix``: a cold ``repro.dist.run_matrix`` on a fresh local
  broker with two ``repro dist worker`` processes.  Unit: one block.
"""

from __future__ import annotations

import contextlib
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (compiled kernels, temp files).
WORK = ROOT / ".perfbench_tmp"

#: Pools the seeded generated members are drawn from: members at the
#: family's most common degree sequence whose sizing time is within 8%
#: of the median, so runs on different seeds do comparable work
#: (``pools.py`` derives them from the timings in ``pool_survey.jsonl``).
#: Every member is recorded in the reference, so sizing outputs are
#: checked exactly on any seed.  The filter hides wirings that make the
#: solver work much harder, so the size workload also sweeps one fixed
#: heavy member, random-mesh-4-165 (about 8x a pool member's warm
#: simplex iterations).
MESH4_POOL = (
    2, 10, 43, 76, 77, 93, 101, 115, 125, 135, 152, 187, 199,
    206, 224, 228, 230, 264, 288, 305, 319, 327, 331, 347, 374, 383,
)
MESH2_POOL = (
    0, 2, 7, 25, 27, 29, 32, 37, 38, 39, 40, 46, 47,
    50, 51, 55, 58, 59, 68, 71, 74, 79, 82, 88, 91, 105,
)

#: Relative tolerance on ``expected_loss_rate``.
LOSS_RATE_RTOL = 1e-9

FLEET_WORKERS = 2


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_SIM_CC_DIR"] = str(WORK / "mbkernel")
    env["TMPDIR"] = str(WORK)
    return env


def untimed_window():
    """The window of an untraced operation: brackets nothing."""
    return contextlib.nullcontext()


def seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# ----------------------------------------------------------------------
# Configuration per workload (full size, and a tiny one for self-tests).


@dataclass(frozen=True)
class Config:
    size_fixed: tuple
    size_family: Optional[str]
    size_members: int
    sim_scenario: str
    sim_budget: int
    sim_duration: float
    sim_singles: int
    sim_width: int
    fleet_fixed: tuple
    fleet_family: Optional[str]
    fleet_replications: int
    fleet_block_reps: int
    fleet_duration: float


FULL = Config(
    size_fixed=("netproc", "random-mesh-4-165"),
    size_family="random-mesh-4-{}",
    size_members=1,
    sim_scenario="netproc",
    sim_budget=160,
    sim_duration=3000.0,
    sim_singles=4,
    sim_width=8,
    fleet_fixed=("amba", "fig1", "coreconnect"),
    fleet_family="random-mesh-2-{}",
    fleet_replications=4,
    fleet_block_reps=2,
    fleet_duration=1500.0,
)

TINY = Config(
    size_fixed=("amba", "fig1"),
    size_family=None,
    size_members=0,
    sim_scenario="amba",
    sim_budget=18,
    sim_duration=200.0,
    sim_singles=2,
    sim_width=3,
    fleet_fixed=("amba",),
    fleet_family=None,
    fleet_replications=4,
    fleet_block_reps=2,
    fleet_duration=200.0,
)


def size_scenarios(config: Config, seed: int) -> List[str]:
    names = list(config.size_fixed)
    if config.size_family:
        members = seeded("size", seed).sample(MESH4_POOL, config.size_members)
        names += [config.size_family.format(m) for m in members]
    return names


def sim_base_seed(seed: int) -> int:
    return seeded("simulate", seed).randrange(1_000_000)


def fleet_inputs(config: Config, seed: int):
    rng = seeded("fleet-matrix", seed)
    names = list(config.fleet_fixed)
    mesh = rng.choice(MESH2_POOL)
    if config.fleet_family:
        names.append(config.fleet_family.format(mesh))
    return names, rng.randrange(1_000_000)


# ----------------------------------------------------------------------
# Observations and their comparison.


def sizing_observation(result) -> Dict[str, Any]:
    return {
        "sizes": dict(sorted(result.allocation.sizes.items())),
        "expected_loss_rate": float(result.expected_loss_rate),
    }


def losses(results) -> List[Dict[str, int]]:
    return [dict(sorted(r.lost.items())) for r in results]


def same(observed: Any, expected: Any) -> bool:
    """Exact equality, except ``expected_loss_rate`` within its tolerance."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        if observed.keys() != expected.keys():
            return False
        for key, value in expected.items():
            if key == "expected_loss_rate":
                scale = max(abs(value), 1e-300)
                if abs(observed[key] - value) > LOSS_RATE_RTOL * scale:
                    return False
            elif not same(observed[key], value):
                return False
        return True
    if isinstance(expected, list) and isinstance(observed, list):
        return len(observed) == len(expected) and all(
            same(o, e) for o, e in zip(observed, expected)
        )
    return observed == expected


# ----------------------------------------------------------------------
# Operations.


@dataclass
class OpOutcome:
    """What one timed operation did."""

    name: str
    wall_s: float
    units: List[float]
    observation: Any = None
    setup_s: Optional[float] = None
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Op:
    """One operation of a pass: ``run(window)`` plus its check.

    ``run`` receives the context manager that brackets its timed part
    (the ledger window in a traced run, a no-op otherwise).  ``check``
    returns ``True`` for a correct observation; ``None`` means "no
    reference for this input", and the runner then holds the operation
    to its own first observation in this run.
    """

    name: str
    run: Callable[[Any], OpOutcome]
    check: Callable[[Any], Optional[bool]]


class Workload:
    """Base: setup phases, then one pass of operations."""

    name = ""

    def __init__(self, seed: int, config: Config, reference: dict) -> None:
        self.seed = seed
        self.config = config
        self.reference = reference
        self.setup_parts: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


def _median_of(fn: Callable[[], Any], repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


class SizeWorkload(Workload):
    name = "size"

    def setup(self) -> None:
        from repro import scenarios

        self.names = size_scenarios(self.config, self.seed)
        self.specs = [scenarios.get(name) for name in self.names]

        def build():
            self.topologies = [spec.topology() for spec in self.specs]

        self.setup_parts["arch"] = _median_of(build)

    def ops(self) -> List[Op]:
        return [
            self.sweep_op(spec, topology)
            for spec, topology in zip(self.specs, self.topologies)
        ]

    def sweep_op(self, spec, topology) -> Op:
        expected = self.reference.get("sweeps", {}).get(spec.name)

        def run(window) -> OpOutcome:
            # Looked up at call time, so a traced run's wrapper applies.
            import repro.exec.sweeps as sweeps

            stamps: List[float] = []
            with window():
                start = time.perf_counter()
                outcome = sweeps.sweep_budgets(
                    topology,
                    spec.budgets,
                    sizer_kwargs=dict(spec.sizer_kwargs),
                    warm_start=True,
                    cache=None,
                    jobs=1,
                    on_result=lambda b, r: stamps.append(time.perf_counter()),
                )
                wall = time.perf_counter() - start
            units = [b - a for a, b in zip([start] + stamps, stamps)]
            observation = {
                str(p.budget): sizing_observation(p.result)
                for p in outcome.points
            }
            return OpOutcome(f"sweep {spec.name}", wall, units, observation)

        def check(observation) -> Optional[bool]:
            if expected is None:
                return None
            return same(observation, expected)

        return Op(f"sweep {spec.name}", run, check)


class SimulateWorkload(Workload):
    name = "simulate"

    def setup(self) -> None:
        from repro import scenarios
        from repro.core.sizing import BufferAllocation
        from repro.exec import ExecutionContext
        from repro.policies import UniformSizing

        config = self.config
        self.spec = scenarios.get(config.sim_scenario)
        self.base_seed = sim_base_seed(self.seed)
        inputs = self.reference["inputs"][config.sim_scenario]

        def build():
            self.topology = self.spec.topology()
            self.allocations = {
                "pre": UniformSizing().allocate(
                    self.topology, config.sim_budget
                ),
                "post": BufferAllocation(
                    sizes=dict(inputs["post"]), budget=config.sim_budget
                ),
            }

        self.setup_parts["arch"] = _median_of(build)
        self.context = ExecutionContext(jobs=1)
        start = time.perf_counter()
        for allocation in self.allocations.values():
            self.context.replicate(
                self.topology,
                allocation.as_capacities(),
                replications=1,
                duration=config.sim_duration / 30.0,
                base_seed=0,
            )
        self.setup_parts["warmup"] = time.perf_counter() - start
        self.pre_matches = same(
            dict(sorted(self.allocations["pre"].sizes.items())),
            inputs["pre"],
        )
        self.expected = self.reference.get("simulate", {}).get(str(self.seed))
        self._seen: Dict[str, Dict[int, Any]] = {}

    def ops(self) -> List[Op]:
        ops = []
        for label, allocation in self.allocations.items():
            for index in range(self.config.sim_singles):
                ops.append(self.batch_op(label, allocation, index, 1))
            ops.append(
                self.batch_op(label, allocation, 0, self.config.sim_width)
            )
        return ops

    def batch_op(self, label, allocation, first, width) -> Op:
        capacities = allocation.as_capacities()
        base_seed = self.base_seed + 1000 * first
        name = f"{label} reps {first}..{first + width - 1}"

        def run(window) -> OpOutcome:
            stamps: List[float] = []
            with window():
                start = time.perf_counter()
                summary = self.context.replicate(
                    self.topology,
                    capacities,
                    replications=width,
                    duration=self.config.sim_duration,
                    base_seed=base_seed,
                    on_result=lambda i, r: stamps.append(time.perf_counter()),
                )
                wall = time.perf_counter() - start
            units = [b - a for a, b in zip([start] + stamps, stamps)]
            return OpOutcome(
                name,
                wall,
                units,
                losses(summary.results),
                extras={"replications": width},
            )

        def check(observation) -> Optional[bool]:
            if not self.pre_matches or not self._consistent(
                label, first, observation
            ):
                return False
            if self.expected is None:
                return None
            return same(observation, self.expected[label][first:first + width])

        return Op(name, run, check)

    def _consistent(self, label, first, observation) -> bool:
        """Whether replication ``first + i`` matches every earlier run of it.

        The wide batch and the single batches cover the same seeds
        (legacy scheme: base + 1000 r), so their loss counts must agree
        on any seed, recorded or not.
        """
        seen = self._seen.setdefault(label, {})
        ok = True
        for offset, lost in enumerate(observation):
            if seen.setdefault(first + offset, lost) != lost:
                ok = False
        return ok


class FleetWorkload(Workload):
    name = "fleet-matrix"

    def setup(self) -> None:
        from repro import scenarios

        config = self.config
        self.names, self.base_seed = fleet_inputs(config, self.seed)

        def build():
            for name in self.names:
                scenarios.get(name).topology()

        self.setup_parts["arch"] = _median_of(build)
        self.matrix_kwargs = dict(
            replications=config.fleet_replications,
            duration=config.fleet_duration,
            base_seed=self.base_seed,
            block_reps=config.fleet_block_reps,
        )
        self.expected_sizing = self.reference.get("cells", {})
        self.expected_losses = self.reference.get("fleet", {}).get(
            str(self.seed)
        )
        self.workers: List[subprocess.Popen] = []
        self.server = None
        self.fleet_outcome = None

    # -- fleet lifecycle ----------------------------------------------

    def _spin_up(self):
        from repro.dist import BrokerServer, DistExecutor

        self.server = BrokerServer(port=0, lease_timeout=30.0).start_in_thread()
        host, port = self.server.address
        address = f"{host}:{port}"
        self.workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "dist",
                    "worker",
                    address,
                    "-q",
                    "--poll-interval",
                    "0.01",
                    "--max-idle",
                    "120",
                ],
                cwd=str(ROOT),
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for _ in range(FLEET_WORKERS)
        ]
        executor = DistExecutor(
            address, poll_interval=0.01, on_broker_loss="fail", timeout=170
        )
        deadline = time.monotonic() + 60
        while executor.stats()["workers"] < FLEET_WORKERS:
            if time.monotonic() > deadline or any(
                w.poll() is not None for w in self.workers
            ):
                raise RuntimeError("fleet workers failed to start")
            time.sleep(0.01)
        return executor

    def teardown(self) -> None:
        for worker in self.workers:
            if worker.poll() is None:
                worker.terminate()
        for worker in self.workers:
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        self.workers = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- operations ---------------------------------------------------

    def ops(self) -> List[Op]:
        return [Op("fleet run_matrix", self._fleet_run, self._check)]

    def serial_op(self) -> Op:
        """The serial reference run of the same matrix (traced runs)."""
        return Op("serial run_matrix", self._serial_run, self._check)

    def _matrix(self, window, executor):
        # Looked up at call time, so a traced run's wrapper applies.
        import repro.dist

        stamps: List[float] = []
        with window():
            start = time.perf_counter()
            outcome = repro.dist.run_matrix(
                self.names,
                executor=executor,
                on_result=lambda i, b: stamps.append(time.perf_counter()),
                **self.matrix_kwargs,
            )
            wall = time.perf_counter() - start
        units = [b - a for a, b in zip([start] + stamps, stamps)]
        observation = [
            {
                "scenario": cell.scenario,
                "budget": cell.budget,
                "sizing": {
                    "sizes": dict(sorted(cell.sizes.items())),
                    "expected_loss_rate": float(cell.expected_loss_rate),
                },
                "lost": losses(cell.summary.results),
            }
            for cell in outcome.cells
        ]
        return wall, units, observation, outcome

    def _fleet_run(self, window) -> OpOutcome:
        try:
            start = time.perf_counter()
            executor = self._spin_up()
            spin_up = time.perf_counter() - start
            before = executor.stats()
            cache_before = executor.cache_stats()
            wall, units, observation, outcome = self._matrix(window, executor)
            after = executor.stats()
            cache_after = executor.cache_stats()
        finally:
            self.teardown()
        delta = {k: after[k] - before[k] for k in before if isinstance(before[k], int)}
        cache = {k: cache_after[k] - cache_before[k] for k in cache_before}
        self.fleet_outcome = outcome.to_jsonable()
        return OpOutcome(
            "fleet run_matrix",
            wall,
            units,
            observation,
            setup_s=spin_up,
            extras={"stats": delta, "cache": cache, "cells": len(outcome.cells)},
        )

    def _serial_run(self, window) -> OpOutcome:
        wall, units, observation, outcome = self._matrix(window, None)
        if self.fleet_outcome is None:
            raise AssertionError("no fleet merge to verify the serial run against")
        if outcome.to_jsonable() != self.fleet_outcome:
            raise AssertionError("serial run_matrix differs from the fleet merge")
        return OpOutcome("serial run_matrix", wall, units, observation)

    def _check(self, observation) -> Optional[bool]:
        for cell in observation:
            expected = self.expected_sizing.get(cell["scenario"], {}).get(
                str(cell["budget"])
            )
            if expected is None or not same(cell["sizing"], expected):
                return False
        if self.expected_losses is None:
            return None
        return same([c["lost"] for c in observation], self.expected_losses)


WORKLOADS = {
    cls.name: cls for cls in (SizeWorkload, SimulateWorkload, FleetWorkload)
}
