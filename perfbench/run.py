#!/usr/bin/env python3
"""The repository benchmark: sizing, simulation and fleet workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload size --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in a fresh interpreter.
With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` the run wraps the
program's layer entry points and reports the per-layer ledger instead.
Lines before it (prefixed ``#``) give every metric with its unit and
sample count, and the machine fingerprint.  See ``manifest.json`` for
the workloads, the seeds and which layer metric moves which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from workloads import (
    FULL,
    ROOT,
    SRC,
    TINY,
    WORK,
    WORKLOADS,
    FleetWorkload,
    Op,
    OpOutcome,
    child_env,
    same,
    untimed_window,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

#: Modules every workload imports before it can start (setup.import_s).
IMPORTS = ("repro.cli", "repro.dist", "repro.exec.sweeps", "repro.policies")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import " + ", ".join(IMPORTS) + "; "
    "print(time.perf_counter() - t)"
)
#: Fresh interpreters timed per run; their median is setup.import_s.
IMPORT_PROBES = 7


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small scenarios and horizons (the benchmark's self-tests)",
    )
    parser.add_argument(
        "--reference",
        default=REFERENCE,
        help="reference outputs to check against (default: %(default)s)",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Statistics.


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def describe(name: str, values: List[float], unit: str) -> str:
    """One human line: median, the highest percentile with >= 10 samples
    beyond it (when there are enough samples), and the sample count."""
    values = sorted(values)
    n = len(values)
    line = f"# {name}: median {median(values):.6g} {unit} (n={n})"
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        line += f", p{pct} {cut:.6g} {unit}"
    return line


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def fingerprint() -> Dict[str, Any]:
    import numpy
    import scipy
    from repro.core import compiled
    from repro.exec import ExecutionContext
    from repro.sim.megabatch import resolve_engine

    return {
        "cpus": os.cpu_count(),
        "cc": shutil.which("cc") is not None,
        "numba": importlib.util.find_spec("numba") is not None,
        "highs_bindings": bool(compiled.HAVE_HIGHS),
        "sim_lane": ExecutionContext().sim_backend,
        "megabatch_engine": resolve_engine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ----------------------------------------------------------------------
# Running operations.


class Runner:
    """Executes operations, checks them and counts failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._first: Dict[str, Any] = {}

    def execute(self, op: Op, window) -> Optional[OpOutcome]:
        self.attempted += 1
        try:
            outcome = op.run(window)
            verdict = op.check(outcome.observation)
            if verdict is None:
                # No reference for this input: hold the operation to
                # its first observation in this run.
                verdict = same(
                    outcome.observation,
                    self._first.setdefault(op.name, outcome.observation),
                )
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            self.failed += 1
            print(f"# FAILED {op.name}: {exc!r}", file=sys.stderr)
            return None
        if not verdict:
            self.failed += 1
            print(f"# WRONG OUTPUT {op.name}", file=sys.stderr)
        return outcome


def import_seconds() -> float:
    """Median import time over fresh-interpreter probes.

    This process imports the modules afterwards, untimed: it starts
    with the benchmark's own modules loaded, so its sample would not be
    comparable with the probes'.
    """
    samples = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=str(ROOT),
            env=child_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    for module in IMPORTS:
        __import__(module)
    return median(samples)


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Set up, run the timed phase and return the result object."""
    config = TINY if args.tiny else FULL
    with open(args.reference) as fh:
        reference = json.load(fh)["tiny" if args.tiny else "full"]

    import_s = import_seconds()
    ledger = None
    if args.trace:
        from ledger import Ledger, install_layer_wraps

        ledger = Ledger()
        install_layer_wraps(ledger)

    workload = WORKLOADS[args.workload](args.seed, config, reference)
    runner = Runner()
    try:
        workload.setup()
        ops = workload.ops()
        if ledger is None:
            passes = timed_passes(runner, ops, args.seconds)
        else:
            passes = [[runner.execute(op, ledger.window) for op in ops]]
            if isinstance(workload, FleetWorkload):
                passes[0].append(
                    runner.execute(workload.serial_op(), ledger.window)
                )
    finally:
        workload.teardown()

    outcomes = [o for pass_ in passes for o in pass_ if o is not None]
    spin_ups = [o.setup_s for o in outcomes if o.setup_s is not None]
    setup = {"import": import_s, **workload.setup_parts}
    if spin_ups:
        setup["fleet"] = median(spin_ups)

    report: List[str] = [
        f"# workload {args.workload} seed {args.seed} "
        f"trace {args.trace} passes {len(passes)} "
        f"operations {runner.attempted} failed {runner.failed} "
        f"failed_frac {runner.failed / max(runner.attempted, 1):.6g}",
        "# setup parts: "
        + ", ".join(f"{k} {v:.4f} s" for k, v in setup.items()),
    ]
    if not outcomes:
        metrics: Dict[str, Dict[str, Any]] = {}
    elif ledger is None:
        metrics = end_to_end(args.workload, passes, outcomes, setup, report)
    else:
        metrics = per_layer(
            args.workload, ledger, outcomes, setup, report
        )
    report.append("# fingerprint " + json.dumps(fingerprint()))
    for line in report:
        print(line)
    return {
        "correct": runner.failed == 0 and bool(outcomes),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def timed_passes(runner: Runner, ops: List[Op], seconds: float):
    """Repeat whole passes while another one fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append([runner.execute(op, untimed_window) for op in ops])
        last = time.perf_counter() - pass_start
        if time.perf_counter() - start + last > seconds:
            return passes


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def end_to_end(workload, passes, outcomes, setup, report):
    pass_walls = [
        sum(o.wall_s for o in pass_ if o is not None) for pass_ in passes
    ]
    first = [o.units[0] for o in outcomes if o.units]
    later = [u for o in outcomes for u in o.units[1:]]
    names = {"size": ("size_cold_s", "size_warm_s")}.get(
        workload, ("first_result_s", "later_result_s")
    )
    report.append(describe("wall_s (per pass)", pass_walls, "s"))
    report.append(describe(names[0], first, "s"))
    if later:
        report.append(describe(names[1], later, "s"))
    if workload == "simulate":
        reps = sum(o.extras["replications"] for o in outcomes)
        busy = sum(o.wall_s for o in outcomes)
        report.append(
            f"# replications_per_s: {reps / busy:.6g} 1/s "
            f"({reps} replications in {busy:.4f} s)"
        )
    return {
        "setup_s": metric(sum(setup.values()), "s"),
        "wall_s": metric(median(pass_walls), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def per_layer(workload, ledger, outcomes, setup, report):
    from ledger import span_cost

    rows = ledger.rows()
    counts = ledger.counts
    seconds = {
        "setup.import_s": setup["import"],
        "setup.arch_s": setup["arch"],
        "setup.warmup_s": setup.get("warmup", 0.0),
        "setup.fleet_s": setup.get("fleet", 0.0),
    }
    for layer in LEDGER_LAYERS:
        seconds[f"{layer}_s"] = rows.get(layer, 0.0)
    seconds["unattributed_s"] = rows["unattributed"]
    seconds["ledger.wall_s"] = ledger.wall_s
    seconds["trace_overhead_s"] = ledger.spans * span_cost()
    report.append(
        "# ledger: "
        + ", ".join(f"{k} {v:.4f}" for k, v in sorted(rows.items()))
        + f" | wall {ledger.wall_s:.4f} s"
    )
    # The operations time themselves, apart from the ledger: the
    # self-tests hold the ledger's rows to this sum.
    report.append(
        "# ledger check "
        + json.dumps(
            {
                "operations_s": sum(o.wall_s for o in outcomes),
                "window_s": ledger.wall_s,
                "unattributed_s": rows["unattributed"],
                "spans": ledger.spans,
            }
        )
    )

    metrics = {name: metric(value, "s") for name, value in seconds.items()}
    for name in (
        "lp.cold_solves",
        "lp.cold_iterations",
        "lp.warm_solves",
        "lp.warm_iterations",
        "sizing.runs",
        "sizing.fixed_point_iterations",
        "sim.replications",
        "sim.packets",
    ):
        metrics[name] = metric(counts.get(name, 0), "count")
    for name in ("lp.columns", "lp.nnz"):
        metrics[name] = metric(ledger.maxima.get(name, 0), "count")
    runs = counts.get("sizing.runs", 0)
    metrics["sizing.converged_frac"] = metric(
        counts.get("sizing.converged", 0) / runs if runs else 0.0, "ratio"
    )
    sim_s = rows.get("sim.run", 0.0)
    metrics["sim.packets_per_s"] = metric(
        counts.get("sim.packets", 0) / sim_s if sim_s else 0.0, "1/s"
    )
    if workload == "size":
        cold = [o.units[0] for o in outcomes if o.units]
        warm = [u for o in outcomes for u in o.units[1:]]
    else:
        cold = warm = []
    metrics["sizing.cold_point_s"] = metric(median(cold) if cold else 0.0, "s")
    metrics["sizing.warm_point_s"] = metric(median(warm) if warm else 0.0, "s")
    metrics.update(fleet_metrics(workload, outcomes))
    return metrics


#: Ledger rows, in pipeline order (layer self times; see ledger.py).
LEDGER_LAYERS = (
    "arch.build",
    "exec.runtime",
    "sizing.fixed_point",
    "splitting.split",
    "compiled.build",
    "compiled.refresh",
    "kswitching.allocate",
    "lp.assemble",
    "lp.cold_solve",
    "lp.warm_solve",
    "sim.run",
    "dist.matrix",
    "dist.wait",
)

FLEET_COUNTS = {
    "dist.jobs": "completed",
    "dist.steals": "steals",
    "dist.reaped": "reaped_jobs",
    "dist.uploads": "batched_uploads",
}


def fleet_metrics(workload, outcomes) -> Dict[str, Dict[str, Any]]:
    values = {name: 0.0 for name in FLEET_COUNTS}
    values.update(
        {
            "dist.sizings_computed": 0.0,
            "dist.sizing_cells": 0.0,
            "dist.sizing_useful_ratio": 0.0,
        }
    )
    first_result = efficiency = 0.0
    fleet = [o for o in outcomes if o.name == "fleet run_matrix"]
    serial = [o for o in outcomes if o.name == "serial run_matrix"]
    if workload == "fleet-matrix" and fleet:
        stats, cache = fleet[0].extras["stats"], fleet[0].extras["cache"]
        for name, key in FLEET_COUNTS.items():
            values[name] = stats.get(key, 0)
        computed = cache["gets"] - cache["hits"]
        values["dist.sizings_computed"] = computed
        values["dist.sizing_cells"] = fleet[0].extras["cells"]
        if computed:
            values["dist.sizing_useful_ratio"] = (
                fleet[0].extras["cells"] / computed
            )
        first_result = fleet[0].units[0] if fleet[0].units else 0.0
        if serial:
            efficiency = serial[0].wall_s / (2 * fleet[0].wall_s)
    metrics = {
        name: metric(value, "count" if "ratio" not in name else "ratio")
        for name, value in values.items()
    }
    metrics["dist.first_result_s"] = metric(first_result, "s")
    metrics["dist.parallel_efficiency"] = metric(efficiency, "ratio")
    return metrics


# ----------------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; merged, prefixed metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--reference",
            args.reference,
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(
            command, cwd=str(ROOT), capture_output=True, text=True
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC.relative_to(ROOT)}/repro; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    WORK.mkdir(exist_ok=True)
    os.environ.update(
        {k: v for k, v in child_env().items() if k != "PYTHONPATH"}
    )
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
