"""Self-tests of the benchmark (tiny configuration, about three minutes).

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, HERE)
import pools  # noqa: E402
import workloads  # noqa: E402
from run import LEDGER_LAYERS  # noqa: E402


def run_bench(workload, trace, reference=None, lines=False):
    command = [
        sys.executable,
        RUN,
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        str(trace),
        "--tiny",
    ]
    if reference is not None:
        command += ["--reference", str(reference)]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    output = proc.stdout.strip().splitlines()
    result = json.loads(output[-1])
    return (result, output[:-1]) if lines else result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def _corrupt(node):
    """Every integer leaf plus one (allocations and loss counts)."""
    if isinstance(node, dict):
        return {key: _corrupt(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_corrupt(value) for value in node]
    if isinstance(node, int) and not isinstance(node, bool):
        return node + 1
    return node


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_every_operation(workload, tmp_path):
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    for key in ("sweeps", "cells", "simulate", "fleet"):
        reference["tiny"][key] = _corrupt(reference["tiny"][key])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result = run_bench(workload, 0, reference=path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_rows_add_up_to_wall(workload):
    """The layer rows account for the operations' own timings.

    ``unattributed_s`` is the ledger's wall minus its rows, so the test
    holds the rows to a time the ledger did not measure: the sum of the
    operations' own wall times.  Rows that double-count nested spans
    push ``unattributed_s`` below zero; rows that miss a layer leave
    more than 5% unattributed.
    """
    result, lines = run_bench(workload, 1, lines=True)
    metrics = result["metrics"]
    (check,) = [
        json.loads(line[len("# ledger check "):])
        for line in lines
        if line.startswith("# ledger check ")
    ]
    operations = check["operations_s"]
    rows = sum(metrics[f"{layer}_s"]["value"] for layer in LEDGER_LAYERS)
    unattributed = metrics["unattributed_s"]["value"]
    wall = metrics["ledger.wall_s"]["value"]
    assert operations > 0
    assert abs(wall - operations) <= 0.05 * operations
    assert 0 <= unattributed <= 0.05 * operations
    assert abs(rows + unattributed - operations) <= 0.05 * operations
    assert 0 < metrics["trace_overhead_s"]["value"] < 0.05 * operations


def test_pools_follow_from_the_committed_survey():
    assert pools.derive(pools.load()) == (
        workloads.MESH4_POOL,
        workloads.MESH2_POOL,
    )
