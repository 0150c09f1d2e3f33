#!/usr/bin/env python3
"""Survey the generated scenario families and derive the seeded pools.

Run from the root of a checkout (it sizes about 170 members: tens of
minutes on two cores)::

    python3 perfbench/pools.py

It times the sizing of every candidate member, writes the timings to
``pool_survey.jsonl`` and prints the pools they give.  The committed
``pool_survey.jsonl`` holds the timings behind ``MESH4_POOL`` and
``MESH2_POOL`` in ``workloads.py`` (two members timed at once on a
2-CPU x86 container); ``selftest.py`` checks that they give those pools.

Candidates are the members whose split has the family's most common
clients-per-subsystem sequence, so the seed varies the wiring at a
fixed degree sequence.  Wiring alone still moves the solver's work by
up to 6x, so a pool keeps only the candidates whose sizing time is
within ``TOLERANCE`` of the candidates' median, and of those the first
``POOL_SIZE`` in member order.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SURVEY = os.path.join(HERE, "pool_survey.jsonl")

MESH4 = "random-mesh-4-{}"
MESH4_CANDIDATES = range(400)
MESH4_SEQUENCE = (4, 4, 5, 6)
MESH2 = "random-mesh-2-{}"
MESH2_CANDIDATES = range(131)
MESH2_SEQUENCE = (4, 4)

TOLERANCE = 0.08
POOL_SIZE = 26


def sequence(name):
    from repro import scenarios
    from repro.core.splitting import split

    split_system = split(scenarios.get(name).topology(), 1)
    return tuple(sorted(len(s.clients) for s in split_system.subsystems))


def _count_iterations():
    """Wrap the LP solver so a survey record can count iterations."""
    import repro.core.lp as lp

    original = lp.solve_sparse_lp
    counts = {"cold": 0, "warm": 0}

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        kind = "warm" if kwargs.get("warm_basis") is not None else "cold"
        counts[kind] += result.iterations
        return result

    lp.solve_sparse_lp = counting
    return counts


def time_member(name):
    """Per-point seconds of a mesh-4 sweep or of mesh-2 cold sizings."""
    from repro import scenarios
    from repro.exec import ExecutionContext
    from repro.exec.sweeps import sweep_budgets

    counts = _count_iterations()
    spec = scenarios.get(name)
    topology = spec.topology()
    stamps = [time.perf_counter()]
    if name.startswith(MESH4.format("")):
        sweep_budgets(
            topology,
            spec.budgets,
            sizer_kwargs=dict(spec.sizer_kwargs),
            warm_start=True,
            cache=None,
            jobs=1,
            on_result=lambda b, r: stamps.append(time.perf_counter()),
        )
    else:
        for budget in spec.budgets:
            ExecutionContext(jobs=1).size(
                topology, budget, sizer_kwargs=dict(spec.sizer_kwargs)
            )
            stamps.append(time.perf_counter())
    return {
        "scenario": name,
        "point_s": [round(b - a, 2) for a, b in zip(stamps, stamps[1:])],
        "cold_iterations": counts["cold"],
        "warm_iterations": counts["warm"],
    }


def within(values, tolerance=TOLERANCE):
    middle = statistics.median(values.values())
    return {
        k for k, v in values.items() if abs(v - middle) <= tolerance * middle
    }


def derive(records):
    """``(MESH4_POOL, MESH2_POOL)`` from survey records."""
    member = {
        r["scenario"]: int(r["scenario"].rsplit("-", 1)[1]) for r in records
    }
    mesh4 = [r for r in records if r["scenario"].startswith(MESH4.format(""))]
    mesh2 = [r for r in records if r["scenario"].startswith(MESH2.format(""))]
    keep4 = within({r["scenario"]: r["point_s"][0] for r in mesh4}) & within(
        {r["scenario"]: sum(r["point_s"]) for r in mesh4}
    )
    keep2 = within({r["scenario"]: sum(r["point_s"]) for r in mesh2})
    return tuple(
        tuple(sorted(member[name] for name in keep)[:POOL_SIZE])
        for keep in (keep4, keep2)
    )


def load(path=SURVEY):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main() -> int:
    sys.path.insert(0, HERE)
    from workloads import SRC

    sys.path.insert(0, str(SRC))
    names = [
        family.format(m)
        for family, candidates, wanted in (
            (MESH4, MESH4_CANDIDATES, MESH4_SEQUENCE),
            (MESH2, MESH2_CANDIDATES, MESH2_SEQUENCE),
        )
        for m in candidates
        if sequence(family.format(m)) == wanted
    ]
    # One process per member, so each starts with an unwrapped solver.
    context = multiprocessing.get_context("fork")
    with context.Pool(2, maxtasksperchild=1) as pool, open(SURVEY, "w") as fh:
        for record in pool.imap(time_member, names):
            fh.write(json.dumps(record) + "\n")
            fh.flush()
    mesh4, mesh2 = derive(load())
    print("MESH4_POOL =", mesh4)
    print("MESH2_POOL =", mesh2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
