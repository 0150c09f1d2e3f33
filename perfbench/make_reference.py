#!/usr/bin/env python3
"""Record ``reference.json``: the outputs every benchmark run is checked against.

Run from the root of a checkout (a full recording takes about ten
minutes on two cores)::

    python3 perfbench/make_reference.py

The reference holds, for the full and the tiny configuration:

* ``inputs``: the simulate workload's allocations (uniform ``pre`` and
  the sized ``post``, which is input data, not re-sized per run);
* ``sweeps``: warm-chained budget sweeps of every scenario the size
  workload can draw (the fixed ones and the whole generated pool);
* ``cells``: the cold sizing of every fleet-matrix cell the fleet
  workload can draw;
* ``simulate`` / ``fleet``: simulated loss counts for the recorded
  seeds (the default and the held-out seeds of ``manifest.json``).

Sweeps and simulate losses are recorded by running the workloads' own
operations; fleet cells and losses come from independent serial paths
(``ExecutionContext.size`` and ``run_matrix`` without an executor), so
the fleet check also compares the fleet with a second implementation.

Re-record only when a change is *meant* to alter the program's outputs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    FULL,
    MESH2_POOL,
    MESH4_POOL,
    SRC,
    TINY,
    WORK,
    SimulateWorkload,
    SizeWorkload,
    child_env,
    fleet_inputs,
    losses,
    sizing_observation,
    untimed_window,
)

sys.path.insert(0, str(SRC))

REFERENCE = os.path.join(HERE, "reference.json")
#: Recording processes (about ten minutes with two on a 2-CPU machine).
JOBS = 2


def recorded_seeds():
    with open(os.path.join(HERE, "manifest.json")) as fh:
        seeds = json.load(fh)["seeds"]
    return seeds["default"] + seeds["held_out"]


def sweep(job):
    config, name = job
    from repro import scenarios

    spec = scenarios.get(name)
    workload = SizeWorkload(0, config, {})
    op = workload.sweep_op(spec, spec.topology())
    return name, op.run(untimed_window).observation


def cells(name):
    from repro import scenarios
    from repro.exec import ExecutionContext

    spec = scenarios.get(name)
    topology = spec.topology()
    context = ExecutionContext(jobs=1).scoped(spec)
    return name, {
        str(budget): sizing_observation(
            context.size(topology, budget, sizer_kwargs=dict(spec.sizer_kwargs))
        )
        for budget in dict.fromkeys(spec.budgets)
    }


def simulate_losses(job):
    """Loss counts of the wide batch at each allocation (seeds 0..width-1)."""
    config, seed, inputs = job
    workload = SimulateWorkload(seed, config, {"inputs": inputs})
    workload.setup()
    return {
        label: workload.batch_op(label, allocation, 0, config.sim_width)
        .run(untimed_window)
        .observation
        for label, allocation in workload.allocations.items()
    }


def fleet_losses(job):
    config, seed = job
    from repro.dist import run_matrix

    names, base_seed = fleet_inputs(config, seed)
    outcome = run_matrix(
        names,
        replications=config.fleet_replications,
        duration=config.fleet_duration,
        base_seed=base_seed,
        block_reps=config.fleet_block_reps,
    )
    return [losses(cell.summary.results) for cell in outcome.cells]


def record(config, pool, seeds, mesh4, mesh2):
    from repro import scenarios
    from repro.core.sizing import BufferSizer
    from repro.policies import UniformSizing

    spec = scenarios.get(config.sim_scenario)
    topology = spec.topology()
    pre = UniformSizing().allocate(topology, config.sim_budget)
    post = BufferSizer(
        total_budget=config.sim_budget, **spec.sizer_kwargs
    ).size(topology).allocation
    inputs = {
        config.sim_scenario: {
            "pre": dict(sorted(pre.sizes.items())),
            "post": dict(sorted(post.sizes.items())),
        }
    }

    sweep_names = list(config.size_fixed)
    cell_names = list(config.fleet_fixed)
    if config.size_family:
        sweep_names += [config.size_family.format(m) for m in mesh4]
    if config.fleet_family:
        cell_names += [config.fleet_family.format(m) for m in mesh2]

    return {
        "inputs": inputs,
        "sweeps": dict(pool.map(sweep, [(config, n) for n in sweep_names])),
        "cells": dict(pool.map(cells, cell_names)),
        "simulate": dict(
            zip(
                map(str, seeds),
                pool.map(
                    simulate_losses,
                    [(config, seed, inputs) for seed in seeds],
                ),
            )
        ),
        "fleet": dict(
            zip(
                map(str, seeds),
                pool.map(fleet_losses, [(config, seed) for seed in seeds]),
            )
        ),
    }


def main() -> int:
    seeds = recorded_seeds()
    WORK.mkdir(exist_ok=True)
    os.environ.update(
        {k: v for k, v in child_env().items() if k != "PYTHONPATH"}
    )
    with multiprocessing.get_context("fork").Pool(JOBS) as pool:
        reference = {
            "tiny": record(TINY, pool, seeds, (), ()),
            "full": record(FULL, pool, seeds, MESH4_POOL, MESH2_POOL),
        }
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
