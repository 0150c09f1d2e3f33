"""The import floor: importing repro costs numpy and repro, nothing more.

scipy loads on the first LP solve (the HiGHS bindings) and networkx is
not a runtime dependency at all.  The subprocess tests start fresh
interpreters, so modules this test process has already loaded do not
mask an eager import.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.arch.templates import paper_figure1
from repro.core import compiled
from repro.core.sizing import BufferSizer

SRC = Path(__file__).resolve().parents[1] / "src"

#: The modules every benchmark workload imports before it starts.
PROBE_SET = "repro.cli, repro.dist, repro.exec.sweeps, repro.policies"

#: A meta-path finder that makes scipy and networkx unimportable.
BLOCKER = """
import sys

class _Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "networkx"):
            raise ModuleNotFoundError(f"blocked: {name}", name=name)
        return None

sys.meta_path.insert(0, _Blocked())
"""

SIMULATE = [
    "simulate",
    "--scenario",
    "amba",
    "--policy",
    "uniform",
    "--reps",
    "2",
    "--duration",
    "200",
]


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_cli(args, blocked: bool) -> subprocess.CompletedProcess:
    code = (BLOCKER if blocked else "") + (
        "import runpy, sys\n"
        f"sys.argv = ['repro'] + {list(args)!r}\n"
        "runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
    )
    return run_python(code)


class TestImportFloor:
    def test_probe_set_imports_no_scipy_or_networkx(self):
        proc = run_python(
            f"import sys\nimport {PROBE_SET}\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'networkx'))))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_simulate_runs_with_scipy_and_networkx_blocked(self):
        plain = run_cli(SIMULATE, blocked=False)
        blocked = run_cli(SIMULATE, blocked=True)
        assert plain.returncode == 0, plain.stderr
        assert blocked.returncode == 0, blocked.stderr
        assert blocked.stdout == plain.stdout
        assert "mean total loss" in blocked.stdout

    def test_have_highs_is_readable_before_any_solve(self):
        proc = run_python(
            "import sys\n"
            "from repro.core import compiled\n"
            "print('scipy' in sys.modules)\n"
            "print(compiled.HAVE_HIGHS)\n"
        )
        assert proc.returncode == 0, proc.stderr
        loaded, have = proc.stdout.split()
        assert loaded == "False"
        assert have in ("True", "False")


def small_lp():
    """min x0 + 2 x1 + 3 x2 s.t. x0 + x1 + x2 = 1, x0 <= 0.25."""
    from scipy.sparse import csc_matrix

    return (
        np.array([1.0, 2.0, 3.0]),
        csc_matrix(np.array([[1.0, 1.0, 1.0]])),
        np.array([1.0]),
        csc_matrix(np.array([[1.0, 0.0, 0.0]])),
        np.array([0.25]),
    )


class TestSolverLoader:
    def test_have_highs_is_a_bool(self):
        assert isinstance(compiled.HAVE_HIGHS, bool)
        with pytest.raises(AttributeError):
            compiled.NO_SUCH_ATTRIBUTE

    def test_failed_loader_falls_back_to_linprog(self, monkeypatch):
        highs = compiled.solve_sparse_lp(*small_lp())
        monkeypatch.setattr(compiled, "_highs", compiled._UNPROBED)
        # A None entry makes the bindings' import raise ImportError.
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
        assert compiled.HAVE_HIGHS is False
        fallback = compiled.solve_sparse_lp(*small_lp())
        assert fallback.status == "optimal"
        assert fallback.info["backend"] == "linprog"
        assert fallback.basis is None
        assert fallback.objective == pytest.approx(highs.objective, abs=1e-9)
        assert fallback.objective == pytest.approx(1.75, abs=1e-9)

    def test_drifted_bindings_are_dropped_once(self, monkeypatch):
        touched = []

        class Drifted(types.ModuleType):
            def __getattr__(self, name):
                touched.append(name)
                raise AttributeError(name)

        monkeypatch.setattr(compiled, "_highs", Drifted("drifted"))
        first = compiled.solve_sparse_lp(*small_lp())
        assert first.status == "optimal"
        assert first.info["backend"] == "linprog"
        assert touched and compiled.HAVE_HIGHS is False
        touched.clear()
        second = compiled.solve_sparse_lp(*small_lp())
        assert second.objective == first.objective
        assert touched == []


class TestSolverFacts:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    @pytest.mark.skipif(not compiled.HAVE_HIGHS, reason="needs HiGHS")
    def test_lp_solve_spans_carry_highs_info(self):
        obs.enable_tracing()
        BufferSizer(total_budget=28).size(paper_figure1())
        spans = [
            args for name, _s, _d, args in obs.recorder().spans()
            if name == "solver.lp_solve"
        ]
        assert spans
        for args in spans:
            assert args["backend"] == "highs"
            for key in (
                "ipm_iterations",
                "simplex_iterations",
                "crossover_iterations",
            ):
                assert isinstance(args[key], int) and args[key] >= 0
            assert args["max_primal_infeasibility"] >= 0.0
            assert args["max_dual_infeasibility"] >= 0.0
        assert spans[0]["warm_basis"] is False
        assert spans[0]["ipm_iterations"] > 0
        if len(spans) > 1:
            assert all(args["warm_basis"] for args in spans[1:])
