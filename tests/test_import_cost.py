"""Each command loads only the modules it runs.  Importing the package or
its CLI loads no other package module; each subcommand loads the ones it
calls.  No command loads scipy.optimize: the first LP solve loads only
its HiGHS binding, by file, under the binding's own module name.

Each test that watches sys.modules runs in a fresh interpreter, since this
process has long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from argmaxable import verifier

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a new interpreter that imports the package from
    the source tree; it prints one JSON object as its last line."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


PACKAGE = ("cli", "dftlayer", "labelspace", "linalg", "metrics", "oracle",
           "reportio", "verifier")
POOL = ("concurrent.futures", "logging", "queue")

IMPORT_ONLY = r"""
import json, sys
import argmaxable
package = sorted(m for m in sys.modules if m.startswith("argmaxable."))
import argmaxable.cli
print(json.dumps({
    "package": package,
    "cli": sorted(m for m in sys.modules if m.startswith("argmaxable.")),
}))
"""


def test_importing_the_package_or_its_cli_loads_no_other_module():
    out = _fresh(IMPORT_ONLY)
    assert out == {"package": [], "cli": ["argmaxable.cli"]}


ONE_RUN = r"""
import json, sys
import argmaxable.cli

code = argmaxable.cli.run(sys.argv[1:])
print(json.dumps({
    "code": code,
    "package": sorted(m.split(".")[1] for m in sys.modules if m.startswith("argmaxable.")),
    "pool": [m for m in %r if m in sys.modules],
}))
""" % (POOL,)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    from argmaxable.cli import run

    tmp = tmp_path_factory.mktemp("inputs")
    assert run(["dft", "--n", "6", "--k", "1", "--out", str(tmp / "w.csv")]) == 0
    (tmp / "w3.csv").write_text("1,0\n0,1\n1,1\n")
    (tmp / "labels.txt").write_text("+--\n-+-\n+-+\n")
    (tmp / "scores.csv").write_text("0.9,0.8,0.1\n0.2,0.1,0.7\n")
    (tmp / "gold.txt").write_text("++-\n--+\n")
    return tmp


# argv, then the package modules the run may load (beside cli), then
# whether it starts a thread pool.
RUNS = {
    "help": (["--help"], set(), False),
    "version": (["--version"], set(), False),
    "count": (["count", "--n", "20", "--d", "4"], {"labelspace"}, False),
    "check": (["check", "--matrix", "w.csv", "--out", "check.json"],
              {"reportio", "linalg", "labelspace"}, False),
    "enumerate": (["enumerate", "--matrix", "w.csv", "--budget", "2000",
                   "--out", "enumerate.json"],
                  {"reportio", "oracle", "linalg", "labelspace"}, False),
    "metrics": (["metrics", "--scores", "scores.csv", "--gold", "gold.txt",
                 "--k", "1,2", "--out", "metrics.json"],
                {"reportio", "metrics", "linalg", "labelspace"}, False),
    "dft": (["dft", "--n", "6", "--k", "1", "--out", "dft.csv"],
            {"reportio", "dftlayer", "linalg", "labelspace"}, False),
    "verify": (["verify", "--matrix", "w3.csv", "--labels", "labels.txt",
                "--jobs", "1", "--out", "verify.json"],
               {"reportio", "verifier", "dftlayer", "linalg", "labelspace"}, False),
    "verify-2-jobs": (["verify", "--matrix", "w3.csv", "--labels", "labels.txt",
                       "--jobs", "2", "--out", "verify.json"],
                      {"reportio", "verifier", "dftlayer", "linalg", "labelspace"}, True),
    "radii": (["radii", "--matrix", "w3.csv", "--kind", "active", "--k", "1",
               "--jobs", "1", "--out", "radii.json"],
              {"reportio", "verifier", "dftlayer", "linalg", "labelspace"}, False),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_a_command_loads_only_the_modules_it_runs(name, inputs, tmp_path):
    argv, modules, pool = RUNS[name]
    argv = [
        str((inputs if (inputs / a).exists() else tmp_path) / a)
        if a.endswith((".csv", ".txt", ".json")) else a
        for a in argv
    ]
    out = _fresh(ONE_RUN, *argv)
    assert out["code"] == 0
    assert out["package"] == sorted({"cli"} | modules)
    assert out["pool"] == (list(POOL) if pool else [])


COMMANDS = r"""
import json, sys
from pathlib import Path

def loaded():
    return [m in sys.modules for m in ("scipy.optimize", "scipy.optimize._highspy._core")]

steps_loaded = {}
import argmaxable, argmaxable.cli
steps_loaded["import"] = loaded()
tmp = Path(sys.argv[1])
(tmp / "scores.csv").write_text("0.9,0.8,0.1\n0.2,0.1,0.7\n")
(tmp / "gold.txt").write_text("++-\n--+\n")
(tmp / "labels.txt").write_text("+--\n-+-\n")
steps = [
    ("count", ["count", "--n", "20", "--d", "4", "--out", "count.json"]),
    ("dft", ["dft", "--n", "6", "--k", "1", "--out", "w.csv"]),
    ("check", ["check", "--matrix", "w.csv", "--out", "check.json"]),
    ("enumerate", ["enumerate", "--matrix", "w.csv", "--method", "sampled",
                   "--budget", "2000", "--out", "enumerate.json"]),
    ("metrics", ["metrics", "--scores", "scores.csv", "--gold", "gold.txt",
                 "--k", "1,2", "--out", "metrics.json"]),
    ("verify", ["verify", "--matrix", "w3.csv", "--labels", "labels.txt",
                "--out", "verify.json"]),
]
(tmp / "w3.csv").write_text("1,0\n0,1\n1,1\n")
codes = {}
for name, argv in steps:
    argv = [str(tmp / a) if a.endswith((".csv", ".txt", ".json")) else a for a in argv]
    codes[name] = argmaxable.cli.run(argv)
    steps_loaded[name] = loaded()
print(json.dumps({"loaded": steps_loaded, "codes": codes}))
"""


def test_no_command_loads_scipy_optimize(tmp_path):
    # [scipy.optimize loaded, HiGHS binding loaded] after each step.
    out = _fresh(COMMANDS, str(tmp_path))
    assert set(out["codes"].values()) == {0}, out["codes"]
    assert out["loaded"] == {
        "import": [False, False],
        "count": [False, False],
        "dft": [False, False],
        "check": [False, False],
        "enumerate": [False, False],
        "metrics": [False, False],
        "verify": [False, True],
    }


ONE_SOLVE = r"""
import json, sys
import numpy as np
from argmaxable.labelspace import LabelAssignment
from argmaxable.linalg import WeightMatrix
from argmaxable.verifier import LpConfig, _Session, chebyshev_verify

def solve():
    w = WeightMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    session = _Session(w, LpConfig())
    y = LabelAssignment(np.array([1, -1, 1], dtype=np.int8))
    return session, chebyshev_verify(w, y, session=session).status.value
"""

SOLVE_THEN_LINPROG = ONE_SOLVE + r"""
session, status = solve()
before = "scipy.optimize" in sys.modules
from scipy.optimize import linprog
lp = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0])
print(json.dumps({
    "status": status,
    "before": before,
    "linprog": [lp.status, lp.fun, lp.x.tolist()],
    "shared": session.core is sys.modules["scipy.optimize._highspy._core"],
}))
"""


def test_linprog_after_a_solve_shares_the_loaded_binding():
    out = _fresh(SOLVE_THEN_LINPROG)
    assert out["status"] == "argmaxable" and out["before"] is False
    status, fun, x = out["linprog"]
    assert status == 0 and fun == pytest.approx(-5.0)
    assert x == pytest.approx([3.0, 1.0])
    assert out["shared"] is True


SCIPY_OPTIMIZE_FIRST = ONE_SOLVE + r"""
import scipy.optimize
from scipy.optimize._highspy import _core

runs = []

class Counted(_core._Highs):
    def run(self):
        runs.append(1)
        return super().run()

_core._Highs = Counted
session, status = solve()
print(json.dumps({
    "status": status,
    "same": session.core is _core,
    "patched": type(session.highs) is Counted,
    "runs": len(runs),
}))
"""


def test_a_session_after_import_scipy_optimize_uses_its_binding():
    out = _fresh(SCIPY_OPTIMIZE_FIRST)
    assert out["status"] == "argmaxable"
    assert out["same"] is True and out["patched"] is True
    assert out["runs"] >= 1


class TestMissingBinding:
    """The binding's file is looked up, not imported: a missing scipy or a
    scipy tree without it is an ImportError that says what was searched."""

    def test_without_scipy(self, monkeypatch):
        monkeypatch.delitem(sys.modules, verifier._CORE, raising=False)
        monkeypatch.setattr("importlib.util.find_spec", lambda name: None)
        with pytest.raises(ImportError, match=r"scipy>=1\.15.*scipy not found"):
            verifier._highs_core()

    def test_with_no_binding_in_the_scipy_tree(self, monkeypatch, tmp_path):
        from importlib.machinery import ModuleSpec

        where = tmp_path / "optimize" / "_highspy"
        where.mkdir(parents=True)
        scipy = ModuleSpec("scipy", None, is_package=True)
        scipy.submodule_search_locations = [str(tmp_path)]
        monkeypatch.delitem(sys.modules, verifier._CORE, raising=False)
        monkeypatch.setattr("importlib.util.find_spec", lambda name: scipy)
        with pytest.raises(ImportError, match=r"scipy>=1\.15") as err:
            verifier._highs_core()
        assert str(where) in str(err.value)


CONCURRENT_FIRST_SOLVE = r"""
import itertools, json, sys
import numpy as np
from argmaxable.labelspace import LabelAssignment
from argmaxable.linalg import WeightMatrix
from argmaxable.verifier import verify_batch

w = WeightMatrix(np.random.default_rng(8).standard_normal((7, 3)))
ys = [LabelAssignment(np.array(s, dtype=np.int8))
      for s in itertools.product((1, -1), repeat=7)]
before = "scipy.optimize._highspy._core" in sys.modules
sys.setswitchinterval(1e-5)
try:
    parallel = verify_batch(w, ys, jobs=int(sys.argv[1]))
finally:
    sys.setswitchinterval(0.005)
optimize = "scipy.optimize" in sys.modules
serial = verify_batch(w, ys, jobs=1)

def rows(batch):
    return [[r.status.value, r.radius, None if r.witness is None else r.witness.tolist(),
             r.reason] for r in batch.results]

print(json.dumps({"before": before, "optimize": optimize, "parallel": rows(parallel),
                  "serial": rows(serial)}))
"""


@pytest.mark.parametrize("jobs", [2, 4])
def test_first_solve_in_worker_threads_matches_serial(jobs):
    # Every worker reaches the binding's load at once on its first item.
    out = _fresh(CONCURRENT_FIRST_SOLVE, str(jobs))
    assert out["before"] is False and out["optimize"] is False
    assert out["parallel"] == out["serial"]
    statuses = {row[0] for row in out["serial"]}
    assert statuses == {"argmaxable", "not_eps_argmaxable"}
