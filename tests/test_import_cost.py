"""scipy.optimize loads on the first LP solve, not on import.

Each test runs in a fresh interpreter, since this process has long
since imported scipy.optimize.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


COMMANDS = r"""
import json, sys
from pathlib import Path

loaded = {}
import argmaxable, argmaxable.cli
loaded["import"] = "scipy.optimize" in sys.modules
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
    loaded[name] = "scipy.optimize" in sys.modules
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_only_verify_loads_scipy_optimize(tmp_path):
    out = _fresh(COMMANDS, str(tmp_path))
    assert set(out["codes"].values()) == {0}, out["codes"]
    assert out["loaded"] == {
        "import": False,
        "count": False,
        "dft": False,
        "check": False,
        "enumerate": False,
        "metrics": False,
        "verify": True,
    }


CONCURRENT_FIRST_SOLVE = r"""
import itertools, json, sys
import numpy as np
from argmaxable.labelspace import LabelAssignment
from argmaxable.linalg import WeightMatrix
from argmaxable.verifier import verify_batch

w = WeightMatrix(np.random.default_rng(8).standard_normal((7, 3)))
ys = [LabelAssignment(np.array(s, dtype=np.int8))
      for s in itertools.product((1, -1), repeat=7)]
before = "scipy.optimize" in sys.modules
sys.setswitchinterval(1e-5)
try:
    parallel = verify_batch(w, ys, jobs=int(sys.argv[1]))
finally:
    sys.setswitchinterval(0.005)
serial = verify_batch(w, ys, jobs=1)

def rows(batch):
    return [[r.status.value, r.radius, None if r.witness is None else r.witness.tolist(),
             r.reason] for r in batch.results]

print(json.dumps({"before": before, "parallel": rows(parallel), "serial": rows(serial)}))
"""


@pytest.mark.parametrize("jobs", [2, 4])
def test_first_solve_in_worker_threads_matches_serial(jobs):
    # Every worker reaches the import at once on its first item.
    out = _fresh(CONCURRENT_FIRST_SOLVE, str(jobs))
    assert out["before"] is False
    assert out["parallel"] == out["serial"]
    statuses = {row[0] for row in out["serial"]}
    assert statuses == {"argmaxable", "not_eps_argmaxable"}
