"""Names resolved on first use keep their meaning: the package exports
the same objects as its modules, the CLI's collaborators can be patched
by name before a run, and --help shows the library's own defaults.

Tests that need a module not yet loaded run in a fresh interpreter.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import argmaxable
from argmaxable import labelspace, linalg, oracle, verifier
from argmaxable.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src"

# What `import argmaxable` exported when it imported every module.
EXPORTS = {
    "labelspace": ["FamilyKind", "FamilySpec", "LabelAssignment", "act", "alt",
                   "count_family", "cover_count", "enumerate_family"],
    "linalg": ["BoundaryError", "GrStatus", "GrVerdict", "Provenance",
               "WeightMatrix", "gr_plus_status", "is_general_position",
               "sign_vector"],
    "dftlayer": ["DftSpec", "augment_slack", "bias_init", "build_dft_matrix",
                 "build_layer", "logits_direct", "logits_fft"],
    "verifier": ["LpConfig", "VerifyResult", "VerifyStatus", "chebyshev_verify",
                 "radius_report", "verify_batch"],
    "oracle": ["RegionSet", "enumerate_regions_sampled"],
    "metrics": ["StackedRecords", "metrics_at_k", "micro_macro_f1", "ndcg_at_k",
                "prec_rec_f1_at_k"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]

# The cli names bench/tracing.py patches before any run.
TRACED = {
    "parse_matrix": "reportio",
    "parse_labels": "reportio",
    "parse_scores": "reportio",
    "verify_batch": "verifier",
    "gr_plus_status": "linalg",
    "enumerate_regions_sampled": "oracle",
    "prec_rec_f1_at_k": "metrics",
    "ndcg_at_k": "metrics",
    "micro_macro_f1": "metrics",
}


def _fresh(script: str, *args: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module, name", NAMES, ids=[n for _, n in NAMES])
def test_an_export_is_its_modules_object(module, name):
    home = importlib.import_module(f"argmaxable.{module}")
    assert getattr(argmaxable, name) is getattr(home, name)


def test_star_import_and_dir_list_every_export():
    names = {name for _, name in NAMES}
    scope: dict = {}
    exec("from argmaxable import *", scope)
    assert names <= set(scope)
    assert names <= set(dir(argmaxable))
    assert set(argmaxable.__all__) == names


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        argmaxable.nothing
    from argmaxable import cli

    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        cli.nothing


FROM_IMPORT = r"""
import json, sys
from argmaxable import dftlayer
w = dftlayer.build_dft_matrix(6, 1)
print(json.dumps({
    "module": dftlayer.__name__,
    "shape": [w.n, w.d],
    "loaded": sorted(m for m in sys.modules if m.startswith("argmaxable.")),
}))
"""


def test_from_package_import_a_module_in_a_fresh_interpreter():
    out = _fresh(FROM_IMPORT)
    assert out["module"] == "argmaxable.dftlayer" and out["shape"] == [6, 3]
    assert out["loaded"] == [
        "argmaxable.dftlayer", "argmaxable.labelspace", "argmaxable.linalg"
    ]


RESOLVE = r"""
import importlib, json, sys
from argmaxable import cli
names = json.loads(sys.argv[1])
same = {name: getattr(cli, name) is getattr(importlib.import_module(f"argmaxable.{home}"), name)
        for name, home in names.items()}
print(json.dumps({"same": same, "parser_built": cli._shared_parser.cache_info().currsize}))
"""


def test_the_traced_names_resolve_on_a_fresh_cli_before_any_run():
    out = _fresh(RESOLVE, json.dumps(TRACED))
    assert out == {"same": {name: True for name in TRACED}, "parser_built": 0}


PATCH_FIRST = r"""
import json, sys
from pathlib import Path
from argmaxable import cli
from argmaxable.reportio import parse_matrix

calls = []

def traced(path):
    calls.append(str(path))
    return parse_matrix(path)

# Patched before the handler has bound any name: its loader must keep it.
cli.parse_matrix = traced
tmp = Path(sys.argv[1])
codes = [cli.run(["dft", "--n", "6", "--k", "1", "--out", str(tmp / "w.csv")])]
codes += [cli.run(["check", "--matrix", str(tmp / "w.csv"), "--out", str(tmp / "c.json")])
          for _ in range(2)]
print(json.dumps({"codes": codes, "calls": calls, "kept": cli.parse_matrix is traced}))
"""


def test_check_calls_a_parse_matrix_patched_before_its_first_run(tmp_path):
    out = _fresh(PATCH_FIRST, str(tmp_path))
    assert out["codes"] == [0, 0, 0]
    assert out["calls"] == [str(tmp_path / "w.csv")] * 2
    assert out["kept"] is True


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_help_default_is_the_library_constant():
    lp = {"eps": verifier.LpConfig().eps_floor, "box": verifier.LpConfig().box_bound}
    expected = {
        ("check", "tau_det"): linalg.DEFAULT_TAU_DET,
        ("check", "minor_budget"): linalg.DEFAULT_MINOR_BUDGET,
        ("enumerate", "budget"): oracle.DEFAULT_SAMPLE_BUDGET,
        ("radii", "percentiles"): verifier.DEFAULT_PERCENTILES,
        ("radii", "budget"): labelspace.DEFAULT_ENUMERATION_BUDGET,
        **{(command, dest): value for command in ("verify", "radii")
           for dest, value in lp.items()},
    }
    shown = {}
    for command, sub in _subparsers(build_parser()).items():
        for action in sub._actions:
            if action.help and "%(default)s" in action.help:
                shown[command, action.dest] = action.default
    assert shown == expected
    assert {key: type(value) for key, value in shown.items()} == {
        key: type(value) for key, value in expected.items()
    }
