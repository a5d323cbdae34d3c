"""End-to-end command-line behavior: pipelines, reports, exit codes."""

import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from argmaxable import cli
from argmaxable.cli import ExitCode, build_parser, run
from argmaxable.labelspace import cover_count
from argmaxable.oracle import enumerate_regions_sampled
from argmaxable.reportio import parse_matrix, validate_report
from argmaxable.verifier import DEFAULT_PERCENTILES, LpConfig

SRC = Path(__file__).resolve().parent.parent / "src"


def _write_all_assignments(path, n):
    lines = ["".join(bits) for bits in itertools.product("+-", repeat=n)]
    path.write_text("\n".join(lines) + "\n")


def _write(path, data):
    """Write str data as UTF-8 text and bytes data as they are."""
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)


def _report_from(capsys):
    obj = json.loads(capsys.readouterr().out)
    validate_report(obj)
    return obj


class TestCount:
    def test_bare_count_on_stdout(self, capsys):
        assert run(["count", "--n", "3", "--d", "2"]) == ExitCode.OK
        assert capsys.readouterr().out == "6\n"

    def test_report_envelope_with_out_dash(self, capsys):
        assert run(["count", "--n", "6", "--d", "3", "--out", "-"]) == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["count"] == "32"

    def test_huge_count_is_exact(self, capsys):
        assert run(["count", "--n", "500", "--d", "250"]) == ExitCode.OK
        assert capsys.readouterr().out.strip() == str(cover_count(500, 250))

    @pytest.fixture
    def digit_limit(self):
        # Python's default limit on the digits of a printed int.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize(
        "n, d", [(20000, 10000), (1000000, 500000), (10**4000, 3)]
    )
    def test_refuses_an_unprintable_count_before_computing_it(
        self, n, d, digit_limit, capsys, monkeypatch
    ):
        def not_reached(*args):
            raise AssertionError("the sum was computed")

        monkeypatch.setattr("argmaxable.cli.cover_count", not_reached)
        code = run(["count", "--n", str(n), "--d", str(d), "--out", "-"])
        assert code == ExitCode.INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert err.startswith("error: --n, --d: ") and "4300 digits" in err

    def test_the_digit_limit_is_exact(self, digit_limit, capsys):
        # 2**14284 has 4300 digits and 2**14285 has 4301.  The length bound
        # leaves both to the exact check.
        assert run(["count", "--n", "14284", "--d", "14284"]) == ExitCode.OK
        assert len(capsys.readouterr().out.strip()) == 4300
        assert run(["count", "--n", "14285", "--d", "14285"]) == ExitCode.INPUT
        assert "--n, --d" in capsys.readouterr().err


class TestDftAndCheck:
    def test_pipeline_gives_a_uniform_verdict(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        assert run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)]) == 0
        sidecar = json.loads((tmp_path / "w.json").read_text())
        assert sidecar == {"n": 6, "d": 3, "provenance": {"kind": "dft", "k": 1}}
        assert run(["check", "--matrix", str(matrix)]) == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["verdict"] == "uniform-positive"
        assert obj["payload"]["general_position"] is True
        assert obj["payload"]["checked_minors"] == 20

    def test_dft_refuses_a_json_out_path(self, tmp_path, capsys):
        code = run(["dft", "--n", "6", "--k", "1", "--out", str(tmp_path / "w.json")])
        assert code == ExitCode.USAGE
        assert "own sidecar" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--n", str(10**15), "--k", "1"], "--n"),
            (["--n", str(10**19), "--k", "1"], "--n"),
            (["--n", "12", "--k", "2", "--s", str(10**15)], "--s"),
        ],
    )
    def test_dft_refuses_a_matrix_that_cannot_be_allocated(
        self, argv, flag, tmp_path, capsys
    ):
        code = run(["dft", *argv, "--out", str(tmp_path / "w.csv")])
        assert code == ExitCode.INPUT
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert err.startswith(f"error: {flag}: ") and "cannot be allocated" in err
        assert list(tmp_path.iterdir()) == []

    def test_dft_refusal_under_an_address_space_limit(self, tmp_path):
        # 24 TB of matrix under a 4 GB address space: a diagnostic, not a
        # MemoryError traceback.
        limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9,) * 2)"
        argv = ["dft", "--n", str(10**12), "--k", "1", "--out", str(tmp_path / "w.csv")]
        done = subprocess.run(
            [sys.executable, "-c", f"{limit}; from argmaxable.cli import main; main()", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == ExitCode.INPUT, done.stderr
        assert done.stderr.startswith("error: --n: ") and "Traceback" not in done.stderr

    def test_dft_refuses_a_sidecar_path_that_is_a_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        def refuse(spec):
            raise AssertionError("the layer was built")

        monkeypatch.setattr(cli, "build_layer", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.json").mkdir()
        assert run(["dft", "--n", "12", "--k", "2", "--out", "w.csv"]) == ExitCode.USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --out: w.csv: its sidecar w.json is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json"]

    def test_dft_to_stdout_prints_csv_without_sidecar(self, capsys):
        assert run(["dft", "--n", "6", "--k", "1", "--out", "-"]) == ExitCode.OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(len(line.split(",")) == 3 for line in lines)
        first = float(lines[0].split(",")[0])
        assert first == pytest.approx(1 / np.sqrt(6))

    def test_check_flags_a_mixed_matrix(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        rng = np.random.default_rng(70)
        rows = [",".join(repr(float(v)) for v in row) for row in rng.standard_normal((5, 3))]
        matrix.write_text("\n".join(rows) + "\n")
        assert run(["check", "--matrix", str(matrix)]) == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["verdict"] == "mixed-signs"


class TestVerify:
    def test_all_assignments_of_a_spectral_layer(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)])
        capsys.readouterr()
        labels = tmp_path / "labels.txt"
        _write_all_assignments(labels, 6)
        code = run(["verify", "--matrix", str(matrix), "--labels", str(labels)])
        assert code == ExitCode.UNARGMAXABLE
        obj = _report_from(capsys)
        summary = obj["payload"]["summary"]
        assert summary["argmaxable"] == 32
        assert summary["not_eps"] == 32
        assert summary["indeterminate"] == 0
        assert len(obj["payload"]["results"]) == 64

    def test_feasible_file_exits_zero(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)])
        capsys.readouterr()
        labels = tmp_path / "labels.txt"
        labels.write_text("------\n+-----\n-+----\n")
        code = run(["verify", "--matrix", str(matrix), "--labels", str(labels)])
        assert code == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["summary"]["argmaxable"] == 3

    def test_label_width_mismatch_is_an_input_error(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)])
        labels = tmp_path / "labels.txt"
        labels.write_text("+----\n")
        report = tmp_path / "report.json"
        code = run(["verify", "--matrix", str(matrix), "--labels", str(labels),
                    "--out", str(report)])
        assert code == ExitCode.INPUT
        expected = f"error: {labels}:1: assignment has 5 labels, expected 6\n"
        assert capsys.readouterr() == ("", expected)
        assert not report.exists()

    def test_indeterminate_wins_over_unargmaxable(self, tmp_path, capsys, monkeypatch):
        from argmaxable import verifier

        def stubbed(w, y, cfg, session=None):
            if y.signs[0] > 0:
                return verifier.VerifyResult(
                    verifier.VerifyStatus.INDETERMINATE, reason="stubbed"
                )
            return verifier.VerifyResult(verifier.VerifyStatus.NOT_EPS_ARGMAXABLE)

        monkeypatch.setattr(verifier, "chebyshev_verify", stubbed)
        matrix = tmp_path / "w.csv"
        matrix.write_text("1.0,0.0\n0.0,1.0\n-1.0,-1.0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("+--\n-+-\n")
        code = run(["verify", "--matrix", str(matrix), "--labels", str(labels)])
        assert code == ExitCode.INDETERMINATE
        payload = _report_from(capsys)["payload"]
        assert [r["status"] for r in payload["results"]] == [
            "indeterminate", "not_eps_argmaxable"
        ]
        assert payload["results"][0]["reason"] == "stubbed"

    def test_dft_file_round_trips_into_the_alternation_shortcut(
        self, tmp_path, capsys, monkeypatch
    ):
        from argmaxable import verifier

        calls = []
        real = verifier.chebyshev_verify

        def counted(w, y, cfg, session=None):
            calls.append(y)
            return real(w, y, cfg, session)

        monkeypatch.setattr(verifier, "chebyshev_verify", counted)
        matrix = tmp_path / "w.csv"
        run(["dft", "--n", "12", "--k", "2", "--out", str(matrix)])
        labels = tmp_path / "labels.txt"
        labels.write_text("+-+-+-++++++\n+-----------\n")
        code = run(["verify", "--matrix", str(matrix), "--labels", str(labels)])
        assert code == ExitCode.UNARGMAXABLE
        assert len(calls) == 1
        first, second = _report_from(capsys)["payload"]["results"]
        assert first["status"] == "not_eps_argmaxable"
        assert first["seconds"] == 0.0 and first["radius"] is None
        assert second["status"] == "argmaxable"

    def test_deterministic_reports_are_byte_identical(self, tmp_path):
        matrix = tmp_path / "w.csv"
        run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)])
        labels = tmp_path / "labels.txt"
        labels.write_text("------\n++----\n")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        base = ["verify", "--matrix", str(matrix), "--labels", str(labels),
                "--deterministic"]
        run(base + ["--out", str(first)])
        run(base + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
        obj = json.loads(first.read_text())
        assert obj["timestamp"] is None
        assert all(r["seconds"] == 0.0 for r in obj["payload"]["results"])

    def test_live_reports_carry_a_timestamp(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)])
        capsys.readouterr()
        labels = tmp_path / "labels.txt"
        labels.write_text("------\n")
        run(["verify", "--matrix", str(matrix), "--labels", str(labels)])
        obj = _report_from(capsys)
        assert isinstance(obj["timestamp"], str)


class TestEnumerate:
    def test_spectral_layer_enumerates_completely(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)])
        capsys.readouterr()
        code = run(
            ["enumerate", "--matrix", str(matrix), "--budget", "1000000"]
        )
        assert code == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["method"] == "sampled-complete"
        assert obj["payload"]["count"] == 32
        assert len(obj["payload"]["members"]) == 32
        # Low-alternation vectors are in, rapidly alternating ones out.
        assert "++++++" in obj["payload"]["members"]
        assert "+−+−+−" not in obj["payload"]["members"]

    @pytest.mark.parametrize(
        "shape", [(12, 3), (64, 2), (65, 2), (70, 3), (40, 1)],
        ids=["int-codes-12x3", "int-codes-64x2", "byte-codes-65x2",
             "byte-codes-70x3", "d-1"],
    )
    def test_members_are_the_sorted_dense_strings(self, shape, tmp_path, capsys):
        # The report renders its members from the packed codes, in their
        # order; that must be the sorted dense strings of the members.
        matrix = tmp_path / "w.csv"
        entries = np.random.default_rng(shape[0]).standard_normal(shape)
        matrix.write_text("\n".join(",".join(map(repr, row)) for row in entries.tolist()))
        argv = ["enumerate", "--matrix", str(matrix), "--budget", "3000", "--seed", "4"]
        assert run([*argv, "--deterministic", "--out", "-"]) == ExitCode.OK
        payload = _report_from(capsys)["payload"]
        regions = enumerate_regions_sampled(parse_matrix(matrix), budget=3000, seed=4)
        expected = sorted(y.to_dense() for y in regions.members)
        assert payload["members"] == expected
        assert payload["count"] == len(expected) >= 2
        assert {len(y) for y in expected} == {shape[0]}

    @pytest.mark.parametrize("method", ["auto", "sampled"])
    def test_two_columns_complete_after_one_circle(self, method, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        rng = np.random.default_rng(71)
        rows = [",".join(repr(float(v)) for v in row) for row in rng.standard_normal((4, 2))]
        matrix.write_text("\n".join(rows) + "\n")
        argv = ["enumerate", "--matrix", str(matrix), "--method", method]
        assert run(argv) == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["method"] == "sampled-complete"
        assert obj["payload"]["count"] == 8
        assert obj["payload"]["samples_used"] == 4

    def test_method_2d_is_no_choice(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        matrix.write_text("1.0,0.0\n0.0,1.0\n")
        code = run(["enumerate", "--matrix", str(matrix), "--method", "2d"])
        assert code == ExitCode.USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid choice: '2d'" in err

    def test_collinear_rows_are_sampled_partially(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        matrix.write_text("1.0,0.0\n2.0,0.0\n0.0,1.0\n")
        code = run(
            ["enumerate", "--matrix", str(matrix), "--budget", "100000"]
        )
        assert code == ExitCode.OK
        out, err = capsys.readouterr()
        assert err == ""
        obj = json.loads(out)
        validate_report(obj)
        assert obj["payload"]["method"] == "sampled-partial"
        assert obj["payload"]["count"] == 4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "entries",
        [np.vstack([np.eye(3), np.ones(3)]) * 1e150,
         np.random.default_rng(72).standard_normal((4, 3)) * 1e120],
        ids=["axes-1e150", "gaussian-1e120"],
    )
    def test_a_matrix_the_minor_scan_refuses_is_sampled_completely(
        self, entries, tmp_path, capsys
    ):
        # Every row norm is finite, but a 3 x 3 minor may overflow, so
        # ``check`` refuses the matrix.  The sampler runs no scan, and its
        # region count alone certifies the run.
        matrix = tmp_path / "big.csv"
        rows = [",".join(repr(float(v)) for v in row) for row in entries]
        matrix.write_text("\n".join(rows) + "\n")
        code = run(["enumerate", "--matrix", str(matrix), "--budget", "100000"])
        assert code == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["method"] == "sampled-complete"
        assert obj["payload"]["count"] == cover_count(4, 3)
        assert run(["check", "--matrix", str(matrix), "--out", "-"]) == ExitCode.INPUT
        assert "overflow" in capsys.readouterr().err


class TestRadii:
    def test_alternating_family_of_a_spectral_layer(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)])
        capsys.readouterr()
        code = run(
            [
                "radii",
                "--matrix", str(matrix),
                "--kind", "alternating",
                "--k", "2",
            ]
        )
        assert code == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["members"] == 32
        assert obj["payload"]["summary"]["argmaxable"] == 32
        assert obj["payload"]["summary"]["not_eps"] == 0
        radii = [row["radius"] for row in obj["payload"]["percentiles"]]
        assert radii == sorted(radii)
        assert radii[0] > 0

    def test_active_family(self, tmp_path, capsys):
        matrix = tmp_path / "w.csv"
        run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)])
        capsys.readouterr()
        code = run(
            [
                "radii",
                "--matrix", str(matrix),
                "--kind", "active",
                "--k", "1",
                "--percentiles", "50,100",
            ]
        )
        assert code == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["members"] == 7
        assert obj["payload"]["summary"]["argmaxable"] == 7

    def test_an_all_indeterminate_family_says_why(self, tmp_path, capsys, monkeypatch):
        from argmaxable import verifier

        def stubbed(w, y, cfg, session=None):
            return verifier.VerifyResult(
                verifier.VerifyStatus.INDETERMINATE, reason="HiGHS: stubbed"
            )

        monkeypatch.setattr(verifier, "chebyshev_verify", stubbed)
        matrix = tmp_path / "w.csv"
        matrix.write_text("1.0,0.0\n0.0,1.0\n-1.0,-1.0\n")
        code = run(["radii", "--matrix", str(matrix), "--kind", "active", "--k", "1"])
        assert code == ExitCode.INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert "all 4 members are indeterminate" in err
        assert "HiGHS: stubbed" in err


class TestMetrics:
    def _write_inputs(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("0.9,0.8,0.1,0.05\n0.9,0.1,0.8,0.05\n")
        gold = tmp_path / "gold.txt"
        gold.write_text("++--\n+---\n")
        return scores, gold

    def test_hand_checked_numbers(self, tmp_path, capsys):
        scores, gold = self._write_inputs(tmp_path)
        code = run(
            ["metrics", "--scores", str(scores), "--gold", str(gold), "--k", "2"]
        )
        assert code == ExitCode.OK
        obj = _report_from(capsys)
        (row,) = obj["payload"]["at_k"]
        assert row["prec"] == pytest.approx(0.75)
        assert row["rec"] == pytest.approx(1.0)
        assert row["f1"] == pytest.approx(6 / 7)
        assert row["ndcg"] == pytest.approx(1.0)
        assert obj["payload"]["micro_f1"] == pytest.approx(6 / 7)
        assert obj["payload"]["macro_f1"] == pytest.approx(0.5)
        assert obj["payload"]["zero_support_labels"] == 1

    def test_multiple_ranks(self, tmp_path, capsys):
        scores, gold = self._write_inputs(tmp_path)
        code = run(
            ["metrics", "--scores", str(scores), "--gold", str(gold), "--k", "1,2,3"]
        )
        assert code == ExitCode.OK
        obj = _report_from(capsys)
        assert [row["k"] for row in obj["payload"]["at_k"]] == [1, 2, 3]

    def test_sparse_gold_file(self, tmp_path, capsys):
        scores, _ = self._write_inputs(tmp_path)
        gold = tmp_path / "gold.txt"
        gold.write_text("n=4\n1,2\n1\n")
        code = run(
            ["metrics", "--scores", str(scores), "--gold", str(gold), "--k", "2"]
        )
        assert code == ExitCode.OK
        obj = _report_from(capsys)
        assert obj["payload"]["at_k"][0]["prec"] == pytest.approx(0.75)

    def test_record_count_mismatch_is_an_input_error(self, tmp_path, capsys):
        scores, _ = self._write_inputs(tmp_path)
        gold = tmp_path / "gold.txt"
        gold.write_text("++--\n")
        code = run(
            ["metrics", "--scores", str(scores), "--gold", str(gold), "--k", "2"]
        )
        assert code == ExitCode.INPUT
        assert "gold assignments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=5\n1,2\n1\n", ":1: header n=5, expected n=4"),
            ("++--\n+----\n", ":2: assignment has 5 labels, expected 4"),
        ],
        ids=["sparse", "dense"],
    )
    def test_gold_of_another_width_names_its_line(
        self, text, message, tmp_path, capsys
    ):
        scores, gold = self._write_inputs(tmp_path)
        gold.write_text(text)
        code = run(
            ["metrics", "--scores", str(scores), "--gold", str(gold), "--k", "2"]
        )
        assert code == ExitCode.INPUT
        assert capsys.readouterr() == ("", f"error: {gold}{message}\n")


class TestReportConfig:
    """Each report's ``config`` is exactly the flags that produced it, so a
    new parser flag cannot leak into reports unnoticed."""

    @pytest.mark.parametrize(
        "argv, config",
        [
            (
                ["count", "--n", "7", "--d", "3", "--out", "-"],
                {"n": 7, "d": 3},
            ),
            (
                ["check", "--matrix", "{w}", "--tau-det", "1e-9",
                 "--minor-budget", "5000"],
                {"matrix": "{w}", "tau_det": 1e-9, "minor_budget": 5000},
            ),
            (
                ["verify", "--matrix", "{w}", "--labels", "{labels}",
                 "--eps", "1e-7", "--box", "100", "--jobs", "2"],
                {"matrix": "{w}", "labels": "{labels}", "eps": 1e-7,
                 "box": 100.0, "jobs": 2},
            ),
            (
                ["enumerate", "--matrix", "{w}", "--method", "sampled",
                 "--budget", "5000", "--seed", "3"],
                {"matrix": "{w}", "method": "sampled", "budget": 5000,
                 "seed": 3},
            ),
            (
                ["radii", "--matrix", "{w}", "--kind", "active", "--k", "1",
                 "--percentiles", "10,90", "--budget", "100", "--eps", "1e-7",
                 "--box", "100", "--jobs", "2"],
                {"matrix": "{w}", "kind": "active", "k": 1,
                 "percentiles": [10.0, 90.0], "budget": 100, "eps": 1e-7,
                 "box": 100.0, "jobs": 2},
            ),
            (
                ["metrics", "--scores", "{scores}", "--gold", "{gold}",
                 "--k", "1,2", "--threshold", "0.4", "--per-record-f1"],
                {"scores": "{scores}", "gold": "{gold}", "k": [1, 2],
                 "threshold": 0.4, "per_record_f1": True},
            ),
        ],
        ids=["count", "check", "verify", "enumerate", "radii", "metrics"],
    )
    def test_config_is_exactly_the_flags(self, argv, config, tmp_path, capsys):
        files = {
            "w": tmp_path / "w.csv",
            "labels": tmp_path / "labels.txt",
            "scores": tmp_path / "scores.csv",
            "gold": tmp_path / "gold.txt",
        }
        files["w"].write_text("1.0,0.0\n0.0,1.0\n-1.0,-1.0\n")
        files["labels"].write_text("+--\n-+-\n")
        files["scores"].write_text("0.9,0.2,0.1\n0.1,0.8,0.3\n")
        files["gold"].write_text("+--\n-++\n")

        def fill(value):
            for key, path in files.items():
                if value == "{" + key + "}":
                    return str(path)
            return value

        run([fill(a) for a in argv] + ["--deterministic"])
        obj = _report_from(capsys)
        assert obj["command"] == argv[0]
        assert obj["config"] == {key: fill(v) for key, v in config.items()}


class TestInputErrors:
    """Each malformed input file or flag value exits with its code and a
    diagnostic that says what is wrong."""

    def _files(self, tmp_path, sidecar=None, labels="+-\n"):
        matrix = tmp_path / "w.csv"
        matrix.write_text("1.0,0.0\n0.0,1.0\n")
        if sidecar is not None:
            _write(tmp_path / "w.json", sidecar)
        _write(tmp_path / "y.txt", labels)
        return ["--matrix", str(matrix), "--labels", str(tmp_path / "y.txt")]

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            ("[1]\n", "sidecar must be a JSON object"),
            ('{"d": 3}\n', "sidecar says d=3, CSV has d=2"),
            ('{"n": 2,\n', "unreadable sidecar: "),
            (b'{"n": 2}\n\xff', "unreadable sidecar: 'utf-8' codec can't decode"),
        ],
        ids=["not-an-object", "d-mismatch", "unreadable", "not-utf-8"],
    )
    def test_a_bad_sidecar_is_input(self, sidecar, message, tmp_path, capsys):
        argv = self._files(tmp_path, sidecar)
        assert run(["verify", *argv, "--out", "-"]) == ExitCode.INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {tmp_path / 'w.json'}: {message}")

    def test_a_sidecar_without_provenance_gives_the_default(self, tmp_path, capsys):
        argv = self._files(tmp_path, '{"n": 2, "d": 2}\n')
        assert run(["verify", *argv, "--out", "-"]) == ExitCode.OK
        matrix = _report_from(capsys)["payload"]["matrix"]
        assert matrix == {"n": 2, "d": 2, "provenance": {"kind": "random"}}

    @pytest.mark.parametrize(
        "labels, message",
        [
            ("", ": empty file"),
            ("n=0\n1\n", ":1: header n=0 must be >= 1"),
            ("+-\n\n-+\n", ":2: blank line in dense label file"),
            (b"+-\n-\xff\n", ":2: not UTF-8: byte 0xff (invalid start byte)"),
            ("n=3\n1\n", ":1: header n=3, expected n=2"),
        ],
        ids=["empty", "sparse-n-0", "dense-blank-line", "not-utf-8", "sparse-width"],
    )
    def test_a_bad_label_file_is_input(self, labels, message, tmp_path, capsys):
        argv = self._files(tmp_path, labels=labels)
        assert run(["verify", *argv, "--out", "-"]) == ExitCode.INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path / 'y.txt'}{message}\n"

    @pytest.mark.parametrize(
        "data, line", [(b"1,\xff\n", 1), (b"1,0\n0,\xff\n", 2)], ids=["first", "second"]
    )
    def test_a_matrix_file_that_is_not_utf8_is_input(
        self, data, line, tmp_path, capsys
    ):
        matrix = tmp_path / "w.csv"
        matrix.write_bytes(data)
        assert run(["check", "--matrix", str(matrix), "--out", "-"]) == ExitCode.INPUT
        message = f"{matrix}:{line}: not UTF-8: byte 0xff (invalid start byte)"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--matrix", "{matrix}", "--tau-det", "0"],
             "argument --tau-det: must be > 0, got 0.0"),
            (["metrics", "--scores", "{matrix}", "--gold", "{labels}", "--k", "1,x"],
             "argument --k: not a comma-separated int list: '1,x'"),
        ],
        ids=["tau-det-0", "k-not-an-int"],
    )
    def test_a_bad_flag_value_is_usage(self, argv, message, tmp_path, capsys):
        files = {"{matrix}": str(tmp_path / "nope.csv"),
                 "{labels}": str(tmp_path / "nope.txt")}
        assert run([files.get(a, a) for a in argv]) == ExitCode.USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_metrics_with_no_gold_label_has_no_ndcg(self, tmp_path, capsys):
        scores, gold = tmp_path / "s.csv", tmp_path / "g.txt"
        scores.write_text("0.9,0.1,0.5,0.2\n0.1,0.8,0.3,0.7\n0.4,0.6,0.9,0.1\n")
        gold.write_text("n=4\n\n\n\n")
        argv = ["metrics", "--scores", str(scores), "--gold", str(gold)]
        assert run(argv + ["--k", "1,2", "--out", "-"]) == ExitCode.OK
        payload = _report_from(capsys)["payload"]
        assert [row["ndcg"] for row in payload["at_k"]] == [None, None]
        assert payload["empty_gold_records"] == 3


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        assert run(["transmogrify"]) == ExitCode.USAGE
        capsys.readouterr()

    def test_no_command_is_usage(self, capsys):
        assert run([]) == ExitCode.USAGE
        capsys.readouterr()

    def test_bad_flag_value_is_usage(self, capsys):
        assert run(["count", "--n", "0", "--d", "2"]) == ExitCode.USAGE
        capsys.readouterr()

    def test_missing_file_is_input(self, tmp_path, capsys):
        code = run(["check", "--matrix", str(tmp_path / "nope.csv")])
        assert code == ExitCode.INPUT
        capsys.readouterr()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, rows",
        [("1.0,0.0\n0.0,0.0\n0.0,1.0\n", "row(s) 2"),
         ("1.0,0.0\n0.0,1.0\n1e200,1e200\n", "row(s) 3")],
        ids=["zero-row", "overflowing-row"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["check"], ["verify", "--labels", "{labels}"], ["enumerate"],
         ["radii", "--kind", "active", "--k", "1"]],
        ids=["check", "verify", "enumerate", "radii"],
    )
    def test_a_row_norm_of_zero_or_infinity_is_input(
        self, argv, text, rows, tmp_path, capsys
    ):
        matrix = tmp_path / "w.csv"
        matrix.write_text(text)
        labels = tmp_path / "labels.txt"
        labels.write_text("+--\n")
        report = tmp_path / "report.json"
        argv = [argv[0], "--matrix", str(matrix), "--out", str(report),
                *(str(labels) if a == "{labels}" else a for a in argv[1:])]
        assert run(argv) == ExitCode.INPUT
        out, err = capsys.readouterr()
        assert out == "" and not report.exists()
        assert err.startswith(f"error: {matrix}: row norms must be positive and finite")
        assert err.endswith(f"{rows}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["check"])
    def test_minors_that_could_overflow_are_input(self, command, tmp_path, capsys):
        # Every row norm is finite, but a product of three is not.  The
        # sampler needs no minor, so ``enumerate`` reads such a matrix
        # (TestEnumerate).
        matrix = tmp_path / "w.csv"
        matrix.write_text("1e150,0,0\n0,1e150,0\n0,0,1e150\n1e150,1e150,1e150\n")
        argv = [command, "--matrix", str(matrix), "--deterministic"]
        assert run(argv) == ExitCode.INPUT
        out, err = capsys.readouterr()
        assert out == "" and "Infinity" not in err
        assert err == (
            f"error: {matrix}: minors may overflow float64: the product of "
            "the d largest row norms is not finite\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--matrix", "{matrix}", "--labels", "{missing}",
             "--box", "1e-10"],
            ["verify", "--matrix", "{matrix}", "--labels", "{missing}",
             "--eps", "1e-10"],
            ["radii", "--matrix", "{matrix}", "--kind", "active", "--k", "1",
             "--eps", "1e-10"],
            ["radii", "--matrix", "{matrix}", "--kind", "active", "--k", "1",
             "--percentiles", "150"],
            ["radii", "--matrix", "{matrix}", "--kind", "active", "--k", "1",
             "--percentiles", "-1"],
            ["radii", "--matrix", "{matrix}", "--kind", "active", "--k", "1",
             "--percentiles", ","],
            ["radii", "--matrix", "{matrix}", "--kind", "active", "--k", "1",
             "--percentiles", "abc"],
            ["dft", "--out", "-", "--n", "3", "--k", "2"],
        ],
    )
    def test_out_of_range_flags_are_usage_before_any_read(self, argv, tmp_path, capsys):
        files = {"{matrix}": str(tmp_path / "nope.csv"),
                 "{missing}": str(tmp_path / "nope.txt")}
        argv = [files.get(a, a) for a in argv]
        assert run(argv) == ExitCode.USAGE
        out, err = capsys.readouterr()
        assert out == ""
        # The diagnostic names the offending flag, the last one given.
        assert argv[-2] in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["verify", "--labels", "labels.txt"],
            ["enumerate"],
            ["radii", "--kind", "active", "--k", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_report_on_the_matrix_sidecar_is_usage_before_any_read(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # The report path is relative and the matrix path absolute; they
        # meet once resolved.  No matrix exists, so reading it would exit 2.
        monkeypatch.chdir(tmp_path)
        matrix = tmp_path / "w.csv"
        argv = [*argv, "--matrix", str(matrix), "--out", "w.json"]
        assert run(argv) == ExitCode.USAGE
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "w.json").exists()
        assert err == "error: --out: w.json is the sidecar path of --matrix\n"

    @pytest.mark.parametrize("where", ["directory", "no-parent"])
    @pytest.mark.parametrize(
        "argv, handler",
        [
            (["check", "--matrix", "w.csv"], "_cmd_check"),
            (["verify", "--matrix", "w.csv", "--labels", "ys.txt"], "_cmd_verify"),
            (["dft", "--n", "12", "--k", "2"], "_cmd_dft"),
        ],
        ids=["check", "verify", "dft"],
    )
    def test_an_unwritable_out_is_usage_before_any_work(
        self, argv, handler, where, tmp_path, monkeypatch, capsys
    ):
        def refuse(args):
            raise AssertionError(f"{handler} ran")

        # A fresh parser per run picks up the patched handler.
        monkeypatch.setattr(cli, handler, refuse)
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        monkeypatch.chdir(tmp_path)
        if where == "directory":
            out, want = str(tmp_path), f"{tmp_path} is a directory"
        else:
            out, want = "missing/r.json", "missing/r.json: no directory missing"
        assert run(argv + ["--out", out]) == ExitCode.USAGE
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == f"error: --out: {want}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spelling", ["relative-out", "relative-input"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check", "--matrix", "{in}"], "--matrix"),
            (["verify", "--matrix", "{in}", "--labels", "{other}"], "--matrix"),
            (["verify", "--matrix", "{other}", "--labels", "{in}"], "--labels"),
            (["enumerate", "--matrix", "{in}"], "--matrix"),
            (["radii", "--matrix", "{in}", "--kind", "active", "--k", "1"],
             "--matrix"),
            (["metrics", "--scores", "{in}", "--gold", "{other}", "--k", "1"],
             "--scores"),
            (["metrics", "--scores", "{other}", "--gold", "{in}", "--k", "1"],
             "--gold"),
        ],
        ids=["check-matrix", "verify-matrix", "verify-labels", "enumerate-matrix",
             "radii-matrix", "metrics-scores", "metrics-gold"],
    )
    def test_a_report_on_an_input_is_usage_before_any_read(
        self, argv, flag, spelling, tmp_path, monkeypatch, capsys
    ):
        # One of the two paths is relative and the other absolute; they
        # meet once resolved.  Every other input is missing and the
        # clashing one is not a valid file, so any read would exit 2.
        monkeypatch.chdir(tmp_path)
        clash = tmp_path / "in.csv"
        clash.write_text("not read\n")
        if spelling == "relative-out":
            given, out = str(clash), "in.csv"
        else:
            given, out = "in.csv", str(clash)
        files = {"{in}": given, "{other}": str(tmp_path / "missing.txt")}
        argv = [files.get(a, a) for a in argv] + ["--out", out]
        assert run(argv) == ExitCode.USAGE
        stdout, err = capsys.readouterr()
        assert stdout == "" and clash.read_text() == "not read\n"
        assert err == f"error: --out: {out} is the path of {flag}\n"
        assert sorted(tmp_path.iterdir()) == [clash]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--matrix", "{matrix}", "--labels", "{missing}", "--box"],
            ["verify", "--matrix", "{matrix}", "--labels", "{missing}", "--eps"],
            ["check", "--matrix", "{matrix}", "--tau-det"],
            ["metrics", "--scores", "{matrix}", "--gold", "{missing}", "--k", "1",
             "--threshold"],
        ],
        ids=["box", "eps", "tau-det", "threshold"],
    )
    def test_a_non_finite_float_flag_is_usage_before_any_read(
        self, argv, value, tmp_path, capsys
    ):
        files = {"{matrix}": str(tmp_path / "nope.csv"),
                 "{missing}": str(tmp_path / "nope.txt")}
        flag = f"{argv[-1]}={value}"  # "=" keeps argparse from reading -inf as a flag
        assert run([files.get(a, a) for a in argv[:-1]] + [flag]) == ExitCode.USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {argv[-1]}: must be finite" in err

    @pytest.mark.parametrize("flag", ["--box", "--eps"])
    def test_an_lp_cost_highs_reads_as_infinite_is_usage(self, flag, tmp_path, capsys):
        matrix, labels = tmp_path / "w.csv", tmp_path / "ys.txt"
        assert run(["dft", "--n", "6", "--k", "1", "--out", str(matrix)]) == ExitCode.OK
        labels.write_text("+-----\n")
        argv = ["verify", "--matrix", str(matrix), "--labels", str(labels), "--out", "-"]
        assert run(argv + [flag, "1e20"]) == ExitCode.USAGE
        assert f"argument {flag}: must be below 1e20" in capsys.readouterr().err
        # Just below HiGHS's infinity the dual may end in a solve error,
        # depending on the HiGHS build; either way no wrong verdict and no
        # traceback.
        code = run(argv + ["--box", "1e19"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        report = json.loads(out)
        validate_report(report)
        (res,) = report["payload"]["results"]
        if code == ExitCode.OK:
            assert res["status"] == "argmaxable"
        else:
            assert code == ExitCode.INDETERMINATE
            assert res["status"] == "indeterminate"
            assert res["reason"].startswith(("HiGHS: ", "HiGHS run error: "))
        # A decade lower the box certifies.
        assert run(argv + ["--box", "1e18"]) == ExitCode.OK
        assert _report_from(capsys)["payload"]["summary"]["argmaxable"] == 1

    def test_a_floor_above_highs_least_tolerance_gives_verdicts(self, tmp_path, capsys):
        # --eps 5e-10 runs at HiGHS's least tolerance, 1e-10; there is no
        # separate tolerance flag.
        matrix, labels = tmp_path / "w.csv", tmp_path / "ys.txt"
        assert run(["dft", "--n", "12", "--k", "2", "--out", str(matrix)]) == ExitCode.OK
        labels.write_text("++----------\n-+++--------\n+-+---------\n")
        argv = ["verify", "--matrix", str(matrix), "--labels", str(labels), "--out", "-"]
        assert run(argv + ["--eps", "5e-10"]) == ExitCode.OK
        report = _report_from(capsys)
        assert report["config"]["eps"] == 5e-10
        assert report["payload"]["summary"]["argmaxable"] == 3
        assert run(argv + ["--feas-tol", "1e-9"]) == ExitCode.USAGE
        assert "unrecognized arguments: --feas-tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--matrix", "{matrix}", "--seed", "-1"],
            ["dft", "--n", "10", "--k", "2", "--s", "2", "--out", "{out}",
             "--seed", "-3"],
        ],
        ids=["enumerate", "dft"],
    )
    def test_a_negative_seed_is_usage_before_any_read_or_write(
        self, argv, tmp_path, capsys
    ):
        files = {"{matrix}": str(tmp_path / "nope.csv"),
                 "{out}": str(tmp_path / "w.csv")}
        assert run([files.get(a, a) for a in argv]) == ExitCode.USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --seed: must be >= 0" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["radii", "--kind", "active", "--k", "5", "--budget", "10"], "--budget"),
            (["check", "--minor-budget", "10"], "--minor-budget"),
        ],
    )
    def test_a_budget_below_the_input_is_usage(self, argv, flag, tmp_path, capsys):
        matrix = str(tmp_path / "w.csv")
        assert run(["dft", "--n", "12", "--k", "2", "--out", matrix]) == ExitCode.OK
        capsys.readouterr()
        assert run([argv[0], "--matrix", matrix, *argv[1:]]) == ExitCode.USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {flag}: ") and "budget 10" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["metrics", "--scores", "{scores}", "--gold", "{gold}", "--k", "1,5"],
             "k=5 exceeds label count n=3"),
            (["radii", "--matrix", "{matrix}", "--kind", "alternating", "--k", "12"],
             "k=12 exceeds the maximum alternating statistic 11"),
        ],
    )
    def test_a_k_the_input_cannot_meet_is_usage(self, argv, message, tmp_path, capsys):
        files = {"{scores}": tmp_path / "s.csv", "{gold}": tmp_path / "g.txt",
                 "{matrix}": tmp_path / "w.csv"}
        files["{scores}"].write_text("0.9,0.1,0.2\n0.3,0.8,0.1\n")
        files["{gold}"].write_text("+--\n-+-\n")
        assert run(["dft", "--n", "12", "--k", "2", "--out", str(files["{matrix}"])]) == 0
        capsys.readouterr()
        assert run([str(files.get(a, a)) for a in argv]) == ExitCode.USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: --k: {message}")

    @pytest.mark.parametrize("ranks", [",", "0", "-1", "5,0,1"])
    def test_bad_ranks_are_usage_before_any_read(self, ranks, tmp_path, capsys):
        code = run(
            [
                "metrics",
                "--scores",
                str(tmp_path / "nope.csv"),
                "--gold",
                str(tmp_path / "nope.txt"),
                "--k",
                ranks,
            ]
        )
        assert code == ExitCode.USAGE
        assert "--k" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for module in ("argmaxable", "argmaxable.cli"):
            done = subprocess.run(
                [sys.executable, "-m", module, "count", "--n", "20", "--d", "4"],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout == f"{cover_count(20, 4)}\n"

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert "argmaxable" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command",
        ["count", "dft", "check", "verify", "enumerate", "radii", "metrics"],
    )
    def test_subcommand_help_exits_zero(self, command, capsys):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        if command in ("verify", "radii"):
            for flag in ("--eps", "--box", "--jobs", "--matrix",
                         "--out", "--deterministic"):
                assert flag in out


class TestSharedParser:
    """run() parses with one parser per process, built on its first call;
    nothing one call parses reaches the next."""

    @staticmethod
    def _fresh_run(argv, cwd):
        done = subprocess.run(
            [sys.executable, "-m", "argmaxable", *argv],
            cwd=cwd,
            env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    def test_a_sequence_in_one_process_matches_fresh_interpreters(
        self, tmp_path, monkeypatch, capsys
    ):
        # Help and usage text wrap at the terminal width; pin it for both.
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        assert run(["dft", "--n", "12", "--k", "2", "--out", "w.csv"]) == ExitCode.OK
        Path("ys.txt").write_text("++----------\n-+++--------\n+-+-+-+-----\n")
        Path("s.csv").write_text(
            "0.9,0.1,0.5,0.2,0.3\n0.1,0.8,0.3,0.7,0.2\n0.4,0.6,0.9,0.1,0.5\n"
        )
        Path("g.txt").write_text("n=5\n1\n2,4\n3,5\n")
        verify = ["verify", "--matrix", "w.csv", "--labels", "ys.txt", "--deterministic"]
        metrics = ["metrics", "--scores", "s.csv", "--gold", "g.txt", "--deterministic"]
        radii = ["radii", "--matrix", "w.csv", "--kind", "active", "--k", "1",
                 "--deterministic"]
        sequence = [
            verify + ["--eps", "1e-6"],
            verify,
            ["verify", "--matrix", "w.csv", "--labels", "ys.txt", "--eps", "nope"],
            metrics + ["--k", "3"],
            metrics + ["--k", "1,5"],
            ["--help"],
            radii + ["--percentiles", "10,90"],
            ["--version"],
            radii,
        ]
        capsys.readouterr()
        in_process = []
        for argv in sequence:
            code = run(argv)
            out, err = capsys.readouterr()
            in_process.append((code, out, err))
        fresh = [self._fresh_run(argv, tmp_path) for argv in sequence]
        assert in_process == fresh
        codes = [code for code, _, _ in in_process]
        assert codes == [3, 3, 1, 0, 0, 0, 0, 0, 0]
        # The defaults came back after each override.
        reports = [json.loads(out) if out.startswith("{") else None
                   for _, out, _ in in_process]
        assert [reports[i]["config"]["eps"] for i in (0, 1)] == [1e-6, LpConfig.eps_floor]
        assert [reports[i]["config"]["k"] for i in (3, 4)] == [[3], [1, 5]]
        assert reports[6]["config"]["percentiles"] == [10.0, 90.0]
        assert reports[8]["config"]["percentiles"] == list(DEFAULT_PERCENTILES)

    BUILD_ONCE = r"""
import argparse, json, sys

made = []
init = argparse.ArgumentParser.__init__

def counted_init(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted_init
from argmaxable import cli
at_import = len(made)
builds = []
build = cli.build_parser

def counted_build():
    builds.append(1)
    return build()

cli.build_parser = counted_build
codes = [cli.run(["count", "--n", "20", "--d", str(d)]) for d in range(1, 6)]
after_runs = len(made)
build()
print(json.dumps({"at_import": at_import, "builds": len(builds), "codes": codes,
                  "after_runs": after_runs, "one_build": len(made) - after_runs}))
"""

    def test_import_builds_no_parser_and_runs_build_one(self):
        done = subprocess.run(
            [sys.executable, "-c", self.BUILD_ONCE],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout.strip().splitlines()[-1])
        assert out["at_import"] == 0
        assert out["builds"] == 1 and out["codes"] == [0] * 5
        assert out["after_runs"] == out["one_build"] > 1

    def test_a_public_parser_is_fresh_and_its_changes_stay_its_own(self, capsys):
        assert run(["count", "--n", "3", "--d", "2"]) == ExitCode.OK
        capsys.readouterr()
        parser = build_parser()
        assert parser is not build_parser()
        assert parser is not cli._shared_parser()
        parser.add_argument("--extra")
        parser.description = "a changed description"
        args = parser.parse_args(["--extra=x", "count", "--n", "3", "--d", "2"])
        assert args.extra == "x"
        assert run(["--extra=x", "count", "--n", "3", "--d", "2"]) == ExitCode.USAGE
        assert "unrecognized arguments: --extra=x" in capsys.readouterr().err
        assert run(["--help"]) == ExitCode.OK
        out = capsys.readouterr().out
        assert "--extra" not in out and "a changed description" not in out

    def test_two_threads_write_the_reports_of_serial_runs(self, tmp_path, capsys):
        matrix, labels = str(tmp_path / "w.csv"), tmp_path / "ys.txt"
        assert run(["dft", "--n", "16", "--k", "3", "--out", matrix]) == ExitCode.OK
        labels.write_text("+" + "-" * 15 + "\n" + "++" + "-" * 14 + "\n"
                          + "+-" * 8 + "\n" + "---++" + "-" * 11 + "\n")
        argvs = {
            "check": ["check", "--matrix", matrix, "--deterministic"],
            "verify": ["verify", "--matrix", matrix, "--labels", str(labels),
                       "--jobs", "2", "--deterministic"],
        }
        expected = {"check": ExitCode.OK, "verify": ExitCode.UNARGMAXABLE}
        for name, argv in argvs.items():
            out = str(tmp_path / f"{name}-serial.json")
            assert run(argv + ["--out", out]) == expected[name]
        barrier = threading.Barrier(len(argvs))
        codes = {}

        def go(name, round_):
            barrier.wait()
            out = str(tmp_path / f"{name}-{round_}.json")
            codes[name, round_] = run(argvs[name] + ["--out", out])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(3):
                threads = [threading.Thread(target=go, args=(name, round_))
                           for name in argvs]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        finally:
            sys.setswitchinterval(old)
        assert codes == {(name, r): expected[name] for name in argvs for r in range(3)}
        for name in argvs:
            serial = (tmp_path / f"{name}-serial.json").read_bytes()
            for round_ in range(3):
                assert (tmp_path / f"{name}-{round_}.json").read_bytes() == serial
        assert capsys.readouterr().err == ""
