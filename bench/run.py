#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 bench/run.py --workload certify-dft --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src/``; without it the command exits 2 and prints no result.
Inputs are generated from ``--seed`` under ``.bench_out/``, every CLI run
goes through ``argmaxable.cli.run`` in this one process (a closed loop
with one client), and every report is checked against ground truth.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics from a traced pass.  A results file with provenance is
written to ``.bench_out/results/`` either way.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: with the --jobs 2 verify workers the process then keeps
# at most two threads busy, and timings do not depend on the BLAS pool.
# Must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Typical time of SpeedProbe's reference computation on the reference
# machine (2 cores, Python 3.11, numpy 2.4).  Normalised times are wall
# times rescaled to this reference speed.
REFERENCE_NOMINAL_S = 0.025


class SpeedProbe:
    """Times a fixed reference computation, owned by the benchmark, between
    measured intervals.

    On a shared 2-core host the CPU speed drifted by up to ±25% over
    minutes, and all code slowed together.  Dividing an interval by the mean reference time
    just before and after it cancels that drift: over 150 s of repeated
    identical verify batches, windowed medians varied by 17.5% (coefficient
    of variation) in wall time and by 2.3% once normalised.  The program
    cannot reach the reference, so a faster program still reads faster.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._vector = rng.standard_normal(100_000)
        self._square = rng.standard_normal((120, 120))
        self.spent = 0.0  # total time spent in the reference so far
        self.restart()

    def _reference_s(self) -> float:
        import numpy as np

        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i % 7
        np.sort(self._vector)
        np.linalg.qr(self._square)
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        return elapsed

    def restart(self) -> None:
        self._last = self._reference_s()

    def factor(self) -> float:
        """Speed factor of the interval since the previous reference: the
        nominal reference time over the mean of the two around it."""
        before, self._last = self._last, self._reference_s()
        return REFERENCE_NOMINAL_S / ((before + self._last) / 2)


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import GENERATORS, SIZES

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="generate the inputs and exit (timed by the parent run)")
    return p.parse_args(argv)


def hash_files(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(rel.encode() + b"\0" + files[rel] + b"\0")
    return h.hexdigest()


def hash_dir(directory: Path) -> str:
    return hash_files({
        str(p.relative_to(directory)): p.read_bytes()
        for p in directory.rglob("*") if p.is_file()
    })


def provenance(args, inputs_sha: str, gen) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "chunk_argv": [[argv for _, argv, _ in steps] for steps in gen.rounds],
        "inputs_sha256": inputs_sha,
        "source_sha256": hash_files({
            str(p.relative_to(SRC)): p.read_bytes() for p in sorted(SRC.rglob("*.py"))
        }),
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_round(cli, gen, chunk: int, inputs: Path, reports: Path, tracer=None) -> list[dict]:
    """Run one round's CLI steps back to back; return each step's timing,
    exit code and parsed report."""
    out = []
    for label, template, key in gen.rounds[chunk]:
        report_path = reports / f"{chunk}-{label}.json"
        report_path.unlink(missing_ok=True)
        argv = [a.replace("{in}", str(inputs)).replace("{out}", str(report_path))
                for a in template]
        start = time.perf_counter()
        if tracer is None:
            code = cli.run(argv)
        else:
            with tracer.span("cli.run"):
                code = cli.run(argv)
        seconds = time.perf_counter() - start
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            report = None
        out.append({"label": label, "key": key, "exit": code, "seconds": seconds,
                    "report": report})
    return out


def check_round(steps: list[dict], truth: dict, witnesses=None):
    from workloads import Tally, check_run

    tally = Tally()
    for s in steps:
        tally.add(check_run(s["label"], s["key"], s["exit"], s["report"], truth, witnesses))
    # Free the round's garbage now, outside any timing, so every round
    # starts from the same heap and peak memory does not depend on when
    # the collector happened to run.
    gc.collect()
    return tally


def median_per_chunk(rounds: list[tuple[int, list[dict]]], pick) -> tuple[float, int]:
    """Median over chunks of the median over that chunk's repeats."""
    by_chunk: dict[int, list[float]] = {}
    for chunk, steps in rounds:
        by_chunk.setdefault(chunk, []).append(pick(steps))
    return statistics.median(statistics.median(v) for v in by_chunk.values()), len(rounds)


def setup_only(args) -> int:
    """One set-up, timed by the parent.  The reference computation runs in
    this process at both ends, on the core that did the work, and its
    cost is reported so the parent can take it out of the wall time."""
    probe = SpeedProbe()
    import argmaxable.cli  # noqa: F401  (the import is part of set-up)
    from workloads import GENERATORS, SIZES, write_inputs

    gen = GENERATORS[args.workload](args.seed, SIZES[args.size][args.workload])
    write_inputs(gen, work_dir(args) / "inputs")
    factor = probe.factor()
    print(json.dumps({"speed_factor": factor, "reference_s": probe.spent}))
    return 0


def work_dir(args) -> Path:
    return OUT / f"{args.workload}-{args.seed}-{args.size}"


def measure(args) -> tuple[dict, dict]:
    """Untraced run: timed set-ups in fresh interpreters, then rounds until
    --seconds is spent (always at least one pass over every chunk)."""
    from workloads import GENERATORS, SIZES, Tally, complete_truth

    inputs, reports = work_dir(args) / "inputs", work_dir(args) / "reports"
    shutil.rmtree(inputs, ignore_errors=True)
    reports.mkdir(parents=True, exist_ok=True)
    setup_times, setup_factors, hashes = [], [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                                "--workload", args.workload, "--seed", str(args.seed),
                                "--size", args.size],
                               check=True, timeout=170, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - start
        report = json.loads(child.stdout.strip().splitlines()[-1])
        # Interpreter start-up and exit count; the child's two reference
        # runs do not.
        setup_times.append(wall - report["reference_s"])
        setup_factors.append(report["speed_factor"])
        hashes.append(hash_dir(inputs))
    errors = []
    if len(set(hashes)) != 1:
        errors.append("set-up wrote different inputs for the same seed")

    from argmaxable import cli

    gen = GENERATORS[args.workload](args.seed, SIZES[args.size][args.workload])
    errors += gen.layer_errors
    complete_truth(gen.truth)

    chunks = len(gen.rounds)
    first_pass, rounds, mismatches = [], [], 0
    deadline = time.perf_counter() + args.seconds
    probe = SpeedProbe()
    i = 0
    while i < chunks or time.perf_counter() < deadline:
        chunk = i % chunks
        steps = run_round(cli, gen, chunk, inputs, reports)
        factor = probe.factor()
        for step in steps:
            step["normalised"] = step["seconds"] * factor
        tally = check_round(steps, gen.truth)
        probe.restart()
        if i < chunks:
            first_pass.append(tally)
            if i == chunks - 1:
                # Peak memory after exactly one pass: the repeats that fill
                # the remaining time vary in number and fragment the heap.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            ref = first_pass[chunk]
            mismatches += (tally.failed, tally.wrong, tally.indeterminate) != (
                ref.failed, ref.wrong, ref.indeterminate)
        errors += [e for e in tally.errors if e not in errors]
        rounds.append((chunk, steps))
        i += 1

    total = Tally()
    for t in first_pass:
        total.add(t)
    job_s, samples = median_per_chunk(rounds, lambda st: sum(s["normalised"] for s in st))
    step1_s, _ = median_per_chunk(rounds, lambda st: st[0]["normalised"])
    step2_s, _ = median_per_chunk(rounds, lambda st: st[1]["normalised"])
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in zip(setup_times, setup_factors)),
                    SETUP_REPEATS),
        "job_s": (job_s, samples),
        "step1_s": (step1_s, samples),
        "step2_s": (step2_s, samples),
        "peak_rss_mb": (peak_rss_mb, 1),
        "ok_frac": (1.0 - total.failed / total.ops, 1),
    }
    items_per_round = total.items / chunks
    detail = {
        "fail_frac": total.failed / total.ops,
        "verify_wrong": total.wrong,
        "verify_indeterminate": total.indeterminate,
        "rounds": len(rounds),
        "repeat_mismatches": mismatches,
        "wrong_items": total.wrong_items,
        "setup_wall_s": setup_times,
        "setup_speed_factors": setup_factors,
        "job_wall_s": median_per_chunk(rounds, lambda st: sum(s["seconds"] for s in st))[0],
        "step1_wall_s": median_per_chunk(rounds, lambda st: st[0]["seconds"])[0],
        "step2_wall_s": median_per_chunk(rounds, lambda st: st[1]["seconds"])[0],
    }
    if args.workload == "certify-dft":
        detail["verify_items_per_s"] = items_per_round / job_s
    elif args.workload == "learned-eval":
        detail["verify_items_per_s"] = items_per_round / step2_s
        detail["metrics_records_per_s"] = gen.truth["scores"].shape[0] / step1_s
    else:
        detail["check_s"] = step1_s
        detail["enumerate_s"] = step2_s
    detail["round_seconds"] = [
        [chunk, [s["seconds"] for s in steps], [s["normalised"] for s in steps]]
        for chunk, steps in rounds
    ]
    result = {
        "correct": not errors,
        "attempted": total.ops,
        "failed": total.failed,
        "errors": errors,
        "metrics": metrics,
        "detail": detail,
    }
    return result, provenance(args, hashes[0], gen)


def logits_bench() -> tuple[dict, list[str]]:
    """Dense product vs logits_fft at the mimic3 preset, one vector and a
    batch of 256 (the batch goes through logits_fft one column at a time,
    which is how the package exposes it)."""
    import numpy as np
    from argmaxable import dftlayer

    n, k = dftlayer.DATASET_PRESETS["mimic3"]
    spec = dftlayer.DftSpec(n=n, k=k)
    w = dftlayer.build_dft_matrix(n, k)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(spec.total_columns)
    batch = rng.standard_normal((spec.total_columns, 256))

    def median_ms(fn, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            value = fn()
            times.append((time.perf_counter() - start) * 1e3)
        return statistics.median(times), value

    dense_ms, dense = median_ms(lambda: dftlayer.logits_direct(w, x), 51)
    fft_ms, fft = median_ms(lambda: dftlayer.logits_fft(spec, None, x), 51)
    dense_batch_ms, dense_b = median_ms(lambda: w.entries @ batch, 5)
    fft_batch_ms, fft_b = median_ms(
        lambda: np.column_stack([dftlayer.logits_fft(spec, None, c) for c in batch.T]), 5)
    errors = []
    for name, a, b in (("single", dense, fft), ("batch", dense_b, fft_b)):
        gap = float(np.max(np.abs(a - b)))
        if gap > 1e-9 * float(np.max(np.abs(a))):
            errors.append(f"logits_fft differs from the dense product ({name}) by {gap}")
    return {
        "dftlayer.logits_dense_ms": dense_ms,
        "dftlayer.logits_fft_ms": fft_ms,
        "dftlayer.logits_dense_batch_ms": dense_batch_ms,
        "dftlayer.logits_fft_batch_ms": fft_batch_ms,
    }, errors


def layer_metrics(spans: list[dict], tally) -> dict:
    from tracing import self_times

    own = self_times(spans)

    def total(name, self_only=False):
        return sum((own[s["id"]] if self_only else s["end"] - s["start"]
                    for s in spans if s["name"] == name), 0.0)

    def attr_sum(name, key):
        return sum(s[key] for s in spans if s["name"] == name)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    items = [s for s in spans if s["name"] == "verifier.item"]
    item_ms = sorted((s["end"] - s["start"]) * 1e3 for s in items)
    # The highest percentile with at least ten items beyond it.
    tail_index = max(len(item_ms) - 11, 0)
    busy = sum(s["end"] - s["start"] for s in items)
    capacity = sum((s["end"] - s["start"]) * s["jobs"]
                   for s in spans if s["name"] == "verifier.batch")
    parse_scores_s = total("reportio.parse_scores")
    scan_s = total("linalg.scan")
    sample_s = total("oracle.sample", self_only=True)
    draws = attr_sum("oracle.sample", "draws")
    return {
        "cli.self_s": total("cli.run", self_only=True),
        "reportio.parse_matrix_s": total("reportio.parse_matrix"),
        "reportio.parse_labels_s": total("reportio.parse_labels"),
        "reportio.parse_scores_s": parse_scores_s,
        "reportio.score_cells_per_s": rate(attr_sum("reportio.parse_scores", "cells"),
                                           parse_scores_s),
        "reportio.report_json_s": total("reportio.report_json"),
        "verifier.items": len(items),
        "verifier.busy_s": busy,
        "verifier.batch_s": total("verifier.batch"),
        "verifier.item_ms_p50": statistics.median(item_ms) if item_ms else 0.0,
        "verifier.item_ms_tail": item_ms[tail_index] if item_ms else 0.0,
        "verifier.item_tail_pct": 100.0 * (tail_index + 1) / len(item_ms) if item_ms else 0.0,
        "verifier.argmaxable": tally.argmaxable,
        "verifier.not_eps": tally.not_eps,
        "verifier.indeterminate": tally.indeterminate,
        "verifier.wrong": tally.wrong,
        "verifier.witnesses_checked": tally.witnesses_checked,
        "verifier.useful_ratio": tally.useful / tally.items if tally.items else 0.0,
        "verifier.indeterminate_busy_s": sum(
            s["end"] - s["start"] for s in items if s["status"] == "indeterminate"),
        "verifier.parallel_eff": busy / capacity if capacity > 0 else 0.0,
        "linalg.scan_s": scan_s,
        "linalg.minors_checked": attr_sum("linalg.scan", "minors"),
        "linalg.minors_per_s": rate(attr_sum("linalg.scan", "minors"), scan_s),
        "linalg.general_position_s": total("linalg.general_position"),
        "oracle.sample_s": sample_s,
        "oracle.draws": draws,
        "oracle.boundary_skips": attr_sum("oracle.sample", "boundary_skips"),
        "oracle.regions": attr_sum("oracle.sample", "regions"),
        "oracle.draws_per_s": rate(draws, sample_s),
        "oracle.regions_per_mdraw": rate(attr_sum("oracle.sample", "regions"), draws / 1e6),
        "metrics.at_k_s": total("metrics.at_k"),
        "metrics.ndcg_s": total("metrics.ndcg"),
        "metrics.micro_macro_s": total("metrics.micro_macro"),
        "dftlayer.build_s": total("dftlayer.build"),
    }


def measure_traced(args) -> tuple[dict, dict]:
    """Traced run: in-process set-up, one traced pass over every chunk, one
    untraced pass for the tracing overhead, then the logits comparison."""
    from tracing import Tracer
    from workloads import GENERATORS, SIZES, Tally, complete_truth, write_inputs

    inputs, reports = work_dir(args) / "inputs", work_dir(args) / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    gen = GENERATORS[args.workload](args.seed, SIZES[args.size][args.workload], tracer)
    write_inputs(gen, inputs)
    complete_truth(gen.truth)
    errors = list(gen.layer_errors)

    from argmaxable import cli

    chunks = range(len(gen.rounds))
    tracer.instrument()
    try:
        traced = []
        for chunk in chunks:
            tracer.round = chunk
            traced.append(run_round(cli, gen, chunk, inputs, reports, tracer))
    finally:
        tracer.uninstrument()
    untraced = [run_round(cli, gen, chunk, inputs, reports) for chunk in chunks]

    witnesses = {y.signs.tobytes(): (w, res) for w, y, res in tracer.verify_calls}
    tally = Tally()
    for steps in traced:
        t = check_round(steps, gen.truth, witnesses)
        tally.add(t)
    for steps in untraced:
        errors += [e for e in check_round(steps, gen.truth).errors if e not in errors]
    errors += [e for e in tally.errors if e not in errors]

    metrics = layer_metrics(tracer.spans, tally)
    traced_s = sum(s["seconds"] for steps in traced for s in steps)
    untraced_s = sum(s["seconds"] for steps in untraced for s in steps)
    metrics.update({
        "trace.traced_job_s": traced_s,
        "trace.untraced_job_s": untraced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.spans": len(tracer.spans),
    })
    logits, logit_errors = logits_bench()
    metrics.update(logits)
    errors += logit_errors
    tracer.write_jsonl(OUT / "spans" / f"{args.workload}-seed{args.seed}-{args.size}.jsonl")
    result = {
        "correct": not errors,
        "attempted": tally.ops,
        "failed": tally.failed,
        "errors": errors,
        "metrics": {name: (value, 1) for name, value in metrics.items()},
        "detail": {"wrong_items": tally.wrong_items},
    }
    return result, provenance(args, hash_dir(inputs), gen)


def main(argv=None) -> int:
    if not (SRC / "argmaxable" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/argmaxable; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    result, prov = (measure_traced if args.trace else measure)(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise SystemExit(f"measured metrics {sorted(result['metrics'])} do not match "
                         f"BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, (value, _) in result["metrics"].items()}
    results_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps({
        "provenance": prov,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "metrics": {name: {**metrics[name], "samples": samples}
                    for name, (_, samples) in result["metrics"].items()},
        "detail": result["detail"],
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    for name, (value, samples) in result["metrics"].items():
        print(f"{name:34s} {value:>16.6g} {metrics[name]['unit']:8s} n={samples}")
    for name, value in result["detail"].items():
        if not isinstance(value, list):
            print(f"{name:34s} {value:>16.6g} (detail)")
    for err in result["errors"][:20]:
        print(f"error: {err}")
    print(f"# results: {results_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
