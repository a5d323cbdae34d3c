"""Workload inputs, rounds and ground-truth checks.

Every workload is generated from its seed with numpy only; the program
under test sees nothing but the files written here.  A workload is a list
of rounds, each a fixed pair of CLI runs (step 1, step 2).  The rounds of
one workload differ only in their input chunk, so a run can cycle through
them and take medians.

Ground truth never comes from the code under test:

* certify-dft: the alternation theorem for the truncated-DFT layer
  (alt(y) <= 2k is feasible, alt(y) > 2k is not), plus radius >= eps for
  every ARGMAXABLE verdict;
* learned-eval: each predicted assignment sign(W x_r) has the known
  witness x_r and its margin; metrics are recomputed here with numpy;
* geometry: C(n, d) minors, the cover count 2 * sum_{j<d} C(n-1, j) and
  the alt <= d-1 family are all computed here with the standard library.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

EPS = 1e-8  # the CLI's default --eps; a radius below it is never ARGMAXABLE
BOX = 1e4  # the CLI's default --box
# A predicted item whose known witness clears eps by this factor must not
# come back NOT_EPS: the LP optimum is at least the witness's margin.
KNOWN_MARGIN_FACTOR = 1e3

SIZES = {
    "full": {
        "certify-dft": {"n": 500, "k": 10, "chunks": 20, "per_kind": 25},
        "learned-eval": {
            "n": 1000, "d": 32, "records": 1000, "chunks": 10, "per_kind": 15,
        },
        "geometry": {"check": (20, 4), "enumerate": (10, 2), "chunks": 6},
    },
    "tiny": {
        "certify-dft": {"n": 40, "k": 3, "chunks": 2, "per_kind": 3},
        "learned-eval": {
            "n": 50, "d": 6, "records": 30, "chunks": 2, "per_kind": 3,
        },
        "geometry": {"check": (12, 2), "enumerate": (8, 1), "chunks": 2},
    },
}

@dataclass
class Generated:
    """Input files (relative path -> function rendering the text) and the
    ground truth needed to check every report.  Rendering is deferred so
    the measuring process, which only needs the truth, never holds the
    file text.  ``rounds`` holds, per chunk, the two steps as (label, argv
    template with {in}/{out} placeholders, truth key)."""

    files: dict[str, Callable[[], str]]
    truth: dict
    rounds: list[list[tuple[str, list[str], str]]]
    layer_errors: list[str] = field(default_factory=list)


def matrix_csv(entries: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(v)) for v in row) for row in entries) + "\n"


def dense_labels(rows: list[np.ndarray]) -> str:
    return "\n".join("".join("+" if s > 0 else "-" for s in row) for row in rows) + "\n"


def alternations(signs: np.ndarray) -> int:
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def dft_reference(n: int, k: int) -> np.ndarray:
    """The truncated-DFT layer from its closed form, independent of
    ``dftlayer``: a constant column, then cos/sin pairs of each frequency."""
    t = 2.0 * np.pi * np.arange(n) / n
    cols = [np.full(n, 1.0 / math.sqrt(n))]
    for f in range(1, k + 1):
        cols += [math.sqrt(2.0 / n) * np.cos(f * t), math.sqrt(2.0 / n) * np.sin(f * t)]
    return np.column_stack(cols)


def build_dft(n: int, k: int, tracer=None) -> tuple[np.ndarray, list[str]]:
    """Build the layer with the package (the set-up cost being measured)
    and compare it with the closed form."""
    from argmaxable import dftlayer

    if tracer is None:
        w = dftlayer.build_dft_matrix(n, k)
    else:
        with tracer.span("dftlayer.build"):
            w = dftlayer.build_dft_matrix(n, k)
    gap = float(np.max(np.abs(w.entries - dft_reference(n, k))))
    errors = [] if gap <= 1e-12 else [f"build_dft_matrix({n}, {k}) is {gap} off its closed form"]
    return w.entries, errors


def _active(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    signs = -np.ones(n, dtype=np.int8)
    signs[rng.choice(n, size=m, replace=False)] = 1
    return signs


def _exact_alternations(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    steps = np.ones(n, dtype=np.int8)
    steps[rng.choice(np.arange(1, n), size=count, replace=False)] = -1
    first = 1 if rng.random() < 0.5 else -1
    return (first * np.cumprod(steps)).astype(np.int8)


def generate_certify_dft(seed: int, size: dict, tracer=None) -> Generated:
    n, k = size["n"], size["k"]
    rng = np.random.default_rng([seed, 1])
    entries, errors = build_dft(n, k, tracer)
    files = {"w.csv": lambda: matrix_csv(entries)}
    truth: dict = {"matrix": entries}
    rounds = []
    for c in range(size["chunks"]):
        # Solve time grows with the active count, so every chunk cycles
        # through 1..k active labels instead of drawing the count.
        feasible = [_active(rng, n, 1 + i % k) for i in range(size["per_kind"])]
        infeasible = [_exact_alternations(rng, n, 2 * k + 2) for _ in range(size["per_kind"])]
        steps = []
        for label, items in (("feasible", feasible), ("infeasible", infeasible)):
            key = f"{label}-{c}"
            files[f"{key}.txt"] = lambda items=items: dense_labels(items)
            truth[key] = {
                "key": key,
                "items": items,
                # Theorem: feasible iff alt(y) <= 2k on this layer.
                "kinds": [
                    "feasible" if alternations(y) <= 2 * k else "infeasible" for y in items
                ],
            }
            argv = ["verify", "--matrix", "{in}/w.csv", "--labels", f"{{in}}/{key}.txt",
                    "--jobs", "1", "--out", "{out}"]
            steps.append((f"verify-{label}", argv, key))
        rounds.append(steps)
    return Generated(files, truth, rounds, errors)


def _known_margin(scores: np.ndarray, row_norms: np.ndarray, x: np.ndarray) -> float:
    """Chebyshev radius of the witness x rescaled to fill the box."""
    return float(BOX * np.min(np.abs(scores) / row_norms) / np.max(np.abs(x)))


def generate_learned_eval(seed: int, size: dict, tracer=None) -> Generated:
    n, d, records = size["n"], size["d"], size["records"]
    rng = np.random.default_rng([seed, 2])
    w = rng.standard_normal((n, d)) / math.sqrt(d)
    x = rng.standard_normal((records, d))
    scores = x @ w.T
    # Sparse gold: 1..8 labels near the top of a noisy copy of the scores.
    gold = -np.ones((records, n), dtype=np.int8)
    noisy = scores + rng.standard_normal(scores.shape)
    for r in range(records):
        top = np.argsort(-noisy[r], kind="stable")[: int(rng.integers(1, 9))]
        gold[r, top] = 1
    row_norms = np.linalg.norm(w, axis=1)
    files = {
        "w.csv": lambda: matrix_csv(w),
        "scores.csv": lambda: matrix_csv(scores),
        "gold.txt": lambda: f"n={n}\n" + "\n".join(
            ",".join(str(i + 1) for i in np.flatnonzero(g > 0)) for g in gold) + "\n",
    }
    truth: dict = {"matrix": w, "scores": scores, "gold": gold}
    per = size["per_kind"]
    picks = rng.permutation(records)
    rounds = []
    for c in range(size["chunks"]):
        rows = picks[c * per : (c + 1) * per]
        pred = [np.where(scores[r] > 0, 1, -1).astype(np.int8) for r in rows]
        key = f"items-{c}"
        items = pred + [gold[r] for r in rows]
        files[f"{key}.txt"] = lambda items=items: dense_labels(items)
        truth[key] = {
            "key": key,
            "items": items,
            "kinds": ["predicted"] * per + ["gold"] * per,
            "margins": [_known_margin(scores[r], row_norms, x[r]) for r in rows] + [None] * per,
        }
        rounds.append([
            ("metrics", ["metrics", "--scores", "{in}/scores.csv", "--gold", "{in}/gold.txt",
                         "--k", "1,5,10", "--out", "{out}"], "metrics"),
            ("verify", ["verify", "--matrix", "{in}/w.csv", "--labels", f"{{in}}/{key}.txt",
                        "--jobs", "2", "--out", "{out}"], key),
        ])
    return Generated(files, truth, rounds)


def alt_family(n: int, max_alt: int) -> set[str]:
    """Dense strings ('+'/'−') of every sign vector with at most max_alt
    alternations, by brute force over the flip positions."""
    out = set()
    for j in range(max_alt + 1):
        for flips in itertools.combinations(range(1, n), j):
            for first in (1, -1):
                sign, chars = first, []
                for i in range(n):
                    if i in flips:
                        sign = -sign
                    chars.append("+" if sign > 0 else "−")
                out.add("".join(chars))
    return out


def generate_geometry(seed: int, size: dict, tracer=None) -> Generated:
    """The two matrices are fixed DFT layers.  The seed picks a
    cyclic row shift of each: for odd d a cyclic shift keeps every maximal
    minor's sign and maps the feasible family (at most d-1 alternations
    around the circle) onto itself, so the ground truth is unchanged.  A
    row permutation also permutes every sampled sign vector, so with the
    fixed per-chunk sampling seeds the draw count does not depend on the
    workload seed either: the seed changes the input, not its difficulty."""
    rng = np.random.default_rng([seed, 3])
    (cn, ck), (en, ek) = size["check"], size["enumerate"]
    check_w, errors = build_dft(cn, ck, tracer)
    enum_w, more = build_dft(en, ek, tracer)
    check_w = np.roll(check_w, int(rng.integers(cn)), axis=0)
    enum_w = np.roll(enum_w, int(rng.integers(en)), axis=0)
    d = 2 * ek + 1
    files = {"check.csv": lambda: matrix_csv(check_w), "enum.csv": lambda: matrix_csv(enum_w)}
    truth = {
        "check": {"minors": math.comb(cn, 2 * ck + 1)},
        "enumerate": {
            "count": 2 * sum(math.comb(en - 1, j) for j in range(d)),
            "members": alt_family(en, d - 1),
        },
    }
    rounds = []
    for sample_seed in range(size["chunks"]):
        rounds.append([
            ("check", ["check", "--matrix", "{in}/check.csv", "--out", "{out}"], "check"),
            ("enumerate", ["enumerate", "--matrix", "{in}/enum.csv", "--method", "sampled",
                           "--seed", str(sample_seed), "--budget", "100000000",
                           "--out", "{out}"], "enumerate"),
        ])
    return Generated(files, truth, rounds, errors + more)


GENERATORS = {
    "certify-dft": generate_certify_dft,
    "learned-eval": generate_learned_eval,
    "geometry": generate_geometry,
}


def write_inputs(gen: Generated, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for rel, render in gen.files.items():
        (directory / rel).write_text(render(), encoding="utf-8")


# ---------------------------------------------------------------- checks


@dataclass
class Tally:
    """Outcome counts of checked CLI runs.

    ``ops`` counts operations (each verify item and each CLI run);
    ``failed`` the operations that failed: an INDETERMINATE item, a wrong
    verdict, an unexpected exit code or a report that fails its check.
    ``errors`` lists output errors outside the verifier's verdicts (bad
    report, wrong metric, wrong region set); they make the run incorrect.
    ``wrong_items`` describes each wrong verdict.
    """

    ops: int = 0
    failed: int = 0
    items: int = 0
    argmaxable: int = 0
    not_eps: int = 0
    indeterminate: int = 0
    wrong: int = 0
    useful: int = 0
    witnesses_checked: int = 0
    errors: list[str] = field(default_factory=list)
    wrong_items: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        for name in ("ops", "failed", "items", "argmaxable", "not_eps", "indeterminate",
                     "wrong", "useful", "witnesses_checked"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.errors += other.errors
        self.wrong_items += other.wrong_items


def _expected_verify_exit(summary: dict) -> int:
    if summary["indeterminate"]:
        return 4
    if summary["not_eps"]:
        return 3
    return 0


def check_run(step: str, key: str, exit_code: int, report: dict | None, truth: dict,
              witnesses: dict | None = None) -> Tally:
    """Check one CLI run against ground truth.  ``witnesses`` maps an
    assignment's bytes to the weight matrix and VerifyResult seen in
    process (traced runs only) so ARGMAXABLE witnesses can be
    re-evaluated."""
    t = Tally(ops=1)
    run_errors: list[str] = []
    if report is None:
        run_errors.append(f"{step}: no report (exit {exit_code})")
    else:
        from jsonschema import ValidationError
        from argmaxable.reportio import validate_report

        try:
            validate_report(report)
        except (ValidationError, KeyError) as exc:
            run_errors.append(f"{step}: report fails its schema: {exc}")
    if not run_errors:
        payload = report["payload"]
        if step.startswith("verify"):
            run_errors += _check_verify(t, exit_code, payload, truth[key], witnesses)
        else:
            if exit_code != 0:
                run_errors.append(f"{step}: exit code {exit_code}, expected 0")
            run_errors += CHECKERS[step](payload, truth)
    if run_errors:
        t.failed += 1
        t.errors += run_errors
    return t


def _check_verify(t: Tally, exit_code: int, payload: dict, truth: dict,
                  witnesses: dict | None) -> list[str]:
    errors = []
    results = payload["results"]
    if len(results) != len(truth["items"]):
        return [f"verify: {len(results)} results for {len(truth['items'])} items"]
    counts = {"argmaxable": 0, "not_eps_argmaxable": 0, "indeterminate": 0}
    for index, (entry, y, kind, margin) in enumerate(zip(
        results, truth["items"], truth["kinds"], truth.get("margins", itertools.repeat(None))
    )):
        t.items += 1
        t.ops += 1
        status, radius = entry["status"], entry["radius"]
        counts[status] += 1
        wrong = False
        if status == "indeterminate":
            t.indeterminate += 1
            t.failed += 1
            continue
        if status == "argmaxable":
            t.argmaxable += 1
            wrong = radius is None or not radius >= EPS or kind == "infeasible"
            if witnesses is not None and not wrong:
                t.witnesses_checked += 1
                wrong = not _witness_reproduces(witnesses.get(y.tobytes()), y)
        else:
            t.not_eps += 1
            wrong = kind == "predicted" and margin >= KNOWN_MARGIN_FACTOR * EPS
        if wrong:
            t.wrong += 1
            t.failed += 1
            t.wrong_items.append(
                f"{truth['key']}[{index}]: {status} radius={radius!r} for a {kind} "
                f"assignment (alt={alternations(y)})")
        elif (status == "argmaxable") == (kind != "infeasible") or kind == "gold":
            t.useful += 1
    summary = payload["summary"]
    if (summary["argmaxable"], summary["not_eps"], summary["indeterminate"]) != (
        counts["argmaxable"], counts["not_eps_argmaxable"], counts["indeterminate"]
    ):
        errors.append(f"verify: summary {summary} disagrees with the results")
    elif exit_code != _expected_verify_exit(summary):
        errors.append(
            f"verify: exit code {exit_code}, summary implies {_expected_verify_exit(summary)}"
        )
    return errors


def _witness_reproduces(call, y: np.ndarray) -> bool:
    """Re-evaluate an ARGMAXABLE witness: sign(W x) must equal y."""
    from argmaxable.linalg import BoundaryError, sign_vector

    if call is None:
        return False
    w, result = call
    if result.witness is None:
        return False
    try:
        return bool(np.array_equal(sign_vector(w, result.witness).signs, y))
    except BoundaryError:
        return False


def _check_check(payload: dict, truth: dict) -> list[str]:
    expected = truth["check"]["minors"]
    errors = []
    if payload["verdict"] != "uniform-positive":
        errors.append(f"check: verdict {payload['verdict']}, expected uniform-positive")
    if payload["checked_minors"] != expected:
        errors.append(f"check: {payload['checked_minors']} minors, expected {expected}")
    if payload["general_position"] is not True:
        errors.append("check: general_position is false")
    return errors


def _check_enumerate(payload: dict, truth: dict) -> list[str]:
    expected = truth["enumerate"]
    errors = []
    if payload["method"] != "sampled-complete":
        errors.append(f"enumerate: method {payload['method']}, expected sampled-complete")
    if payload["count"] != expected["count"] or set(payload["members"]) != expected["members"]:
        errors.append(
            f"enumerate: {payload['count']} members differ from the "
            f"{expected['count']}-member alternation family"
        )
    return errors


def metrics_reference(scores: np.ndarray, gold: np.ndarray, ks, threshold: float = 0.5) -> dict:
    """P@k, R@k, F1@k, nDCG@k and micro/macro F1 with the package's stated
    conventions (ties by ascending index, empty gold has recall 1 and is
    skipped by nDCG, F1@k is the harmonic mean of the averaged P and R)."""
    active = gold > 0
    n_active = active.sum(axis=1)
    order = np.argsort(-scores, axis=1, kind="stable")
    rows = np.arange(scores.shape[0])[:, None]

    def harmonic(p, r):
        if p + r == 0.0:
            return 0.0
        return p if p == r else 2.0 * p * r / (p + r)

    at_k = []
    for k in ks:
        hit_matrix = active[rows, order[:, :k]]
        hits = hit_matrix.sum(axis=1)
        prec = float(np.mean(hits / k))
        rec = float(np.mean(np.where(n_active > 0, hits / np.maximum(n_active, 1), 1.0)))
        discounts = 1.0 / np.log2(np.arange(2, k + 2))
        dcg = (hit_matrix * discounts).sum(axis=1)
        ideal = np.array([discounts[: min(k, a)].sum() for a in n_active])
        scored = n_active > 0
        ndcg = float(np.mean(dcg[scored] / ideal[scored])) if scored.any() else None
        at_k.append({"k": k, "prec": prec, "rec": rec, "f1": harmonic(prec, rec), "ndcg": ndcg})
    predicted = scores > threshold
    tp = (predicted & active).sum(axis=0)
    fp = (predicted & ~active).sum(axis=0)
    fn = (~predicted & active).sum(axis=0)
    micro_den = 2 * tp.sum() + fp.sum() + fn.sum()
    label_den = 2 * tp + fp + fn
    macro = np.where(label_den == 0, 0.0, 2.0 * tp / np.maximum(label_den, 1)).mean()
    return {
        "records": int(scores.shape[0]),
        "at_k": at_k,
        "micro_f1": 0.0 if micro_den == 0 else float(2 * tp.sum() / micro_den),
        "macro_f1": float(macro),
    }


def complete_truth(truth: dict) -> None:
    """Derive the truth that set-up does not need, before any timing."""
    if "scores" in truth:
        truth["metrics_reference"] = metrics_reference(truth["scores"], truth["gold"], (1, 5, 10))


def _check_metrics(payload: dict, truth: dict) -> list[str]:
    ref = truth["metrics_reference"]
    errors = []
    if payload["records"] != ref["records"]:
        errors.append(f"metrics: {payload['records']} records, expected {ref['records']}")
    pairs = [("micro_f1", payload["micro_f1"], ref["micro_f1"]),
             ("macro_f1", payload["macro_f1"], ref["macro_f1"])]
    for got, want in zip(payload["at_k"], ref["at_k"]):
        for key in ("prec", "rec", "f1", "ndcg"):
            pairs.append((f"{key}@{want['k']}", got[key], want[key]))
    for name, got, want in pairs:
        if (got is None) != (want is None) or (
            want is not None and not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        ):
            errors.append(f"metrics: {name} = {got}, numpy reference gives {want}")
    return errors


CHECKERS = {"check": _check_check, "enumerate": _check_enumerate, "metrics": _check_metrics}
