"""Deliberately naive reference implementations used as test oracles.

Everything here trades speed for obviousness and shares no code with the
package: determinants by cofactor expansion, the minor scan one subset
at a time, sign-vector families by filtering all 2^n strings, ranked
metrics by explicit sorting loops.  Two small numeric helpers that only
the tests need (a guarded determinant and a seeded nudge off a
hyperplane) live here too, and so do the sampled enumeration loop with
each probe written out, normalised and tested on its own, the boundary
walk of a planar layer and the minor scan's colex tables, built from
``itertools.combinations``.  Two helpers are no reference:
``minor_brackets`` and ``maximal_minors`` read the package's own minor
scan, one minor at a time, for tests to judge.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from argmaxable import linalg


def determinant(matrix, dim_cap: int = 512) -> float:
    """Determinant of a square real matrix via LU with partial pivoting.

    The dimension cap is a plumbing guard: an unexpectedly large input is
    more likely a transposed or misshaped argument than a real request.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got shape {arr.shape}")
    if arr.shape[0] > dim_cap:
        raise ValueError(f"dimension {arr.shape[0]} exceeds cap {dim_cap}")
    return float(np.linalg.det(arr))


def perturb_input(x, seed: int, scale: float = 1e-9):
    """Nudge x off a hyperplane: add a seeded uniform direction of length
    scale * ||x|| (or just ``scale`` when x is the origin)."""
    point = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    direction = rng.uniform(-1.0, 1.0, size=point.shape)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:  # probability zero, but keep the contract total
        direction = np.ones_like(point)
        norm = float(np.linalg.norm(direction))
    magnitude = scale * float(np.linalg.norm(point))
    if magnitude == 0.0:
        magnitude = scale
    return point + direction * (magnitude / norm)


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion on a list of lists; on
    Fraction entries it is exact."""
    size = len(rows)
    assert all(len(r) == size for r in rows)
    if size == 1:
        return rows[0][0]
    total = 0
    for j in range(size):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def string_act(word: str) -> int:
    return word.count("+")


def string_alt(word: str) -> int:
    return sum(1 for a, b in zip(word, word[1:]) if a != b)


def all_sign_strings(n: int):
    for chars in itertools.product("+-", repeat=n):
        yield "".join(chars)


def family_strings(n: int, k: int, kind: str) -> set:
    """All length-n sign strings with act <= k or alt <= k."""
    stat = string_act if kind == "active" else string_alt
    return {w for w in all_sign_strings(n) if stat(w) <= k}


def region_count_formula(n: int, d: int) -> int:
    """Plain binomial-sum region count, independent of the package's
    incremental evaluation."""
    return 2 * sum(math.comb(n - 1, j) for j in range(d))


def ranked_labels(scores) -> list:
    """Label indices sorted by descending score, ascending index on ties."""
    return [
        i for i, _ in sorted(enumerate(scores), key=lambda p: (-p[1], p[0]))
    ]


def naive_prec_rec_at_k(scores, gold_active: set, k: int):
    """(precision, recall) at k for one record; recall 1.0 on empty gold."""
    top = ranked_labels(scores)[:k]
    hits = sum(1 for i in top if i in gold_active)
    prec = hits / k
    rec = 1.0 if not gold_active else hits / len(gold_active)
    return prec, rec


def naive_ndcg_at_k(scores, gold_active: set, k: int):
    """nDCG at k for one record; None when the gold set is empty."""
    if not gold_active:
        return None
    top = ranked_labels(scores)[:k]
    dcg = 0.0
    for rank, label in enumerate(top, start=1):
        if label in gold_active:
            dcg += 1.0 / math.log2(rank + 1)
    ideal = sum(
        1.0 / math.log2(rank + 1)
        for rank in range(1, min(k, len(gold_active)) + 1)
    )
    return dcg / ideal


def _harmonic(p: float, r: float) -> float:
    return p if p == r else 2.0 * p * r / (p + r)


def reference_prec_rec_f1_at_k(scores, golds, k: int, per_record_f1=False):
    """(Prec@k, Rec@k, F1@k, empty-gold count) over a dataset, one record
    at a time: per-record hits/k and hits/|gold| ratios averaged with
    np.mean, F1 as 2pr/(p+r), or p itself when p == r."""
    precs, recs = [], []
    for row, gold in zip(scores, golds):
        p, r = naive_prec_rec_at_k(row, gold, k)
        precs.append(p)
        recs.append(r)
    mean_p = float(np.mean(precs))
    mean_r = float(np.mean(recs))
    if per_record_f1:
        f1 = float(np.mean([_harmonic(p, r) for p, r in zip(precs, recs)]))
    else:
        f1 = _harmonic(mean_p, mean_r)
    return mean_p, mean_r, f1, sum(1 for gold in golds if not gold)


def reference_ndcg_at_k(scores, golds, k: int):
    """(nDCG@k, scored, skipped) over a dataset: per-record nDCG summed
    in record order over the records with a non-empty gold set."""
    total = 0.0
    scored = 0
    for row, gold in zip(scores, golds):
        value = naive_ndcg_at_k(row, gold, k)
        if value is not None:
            total += value
            scored += 1
    return total / scored, scored, len(golds) - scored


def reference_minor_scan(entries, tau_det: float = 1e-10):
    """The all-minors sign scan, one subset at a time.

    Index sets come from itertools in colexicographic order (sorted by
    their reversed tuple), each minor is a scalar determinant, and each is
    compared against tau_det times the product of the selected row norms;
    a minor that selects a zero-norm row is degenerate outright.
    Returns (verdict value, min |minor| seen, minors checked, all minors
    as [(index set, minor), ...] in colex order).
    """
    n, d = entries.shape
    norms = np.linalg.norm(entries, axis=1)
    subsets = sorted(itertools.combinations(range(n), d), key=lambda s: s[::-1])
    minors = [(s, float(np.linalg.det(entries[list(s)]))) for s in subsets]
    min_abs = math.inf
    saw_pos = saw_neg = False
    for checked, (s, det) in enumerate(minors, start=1):
        min_abs = min(min_abs, abs(det))
        selected = norms[list(s)]
        if abs(det) < tau_det * float(np.prod(selected)) or 0.0 in selected:
            return "degenerate", min_abs, checked, minors
        if det > 0:
            saw_pos = True
        else:
            saw_neg = True
    if saw_pos and saw_neg:
        verdict = "mixed-signs"
    elif saw_pos:
        verdict = "uniform-positive"
    else:
        verdict = "uniform-negative"
    return verdict, min_abs, len(minors), minors


def minor_brackets(w):
    """[(row index set, minor, bound), ...] for every d-subset of w's rows,
    as the package's minor scan gives them: colex order, at its default
    budget.  The exact minor lies within bound of the value; a bound of 0.0
    marks a value that is LAPACK's own determinant (a layer too wide for
    the recursion)."""
    out = []
    for sets, values, bounds, _ in linalg._minor_blocks(w, linalg.DEFAULT_MINOR_BUDGET):
        if bounds is None:
            bounds = np.zeros(len(values))
        block = sets(np.arange(len(values)))
        out += zip(map(tuple, block.tolist()), values.tolist(), bounds.tolist())
    return out


def colex_table(m: int, size: int, chunk: int) -> np.ndarray:
    """The size-subsets of range(h) in colex order, as an intp table of at
    most ``chunk`` rows, for the largest such h <= m (at least size): lex
    order over the descending range, reversed on both axes."""
    fits = [h for h in range(size, m + 1) if math.comb(h, size) <= chunk]
    head = max(fits, default=size)
    rows = math.comb(head, size)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(head - 1, -1, -1), size)),
        dtype=np.intp,
        count=rows * size,
    )
    return np.ascontiguousarray(flat.reshape(rows, size)[::-1, ::-1])


def maximal_minors(w):
    """[(row index set, minor), ...]: ``minor_brackets`` without the bounds."""
    return [(idx, value) for idx, value, _ in minor_brackets(w)]


def reference_chebyshev_verify(entries, signs, box_bound=1e4, eps_floor=1e-8, feas_tol=1e-9):
    """The Chebyshev LP as first written: the same rows and bounds, solved
    by HiGHS with its default presolve.  Returns (status value, radius,
    witness); radius and witness are None unless the item is argmaxable."""
    from scipy.optimize import linprog

    w = np.asarray(entries, dtype=np.float64)
    y = np.asarray(signs, dtype=np.float64)
    n, d = w.shape
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    a_ub = np.hstack([-(y[:, None] * w), np.linalg.norm(w, axis=1)[:, None]])
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        bounds=[(-box_bound, box_bound)] * d + [(eps_floor, None)],
        method="highs",
        options={
            "primal_feasibility_tolerance": feas_tol,
            "dual_feasibility_tolerance": feas_tol,
        },
    )
    if res.status == 0 and res.x[-1] >= eps_floor:
        return "argmaxable", float(res.x[-1]), np.array(res.x[:d])
    if res.status == 2:
        return "not_eps_argmaxable", None, None
    return "indeterminate", None, None


def reference_sampled_enumeration(entries, budget, seed, tau_sign, target):
    """Sampled region enumeration along great circles, one circle at a time.

    The first chunk is one circle's probes (n, or 1 at d = 1); every
    later one min(2^15, 2^20 // n) probes, but never less than a circle.
    Each chunk draws two Gaussian blocks of c vectors, c =
    ceil(probes / n): circle j takes u from the first and v from the
    second.  Per circle, Gram-Schmidt makes (u, v) orthonormal; row i's
    sign changes on the half-turn at atan2(-a_i, b_i) mod pi, with
    a = W u and b = W v; the n probes are cos t u + sin t v at the
    midpoints t of the arcs between the sorted boundaries, the last arc
    ending at the first boundary plus pi.  At d = 1 a circle is one draw
    and its probe is u.  A circle whose u or v has zero length gives n
    probes that count as skips.  The chunk is cut to its probe count,
    each probe is scaled to the unit sphere by its own length,
    multiplied by W^T and tested row by row against tau_sign; clean
    probes and their antipodes are recorded.  Sampling stops at
    ``budget`` probes or once ``target`` distinct vectors are seen (None:
    never early).  Returns (probes used, boundary skips, the set of sign
    tuples).
    """
    w = np.asarray(entries, dtype=np.float64)
    n, d = w.shape
    rng = np.random.default_rng(seed)
    per_circle = n if d > 1 else 1
    use_int_codes = n <= 62
    full_mask = (
        np.int64((1 << n) - 1)
        if use_int_codes
        else np.packbits(np.ones(n, dtype=bool))
    )
    seen: set = set()
    used = 0
    skips = 0
    bit_weights = (
        np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
        if use_int_codes
        else None
    )
    later = max(per_circle, min(1 << 15, (1 << 20) // n))
    while used < budget:
        chunk = min(later if used else per_circle, budget - used)
        draws = rng.standard_normal((min(d, 2), math.ceil(chunk / per_circle), d))
        circles = []
        for j in range(draws.shape[1]):
            u = draws[0, j] / np.linalg.norm(draws[0, j])
            if d == 1:
                circles.append(u[None, :])
                continue
            v = draws[1, j] - (draws[1, j] @ u) * u
            v = v / np.linalg.norm(v)
            if not (np.isfinite(u).all() and np.isfinite(v).all()):
                circles.append(np.full((n, d), np.nan))
                continue
            a, b = w @ u, w @ v
            starts = sorted(math.atan2(-a[i], b[i]) % math.pi for i in range(n))
            ends = starts[1:] + [starts[0] + math.pi]
            mids = np.array([(s + e) / 2 for s, e in zip(starts, ends)])
            circles.append(np.cos(mids)[:, None] * u + np.sin(mids)[:, None] * v)
        probes = np.concatenate(circles)[:chunk]
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        logits = probes @ w.T
        # A nan probe, from a zero-length u or v, fails every test.
        clean = (np.abs(logits) >= tau_sign).all(axis=1)
        used += chunk
        skips += int(chunk - np.count_nonzero(clean))
        positive = logits > 0.0
        if use_int_codes:
            codes = np.unique((positive.astype(np.int64) @ bit_weights)[clean])
            seen.update(codes.tolist())
            seen.update((codes ^ full_mask).tolist())
        else:
            codes = np.unique(np.packbits(positive, axis=1)[clean], axis=0)
            seen.update(row.tobytes() for row in codes)
            seen.update(row.tobytes() for row in codes ^ full_mask)
        if target is not None and len(seen) >= target:
            break
    members = set()
    for code in seen:
        if use_int_codes:
            bits = [(int(code) >> i) & 1 for i in range(n)]
        else:
            bits = np.unpackbits(np.frombuffer(code, dtype=np.uint8), count=n)
        members.add(tuple(1 if bit else -1 for bit in bits))
    return used, skips, members


def reference_planar_regions(entries) -> set:
    """The 2n sign tuples of a planar layer in general position, by
    walking its boundary directions: row i's line meets the unit circle
    at its normal's angle +-pi/2, and the midpoint of each arc between
    neighbouring boundaries lies in one region."""
    w = np.asarray(entries, dtype=np.float64)
    normals = [math.atan2(row[1], row[0]) for row in w]
    bounds = sorted(
        (phi + side * math.pi / 2) % (2 * math.pi)
        for phi in normals
        for side in (1, -1)
    )
    regions = set()
    for start, end in zip(bounds, bounds[1:] + [bounds[0] + 2 * math.pi]):
        mid = (start + end) / 2
        logits = w @ np.array([math.cos(mid), math.sin(mid)])
        assert np.all(logits != 0.0), "a boundary midpoint on a line"
        regions.add(tuple(1 if v > 0 else -1 for v in logits))
    return regions


def reference_from_dense(text: str):
    """``LabelAssignment.from_dense`` one character at a time, as it was
    written before its numpy pass: the signs as a list, or the text of
    the ValueError."""
    if not text:
        return "dense form must be non-empty"
    signs = []
    for i, ch in enumerate(text):
        if ch == "+":
            signs.append(1)
        elif ch in ("-", "−"):
            signs.append(-1)
        else:
            return f"illegal character {ch!r} at position {i + 1}"
    return signs


def reference_dense_line(path: str, line: str, line_no: int, expected_n):
    """The label parser's dense line, one character at a time, as it was
    written before its numpy pass: the signs as a list, or the text of the
    ParseError (path:line:column: message)."""
    indent = len(line) - len(line.lstrip())
    line = line.strip()
    for col_no, ch in enumerate(line, start=indent + 1):
        if ch not in ("+", "-", "−"):
            hint = " (sparse files need an n=<count> header line)" if ch.isdigit() else ""
            return (
                f"{path}:{line_no}:{col_no}: "
                f"illegal character {ch!r} in dense assignment{hint}"
            )
    if expected_n is not None and len(line) != expected_n:
        return f"{path}:{line_no}: assignment has {len(line)} labels, expected {expected_n}"
    return reference_from_dense(line)
