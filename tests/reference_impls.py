"""Deliberately naive reference implementations used as test oracles.

Everything here trades speed for obviousness and shares no code with the
package: determinants by cofactor expansion, the minor scan one subset
at a time, sign-vector families by filtering all 2^n strings, ranked
metrics by explicit sorting loops.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion on a list of lists."""
    size = len(rows)
    assert all(len(r) == size for r in rows)
    if size == 1:
        return rows[0][0]
    total = 0.0
    for j in range(size):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1.0 if j % 2 else 1.0
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
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, label in enumerate(top, start=1)
        if label in gold_active
    )
    ideal = sum(
        1.0 / math.log2(rank + 1)
        for rank in range(1, min(k, len(gold_active)) + 1)
    )
    return dcg / ideal


def reference_minor_scan(entries, tau_det: float = 1e-10):
    """The all-minors sign scan, one subset at a time.

    Index sets come from itertools in colexicographic order (sorted by
    their reversed tuple), each minor is a scalar determinant, and each is
    compared against tau_det times the product of the selected row norms.
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
        if abs(det) < tau_det * float(np.prod(norms[list(s)])):
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
