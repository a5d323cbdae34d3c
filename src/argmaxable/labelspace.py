"""Sign vectors over n labels and the structured families used throughout.

A complete assignment of n binary labels is a sign vector y in {+1, -1}^n:
+1 marks a label active, -1 inactive.  Two statistics drive everything else:

* act(y)  -- number of active labels,
* alt(y)  -- number of adjacent sign changes when y is read left to right.

The two families of interest collect the assignments with small statistics:

* Active family A(n, k):       all y with act(y) <= k,
* Alternating family V(n, k):  all y with alt(y) <= k.

Their cardinalities are partial binomial sums, and the alternating count
with k = d - 1 equals the number of sign regions a generic n x d matrix
cuts out of R^d (``cover_count``).  Counts are exact big integers; they
must never overflow, so everything is computed with Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from . import DEFAULT_ENUMERATION_BUDGET

__all__ = [
    "LabelAssignment",
    "FamilyKind",
    "FamilySpec",
    "EnumerationBudgetError",
    "act",
    "alt",
    "enumerate_family",
    "count_family",
    "cover_count",
    "DEFAULT_ENUMERATION_BUDGET",
]

# Canonical dense form uses the typographic minus so that '+' and the minus
# glyph have the same visual width; plain ASCII '-' is accepted on input.
PLUS_CHAR = "+"
MINUS_CHAR = "−"


def dense_signs(text: str) -> np.ndarray:
    """int8 signs of a dense string: 1 for '+', -1 for either minus, else 0."""
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    minus = (codes == ord("-")) | (codes == ord(MINUS_CHAR))
    return (codes == ord(PLUS_CHAR)).astype(np.int8) - minus


def dense_strings(minus: np.ndarray) -> list[str]:
    """The dense strings of the rows of a (rows, n) 0/1 array, 1 for a minus.

    Each row becomes n UTF-32 code points, which numpy reads back as one
    fixed-width string."""
    points = np.where(minus, np.uint32(ord(MINUS_CHAR)), np.uint32(ord(PLUS_CHAR)))
    return points.view(np.dtype((np.str_, minus.shape[1]))).ravel().tolist()


class EnumerationBudgetError(ValueError):
    """Raised when a family is too large to stream under the given budget."""


@dataclass(frozen=True, eq=False)
class LabelAssignment:
    """An immutable sign vector in {+1, -1}^n, one entry per label.

    Labels are indexed 1..n in all human-facing forms (dense strings,
    sparse index lists); internally the signs live in a read-only int8
    array.  Instances hash and compare by value, so they can be collected
    in sets and used as dict keys.
    """

    signs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.signs, dtype=np.int8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("signs must be a non-empty 1-d sequence")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("signs must contain only +1 and -1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "signs", arr)

    @property
    def n(self) -> int:
        return int(self.signs.size)

    @classmethod
    def from_dense(cls, text: str) -> "LabelAssignment":
        """Parse a dense string like '+--+' ('-' or the minus glyph)."""
        if not text:
            raise ValueError("dense form must be non-empty")
        signs = dense_signs(text)
        if not signs.all():
            i = int(np.argmin(signs != 0))
            raise ValueError(f"illegal character {text[i]!r} at position {i + 1}")
        return cls(signs)

    @classmethod
    def from_active(cls, n: int, active: Iterable[int]) -> "LabelAssignment":
        """Build from 1-based indices of the active labels."""
        if n < 1:
            raise ValueError("n must be >= 1")
        signs = np.full(n, -1, dtype=np.int8)
        for idx in active:
            if not 1 <= idx <= n:
                raise ValueError(f"active index {idx} outside 1..{n}")
            signs[idx - 1] = 1
        return cls(signs)

    def to_dense(self) -> str:
        return dense_strings(self.signs[None, :] < 0)[0]

    def flip(self) -> "LabelAssignment":
        """The antipodal assignment -y."""
        return LabelAssignment(-self.signs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelAssignment):
            return NotImplemented
        return self.signs.shape == other.signs.shape and bool(
            np.array_equal(self.signs, other.signs)
        )

    def __hash__(self) -> int:
        return hash(self.signs.tobytes())

    def __repr__(self) -> str:
        return f"LabelAssignment({self.to_dense()!r})"


def act(y: LabelAssignment) -> int:
    """Number of active (+1) labels."""
    return int(np.count_nonzero(y.signs > 0))


def alt(y: LabelAssignment) -> int:
    """Number of adjacent sign changes, 0 <= alt(y) <= n - 1."""
    s = y.signs
    return int(np.count_nonzero(s[1:] != s[:-1]))


class FamilyKind(Enum):
    ACTIVE = "active"
    ALTERNATING = "alternating"


@dataclass(frozen=True)
class FamilySpec:
    """A family of assignments: all y over n labels with the chosen
    statistic (act or alt) at most k."""

    n: int
    k: int
    kind: FamilyKind

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        limit = self.n if self.kind is FamilyKind.ACTIVE else self.n - 1
        if self.k > limit:
            raise ValueError(
                f"k={self.k} exceeds the maximum {self.kind.value} statistic "
                f"{limit} for n={self.n}"
            )


def _partial_binomial_sum(m: int, k: int) -> int:
    """sum_{j=0}^{k} C(m, j), exact, via the running-term recurrence."""
    total = 0
    term = 1  # C(m, 0)
    for j in range(min(k, m) + 1):
        total += term
        term = term * (m - j) // (j + 1)
    return total


def count_family(spec: FamilySpec) -> int:
    """Exact cardinality of the family, as a Python int.

    Active:       sum_{j<=k} C(n, j).
    Alternating:  2 * sum_{j<=k} C(n-1, j)  (flip positions times the
                  sign of the first entry).
    """
    if spec.kind is FamilyKind.ACTIVE:
        return _partial_binomial_sum(spec.n, spec.k)
    return 2 * _partial_binomial_sum(spec.n - 1, spec.k)


def cover_count(n: int, d: int) -> int:
    """Number of sign regions induced by n hyperplanes through the origin
    in general position in R^d: 2 * sum_{j=0}^{d-1} C(n-1, j).

    Saturates at 2**n once d >= n (every sign vector becomes feasible).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    return 2 * _partial_binomial_sum(n - 1, d - 1)


def enumerate_family(
    spec: FamilySpec,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[LabelAssignment]:
    """Stream every member of the family exactly once, in a fixed order.

    Active order: ascending act, then active index sets in lexicographic
    order.  Alternating order: ascending alt, then flip positions (the
    1-based boundaries i where y_i != y_{i+1}) in lexicographic order,
    with the first-entry sign minus before plus.

    Raises EnumerationBudgetError up front if the family cardinality
    exceeds ``budget``; the message names both numbers.
    """
    total = count_family(spec)
    if total > budget:
        raise EnumerationBudgetError(
            f"family has {total} members, over the enumeration budget {budget}"
        )
    if spec.kind is FamilyKind.ACTIVE:
        return _enumerate_active(spec.n, spec.k)
    return _enumerate_alternating(spec.n, spec.k)


def _enumerate_active(n: int, k: int) -> Iterator[LabelAssignment]:
    for j in range(k + 1):
        for active in combinations(range(1, n + 1), j):
            yield LabelAssignment.from_active(n, active)


def _enumerate_alternating(n: int, k: int) -> Iterator[LabelAssignment]:
    for j in range(k + 1):
        for flips in combinations(range(1, n), j):
            for first in (-1, 1):
                yield _from_flips(n, first, flips)


def _from_flips(n: int, first: int, flips: tuple[int, ...]) -> LabelAssignment:
    """Assignment with given first sign and sign changes exactly at the
    1-based boundaries in ``flips`` (boundary i sits between y_i and
    y_{i+1})."""
    steps = np.ones(n, dtype=np.int8)
    for b in flips:
        steps[b] = -1
    signs = first * np.cumprod(steps, dtype=np.int8)
    return LabelAssignment(signs)
