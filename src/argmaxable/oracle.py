"""Brute-force enumeration of achievable sign vectors, independent of the LP.

The n rows of W cut R^d into open sign regions; this module recovers the
achievable set A(W) = {sign(Wx)} by geometry alone so it can sit in
judgment over the LP verifier.  It samples along random great circles,
with the region count formula as a termination certificate.  A central
arrangement of n hyperplanes in R^d has at most cover_count(n, d)
regions, reached in general position (Cover, IEEE Trans. Electron.
Comput. 14, 1965; Zaslavsky, Mem. AMS 154, 1975).  A recorded sign
vector is that of a unit probe whose every computed |logit| is at least
tau_sign, so it names an open region, and so does its antipode; so the
members never exceed the count, and once they reach it the set is
provably complete, for any W.  Budget exhaustion yields an explicitly
partial result, never an error.  Budgets and counts are in probes.

The probes.  Each circle is spanned by an orthonormal pair (u, v) from
two Gaussian draws, so it is a uniformly random great circle.  Along
x(t) = cos t u + sin t v row i's logit is a_i cos t + b_i sin t (a = W u,
b = W v), which changes sign once per half-turn, so the n boundaries
cut [0, pi) into n arcs, each inside one region.  The probes are the
arc midpoints, one per arc, the last arc wrapping around by pi: a
half-turn gives n probes in n distinct regions, and their antipodes
cover the other half.  A uniform point lands in a region of angular
radius r with probability of order r^(d-1), but a uniform great circle
meets it with probability of order r^(d-2) (the spherical Crofton
formula; Santalo, Integral Geometry and Geometric Probability, 1976),
so the smallest regions, which set the run time, are reached far
sooner.  At d = 1 there is no second direction: each draw is one
probe, +-1.  At d = 2 one circle is the whole plane: its n probes and
their antipodes are all 2n regions, so the first chunk is one circle
(one probe at d = 1).  Later chunks hold 2^15 probes, fewer where that
would pass about 2^20 logits, but never less than one circle.

Soundness does not rest on the walk.  Each probe is divided by its
own computed length, and its logits are cos t a + sin t b, which is
W x for that unit x up to a few roundings of |a_i| + |b_i| <= 2 ||w_i||,
the same order as a direct product's.  The tau_sign test then decides
whether the probe is recorded; a probe that missed its arc's midpoint
through rounding still records the region it lies in.  nan logits,
from a zero-length u or v, fail the test and count as skips.

Members come closed under global sign flip by construction: the
arrangement is central, so sign(W(-x)) = -sign(Wx).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Iterator

import numpy as np

from . import DEFAULT_SAMPLE_BUDGET
from .labelspace import LabelAssignment, cover_count
# is_general_position is not called here; it stays importable from this
# module because bench/tracing.py wraps it by name.
from .linalg import (  # noqa: F401
    DEFAULT_TAU_SIGN,
    WeightMatrix,
    is_general_position,
)

__all__ = [
    "EnumerationMethod",
    "RegionSet",
    "enumerate_regions_sampled",
    "DEFAULT_SAMPLE_BUDGET",
]

_SAMPLE_CHUNK = 1 << 15
# A chunk past one circle is cut to about this many logits.
_CHUNK_LOGITS = 1 << 20


class EnumerationMethod(Enum):
    SAMPLED_COMPLETE = "sampled-complete"
    SAMPLED_PARTIAL = "sampled-partial"


@dataclass(frozen=True, eq=False)
class RegionSet:
    """A set of achievable sign vectors with its provenance.

    ``codes`` holds each member's ``np.packbits`` row, bit 1 for a minus
    sign, zero-padded to 8 bytes up to 64 labels.  The rows ascend as
    byte strings, the order of the dense strings ('+' before '−').
    ``method`` says whether the set is complete: sampling that hit the
    region-count certificate is; a partial set is still sound (every
    member was witnessed by a concrete x) but may miss regions.
    samples_used counts examined probes (arc midpoints of random great
    circles, see the module docstring); boundary_skips the probes
    discarded for landing numerically on a hyperplane.
    """

    n: int
    d: int
    codes: np.ndarray
    method: EnumerationMethod
    samples_used: int = 0
    boundary_skips: int = 0

    def bit_blocks(self) -> Iterator[np.ndarray]:
        """The members in order, as (rows, n) 0/1 blocks of about
        ``_CHUNK_LOGITS`` labels, 1 for a minus sign."""
        step = max(1, _CHUNK_LOGITS // self.n)
        for start in range(0, len(self.codes), step):
            yield np.unpackbits(self.codes[start : start + step], axis=1, count=self.n)

    @property
    def members(self) -> FrozenSet[LabelAssignment]:
        """The members as assignments, decoded from ``codes`` on each read."""
        signs = (np.where(b, np.int8(-1), np.int8(1)) for b in self.bit_blocks())
        return frozenset(LabelAssignment(row) for block in signs for row in block)


def _dots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (rows, d) arrays, as a column."""
    return np.einsum("ij,ij->i", p, q)[:, None]


def _walk_logits(
    rng: np.random.Generator, transpose: np.ndarray, chunk: int, out: np.ndarray
) -> np.ndarray:
    """The logits of one chunk's ``chunk`` probes, written into ``out``.

    Circles of n probes each (one at d = 1), the last cut to the chunk;
    see the module docstring.  Row i's boundary on the half-turn is at
    atan2(-a_i, b_i) mod pi.
    """
    d, n = transpose.shape
    per_circle = n if d > 1 else 1
    circles = -(-chunk // per_circle)
    # Draw k of every circle in one contiguous block, so that a and b are.
    draws = rng.standard_normal((min(d, 2), circles, d))
    with np.errstate(invalid="ignore", divide="ignore"):
        u = draws[0]
        u /= np.sqrt(_dots(u, u))
        if d == 1:
            return np.matmul(u, transpose, out=out[:chunk])
        v = draws[1]
        v -= _dots(v, u) * u
        v /= np.sqrt(_dots(v, v))
        ab = (draws.reshape(-1, d) @ transpose).reshape(2, circles, n)
        uu, uv, vv = _dots(u, u), _dots(u, v), _dots(v, v)
        del u, v, draws
        # The logits' buffer is free until the product fills it, and its
        # n floats per probe leave room for one: it takes the sorted
        # boundaries and then the length terms.
        starts = out.reshape(-1)[: circles * n].reshape(circles, n)
        # atan2(-a, b) = -atan2(a, b), and mod pi adds pi to the negatives.
        np.arctan2(ab[0], ab[1], out=starts)
        np.subtract(np.where(starts > 0.0, np.pi, 0.0), starts, out=starts)
        starts.sort(axis=1)
        # The arc midpoints pass through the sines' rows on the way.
        trig = np.empty((2, circles, n))
        cos, sin = trig
        np.add(starts[:, :-1], starts[:, 1:], out=sin[:, :-1])
        np.add(starts[:, -1], starts[:, 0] + np.pi, out=sin[:, -1])
        sin *= 0.5
        np.cos(sin, out=cos)
        np.sin(sin, out=sin)
        # |cos t u + sin t v|^2 = cos (cos uu + 2 sin uv) + sin^2 vv.
        lengths = cos * uu
        lengths += np.multiply(sin, 2.0 * uv, out=starts)
        lengths *= cos
        np.multiply(sin, vv, out=starts)
        lengths += np.multiply(starts, sin, out=starts)
        del starts
        np.sqrt(lengths, out=lengths)
        trig /= lengths
        del lengths
        logits = out[: circles * n].reshape(circles, n, n)
        np.matmul(trig.transpose(1, 2, 0), ab.transpose(1, 0, 2), out=logits)
    return out[:chunk]


def enumerate_regions_sampled(
    w: WeightMatrix,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> RegionSet:
    """Sampled region enumeration with a counting-certificate stop rule.

    Examines ``budget`` probes (arc midpoints of seeded great circles, see
    the module docstring) in chunks, the first one circle and the last
    cut to the budget, records the sign vector of each and of its
    antipode (free by central symmetry), and skips probes within
    tau_sign = ``DEFAULT_TAU_SIGN`` (read at call time) of a hyperplane.
    Every recorded vector and its antipode name open regions of W, so
    there are at most r(W) <= cover_count(n, d) of them (Zaslavsky 1975,
    see the module docstring).  Reaching that count is proof of
    completeness and stops sampling early; otherwise the result is
    SampledPartial however many members were found.  No minor scan is
    run: only a W in general position has that many regions.
    """
    n, d = w.n, w.d
    tau_sign = DEFAULT_TAU_SIGN
    target = cover_count(n, d)
    rng = np.random.default_rng(seed)
    # A code is the packbits row of a probe's signs, bit 1 for a minus,
    # or up to 64 labels that row read as a big-endian uint64.  XOR with
    # the n-bit mask gives the antipode's code.
    use_int_codes = n <= 64
    if use_int_codes:
        full_mask = np.uint64(((1 << n) - 1) << (64 - n))
        bit_weights = np.uint64(1) << np.arange(63, 63 - n, -1, dtype=np.uint64)
    else:
        full_mask = np.packbits(np.ones(n, dtype=bool))
    seen: set = set()
    used = 0
    skips = 0
    transpose = np.ascontiguousarray(w.entries.T)
    per_circle = n if d > 1 else 1
    chunk_size = max(per_circle, min(_SAMPLE_CHUNK, _CHUNK_LOGITS // n))
    # Every chunk's logits go into one buffer, which later takes the
    # chunk's signs as uint64, so a chunk holds one array of its size.
    # Freeing the logits per chunk instead measured slower.  The buffer
    # holds whole circles, so the last circle's probes past the cut fit.
    circles = -(-min(budget, chunk_size) // per_circle)
    buffer = np.empty((circles * per_circle, n))
    while used < budget:
        chunk = min(chunk_size if used else per_circle, budget - used)
        logits = _walk_logits(rng, transpose, chunk, buffer)
        used += chunk
        minus = logits <= 0.0
        # The signs are read, so |logits| can overwrite them.  np.min
        # passes a nan logit on, so its chunk takes the mask, which skips
        # it.
        np.abs(logits, out=logits)
        if not logits.min() >= tau_sign:
            clean = (logits >= tau_sign).all(axis=1)
            skips += int(chunk - np.count_nonzero(clean))
            minus = minus[clean]
        # Most probes of a chunk repeat a region, so dedupe in numpy
        # before the Python set: sort in place and keep each code that
        # differs from its left neighbour (np.unique, on numpy >= 2.3,
        # hashes integer codes, several times slower per chunk).
        if use_int_codes:
            # The product is read, so its memory takes the signs as uint64.
            signs = logits.view(np.uint64)[: len(minus)]
            np.copyto(signs, minus)
            # Dropped now, so the next chunk's walk does not hold it too.
            del minus
            codes = signs @ bit_weights
            codes.sort()
            first = np.ones(codes.size, dtype=bool)
            np.not_equal(codes[1:], codes[:-1], out=first[1:])
            codes = codes[first]
            seen.update(codes.tolist())
            seen.update((codes ^ full_mask).tolist())
        else:
            codes = np.unique(np.packbits(minus, axis=1), axis=0)
            seen.update(row.tobytes() for row in codes)
            seen.update(row.tobytes() for row in codes ^ full_mask)
        if len(seen) >= target:
            break
    if use_int_codes:
        codes = np.sort(np.fromiter(seen, dtype=np.uint64, count=len(seen)))
        codes = codes.astype(">u8").view(np.uint8).reshape(-1, 8)
    else:
        # Byte rows sort as memcmp compares them, label 1 first.
        codes = np.frombuffer(bytearray().join(seen), dtype=np.uint8)
        codes = codes.reshape(-1, full_mask.size)
        codes.view(f"V{full_mask.size}").ravel().sort()
    return RegionSet(
        n=n,
        d=d,
        codes=codes,
        method=(
            EnumerationMethod.SAMPLED_COMPLETE
            if len(codes) == target
            else EnumerationMethod.SAMPLED_PARTIAL
        ),
        samples_used=used,
        boundary_skips=skips,
    )
