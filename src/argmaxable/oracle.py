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
sooner.  At d = 2 one circle is the whole plane: its n probes and
their antipodes are all 2n regions.  At d = 1 there is no second
direction: each draw is one probe, +-1.

The first chunk is one circle (one probe at d = 1), so a planar layer
in general position is complete after its n probes.  Later chunks hold
2^15 probes, fewer where that would pass about 2^20 logits, but never
less than one circle.

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
from typing import FrozenSet

import numpy as np

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

DEFAULT_SAMPLE_BUDGET = 10**7
_SAMPLE_CHUNK = 1 << 15
# A chunk past one circle is cut to about this many logits.
_CHUNK_LOGITS = 1 << 20


class EnumerationMethod(Enum):
    SAMPLED_COMPLETE = "sampled-complete"
    SAMPLED_PARTIAL = "sampled-partial"


@dataclass(frozen=True)
class RegionSet:
    """A set of achievable sign vectors with its provenance.

    ``method`` says whether the set is complete: sampling that hit the
    region-count certificate is; a partial set is still sound (every
    member was witnessed by a concrete x) but may miss regions.
    samples_used counts examined probes (arc midpoints of random great
    circles, see the module docstring); boundary_skips the probes
    discarded for landing numerically on a hyperplane.
    """

    n: int
    d: int
    members: FrozenSet[LabelAssignment]
    method: EnumerationMethod
    samples_used: int = 0
    boundary_skips: int = 0


def _assignments(bits: np.ndarray) -> list[LabelAssignment]:
    """One assignment per row of a (rows, n) 0/1 array: bit 1 is +1."""
    signs = np.where(bits, np.int8(1), np.int8(-1))
    return [LabelAssignment(row) for row in signs]


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
    use_int_codes = n <= 62
    # XOR with the n-bit mask gives the antipode's code; the packbits
    # padding bits stay zero.
    full_mask = (
        np.int64((1 << n) - 1)
        if use_int_codes
        else np.packbits(np.ones(n, dtype=bool))
    )
    seen: set = set()
    used = 0
    skips = 0
    transpose = np.ascontiguousarray(w.entries.T)
    bit_weights = (
        np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
        if use_int_codes
        else None
    )
    per_circle = n if d > 1 else 1
    chunk_size = max(per_circle, min(_SAMPLE_CHUNK, _CHUNK_LOGITS // n))
    # Every chunk's logits go into one buffer, which later takes the
    # chunk's signs as int64, so a chunk holds one array of its size.
    # Freeing the logits per chunk instead measured slower.  The buffer
    # holds whole circles, so the last circle's probes past the cut fit.
    circles = -(-min(budget, chunk_size) // per_circle)
    buffer = np.empty((circles * per_circle, n))
    while used < budget:
        chunk = min(chunk_size if used else per_circle, budget - used)
        logits = _walk_logits(rng, transpose, chunk, buffer)
        used += chunk
        positive = logits > 0.0
        # The signs are read, so |logits| can overwrite them.  np.min
        # passes a nan logit on, so its chunk takes the mask, which skips
        # it.
        np.abs(logits, out=logits)
        if not logits.min() >= tau_sign:
            clean = (logits >= tau_sign).all(axis=1)
            skips += int(chunk - np.count_nonzero(clean))
            positive = positive[clean]
        # Most probes of a chunk repeat a region, so dedupe in numpy
        # before anything reaches the Python set.  The codes are sorted
        # in place and each is kept where it differs from its left
        # neighbour: np.unique gives the same output, but on numpy >=
        # 2.3 it hashes int64 codes, several times slower per chunk.
        if use_int_codes:
            # The product is read, so its memory takes the signs as int64.
            signs = logits.view(np.int64)[: len(positive)]
            np.copyto(signs, positive)
            # Dropped now, so the next chunk's walk does not hold it too.
            del positive
            codes = signs @ bit_weights
            codes.sort()
            first = np.ones(codes.size, dtype=bool)
            np.not_equal(codes[1:], codes[:-1], out=first[1:])
            codes = codes[first]
            seen.update(codes.tolist())
            seen.update((codes ^ full_mask).tolist())
        else:
            codes = np.unique(np.packbits(positive, axis=1), axis=0)
            seen.update(row.tobytes() for row in codes)
            seen.update(row.tobytes() for row in codes ^ full_mask)
        if len(seen) >= target:
            break
    # Both codes unpack to one byte per label: an int64 code's bit i,
    # label i, is bit i % 8 of its little-endian byte i // 8.
    if use_int_codes:
        codes = np.fromiter(seen, dtype="<i8", count=len(seen))
        rows, order = codes.view(np.uint8).reshape(len(seen), 8), "little"
    else:
        blobs = np.frombuffer(b"".join(seen), dtype=np.uint8)
        rows, order = blobs.reshape(len(seen), (n + 7) // 8), "big"
    bits = np.unpackbits(rows, axis=1, count=n, bitorder=order)
    members = frozenset(_assignments(bits))
    return RegionSet(
        n=n,
        d=d,
        members=members,
        method=(
            EnumerationMethod.SAMPLED_COMPLETE
            if len(members) == target
            else EnumerationMethod.SAMPLED_PARTIAL
        ),
        samples_used=used,
        boundary_skips=skips,
    )
