"""Brute-force enumeration of achievable sign vectors, independent of the LP.

The n rows of W cut R^d into open sign regions; this module recovers the
achievable set A(W) = {sign(Wx)} by geometry alone so it can sit in
judgment over the LP verifier.  Two routes:

* d = 2: exact.  Each row contributes two boundary directions at +-90
  degrees from its normal; walking the sorted boundary angles around the
  unit circle visits every region exactly once.  Directions closer than
  ``_TAU_ANGLE`` radians count as coincident and are refused.
* any d: sampled.  Uniform unit-sphere directions, with the region count
  formula as a termination certificate.  A central arrangement of n
  hyperplanes in R^d has at most cover_count(n, d) regions, reached in
  general position (Cover, IEEE Trans. Electron. Comput. 14, 1965;
  Zaslavsky, Mem. AMS 154, 1975).  A recorded sign vector is that of a
  probe whose every |logit| is at least tau_sign, so it names an open
  region, and so does its antipode; so the members never exceed the
  count, and once they reach it the set is provably complete, for any W.
  Budget exhaustion yields an explicitly partial result, never an
  error.  Each Gaussian draw x gives m = min(2^(d-1), 16) probes D_p x,
  D_p diagonal +-1 keeping coordinate 0 and flipping coordinate j + 1
  when bit j of p is set.  Each D_p x is N(0, I) like x
  (antithetic variates, Hammersley & Morton 1956), and one product with
  [D_1 W^T | ... | D_m W^T] gives all m probes' logits, so the generator
  costs a draw per m probes.  Budgets and counts are in probes.

Members come closed under global sign flip by construction: the
arrangement is central, so sign(W(-x)) = -sign(Wx).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet

import numpy as np

from .labelspace import LabelAssignment, cover_count
# is_general_position is not called here; it stays importable from this
# module because bench/tracing.py wraps it by name.
from .linalg import (  # noqa: F401
    DEFAULT_TAU_SIGN,
    BoundaryError,
    WeightMatrix,
    is_general_position,
    sign_vector,
)

__all__ = [
    "DegeneracyError",
    "EnumerationMethod",
    "RegionSet",
    "enumerate_regions_2d",
    "enumerate_regions_sampled",
    "DEFAULT_SAMPLE_BUDGET",
]

DEFAULT_SAMPLE_BUDGET = 10**7
_SAMPLE_CHUNK = 1 << 15
# Sign patterns per draw are 2^min(d - 1, 4): at most 16 probes share one.
_FLIP_BITS = 4
# Boundary angles of the 2D walk closer than this count as coincident.
_TAU_ANGLE = 1e-12


class DegeneracyError(Exception):
    """The 2D walk found (near-)collinear rows, so sectors are not well
    separated and the exact enumeration refuses to guess."""


class EnumerationMethod(Enum):
    EXACT_2D = "exact-2d"
    SAMPLED_COMPLETE = "sampled-complete"
    SAMPLED_PARTIAL = "sampled-partial"


@dataclass(frozen=True)
class RegionSet:
    """A set of achievable sign vectors with its provenance.

    ``method`` says whether the set is complete: the exact walk and
    sampling that hit the region-count certificate are; a partial set is
    still sound (every member was witnessed by a concrete x) but may miss
    regions.  samples_used counts examined probes (sign-flipped draws,
    see the module docstring); boundary_skips the probes discarded for
    landing numerically on a hyperplane.
    """

    n: int
    d: int
    members: FrozenSet[LabelAssignment]
    method: EnumerationMethod
    samples_used: int = 0
    boundary_skips: int = 0


def enumerate_regions_2d(w: WeightMatrix) -> RegionSet:
    """Exact region enumeration for d = 2 by walking boundary angles.

    Row i's hyperplane meets the unit circle at the two directions
    orthogonal to its normal; collecting all 2n such angles, sorting them,
    and evaluating the sign vector at each sector midpoint yields each of
    the 2n regions exactly once.  Raises DegeneracyError when two
    boundary angles lie within ``_TAU_ANGLE`` radians, which happens iff
    two rows are (near-)collinear, or when a midpoint's sign vector is
    not clean under ``DEFAULT_TAU_SIGN``.
    """
    if w.d != 2:
        raise ValueError(f"exact walk needs d = 2, got d = {w.d}")
    normals = np.arctan2(w.entries[:, 1], w.entries[:, 0])
    boundaries = np.concatenate([normals + np.pi / 2, normals - np.pi / 2])
    boundaries = np.mod(boundaries, 2 * np.pi)
    order = np.sort(boundaries)
    gaps = np.diff(order, append=order[0] + 2 * np.pi)
    if float(np.min(gaps)) < _TAU_ANGLE:
        raise DegeneracyError("collinear rows: coincident boundary directions")
    midpoints = order + gaps / 2.0
    members = set()
    for phi in midpoints:
        direction = np.array([math.cos(phi), math.sin(phi)])
        try:
            members.add(sign_vector(w, direction))
        except BoundaryError as exc:
            raise DegeneracyError(
                f"sector midpoint at angle {phi:.6f} has no clean sign vector"
            ) from exc
    if len(members) != 2 * w.n:
        raise DegeneracyError(
            f"walk found {len(members)} regions, expected {2 * w.n}"
        )
    return RegionSet(
        n=w.n, d=2, members=frozenset(members), method=EnumerationMethod.EXACT_2D
    )


def _assignments(bits: np.ndarray) -> list[LabelAssignment]:
    """One assignment per row of a (rows, n) 0/1 array: bit 1 is +1."""
    signs = np.where(bits, 1, -1).astype(np.int8)
    return [LabelAssignment(row) for row in signs]


def enumerate_regions_sampled(
    w: WeightMatrix,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> RegionSet:
    """Sampled region enumeration with a counting-certificate stop rule.

    Examines ``budget`` sphere directions (seeded probes, see the module
    docstring) in chunks of 2^15, the last cut to the budget, records the
    sign vector of each and of its antipode (free by central symmetry),
    and skips probes within tau_sign = ``DEFAULT_TAU_SIGN`` (read at call
    time) of a hyperplane.  Every recorded vector and its antipode name
    open regions of W, so there are at most r(W) <= cover_count(n, d) of
    them (Zaslavsky 1975, see the module docstring).  Reaching that count
    is proof of completeness and stops sampling early; otherwise the
    result is SampledPartial however many members were found.  No minor
    scan is run: only a W in general position has that many regions.
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
    # Row p of `flips` is the diagonal of D_p, and block p of `stacked` is
    # D_p W^T: a draw's row of the product holds its probes' logits in turn.
    flip_bits = min(d - 1, _FLIP_BITS)
    patterns = 1 << flip_bits
    flips = np.ones((patterns, d))
    flipped = np.arange(patterns)[:, None] >> np.arange(flip_bits) & 1
    flips[:, 1 : 1 + flip_bits] -= 2 * flipped
    stacked = (flips[:, :, None] * w.entries.T).transpose(1, 0, 2).reshape(d, -1)
    bit_weights = (
        np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
        if use_int_codes
        else None
    )
    # Every chunk's product goes into one buffer, which later takes the
    # chunk's signs as int64, so a chunk holds one array of its size.
    # Freeing the product per chunk instead measured slower.
    buffer = np.empty((-(-min(budget, _SAMPLE_CHUNK) // patterns), patterns * n))
    while used < budget:
        chunk = min(_SAMPLE_CHUNK, budget - used)
        draws = rng.standard_normal((-(-chunk // patterns), d))
        used += chunk
        # ||D_p x|| = ||x||, so one division normalises all m probes.
        lengths = np.linalg.norm(draws, axis=1, keepdims=True)
        good_length = lengths[:, 0] > 0.0
        lengths[~good_length] = 1.0
        draws /= lengths
        product = np.matmul(draws, stacked, out=buffer[: len(draws)])
        logits = product.reshape(-1, n)[:chunk]
        positive = logits > 0.0
        # The signs are read, so |logits| can overwrite them.  np.min
        # passes a nan logit on, so its chunk takes the mask, which skips
        # it.
        np.abs(logits, out=logits)
        if not (good_length.all() and float(logits.min()) >= tau_sign):
            clean = np.repeat(good_length, patterns)[:chunk]
            clean &= (logits >= tau_sign).all(axis=1)
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
    if use_int_codes:
        codes = np.fromiter(seen, dtype=np.int64, count=len(seen))
        bits = (codes[:, None] >> np.arange(n)) & 1
    else:
        blobs = np.frombuffer(b"".join(seen), dtype=np.uint8)
        rows = blobs.reshape(len(seen), (n + 7) // 8)
        bits = np.unpackbits(rows, axis=1, count=n)
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
