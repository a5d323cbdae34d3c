"""Brute-force enumeration of achievable sign vectors, independent of the LP.

The n rows of W cut R^d into open sign regions; this module recovers the
achievable set A(W) = {sign(Wx)} by geometry alone so it can sit in
judgment over the LP verifier.  Two routes:

* d = 2: exact.  Each row contributes two boundary directions at +-90
  degrees from its normal; walking the sorted boundary angles around the
  unit circle visits every region exactly once.  Directions closer than
  ``_TAU_ANGLE`` radians count as coincident and are refused.
* any d: sampled.  Uniform unit-sphere directions, with the region count
  formula as a termination certificate: once the distinct sign vectors
  hit cover_count(n, d) (valid for general-position W), the set is
  provably complete.  Budget exhaustion yields an explicitly partial
  result, never an error.  Each Gaussian draw x gives m = min(2^(d-1),
  16) probes D_p x, D_p diagonal +-1 keeping coordinate 0 and flipping
  coordinate j + 1 when bit j of p is set.  Each D_p x is N(0, I) like x
  (antithetic variates, Hammersley & Morton 1956), and one product with
  [D_1 W^T | ... | D_m W^T] gives all m probes' logits, so the generator
  costs a draw per m probes.  Budgets and counts are in probes.

Most chunks of probes are never normalised.  With u = 2^-53 and M the
largest |entry| of a chunk's draws, the raw product of the chunk with
W^T has the sign pattern of the normalised logits, and every normalised
logit clears tau_sign = ``DEFAULT_TAU_SIGN``, whenever

    min |raw| > sqrt(d) * (tau_sign + 4 (d + 2) u max_i ||w_i||) * M

(a rounding bound, derived at ``_guard_factor``).  Such a chunk records
the same vectors with no boundary skips; a chunk that misses the bound is
normalised and tested probe by probe.

Members come closed under global sign flip by construction: the
arrangement is central, so sign(W(-x)) = -sign(Wx).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Optional

import numpy as np

from .labelspace import LabelAssignment, cover_count
from .linalg import (
    DEFAULT_TAU_SIGN,
    BoundaryError,
    MinorBudgetError,
    WeightMatrix,
    is_general_position,
    sign_vector,
)
from .verifier import LpConfig, VerifyStatus, _lp_results

__all__ = [
    "DegeneracyError",
    "EnumerationMethod",
    "RegionSet",
    "CrossCheckReport",
    "enumerate_regions_2d",
    "enumerate_regions_sampled",
    "cross_check",
    "DEFAULT_SAMPLE_BUDGET",
]

DEFAULT_SAMPLE_BUDGET = 10**7
_SAMPLE_CHUNK = 1 << 15
# Sign patterns per draw are 2^min(d - 1, 4): at most 16 probes share one.
_FLIP_BITS = 4
# Boundary angles of the 2D walk closer than this count as coincident.
_TAU_ANGLE = 1e-12
_UNIT_ROUNDOFF = 2.0**-53
# Scales of max_i ||w_i|| and of a chunk's largest draw inside which the
# guard needs no overflow or underflow clause of its own.
_GUARD_LOW, _GUARD_HIGH = 2.0**-400, 2.0**400


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


def _guard_factor(w: WeightMatrix, tau_sign: float) -> Optional[float]:
    """The factor F such that a chunk of raw draws with largest |entry| M
    in [2^-400, 2^400] needs no normalisation when min |raw| > F * M, where
    raw = fl(draws @ W^T) and tau_sign >= 0; None when W's scale rules it
    out.

    F = sqrt(d) * (tau_sign + c u omega) with u = 2^-53, c = 4 (d + 2) and
    omega = max_i fl(||w_i||).  Write gamma_k = k u / (1 - k u).  For one
    draw x and one row w let s = w . x exactly and t = sum_j |w_j x_j|,
    so t <= ||x|| ||w|| <= sqrt(d) M ||w||.

    * A d-term dot product, in any summation order and with or without
      FMA, is within gamma_d t of s (Higham, *Accuracy and Stability of
      Numerical Algorithms*, ch. 3).  So r = fl(x . w) = s + e_r with
      |e_r| <= gamma_d t.
    * The normalised path computes L = fl(||x||) = ||x|| (1 + theta),
      |theta| <= gamma_{d+1}; then xh_j = (x_j / L)(1 + delta_j),
      |delta_j| <= u; then g = fl(xh . w) = xh . w + e with
      |e| <= gamma_d (1 + u) t / L.  Times L: L g = s + e_g with
      |e_g| <= (u + (1 + u) gamma_d) t <= gamma_{d+1} t, so
      |L g - r| <= gamma_{2d+1} t.
    * So once |r| > gamma_{2d+1} t, g is nonzero with the sign of r
      (L > 0), and since L <= sqrt(d) M (1 + gamma_{d+1}), |g| >= tau_sign
      follows from  |r| >= sqrt(d) M (tau_sign (1 + gamma_{d+1})
      + gamma_{2d+1} ||w||).  (*)
    * The guard's right side takes five roundings and
      omega >= ||w|| (1 - gamma_{d+1}), so it is at least
      sqrt(d) M (tau_sign + c u omega)(1 - gamma_5).  A passing |r| is
      at most (1 + gamma_d) t, which forces tau_sign < 1.01 omega.  Then
      (*) holds when c u (1 - gamma_5) >= 1.01 gamma_{d+6}
      + gamma_{2d+1} / (1 - gamma_{d+1}), about (3d + 7) u; c = 4 (d + 2)
      leaves (d + 1) u omega sqrt(d) M to spare.
    * Flipping coordinate signs is exact and keeps max_j |x_j|, so the
      bound holds for every probe D_p x of a chunk whose draws x have M.
    * Scale: with omega and M in [2^-400, 2^400] nothing overflows.  A
      passing draw has max_j |x_j| > u M, so L > 0 and the draw passes
      the length test.  Gradual underflow adds at most 2^-1075 to a
      product or quotient (sums are then exact): d 2^-1075 (omega + 2)
      in all, and a relative d 2^-169 in L, which the spare absorbs for
      any d < 2^100.
    """
    omega = float(w.row_norms.max())
    if not _GUARD_LOW <= omega <= _GUARD_HIGH:
        return None
    d = w.d
    return math.sqrt(d) * (tau_sign + 4 * (d + 2) * _UNIT_ROUNDOFF * omega)


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
    time) of a hyperplane.  When W is in general position, reaching
    cover_count(n, d) distinct vectors is proof of completeness and
    sampling stops early; otherwise the result is SampledPartial however
    many members were found.

    General position is decided here by the minor scan, under
    ``DEFAULT_MINOR_BUDGET``; a scan over that budget counts as unknown,
    so no completeness is claimed.
    """
    n, d = w.n, w.d
    tau_sign = DEFAULT_TAU_SIGN
    try:
        general_position = is_general_position(w)
    except MinorBudgetError:
        general_position = False
    target = cover_count(n, d) if general_position else None
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
    factor = _guard_factor(w, tau_sign)
    while used < budget:
        chunk = min(_SAMPLE_CHUNK, budget - used)
        draws = rng.standard_normal((-(-chunk // patterns), d))
        used += chunk
        raw = (draws @ stacked).reshape(-1, n)[:chunk]
        positive = raw > 0.0
        peak = max(float(draws.max()), -float(draws.min()))
        if not (
            factor is not None
            and _GUARD_LOW <= peak <= _GUARD_HIGH
            and float(np.abs(raw, out=raw).min()) > factor * peak
        ):
            # ||D_p x|| = ||x||, so one division normalises all m probes.
            lengths = np.linalg.norm(draws, axis=1, keepdims=True)
            good_length = lengths[:, 0] > 0.0
            lengths[~good_length] = 1.0
            draws /= lengths
            logits = (draws @ stacked).reshape(-1, n)[:chunk]
            clean = np.repeat(good_length, patterns)[:chunk]
            clean &= (np.abs(logits) >= tau_sign).all(axis=1)
            skips += int(chunk - np.count_nonzero(clean))
            positive = (logits > 0.0)[clean]
        # Most probes of a chunk repeat a region, so dedupe in numpy
        # before anything reaches the Python set.  The codes are sorted
        # in place and each is kept where it differs from its left
        # neighbour: np.unique gives the same output, but on numpy >=
        # 2.3 it hashes int64 codes, several times slower per chunk.
        if use_int_codes:
            codes = positive.astype(np.int64) @ bit_weights
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
        if target is not None and len(seen) >= target:
            break
    if use_int_codes:
        codes = np.fromiter(seen, dtype=np.int64, count=len(seen))
        bits = (codes[:, None] >> np.arange(n)) & 1
    else:
        blobs = np.frombuffer(b"".join(seen), dtype=np.uint8)
        rows = blobs.reshape(len(seen), (n + 7) // 8)
        bits = np.unpackbits(rows, axis=1, count=n)
    members = frozenset(_assignments(bits))
    complete = target is not None and len(members) == target
    return RegionSet(
        n=n,
        d=d,
        members=members,
        method=(
            EnumerationMethod.SAMPLED_COMPLETE
            if complete
            else EnumerationMethod.SAMPLED_PARTIAL
        ),
        samples_used=used,
        boundary_skips=skips,
    )


@dataclass(frozen=True)
class CrossCheckReport:
    """Diff between the LP verdicts over all 2^n assignments and the
    oracle's region set.

    lp_yes_oracle_no members would be soundness bugs when the oracle is
    complete.  oracle_yes_lp_no members are expected only for regions
    whose Chebyshev radius sits below the LP's eps floor.  Indeterminate
    LP results are listed separately and belong to neither side.
    """

    n: int
    d: int
    oracle: RegionSet
    lp_yes_oracle_no: tuple[LabelAssignment, ...]
    oracle_yes_lp_no: tuple[LabelAssignment, ...]
    indeterminate: tuple[LabelAssignment, ...]
    agreements: int

    @property
    def clean(self) -> bool:
        return not (
            self.lp_yes_oracle_no or self.oracle_yes_lp_no or self.indeterminate
        )


def cross_check(w: WeightMatrix, seed: int = 0) -> CrossCheckReport:
    """Run the LP on every assignment and diff against the oracle.

    Exponential in n by design; refuses n > 16.  Uses the exact walk for
    d = 2 and certificate-stopped sampling otherwise (``seed``,
    ``DEFAULT_SAMPLE_BUDGET`` draws); the LPs run in one process under
    the default ``LpConfig``.
    """
    n = w.n
    if n > 16:
        raise ValueError(f"cross-check enumerates 2^n assignments; n={n} > 16")
    if w.d == 2:
        oracle = enumerate_regions_2d(w)
    else:
        oracle = enumerate_regions_sampled(w, seed=seed)
    codes = np.arange(1 << n)
    everything = _assignments((codes[:, None] >> np.arange(n)) & 1)
    # The LP itself is on trial here, so no item takes verify_batch's
    # alternation shortcut.
    results = _lp_results(w, everything, LpConfig(), 1)
    lp_only = []
    oracle_only = []
    indeterminate = []
    agreements = 0
    for y, res in zip(everything, results):
        in_oracle = y in oracle.members
        if res.status is VerifyStatus.INDETERMINATE:
            indeterminate.append(y)
        elif res.is_argmaxable and not in_oracle:
            lp_only.append(y)
        elif in_oracle and not res.is_argmaxable:
            oracle_only.append(y)
        else:
            agreements += 1
    return CrossCheckReport(
        n=n,
        d=w.d,
        oracle=oracle,
        lp_yes_oracle_no=tuple(lp_only),
        oracle_yes_lp_no=tuple(oracle_only),
        indeterminate=tuple(indeterminate),
        agreements=agreements,
    )
