"""Chebyshev-center LP certification of label-assignment feasibility.

A sign vector y is feasible for W when some x has sign(Wx) = y, and
eps-feasible when the whole ball of radius eps around x stays on the
same side of every hyperplane.  The largest such radius is found by one
linear program over (x, eps):

    maximize  eps
    subject to  -y_i * w_i . x + eps * ||w_i|| <= 0     (i = 1..n)
                -box <= x_j <= box                      (j = 1..d)
                eps >= eps_floor

A feasible optimum certifies the assignment with its radius and witness
point, provided the radius honours eps >= eps_floor; a certified-infeasible
LP proves no point achieves y with margin eps_floor; anything else the
solver reports (numerical trouble, iteration limits, an "optimal" radius
below the floor) is surfaced as Indeterminate rather than guessed.  The
box bound exists only to keep the optimum finite on unbounded regions.

``chebyshev_verify`` solves the Lagrangian dual of that LP (Boyd &
Vandenberghe, *Convex Optimization*, §8.5), with lambda_i >= 0 for the n
rows, mu_lo, mu_hi >= 0 for the two sides of the box and nu >= 0 for
the floor:

    minimize  box * sum_j (mu_lo_j + mu_hi_j) - eps_floor * nu
    subject to  sum_i lambda_i (-y_i w_i) - mu_lo + mu_hi = 0    (d rows)
                sum_i lambda_i ||w_i|| - nu = 1                  (1 row)

The dual optimum equals the primal one, so it is the radius, and the
multipliers of the d equality rows (scipy's ``eqlin.marginals``) are the
primal x, the witness.  An unbounded dual (status 3) proves the primal
infeasible: NOT_EPS_ARGMAXABLE.  The dual is cheaper because a simplex
basis has one column per row: d + 1 here against n in the primal.  On
the benchmark's n = 500, d = 21 items the LP step took ~40% less time.  Any other outcome (status 4
"Solve error", another status, an optimum below the floor, an exception)
re-solves the item once in the primal form above, and only when that
fails too is the item Indeterminate, with both failures in its reason.
Radii of the two forms agree to ~1e-11 relative on well-conditioned
items.  On ill-conditioned DFT items they have differed by up to ~2x,
either way round, with each form's witness confirming its own radius:
there neither form's radius is the exact optimum.

HiGHS runs without presolve, in both forms.  Every row of the LP is dense
and none is redundant, so presolve reduces nothing and only adds its own
pass to each solve.  It can still steer the simplex to a slightly different
path: a matrix with exactly parallel rows (which presolve merges), and
on the DFT layer the constant assignments and a few with one or two
alternations, get radii and witnesses that differ in the last ~2
digits.  The verdicts are the same in every case measured.
scipy.optimize is imported on the first solve, not with this module:
the import costs ~0.75 s and ~40 MB, which commands that solve no LP
need not pay.

``verify_batch`` answers one class of items without an LP.  When W is
bit for bit ``build_dft_matrix(n, k)``, every Wx samples a trigonometric
polynomial of degree k at increasing points of one period, which has at
most 2k roots there; so no x gives an assignment with alt(y) > 2k (Karp,
"Sign variation, the Grassmannian, and total positivity", JCTA 2017).
The stored matrix is off the exact one by at most delta per row in l1
(``dft_entry_error_bound`` times d), so any LP witness for it has radius
at most box * delta / min ||w_i||.  When that bound is below eps_floor
the LP is infeasible, and such items are NOT_EPS_ARGMAXABLE with wall
time 0 and no radius.  Every other item, including the whole batch when
the bound is too loose (e.g. the mimic3 shape at the default box), goes
to ``chebyshev_verify``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .dftlayer import build_dft_matrix, dft_entry_error_bound
from .labelspace import (
    DEFAULT_ENUMERATION_BUDGET,
    FamilySpec,
    LabelAssignment,
    alt,
    enumerate_family,
)
from .linalg import WeightMatrix

__all__ = [
    "LpConfig",
    "VerifyStatus",
    "VerifyResult",
    "BatchSummary",
    "BatchResult",
    "RadiusReport",
    "chebyshev_verify",
    "verify_batch",
    "radius_report",
]


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use (module docstring)."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


@dataclass(frozen=True)
class LpConfig:
    """LP parameters: the coordinate box, the smallest radius that counts
    as robustly feasible, and the solver feasibility tolerance (which must
    sit strictly below the floor so the two scales never blur)."""

    box_bound: float = 1e4
    eps_floor: float = 1e-8
    solver_feas_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not self.box_bound > 0:
            raise ValueError("box_bound must be positive")
        if not self.eps_floor > self.solver_feas_tol > 0:
            raise ValueError("need eps_floor > solver_feas_tol > 0")


class VerifyStatus(Enum):
    ARGMAXABLE = "argmaxable"
    NOT_EPS_ARGMAXABLE = "not_eps_argmaxable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one item.

    radius and witness are set only for ARGMAXABLE; reason only for
    INDETERMINATE (solver message or input problem).  wall_time is the
    solve time in seconds, 0 for an item decided without an LP.
    """

    status: VerifyStatus
    radius: Optional[float] = None
    witness: Optional[np.ndarray] = None
    reason: Optional[str] = None
    wall_time: float = 0.0

    @property
    def is_argmaxable(self) -> bool:
        return self.status is VerifyStatus.ARGMAXABLE


def chebyshev_verify(
    w: WeightMatrix, y: LabelAssignment, cfg: LpConfig = LpConfig()
) -> VerifyResult:
    """Certify one assignment against one matrix: the dual LP, then the
    primal LP only when the dual decides nothing (module docstring).

    Raises ValueError on dimension mismatch or a zero-norm row (a zero
    row makes its halfspace constraint vacuous, so the question is
    ill-posed for that matrix).
    """
    if y.n != w.n:
        raise ValueError(f"assignment has n={y.n}, matrix has n={w.n}")
    zero_rows = np.flatnonzero(w.row_norms == 0.0)
    if zero_rows.size:
        raise ValueError(
            "zero-norm row(s) "
            + ", ".join(str(int(r) + 1) for r in zero_rows)
        )
    start = time.perf_counter()
    res = _dual_lp(w, y, cfg)
    if res.status is VerifyStatus.INDETERMINATE:
        primal = _primal_lp(w, y, cfg)
        if primal.status is VerifyStatus.INDETERMINATE:
            primal = VerifyResult(
                VerifyStatus.INDETERMINATE,
                reason=f"dual LP: {res.reason}; primal LP: {primal.reason}",
            )
        res = primal
    return replace(res, wall_time=time.perf_counter() - start)


def _dual_lp(w: WeightMatrix, y: LabelAssignment, cfg: LpConfig) -> VerifyResult:
    """The dual LP over (lambda, mu_lo, mu_hi, nu): d + 1 equality rows."""
    n, d = w.n, w.d
    cost = np.zeros(n + 2 * d + 1)
    cost[n : n + 2 * d] = cfg.box_bound
    cost[-1] = -cfg.eps_floor
    a_eq = np.zeros((d + 1, n + 2 * d + 1))
    a_eq[:d, :n] = (w.entries * -y.signs[:, None]).T
    a_eq[:d, n : n + d] = -np.eye(d)
    a_eq[:d, n + d : n + 2 * d] = np.eye(d)
    a_eq[d, :n] = w.row_norms
    a_eq[d, -1] = -1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    res = _highs(cost, cfg, A_eq=a_eq, b_eq=b_eq)  # every variable >= 0
    if isinstance(res, str) or res.status != 0:
        return _not_optimal(res, infeasible_status=3)  # an unbounded dual
    return _optimum(float(res.fun), res.eqlin.marginals[:d], cfg)


def _primal_lp(w: WeightMatrix, y: LabelAssignment, cfg: LpConfig) -> VerifyResult:
    """The primal LP over (x, eps): n inequality rows."""
    n, d = w.n, w.d
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    a_ub = np.empty((n, d + 1))
    a_ub[:, :d] = -(y.signs[:, None] * w.entries)
    a_ub[:, d] = w.row_norms
    bounds = [(-cfg.box_bound, cfg.box_bound)] * d + [(cfg.eps_floor, None)]
    res = _highs(cost, cfg, A_ub=a_ub, b_ub=np.zeros(n), bounds=bounds)
    if isinstance(res, str) or res.status != 0:
        return _not_optimal(res, infeasible_status=2)
    return _optimum(float(res.x[-1]), res.x[:d], cfg)


def _highs(cost: np.ndarray, cfg: LpConfig, **rows):
    """One HiGHS solve without presolve; returns scipy's result, or the
    text of what the solver raised."""
    try:
        return linprog(
            cost,
            **rows,
            method="highs",
            options={
                "presolve": False,
                "primal_feasibility_tolerance": cfg.solver_feas_tol,
                "dual_feasibility_tolerance": cfg.solver_feas_tol,
            },
        )
    except Exception as exc:  # solver blow-ups become Indeterminate, not lies
        return f"solver raised {type(exc).__name__}: {exc}"


def _not_optimal(res, infeasible_status: int) -> VerifyResult:
    """The verdict of a solve that raised or ended without an optimum:
    NOT_EPS_ARGMAXABLE when the status proves the primal infeasible."""
    if isinstance(res, str):
        return VerifyResult(VerifyStatus.INDETERMINATE, reason=res)
    if res.status == infeasible_status:
        return VerifyResult(VerifyStatus.NOT_EPS_ARGMAXABLE)
    return VerifyResult(
        VerifyStatus.INDETERMINATE,
        reason=f"solver status {res.status}: {res.message}",
    )


def _optimum(radius: float, witness: np.ndarray, cfg: LpConfig) -> VerifyResult:
    if radius >= cfg.eps_floor:
        return VerifyResult(
            VerifyStatus.ARGMAXABLE, radius=radius, witness=np.array(witness)
        )
    # Ill-conditioned solves can report an optimum below the primal's own
    # bound eps >= eps_floor, which no optimum of either form can be;
    # that certifies nothing.
    return VerifyResult(
        VerifyStatus.INDETERMINATE,
        reason=(
            f"solver status 0 returned radius {radius!r}, "
            f"below eps_floor {cfg.eps_floor!r}"
        ),
    )


@dataclass(frozen=True)
class BatchSummary:
    """Counts over a batch: one_argmaxable is the subset of argmaxable
    results whose radius is at least 1 (regions big enough that unit
    perturbations cannot flip them)."""

    argmaxable: int
    one_argmaxable: int
    not_eps: int
    indeterminate: int


@dataclass(frozen=True)
class BatchResult:
    results: tuple[VerifyResult, ...]
    summary: BatchSummary


def _verify_one_safely(
    w: WeightMatrix, y: LabelAssignment, cfg: LpConfig
) -> VerifyResult:
    try:
        return chebyshev_verify(w, y, cfg)
    except ValueError as exc:
        # A bad item must not abort the batch; it surfaces per-item.
        return VerifyResult(VerifyStatus.INDETERMINATE, reason=str(exc))


def _lp_results(
    w: WeightMatrix,
    ys: Sequence[LabelAssignment],
    cfg: LpConfig,
    jobs: int,
) -> tuple[VerifyResult, ...]:
    """One Chebyshev LP per assignment, results in input order."""
    _ = w.row_norms  # materialize the shared cache before any workers start
    if jobs > 1 and len(ys) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return tuple(pool.map(lambda y: _verify_one_safely(w, y, cfg), ys))
    return tuple(_verify_one_safely(w, y, cfg) for y in ys)


def _decided_by_alternation(w: WeightMatrix, cfg: LpConfig) -> bool:
    """True when w is exactly the unslacked truncated-DFT layer and its
    float error cannot hold a ball of radius eps_floor (module docstring),
    so alt(y) > d - 1 proves NOT_EPS_ARGMAXABLE."""
    n, d = w.n, w.d
    k = (d - 1) // 2
    if d % 2 == 0 or k < 1 or d > n:
        return False
    if not np.array_equal(w.entries, build_dft_matrix(n, k).entries):
        return False
    row_error = d * dft_entry_error_bound(n, k)
    return cfg.box_bound * row_error / float(np.min(w.row_norms)) < cfg.eps_floor


def verify_batch(
    w: WeightMatrix,
    ys: Sequence[LabelAssignment],
    cfg: LpConfig = LpConfig(),
    jobs: int = 1,
) -> BatchResult:
    """Verify many assignments against one matrix.

    Results come back in input order regardless of completion order.
    Row norms are computed once on ``w`` and shared.  Per-item failures
    (e.g. a mismatched n) become Indeterminate results with the error as
    the reason instead of aborting the rest.  On the unslacked DFT layer,
    items with more than d - 1 alternations are decided without an LP
    (module docstring).
    """
    over = {
        i for i, y in enumerate(ys) if y.n == w.n and alt(y) > w.d - 1
    }
    if over and not _decided_by_alternation(w, cfg):
        over = set()
    solved = iter(
        _lp_results(w, [y for i, y in enumerate(ys) if i not in over], cfg, jobs)
    )
    results = tuple(
        VerifyResult(VerifyStatus.NOT_EPS_ARGMAXABLE) if i in over else next(solved)
        for i in range(len(ys))
    )
    return BatchResult(results=results, summary=summarize(results))


def summarize(results: Sequence[VerifyResult]) -> BatchSummary:
    argmaxable = sum(1 for r in results if r.status is VerifyStatus.ARGMAXABLE)
    one = sum(
        1
        for r in results
        if r.status is VerifyStatus.ARGMAXABLE and r.radius is not None and r.radius >= 1.0
    )
    not_eps = sum(1 for r in results if r.status is VerifyStatus.NOT_EPS_ARGMAXABLE)
    indet = sum(1 for r in results if r.status is VerifyStatus.INDETERMINATE)
    return BatchSummary(argmaxable, one, not_eps, indet)


@dataclass(frozen=True)
class RadiusReport:
    """Chebyshev radii of a whole family, reduced to percentiles.

    rows pairs each requested percentile with the nearest-rank radius of
    the ascending-sorted radius list; infeasible members count as radius
    0, and indeterminate members are counted separately (their radii are
    unknown, so they are excluded from the distribution).
    """

    family: FamilySpec
    rows: tuple[tuple[float, float], ...]
    members: int
    argmaxable: int
    not_eps: int
    indeterminate: int


def radius_report(
    w: WeightMatrix,
    family: FamilySpec,
    cfg: LpConfig = LpConfig(),
    percentiles: Sequence[float] = (1.0, 5.0, 25.0, 50.0, 100.0),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    jobs: int = 1,
) -> RadiusReport:
    """Verify every member of a family and report radius percentiles."""
    for p in percentiles:
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
    ys = list(enumerate_family(family, budget=budget))
    batch = verify_batch(w, ys, cfg, jobs=jobs)
    radii = sorted(
        (r.radius if r.status is VerifyStatus.ARGMAXABLE else 0.0)
        for r in batch.results
        if r.status is not VerifyStatus.INDETERMINATE
    )
    if batch.results and not radii:
        raise ValueError(
            f"no radii to take percentiles of: all {len(ys)} members are "
            f"indeterminate (first: {batch.results[0].reason})"
        )
    rows =tuple((float(p), _nearest_rank(radii, p)) for p in percentiles)
    return RadiusReport(
        family=family,
        rows=rows,
        members=len(ys),
        argmaxable=batch.summary.argmaxable,
        not_eps=batch.summary.not_eps,
        indeterminate=batch.summary.indeterminate,
    )


def _nearest_rank(sorted_values: list[float], percentile: float) -> float:
    """Nearest-rank percentile on an ascending list (deterministic, no
    interpolation)."""
    if not sorted_values:
        raise ValueError("no radii to take percentiles of")
    count = len(sorted_values)
    rank = max(1, math.ceil(percentile * count / 100.0))
    return float(sorted_values[min(rank, count) - 1])
