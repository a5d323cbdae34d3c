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

The dual optimum is the radius, and the duals of its d equality rows are
the witness x.  An unbounded dual proves the primal infeasible:
NOT_EPS_ARGMAXABLE.  A simplex basis of the dual has d + 1 columns
against n in the primal.  Any other outcome re-solves the item once in
the primal form; only when that fails too is the item Indeterminate,
with both failures in its reason.  The two forms' radii agree to ~1e-11
relative on well-conditioned items and differ by up to ~2x on
ill-conditioned DFT items, where neither is the exact optimum.

Each worker thread solves through one HiGHS instance (Huangfu & Hall,
*Math. Prog. Comp.* 10, 2018), from scipy's private binding
``scipy.optimize._highspy._core``; pyproject pins the first scipy known
to ship it.  The instance holds the dual of the all-minus assignment,
column-wise.  Each item re-signs the lambda entries of the first d rows
in numpy and passes the model again, so every solve is cold.  That drops
``linprog``'s input checks and sparse rebuild: ~12 -> ~7 ms per item at
n = 500, d = 21.  One ``changeCoeff`` call per flipped entry was slower
than ``linprog`` itself on items with ~500 active labels (39 against 23
ms per item at n = 1000, d = 32), and warm starts from the previous
basis were slower (9.1 ms) and gave one spurious solve error.  Options, statuses and messages are ``linprog``'s
for method "highs" without presolve, which on these dense rows reduces
nothing (it moved radii in their last ~2 digits, never a verdict).  The
binding loads with the first session, not with this module: ~0.75 s
and ~40 MB that commands solving no LP need not pay.

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
import threading
import time
from collections import Counter
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
    "DEFAULT_PERCENTILES",
]

DEFAULT_PERCENTILES = (1.0, 5.0, 25.0, 50.0, 100.0)


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
    INDETERMINATE (what the solver reported).  wall_time is the
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
    w: WeightMatrix,
    y: LabelAssignment,
    cfg: LpConfig = LpConfig(),
    session: Optional["_Session"] = None,
) -> VerifyResult:
    """Certify one assignment against one matrix: the dual LP, then the
    primal LP only when the dual decides nothing (module docstring).

    ``session`` is this thread's HiGHS session for w and cfg; without one
    a session is built for this item alone.  Raises ValueError when y
    and w disagree on n.
    """
    if y.n != w.n:
        raise ValueError(f"assignment has n={y.n}, matrix has n={w.n}")
    start = time.perf_counter()
    session = session or _Session(w, cfg)
    res = session.dual(y)
    if res.status is VerifyStatus.INDETERMINATE:
        primal = session.primal(y)
        if primal.status is VerifyStatus.INDETERMINATE:
            primal = VerifyResult(
                VerifyStatus.INDETERMINATE,
                reason=f"dual LP: {res.reason}; primal LP: {primal.reason}",
            )
        res = primal
    return replace(res, wall_time=time.perf_counter() - start)


@dataclass(frozen=True)
class _Run:
    """How one HiGHS run ended: HiGHS's model status, and linprog's number
    and message for it; at number 0 also the objective, the column values
    x and the row duals."""

    model_status: int
    status: int
    message: str
    objective: float = math.nan
    x: Optional[np.ndarray] = None
    duals: Optional[np.ndarray] = None


class _Session:
    """One HiGHS instance and the dual LP of one matrix, for one thread."""

    def __init__(self, w: WeightMatrix, cfg: LpConfig) -> None:
        from scipy.optimize import _linprog_highs
        from scipy.optimize._highspy import _core

        self.core = _core
        self.scipy_status = _linprog_highs._highs_to_scipy_status_message
        self.w, self.cfg, self.highs = w, cfg, _core._Highs()
        options = {
            "output_flag": False,
            "presolve": "off",
            "simplex_strategy": 1,  # dual simplex, as linprog asks for
            "primal_feasibility_tolerance": cfg.solver_feas_tol,
            "dual_feasibility_tolerance": cfg.solver_feas_tol,
        }
        self.refused = [
            f"{key}={value!r}"
            for key, value in options.items()
            if self.highs.setOptionValue(key, value) != _core.HighsStatus.kOk
        ]
        n, d = w.n, w.d
        a = np.zeros((d + 1, n + 2 * d + 1))
        a[:d, :n] = w.entries.T  # the all-minus assignment: -y_i = 1
        a[:d, n : n + d] = -np.eye(d)
        a[:d, n + d : n + 2 * d] = np.eye(d)
        a[d, :n] = w.row_norms
        a[d, -1] = -1.0
        cost = np.r_[np.zeros(n), np.full(2 * d, cfg.box_bound), -cfg.eps_floor]
        b = np.r_[np.zeros(d), 1.0]
        self.dual_lp = self._lp(cost, a, (0.0, np.inf), (b, b))
        cols, rows = np.nonzero(a.T)  # the stored entries, in _lp's order
        self.base = a[rows, cols]
        self.signed = np.flatnonzero((cols < n) & (rows < d))
        self.signed_label = cols[self.signed]

    def _lp(self, cost, a, col_bounds, row_bounds):
        """min cost.x subject to row_bounds on a x and col_bounds on x, with
        a stored column-wise without its zeros, as linprog stores it."""
        (m, n), lp = a.shape, self.core.HighsLp()
        lp.num_row_, lp.num_col_ = m, n
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = m, n
        lp.a_matrix_.format_ = self.core.MatrixFormat.kColwise
        cols, rows = np.nonzero(a.T)
        lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(n + 1))
        lp.a_matrix_.index_, lp.a_matrix_.value_ = rows, a[rows, cols]
        lp.col_cost_ = cost
        lp.col_lower_, lp.col_upper_ = (np.broadcast_to(v, n) for v in col_bounds)
        lp.row_lower_, lp.row_upper_ = (np.broadcast_to(v, m) for v in row_bounds)
        return lp

    def dual(self, y: LabelAssignment) -> VerifyResult:
        """The dual LP over (lambda, mu_lo, mu_hi, nu): d + 1 equality rows."""
        values = self.base.copy()
        values[self.signed] *= -y.signs[self.signed_label]
        self.dual_lp.a_matrix_.value_ = values
        run = self.solve(self.dual_lp)
        if isinstance(run, str) or run.status != 0:
            return _not_optimal(run, self.core.HighsModelStatus.kUnbounded)
        return _optimum(float(run.objective), run.duals[: self.w.d], self.cfg)

    def primal(self, y: LabelAssignment) -> VerifyResult:
        """The primal LP over (x, eps): n inequality rows."""
        w, box = self.w, np.full(self.w.d, self.cfg.box_bound)
        a = np.c_[-(y.signs[:, None] * w.entries), w.row_norms]
        cost = np.r_[np.zeros(w.d), -1.0]
        bounds = (np.r_[-box, self.cfg.eps_floor], np.r_[box, np.inf])
        run = self.solve(self._lp(cost, a, bounds, (-np.inf, 0.0)))
        if isinstance(run, str) or run.status != 0:
            return _not_optimal(run, self.core.HighsModelStatus.kInfeasible)
        return _optimum(float(run.x[-1]), run.x[: w.d], self.cfg)

    def solve(self, lp) -> "_Run | str":
        """One cold run of lp; or the text of what kept it from running."""
        if self.refused:
            return "HiGHS refused option " + ", ".join(self.refused)
        try:
            return self.run(lp)
        except Exception as exc:  # solver blow-ups become Indeterminate, not lies
            return f"solver raised {type(exc).__name__}: {exc}"

    def run(self, lp) -> _Run:
        """Pass lp to HiGHS, solve it and read the outcome as linprog does."""
        core, highs = self.core, self.highs
        if highs.passModel(lp) == core.HighsStatus.kError:
            model = core.HighsModelStatus.kModelError
            text = highs.modelStatusToString(model)
        else:
            ran = highs.run() != core.HighsStatus.kError
            model, info = highs.getModelStatus(), highs.getInfo()
            text = highs.modelStatusToString(model)
            if ran and model != core.HighsModelStatus.kOptimal:
                primal = highs.solutionStatusToString(info.primal_solution_status)
                text = f"model_status is {text}; primal_status is {primal}"
        status, message = self.scipy_status(model, text)
        # linprog refuses an optimum whose bound or row residual exceeds
        # 10 sqrt(tol), tol = 1e-9; HiGHS reports the largest of them.
        if status == 0 and not info.max_primal_infeasibility <= 10 * math.sqrt(1e-9):
            status, message = 4, "The solution does not satisfy the constraints"
        if status != 0:
            return _Run(int(model), status, message)
        solution = highs.getSolution()
        x, duals = np.array(solution.col_value), np.array(solution.row_dual)
        return _Run(int(model), 0, message, info.objective_function_value, x, duals)


def _not_optimal(run: "_Run | str", proof) -> VerifyResult:
    """The verdict of a run that ended without an optimum:
    NOT_EPS_ARGMAXABLE when HiGHS's status is ``proof``, the one that
    proves the primal infeasible."""
    if isinstance(run, str):
        return VerifyResult(VerifyStatus.INDETERMINATE, reason=run)
    if run.model_status == int(proof):
        return VerifyResult(VerifyStatus.NOT_EPS_ARGMAXABLE)
    return VerifyResult(
        VerifyStatus.INDETERMINATE,
        reason=f"solver status {run.status}: {run.message}",
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


def _lp_results(
    w: WeightMatrix,
    ys: Sequence[LabelAssignment],
    cfg: LpConfig,
    jobs: int,
) -> tuple[VerifyResult, ...]:
    """One Chebyshev LP per assignment, results in input order.  Each
    worker thread builds its own session on its first item."""
    local = threading.local()

    def one(y: LabelAssignment) -> VerifyResult:
        if not hasattr(local, "session"):
            local.session = _Session(w, cfg)
        return chebyshev_verify(w, y, cfg, session=local.session)

    if jobs > 1 and len(ys) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return tuple(pool.map(one, ys))
    return tuple(map(one, ys))


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
    Raises ValueError, before any LP, when some item's n is not w's.  On
    the unslacked DFT layer, items with more than d - 1 alternations are
    decided without an LP (module docstring).
    """
    for i, y in enumerate(ys):
        if y.n != w.n:
            raise ValueError(f"item {i} has n={y.n}, matrix has n={w.n}")
    over = {i for i, y in enumerate(ys) if alt(y) > w.d - 1}
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
    count = Counter(r.status for r in results)
    one = sum(1 for r in results if r.is_argmaxable and r.radius >= 1.0)
    return BatchSummary(
        count[VerifyStatus.ARGMAXABLE],
        one,
        count[VerifyStatus.NOT_EPS_ARGMAXABLE],
        count[VerifyStatus.INDETERMINATE],
    )


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
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
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
    rows = tuple((float(p), _nearest_rank(radii, p)) for p in percentiles)
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
