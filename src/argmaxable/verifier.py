"""Chebyshev-center LP certification of label-assignment feasibility.

A sign vector y is feasible for W when some x has sign(Wx) = y, and
eps-feasible when the whole ball of radius eps around x stays on the
same side of every hyperplane.  The largest such radius is found by one
linear program over (x, eps):

    maximize  eps
    subject to  -y_i * w_i . x + eps * ||w_i|| <= 0     (i = 1..n)
                -box <= x_j <= box                      (j = 1..d)
                eps >= eps_floor

An optimum certifies the assignment only when a rounding-proof lower
bound on its witness point's own margin reaches eps_floor, and that bound
is the radius reported (``_checked_optimum``, the one source of every
ARGMAXABLE verdict and its radius); a certified-infeasible LP proves no
point achieves y with margin eps_floor; anything else (numerical
trouble, iteration limits, an optimum that fails the check) is
Indeterminate rather than guessed.  The box bound exists only to keep
the optimum finite on unbounded regions.

``chebyshev_verify`` solves the Lagrangian dual of that LP (Boyd &
Vandenberghe, *Convex Optimization*, §8.5), with lambda_i >= 0 for the n
rows, mu_lo, mu_hi >= 0 for the two sides of the box and nu >= 0 for
the floor:

    minimize  box * sum_j (mu_lo_j + mu_hi_j) - eps_floor * nu
    subject to  sum_i lambda_i (-y_i w_i) - mu_lo + mu_hi = 0    (d rows)
                sum_i lambda_i ||w_i|| - nu = 1                  (1 row)

At its optimum only d + 1 of the n lambda columns are basic, so one loop
solves it by row generation (Dantzig, Fulkerson & Johnson 1954; Kelley
1960) on a working set of lambda columns.  Each run sets its own
simplex: the first round is a cold dual simplex run, and each later one
goes on from HiGHS's kept basis with primal simplex, which the columns
added since (at 0) leave feasible.  After each optimum the loop prices
all n rows in numpy from the row duals (x, eps), rc_i = y_i w_i . x -
eps ||w_i||, and adds up to 2d of the most negative rows below
-solver_feas_tol through ``addCols``, until no row outside the working
set prices below the tolerance: at most n rounds, as each adds a row.  A
run decides its item in two ways, each through a check in numpy:

* ARGMAXABLE, when HiGHS calls it optimal and its witness x, the duals of
  the d equality rows, passes ``_checked_optimum``; the dual objective is
  not read;
* NOT_EPS_ARGMAXABLE, when it ends unbounded and its primal ray, read as
  multipliers lambda >= 0 on the rows of its columns, proves the radius
  of every point in the box at most hi = box ||sum lambda_i y_i w_i||_1 /
  sum lambda_i ||w_i|| (Farkas), and hi plus a bound on its rounding
  error, hi gamma_{m+2d+6} + gamma_{m+2} sqrt(d) box for a ray with m
  positive entries (derived in ``_checked_ray``), is below eps_floor.

Any other outcome (a failed run, an optimum or a ray that fails its
check) is INDETERMINATE, with that outcome as its reason.  When n >= 8d
(``_ROWGEN_RATIO``) the loop first runs on a seeded working set: the 2d
rows with the smallest normalised margin y_i w_i . x0 / ||w_i|| at
x0 = W^T y, plus an even grid of 2d rows (``_ROWGEN_BLOCK`` = 2).  An
item that leaves INDETERMINATE, and every item when n < 8d, runs the
loop on all n rows: the full dual, one cold run, as its pricing finds
every row already in.  Its unbounded run is the one exception to the
checks, NOT_EPS_ARGMAXABLE on HiGHS's word: at a box of 1e7 or more the
ray check's charge gamma sqrt(d) box passes eps_floor and would leave
such items INDETERMINATE.  On a working set the status proves nothing: on
certify-dft seeds 31 and 902 a restricted run HiGHS called unbounded
belongs to an item the full dual certifies ARGMAXABLE (the ray gives hi
6.6e-6 and 7.4e-6), and the check declines both.  So a verdict can
differ from the full dual's only where a ray passes: such an item is
NOT_EPS_ARGMAXABLE, which its ray proves, whatever the full dual says.

Each worker thread solves through one HiGHS instance (Huangfu & Hall,
*Math. Prog. Comp.* 10, 2018), from scipy's private binding
``scipy.optimize._highspy._core``; pyproject pins the first scipy known
to ship it.  The session stores the dual of the all-minus assignment
once, column-wise, and cuts every model from it in numpy by gathering
columns and re-signing the lambda entries of their first d rows: all
columns, a working set or the columns a round adds.  These reach HiGHS as
numpy buffers through the array ``passModel`` and ``addCols``.  A binding
without that overload raises TypeError, and each item is then
Indeterminate with the error in its reason.  Full solves are cold: a warm
start from the last basis was slower and gave a spurious solve
error.  Options are ``linprog``'s for method "highs" without presolve,
which on these dense rows reduces nothing, and with both feasibility
tolerances at ``LpConfig.solver_feas_tol``, a tenth of eps_floor; each
run sets ``simplex_strategy`` itself (1, dual, or 4, primal).  A
run's outcome is HiGHS's model status: kOptimal gives the row duals;
kUnbounded is an unbounded run; any other status (a model ``passModel``
refuses counts as kModelError, and a ``run()`` that returns kError says
so), a refused option or a raised exception is the run's reason.  The
binding loads with the first session, from its file in scipy's tree
(``_highs_core``): in a fresh process (Python 3.11, scipy 1.17) that
takes ~8 ms and ~3 MB, where the ``scipy.optimize`` package import runs
~320 modules in ~0.4 s and ~47 MB.  No command imports it.  This module
loads on first use too: the package and ``cli`` resolve their names when
first called for, so of the commands only ``verify`` and ``radii`` load
it, and a batch imports ``concurrent.futures`` only when it starts
worker threads.

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
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import DEFAULT_BOX_BOUND, DEFAULT_EPS_FLOOR, DEFAULT_PERCENTILES
from .dftlayer import build_dft_matrix, dft_entry_error_bound
from .labelspace import (
    DEFAULT_ENUMERATION_BUDGET,
    FamilySpec,
    LabelAssignment,
    alt,
    enumerate_family,
)
from .linalg import WeightMatrix, _gamma

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

# Row generation (module docstring): it runs when n >= _ROWGEN_RATIO * d,
# starts from 2 * _ROWGEN_BLOCK * d rows and adds at most _ROWGEN_BLOCK * d
# rows a round until pricing finds none below the tolerance.
_ROWGEN_RATIO = 8
_ROWGEN_BLOCK = 2

# The least feasibility tolerance HiGHS accepts (it refuses 9.9e-11).
_LEAST_TOL = 1e-10


@dataclass(frozen=True)
class LpConfig:
    """LP parameters: the coordinate box and the smallest radius that
    counts as robustly feasible, from which the solver tolerance follows."""

    box_bound: float = DEFAULT_BOX_BOUND
    eps_floor: float = DEFAULT_EPS_FLOOR

    def __post_init__(self) -> None:
        for name in ("box_bound", "eps_floor"):
            try:
                self.valid_scale(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None

    @property
    def solver_feas_tol(self) -> float:
        """HiGHS's feasibility tolerance: a tenth of eps_floor, so the two
        scales never blur, and at least the 1e-10 HiGHS accepts."""
        return max(self.eps_floor / 10, _LEAST_TOL)

    @staticmethod
    def valid_scale(value: float) -> float:
        """value, when it can be box_bound or eps_floor: finite, above
        1e-10, HiGHS's least tolerance, and below 1e20, which HiGHS reads
        as infinite in a cost.  Raises ValueError saying what it must be
        otherwise."""
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        if not value > _LEAST_TOL:
            raise ValueError(f"must be above 1e-10, got {value}")
        if not value < 1e20:
            raise ValueError(f"must be below 1e20, got {value}")
        return value


class VerifyStatus(Enum):
    ARGMAXABLE = "argmaxable"
    NOT_EPS_ARGMAXABLE = "not_eps_argmaxable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one item.

    radius and witness are set only for ARGMAXABLE: radius is a
    rounding-proof lower bound on the witness's smallest normalised margin
    min_i y_i w_i . x / ||w_i||, so at most that margin as computed in
    float64.  reason is set only for INDETERMINATE (what the solver or the
    check reported).  wall_time is the solve time in seconds, 0 for an
    item decided without an LP.
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
    """Certify one assignment against one matrix through the dual LP
    (module docstring).

    ``session`` is this thread's HiGHS session for w and cfg; without one
    a session is built for this item alone.  Raises ValueError when y
    and w disagree on n.
    """
    if y.n != w.n:
        raise ValueError(f"assignment has n={y.n}, matrix has n={w.n}")
    start = time.perf_counter()
    res = (session or _Session(w, cfg)).dual(y)
    return replace(res, wall_time=time.perf_counter() - start)


@dataclass(frozen=True)
class _Run:
    """How one HiGHS run ended: at an optimum its row duals; otherwise
    unbounded, or the reason it reached no optimum."""

    duals: Optional[np.ndarray] = None
    unbounded: bool = False
    reason: Optional[str] = None


_CORE = "scipy.optimize._highspy._core"
_core_lock = threading.Lock()


def _highs_core():
    """scipy's HiGHS binding, loaded once from its file without running
    ``scipy.optimize``'s package import, under its own module name so a
    later ``import scipy.optimize`` shares it; locked for concurrent workers."""
    import importlib.util
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

    with _core_lock:
        core = sys.modules.get(_CORE)
        if core is None:
            scipy = importlib.util.find_spec("scipy")
            where = scipy and scipy.submodule_search_locations
            where = where and os.path.join(where[0], "optimize", "_highspy")
            loaders = (ExtensionFileLoader, EXTENSION_SUFFIXES)
            spec = where and FileFinder(where, loaders).find_spec(_CORE)
            if not spec:
                raise ImportError(
                    f"the verifier needs scipy>=1.15: its HiGHS binding {_CORE} "
                    f"is not in {where or 'any directory (scipy not found)'}"
                )
            core = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(core)
            sys.modules[_CORE] = core
        return core


class _Session:
    """One HiGHS instance and the dual LP of one matrix, for one thread.
    The all-minus dual is stored column-wise without its zeros, with the
    label whose sign flips each entry (n for norms, mu and nu)."""

    def __init__(self, w: WeightMatrix, cfg: LpConfig) -> None:
        self.core = _core = _highs_core()
        self.w, self.cfg, self.highs = w, cfg, _core._Highs()
        options = {
            "output_flag": False,
            "presolve": "off",
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
        self.cost = np.r_[np.zeros(n), np.full(2 * d, cfg.box_bound), -cfg.eps_floor]
        self.rhs = np.r_[np.zeros(d), 1.0]
        cols, rows = np.nonzero(a.T)
        self.start = np.searchsorted(cols, np.arange(n + 2 * d + 2)).astype(np.int32)
        self.index, self.base = rows.astype(np.int32), a[rows, cols]
        self.label = np.where((cols < n) & (rows < d), cols, n)

    def _model(self, sign: np.ndarray, cols: np.ndarray):
        """The arguments of HiGHS's array ``passModel`` for the dual over the
        stored columns cols, in that order, under sign (as for ``_cut``):
        minimize cost.x over x >= 0 with a x = rhs."""
        m, a = cols.size, self._cut(sign, cols)
        head = (m, self.rhs.size, a[2].size, int(self.core.MatrixFormat.kColwise))
        head += (int(self.core.ObjSense.kMinimize), 0.0, self.cost[cols])
        bounds = (np.zeros(m), np.full(m, np.inf), self.rhs, self.rhs)
        return (*head, *bounds, *a, np.zeros(m, np.int32))

    def _cut(self, sign: np.ndarray, cols: np.ndarray):
        """The stored columns cols, in that order, under the per-label factor
        sign (-y, then 1): int32 starts, int32 row indices and values."""
        lo = self.start[cols]
        size = self.start[cols + 1] - lo
        start = np.cumsum(size) - size
        at = np.arange(int(size.sum())) + np.repeat(lo - start, size)
        value = self.base[at] * sign[self.label[at]]
        return start.astype(np.int32), self.index[at], value

    def dual(self, y: LabelAssignment) -> VerifyResult:
        """The dual LP over (lambda, mu_lo, mu_hi, nu), by ``rowgen``: on the
        seeded working set when n >= _ROWGEN_RATIO * d, and on all n rows
        when that leaves the item INDETERMINATE or n is smaller."""
        w, block = self.w, _ROWGEN_BLOCK * self.w.d
        if w.n >= _ROWGEN_RATIO * w.d:
            near = y.signs * (w.entries @ (w.entries.T @ y.signs)) / w.row_norms
            rows = np.union1d(
                np.argpartition(near, block)[:block], np.arange(block) * w.n // block
            )
            res = self.rowgen(y, rows)
            if res.status is not VerifyStatus.INDETERMINATE:
                return res
        return self.rowgen(y, np.arange(w.n))

    def rowgen(self, y: LabelAssignment, rows: np.ndarray) -> VerifyResult:
        """The dual LP on the lambda columns of rows, then mu_lo, mu_hi and
        nu, grown by pricing all n rows (module docstring).  An optimum goes
        to ``_checked_optimum``; an unbounded run is NOT_EPS_ARGMAXABLE
        through ``farkas``, or on HiGHS's word when rows are all n rows; a
        run that fails is INDETERMINATE with its reason."""
        w, cfg, highs, status = self.w, self.cfg, self.highs, self.core.HighsStatus
        d, block = w.d, _ROWGEN_BLOCK * w.d
        tail = np.arange(w.n, self.cost.size)  # mu_lo, mu_hi and nu
        sign, cols = np.r_[-y.signs, 1], np.concatenate((rows, tail))
        run = self.solve(self._model(sign, cols))
        while run.duals is not None:
            x, eps = run.duals[:d], run.duals[d]
            price = y.signs * (w.entries @ x) - eps * w.row_norms
            price[cols[cols < w.n]] = np.inf
            short = np.flatnonzero(price < -cfg.solver_feas_tol)
            if short.size == 0:
                return _checked_optimum(w, y, x, cfg)
            add = short[np.argsort(price[short], kind="stable")[:block]]
            cols = np.r_[cols, add]
            start, index, value = self._cut(sign, add)
            zeros, inf = np.zeros(add.size), np.full(add.size, np.inf)
            # addCols warns, as passModel does, when it drops entries below
            # HiGHS's small_matrix_value (1e-9).
            added = highs.addCols(
                add.size, zeros, zeros, inf, value.size, start, index, value
            )
            if added == status.kError:
                return _undecided("HiGHS refused addCols")
            run = self.solve(None)
        if run.reason is not None:
            return _undecided(run.reason)
        if rows.size == w.n:
            return VerifyResult(VerifyStatus.NOT_EPS_ARGMAXABLE)
        return self.farkas(y, cols)

    def farkas(self, y: LabelAssignment, cols: np.ndarray) -> VerifyResult:
        """NOT_EPS_ARGMAXABLE when the primal ray of the unbounded run just
        ended over the stored columns cols, read as lambda on those below n,
        passes ``_checked_ray``; otherwise INDETERMINATE."""
        no_ray = _undecided("HiGHS's primal ray proves nothing")
        try:
            status, has_ray, ray = self.highs.getPrimalRay()
        except (AttributeError, RuntimeError, TypeError, ValueError):
            return no_ray  # a binding without the call, or of another shape
        if status == self.core.HighsStatus.kError or not has_ray:
            return no_ray
        ray, keep = np.asarray(ray, dtype=np.float64), cols < self.w.n
        if ray.shape != cols.shape:
            return no_ray
        return _checked_ray(self.w, y, cols[keep], ray[keep], self.cfg) or no_ray

    def solve(self, lp) -> _Run:
        """One cold dual simplex run of lp, or with lp None a primal simplex
        run of the model HiGHS holds from its kept basis, which the columns
        added since (at 0) leave feasible; a refused option or a raised
        exception is the run's reason."""
        if self.refused:
            return _Run(reason="HiGHS refused option " + ", ".join(self.refused))
        strategy = 1 if lp is not None else 4
        status = self.highs.setOptionValue("simplex_strategy", strategy)
        if status != self.core.HighsStatus.kOk:
            return _Run(reason=f"HiGHS refused option simplex_strategy={strategy}")
        try:
            return self.run(lp)
        except Exception as exc:  # solver blow-ups become Indeterminate, not lies
            return _Run(reason=f"solver raised {type(exc).__name__}: {exc}")

    def run(self, lp) -> _Run:
        """Pass lp to HiGHS (unless lp is None), solve it and read HiGHS's
        model status; a model passModel refuses is a model error, and a
        reason names a run() that returned kError."""
        core, highs = self.core, self.highs
        model, failed = core.HighsModelStatus.kModelError, False
        if lp is None or highs.passModel(*lp) != core.HighsStatus.kError:
            failed = highs.run() == core.HighsStatus.kError
            model = highs.getModelStatus()
        if model == core.HighsModelStatus.kUnbounded:
            return _Run(unbounded=True)
        if model != core.HighsModelStatus.kOptimal:
            head = "HiGHS run error: " if failed else "HiGHS: "
            return _Run(reason=head + highs.modelStatusToString(model))
        return _Run(np.array(highs.getSolution().row_dual))


def _undecided(reason: str) -> VerifyResult:
    """An INDETERMINATE result with reason."""
    return VerifyResult(VerifyStatus.INDETERMINATE, reason=reason)


def _checked_optimum(
    w: WeightMatrix, y: LabelAssignment, x: np.ndarray, cfg: LpConfig
) -> VerifyResult:
    """The verdict on HiGHS's witness x, scaled into the box: ARGMAXABLE
    with that witness when a rounding-proof lower bound on its own margin
    reaches eps_floor, with the bound as its radius; otherwise
    INDETERMINATE, with the bound in the reason.

    The bound: write u = 2^-53 and gamma_k = k u / (1 - k u).  For row i
    let s = w_i . x exactly, t = sum_j |w_ij x_j| <= ||w_i|| ||x||, and
    m = y_i s / ||w_i|| the exact margin.  The computed margin is
    mh = fl(fl(y_i fl(w_i . x)) / fl(||w_i||)).

    * fl(w_i . x) = s + e with |e| <= gamma_d t, in any summation order,
      with or without FMA (Higham, *Accuracy and Stability of Numerical
      Algorithms*, ch. 3); the sign flip is exact.
    * fl(||w_i||) = ||w_i|| (1 + theta_d)^(1/2) (1 + delta) with
      |theta_d| <= gamma_d, and the quotient rounds once more, so
      mh = (m + y_i e / ||w_i||) (1 + theta) with |theta| <= gamma_{d+2}.
    * So m >= mh / (1 + theta) - gamma_d ||x||, which for mh >= 0 is at
      least mh (1 - gamma_{d+2}) - gamma_d sqrt(d) max_j |x_j|.

    * Since (1 - gamma_{d+2}) > 0, the smallest mh over the n rows gives
      the bound for all of them.

    The code subtracts g (mh + sqrt(d) max_j |x_j|) from that smallest mh,
    with g = fl(gamma_{d+4}), and compares with eps_floor.  The five
    roundings of that bound shrink it by a factor of at least (1 - u)^4,
    which costs O(d u^2) relative, while g's two spare units of u add
    ~2 u mh: enough to cover the u eps_floor lost to the rounding of the
    final subtraction, since mh >= eps_floor there: an accepted bound
    is at least eps_floor and at most the smallest mh, as it rounds
    mh - c for a charge c >= 0 and rounding is monotone.  When mh < 0
    the result is below zero, and a zero or nan witness gives 0 or nan,
    so none of these is accepted.
    """
    box, top = cfg.box_bound, float(np.max(np.abs(x)))
    if top > box:
        x = np.clip(x * (box / top), -box, box)
    d = w.d
    margin = float(np.min(y.signs * (w.entries @ x) / w.row_norms))
    g = _gamma(d + 4)
    lower = margin - g * (margin + math.sqrt(d) * float(np.max(np.abs(x))))
    if not lower >= cfg.eps_floor:
        reason = f"HiGHS witness margin {lower!r} is below eps_floor {cfg.eps_floor!r}"
        return VerifyResult(VerifyStatus.INDETERMINATE, reason=reason)
    return VerifyResult(VerifyStatus.ARGMAXABLE, radius=lower, witness=x)


def _checked_ray(
    w: WeightMatrix,
    y: LabelAssignment,
    rows: np.ndarray,
    lam: np.ndarray,
    cfg: LpConfig,
) -> Optional[VerifyResult]:
    """NOT_EPS_ARGMAXABLE when multipliers lam >= 0 on the given rows of w
    prove, with a rounding-proof upper bound, that no point in the box has
    radius eps_floor under y; otherwise None.  Entries of lam below 0 are
    taken as 0.

    The bound (Farkas; Neumaier & Shcherbina, *Math. Prog.* 99, 2004,
    §3): for the support S of lam, v = sum_S lam_i y_i w_i and
    T = sum_S lam_i ||w_i||, every (x, eps) with y_i w_i . x >= eps ||w_i||
    for all i and |x_j| <= box has eps T <= v . x <= box ||v||_1, so
    eps <= hi* = box ||v||_1 / T.  That holds for any lam >= 0, exact or
    not, so only the arithmetic below needs checking.  With u = 2^-53,
    gamma_k = k u / (1 - k u), m = |S|, and neither underflow nor
    overflow (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3; an overflow shows as an inf or nan, or as an infinite t, which
    is refused):

    * p = fl(sum_S lam_i y_i w_i) has |p_j - v_j| <= gamma_m sum_S
      lam_i |w_ij| in any summation order, with or without FMA, so
      ||v||_1 <= sum_j |p_j| + gamma_m sqrt(d) T.
    * s = fl(sum_j |p_j|) sums d terms >= 0: sum_j |p_j| <= s (1 - u)^-(d-1).
    * fl(||w_i||) <= ||w_i|| (1 + u)^(d/2 + 1) (squares, sum, square root),
      and t = fl(sum_S lam_i fl(||w_i||)) <= that sum times (1 + u)^m, so
      T >= t (1 + u)^-(m + d/2 + 1).
    * hi = fl(fl(box s) / t) >= (box s / t) (1 - u)^2.

    Since (1 + u) <= (1 - u)^-1 and (1 - u)^-k <= 1 + gamma_k,
    hi* <= hi (1 + gamma_{m+2d+2}) + gamma_m sqrt(d) box.  The code
    charges hi (1 + gamma_{m+2d+6}) + gamma_{m+2} sqrt(d) box.  Computing
    the two gammas and that sum rounds eight times, each time by a factor
    of at least 1 - u, which costs at most 3 u hi on the first term and a
    relative 5 u on the second; the four spare units of u in the first
    gamma add at least 4 u hi, and the two in the second a relative 2 / m.
    The item is NOT_EPS_ARGMAXABLE only when the result is below
    eps_floor; a nan or inf anywhere fails that test.
    """
    support = lam > 0.0
    rows, lam = rows[support], lam[support]
    m, d, box = lam.size, w.d, cfg.box_bound
    p = (lam * y.signs[rows]) @ w.entries[rows]
    t = float(lam @ w.row_norms[rows])
    if not 0.0 < t < math.inf:  # an overflowed t would make hi 0
        return None
    hi = box * float(np.sum(np.abs(p))) / t
    upper = hi * (1.0 + _gamma(m + 2 * d + 6)) + _gamma(m + 2) * math.sqrt(d) * box
    if not upper < cfg.eps_floor:
        return None
    return VerifyResult(VerifyStatus.NOT_EPS_ARGMAXABLE)


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
    decided without an LP (module docstring).  Every other item gets one
    Chebyshev LP, and each worker thread builds its own session on its
    first item.
    """
    for i, y in enumerate(ys):
        if y.n != w.n:
            raise ValueError(f"item {i} has n={y.n}, matrix has n={w.n}")
    over = {i for i, y in enumerate(ys) if alt(y) > w.d - 1}
    if over and not _decided_by_alternation(w, cfg):
        over = set()
    todo = [y for i, y in enumerate(ys) if i not in over]
    local = threading.local()

    def one(y: LabelAssignment) -> VerifyResult:
        if not hasattr(local, "session"):
            local.session = _Session(w, cfg)
        return chebyshev_verify(w, y, cfg, session=local.session)

    if jobs > 1 and len(todo) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            solved = iter(tuple(pool.map(one, todo)))
    else:
        solved = map(one, todo)
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
    if not radii:
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
    count = len(sorted_values)
    rank = max(1, math.ceil(percentile * count / 100.0))
    return float(sorted_values[min(rank, count) - 1])
