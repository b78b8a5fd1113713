"""Two-phase tableau simplex with deterministic pivoting.

This is the computational backbone for every polyhedral evaluation in the
package: risk measures, shared capital requirements, no-arbitrage probes,
scalability detection, and subgradient extraction all reduce to small
linear programs solved here.  The tableau is a dense array, but a pivot
updates only the rows where the pivot column is nonzero, one row at a
time: the sharing LPs' columns hold two or three nonzeros, so a pivot costs
a few row operations, not a pass over the tableau.  The standard form's
columns are built by indexing (a variable's entries, signed), not by a
product with the expansion matrix, and hold the product's bits.

Conventions
-----------
* Problems are stated as  minimize c.x  subject to  rows {<=,=,>=} rhs  and
  per-variable bounds (either side possibly infinite).
* Reported duals are shadow prices: one multiplier per constraint row equal
  to the derivative of the optimal value with respect to that row's
  right-hand side (so the dual of an equality row can take either sign,
  '<=' rows have non-positive duals and '>=' rows non-negative ones in a
  minimization).
* Pivot choice is largest-coefficient with first-index tie-breaking; after
  a run of degenerate pivots the solver switches to Bland's rule, which
  guarantees termination.  Identical inputs therefore produce bitwise
  identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure, StructuralError

__all__ = ["LpProblem", "LpSolution", "LpBatch", "solve", "solve_batch",
           "null_space"]

# ----------------------------------------------------------------------
# tolerances (relative use documented at each site)
# ----------------------------------------------------------------------
FEAS_TOL = 1e-9          # feasibility decisions
PHASE1_TOL = 1e-7        # absolute infeasibility cut on the phase-1 optimum
OPT_TOL = 1e-9           # reduced-cost optimality threshold
PIVOT_TOL = 1e-9         # smallest acceptable pivot magnitude
RANK_TOL = 1e-10         # rank decisions, relative to row norms
CERT_TOL = 1e-8          # certificate residuals promised to callers
DEGENERATE_RUN = 12      # consecutive degenerate pivots before Bland's rule

LE, EQ, GE = "<=", "=", ">="
# sign of a row's violation a.x - rhs; an equality row violates by |a.x - rhs|
_SENSE_SIGN = {LE: 1.0, GE: -1.0, EQ: 0.0}


@dataclass
class LpProblem:
    """minimize c.x  s.t.  rows[i] . x  (senses[i])  rhs[i],  lower <= x <= upper."""

    c: np.ndarray
    rows: np.ndarray
    senses: list
    rhs: np.ndarray
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, n)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.senses = list(self.senses)
        m = self.rows.shape[0]
        if self.rhs.shape != (m,) or len(self.senses) != m:
            raise StructuralError("constraint rows, senses and rhs must align")
        if not np.all(np.isfinite(self.rhs)):
            raise StructuralError("right-hand sides must be finite")
        if not np.all(np.isfinite(self.c)):
            raise StructuralError("objective coefficients must be finite")
        if not np.all(np.isfinite(self.rows)):
            raise StructuralError("constraint coefficients must be finite")
        for s in self.senses:
            if s not in (LE, EQ, GE):
                raise StructuralError(f"unknown row sense {s!r}")
        if self.lower is None:
            self.lower = np.zeros(n)
        else:
            self.lower = np.asarray(self.lower, dtype=float)
        if self.upper is None:
            self.upper = np.full(n, math.inf)
        else:
            self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise StructuralError("bounds must match the number of variables")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise StructuralError("bounds must not be NaN (infinite is free)")


@dataclass
class LpSolution:
    status: str                      # "optimal" | "unbounded" | "infeasible"
    primal: np.ndarray = None
    duals: np.ndarray = None         # one shadow price per original row
    objective_value: float = math.nan
    ray: np.ndarray = None           # feasible ray when unbounded
    iterations: int = 0
    residuals: dict = field(default_factory=dict)
    degenerate: bool = False         # optimal basis has a zero basic value
                                     # (the dual solution may be non-unique)
    basis: tuple = None              # optimal basis of the standard form:
                                     # (kept rows, basic columns)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


# ======================================================================
# standardization:  x = shift + M y,  y >= 0;  rows -> equalities
# ======================================================================

class _Expansion(NamedTuple):
    """x = shift + M y with y >= 0, and M as index arrays: column k of M
    holds sign[k] in row var[k], and first[j] is variable j's first column.
    A variable with a finite lower bound gets a + column shifted by that
    bound, one with only a finite upper bound a - column shifted by it, and
    a free one a + column and a - column after it.  A doubly bounded
    variable's column is listed in ext_cols, with its width upper - lower,
    for the extra row y_k <= width."""

    shift: np.ndarray
    var: np.ndarray
    sign: np.ndarray
    first: np.ndarray
    ext_cols: list
    widths: list


def _expand_variables(p: LpProblem):
    """The expansion of p's variables; None when some lower bound exceeds
    its upper bound."""
    shift, var, sign, first, ext_cols, widths = [], [], [], [], [], []
    for j, (lo, hi) in enumerate(zip(p.lower.tolist(), p.upper.tolist())):
        if lo > hi + FEAS_TOL:
            return None
        first.append(len(var))
        if math.isfinite(lo):
            shift.append(lo)
            var.append(j)
            sign.append(1.0)
            if math.isfinite(hi):
                ext_cols.append(first[-1])
                widths.append(hi - lo)
        elif math.isfinite(hi):
            shift.append(hi)
            var.append(j)
            sign.append(-1.0)
        else:
            shift.append(0.0)
            var += [j, j]
            sign += [1.0, -1.0]
    return _Expansion(np.array(shift, dtype=float), np.array(var, dtype=np.intp),
                      np.array(sign), np.array(first, dtype=np.intp),
                      ext_cols, widths)


def _product(e: _Expansion, y):
    """M y along the last axis of y, bit for bit the matrix product: a
    column's signed value, or the sum of a free variable's two signed
    columns, and +0.0 wherever that is zero."""
    return np.add.reduceat(y * e.sign, e.first, axis=-1) + 0.0


def _standardize(p: LpProblem):
    """Return (A, b, c, flips, slack_sign, expansion, const) with A y = b,
    y >= 0, b >= 0 and objective c.y + const.  The rows of A are p's rows,
    then one <= row per doubly bounded variable.  A row that is not an
    equality gets the next slack column, with coefficient slack_sign[i]
    (0.0 for an equality), before row i is multiplied by flips[i] = -1.0
    where its right-hand side is negative."""
    e = _expand_variables(p)
    if e is None:
        return None
    n_orig, n_y, n_ext = p.rows.shape[0], e.var.shape[0], len(e.ext_cols)
    m = n_orig + n_ext
    slack_sign = [_SENSE_SIGN[s] for s in p.senses] + [1.0] * n_ext
    slack_rows = [i for i, s in enumerate(slack_sign) if s]
    N = n_y + len(slack_rows)
    # A and c start with the products p.rows @ M and p.c @ M, by indexing:
    # +0.0 turns the -0.0 a signed copy can hold into the +0.0 every zero
    # of the product is
    A = np.zeros((m, N))
    Ay = A[:n_orig, :n_y]
    # every index is valid; mode="wrap" writes into the view unbuffered
    np.take(p.rows, e.var, axis=1, out=Ay, mode="wrap")
    Ay *= e.sign
    Ay += 0.0
    c = np.zeros(N)
    c[:n_y] = p.c[e.var] * e.sign + 0.0
    b = p.rhs - p.rows @ e.shift
    if n_ext:
        A[range(n_orig, m), e.ext_cols] = 1.0
        b = np.concatenate([b, e.widths])
    if slack_rows:
        A.flat[[i * N + k for k, i in enumerate(slack_rows, n_y)]] = [
            slack_sign[i] for i in slack_rows]
    # multiplying by 1.0 changes no bit
    flips = np.where(b < 0, -1.0, 1.0)
    A *= flips[:, None]
    b *= flips
    return A, b, c, flips, slack_sign, e, float(p.c @ e.shift)


# ======================================================================
# tableau simplex
# ======================================================================

def _pivot(T: np.ndarray, i: int, j: int):
    """Pivot on T[i, j]; a row that is zero in column j stays as it is."""
    piv_row = T[i] / T[i, j]
    col = T[:, j]
    nz = col.nonzero()[0]
    for r, v in zip(nz.tolist(), col[nz].tolist()):
        if r != i:
            row = T[r]
            row -= v * piv_row
    T[i] = piv_row


def _run_simplex(T, basis, cap, it0=0):
    """Iterate on tableau T (cost row last, rhs column last) until optimal
    or unbounded.  Returns (status, entering_or_None, iters)."""
    bland = False
    degen_run = 0
    it = it0
    cost, rhs = T[-1, :-1], T[:-1, -1]
    while True:
        it += 1
        if it > cap:
            raise NumericalFailure(
                f"simplex iteration cap {cap} exceeded (anti-cycling active: {bland})"
            )
        if bland:
            negs = (cost < -OPT_TOL).nonzero()[0]
            if not negs.size:
                return "optimal", None, it
            j = int(negs[0])
        else:
            j = int(cost.argmin())
            if cost[j] >= -OPT_TOL:
                return "optimal", None, it
        col = T[:-1, j]
        pos = (col > PIVOT_TOL).nonzero()[0]
        if not pos.size:
            return "unbounded", j, it
        if pos.size == 1:
            i = int(pos[0])
        else:
            ratios = rhs[pos] / col[pos]
            ties = pos[ratios <= ratios.min() + 1e-12]
            if bland:
                i = int(ties[np.argmin(np.asarray(basis)[ties])])
            else:
                i = int(ties[0])
        if rhs[i] <= 1e-11:
            degen_run += 1
            if degen_run > DEGENERATE_RUN:
                bland = True
        else:
            degen_run = 0
        _pivot(T, i, j)
        basis[i] = j


def solve(p: LpProblem, max_iterations: int = None) -> LpSolution:
    """Two-phase simplex.  Deterministic; raises NumericalFailure rather
    than returning an uncertified answer."""
    std = _standardize(p)
    if std is None:
        return LpSolution(status="infeasible", objective_value=math.inf)
    A, b, c, flips, slack_sign, expansion, const = std
    m, N = A.shape
    n_y = expansion.var.shape[0]
    cap = max_iterations or (2000 + 200 * (m + N))

    # ---------------- phase 1 ----------------
    # a slack whose coefficient stays +1 after the flip starts basic; every
    # other row gets an artificial column
    basis, art_rows = [], []
    sl = n_y
    for i, (s, f) in enumerate(zip(slack_sign, flips.tolist())):
        if s * f > 0.0:
            basis.append(sl)
        else:
            basis.append(N + len(art_rows))
            art_rows.append(i)
        if s:
            sl += 1
    n_art = len(art_rows)
    T = np.zeros((m + 1, N + n_art + 1))
    T[:m, :N] = A
    T[:m, -1] = b
    T.flat[[i * T.shape[1] + k for k, i in enumerate(art_rows, N)]] = 1.0
    # phase-1 cost: sum of artificials, canonicalized row by row
    cost = T[-1]
    cost[N:N + n_art] = 1.0
    for i in art_rows:
        cost -= T[i]
    status, _, iters = _run_simplex(T, basis, cap)
    # the phase-1 optimum is the sum of the basic artificials, read from
    # their own rows: the cost row's value equals it in exact arithmetic but
    # also carries the rounding of every artificial row subtracted from it,
    # which grows with b (2.0 at b = 6e15 where every artificial is nonbasic)
    if T[[i for i, j in enumerate(basis) if j >= N], -1].sum() > PHASE1_TOL:
        return LpSolution(status="infeasible", objective_value=math.inf,
                          iterations=iters)

    # drive leftover artificials out of the basis
    drop_rows = []
    for i in range(m):
        if basis[i] >= N:
            row = T[i, :N]
            nz = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
            if nz.size == 0:
                drop_rows.append(i)          # redundant constraint
            else:
                _pivot(T, i, int(nz[0]))
                basis[i] = int(nz[0])
    if drop_rows:
        keep = [i for i in range(m) if i not in drop_rows]
        T = np.vstack([T[keep], T[-1:]])
        basis = [basis[i] for i in keep]
        row_map = keep
        m = len(keep)
    else:
        row_map = list(range(m))

    # ---------------- phase 2 ----------------
    # in T's first N + 1 columns, with the rhs moved to column N
    T[:, N] = T[:, -1]
    T2 = T[:, :N + 1]
    T2[-1, :N] = c
    T2[-1, -1] = 0.0
    # basic columns are unit columns, so the cost of a basic column stays
    # c[basis[i]] until row i is subtracted; a zero one would only flip the
    # signs of zeros in the cost row
    cost = T2[-1]
    cb = c[basis].tolist()
    for i, ci in enumerate(cb):
        if ci != 0.0:
            cost -= ci * T2[i]
    status, entering, iters = _run_simplex(T2, basis, cap, it0=iters)

    if status == "unbounded":
        d = np.zeros(N)
        d[entering] = 1.0
        col = -T2[:m, entering]
        d[basis] = np.where(col > 0.0, col, 0.0)
        return LpSolution(status="unbounded", objective_value=-math.inf,
                          ray=_product(expansion, d[:n_y]), iterations=iters)

    y_std = np.zeros(N)
    y_std[basis] = T2[:m, -1]
    x = expansion.shift + _product(expansion, y_std[:n_y])
    obj = float(c @ y_std) + const

    duals = _recover_duals(A, c, basis, row_map, flips, p.rows.shape[0])
    degen = bool(m and float(np.min(T2[:m, -1])) <= 1e-11)
    residuals, passed = _certify(p, p.rhs[None, :], x[None, :],
                                 np.array([obj]), duals)
    if not passed[0]:
        raise _lost_certificate(residuals, 0)
    return LpSolution(status="optimal", primal=x, duals=duals,
                      objective_value=obj, iterations=iters,
                      residuals={k: float(v[0]) for k, v in residuals.items()},
                      degenerate=degen,
                      basis=(row_map, basis))


def _recover_duals(A, c, basis, row_map, flips, n_orig):
    """Solve B^T y = c_B on the kept rows; dropped (redundant) rows get 0."""
    duals = np.zeros(n_orig)
    if not basis:
        return duals
    rows = np.asarray(row_map)
    B = A[rows[:, None], basis]
    cB = c[basis]
    try:
        y = np.linalg.solve(B.T, cB)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(B.T, cB, rcond=None)
    orig = rows < n_orig
    duals[rows[orig]] = flips[rows[orig]] * y[orig]
    return duals


def _certify(p: LpProblem, rhs, x, obj, duals):
    """Check the optimality certificates promised by the solution type for
    each row of x (N, n), with objective values obj (N,), right-hand sides
    rhs (N, rows) and shadow prices duals (rows,): primal feasibility,
    complementary slackness, and zero duality gap, all within 1e-8
    (relative to the instance scale).  Returns the residuals, one per row,
    and the mask of rows whose certificate holds."""
    scale = 1.0 + np.abs(np.concatenate([rhs, x, obj[:, None]], axis=1)).max(
        axis=1)
    sign = np.array([_SENSE_SIGN[s] for s in p.senses])
    gap = x @ p.rows.T - rhs
    viol = np.where(sign == 0.0, np.abs(gap), sign * gap)
    feas = np.concatenate([viol, p.lower - x, x - p.upper], axis=1).max(
        axis=1, initial=0.0)
    comp = np.abs(duals * gap).max(axis=1, initial=0.0)
    # reduced costs at the bounds close the duality gap
    red = p.c - duals @ p.rows
    # (an infinite bound is never within 1e-7 of x)
    at = np.where(np.abs(x - p.lower) <= 1e-7, p.lower, 0.0)
    at = np.where(np.abs(x - p.upper) <= 1e-7, p.upper, at)
    dual_obj = ((duals * rhs).sum(axis=1)
                + at @ np.where(np.abs(red) > 1e-9, red, 0.0))
    gap = np.abs(dual_obj - obj)
    residuals = {"feasibility": feas, "complementarity": comp,
                 "duality_gap": gap}
    return residuals, (feas <= CERT_TOL * scale) & (gap <= CERT_TOL * scale * 10)


def _lost_certificate(residuals, k: int) -> NumericalFailure:
    return NumericalFailure(
        f"lost optimality certificate: feasibility "
        f"{residuals['feasibility'][k]:.2e}, gap "
        f"{residuals['duality_gap'][k]:.2e}")


# ======================================================================
# batches of right-hand sides
# ======================================================================

@dataclass
class LpBatch:
    """solve_batch's answer, one entry per right-hand side."""

    status: list                     # "optimal" | "unbounded" | "infeasible"
    objective_value: np.ndarray      # +inf infeasible, -inf unbounded
    primal: np.ndarray               # one row per rhs; NaN where not optimal
    solves: int = 0                  # simplex runs; other rows were screened


def solve_batch(p: LpProblem, rhs) -> LpBatch:
    """solve(p) with each row of rhs (N, len(p.rhs)) as the right-hand side.

    An optimal basis stays dual feasible for every right-hand side, so it
    solves every row whose basic solution x_B = B^-1 b_k is feasible (Gal,
    Postoptimal Analyses, Parametric and Related Topics, 1979).  The first
    row no basis accepts is solved by `solve`; its optimal basis, once its
    reduced costs pass the optimality test, screens the rows still open.
    Rows that are infeasible or unbounded get their status from `solve`
    itself.  Screened rows carry the certificate `solve` checks (_certify,
    with the basis's shadow prices) and raise NumericalFailure where it
    fails, as `solve` does."""
    rhs = np.asarray(rhs, dtype=float)
    n_rows = p.rows.shape[0]
    if rhs.ndim != 2 or rhs.shape[1] != n_rows:
        raise StructuralError(
            f"right-hand sides must form an (N, {n_rows}) array")
    if not np.all(np.isfinite(rhs)):
        raise StructuralError("right-hand sides must be finite")
    N = rhs.shape[0]
    status = [None] * N
    objective = np.full(N, math.nan)
    primal = np.full((N, p.c.shape[0]), math.nan)
    std = _standardize(p)
    if std is not None:     # crossed bounds: every solve is infeasible
        A, b, c, flips, _, expansion, const = std
        shift, n_y = expansion.shift, expansion.var.shape[0]
        # back to the rows' own signs, which each rhs sets anew
        A = A * flips[:, None]
        b_all = np.repeat(b[None, :] * flips, N, axis=0)
        b_all[:, :n_rows] = rhs - p.rows @ shift
        # the two halves of a free variable may take either sign
        free = np.zeros(A.shape[1], dtype=bool)
        free[:n_y] = (np.isinf(p.lower) & np.isinf(p.upper))[expansion.var]
    pending = np.ones(N, dtype=bool)
    solves = 0
    while pending.any():
        k = int(np.argmax(pending))
        sol = solve(LpProblem(c=p.c, rows=p.rows, senses=p.senses, rhs=rhs[k],
                              lower=p.lower, upper=p.upper))
        solves += 1
        pending[k] = False
        status[k], objective[k] = sol.status, sol.objective_value
        if not sol.optimal:
            continue
        primal[k] = sol.primal
        idx = np.flatnonzero(pending)
        if not idx.size:
            break
        screened = _screen(A, b_all[idx], c, sol.basis, free)
        if screened is None:
            continue
        Y, accepted = screened
        idx, Y = idx[accepted], Y[accepted]
        x = shift + _product(expansion, Y[:, :n_y])
        obj = Y @ c + const
        residuals, passed = _certify(p, rhs[idx], x, obj, sol.duals)
        if not passed.all():
            raise _lost_certificate(residuals, int(np.argmin(passed)))
        for i in idx:
            status[i] = "optimal"
        objective[idx], primal[idx] = obj, x
        pending[idx] = False
    return LpBatch(status, objective, primal, solves)


def _screen(A, b_rows, c, basis, free):
    """The basic solutions of an optimal basis of A y = b, y >= 0 for the
    right-hand sides b_rows (one per row, signs as they come), and the mask
    of rows where they are feasible: every basic value with a sign
    constraint >= -FEAS_TOL (1 + max |b_k|), and the rows the simplex
    dropped as redundant still met within that tolerance.  The tolerance
    never exceeds solve's absolute phase-1 cut PHASE1_TOL, so a row that
    solve would call infeasible is never screened as feasible however
    large b_k is.  Flipping a row negates it in B and in b_k and leaves
    x_B unchanged.  None when B is singular or its reduced costs fail the
    optimality test."""
    rows, cols = basis
    Bm = A[np.ix_(rows, cols)]
    try:
        y = np.linalg.solve(Bm.T, c[cols])
        xB = np.linalg.solve(Bm, b_rows[:, rows].T).T
    except np.linalg.LinAlgError:
        return None
    if np.min(c - A[rows].T @ y, initial=0.0) < -OPT_TOL * (
            1.0 + float(np.max(np.abs(c), initial=0.0))):
        return None
    Y = np.zeros((b_rows.shape[0], A.shape[1]))
    Y[:, cols] = xB
    tol = np.minimum(
        FEAS_TOL * (1.0 + np.max(np.abs(b_rows), axis=1, initial=0.0)),
        PHASE1_TOL)
    dropped = np.setdiff1d(np.arange(A.shape[0]), rows)
    off = np.abs(Y @ A[dropped].T - b_rows[:, dropped])
    accepted = (np.all((xB >= -tol[:, None]) | free[cols], axis=1)
                & np.all(off <= tol[:, None], axis=1))
    return Y, accepted


# ======================================================================
# null spaces
# ======================================================================

def null_space(A) -> np.ndarray:
    """Orthonormal basis (columns) of {v : A v = 0}.

    The basis is the trailing right singular vectors of NumPy's full SVD,
    with rank decided at 1e-10 relative to the largest singular value.
    Columns are sign-canonicalized (first entry of largest magnitude made
    positive) so repeated calls are deterministic.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0 or A.shape[0] == 0:
        k = A.shape[1] if A.ndim == 2 else 0
        return np.eye(k)
    _, sv, vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(sv > sv.max() * RANK_TOL))
    ns = vh[rank:].T
    for j in range(ns.shape[1]):
        col = ns[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            ns[:, j] = -col
    return ns
