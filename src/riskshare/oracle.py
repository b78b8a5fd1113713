"""Brute-force baselines for small instances.

Everything here re-derives solver outputs by exhaustive search so the two
can be compared: the aggregate requirement as a grid minimum of per-agent
requirement sums (with a Lipschitz modulus turning the grid value into a
certified bracket), Pareto optimality as the absence of a dominating grid
allocation, and subgradients against central differences.

Restricted to two agents and at most four scenarios; beyond that the
duality certificates in the solver modules are the intended evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import market
from .errors import DomainError, GridRefusal, StructuralError
from .regime import (
    PolyhedralAcceptanceSet,
    RiskValue,
    _rho_value,
    rho,
    rho_batch,
)
from .scenario import Functional, RandomVariable

__all__ = [
    "GridSpec",
    "BruteLambda",
    "ParetoCheck",
    "FdCheck",
    "brute_lambda",
    "verify_pareto",
    "fd_subgradient_check",
]

POINT_CAP = 10 ** 7
CHUNK = 200_000
WORSEN_TOL = 1e-9
KINK_TOL = 1e-3
FD_STEP = 1e-5


@dataclass(frozen=True)
class GridSpec:
    """A monetary box with a common resolution: coordinate i sweeps
    lower[i], lower[i] + h, ... up to upper[i]."""

    lower: np.ndarray
    upper: np.ndarray
    h: float

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise StructuralError("grid bounds must be two aligned vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise StructuralError("grid bounds must be finite")
        if np.any(hi < lo):
            raise StructuralError("grid upper bounds below lower bounds")
        if not self.h > 0:
            raise StructuralError("grid resolution must be positive")
        total = 1
        for c in self.counts:
            total *= c
            if total > POINT_CAP:
                raise GridRefusal(
                    f"grid would exceed {POINT_CAP:.0e} points; "
                    "coarsen h or shrink the box"
                )

    @property
    def counts(self) -> tuple:
        return tuple(
            int(math.floor((u - l) / self.h + 1e-9)) + 1
            for l, u in zip(self.lower, self.upper)
        )

    def axis(self, i: int) -> np.ndarray:
        return self.lower[i] + self.h * np.arange(self.counts[i])

    @classmethod
    def around(cls, X: RandomVariable, margin: float, h: float) -> "GridSpec":
        return cls(X.values - margin, X.values + margin, h)


# ----------------------------------------------------------------------
# the grid itself
# ----------------------------------------------------------------------

def _two_agents(s):
    if len(s.regimes) != 2:
        raise StructuralError("brute-force baselines cover two agents only")
    if s.space.size > 4:
        raise StructuralError("brute-force baselines cover <= 4 scenarios")
    return s.regimes


def _forced_first_part(s, X):
    """Support membership pins every coordinate outside the overlap: the
    first agent owns what the second cannot hold and vice versa.  Returns
    (template row, free coordinate indices) or None when some loss falls
    outside both supports."""
    r1, r2 = s.regimes
    in1, in2 = r1.support.included, r2.support.included
    x1 = np.zeros(s.space.size)
    free = []
    for w in range(s.space.size):
        if in1[w] and in2[w]:
            free.append(w)
        elif in1[w]:
            x1[w] = X.values[w]
        elif not in2[w] and X.values[w] != 0.0:
            return None
    return x1, free


def _grid_chunks(g, template, free):
    axes = [g.axis(w) for w in free]
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    flat = [m.reshape(-1) for m in mesh]
    total = flat[0].size if flat else 1
    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        rows = np.tile(template, (stop - start, 1))
        for j, w in enumerate(free):
            rows[:, w] = flat[j][start:stop]
        yield rows


def _lipschitz(r) -> float:
    """Sup-norm Lipschitz constant of the agent's requirement: the total
    dual mass the acceptance functionals can exert (polyhedral), or the
    price of cash (law-invariant with a traded unit)."""
    if isinstance(r.acceptance, PolyhedralAcceptanceSet):
        return float(np.abs(r.acceptance.weight_matrix()).sum())
    u = r.market.coefficients_of(np.ones(r.space.size))
    if u is None:
        raise StructuralError(
            "Lipschitz modulus needs the unit payoff in the market span"
        )
    return abs(r.market.price(u))


@dataclass
class BruteLambda:
    estimate: RiskValue
    modulus: float                   # grid-to-optimum error allowance
    lipschitz: tuple
    points: int
    best_allocation: market.Allocation = None

    def bracket(self) -> tuple:
        v = self.estimate.as_float()
        return (v - self.modulus, v)


def brute_lambda(s: market.AgentSystem, X: RandomVariable,
                 g: GridSpec) -> BruteLambda:
    """Exhaustive two-agent requirement: sweep the overlap coordinates of
    the first part over the grid, charge each agent its own requirement,
    and keep the minimum.  Every grid point is a feasible decomposition,
    so the estimate is an upper bound; the Lipschitz modulus extends it
    to the bracket [estimate - modulus, estimate] whenever the box holds
    an optimal first part."""
    r1, r2 = _two_agents(s)
    if X.space.labels != s.space.labels:
        raise StructuralError("loss profile on a different scenario space")
    if g.lower.shape[0] != s.space.size:
        raise StructuralError("grid bounds must cover every scenario")
    L = (_lipschitz(r1), _lipschitz(r2))
    modulus = sum(L) * g.h / 2.0

    forced = _forced_first_part(s, X)
    if forced is None:
        return BruteLambda(RiskValue.infinite(), modulus, L, 0)
    template, free = forced

    best = math.inf
    best_row = None
    points = 0
    for rows in _grid_chunks(g, template, free):
        risks = (rho_batch(r1, rows)
                 + rho_batch(r2, X.values[None, :] - rows))
        points += rows.shape[0]
        k = int(np.argmin(risks))
        if risks[k] < best:
            best = float(risks[k])
            best_row = rows[k].copy()
    if not math.isfinite(best):
        return BruteLambda(RiskValue.infinite(), modulus, L, points)
    alloc = market.Allocation((
        RandomVariable(s.space, best_row),
        RandomVariable(s.space, X.values - best_row),
    ))
    return BruteLambda(RiskValue.finite(best), modulus, L, points, alloc)


# ----------------------------------------------------------------------
# Pareto domination sweep
# ----------------------------------------------------------------------

@dataclass
class ParetoCheck:
    pareto: bool
    base_risks: tuple
    modulus: float
    witness: market.Allocation = None
    witness_risks: tuple = None


def verify_pareto(s: market.AgentSystem, X: RandomVariable,
                  alloc: market.Allocation, g: GridSpec) -> ParetoCheck:
    """Search the grid for an allocation that improves one agent by more
    than the modulus without worsening the other.  Finding none certifies
    Pareto optimality at the grid's resolution; a find is returned as an
    explicit dominating witness."""
    r1, r2 = _two_agents(s)
    if np.max(np.abs(alloc.total() - X.values)) > 1e-9:
        raise StructuralError("allocation does not sum to the loss profile")
    L = (_lipschitz(r1), _lipschitz(r2))
    modulus = sum(L) * g.h / 2.0
    base = []
    for r, part in zip(s.regimes, alloc.parts):
        try:
            res = rho(r, part)
        except DomainError:          # the part leaves the agent's support
            base.append(math.inf)
        else:
            base.append(_rho_value(res))

    forced = _forced_first_part(s, X)
    if forced is None:
        return ParetoCheck(True, tuple(base), modulus)
    template, free = forced

    for rows in _grid_chunks(g, template, free):
        u = rho_batch(r1, rows)
        v = rho_batch(r2, X.values[None, :] - rows)
        no_worse = (u <= base[0] + WORSEN_TOL) & (v <= base[1] + WORSEN_TOL)
        better = (base[0] - u > modulus) | (base[1] - v > modulus)
        hits = np.flatnonzero(no_worse & better)
        if hits.size:
            k = int(hits[0])
            witness = market.Allocation((
                RandomVariable(s.space, rows[k].copy()),
                RandomVariable(s.space, X.values - rows[k]),
            ))
            return ParetoCheck(False, tuple(base), modulus, witness,
                               (float(u[k]), float(v[k])))
    return ParetoCheck(True, tuple(base), modulus)


# ----------------------------------------------------------------------
# finite-difference subgradient check
# ----------------------------------------------------------------------

@dataclass
class FdCheck:
    mode: str                        # "smooth" | "kink"
    passed: bool
    max_relative_error: float = math.nan
    min_inequality_gap: float = math.nan
    kink_coords: tuple = ()


def fd_subgradient_check(s: market.AgentSystem, X: RandomVariable,
                         phi: Functional) -> FdCheck:
    """Central differences of step FD_STEP of the requirement against
    phi's weights.  A jump between one-sided slopes marks a kink; there
    the derivative is meaningless and the check falls back to the
    subgradient inequality on a deterministic sample of nearby profiles.  The base point and its
    2m neighbours are one lambda_batch, the 6m sample profiles another,
    made only at a kink."""
    m = s.space.size
    lam = market.lambda_batch(s, np.vstack([
        X.values[None, :],
        market._coordinate_moves(X.values, np.tile(np.arange(m), 2),
                                 np.repeat([FD_STEP, -FD_STEP], m))]))
    base = lam[0]
    if not math.isfinite(base):
        raise DomainError("requirement infinite at the expansion point")
    lu, ld = lam[1:m + 1], lam[m + 1:]
    if not (np.all(np.isfinite(lu)) and np.all(np.isfinite(ld))):
        raise DomainError(
            "requirement infinite next to the expansion point; no "
            "coordinate neighborhood to difference over"
        )
    fwd = (lu - base) / FD_STEP
    bwd = (base - ld) / FD_STEP

    scale = 1.0 + np.maximum(np.abs(fwd), np.abs(bwd))
    kinks = tuple(np.flatnonzero(np.abs(fwd - bwd) > KINK_TOL * scale))
    if not kinks:
        central = 0.5 * (fwd + bwd)
        err = np.abs(central - phi.weights) / np.maximum(
            1.0, np.abs(phi.weights))
        worst = float(np.max(err))
        return FdCheck("smooth", worst <= 1e-4, max_relative_error=worst)

    steps = np.outer([0.01, 0.1, 1.0], [+1.0, -1.0]).ravel()
    sample = market._coordinate_moves(
        X.values, np.repeat(np.arange(m), steps.size), np.tile(steps, m))
    ly = market.lambda_batch(s, sample)
    finite = np.isfinite(ly)
    gap = float(np.min(ly[finite] - base
                       - (sample[finite] - X.values) @ phi.weights,
                       initial=math.inf))
    return FdCheck("kink", gap >= -1e-8, min_inequality_gap=gap,
                   kink_coords=kinks)
