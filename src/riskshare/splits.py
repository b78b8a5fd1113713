"""Optimal group size under transaction costs.

Splitting a loss profile across more subsidiaries never increases the
aggregate requirement, so without friction the group would grow without
bound.  A non-decreasing setup cost per subsidiary restores a finite
trade-off: minimize requirement(n) + cost(n) over the number of agents n.
The sweep stops early once a certified lower bound on every remaining
objective exceeds the incumbent, or at the hard cap otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import market
from .errors import DomainError, StructuralError
from .regime import (
    RiskMeasurementRegime,
    ValidationReport,
    _price_deviation,
    _price_scale,
    _rho_value,
    _support_value,
    conjugate,
    rho,
)
from .scenario import Functional, RandomVariable

__all__ = [
    "CostFunction",
    "SplitProblem",
    "SplitResult",
    "split_optimize",
    "check_bound_functional",
    "validate_split_problem",
]

NORMALIZATION_TOL = 1e-10
TIE_TOL = 1e-12


@dataclass(frozen=True)
class CostFunction:
    """Setup cost of running n subsidiaries.  `diverges` is the caller's
    declaration that the cost keeps growing without bound beyond any cap;
    the data alone cannot certify that, and without it the search can only
    be exhaustive up to the cap."""

    fn: object
    diverges: bool
    label: str = "custom"

    def __call__(self, n: int) -> float:
        return float(self.fn(n))

    @classmethod
    def linear(cls, per_agent: float) -> "CostFunction":
        if not 0 <= per_agent < math.inf:
            raise StructuralError("cost rate must be finite and nonnegative")
        return cls(lambda n: per_agent * n, diverges=per_agent > 0,
                   label=f"linear({per_agent:g})")

    @classmethod
    def step(cls, per_block: float, block: int) -> "CostFunction":
        if not 0 <= per_block < math.inf or block < 1:
            raise StructuralError(
                "step cost needs a finite rate >= 0 and block >= 1")
        return cls(lambda n: per_block * math.ceil(n / block),
                   diverges=per_block > 0,
                   label=f"step({per_block:g},{block})")

    @classmethod
    def tabulated(cls, values) -> "CostFunction":
        vals = [float(v) for v in values]
        if not vals:
            raise StructuralError("tabulated cost needs >= 1 value")
        if not all(map(math.isfinite, vals)):
            raise StructuralError("tabulated cost values must be finite")

        def fn(n):
            if n > len(vals):
                raise StructuralError(
                    f"tabulated cost defined up to n = {len(vals)}"
                )
            return vals[n - 1]

        return cls(fn, diverges=False, label=f"tabulated[{len(vals)}]")


@dataclass(frozen=True)
class SplitProblem:
    """Subsidiary i (0-based) runs the regime cycle[i % len(cycle)]; the
    cost function must be nonnegative and non-decreasing on the searched
    range 1..n_max."""

    cycle: tuple
    cost: CostFunction
    n_max: int

    def __post_init__(self):
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise StructuralError("a split problem needs >= 1 regime")
        if self.n_max < 1:
            raise StructuralError("n_max must be >= 1")
        prev = None
        for n in range(1, self.n_max + 1):
            c = self.cost(n)
            if not math.isfinite(c) or c < 0:
                raise StructuralError(f"cost({n}) = {c!r} is not a "
                                      "nonnegative real")
            if prev is not None and c < prev - 1e-12:
                raise StructuralError(
                    f"cost decreases from {prev:g} to {c:g} at n = {n}"
                )
            prev = c

    @classmethod
    def identical(cls, regime: RiskMeasurementRegime, cost: CostFunction,
                  n_max: int) -> "SplitProblem":
        return cls((regime,), cost, n_max)

    def regime(self, i: int) -> RiskMeasurementRegime:
        return self.cycle[i % len(self.cycle)]

    def regimes(self, n: int) -> tuple:
        return tuple(self.regime(i) for i in range(n))

    def distinct_regimes(self) -> tuple:
        return tuple({id(r): r for r in self.regimes(self.n_max)}.values())

    def per_subsidiary(self, fn):
        """Yield fn(r) for the regime r of each subsidiary 1..n_max in
        order, evaluating fn once per distinct regime object.  Lazy: a
        caller that stops early evaluates no later regime."""
        values = {}
        for r in map(self.regime, range(self.n_max)):
            if id(r) not in values:
                values[id(r)] = fn(r)
            yield values[id(r)]


@dataclass
class SweepPoint:
    n: int
    requirement: float
    objective: float


@dataclass
class SplitResult:
    n_star: int
    value: float                     # requirement + cost at the optimum
    requirement: float
    cost: float
    allocation: market.Allocation
    agent_risks: list
    objectives: tuple                # SweepPoint per evaluated group size
    lower_bound: float = None        # bound used for early stopping, if any
    cap_limited: bool = False        # swept to n_max without a bound stop


def _requirement(regimes, W):
    """The n-agent requirement, +inf when the profile admits no supported
    acceptable decomposition, with the agent system it was priced on (None
    for one agent); a requirement unbounded below is refused."""
    if len(regimes) == 1:
        try:
            res = rho(regimes[0], W)
        except DomainError:
            return math.inf, None
        return _rho_value(res), None
    s = market.AgentSystem(regimes)
    return float(market.lambda_batch(s, W.values[None, :])[0]), s


def split_optimize(p: SplitProblem, W: RandomVariable,
                   phi0: Functional = None) -> SplitResult:
    """Sweep n = 1..n_max, keeping the smallest objective (ties go to the
    smaller group).  When `phi0` is supplied, the Fenchel bound
    requirement(n) >= phi0(W) - sum of agent conjugates justifies stopping
    as soon as even a requirement at the bound cannot beat the incumbent
    under the remaining (declared-diverging) costs."""
    for i in range(p.n_max):
        if p.regime(i).space.labels != W.space.labels:
            raise StructuralError(
                f"subsidiary {i} lives on a different scenario space"
            )

    bound = None
    if phi0 is not None and p.cost.diverges:
        conj = _conjugate_sum(p, phi0)
        if conj is not None:
            bound = phi0(W) - conj

    best = None          # (objective, n, requirement, system)
    points = []
    cap_limited = True
    for n in range(1, p.n_max + 1):
        if bound is not None and best is not None \
                and bound + p.cost(n) > best[0]:
            cap_limited = False
            break
        value, system = _requirement(p.regimes(n), W)
        if value == math.inf:
            continue
        obj = value + p.cost(n)
        points.append(SweepPoint(n, value, obj))
        if best is None or obj < best[0] - TIE_TOL:
            best = (obj, n, value, system)

    if best is None:
        raise DomainError(
            f"no group of up to {p.n_max} subsidiaries supports the "
            "loss profile"
        )
    obj, n_star, req, system = best
    if n_star == 1:
        alloc = market.Allocation((W,))
        risks = [_rho_value(rho(p.regime(0), W))]
    else:
        final = market.capital_requirement(system, W, certify=True)
        alloc = final.allocation
        risks = [v.as_float() for v in final.agent_risks]
    return SplitResult(
        n_star=n_star, value=obj, requirement=req, cost=p.cost(n_star),
        allocation=alloc, agent_risks=risks, objectives=tuple(points),
        lower_bound=bound, cap_limited=cap_limited,
    )


def _conjugate_sum(p, phi0):
    """Sum of the agent conjugates at phi0 over the searched range, or
    None when any term is infinite (phi0 inconsistent with some agent's
    prices: the bound is vacuous there)."""
    total = 0.0
    for v in p.per_subsidiary(lambda r: conjugate(r, phi0)):
        if not v.is_finite:
            return None
        total += v.as_float()
    return total


# ----------------------------------------------------------------------
# the candidate bound functional
# ----------------------------------------------------------------------

def check_bound_functional(p: SplitProblem, phi0: Functional) -> ValidationReport:
    """How suitable phi0 is for bounding the sweep: it must price every
    subsidiary's securities, and the acceptance-set support values
    sup { phi0(Y) : Y acceptable for agent i } must stay summable - for a
    repeating family that means every term is zero, since a positive term
    recurs indefinitely."""
    rep = ValidationReport()

    checks = [(_price_deviation(r, phi0), _price_scale(r, phi0))
              for r in p.distinct_regimes()]
    rep.add("prices_securities_consistently",
            all(dev <= 1e-8 * (1.0 + scale) for dev, scale in checks),
            f"max deviation {max(dev for dev, _ in checks):.2e}")

    sigmas = list(p.per_subsidiary(lambda r: _support_value(r, phi0)))
    finite = all(s.is_finite for s in sigmas)
    partial = []
    run = 0.0
    for s in sigmas:
        run += s.as_float() if s.is_finite else math.inf
        partial.append(run)
    rep.add("support_values_finite", finite,
            "sigma_i = " + ', '.join(
                f"{s.as_float():.3e}" if s.is_finite else "inf"
                for s in sigmas[:8]) + ("..." if len(sigmas) > 8 else ""))

    # a repeating family is summable iff the recurring terms vanish
    vanishing = finite and all(abs(s.as_float()) <= 1e-9 for s in sigmas)
    rep.add("support_values_summable", vanishing,
            f"partial sums reach {partial[-1]:.3e} at n = {p.n_max}"
            if finite else "a term is infinite")

    nonpos = finite and all(s.as_float() <= 1e-9 for s in sigmas)
    rep.add("acceptance_sets_nonpositive_under_functional", nonpos,
            "sup phi0 over each acceptance set <= 0 suffices for "
            "summability of the normalized conjugates")
    return rep


# ----------------------------------------------------------------------
# problem validation
# ----------------------------------------------------------------------

def validate_split_problem(p: SplitProblem) -> ValidationReport:
    """Semantic checks beyond construction: every distinct subsidiary's
    requirement vanishes at zero (within 1e-10) and all live on one
    scenario space."""
    rep = ValidationReport()
    regimes = p.distinct_regimes()

    space = regimes[0].space
    aligned = all(r.space.labels == space.labels for r in regimes)
    rep.add("common_scenario_space", aligned)

    worst = 0.0
    ok = True
    for r in regimes:
        zero = RandomVariable(r.space, np.zeros(r.space.size))
        res = rho(r, zero)
        if res.status == "unbounded" or not res.value.is_finite:
            ok = False
            break
        worst = max(worst, abs(res.value.as_float()))
    rep.add("requirements_normalized", ok and worst <= NORMALIZATION_TOL,
            f"max |rho_i(0)| = {worst:.2e}" if ok else "rho_i(0) infinite")

    rep.add("cost_declared_diverging", p.cost.diverges,
            f"{p.cost.label}; without the declaration the sweep is "
            "exhaustive up to the cap", heuristic=True)
    return rep
