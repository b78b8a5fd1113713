"""Risk measurement regimes and their risk measures.

A regime bundles three things on a support ideal (coordinate subspace):

* an acceptance set — either polyhedral (finitely many monotone linear
  ceilings) or law-invariant (entropic, average-value-at-risk, or plain
  expectation, each given as the zero-sublevel set of a normalized
  cash-additive base risk measure xi);
* a security market — a finite-dimensional payoff span with a linear
  pricing functional;
* the induced risk measure  rho(X) = inf { price(Z) : Z in span,
  X - Z acceptable }, the least capital that securitizes X.

Values of rho can be +infinity (nothing securitizes X); that case is
carried as an explicit variant, never as a float sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import linprog
from .errors import DomainError, NumericalFailure, StructuralError
from .scenario import (
    Functional,
    RandomVariable,
    ScenarioSpace,
    SupportMask,
    _check_finite,
)

__all__ = [
    "RiskValue",
    "PolyhedralAcceptanceSet",
    "LawInvariantAcceptanceSet",
    "SecurityMarket",
    "RiskMeasurementRegime",
    "RhoResult",
    "CheckResult",
    "ValidationReport",
    "validate_regime",
    "rho",
    "conjugate",
]

SEARCH_TOL = 1e-10      # one-dimensional searches inside law-invariant rho
PRICE_TOL = 1e-9        # price-consistency decisions in conjugates


# ----------------------------------------------------------------------
# values that may be infinite
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RiskValue:
    """A capital amount in [-inf, +inf] with the infinite cases explicit."""

    kind: str            # "finite" | "infinite"
    value: float = 0.0

    @classmethod
    def finite(cls, v: float) -> "RiskValue":
        if not math.isfinite(v):
            raise StructuralError(f"finite RiskValue from non-finite {v!r}")
        return cls("finite", float(v))

    @classmethod
    def infinite(cls) -> "RiskValue":
        return cls("infinite", math.inf)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def as_float(self) -> float:
        """Float embedding (+inf for the infinite variant)."""
        return self.value if self.is_finite else math.inf

    def __repr__(self):
        return f"RiskValue({self.value!r})" if self.is_finite else "RiskValue(+inf)"


# ----------------------------------------------------------------------
# acceptance sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolyhedralAcceptanceSet:
    """{X : phi_j(X) <= bound_j for all j} with finitely many functionals.

    Monotonicity (acceptable minus a nonnegative loss stays acceptable) is
    certified by all densities being nonnegative; that is checked during
    regime validation rather than raised here, so that constructed
    violations can be reported.
    """

    functionals: tuple
    bounds: np.ndarray

    def __post_init__(self):
        fs = tuple(self.functionals)
        bs = np.asarray(self.bounds, dtype=float)
        object.__setattr__(self, "functionals", fs)
        object.__setattr__(self, "bounds", bs)
        if len(fs) == 0:
            raise StructuralError("polyhedral acceptance set needs >= 1 functional")
        if bs.shape != (len(fs),):
            raise StructuralError("one bound per functional required")
        _check_finite("bound", bs, "functional", range(len(fs)))
        space = fs[0].space
        for f in fs[1:]:
            if f.space is not space and f.space.labels != space.labels:
                raise StructuralError("functionals on mismatched spaces")

    @property
    def space(self) -> ScenarioSpace:
        return self.functionals[0].space

    def weight_matrix(self) -> np.ndarray:
        """Rows are the functionals' per-scenario weights density*probs."""
        return np.array([f.weights for f in self.functionals])

    def contains(self, values: np.ndarray, tol: float = 1e-9) -> bool:
        resid = self.weight_matrix() @ values - self.bounds
        return bool(np.max(resid) <= tol)

    def margin(self, values: np.ndarray) -> float:
        """max_j phi_j(X) - bound_j  (<= 0 iff acceptable)."""
        return float(np.max(self.weight_matrix() @ values - self.bounds))


ENTROPIC, AVAR, EXPECTATION = "entropic", "avar", "expectation"


@dataclass(frozen=True)
class LawInvariantAcceptanceSet:
    """{X : xi(X) <= 0} for a normalized cash-additive base risk measure.

    kinds:
      entropic(alpha > 0):  xi(X) = (1/alpha) log E[exp(alpha X)]
      avar(beta in (0,1)):  xi(X) = sup { E_Q[X] : 0 <= dQ/dP <= 1/(1-beta),
                                          E[dQ/dP] = 1 }
      expectation:          xi(X) = E[X]
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in (ENTROPIC, AVAR, EXPECTATION):
            raise StructuralError(f"unknown law-invariant kind {self.kind!r}")
        if self.kind == ENTROPIC and not self.param > 0:
            raise StructuralError("entropic risk aversion must be > 0")
        if self.kind == AVAR and not 0.0 < self.param < 1.0:
            raise StructuralError("avar level must lie in (0, 1)")

    def xi(self, probs: np.ndarray, values: np.ndarray):
        """xi of one profile (a float) or of each row of a batch."""
        return base_risk(self.kind, self.param, probs, values)

    def xi_conjugate(self, probs: np.ndarray, density: np.ndarray) -> RiskValue:
        return base_risk_conjugate(self.kind, self.param, probs, density)

    def dual_cap(self) -> float:
        """Upper bound of the dual density box (inf for entropic)."""
        if self.kind == AVAR:
            return 1.0 / (1.0 - self.param)
        if self.kind == EXPECTATION:
            return 1.0
        return math.inf


def base_risk(kind: str, param: float, probs, values):
    """xi of the loss profile along the last axis of `values`: a float for
    one profile, an array with one value per row for a batch."""
    # evaluation happens in canonical (descending-value) order so that
    # probability-preserving permutations leave the result bitwise unchanged
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, axis=-1, kind="stable")
    v, p = np.take_along_axis(values, order, axis=-1), probs[order]
    if kind == ENTROPIC:
        out = _logsumexp(param * v, p) / param
    elif kind == AVAR:
        # worst scenarios first, each contributing at most probs/(1-beta)
        # of the unit dual mass
        out = np.vecdot(_cap_fill(p / (1.0 - param)), v)
    elif kind == EXPECTATION:
        out = np.vecdot(p, v)
    else:
        raise StructuralError(f"unknown kind {kind!r}")
    return float(out) if values.ndim == 1 else out


def _logsumexp(a, b):
    """log sum_i b_i e^{a_i} along the last axis, for weights b > 0.

    The operations of scipy.special.logsumexp (SciPy 1.17) in the same
    order, without its array-API dispatch: the maximal terms are split off
    for precision, the others are summed in their original positions."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        tied = a == a_max
        m = np.sum(b * tied, axis=-1, keepdims=True)
        rest = np.where(tied, -np.inf, a)
        s = np.sum(b * np.exp(rest - a_max), axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            # the direct sum, whose log follows C99 at 0 and inf
            direct = np.log(np.sum(b * np.exp(a), axis=-1, keepdims=True))
            out = np.where(bad, direct, out)
    return out[..., 0]


def _cap_fill(caps, mass: float = 1.0) -> np.ndarray:
    """Greedy mass filling along the last axis: box i takes as much of
    `mass` as is left after the boxes before it, at most caps[i]."""
    caps = np.asarray(caps, dtype=float)
    before = np.concatenate([np.zeros(caps.shape[:-1] + (1,)),
                             np.cumsum(caps, axis=-1)[..., :-1]], axis=-1)
    return np.minimum(caps, np.maximum(0.0, mass - before))


def _relative_entropy(probs, q) -> float:
    """H(Q|P) = E[q log q] of a density q >= 0, with 0 log 0 = 0."""
    mask = q > 0
    return float(np.sum(probs[mask] * q[mask] * np.log(q[mask])))


def base_risk_conjugate(kind: str, param: float, probs, density) -> RiskValue:
    """Conjugate of the base risk on densities: sup_X E[q X] - xi(X)."""
    probs = np.asarray(probs, dtype=float)
    q = np.asarray(density, dtype=float)
    if np.min(q) < -1e-9 or abs(probs @ q - 1.0) > PRICE_TOL:
        return RiskValue.infinite()
    q = np.maximum(q, 0.0)
    if kind == ENTROPIC:
        return RiskValue.finite(_relative_entropy(probs, q) / param)
    if kind == AVAR:
        if np.max(q) <= 1.0 / (1.0 - param) + 1e-9:
            return RiskValue.finite(0.0)
        return RiskValue.infinite()
    if kind == EXPECTATION:
        if np.max(np.abs(q - 1.0)) <= 1e-9:
            return RiskValue.finite(0.0)
        return RiskValue.infinite()
    raise StructuralError(f"unknown kind {kind!r}")


# ----------------------------------------------------------------------
# security markets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SecurityMarket:
    """span{basis} with a linear price per basis payoff."""

    basis: tuple            # tuple of RandomVariable
    prices: np.ndarray      # one price per basis vector

    def __post_init__(self):
        basis = tuple(self.basis)
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "prices", prices)
        if len(basis) == 0:
            raise StructuralError("security market needs >= 1 basis payoff")
        if prices.shape != (len(basis),):
            raise StructuralError("one price per basis payoff required")
        _check_finite("price", prices, "basis payoff", range(len(basis)))
        B = self.basis_matrix()
        if np.linalg.matrix_rank(B, tol=1e-10 * max(1.0, np.abs(B).max())) < len(basis):
            raise StructuralError("security basis payoffs are linearly dependent")

    @property
    def space(self) -> ScenarioSpace:
        return self.basis[0].space

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> np.ndarray:
        """Columns are basis payoffs: shape (n_scenarios, dim)."""
        return np.column_stack([b.values for b in self.basis])

    def payoff(self, coeffs) -> RandomVariable:
        coeffs = np.asarray(coeffs, dtype=float)
        return RandomVariable(self.space, self.basis_matrix() @ coeffs)

    def price(self, coeffs) -> float:
        return float(self.prices @ np.asarray(coeffs, dtype=float))

    def coefficients_of(self, values: np.ndarray, tol: float = 1e-9):
        """Coefficients representing `values` in the span, or None."""
        B = self.basis_matrix()
        w, res, *_ = np.linalg.lstsq(B, values, rcond=None)
        if np.max(np.abs(B @ w - values)) > tol * max(1.0, np.abs(values).max()):
            return None
        return w

    # ---- certificates -------------------------------------------------

    def unit_certificate(self, included: np.ndarray):
        """LP: maximize the minimum included coordinate of Z subject to
        price(Z) = 1.  A strictly positive optimum certifies the existence
        of a strictly positive unit-price payoff.  Returns (optimum, coeffs)
        where optimum may be +inf (unbounded) or None (infeasible)."""
        B = self.basis_matrix()[included]
        k = self.dim
        # variables: w (k, free), t (free); maximize t  ==  minimize -t
        c = np.zeros(k + 1)
        c[-1] = -1.0
        rows = []
        senses = []
        rhs = []
        for r in range(B.shape[0]):
            row = np.concatenate([-B[r], [1.0]])     # t - Z(w) <= 0
            rows.append(row)
            senses.append(linprog.LE)
            rhs.append(0.0)
        rows.append(np.concatenate([self.prices, [0.0]]))
        senses.append(linprog.EQ)
        rhs.append(1.0)
        free = np.full(k + 1, -math.inf)
        sol = linprog.solve(linprog.LpProblem(
            c=c, rows=np.array(rows), senses=senses, rhs=np.array(rhs),
            lower=free, upper=np.full(k + 1, math.inf)))
        if sol.status == "infeasible":
            return None, None
        if sol.status == "unbounded":
            return math.inf, None
        return -sol.objective_value, sol.primal[:k]

    def positivity_certificate(self, included: np.ndarray):
        """LP: minimize price(Z) over nonnegative Z in the span with total
        coordinate sum 1.  A value >= -1e-10 certifies price positivity on
        the nonnegative part of the span; an empty nonnegative part passes
        vacuously."""
        B = self.basis_matrix()[included]
        k = self.dim
        rows = [np.concatenate([-B[r]]) for r in range(B.shape[0])]   # -Z <= 0
        senses = [linprog.LE] * B.shape[0]
        rhs = [0.0] * B.shape[0]
        rows.append(B.sum(axis=0))
        senses.append(linprog.EQ)
        rhs.append(1.0)
        sol = linprog.solve(linprog.LpProblem(
            c=self.prices.copy(), rows=np.array(rows), senses=senses,
            rhs=np.array(rhs), lower=np.full(k, -math.inf),
            upper=np.full(k, math.inf)))
        if sol.status == "infeasible":
            return None          # vacuous
        if sol.status == "unbounded":
            return -math.inf
        return sol.objective_value


# ----------------------------------------------------------------------
# regimes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RiskMeasurementRegime:
    support: SupportMask
    acceptance: object       # PolyhedralAcceptanceSet | LawInvariantAcceptanceSet
    market: SecurityMarket

    def __post_init__(self):
        if self.market.space.labels != self.support.space.labels:
            raise StructuralError("market and support on different spaces")
        if isinstance(self.acceptance, LawInvariantAcceptanceSet):
            if not self.support.included.all():
                raise DomainError(
                    "law-invariant acceptance sets are defined relative to the "
                    "whole-space probability measure; partial supports are not "
                    "supported"
                )

    @property
    def space(self) -> ScenarioSpace:
        return self.support.space

    @property
    def is_law_invariant(self) -> bool:
        return isinstance(self.acceptance, LawInvariantAcceptanceSet)

    def acceptance_block(self, securities: bool = True) -> np.ndarray:
        """Acceptance rows of a polyhedral agent over its supported
        coordinates, then (with `securities`) its security coefficients:
        X - B z is acceptable iff  [W[:, inc] | -W B] @ (X[inc], z) <= bounds.
        W B is the full product, not W[:, inc] B[inc], which can differ in
        the last bit."""
        W = self.acceptance.weight_matrix()
        block = W[:, self.support.included]
        if not securities:
            return block
        return np.hstack([block, -(W @ self.market.basis_matrix())])


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    heuristic: bool = False


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def add(self, name, passed, detail="", heuristic=False):
        self.checks.append(CheckResult(name, bool(passed), str(detail), heuristic))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail,
                 "heuristic": c.heuristic}
                for c in self.checks
            ],
        }


def validate_regime(r: RiskMeasurementRegime, seed: int = 0) -> ValidationReport:
    """Certify the regime contract: acceptance-set shape, market unit and
    price positivity, and no-arbitrage (boundedness of the pricing gain of
    acceptability-preserving trades).

    For polyhedral regimes no-arbitrage is probed at X = 0 and at 8 seeded
    random points, which is a heuristic and flagged as such.  For
    law-invariant regimes it is certified exactly by exhibiting a
    market-consistent density in the dual domain of the base risk.
    """
    rep = ValidationReport()
    space = r.space
    inc = r.support.included

    # market payoffs live inside the support ideal
    B = r.market.basis_matrix()
    outside = 0.0 if inc.all() else float(np.max(np.abs(B[~inc]), initial=0.0))
    rep.add("market_in_support", outside <= 1e-12,
            f"max |basis| outside support = {outside:.2e}")

    if isinstance(r.acceptance, PolyhedralAcceptanceSet):
        W = np.array([f.density for f in r.acceptance.functionals])
        out_w = 0.0 if inc.all() else float(np.max(np.abs(W[:, ~inc]), initial=0.0))
        rep.add("acceptance_in_support", out_w <= 1e-12,
                f"max |density| outside support = {out_w:.2e}")
        min_density = float(W.min())
        rep.add("monotonicity_certificate", min_density >= -1e-12,
                f"min functional density = {min_density:.3g}")
        wm = r.acceptance.weight_matrix()
        sums = wm.sum(axis=1)
        empty = any(s <= 1e-12 and b < -1e-12
                    for s, b in zip(sums, r.acceptance.bounds))
        rep.add("acceptance_nonempty", not empty,
                "zero functional with negative bound" if empty else
                "large negative losses are acceptable")
        proper = bool(np.any(sums > 1e-12))
        rep.add("acceptance_proper", proper,
                "" if proper else "no functional can ever be violated")
    else:
        rep.add("acceptance_normalized", True,
                f"base risk xi({r.acceptance.kind}) has xi(0) = 0 by construction")

    uval, _ = r.market.unit_certificate(inc)
    if r.is_law_invariant:
        # Section-5-style systems replace the per-market positive unit with a
        # global pricing density; report the unit value informationally.
        ok, detail = _law_invariant_no_arbitrage(r)
        rep.add("no_arbitrage_dual_density", ok, detail)
        rep.add("positive_unit_payoff", True,
                f"optional for law-invariant regimes; LP value "
                f"{uval if uval is not None else 'infeasible'}", heuristic=False)
    else:
        rep.add("positive_unit_payoff",
                uval is not None and uval > 1e-10,
                f"max-min-coordinate LP value = {uval}")
        probes_ok, detail = _polyhedral_no_arbitrage_probes(r, seed)
        rep.add("no_arbitrage_probes", probes_ok, detail, heuristic=True)

    pval = r.market.positivity_certificate(inc)
    if pval is None:
        rep.add("price_positivity", True,
                "no nonnegative payoffs in span (vacuous)")
    else:
        rep.add("price_positivity", pval >= -1e-10,
                f"min price over normalized nonnegative payoffs = {pval:.3g}")
    return rep


def _polyhedral_no_arbitrage_probes(r, seed):
    rng = np.random.default_rng(seed)
    inc = r.support.included
    probes = [np.zeros(r.space.size)]
    for _ in range(8):
        x = np.zeros(r.space.size)
        x[inc] = rng.uniform(-5.0, 5.0, inc.sum())
        probes.append(x)
    for i, x in enumerate(probes):
        res = _rho_polyhedral(r, x)
        if res.status == "unbounded":
            return False, f"probe {i}: securitization gain unbounded"
    return True, "bounded at X = 0 and 8 random probes (probabilistic check)"


def _law_invariant_no_arbitrage(r):
    """Feasibility LP: a density q >= 0 (boxed for avar/expectation) with
    E[q] = 1 matching every basis price certifies rho > -inf everywhere."""
    acc = r.acceptance
    space = r.space
    n = space.size
    cap = acc.dual_cap()
    rows = [space.probs.copy()]
    senses = [linprog.EQ]
    rhs = [1.0]
    B = r.market.basis_matrix()
    for k in range(r.market.dim):
        rows.append(space.probs * B[:, k])
        senses.append(linprog.EQ)
        rhs.append(r.market.prices[k])
    lower = np.zeros(n)
    upper = np.full(n, cap if math.isfinite(cap) else math.inf)
    if acc.kind == EXPECTATION:
        lower = np.ones(n)
    sol = linprog.solve(linprog.LpProblem(
        c=np.zeros(n), rows=np.array(rows), senses=senses, rhs=np.array(rhs),
        lower=lower, upper=upper))
    if sol.status == "optimal":
        return True, "market-consistent dual density exists (exact certificate)"
    return False, "no market-consistent density in the base risk's dual domain"


# ----------------------------------------------------------------------
# rho
# ----------------------------------------------------------------------

@dataclass
class RhoResult:
    value: RiskValue
    security: RandomVariable = None    # an optimal Z when finite
    coefficients: np.ndarray = None
    status: str = "optimal"


def rho(r: RiskMeasurementRegime, X: RandomVariable) -> RhoResult:
    """Least capital securitizing X under the regime.

    Polyhedral acceptance: a single LP over security coefficients.
    Law-invariant acceptance: coordinate search over security coefficients
    wrapping the base risk (convex; solved to 1e-10).
    """
    if X.space.labels != r.space.labels:
        raise StructuralError("loss profile on a different scenario space")
    if not r.support.contains(X, tol=1e-9):
        raise DomainError("loss profile lies outside the regime's support ideal")
    if isinstance(r.acceptance, PolyhedralAcceptanceSet):
        return _rho_polyhedral(r, X.values)
    return _rho_law_invariant(r, X.values)


def _rho_polyhedral(r, xvals) -> RhoResult:
    acc = r.acceptance
    mkt = r.market
    W = acc.weight_matrix()            # (J, n)
    B = mkt.basis_matrix()             # (n, K)
    J, K = W.shape[0], mkt.dim
    rows = -(W @ B)                    # phi_j(X) - sum_k w_k phi_j(b_k) <= beta_j
    rhs = acc.bounds - W @ xvals
    sol = linprog.solve(linprog.LpProblem(
        c=mkt.prices.copy(), rows=rows, senses=[linprog.LE] * J, rhs=rhs,
        lower=np.full(K, -math.inf), upper=np.full(K, math.inf)))
    if sol.status == "infeasible":
        return RhoResult(value=RiskValue.infinite(), status="infeasible")
    if sol.status == "unbounded":
        return RhoResult(value=None, status="unbounded")
    w = sol.primal
    return RhoResult(value=RiskValue.finite(sol.objective_value),
                     security=mkt.payoff(w), coefficients=w)


def _golden_min(g, x0: float, tol: float = SEARCH_TOL):
    """Minimize a convex scalar g: expand a bracket around x0, then run a
    bounded golden/Brent search to the configured tolerance.  If the
    expansion on either side still descends when its step reaches 1e12,
    the infimum is taken as unattained and the search refuses."""
    a, b = x0 - 1.0, x0 + 1.0
    fa, f0, fb = g(a), g(x0), g(b)

    def expand(x, fx, sign):
        step = 2.0
        while fx < f0 and step < 1e12:
            x += sign * step
            fx = g(x)
            step *= 2.0
        if step >= 1e12:
            raise NumericalFailure("one-dimensional search failed to bracket")
        return x

    a = expand(a, fa, -1.0)
    b = expand(b, fb, 1.0)
    res = optimize.minimize_scalar(g, bounds=(a, b), method="bounded",
                                   options={"xatol": tol})
    return float(res.x), float(res.fun)


def _root_decreasing(h, lo_hint: float = 0.0):
    """Root of a decreasing function via expanding bracket + brentq."""
    lo, hi = lo_hint, lo_hint + 1.0
    step = 1.0
    while h(hi) > 0:
        lo = hi
        step *= 2.0
        hi += step
        if step > 1e12:
            raise NumericalFailure("root bracket expansion failed (upper)")
    step = 1.0
    while h(lo) < 0:
        hi = lo
        step *= 2.0
        lo -= step
        if step > 1e12:
            raise NumericalFailure("root bracket expansion failed (lower)")
    flo, fhi = h(lo), h(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    return float(optimize.brentq(h, lo, hi, xtol=1e-13, rtol=8.9e-16))


def _rho_law_invariant(r, xvals) -> RhoResult:
    acc = r.acceptance
    mkt = r.market
    probs = r.space.probs
    xi = lambda v: acc.xi(probs, v)
    B = mkt.basis_matrix()
    K = mkt.dim

    uval, w_u = mkt.unit_certificate(r.support.included)
    if uval is not None and not math.isinf(uval) and uval > 1e-10:
        # decompose span = R*U (+) price-kernel directions; then
        # rho = inf_eta  t*(eta)  with  t*(eta) the unique root in t of
        # xi(X - t U - D eta) = 0  (U strictly positive makes it decreasing)
        U = B @ w_u
        Dk = linprog.null_space(mkt.prices.reshape(1, -1))   # price-0 coeffs

        def t_star(eta):
            resid = xvals - B @ (Dk @ eta)
            return _root_decreasing(lambda t: xi(resid - t * U))

        eta, t = _coordinate_descent(t_star, Dk.shape[1])
        w = t * w_u + Dk @ eta
        return RhoResult(value=RiskValue.finite(t), security=mkt.payoff(w),
                         coefficients=w)

    if K == 1:
        # one-dimensional market without a strictly positive unit payoff:
        # the feasible coefficient set {w : xi(X - w b) <= 0} is an interval
        # (g is convex in w); rho picks its cheapest endpoint
        b = B[:, 0]
        p0 = float(mkt.prices[0])
        g = lambda w: xi(xvals - w * b)
        w_f = _find_feasible_1d(g)
        if w_f is None:
            return RhoResult(value=RiskValue.infinite(), status="infeasible")
        if abs(p0) <= PRICE_TOL:
            return RhoResult(value=RiskValue.finite(0.0),
                             security=mkt.payoff([w_f]),
                             coefficients=np.array([w_f]))
        direction = -1.0 if p0 > 0 else 1.0    # toward cheaper coefficients
        w_edge = _level_boundary(g, w_f, direction)
        if w_edge is None:
            return RhoResult(value=None, status="unbounded")
        return RhoResult(value=RiskValue.finite(p0 * w_edge),
                         security=mkt.payoff([w_edge]),
                         coefficients=np.array([w_edge]))

    raise DomainError(
        "law-invariant rho needs a strictly positive unit payoff in the span "
        "(or a one-dimensional market)"
    )


def _find_feasible_1d(g, tol: float = 1e-12):
    """Some w with g(w) <= tol for convex g, or None if the infimum of g is
    positive (checked over a doubling probe grid plus one interior bracket)."""
    probes = [0.0]
    for k in range(51):
        probes.extend((2.0 ** k, -(2.0 ** k)))
    for w in probes:
        if g(w) <= tol:
            return w
    xs = sorted(probes)
    vals = [g(x) for x in xs]
    i = int(np.argmin(vals))
    if 0 < i < len(xs) - 1:
        res = optimize.minimize_scalar(g, bounds=(xs[i - 1], xs[i + 1]),
                                       method="bounded",
                                       options={"xatol": SEARCH_TOL})
        if res.fun <= tol:
            return float(res.x)
    return None


def _level_boundary(g, inside: float, direction: float, tol: float = 1e-12):
    """Walk from a point of {g <= tol} toward `direction` until g turns
    positive, then bisect to the boundary of that set.  None if that side
    is unbounded."""
    step = 1.0
    w = inside
    while g(w + direction * step) <= tol:
        w += direction * step
        step *= 2.0
        if abs(w) > 1e15:
            return None
    a, b = sorted((w, w + direction * step))
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb < 0:
        return float(optimize.brentq(g, a, b, xtol=1e-13, rtol=8.9e-16))
    return w    # boundary within tolerance of the last feasible probe


def _coordinate_descent(objective, k: int):
    """Minimize a convex objective over R^k one coordinate at a time with
    golden searches, starting from 0.  A move is taken only when it lowers
    the objective; the descent stops after a cycle that lowers it by no
    more than 1e-14.  Returns (minimizer, minimum)."""
    t = np.zeros(k)
    best = objective(t)
    for _ in range(300):
        start = best
        for j in range(k):
            def g(s, j=j):
                e = t.copy()
                e[j] = s
                return objective(e)
            sj, fj = _golden_min(g, t[j])
            if fj < best:
                t[j], best = sj, fj
        if best >= start - 1e-14:
            return t, best
    raise NumericalFailure("coordinate descent did not converge")


# ----------------------------------------------------------------------
# conjugates
# ----------------------------------------------------------------------

def conjugate(r: RiskMeasurementRegime, phi: Functional) -> RiskValue:
    """rho*(phi) = sup { phi(X) - rho(X) : X in the support ideal }.

    Finite only when phi prices the security span consistently; on top of
    that, polyhedral sets contribute their support function (an LP) and
    law-invariant sets the conjugate of the base risk.
    """
    if phi.space.labels != r.space.labels:
        raise StructuralError("functional on a different scenario space")
    if isinstance(r.acceptance, PolyhedralAcceptanceSet):
        return _conjugate_polyhedral(r, phi)
    # price consistency on the span
    B = r.market.basis_matrix()
    for k in range(r.market.dim):
        implied = float(phi.weights @ B[:, k])
        if abs(implied - r.market.prices[k]) > PRICE_TOL:
            return RiskValue.infinite()
    # remaining term is the acceptance set's support function; for a
    # cash-additive base set it scales out of the functional's total mass
    if float(np.min(phi.density)) < -1e-9:
        return RiskValue.infinite()
    mass = float(r.space.probs @ phi.density)
    if mass <= PRICE_TOL:
        return RiskValue.finite(0.0)        # phi = 0 on a positive density
    inner = r.acceptance.xi_conjugate(r.space.probs, phi.density / mass)
    if not inner.is_finite:
        return inner
    return RiskValue.finite(mass * inner.as_float())


def _conjugate_polyhedral(r, phi) -> RiskValue:
    # maximize phi(X) - prices.z  over X on the supported coords and z
    inc = r.support.included
    rows = r.acceptance_block()
    J, n = rows.shape
    c = np.concatenate([-phi.weights[inc], r.market.prices])
    sol = linprog.solve(linprog.LpProblem(
        c=c, rows=rows, senses=[linprog.LE] * J, rhs=r.acceptance.bounds.copy(),
        lower=np.full(n, -math.inf), upper=np.full(n, math.inf)))
    if sol.status == "unbounded":
        return RiskValue.infinite()
    if sol.status == "infeasible":
        raise NumericalFailure("conjugate LP infeasible for nonempty acceptance set")
    return RiskValue.finite(-sol.objective_value)
