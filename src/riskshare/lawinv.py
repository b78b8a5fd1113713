"""Law-invariant risk sharing on finite scenario spaces.

The aggregate base risk of a family of law-invariant agents is the infimal
convolution of their base measures, and on finite spaces it is attained by
comonotone splits of the aggregate loss: non-decreasing 1-Lipschitz
functions summing to the identity.  Three families are supported and close
under convolution:

* entropic measures convolve to an entropic measure at the harmonic-sum
  parameter, attained by a proportional split;
* average-value-at-risk measures convolve to the one with the smallest
  level, attained by a stop-loss split at that level's quantile;
* an entropic/AVaR mixture convolves to a clipped-exponential dual whose
  optimal split is a stop-loss at the clipping threshold;
* an expectation agent absorbs everything.

On top of the convolutions the module glues in securitization: the market
requirement of a shared loss minimizes the price of an aggregate payoff
subject to the convolved base risk of the remainder, and the optimizer is
unwound into one acceptable part plus one traded part per agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linprog
from .errors import (
    DomainError,
    InternalInconsistency,
    NumericalFailure,
    StructuralError,
)
from .regime import (
    AVAR,
    ENTROPIC,
    EXPECTATION,
    LawInvariantAcceptanceSet,
    RiskValue,
    ValidationReport,
    _cap_fill,
    _coordinate_descent,
    _golden_min,
    _level_boundary,
    _logsumexp,
    _relative_entropy,
    base_risk,
    rho,
)
from .scenario import (
    Functional,
    RandomVariable,
    ScenarioSpace,
    _lower_quantile,
)

__all__ = [
    "ComonotoneSplit",
    "entropic_infconv",
    "convolution_value",
    "convolution_split",
    "EntropicPairResult",
    "entropic_pair_sharing",
    "AvarEntropicResult",
    "avar_entropic_sharing",
    "LawInvariantProblem",
    "validate_problem",
    "LawInvariantSharingResult",
    "law_invariant_requirement",
    "law_invariant_sharing",
]

CERT_TOL = 1e-8


# ----------------------------------------------------------------------
# comonotone splits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ComonotoneSplit:
    """n non-decreasing piecewise-linear functions summing to the identity.

    Function i is  f_i(x) = anchors[i] + integral_0^x slopes[i, seg(u)] du
    with segments cut at the shared breakpoints.  Slopes sit in [0, 1] and
    sum to one on every segment; anchors sum to zero, so sum f_i = id.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray          # (n, len(breakpoints) + 1)
    anchors: np.ndarray         # (n,)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        sl = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        an = np.asarray(self.anchors, dtype=float).reshape(-1)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "anchors", an)
        if bp.size and np.any(np.diff(bp) <= 0):
            raise StructuralError("breakpoints must be strictly increasing")
        if sl.shape != (an.size, bp.size + 1):
            raise StructuralError("slope matrix must be n x (segments)")
        if np.min(sl) < -1e-12 or np.max(sl) > 1.0 + 1e-12:
            raise StructuralError("slopes must lie in [0, 1]")
        if np.max(np.abs(sl.sum(axis=0) - 1.0)) > 1e-9:
            raise StructuralError("slopes must sum to one on every segment")
        if abs(an.sum()) > 1e-8:
            raise StructuralError("anchors must sum to zero")

    @property
    def n(self) -> int:
        return self.anchors.size

    def apply(self, x) -> np.ndarray:
        """Evaluate all n functions at the points of x: shape (n, len(x))."""
        x = np.asarray(x, dtype=float).reshape(-1)
        edges = np.concatenate([[-np.inf], self.breakpoints, [np.inf]])
        out = np.repeat(self.anchors[:, None], x.size, axis=1)
        hi_side = np.maximum(x, 0.0)
        lo_side = np.minimum(x, 0.0)
        sign = np.where(x >= 0.0, 1.0, -1.0)
        for j in range(self.slopes.shape[1]):
            upper = np.minimum(edges[j + 1], hi_side)
            lower = np.maximum(edges[j], lo_side)
            seg = np.maximum(upper - lower, 0.0)
            out += self.slopes[:, j][:, None] * (sign * seg)[None, :]
        return out

    def parts(self, X: RandomVariable) -> list:
        vals = self.apply(X.values)
        return [RandomVariable(X.space, vals[i]) for i in range(self.n)]

    def shifted(self, deltas) -> "ComonotoneSplit":
        """Same functions with constants added; deltas must sum to zero."""
        deltas = np.asarray(deltas, dtype=float)
        return ComonotoneSplit(self.breakpoints, self.slopes,
                               self.anchors + deltas)


def _proportional_split(n: int, weights: dict) -> ComonotoneSplit:
    sl = np.zeros((n, 1))
    for i, w in weights.items():
        sl[i, 0] = w
    return ComonotoneSplit(np.zeros(0), sl, np.zeros(n))


def _stop_loss_split(n: int, zeta: float, tail: int, floor: int,
                     floor_weights: dict | None = None) -> ComonotoneSplit:
    """Tail agent takes (x - zeta)+; the floor group takes x ∧ zeta (one
    agent, or proportionally by floor_weights)."""
    sl = np.zeros((n, 2))
    an = np.zeros(n)
    sl[tail, 1] = 1.0
    an[tail] = max(-zeta, 0.0)
    if floor_weights is None:
        floor_weights = {floor: 1.0}
    for i, w in floor_weights.items():
        sl[i, 0] = w
        an[i] = w * min(0.0, zeta)
    return ComonotoneSplit(np.array([zeta]), sl, an)


# ----------------------------------------------------------------------
# convolutions
# ----------------------------------------------------------------------

def _grouped(measures):
    ent = [(i, m.param) for i, m in enumerate(measures) if m.kind == ENTROPIC]
    av = [(i, m.param) for i, m in enumerate(measures) if m.kind == AVAR]
    ex = [i for i, m in enumerate(measures) if m.kind == EXPECTATION]
    if len(ent) + len(av) + len(ex) != len(measures):
        raise DomainError("unsupported base-measure family in convolution")
    return ent, av, ex


def _avar_density(beta: float, probs, values) -> np.ndarray:
    """The maximizing density of AVaR: cap mass on the worst scenarios."""
    order = np.argsort(-np.asarray(values, dtype=float), kind="stable")
    p = probs[order]
    q = np.empty(len(values))
    q[order] = _cap_fill(p / (1.0 - beta)) / p
    return q


def _clipped_density(gamma: float, cap: float, probs, values, target: float):
    """Solve sum_i p_i min(c e^{gamma v_i}, cap) = target for c > 0 (the
    KKT system of max E[qv] - H(q|P)/gamma over 0 <= q <= cap at fixed
    mass).  Returns (q, log_c).

    In descending-value order the clipped scenarios form a prefix.  With
    the first k clipped,  c_k = (target - cap P_k) / S_k,  where P_k is
    the probability of the prefix and S_k the sum of p e^{gamma v} after
    it; the solution is c_k for the smallest k whose first unclipped
    scenario stays under the cap (sort-and-threshold, as in Duchi et al.,
    ICML 2008, for projections onto the simplex).

    Sums run in canonical (descending-value) order so distribution-
    preserving permutations reproduce results bitwise."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    order = np.argsort(-values, kind="stable")
    p = probs[order]
    gv = gamma * values[order]
    logcap = math.log(cap)
    before = np.concatenate([[0.0], np.cumsum(p)[:-1]])
    rest = target - cap * before
    log_s = np.logaddexp.accumulate((np.log(p) + gv)[::-1])[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        logc_k = np.log(rest) - log_s
    fits = (rest > 0) & (logc_k + gv <= logcap)
    if not fits.any():
        raise NumericalFailure("clipped-density mass never reaches target")
    # past the clipped prefix, exponents relative to the first unclipped
    # scenario keep q accurate when |gamma v| is large
    k = int(np.argmax(fits))
    shifted = gv[k:] - gv[k]
    log_r = math.log(rest[k]) - math.log(float(p[k:] @ np.exp(shifted)))
    q_sorted = np.full(values.size, cap)
    q_sorted[k:] = np.minimum(np.exp(log_r + shifted), cap)
    q = np.empty(values.size)
    q[order] = q_sorted
    return q, log_r - gv[k]


def _mixed_dual(gamma: float, cap: float, probs, values):
    """Value, density and clip threshold of the entropic/AVaR convolution:
    sup { E[qW] - H(q|P)/gamma : 0 <= q <= cap, E[q] = 1 }."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    q, logc = _clipped_density(gamma, cap, probs, values, 1.0)
    order = np.argsort(-values, kind="stable")
    v, p, qs = values[order], probs[order], q[order]
    value = float(p @ (qs * v)) - _relative_entropy(p, qs) / gamma
    zeta = (math.log(cap) - logc) / gamma
    return value, q, zeta


def convolution_value(measures, probs, values):
    """Value of the infimal convolution of the base measures at the
    aggregate loss, with the maximizing density."""
    ent, av, ex = _grouped(measures)
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if ex:
        return float(probs @ values), np.ones(values.size)
    if ent and not av:
        alpha = 1.0 / sum(1.0 / a for _, a in ent)
        value = base_risk(ENTROPIC, alpha, probs, values)
        return value, np.exp(alpha * (values - value))
    if av and not ent:
        beta = min(b for _, b in av)
        return (base_risk(AVAR, beta, probs, values),
                _avar_density(beta, probs, values))
    alpha = 1.0 / sum(1.0 / a for _, a in ent)
    cap = 1.0 / (1.0 - min(b for _, b in av))
    value, q, _ = _mixed_dual(alpha, cap, probs, values)
    return value, q


def convolution_split(measures, probs, values):
    """Value of the convolution together with a comonotone split attaining
    it; the exactness  sum_i xi_i(f_i(W)) = value  is certified."""
    ent, av, ex = _grouped(measures)
    n = len(measures)
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if ex:
        value = float(probs @ values)
        split = _proportional_split(n, {ex[0]: 1.0})
    elif ent and not av:
        alpha = 1.0 / sum(1.0 / a for _, a in ent)
        value = base_risk(ENTROPIC, alpha, probs, values)
        split = _proportional_split(n, {i: alpha / a for i, a in ent})
    elif av and not ent:
        beta = min(b for _, b in av)
        tail = min(i for i, b in av if b == beta)
        value = base_risk(AVAR, beta, probs, values)
        if n == 1:
            split = _proportional_split(1, {0: 1.0})
        else:
            zeta = _lower_quantile(probs, values, beta)
            others = [i for i, _ in av if i != tail]
            split = _stop_loss_split(n, zeta, tail, others[0])
    else:
        alpha = 1.0 / sum(1.0 / a for _, a in ent)
        beta = min(b for _, b in av)
        tail = min(i for i, b in av if b == beta)
        cap = 1.0 / (1.0 - beta)
        value, _, zeta = _mixed_dual(alpha, cap, probs, values)
        weights = {i: alpha / a for i, a in ent}
        split = _stop_loss_split(n, zeta, tail, None, floor_weights=weights)
    achieved = sum(
        base_risk(m.kind, m.param, probs, part)
        for m, part in zip(measures, split.apply(values))
    )
    if abs(achieved - value) > CERT_TOL * (1.0 + abs(value)):
        raise InternalInconsistency(
            f"comonotone split achieves {achieved}, convolution value {value}"
        )
    return value, split


def entropic_infconv(alphas, X: RandomVariable):
    """Convolution of entropic base measures: the entropic measure at the
    harmonic-sum parameter, attained by the proportional split."""
    alphas = [float(a) for a in alphas]
    if not alphas or any(a <= 0 for a in alphas):
        raise DomainError("entropic parameters must be positive")
    measures = tuple(LawInvariantAcceptanceSet(ENTROPIC, a) for a in alphas)
    return convolution_split(measures, X.space.probs, X.values)


def _rebalanced(split: ComonotoneSplit, measures, probs, values):
    """Shift constants between the split's parts so every part sits exactly
    on its acceptance boundary; the aggregate slack (= the convolution
    value, <= 0 on optimal remainders) lands on the last agent."""
    parts = split.apply(values)
    cs = np.array([
        base_risk(m.kind, m.param, probs, part)
        for m, part in zip(measures, parts)
    ])
    deltas = -cs
    deltas[-1] += cs.sum()
    return split.shifted(deltas)


# ----------------------------------------------------------------------
# the two-entropic-agent market
# ----------------------------------------------------------------------

@dataclass
class EntropicPairResult:
    value: float
    r_star: float
    cash: float                       # value / p, the traded cash layer
    kernel: RandomVariable            # r* (1_A - 1_{A^c}), price zero
    parts: tuple                      # final positions, summing to X
    acceptable_parts: tuple
    securities: tuple
    split: ComonotoneSplit
    certificates: dict = field(default_factory=dict)


def entropic_pair_sharing(p: float, alphas, a_labels,
                          X: RandomVariable) -> EntropicPairResult:
    """Two entropic agents trading cash (price p) and the zero-price spread
    1_A - 1_{A^c} (the pricing measure puts mass 1/2 on A).

    The requirement has a closed form,

        value = (p / (2 alpha)) (log E[e^{aX} 1_A] + log E[e^{aX} 1_{A^c}]
                                 + 2 log 2),

    and the optimal spread position r* solves the boundary equation
    e^{-ar} a~ + e^{ar} b~ = 1, a quadratic in e^{ar} whose discriminant
    vanishes at the optimum.
    """
    if p <= 0:
        raise DomainError("cash price scale must be positive")
    b_param, g_param = (float(a) for a in alphas)
    if b_param <= 0 or g_param <= 0:
        raise DomainError("entropic parameters must be positive")
    space = X.space
    mask = np.isin(np.array(space.labels), np.asarray(list(a_labels)))
    pa = float(space.probs[mask].sum())
    if not 0.0 < pa < 1.0:
        raise DomainError("the event A must be a nonempty proper subset")
    alpha = 1.0 / (1.0 / b_param + 1.0 / g_param)
    probs = space.probs
    log_a = float(_logsumexp(alpha * X.values[mask], probs[mask]))
    log_b = float(_logsumexp(alpha * X.values[~mask], probs[~mask]))
    value = (p / (2.0 * alpha)) * (log_a + log_b + 2.0 * math.log(2.0))
    cash = value / p

    # boundary quadratic in u = e^{alpha r}:  b~ u^2 - u + a~ = 0
    a_t = math.exp(log_a - alpha * cash)
    b_t = math.exp(log_b - alpha * cash)
    disc = 1.0 - 4.0 * a_t * b_t
    if disc < -1e-10:
        raise InternalInconsistency(
            f"boundary quadratic has negative discriminant {disc:.2e}"
        )
    u = (1.0 + math.sqrt(max(disc, 0.0))) / (2.0 * b_t)
    r_star = math.log(u) / alpha
    closed_ratio = (log_a - log_b) / (2.0 * alpha)
    if abs(r_star - closed_ratio) > 1e-7 * (1.0 + abs(r_star)):
        raise InternalInconsistency(
            "quadratic root and closed-ratio solutions disagree"
        )

    spread = np.where(mask, 1.0, -1.0)
    kernel = RandomVariable(space, r_star * spread)
    y = X.values - cash - kernel.values
    boundary = base_risk(ENTROPIC, alpha, probs, y)
    if abs(boundary) > CERT_TOL:
        raise InternalInconsistency(
            f"securitized remainder misses the acceptance boundary by "
            f"{boundary:.2e}"
        )

    measures = (LawInvariantAcceptanceSet(ENTROPIC, b_param),
                LawInvariantAcceptanceSet(ENTROPIC, g_param))
    split = _rebalanced(
        _proportional_split(2, {0: alpha / b_param, 1: alpha / g_param}),
        measures, probs, y)
    acc_parts = [RandomVariable(space, v) for v in split.apply(y)]
    sec1 = RandomVariable(space, cash * np.ones(space.size) + kernel.values)
    sec2 = RandomVariable(space, np.zeros(space.size))
    parts = (acc_parts[0] + sec1, acc_parts[1] + sec2)
    certs = {
        "aggregate_boundary": boundary,
        "part_risks": tuple(
            base_risk(m.kind, m.param, probs, ap.values)
            for m, ap in zip(measures, acc_parts)
        ),
    }
    return EntropicPairResult(
        value=value, r_star=r_star, cash=cash, kernel=kernel,
        parts=parts, acceptable_parts=tuple(acc_parts),
        securities=(sec1, sec2), split=split, certificates=certs)


# ----------------------------------------------------------------------
# the AVaR + entropic market
# ----------------------------------------------------------------------

@dataclass
class AvarEntropicResult:
    value: float
    s_star: float
    s_interval: tuple
    zeta: float
    r_star: float
    parts: tuple
    acceptable_parts: tuple
    securities: tuple
    security_prices: tuple
    dual_density: np.ndarray
    split: ComonotoneSplit
    certificates: dict = field(default_factory=dict)


def _greedy_cap_max(g, probs, cap, target) -> float:
    """max sum p g q over 0 <= q <= cap, sum p q = target (fractional
    knapsack; this is the exact LP optimum)."""
    order = np.argsort(-g, kind="stable")
    take = _cap_fill(cap * probs[order], target)
    if target - take.sum() > 1e-12:
        raise InternalInconsistency("dual box cannot carry the target mass")
    return float(take @ g[order])


def avar_entropic_sharing(beta: float, gamma: float, a_labels, qstar_a: float,
                          X: RandomVariable) -> AvarEntropicResult:
    """One AVaR(beta) agent and one entropic(gamma) agent; the market
    prices the unit at 1 and the event A at Q*(A) (so the zero-price
    kernel is N = 1_A - r* 1_{A^c} with r* = Q*(A)/(1-Q*(A))).

    The requirement is the maximum of E_q[X] - H(q|P)/gamma over densities
    0 <= q <= 1/(1-beta) with E[q] = 1 and E[q 1_A] = Q*(A); it separates
    over A and its complement into clipped exponentials.  The optimal
    kernel position is any point of {s : xi(X - value - sN) <= 0}; the
    midpoint is returned.  The allocation is a stop-loss split of the
    securitized remainder at the dual clipping threshold.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("AVaR level must lie in (0, 1)")
    if gamma <= 0:
        raise DomainError("entropic parameter must be positive")
    space = X.space
    probs = space.probs
    mask = np.isin(np.array(space.labels), np.asarray(list(a_labels)))
    pa = float(probs[mask].sum())
    if not 0.0 < pa < 1.0:
        raise DomainError("the event A must be a nonempty proper subset")
    cap = 1.0 / (1.0 - beta)
    q_lo = max(0.0, 1.0 - cap * (1.0 - pa))
    q_hi = min(cap * pa, 1.0)
    if not q_lo + 1e-12 < qstar_a < q_hi - 1e-12:
        raise DomainError(
            f"pinned mass Q*(A) = {qstar_a} must lie strictly inside "
            f"({q_lo}, {q_hi}) for this AVaR level"
        )

    q = np.zeros(space.size)
    q[mask], _ = _clipped_density(gamma, cap, probs[mask], X.values[mask],
                                  qstar_a)
    q[~mask], _ = _clipped_density(gamma, cap, probs[~mask], X.values[~mask],
                                   1.0 - qstar_a)
    value = float(probs @ (q * X.values)) - _relative_entropy(probs, q) / gamma

    # supergradient certificate: no feasible density improves the
    # linearized objective
    g = X.values - (1.0 + np.log(q)) / gamma
    best = (_greedy_cap_max(g[mask], probs[mask], cap, qstar_a)
            + _greedy_cap_max(g[~mask], probs[~mask], cap, 1.0 - qstar_a))
    gap = best - float(probs @ (q * g))
    if gap > CERT_TOL:
        raise InternalInconsistency(
            f"dual maximizer fails the supergradient check by {gap:.2e}"
        )

    r_star = qstar_a / (1.0 - qstar_a)
    kernel = np.where(mask, 1.0, -r_star)

    def h(s):
        return _mixed_dual(gamma, cap, probs,
                           X.values - value - s * kernel)[0]

    s0, h0 = _golden_min(h, 0.0, tol=1e-12)
    if h0 > CERT_TOL:
        raise InternalInconsistency(
            f"kernel feasibility interval is empty (min residual {h0:.2e})"
        )
    s_lo = _level_boundary(h, s0, -1.0, tol=0.0)
    s_hi = _level_boundary(h, s0, +1.0, tol=0.0)
    if s_lo is None or s_hi is None:
        raise NumericalFailure(
            "feasibility interval endpoint escaped the search range")
    s_star = 0.5 * (s_lo + s_hi)
    if h(s_star) > CERT_TOL:
        raise InternalInconsistency("midpoint left the feasibility interval")

    y = X.values - value - s_star * kernel
    _, _, zeta = _mixed_dual(gamma, cap, probs, y)
    measures = (LawInvariantAcceptanceSet(AVAR, beta),
                LawInvariantAcceptanceSet(ENTROPIC, gamma))
    split = _stop_loss_split(2, zeta, 0, 1)
    v1 = base_risk(AVAR, beta, probs, split.apply(y)[0])
    split = split.shifted(np.array([-v1, v1]))
    acc_vals = split.apply(y)
    part_risks = tuple(
        base_risk(m.kind, m.param, probs, v) for m, v in zip(measures, acc_vals)
    )
    if max(part_risks) > CERT_TOL:
        raise InternalInconsistency(
            f"allocation parts leave the acceptance sets: {part_risks}"
        )
    acc_parts = tuple(RandomVariable(space, v) for v in acc_vals)
    sec1 = RandomVariable(
        space, value * np.ones(space.size) - s_star * r_star * (~mask))
    sec2 = RandomVariable(space, s_star * mask.astype(float))
    prices = (value - s_star * r_star * (1.0 - qstar_a), s_star * qstar_a)
    if abs(sum(prices) - value) > 1e-9 * (1.0 + abs(value)):
        raise InternalInconsistency("security prices do not sum to the value")
    parts = (acc_parts[0] + sec1, acc_parts[1] + sec2)
    certs = {
        "supergradient_gap": gap,
        "midpoint_residual": h(s_star),
        "part_risks": part_risks,
    }
    return AvarEntropicResult(
        value=value, s_star=s_star, s_interval=(s_lo, s_hi), zeta=zeta,
        r_star=r_star, parts=parts, acceptable_parts=acc_parts,
        securities=(sec1, sec2), security_prices=prices, dual_density=q,
        split=split, certificates=certs)


# ----------------------------------------------------------------------
# general law-invariant systems
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LawInvariantProblem:
    """n law-invariant base measures with per-agent security spans, priced
    by  pi(Z) = p E_Q[Z]  for a nonnegative density Q."""

    space: ScenarioSpace
    measures: tuple               # LawInvariantAcceptanceSet per agent
    security_bases: tuple         # per agent: tuple of RandomVariable
    q: np.ndarray                 # pricing density (relative to P)
    p: float = 1.0
    kernel_witnesses: tuple = None  # optional densities, one per kernel axis

    def __post_init__(self):
        object.__setattr__(self, "measures", tuple(self.measures))
        object.__setattr__(self, "security_bases",
                           tuple(tuple(b) for b in self.security_bases))
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        if len(self.measures) == 0:
            raise StructuralError("at least one agent required")
        if len(self.security_bases) != len(self.measures):
            raise StructuralError("one security span per agent required")
        if self.p <= 0:
            raise StructuralError("price scale must be positive")
        if q.shape != (self.space.size,):
            raise StructuralError("pricing density must match the space")
        if np.min(q) < -1e-12:
            raise StructuralError("pricing density must be nonnegative")
        if abs(float(self.space.probs @ q) - 1.0) > 1e-9:
            raise StructuralError("pricing density must integrate to one")
        for base in self.security_bases:
            if len(base) == 0:
                raise StructuralError("every agent needs >= 1 security")
            for rv in base:
                if rv.space.labels != self.space.labels:
                    raise StructuralError("security on a different space")

    @property
    def n(self) -> int:
        return len(self.measures)

    def price(self, values) -> float:
        return float(self.p * (self.space.probs * self.q) @ values)

    def stacked_matrix(self) -> np.ndarray:
        cols = [rv.values for base in self.security_bases for rv in base]
        return np.column_stack(cols)


def _span_basis(B: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(B, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]


def validate_problem(prob: LawInvariantProblem) -> ValidationReport:
    """Structural checks plus the finite-space reading of the pricing
    assumption: no one-signed direction in the zero-price part of the
    aggregate span (such a direction would be a free lunch)."""
    rep = ValidationReport()
    rep.add("density_nonnegative", float(np.min(prob.q)) >= -1e-12,
            f"min q = {float(np.min(prob.q)):.3e}")
    mass = float(prob.space.probs @ prob.q)
    rep.add("density_mass_one", abs(mass - 1.0) <= 1e-9, f"E[q] = {mass}")
    span = _span_basis(prob.stacked_matrix())
    ones = np.ones(prob.space.size)
    resid = float(np.max(np.abs(ones - span @ (span.T @ ones))))
    rep.add("aggregate_span_contains_unit", resid <= 1e-9,
            f"projection residual {resid:.2e}")
    price_row = prob.p * (prob.space.probs * prob.q) @ span
    ns = linprog.null_space(price_row.reshape(1, -1))
    kernel = span @ ns
    if kernel.shape[1] == 0:
        rep.add("kernel_free_of_one_signed_directions", True, "kernel trivial")
    else:
        m = kernel.shape[0]
        rows = np.vstack([kernel, np.ones(m) @ kernel])
        senses = [linprog.GE] * m + [linprog.EQ]
        rhs = np.concatenate([np.zeros(m), [1.0]])
        sol = linprog.solve(linprog.LpProblem(
            c=np.zeros(kernel.shape[1]), rows=rows, senses=senses, rhs=rhs,
            lower=np.full(kernel.shape[1], -math.inf),
            upper=np.full(kernel.shape[1], math.inf)))
        rep.add("kernel_free_of_one_signed_directions",
                sol.status == "infeasible",
                f"one-signed search status: {sol.status}")
    if prob.kernel_witnesses is not None:
        ok = True
        detail = []
        for k, w in enumerate(prob.kernel_witnesses):
            w = np.asarray(w, dtype=float)
            val = float((prob.space.probs * w) @ kernel[:, k])
            ok &= val > 0
            detail.append(f"{val:.3e}")
        rep.add("kernel_witnesses_positive", ok, ", ".join(detail))
    return rep


@dataclass
class LawInvariantSharingResult:
    value: RiskValue
    parts: tuple = None
    acceptable_parts: tuple = None
    securities: tuple = None
    payoff: RandomVariable = None
    unit: RandomVariable = None         # unit-price payoff used as numeraire
    kernel: RandomVariable = None       # zero-price component of the payoff
    split: ComonotoneSplit = None
    dual_density: np.ndarray = None
    certificates: dict = field(default_factory=dict)


def _lp_kernel_search(measures, probs, X, D, p):
    """Pure AVaR/expectation systems: the requirement is a linear program
    in the cash layer, kernel coefficients and tail-average auxiliaries."""
    ent, av, ex = _grouped(measures)
    m = len(probs)
    k = D.shape[1]
    if ex:
        # sum p q X row only: min p*m s.t. E[X - m - Dt] <= 0
        row = np.concatenate([[-1.0], -(probs @ D)])
        c = np.concatenate([[p], np.zeros(k)])
        sol = linprog.solve(linprog.LpProblem(
            c=c, rows=row.reshape(1, -1), senses=[linprog.LE],
            rhs=np.array([-float(probs @ X)]),
            lower=np.full(1 + k, -math.inf), upper=np.full(1 + k, math.inf)))
    else:
        beta = min(b for _, b in av)
        # variables: m, t (k), tau, u (m >= 0)
        ntot = 1 + k + 1 + m
        c = np.zeros(ntot)
        c[0] = p
        rows, senses, rhs = [], [], []
        for w in range(m):
            row = np.zeros(ntot)
            row[0] = -1.0
            row[1:1 + k] = -D[w]
            row[1 + k] = -1.0
            row[2 + k + w] = -1.0
            rows.append(row)
            senses.append(linprog.LE)
            rhs.append(-X[w])
        row = np.zeros(ntot)
        row[1 + k] = 1.0
        row[2 + k:] = probs / (1.0 - beta)
        rows.append(row)
        senses.append(linprog.LE)
        rhs.append(0.0)
        lower = np.full(ntot, -math.inf)
        lower[2 + k:] = 0.0
        sol = linprog.solve(linprog.LpProblem(
            c=c, rows=np.array(rows), senses=senses, rhs=np.array(rhs),
            lower=lower, upper=np.full(ntot, math.inf)))
    if sol.status == "unbounded":
        raise DomainError(
            "requirement is unbounded below; the pricing of the kernel "
            "admits unlimited risk transfer"
        )
    if sol.status == "infeasible":
        raise InternalInconsistency("kernel search LP infeasible")
    return sol.primal[1:1 + k]


def law_invariant_requirement(prob: LawInvariantProblem,
                              X: RandomVariable) -> LawInvariantSharingResult:
    """Market requirement of a shared loss under law-invariant agents, with
    the standard decomposition of the optimizer: per agent one acceptable
    part (from the rebalanced comonotone split of the securitized
    remainder) plus one traded part (the agent's share of the optimal
    payoff under the sequential block selection)."""
    from .market import block_decompose, selection_blocks

    if X.space.labels != prob.space.labels:
        raise StructuralError("loss profile on a different scenario space")
    space = prob.space
    probs = space.probs
    span = _span_basis(prob.stacked_matrix())
    ones = np.ones(space.size)
    if float(np.max(np.abs(ones - span @ (span.T @ ones)))) > 1e-9:
        raise DomainError("aggregate security span must contain the unit")
    price_row = prob.p * (probs * prob.q) @ span
    D = span @ linprog.null_space(price_row.reshape(1, -1))
    k = D.shape[1]

    ent, av, ex = _grouped(prob.measures)
    if ent and not ex:
        def objective(t):
            return convolution_value(prob.measures, probs,
                                     X.values - D @ t)[0]
        t_star, _ = _coordinate_descent(objective, k)
    else:
        t_star = _lp_kernel_search(prob.measures, probs, X.values, D, prob.p)

    m_star, q_star = convolution_value(prob.measures, probs,
                                       X.values - D @ t_star)
    payoff_vals = m_star * ones + D @ t_star
    value = prob.p * m_star
    y = X.values - payoff_vals
    val_y, split = convolution_split(prob.measures, probs, y)
    split = _rebalanced(split, prob.measures, probs, y)
    acc_vals = split.apply(y)
    part_risks = tuple(
        base_risk(ms.kind, ms.param, probs, v)
        for ms, v in zip(prob.measures, acc_vals)
    )
    if max(part_risks) > CERT_TOL:
        raise InternalInconsistency(
            f"rebalanced parts leave their acceptance sets: {part_risks}"
        )

    unit_vals = ones / prob.p
    kernel_vals = -(D @ t_star)          # = value * unit - payoff
    bases = [np.column_stack([rv.values for rv in base])
             for base in prob.security_bases]
    blocks = selection_blocks(bases)
    unit_parts = block_decompose(blocks, unit_vals)
    kernel_parts = block_decompose(blocks, kernel_vals)
    parts, securities = [], []
    for i in range(prob.n):
        sec = value * unit_parts[i] - kernel_parts[i]
        securities.append(RandomVariable(space, sec))
        parts.append(RandomVariable(space, acc_vals[i] + sec))
    resid = float(np.max(np.abs(
        np.sum([pt.values for pt in parts], axis=0) - X.values)))
    if resid > 1e-8:
        raise InternalInconsistency(f"allocation sums off by {resid:.2e}")
    price_sum = sum(prob.price(s.values) for s in securities)
    certs = {
        "aggregate_boundary": val_y,
        "part_risks": part_risks,
        "allocation_residual": resid,
        "security_price_sum": price_sum,
    }
    return LawInvariantSharingResult(
        value=RiskValue.finite(value),
        parts=tuple(parts),
        acceptable_parts=tuple(RandomVariable(space, v) for v in acc_vals),
        securities=tuple(securities),
        payoff=RandomVariable(space, payoff_vals),
        unit=RandomVariable(space, unit_vals),
        kernel=RandomVariable(space, kernel_vals),
        split=split,
        dual_density=q_star,
        certificates=certs,
    )


def law_invariant_sharing(system, X: RandomVariable):
    """Adapter for agent systems whose members are all law-invariant:
    recover the (p, Q) pricing form from the stacked security prices, run
    the requirement, and certify that the per-agent risks of the returned
    allocation sum to it."""
    from .market import Allocation, SharingResult

    space = system.space
    B, prices, _ = system.stacked_basis()
    m = space.size
    sol = linprog.solve(linprog.LpProblem(
        c=np.ones(m), rows=B.T, senses=[linprog.EQ] * B.shape[1], rhs=prices,
        lower=np.zeros(m), upper=np.full(m, math.inf)))
    if sol.status != "optimal":
        raise DomainError(
            "agent prices admit no nonnegative pricing measure"
        )
    d = sol.primal
    p = float(d.sum())
    if p <= 0:
        raise DomainError("pricing measure has no mass")
    q = d / (p * space.probs)
    prob = LawInvariantProblem(
        space=space,
        measures=tuple(r.acceptance for r in system.regimes),
        security_bases=tuple(r.market.basis for r in system.regimes),
        q=q, p=p)
    res = law_invariant_requirement(prob, X)
    value = res.value.as_float()
    agent_risks = [rho(r, pt).value
                   for r, pt in zip(system.regimes, res.parts)]
    total = sum(v.as_float() for v in agent_risks)
    if abs(total - value) > CERT_TOL * (1.0 + abs(value)):
        raise InternalInconsistency(
            f"sum of certified agent risks {total} != requirement {value}"
        )
    # the numeric density satisfies the dual constraints (security prices,
    # nonnegativity, per-measure caps) only to solver precision; a
    # supporting functional must satisfy them outright, so clip it into
    # the box and restore the prices with a minimum-norm correction until
    # the corrected density stays in the box.  The correction moves only
    # the coordinates strictly inside the box unless they cannot restore
    # the prices (AVaR's density at tied losses may have none inside)
    q_star = res.dual_density
    cap = min(m.dual_cap() for m in prob.measures)
    for _ in range(3):
        q_star = np.clip(q_star, 0.0, cap)
        inside = (q_star > 0.0) & (q_star < cap)
        w = prob.p * q_star * space.probs
        tol = 1e-12 * (1.0 + float(np.max(np.abs(B).T @ w)))
        for movable in (inside, np.full(space.size, True)):
            delta = np.linalg.lstsq(B[movable].T, prices - B.T @ w,
                                    rcond=None)[0]
            q = q_star.copy()
            q[movable] = (w[movable] + delta) / (prob.p * space.probs[movable])
            resid = float(np.max(np.abs(B.T @ (prob.p * q * space.probs)
                                        - prices)))
            if resid <= tol:
                break
        q_star = q
        if resid <= tol and np.all((q_star >= 0.0) & (q_star <= cap)):
            break
    else:
        raise NumericalFailure(
            f"no density inside the dual box restores the security prices "
            f"(price residual {resid:.2e})"
        )
    subgradient = Functional(space, prob.p * q_star)
    return SharingResult(
        value=res.value,
        allocation=Allocation(res.parts),
        payoff=res.payoff,
        subgradient=subgradient,
        agent_risks=agent_risks,
        method="lawinv",
    )
