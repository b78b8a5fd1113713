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
from .linprog import CERT_TOL
from .regime import (
    AVAR,
    ENTROPIC,
    EXPECTATION,
    LawInvariantAcceptanceSet,
    RiskValue,
    ValidationReport,
    _block_lp,
    _cap_fill,
    _evaluate_rows,
    _kernel_newton,
    _lp_block,
    _lp_rows,
    _priced_density,
    _pricing_margin,
    _relative_entropy,
    _search_rows,
    _span_basis,
    base_risk,
    base_risk_conjugate,
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
    "convolution_value",
    "convolution_split",
    "AvarEntropicResult",
    "avar_entropic_sharing",
    "LawInvariantProblem",
    "validate_problem",
    "LawInvariantSharingResult",
    "law_invariant_requirement",
    "law_invariant_value",
    "law_invariant_sharing",
]


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


def _stop_loss_split(n: int, zeta: float, tail: int,
                     weights: dict) -> ComonotoneSplit:
    """Tail agent takes (x - zeta)+; the floor group takes x ∧ zeta,
    agent i the share weights[i]."""
    sl = np.zeros((n, 2))
    an = np.zeros(n)
    sl[tail, 1] = 1.0
    an[tail] = max(-zeta, 0.0)
    for i, w in weights.items():
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
    """The maximizing density of AVaR, along the last axis of `values`:
    cap mass on the worst scenarios."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, axis=-1, kind="stable")
    p = probs[order]
    q = np.empty(values.shape)
    np.put_along_axis(q, order, _cap_fill(p / (1.0 - beta)) / p, axis=-1)
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


def _entropic_param(ent) -> float:
    """Parameter of the convolved entropic agents: the harmonic sum, or the
    one agent's own parameter (1 / (1 / a) need not equal a)."""
    if len(ent) == 1:
        return ent[0][1]
    return 1.0 / sum(1.0 / a for _, a in ent)


def convolution_value(measures, probs, values):
    """Value of the infimal convolution of the base measures at the
    aggregate loss, with the maximizing density: a float and a density for
    one loss profile, one value and one density per row for a batch.
    Every value is a base_risk or sorted-order evaluation, so relabelling
    the scenarios leaves it bitwise unchanged, and so does batching."""
    ent, av, ex = _grouped(measures)
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if ex:
        return base_risk(EXPECTATION, 0.0, probs, values), np.ones(values.shape)
    if ent and not av:
        alpha = _entropic_param(ent)
        value = base_risk(ENTROPIC, alpha, probs, values)
        shift = value[:, None] if values.ndim > 1 else value
        return value, np.exp(alpha * (values - shift))
    if av and not ent:
        beta = min(b for _, b in av)
        return (base_risk(AVAR, beta, probs, values),
                _avar_density(beta, probs, values))
    cap = 1.0 / (1.0 - min(b for _, b in av))
    alpha = _entropic_param(ent)
    if values.ndim == 1:
        value, q, _ = _mixed_dual(alpha, cap, probs, values)
        return value, q
    duals = [_mixed_dual(alpha, cap, probs, v) for v in values]
    return (np.array([d[0] for d in duals]),
            np.array([d[1] for d in duals]).reshape(values.shape))


def convolution_split(measures, probs, values):
    """Value of the convolution together with a comonotone split attaining
    it; the exactness  sum_i xi_i(f_i(W)) = value  is certified."""
    value, split, _ = _certified_split(measures, probs, values)
    return value, split


def _certified_split(measures, probs, values):
    """convolution_split's value and split, with the part risks its
    certificate sums (_part_risks of the split's parts)."""
    ent, av, ex = _grouped(measures)
    n = len(measures)
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if ex:
        value = base_risk(EXPECTATION, 0.0, probs, values)
        split = _proportional_split(n, {ex[0]: 1.0})
    elif ent and not av:
        alpha = _entropic_param(ent)
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
            split = _stop_loss_split(n, zeta, tail, {others[0]: 1.0})
    else:
        alpha = _entropic_param(ent)
        beta = min(b for _, b in av)
        tail = min(i for i, b in av if b == beta)
        cap = 1.0 / (1.0 - beta)
        value, _, zeta = _mixed_dual(alpha, cap, probs, values)
        weights = {i: alpha / a for i, a in ent}
        split = _stop_loss_split(n, zeta, tail, weights)
    risks = _part_risks(measures, probs, split.apply(values))
    achieved = sum(risks)
    if abs(achieved - value) > CERT_TOL * (1.0 + abs(value)):
        raise InternalInconsistency(
            f"comonotone split achieves {achieved}, convolution value {value}"
        )
    return value, split, risks


def _part_risks(measures, probs, parts) -> list:
    """base_risk of each row of `parts` under its agent's measure, as a
    list of floats in agent order: one batched call per distinct
    (kind, param), one plain call for an agent whose measure no other
    agent shares.  base_risk is row-stable, so every entry equals the
    per-part call bitwise."""
    groups = {}
    for i, m in enumerate(measures):
        groups.setdefault((m.kind, m.param), []).append(i)
    risks = [None] * len(measures)
    for (kind, param), idx in groups.items():
        if len(idx) == 1:
            risks[idx[0]] = base_risk(kind, param, probs, parts[idx[0]])
        else:
            for i, v in zip(idx, base_risk(kind, param, probs, parts[idx])):
                risks[i] = float(v)
    return risks


def _unit_root(measures, probs, Y, U):
    """For each row of Y, the t with conv(Y - t U) = 0 for a strictly
    positive U, and the maximizing density q of Y - t U.  For U = u 1,
    cash additivity gives t = conv(Y) / u.  Otherwise Newton's method,
    t <- t + conv / E_q[U]: the function is convex and decreasing in t
    with slope -E_q[U] in [-max U, -min U], so the iterates approach the
    root from below after at most one step.  Rows leave the iteration as
    they converge; each row's iterates are those of a batch of one.
    Raises NumericalFailure when a row's density underflows to zero."""
    v, q = convolution_value(measures, probs, Y)
    if (U == U[0]).all():
        return v / U[0], q
    t = v / float(probs @ U)
    t_out, q_out = t.copy(), q
    live = np.arange(Y.shape[0])           # the rows still iterating
    for _ in range(100):
        R = Y - t[:, None] * U
        v, q = convolution_value(measures, probs, R)
        mass = np.vecdot(q * U, probs)
        if np.count_nonzero(mass) < mass.size:
            # the density underflowed to zero everywhere: far outside the
            # region this root can be found from
            raise NumericalFailure("unit root of the convolution lost its "
                                   "dual density")
        step = v / mass
        # a step below the rounding of conv is noise
        done = np.abs(step) <= 1e-14 * (1.0 + np.max(np.abs(R), axis=1)) / mass
        t_out[live[done]], q_out[live[done]] = t[done], q[done]
        if done.all():
            return t_out, q_out
        live, Y, t, step = live[~done], Y[~done], t[~done], step[~done]
        t = t + step
    raise NumericalFailure("unit root of the convolution did not converge")


def _kernel_search(measures, probs, B, prices, U, price, margin=None):
    """The requirement inf { pi(Z) : Z in span B, conv(X - Z) <= 0 } of the
    representative agent of `measures` (rho for one agent, Lambda for
    several), pi pricing the columns of B at `prices`, for a strictly
    positive payoff U of the span with pi(U) = `price`.

    Returns the search over the rows of an (N, m) array of losses X, with
    its market-only part done once.  Its outcome is (t, Z, q, refusals):
    per row the requirement price * t (-inf where it is unbounded below,
    NaN on a refused row), an optimal payoff Z and the maximizing dual
    density q of X - Z, of mass one, and the dict mapping each refused row
    to its exception, which the caller raises in row order.

    * One traded payoff with a constant U is cash additive: one
      convolution, no kernel (regime._evaluate_rows).
    * AVaR and expectation systems: rho's LP (regime._block_lp) over the
      convolved measure's LP form, row by row; q is 1 for the expectation
      and z / (P sum z) for AVaR, z = -duals of the tail rows, which come
      first in the form.
    * Systems with an entropic agent: over an orthonormal payoff basis D
      of the price kernel, with Z = t U + D eta.  Unbounded below on every
      row when no density in the agents' dual box prices the span, and
      refused before the search when every such density vanishes
      somewhere, that is, when the span holds a nonzero nonnegative payoff
      of price zero (NumericalFailure: the infimum is not attained); then
      the kernel Newton search over t*(eta) from _unit_root, all rows in
      lockstep, certified by the duality gap against the price-repaired
      density and the agents' conjugates.  `margin`, when given, is that
      pricing margin: with an infinite dual box it is the margin of any
      density that prices the span as pi / price does, so a caller that
      has solved that LP passes it in."""
    if B.shape[1] == 1 and np.all(U == U[0]):
        def cash(X):
            def evaluate(_, rows):
                t, q = _unit_root(measures, probs, X[rows], U)
                return t, q, q      # no curvature density in the cash layer
            n = X.shape[0]
            t, q, _, refusals = _evaluate_rows(evaluate, np.zeros((n, 0)),
                                               np.arange(n), U.size)
            return t, t[:, None] * U, q, refusals
        return cash
    ent, av, ex = _grouped(measures)
    if ex or not ent:
        acc = (measures[ex[0]] if ex else
               LawInvariantAcceptanceSet(AVAR, min(b for _, b in av)))
        form = _lp_rows(acc, probs)
        W, _, bounds, _ = form
        lp = _block_lp(_lp_block(form, B, prices), bounds)

        def outcome(x):
            sol = linprog.solve(linprog._variant(lp, rhs=bounds - W @ x))
            if sol.status == "unbounded":
                return -math.inf, math.nan, math.nan
            if sol.status == "infeasible":
                raise InternalInconsistency("kernel search LP infeasible")
            z = -sol.duals[:x.size]
            q = 1.0 if ex else z / (float(np.sum(z)) * probs)
            return sol.objective_value / price, B @ sol.primal[:B.shape[1]], q
        return lambda X: _search_rows(outcome, X, X.shape[1])

    D = _span_basis(B @ linprog.null_space(np.reshape(prices, (1, -1))))
    cap = min(ms.dual_cap() for ms in measures)
    if D.shape[1]:
        # the box bounds densities of mass one; a cap is finite only for
        # Lambda, whose U = 1 such a density prices at 1
        if margin is None or math.isfinite(cap):
            margin, _ = _pricing_margin(probs, B, prices / price, cap)
        if margin < -1e-12:
            return lambda X: (np.full(X.shape[0], -math.inf),
                              np.full(X.shape, math.nan),
                              np.full(X.shape, math.nan), {})
        if margin <= 1e-12:
            raise NumericalFailure(
                "the infimum over the price kernel is not attained: the "
                "span holds a nonzero nonnegative payoff of price zero")
    # the convolved entropic parameter is the curvature where the dual
    # density is not clipped
    alpha = _entropic_param(ent)

    def newton(X):
        def evaluate(eta, rows):
            # rows increase, so at full size they are all rows in order
            Y = X if rows.size == X.shape[0] else X[rows]
            t, q = _unit_root(measures, probs,
                              Y - (D @ eta[..., None])[..., 0], U)
            return t, q, alpha * q * (q < cap)

        def dual(row, q):
            # the pricing measure scale * q P prices U at `price`
            scale = price / float(U @ (probs * q))
            q = _priced_density(q, scale, probs, B, prices, cap)
            mass = float(probs @ q)
            conj = sum(base_risk_conjugate(ms.kind, ms.param, probs,
                                           q / mass).as_float()
                       for ms in measures)
            return scale * (float(probs @ (q * X[row])) - mass * conj) / price

        eta, t, q, errors = _kernel_newton(evaluate, dual, probs, D, U,
                                           X.shape[0])
        return (t, t[:, None] * U + (D @ eta[..., None])[..., 0], q,
                {j: e for j, e in enumerate(errors) if e is not None})
    return newton


def _unwind(measures, probs, y):
    """A securitized remainder y unwound into one acceptable part per
    agent: the comonotone split of convolution_split, with constants
    shifted between its parts so that every part sits exactly on its
    acceptance boundary and the aggregate slack (the convolution value,
    about 0 on optimal remainders) lands on the last agent.  The shifts
    are the part risks the split's own certificate computed
    (_certified_split), so the parts' risks are evaluated once before the
    shift and once after it.

    Returns (convolution value, split, part values, part risks) and raises
    InternalInconsistency when a part's risk exceeds CERT_TOL."""
    value, split, cs = _certified_split(measures, probs, y)
    cs = np.array(cs)
    deltas = -cs
    deltas[-1] += cs.sum()
    split = split.shifted(deltas)
    parts = split.apply(y)
    risks = tuple(_part_risks(measures, probs, parts))
    if max(risks) > CERT_TOL:
        raise InternalInconsistency(
            f"rebalanced parts leave their acceptance sets: {risks}")
    return value, split, parts, risks


# ----------------------------------------------------------------------
# the AVaR + entropic market
# ----------------------------------------------------------------------
# No command runs this closed form: it stays in the library because
# perfbench's `lawinv-lambda` workload imports avar_entropic_sharing as
# the reference its Lambda is checked against.

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
    over A and its complement into clipped exponentials min(c e^{gamma X},
    cap) with clip constants c_A and c_{A^c}.  The optimal kernel position
    s* is where q is also the mixed dual density of X - value - s N: one
    clip constant c then serves both sides, c e^{-gamma s} = c_A and
    c e^{gamma s r*} = c_{A^c}, so

        s* = (log c_{A^c} - log c_A) / (gamma (1 + r*)),

    unique because the pinned mass leaves an unclipped scenario on each
    side of A.  The allocation is the stop-loss split of the securitized
    remainder at the dual clipping threshold (_unwind).
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
    q[mask], log_c_a = _clipped_density(gamma, cap, probs[mask],
                                        X.values[mask], qstar_a)
    q[~mask], log_c_ac = _clipped_density(gamma, cap, probs[~mask],
                                          X.values[~mask], 1.0 - qstar_a)
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
    s_star = (log_c_ac - log_c_a) / (gamma * (1.0 + r_star))
    y = X.values - value - s_star * kernel
    measures = (LawInvariantAcceptanceSet(AVAR, beta),
                LawInvariantAcceptanceSet(ENTROPIC, gamma))
    # the slack above the boundary is a part risk, checked by _unwind
    residual, split, acc_vals, part_risks = _unwind(measures, probs, y)
    if abs(residual) > CERT_TOL:
        raise InternalInconsistency(
            f"kernel position misses the acceptance boundary by "
            f"{residual:.2e}")
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
        "midpoint_residual": residual,
        "part_risks": part_risks,
    }
    return AvarEntropicResult(
        value=value, s_star=s_star, s_interval=(s_star, s_star),
        zeta=float(split.breakpoints[0]),
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

    def __getstate__(self):
        # the cached search (_problem_search) is a closure, rebuilt on use
        return {k: v for k, v in self.__dict__.items() if k != "_search"}

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
        # +inf: the kernel holds no nonzero nonnegative payoff
        free = _pricing_margin(np.ones(kernel.shape[0]), kernel,
                               np.zeros(kernel.shape[1]), math.inf)[0] == math.inf
        rep.add("kernel_free_of_one_signed_directions", free,
                "one-signed search status: "
                + ("infeasible" if free else "optimal"))
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


def _unit_span(B):
    """The orthonormal basis of the column span of B (_span_basis), or
    None when the span does not hold the unit payoff 1 (a projection
    residual above 1e-9)."""
    span = _span_basis(B)
    ones = np.ones(B.shape[0])
    if float(np.max(np.abs(ones - span @ (span.T @ ones)))) > 1e-9:
        return None
    return span


def _system_span(system):
    """_unit_span of an agent system's stacked basis, computed once and
    cached on the system: it decides whether an entropic-free system
    shares here at all (market._law_invariant_path), and _system_problem
    builds the kernel search over it."""
    if "_lawinv_span" not in system.__dict__:
        object.__setattr__(system, "_lawinv_span",
                           _unit_span(system.stacked_basis()[0]))
    return system._lawinv_span


def _problem_search(prob: LawInvariantProblem, margin=None, span=None):
    """The market-only part of every requirement of `prob`, done once and
    cached on it: the orthonormal basis of the aggregate span (which must
    hold the unit; _unit_span) and _kernel_search over it, with the unit
    payoff 1 at price p.  `margin` is the pricing margin of q over the
    span when the caller knows it (see _kernel_search), and `span` that
    basis when the caller has it."""
    search = prob.__dict__.get("_search")
    if search is None:
        probs = prob.space.probs
        if span is None:
            span = _unit_span(prob.stacked_matrix())
        if span is None:
            raise DomainError("aggregate security span must contain the unit")
        ones = np.ones(prob.space.size)
        price_row = prob.p * (probs * prob.q) @ span
        search = _kernel_search(prob.measures, probs, span, price_row, ones,
                                prob.p, margin)
        object.__setattr__(prob, "_search", search)
    return search


def _securitize(prob: LawInvariantProblem, rows):
    """The requirement searches of the rows of `rows`, all at once, then
    each row's primal certificate in row order: _unwind splits its
    securitized remainder X - Z into acceptable parts.  Returns (t, Z, q,
    unwound), the search's arrays (the requirement being p t) and the
    _unwind outcome of each row; a row that is refused or unbounded below
    raises when its turn comes, as a loop over the rows would."""
    t, Z, q, refusals = _problem_search(prob)(rows)
    unwound = []
    for i, x in enumerate(rows):
        if i in refusals:
            raise refusals[i]
        if t[i] == -math.inf:
            raise DomainError(
                "requirement is unbounded below; no density in the agents' "
                "dual box prices the securities"
            )
        unwound.append(_unwind(prob.measures, prob.space.probs, x - Z[i]))
    return t, Z, q, unwound


def law_invariant_requirement(prob: LawInvariantProblem,
                              X: RandomVariable) -> LawInvariantSharingResult:
    """Market requirement of a shared loss under law-invariant agents: rho
    of the representative agent, whose acceptance set {conv <= 0} is the
    sum of the agents' sets and whose market is the sum of their markets
    (_kernel_search over an orthonormal basis of the aggregate span, with
    the unit payoff 1 at price p, built once per problem).  The optimizer
    comes with the standard decomposition: per agent one acceptable part
    (the securitized remainder unwound by _unwind) plus one traded part
    (the agent's share of the optimal payoff under the sequential block
    selection)."""
    from .market import block_decompose, selection_blocks

    if X.space.labels != prob.space.labels:
        raise StructuralError("loss profile on a different scenario space")
    space = prob.space
    (m_star,), (payoff_vals,), (q_star,), (unwound,) = _securitize(
        prob, X.values[None, :])
    val_y, split, acc_vals, part_risks = unwound
    value = prob.p * m_star

    ones = np.ones(space.size)
    unit_vals = ones / prob.p
    kernel_vals = m_star * ones - payoff_vals    # = value * unit - payoff
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
    if resid > 1e-8 * max(1.0, float(np.max(np.abs(X.values)))):
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


def _system_problem(system) -> LawInvariantProblem:
    """The (p, Q) pricing form of a law-invariant agent system, built once
    and cached on it: the density d of _pricing_margin prices the
    securities of the system's markets (the kept answer of the market
    when every agent holds one market object), p = E[d] and q = d / p.
    The weights P d decide pi(0) (market._ensure_shareable), so a system
    with scalable arbitrage is refused as such before any other refusal.
    With the search that _problem_search caches on the problem, every
    Lambda on the system shares one copy of its market-only work."""
    prob = system.__dict__.get("_lawinv_problem")
    if prob is not None:
        return prob
    from .market import _ensure_shareable, _verdict_first

    space = system.space
    with _verdict_first(system):
        margin, d = system.market_answer(
            lambda mk: mk.pricing_margin(space.probs),
            lambda B, prices: _pricing_margin(space.probs, B, prices,
                                              math.inf))
    _ensure_shareable(system, None if d is None else space.probs * d)
    if margin == math.inf:
        raise DomainError("aggregate security span must contain the unit")
    if not margin >= -1e-12:
        raise DomainError(
            "agent prices admit no nonnegative pricing measure"
        )
    p = float(space.probs @ d)
    if p <= 0:
        raise DomainError("pricing measure has no mass")
    prob = LawInvariantProblem(
        space=space,
        measures=tuple(r.acceptance for r in system.regimes),
        security_bases=tuple(r.market.basis for r in system.regimes),
        q=d / p, p=p)
    span = _system_span(system)
    if span is None:
        raise DomainError("aggregate security span must contain the unit")
    # q = d / p prices the span as d does the stacked securities, so its
    # margin over the span is margin / p: the kernel search needs no LP
    # of its own when the dual box is unbounded
    _problem_search(prob, margin / p, span)
    object.__setattr__(system, "_lawinv_problem", prob)
    return prob


def law_invariant_value(system, rows) -> np.ndarray:
    """Lambda of each row of `rows` (one loss profile per row) on a
    law-invariant agent system, without the allocation: one search over
    all rows on the system's cached pricing form and kernel search, each
    row certified by _unwind's acceptable parts of its securitized
    remainder.  The values are law_invariant_requirement's, bitwise, and
    the first refused row raises its refusal."""
    prob = _system_problem(system)
    return prob.p * _securitize(prob, rows)[0]


def law_invariant_sharing(system, X: RandomVariable, certify: bool = True):
    """Adapter for agent systems whose members are all law-invariant: run
    the requirement on the system's (p, Q) pricing form (_system_problem)
    and price its dual density into a supporting functional phi.  With
    `certify`, each agent's rho of its part takes as certificate (rho)
    the coefficients of its security with phi, which bracket it by weak
    duality without a search of its own (an agent whose bracket is too
    wide, or a cash agent, answers by its own search), and the per-agent
    risks must sum to the requirement; otherwise agent_risks is None."""
    from .market import Allocation, SharingResult

    prob = _system_problem(system)
    res = law_invariant_requirement(prob, X)
    value = res.value.as_float()
    # a supporting functional must satisfy the dual constraints outright
    space = system.space
    B, prices, _ = system.stacked_basis()
    q_star = _priced_density(res.dual_density, prob.p, space.probs, B, prices,
                             min(ms.dual_cap() for ms in prob.measures))
    subgradient = Functional(space, prob.p * q_star)
    agent_risks = None
    if certify:
        agent_risks = []
        for r, pt, sec in zip(system.regimes, res.parts, res.securities):
            z = r.market.coefficients_of(sec.values)
            agent_risks.append(rho(r, pt, None if z is None
                                   else (z, subgradient)).value)
        total = sum(v.as_float() for v in agent_risks)
        if abs(total - value) > CERT_TOL * (1.0 + abs(value)):
            raise InternalInconsistency(
                f"sum of certified agent risks {total} != requirement {value}"
            )
    return SharingResult(
        value=res.value,
        allocation=Allocation(res.parts),
        payoff=res.payoff,
        subgradient=subgradient,
        agent_risks=agent_risks,
        method="lawinv",
    )
