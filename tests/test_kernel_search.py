"""The law-invariant kernel search against the coordinate search it
replaced, and the refusals and certificates around it.

The reference below is the former search: a coordinate descent of golden
searches over price-kernel coefficients, each evaluation of rho running a
bracketed root in the cash layer.  The kernel Newton search, the
Rockafellar-Uryasev LP and the cash-additive closed form must agree with
it and never exceed it.  The closed-form kernel position of the AVaR +
entropic pair is held against the former golden-section search and
boundary walks in the same way."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from riskshare import linprog, oracle
from riskshare.errors import DomainError, NumericalFailure
from riskshare.lawinv import (
    CERT_TOL,
    LawInvariantProblem,
    _mixed_dual,
    _span_basis,
    avar_entropic_sharing,
    convolution_value,
    law_invariant_requirement,
)
from riskshare.market import AgentSystem, Allocation, capital_requirement
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    EXPECTATION,
    LawInvariantAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    _kernel_newton,
    rho,
    rho_batch,
)
from riskshare.scenario import ScenarioSpace, SupportMask

# fixed before the comparison was first run
REL_TOL = 1e-8


# ----------------------------------------------------------------------
# the reference: the former coordinate search
# ----------------------------------------------------------------------

def _golden_min(g, x0, tol=1e-10):
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


def _root_decreasing(h, lo_hint=0.0):
    lo, hi = lo_hint, lo_hint + 1.0
    step = 1.0
    while h(hi) > 0:
        lo = hi
        step *= 2.0
        hi += step
    step = 1.0
    while h(lo) < 0:
        hi = lo
        step *= 2.0
        lo -= step
    flo, fhi = h(lo), h(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    return float(optimize.brentq(h, lo, hi, xtol=1e-13, rtol=8.9e-16))


def _coordinate_descent(objective, k):
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
            return best
    raise NumericalFailure("coordinate descent did not converge")


def _level_boundary(g, inside, direction):
    """The former walk-and-bisect to the edge of {g <= 0}."""
    step = 1.0
    w = inside
    while g(w + direction * step) <= 0.0:
        w += direction * step
        step *= 2.0
        if abs(w) > 1e15:
            raise NumericalFailure("feasibility interval is unbounded")
    a, b = sorted((w, w + direction * step))
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb < 0:
        return float(optimize.brentq(g, a, b, xtol=1e-13, rtol=8.9e-16))
    return w


def _reference_kernel_position(beta, gamma, mask, qstar_a, X, value):
    """The former kernel position of avar_entropic_sharing: the midpoint
    of {s : conv(X - value - s N) <= 0}, found by a golden-section search
    for a feasible point and a boundary walk on each side."""
    probs = X.space.probs
    cap = 1.0 / (1.0 - beta)
    r_star = qstar_a / (1.0 - qstar_a)
    kernel = np.where(mask, 1.0, -r_star)

    def h(s):
        return _mixed_dual(gamma, cap, probs, X.values - value - s * kernel)[0]

    s0, h0 = _golden_min(h, 0.0, tol=1e-12)
    assert h0 <= CERT_TOL
    s_lo = _level_boundary(h, s0, -1.0)
    s_hi = _level_boundary(h, s0, +1.0)
    return 0.5 * (s_lo + s_hi)


def _reference_rho(r, x):
    """The former search, over an orthonormal payoff basis of the kernel
    (over raw coefficients it needs more than 300 cycles on some of the
    three-direction draws below)."""
    B = r.market.basis_matrix()
    _, w_u = r.market.unit_certificate(r.support.included)
    U = B @ w_u
    D = _span_basis(B @ linprog.null_space(r.market.prices.reshape(1, -1)))
    xi = lambda v: r.acceptance.xi(r.space.probs, v)

    def t_star(eta):
        resid = x - D @ eta
        return _root_decreasing(lambda t: xi(resid - t * U))

    return _coordinate_descent(t_star, D.shape[1])


def _reference_lambda(prob, x):
    probs = prob.space.probs
    span = _span_basis(prob.stacked_matrix())
    price_row = prob.p * (probs * prob.q) @ span
    D = span @ linprog.null_space(price_row.reshape(1, -1))
    m = _coordinate_descent(
        lambda t: convolution_value(prob.measures, probs, x - D @ t)[0],
        D.shape[1])
    return prob.p * m


# ----------------------------------------------------------------------
# seeded systems
# ----------------------------------------------------------------------

def _measure(rng, kind):
    if kind == ENTROPIC:
        return LawInvariantAcceptanceSet(ENTROPIC, float(rng.uniform(0.3, 2.5)))
    if kind == AVAR:
        return LawInvariantAcceptanceSet(AVAR, float(rng.uniform(0.2, 0.7)))
    return LawInvariantAcceptanceSet(EXPECTATION)


def _draw(rng, i, cap, cash):
    """Scenario space, pricing density strictly inside (0, cap) (P itself
    for cap 1), a strictly positive unit (cash if `cash`) and 1 to 3
    kernel payoffs."""
    m = 2 + i % 7
    k = 1 + (i // 2) % min(3, m - 1)
    probs = rng.uniform(0.2, 1.0, m)
    probs /= probs.sum()
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)), probs)
    if cap == 1.0:
        q = np.ones(m)
    else:
        q = 1.0 + rng.uniform(-0.4, 0.4, m) * min(1.0, cap - 1.0)
        q /= probs @ q
    unit = np.ones(m) if cash else rng.uniform(0.5, 2.0, m)
    payoffs = [unit] + [rng.normal(0.0, 1.0, m) for _ in range(k)]
    x = rng.normal(0.0, 1.5, m)
    return space, q, payoffs, x


def _dual_lp(probs, B, prices, x, cap, pinned):
    """The requirement of AVaR or expectation agents from the dual side,
    solved by SciPy's HiGHS: max E[d X] over densities d >= 0 pricing the
    columns of B with d <= cap E[d] (and d >= E[d] when `pinned`, for the
    expectation)."""
    m = probs.size
    rows = [np.eye(m) - cap * np.tile(probs, (m, 1))]
    if pinned:
        rows.append(np.tile(probs, (m, 1)) - np.eye(m))
    res = optimize.linprog(
        -(probs * x), A_ub=np.vstack(rows), b_ub=np.zeros(len(rows) * m),
        A_eq=(probs[:, None] * B).T, b_eq=prices,
        bounds=[(0.0, None)] * m, method="highs")
    assert res.status == 0
    return -res.fun


RHO_CASES = [(kind, i) for kind in (ENTROPIC, AVAR, EXPECTATION)
             for i in range(12)]


@pytest.mark.parametrize("kind, i", RHO_CASES)
def test_rho_matches_the_coordinate_search(kind, i):
    rng = np.random.default_rng([61, i, len(kind)])
    acc = _measure(rng, kind)
    space, q, payoffs, x = _draw(rng, i, acc.dual_cap(), i % 2 == 0)
    prices = np.array([float((space.probs * q) @ b) for b in payoffs])
    market = SecurityMarket(tuple(space.rv(b) for b in payoffs), prices)
    r = RiskMeasurementRegime(SupportMask.full(space), acc, market)
    got = rho(r, space.rv(x))
    if kind == ENTROPIC or (kind == AVAR and len(payoffs) == 2):
        ref = _reference_rho(r, x)
    else:
        # coordinate descent stalls at the kinks of a piecewise-linear
        # objective in two or more directions, and cannot bracket the flat
        # objective of an expectation agent whose kernel P prices
        ref = _dual_lp(space.probs, market.basis_matrix(), prices, x,
                       acc.dual_cap(), kind == EXPECTATION)
    tol = REL_TOL * (1.0 + abs(ref))
    assert got.value.as_float() <= ref + tol
    assert abs(got.value.as_float() - ref) <= tol
    # the returned hedge is acceptable and priced at the value
    assert r.acceptance.xi(space.probs, x - got.security.values) <= tol
    assert market.price(got.coefficients) == pytest.approx(
        got.value.as_float(), abs=tol)


LAMBDA_FAMILIES = [(ENTROPIC, ENTROPIC), (AVAR, ENTROPIC), (ENTROPIC, AVAR),
                   (AVAR, AVAR)]
LAMBDA_CASES = [(fam, i) for fam in LAMBDA_FAMILIES for i in range(6)]


@pytest.mark.parametrize("families, i", LAMBDA_CASES,
                         ids=[f"{a}-{b}-{i}" for (a, b), i in LAMBDA_CASES])
def test_lambda_matches_the_coordinate_search(families, i):
    rng = np.random.default_rng([67, i, len(families[0]), len(families[1])])
    measures = tuple(_measure(rng, kind) for kind in families)
    cap = min(acc.dual_cap() for acc in measures)
    space, q, payoffs, x = _draw(rng, i, cap, True)
    basis = [space.rv(b) for b in payoffs]
    split = 1 + i % (len(basis) - 1)          # both agents hold the unit
    prob = LawInvariantProblem(
        space=space, measures=measures,
        security_bases=(tuple(basis[:split + 1]),
                        (basis[0],) + tuple(basis[split + 1:])),
        q=q, p=float(rng.uniform(0.8, 1.25)))
    got = law_invariant_requirement(prob, space.rv(x)).value.as_float()
    if ENTROPIC in families or len(payoffs) == 2:
        ref = _reference_lambda(prob, x)
    else:
        B = prob.stacked_matrix()
        ref = _dual_lp(space.probs, B, prob.p * (space.probs * q) @ B, x,
                       cap, False)
    tol = REL_TOL * (1.0 + abs(ref))
    assert got <= ref + tol
    assert abs(got - ref) <= tol


COMPLETE_CASES = [(fam, scale, i) for fam in LAMBDA_FAMILIES[:2]
                  for scale in (0.1, 10.0) for i in range(8)]


@pytest.mark.parametrize(
    "families, scale, i", COMPLETE_CASES,
    ids=[f"{a}-{b}-{s}-{i}" for (a, b), s, i in COMPLETE_CASES])
def test_complete_market_lambda_matches_the_closed_form(families, scale, i):
    # with m - 1 kernel payoffs the pricing density q is unique, so
    # Lambda = p (E_q[X] - H(q|P) / alpha) for the harmonic entropic
    # parameter alpha (an AVaR agent adds nothing while q <= its cap).
    # Large losses concentrate the Gibbs density and small ones leave
    # clipped scenarios whose Hessian is singular along the kernel
    rng = np.random.default_rng([71, i, len(families[0]), int(scale * 10)])
    measures = tuple(_measure(rng, kind) for kind in families)
    m = 3 + i % 3
    probs = rng.uniform(0.2, 1.0, m)
    probs /= probs.sum()
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)), probs)
    cap = min(acc.dual_cap() for acc in measures)
    q = 1.0 + rng.uniform(-0.3, 0.3, m) * min(1.0, cap - 1.0)
    q /= probs @ q
    basis = [space.rv(np.ones(m))] + [space.rv(rng.normal(0.0, 1.0, m))
                                      for _ in range(m - 1)]
    prob = LawInvariantProblem(
        space=space, measures=measures,
        security_bases=(tuple(basis[:2]), (basis[0],) + tuple(basis[2:])),
        q=q, p=float(rng.uniform(0.8, 1.25)))
    x = scale * rng.normal(0.0, 1.0, m)
    alpha = 1.0 / sum(1.0 / acc.param for acc in measures
                      if acc.kind == ENTROPIC)
    ref = prob.p * (float(probs @ (q * x))
                    - float(probs @ (q * np.log(q))) / alpha)
    got = law_invariant_requirement(prob, space.rv(x)).value.as_float()
    assert got == pytest.approx(ref, abs=REL_TOL * (1.0 + abs(ref)))


# ----------------------------------------------------------------------
# refusals and certificates
# ----------------------------------------------------------------------

def _uniform_four():
    return ScenarioSpace.uniform(["a", "b", "c", "d"])


def _pair(space, market, measures):
    return AgentSystem(tuple(
        RiskMeasurementRegime(SupportMask.full(space),
                              LawInvariantAcceptanceSet(kind, param), market)
        for kind, param in measures))


X_FOUR = [0.3, -0.8, 1.1, 0.2]


@pytest.mark.parametrize("second", [(ENTROPIC, 1.5), (AVAR, 0.6)])
def test_prices_outside_the_dual_box_are_unbounded_for_every_family(second):
    # 1_a priced 0.5 > cap P(a) = 0.25 / 0.6: no density in the AVaR(0.4)
    # box prices the market, whatever the second agent's family
    space = _uniform_four()
    market = SecurityMarket((space.rv(np.ones(4)), space.indicator(["a"])),
                            np.array([1.0, 0.5]))
    s = _pair(space, market, [(AVAR, 0.4), second])
    X = space.rv(X_FOUR)
    with pytest.raises(DomainError, match="unbounded below"):
        capital_requirement(s, X)
    assert rho(s.regimes[0], X).status == "unbounded"
    # the brute-force baselines refuse the AVaR agent's requirement too
    grid = oracle.GridSpec.around(X, 0.2, 0.2)
    with pytest.raises(DomainError, match="unbounded below"):
        oracle.brute_lambda(s, X, grid)
    with pytest.raises(DomainError, match="unbounded below"):
        oracle.verify_pareto(s, X, Allocation((X, X * 0.0)), grid)


def test_unattained_lambda_infimum_is_refused_by_the_check():
    # the pricing density ignores scenario a and agent 1 trades its
    # indicator at price zero: the entropic requirement falls toward its
    # infimum along that payoff without attaining it
    space = _uniform_four()
    q = np.array([0.0, 4.0, 4.0, 4.0]) / 3.0
    prob = LawInvariantProblem(
        space=space,
        measures=(LawInvariantAcceptanceSet(ENTROPIC, 1.0),
                  LawInvariantAcceptanceSet(ENTROPIC, 2.0)),
        security_bases=((space.rv(np.ones(4)), space.indicator(["a"])),
                        (space.rv(np.ones(4)),)),
        q=q, p=1.0)
    with pytest.raises(NumericalFailure, match="not attained"):
        law_invariant_requirement(prob, space.rv(X_FOUR))


def _rescaled_system(scale):
    space = _uniform_four()
    market = SecurityMarket(
        (space.rv(np.ones(4)), space.rv(scale * np.array([1, 1, -1, -1.0]))),
        np.array([1.0, 0.0]))
    return space, _pair(space, market, [(AVAR, 0.4), (ENTROPIC, 1.5)])


@pytest.mark.parametrize("scale", [1e3, 1e6, -1.0, 1e-6])
def test_rescaled_kernel_payoff_changes_no_result(scale):
    space, base = _rescaled_system(1.0)
    _, s = _rescaled_system(scale)
    X = space.rv(X_FOUR)
    for r0, r in zip(base.regimes, s.regimes):
        v0 = rho(r0, X).value.as_float()
        assert rho(r, X).value.as_float() == pytest.approx(
            v0, abs=CERT_TOL * (1.0 + abs(v0)))
    v0 = capital_requirement(base, X).value.as_float()
    assert capital_requirement(s, X).value.as_float() == pytest.approx(
        v0, abs=CERT_TOL * (1.0 + abs(v0)))


def test_search_refuses_a_duality_gap_above_the_tolerance():
    # t(eta) = log E[e^{X - D eta}] on two scenarios; a dual that
    # misses the value by 1e-6 must not be certified
    probs = np.array([0.5, 0.5])
    x = np.array([1.0, -1.0])
    D = np.array([[1.0], [-1.0]]) / math.sqrt(2.0)

    def evaluate(eta, rows):
        y = x - eta @ D.T
        v = np.log(np.exp(y) @ probs)
        q = np.exp(y - v[:, None])
        return v, q, q

    eta, t, q, errors = _kernel_newton(
        evaluate, lambda row, q: float(probs @ (q * x))
        - float(probs @ (q * np.log(q))), probs, D, np.ones(2), 1)
    assert errors == [None]
    assert t[0] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(D @ eta[0], x, atol=1e-14)
    *_, errors = _kernel_newton(evaluate, lambda row, q: t[0] - 1e-6,
                                probs, D, np.ones(2), 1)
    assert isinstance(errors[0], NumericalFailure)
    assert "duality gap" in str(errors[0])


# ----------------------------------------------------------------------
# the closed-form kernel position of the AVaR + entropic pair
# ----------------------------------------------------------------------

# fixed before the comparison was first run
POSITION_TOL = 1e-6


def test_avar_entropic_kernel_position_matches_the_former_search():
    rng = np.random.default_rng(101)
    for i in range(200):
        m = 2 + i % 7
        probs = rng.uniform(0.2, 1.0, m)
        probs /= probs.sum()
        space = ScenarioSpace(tuple(f"s{j}" for j in range(m)), probs)
        mask = np.zeros(m, dtype=bool)
        mask[rng.choice(m, int(rng.integers(1, m)), replace=False)] = True
        beta = float(rng.uniform(0.1, 0.9))
        gamma = float(rng.uniform(0.2, 3.0))
        cap = 1.0 / (1.0 - beta)
        pa = float(probs[mask].sum())
        q_lo, q_hi = max(0.0, 1.0 - cap * (1.0 - pa)), min(cap * pa, 1.0)
        qstar_a = float(q_lo + (q_hi - q_lo) * rng.uniform(0.02, 0.98))
        X = space.rv(rng.normal(0.0, 1.5, m))
        labels = tuple(lab for lab, a in zip(space.labels, mask) if a)
        res = avar_entropic_sharing(beta, gamma, labels, qstar_a, X)
        s_mid = _reference_kernel_position(beta, gamma, mask, qstar_a, X,
                                           res.value)
        assert res.s_interval == (res.s_star, res.s_star)
        assert abs(res.s_star - s_mid) <= POSITION_TOL * (1.0 + abs(res.s_star))


# ----------------------------------------------------------------------
# one-payoff markets without a unit: the exact ends against the former
# probe grid and boundary walk
# ----------------------------------------------------------------------

_PROBES = [0.0] + [s * 2.0 ** k for k in range(51) for s in (1.0, -1.0)]


def _reference_line(g, price):
    """The former search for the least price * w with g(w) <= 0, g convex:
    a doubling probe grid, then a golden-section search for the least
    risk from the best interior probe, for a feasible w; then the walk to
    the edge of {g <= 0} in the cheaper direction.  Returns (least risk
    found, w), w being +inf when nothing is feasible and None when the
    walk finds no edge."""
    probes = sorted(_PROBES)
    values = [g(w) for w in probes]
    i = int(np.argmin(values))
    least = values[i]
    inside = next((w for w in _PROBES if g(w) <= 0.0), None)
    if inside is None and 0 < i < len(probes) - 1:
        inside, least = _golden_min(g, probes[i])
    if inside is None or least > 0.0:
        return least, math.inf
    try:
        return least, _level_boundary(g, inside, 1.0 if price < 0 else -1.0)
    except NumericalFailure:
        return least, None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 5),
       kind=st.sampled_from([ENTROPIC, AVAR, EXPECTATION]),
       price=st.sampled_from([0.7, 0.0, -0.4]))
def test_rho_without_a_unit_matches_the_former_search(seed, m, kind, price):
    rng = np.random.default_rng(seed)
    acc = _measure(rng, kind)
    probs = rng.uniform(0.2, 1.0, m)
    probs /= probs.sum()
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)), probs)
    b = rng.normal(0.0, 1.0, m) * (rng.uniform(size=m) > 0.25)
    if not (b < 0).any():
        b[int(rng.integers(m))] = -1.0      # no strictly positive unit
    x = rng.normal(0.0, 3.0, m)
    r = RiskMeasurementRegime(SupportMask.full(space), acc,
                              SecurityMarket((space.rv(b),), np.array([price])))
    # a negative price makes -b a unit when b <= 0
    unit, _ = r.market.unit_certificate(np.ones(m, dtype=bool))
    assume(unit is None or not unit > 1e-10)
    least, w = _reference_line(lambda w: acc.xi(probs, x - w * b), price)
    assume(abs(least) >= 1e-9 * (1.0 + np.max(np.abs(x))))
    got = rho(r, space.rv(x))
    if w is None:
        # at a zero price, an open end costs nothing
        assert got.status == ("optimal" if price == 0.0 else "unbounded")
    elif math.isinf(w):
        assert got.status == "infeasible"
        assert got.value.as_float() == math.inf
    else:
        assert got.status == "optimal"
        assert got.value.as_float() == pytest.approx(
            price * w, abs=REL_TOL * (1.0 + abs(price * w)))
        if price != 0.0:
            assert got.coefficients[0] == pytest.approx(
                w, abs=REL_TOL * (1.0 + abs(w)))
    if got.status == "optimal":
        assert acc.xi(probs, x - got.security.values) <= \
            REL_TOL * (1.0 + np.max(np.abs(x)))


# ----------------------------------------------------------------------
# AVaR and expectation agents on larger markets without a unit: rho's LP
# against SciPy's HiGHS on the primal and on the dual side
# ----------------------------------------------------------------------

def _primal_lp(probs, B, prices, x, beta):
    """rho of an AVaR(beta) agent (an expectation agent for beta None),
    solved by SciPy's HiGHS over (w, tau, u) with u >= 0 as column bounds:
    minimize prices.w subject to  x - B w - tau - u <= 0  and
    tau + E[u] / (1 - beta) <= 0, or to  E[x - B w] <= 0.  Returns the
    value, +inf when the LP is infeasible and None when it is unbounded."""
    m, k = B.shape
    if beta is None:
        rows, rhs = -(probs @ B)[None, :], [-float(probs @ x)]
        c, bounds = prices, [(None, None)] * k
    else:
        rows = np.block([[-B, -np.ones((m, 1)), -np.eye(m)],
                         [np.zeros((1, k)), np.ones((1, 1)),
                          probs[None, :] / (1.0 - beta)]])
        rhs = np.concatenate([-x, [0.0]])
        c = np.concatenate([prices, np.zeros(1 + m)])
        bounds = [(None, None)] * (k + 1) + [(0.0, None)] * m
    res = optimize.linprog(c, A_ub=rows, b_ub=rhs, bounds=bounds,
                           method="highs")
    if res.status == 2:
        return math.inf
    if res.status == 3:
        return None
    assert res.status == 0
    return float(res.fun)


def _no_unit_regime(rng, i, kind):
    """An AVaR or expectation agent on 3 to 6 scenarios trading 2 or 3
    payoffs whose span holds no strictly positive unit (one scenario is
    left out of every payoff on even draws, and every payoff has mean zero
    on every fourth draw), priced by a density in the agent's dual box on
    two draws of three and at random on the third."""
    acc = _measure(rng, kind)
    m = 3 + i % 4
    k = 2 + i % 2
    probs = rng.uniform(0.2, 1.0, m)
    probs /= probs.sum()
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)), probs)
    B = rng.normal(0.0, 1.0, (m, k))
    if i % 2 == 0:
        B[int(rng.integers(m))] = 0.0
    elif i % 4 == 3:
        B -= probs @ B
    if i % 3 == 2:
        prices = rng.normal(0.0, 1.0, k)
    else:
        cap = acc.dual_cap()
        d = 1.0 + rng.uniform(-0.4, 0.4, m) * min(1.0, cap - 1.0)
        prices = (probs * d / (probs @ d)) @ B
    market = SecurityMarket(tuple(space.rv(b) for b in B.T), prices)
    return RiskMeasurementRegime(SupportMask.full(space), acc, market)


@pytest.mark.parametrize("kind", [AVAR, EXPECTATION])
def test_rho_without_a_unit_on_a_larger_market_is_its_lp(kind):
    statuses = set()
    for i in range(40):
        rng = np.random.default_rng([79, i, len(kind)])
        r = _no_unit_regime(rng, i, kind)
        unit, _ = r.market.unit_certificate(r.support.included)
        if unit is not None and unit > 1e-10:
            continue
        probs, B, prices = (r.space.probs, r.market.basis_matrix(),
                            r.market.prices)
        beta = r.acceptance.param if kind == AVAR else None
        rows = rng.normal(0.0, 1.5, (3, probs.size))
        got = [rho(r, r.space.rv(x)) for x in rows]
        for x, res in zip(rows, got):
            statuses.add(res.status)
            ref = _primal_lp(probs, B, prices, x, beta)
            if ref is None:
                assert res.status == "unbounded"
                continue
            if math.isinf(ref):
                assert res.status == "infeasible"
                assert res.value.as_float() == math.inf
                continue
            assert res.status == "optimal"
            value = res.value.as_float()
            tol = REL_TOL * (1.0 + abs(ref))
            assert abs(value - ref) <= tol
            assert abs(value - _dual_lp(probs, B, prices, x,
                                        r.acceptance.dual_cap(),
                                        kind == EXPECTATION)) <= tol
            # the returned hedge is acceptable and priced at the value
            assert r.acceptance.xi(probs, x - res.security.values) <= tol
            assert r.market.price(res.coefficients) == pytest.approx(
                value, abs=tol)
        # rho_batch is rho row by row, bitwise, and refuses as rho does
        if any(res.status == "unbounded" for res in got):
            with pytest.raises(DomainError, match="unbounded below"):
                rho_batch(r, rows)
        else:
            assert rho_batch(r, rows).tolist() == [
                res.value.as_float() for res in got]
    assert statuses == {"optimal", "unbounded", "infeasible"}
