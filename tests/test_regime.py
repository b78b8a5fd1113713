import math

import numpy as np
import pytest

from helpers import (
    cash_market,
    ceiling_regime,
    law_invariant_regime,
    overlap_pair,
    point_eval,
    three_space,
)
from riskshare.errors import DomainError, NumericalFailure, StructuralError
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    EXPECTATION,
    LawInvariantAcceptanceSet,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    RiskValue,
    SecurityMarket,
    _cap_fill,
    _logsumexp,
    base_risk,
    conjugate,
    rho,
    rho_batch,
    validate_regime,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask


def test_risk_value_variants():
    v = RiskValue.finite(2.5)
    assert v.is_finite and v.as_float() == 2.5
    inf = RiskValue.infinite()
    assert not inf.is_finite and math.isinf(inf.as_float())
    with pytest.raises(StructuralError):
        RiskValue.finite(math.inf)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_validate_overlap_agent():
    r1, _ = overlap_pair()
    rep = validate_regime(r1)
    assert rep.passed, rep.to_dict()
    names = {c.name for c in rep.checks}
    assert "positive_unit_payoff" in names
    assert "no_arbitrage_dual_density" in names
    assert not any(c.heuristic for c in rep.checks)


def test_validate_rescaled_unit():
    sp = ScenarioSpace.uniform(["a", "b"])
    # U = 0.5 * (1, 3), priced 1 after rescaling
    mkt = SecurityMarket((sp.rv([0.5, 1.5]),), np.array([1.0]))
    r = RiskMeasurementRegime(
        support=SupportMask.full(sp),
        acceptance=PolyhedralAcceptanceSet(
            (point_eval(sp, "a"), point_eval(sp, "b")), np.array([1.0, 1.0])
        ),
        market=mkt,
    )
    rep = validate_regime(r)
    assert rep.passed, rep.to_dict()


def test_validate_negative_density_fails():
    sp = ScenarioSpace.uniform(["a", "b"])
    bad = Functional(sp, np.array([2.0, -1.0]))
    r = RiskMeasurementRegime(
        support=SupportMask.full(sp),
        acceptance=PolyhedralAcceptanceSet((bad,), np.array([1.0])),
        market=cash_market(sp),
    )
    rep = validate_regime(r)
    failing = {c.name for c in rep.checks if not c.passed}
    assert "monotonicity_certificate" in failing


def test_validate_law_invariant_certificate():
    sp = ScenarioSpace.uniform(["a", "b", "c", "d"])
    mkt = SecurityMarket((sp.indicator(["a", "b"]),), np.array([0.5]))
    r = law_invariant_regime(sp, ENTROPIC, 1.0, market=mkt)
    rep = validate_regime(r)
    assert rep.passed, rep.to_dict()
    cert = next(c for c in rep.checks if c.name == "no_arbitrage_dual_density")
    assert not cert.heuristic  # exact, not probe-based


# ----------------------------------------------------------------------
# rho
# ----------------------------------------------------------------------

def test_rho_two_point_ceilings():
    sp = ScenarioSpace.uniform(["a", "b"])
    r = ceiling_regime(sp, ["a", "b"], [1.0, 2.0])
    res = rho(r, sp.rv([4.0, 5.0]))
    assert res.value.is_finite
    assert res.value.value == pytest.approx(6.0, abs=1e-9)
    # closed form: sum of per-scenario excesses over the ceilings
    assert res.security.values == pytest.approx([3.0, 3.0], abs=1e-9)


def test_rho_matches_closed_form_on_random_ceilings():
    rng = np.random.default_rng(42)
    sp = three_space()
    for _ in range(25):
        k = rng.uniform(-2, 2, size=2)
        r = ceiling_regime(sp, ["a", "b"], k)
        x = np.zeros(3)
        x[:2] = rng.uniform(-5, 5, size=2)
        res = rho(r, sp.rv(x))
        expected = (x[0] - k[0]) + (x[1] - k[1])
        assert res.value.value == pytest.approx(expected, abs=1e-8)


def test_rho_entropic_constant():
    sp = ScenarioSpace.uniform(["a", "b", "c"])
    r = law_invariant_regime(sp, ENTROPIC, 2.0)
    res = rho(r, sp.rv([3.25, 3.25, 3.25]))
    assert res.value.value == pytest.approx(3.25, abs=1e-9)


def test_rho_avar_uniform_four_point():
    sp = ScenarioSpace.uniform(["a", "b", "c", "d"])
    r = law_invariant_regime(sp, AVAR, 0.5)
    res = rho(r, sp.rv([1.0, 2.0, 3.0, 4.0]))
    assert res.value.value == pytest.approx(3.5, abs=1e-9)


def test_rho_expectation_kind():
    sp = ScenarioSpace.uniform(["a", "b"])
    r = law_invariant_regime(sp, EXPECTATION)
    res = rho(r, sp.rv([1.0, 5.0]))
    assert res.value.value == pytest.approx(3.0, abs=1e-10)


def test_rho_infinite_when_unsecuritizable():
    sp = ScenarioSpace.uniform(["a", "b"])
    acc = PolyhedralAcceptanceSet((point_eval(sp, "a"),), np.array([0.0]))
    mkt = SecurityMarket((sp.indicator(["b"]),), np.array([1.0]))
    r = RiskMeasurementRegime(SupportMask.full(sp), acc, mkt)
    res = rho(r, sp.rv([1.0, 0.0]))
    assert not res.value.is_finite


def test_rho_outside_support_raises():
    r1, _ = overlap_pair()
    with pytest.raises(DomainError):
        rho(r1, three_space().rv([1.0, 1.0, 1.0]))


def test_rho_one_dim_market_without_positive_unit():
    # market spans only the indicator of {a}; still securitizable
    sp = ScenarioSpace.uniform(["a", "b"])
    mkt = SecurityMarket((sp.indicator(["a"]),), np.array([0.5]))
    r = law_invariant_regime(sp, ENTROPIC, 1.0, market=mkt)
    x = sp.rv([2.0, -1.0])
    res = rho(r, x)
    assert res.value.is_finite
    # minimal w with xi(X - w 1_a) <= 0, times the price 0.5
    from riskshare.regime import base_risk

    w = res.coefficients[0]
    assert base_risk(ENTROPIC, 1.0, sp.probs, x.values - w * np.array([1, 0])) \
        == pytest.approx(0.0, abs=1e-9)
    assert res.value.value == pytest.approx(0.5 * w, abs=1e-10)


# the edge w = 2 - log(2 - e^-1) of xi(X - w 1_a) <= 0 for the entropic
# agent at X = (2, -1)
ENTROPIC_EDGE = 2.0 - math.log(2.0 - math.exp(-1.0))


def _near(v):
    # the edge is irrational: numbers derived from it are compared to 1e-12,
    # every other expected number exactly
    return pytest.approx(v, abs=1e-12)


@pytest.mark.parametrize(
    "kind, param, price, x, basis, value, coefficient, status", [
    (ENTROPIC, 1.0, 0.5, [2.0, -1.0], [1.0, 0.0], _near(0.5 * ENTROPIC_EDGE),
     _near(ENTROPIC_EDGE), "optimal"),
    # every feasible w costs nothing; the coefficient is the edge on the
    # side a positive price prefers
    (ENTROPIC, 1.0, 0.0, [2.0, -1.0], [1.0, 0.0], 0.0, _near(ENTROPIC_EDGE),
     "optimal"),
    # open on that side: the edge on the other side
    (ENTROPIC, 1.0, 0.0, [2.0, -1.0], [-1.0, 0.0], 0.0,
     _near(-ENTROPIC_EDGE), "optimal"),
    # a price is zero only when it is 0.0: at 1e-12 the cheaper side is
    # open, so the requirement is unbounded below
    (ENTROPIC, 1.0, 1e-12, [2.0, -1.0], [-1.0, 0.0], None, None,
     "unbounded"),
    (ENTROPIC, 1.0, -0.5, [2.0, -1.0], [1.0, 0.0], None, None, "unbounded"),
    (ENTROPIC, 1.0, 0.5, [0.0, 2.0], [1.0, 0.0], math.inf, None,
     "infeasible"),
    # the least risk of X over the span is +5e-13: tangent, not securitized
    (ENTROPIC, 1.0, 0.5, [0.3 + 5e-13, -0.3 + 5e-13], [1.0, -1.0], math.inf,
     None, "infeasible"),
    (AVAR, 0.5, 0.5, [2.0, -1.0], [1.0, 0.0], 1.0, 2.0, "optimal"),
    (AVAR, 0.5, 0.0, [2.0, -1.0], [1.0, 0.0], 0.0, 2.0, "optimal"),
    (AVAR, 0.5, -0.5, [2.0, -1.0], [1.0, 0.0], None, None, "unbounded"),
    (AVAR, 0.5, 0.5, [0.0, 2.0], [1.0, 0.0], math.inf, None, "infeasible"),
    (EXPECTATION, 0.0, 0.5, [2.0, -1.0], [1.0, 0.0], 0.5, 1.0, "optimal"),
    (EXPECTATION, 0.0, 0.0, [2.0, -1.0], [1.0, 0.0], 0.0, 1.0, "optimal"),
    # E[b] = 0 and E[X] <= 0: every w is feasible
    (EXPECTATION, 0.0, 0.0, [-1.0, 0.0], [1.0, -1.0], 0.0, 0.0, "optimal"),
    (EXPECTATION, 0.0, -0.5, [2.0, -1.0], [1.0, 0.0], None, None,
     "unbounded"),
    # E[b] = 0 and E[X] > 0: no multiple of b helps
    (EXPECTATION, 0.0, 0.5, [0.0, 2.0], [1.0, -1.0], math.inf, None,
     "infeasible"),
], ids=["optimal", "zero_price", "zero_price_other_end",
        "tiny_price_unbounded", "negative_price_unbounded", "infeasible", "tangent_infeasible",
        "avar-optimal", "avar-zero_price", "avar-negative_price_unbounded",
        "avar-infeasible", "expectation-optimal", "expectation-zero_price",
        "expectation-zero_price_whole_line",
        "expectation-negative_price_unbounded", "expectation-infeasible"])
def test_rho_one_dim_market_branches(kind, param, price, x, basis, value,
                                     coefficient, status, recwarn):
    # the market spans one payoff and no strictly positive unit, so rho
    # takes the end of the feasible coefficient interval of xi(X - w b) <= 0
    sp = ScenarioSpace.uniform(["a", "b"])
    mkt = SecurityMarket((sp.rv(basis),), np.array([price]))
    r = law_invariant_regime(sp, kind, param, market=mkt)
    res = rho(r, sp.rv(x))
    assert res.status == status
    if value is None:
        assert res.value is None
        with pytest.raises(DomainError):
            rho_batch(r, np.array([x]))
    else:
        assert res.value.as_float() == value
        # one code path: rho_batch gives rho's value, bitwise
        assert rho_batch(r, np.array([x]))[0] == res.value.as_float()
    if coefficient is not None:
        assert res.coefficients[0] == coefficient
        assert r.acceptance.xi(sp.probs, np.array(x) - res.security.values) \
            <= 0.0
    assert not recwarn.list


def test_rho_without_a_unit_certifies_an_edge_lost_to_rounding():
    # near its edge Newton's last step on xi(X - w b) is lost to rounding
    # and left xi at +2.8e-17; the search must still end on a w whose
    # remainder is acceptable
    sp = ScenarioSpace.uniform(["a", "b"])
    mkt = SecurityMarket((sp.rv([-1.0, 1.0]),), np.array([0.5]))
    r = law_invariant_regime(sp, ENTROPIC, 2.0, market=mkt)
    x = np.array([-1.7, 1.6])
    res = rho(r, sp.rv(x))
    assert res.status == "optimal"
    assert res.coefficients[0] == pytest.approx(1.4226484574297324,
                                                abs=1e-14)
    assert r.acceptance.xi(sp.probs, x - res.security.values) <= 0.0
    assert rho_batch(r, np.array([x]))[0] == res.value.as_float()


def test_rho_batch_matches_rho_without_a_unit():
    rng = np.random.default_rng(14)
    sp = ScenarioSpace(("a", "b", "c", "d"), np.array([0.1, 0.2, 0.3, 0.4]))
    rows = rng.normal(0.0, 2.0, (12, 4))
    seen = []
    for kind, param in ((ENTROPIC, 0.7), (AVAR, 0.4), (EXPECTATION, 0.0)):
        for price in (0.3, 0.0):
            # E[b] > 0, so no row of the expectation agent is unbounded
            mkt = SecurityMarket((sp.rv([1.0, 0.0, -0.5, 0.5]),),
                                 np.array([price]))
            r = law_invariant_regime(sp, kind, param, market=mkt)
            single = [rho(r, sp.rv(x)).value.as_float() for x in rows]
            assert rho_batch(r, rows).tolist() == single
            seen.extend(single)
    assert any(math.isinf(v) for v in seen)
    assert any(math.isfinite(v) for v in seen)


def test_rho_refuses_a_larger_market_without_a_unit():
    sp = ScenarioSpace.uniform(["a", "b", "c"])
    mkt = SecurityMarket((sp.indicator(["a"]), sp.indicator(["b"])),
                         np.array([0.3, 0.3]))
    r = law_invariant_regime(sp, ENTROPIC, 1.0, market=mkt)
    with pytest.raises(DomainError, match="strictly positive unit"):
        rho(r, sp.rv([1.0, 0.0, -1.0]))
    with pytest.raises(DomainError, match="strictly positive unit"):
        rho_batch(r, np.array([[1.0, 0.0, -1.0]]))


def test_rho_law_invariant_with_two_securities():
    # cash plus an imbalanced payoff: optimum must beat cash-only
    sp = ScenarioSpace.uniform(["a", "b"])
    mkt = SecurityMarket(
        (sp.rv([1.0, 1.0]), sp.rv([1.0, -1.0])), np.array([1.0, 0.0])
    )
    r = law_invariant_regime(sp, ENTROPIC, 1.0, market=mkt)
    x = sp.rv([3.0, -1.0])
    res = rho(r, x)
    # hedging the spread perfectly leaves the mean: (3 + (-1))/2 = 1
    assert res.value.value == pytest.approx(1.0, abs=1e-8)


def _sequential_fill(caps, mass):
    """Reference greedy fill: boxes in order, each taking what is left of
    the mass, at most its cap (the loop the vectorized fill replaced)."""
    take = np.zeros(len(caps))
    remaining = mass
    for i, cap in enumerate(caps):
        take[i] = min(cap, remaining)
        remaining -= take[i]
        if remaining <= 1e-16:
            break
    return take


def test_cap_fill_matches_sequential_reference():
    rng = np.random.default_rng(11)
    eps = np.finfo(np.float64).eps
    for _ in range(2000):
        m = int(rng.integers(1, 41))
        caps = rng.uniform(0.0, 1.0, m)
        caps[rng.random(m) < 0.2] = caps[0]                  # ties
        # 1.5 asks for more mass than the boxes can carry
        mass = float(caps.sum() * rng.choice([0.3, 0.9, 1.0, 1.5]))
        mass = max(mass, 0.5)
        # both remainders take at most m roundings of terms bounded by
        # mass + sum(caps); a factor 4 covers the two sides and the
        # reference's early stop at 1e-16
        tol = 4 * m * eps * (mass + caps.sum())
        got = _cap_fill(caps, mass)
        ref = _sequential_fill(caps, mass)
        assert np.max(np.abs(got - ref)) <= tol
        assert np.all(got >= 0.0) and np.all(got <= caps)


@pytest.mark.parametrize("kind, param", [
    (ENTROPIC, 1.7), (AVAR, 0.35), (EXPECTATION, 0.0)])
def test_batched_base_risk_matches_rows_bitwise(kind, param):
    rng = np.random.default_rng(5)
    for m in (1, 2, 7, 40):
        probs = rng.uniform(0.1, 1.0, m)
        probs /= probs.sum()
        rows = np.round(rng.normal(scale=3.0, size=(25, m)), 1)   # ties
        batch = base_risk(kind, param, probs, rows)
        assert batch.shape == (25,)
        for i in range(rows.shape[0]):
            one = base_risk(kind, param, probs, rows[i])
            assert type(one) is float
            assert batch[i] == one


def _logsumexp_inputs(rng):
    for i in range(600):
        m = int(rng.integers(1, 41))
        a = rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 2.5), m)
        if i % 3 == 0:
            a = np.round(a)                                  # ties
        if i % 5 == 0:
            a = np.full(m, a[0])                             # constant
        yield a, rng.dirichlet(np.ones(m)) * rng.uniform(0.5, 2.0)


def test_logsumexp_matches_scipy():
    from scipy.special import logsumexp

    # 4 ulp at the scale of the largest term, so that a SciPy release
    # that reorders its sums still passes
    def close(got, ref, a):
        scale = np.maximum(np.abs(ref), np.max(np.abs(a), axis=-1))
        return np.all(np.abs(got - ref) <= 4 * np.spacing(scale))

    rng = np.random.default_rng(17)
    for a, b in _logsumexp_inputs(rng):
        assert close(_logsumexp(a, b), logsumexp(a, b=b, axis=-1), a)
    for m in (1, 3, 8, 40):
        A = rng.normal(0.0, 3.0, (200, m))
        A[::4] = np.round(A[::4])
        A[::7] = 0.25
        B = rng.dirichlet(np.ones(m), 200)
        batch = _logsumexp(A, B)
        assert batch.shape == (200,)
        assert close(batch, logsumexp(A, b=B, axis=-1), A)
        for i in range(200):
            assert batch[i] == _logsumexp(A[i], B[i])        # bitwise
    # an exponent that overflows gives +inf, as SciPy does
    b = np.array([0.5, 0.5])
    with np.errstate(over="ignore"):
        a = 10.0 * np.array([1e308, 0.0])
        assert base_risk(ENTROPIC, 10.0, b, np.array([1e308, 0.0])) == np.inf
    assert _logsumexp(a, b) == logsumexp(a, b=b) == np.inf


# ----------------------------------------------------------------------
# conjugates
# ----------------------------------------------------------------------

def test_conjugate_entropic_at_expectation():
    sp = ScenarioSpace.uniform(["a", "b", "c"])
    r = law_invariant_regime(sp, ENTROPIC, 1.5)
    val = conjugate(r, Functional(sp, np.ones(3)))
    assert val.is_finite and val.value == pytest.approx(0.0, abs=1e-12)


def test_conjugate_entropic_entropy_value():
    sp = ScenarioSpace.uniform(["a", "b"])
    r = law_invariant_regime(sp, ENTROPIC, 2.0, market=None)
    q = np.array([1.5, 0.5])
    # price consistency: E[q * 1] = 1 = price of cash
    val = conjugate(r, Functional(sp, q))
    h = 0.5 * (1.5 * np.log(1.5) + 0.5 * np.log(0.5))
    assert val.value == pytest.approx(h / 2.0, abs=1e-12)


def test_conjugate_entropic_price_inconsistent():
    sp = ScenarioSpace.uniform(["a", "b"])
    r = law_invariant_regime(sp, ENTROPIC, 1.0, market=cash_market(sp, price=2.0))
    # density integrates to 1, but cash is priced 2 in the market
    assert not conjugate(r, Functional(sp, np.ones(2))).is_finite


def test_conjugate_avar_cap():
    sp = ScenarioSpace.uniform(["a", "b", "c", "d"])
    r = law_invariant_regime(sp, AVAR, 0.5)
    ok = Functional(sp, np.array([2.0, 2.0, 0.0, 0.0]))
    over = Functional(sp, np.array([2.5, 0.5, 0.5, 0.5]))
    assert conjugate(r, ok).value == 0.0
    assert not conjugate(r, over).is_finite


def test_conjugate_polyhedral_point_mass_outside_support():
    r1, _ = overlap_pair()
    sp = r1.space
    phi = point_eval(sp, "c")  # outside agent 1's support {a, b}
    assert not conjugate(r1, phi).is_finite


def test_conjugate_polyhedral_fenchel_equality_at_subgradient():
    rng = np.random.default_rng(9)
    sp = three_space()
    r = ceiling_regime(sp, ["a", "b"], [0.5, -0.25])
    for _ in range(10):
        x = np.zeros(3)
        x[:2] = rng.uniform(-3, 3, 2)
        X = sp.rv(x)
        res = rho(r, X)
        # subgradient: ceilings bind -> gradient is the sum of the point
        # evaluations; here rho is linear, so phi = eval_a + eval_b
        phi = Functional(sp, point_eval(sp, "a").density + point_eval(sp, "b").density)
        rstar = conjugate(r, phi)
        assert rstar.is_finite
        gap = phi(X) - rstar.value - res.value.value
        assert abs(gap) <= 1e-8


# ----------------------------------------------------------------------
# algebraic properties
# ----------------------------------------------------------------------

@pytest.fixture(params=["polyhedral", "entropic", "avar"])
def property_regime(request):
    sp = three_space()
    if request.param == "polyhedral":
        return ceiling_regime(sp, ["a", "b"], [1.0, 2.0])
    if request.param == "entropic":
        return law_invariant_regime(sp, ENTROPIC, 1.3)
    return law_invariant_regime(sp, AVAR, 0.4)


def _random_supported(rng, r):
    x = np.zeros(r.space.size)
    x[r.support.included] = rng.uniform(-4, 4, r.support.dim)
    return r.space.rv(x)


def test_security_additivity(property_regime):
    rng = np.random.default_rng(17)
    r = property_regime
    for _ in range(10):
        X = _random_supported(rng, r)
        w = rng.uniform(-2, 2, r.market.dim)
        Z = r.market.payoff(w)
        lhs = rho(r, X + Z).value.value
        rhs = rho(r, X).value.value + r.market.price(w)
        assert abs(lhs - rhs) <= 1e-8, f"additivity broke: {lhs} vs {rhs}"


def test_monotonicity(property_regime):
    rng = np.random.default_rng(23)
    r = property_regime
    for _ in range(10):
        X = _random_supported(rng, r)
        bump = np.zeros(r.space.size)
        bump[r.support.included] = rng.uniform(0, 3, r.support.dim)
        Y = X + r.space.rv(bump)
        assert rho(r, X).value.value <= rho(r, Y).value.value + 1e-8


def test_midpoint_convexity(property_regime):
    rng = np.random.default_rng(31)
    r = property_regime
    for _ in range(10):
        X = _random_supported(rng, r)
        Y = _random_supported(rng, r)
        mid = rho(r, (X + Y) * 0.5).value.value
        avg = 0.5 * (rho(r, X).value.value + rho(r, Y).value.value)
        assert mid <= avg + 1e-8


def test_law_invariance_exact_under_permutation():
    sp = ScenarioSpace.uniform(["a", "b", "c", "d"])
    rng = np.random.default_rng(5)
    for kind, param in [(ENTROPIC, 0.7), (AVAR, 0.35), (EXPECTATION, 0.0)]:
        r = law_invariant_regime(sp, kind, param)
        for _ in range(5):
            x = rng.uniform(-3, 3, 4)
            perm = rng.permutation(4)
            v1 = rho(r, sp.rv(x)).value.value
            v2 = rho(r, sp.rv(x[perm])).value.value
            assert v1 == v2, f"{kind}: {v1} != {v2}"


def test_fenchel_inequality_random_functionals():
    rng = np.random.default_rng(41)
    sp = three_space()
    regimes = [
        ceiling_regime(sp, ["a", "b"], [1.0, 2.0]),
        law_invariant_regime(sp, ENTROPIC, 1.0),
        law_invariant_regime(sp, AVAR, 0.5),
    ]
    for r in regimes:
        for _ in range(10):
            X = _random_supported(rng, r)
            q = rng.uniform(0, 2, 3)
            q = q / (sp.probs @ q)
            phi = Functional(sp, q)
            rstar = conjugate(r, phi)
            if rstar.is_finite:
                assert phi(X) - rstar.value <= rho(r, X).value.value + 1e-8


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_unattained_kernel_infimum_is_refused_on_either_side(sign):
    # X = 0 with cash and a zero-price payoff on one scenario: driving the
    # kernel coefficient to -inf or +inf lowers the entropic requirement
    # toward -log 2 without attaining it, so both signs must refuse
    space = ScenarioSpace.uniform(["a", "b"])
    market = SecurityMarket(
        (space.rv([1.0, 1.0]), space.rv([sign, 0.0])), np.array([1.0, 0.0]))
    r = law_invariant_regime(space, ENTROPIC, 1.0, market=market)
    with pytest.raises(NumericalFailure):
        rho(r, space.rv([0.0, 0.0]))
