import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from riskshare import lawinv
from riskshare.errors import DomainError, NumericalFailure, StructuralError
from riskshare.lawinv import (
    AvarEntropicResult,
    ComonotoneSplit,
    LawInvariantProblem,
    avar_entropic_sharing,
    convolution_split,
    convolution_value,
    entropic_infconv,
    entropic_pair_sharing,
    law_invariant_requirement,
    validate_problem,
)
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    EXPECTATION,
    LawInvariantAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    base_risk,
    base_risk_conjugate,
    conjugate,
    rho,
)
from riskshare.scenario import ScenarioSpace, SupportMask


def ent(a):
    return LawInvariantAcceptanceSet(ENTROPIC, a)


def avar(b):
    return LawInvariantAcceptanceSet(AVAR, b)


EXP = LawInvariantAcceptanceSet(EXPECTATION)


def four_space():
    return ScenarioSpace(("a", "b", "c", "d"), np.array([0.3, 0.2, 0.4, 0.1]))


def comonotone_oracle(measures, probs, values):
    """Independent primal route: the convolution of two measures is the
    minimum over stop-loss splits.  The objective need not be unimodal in
    the threshold, so scan a fine grid and polish the best cell."""
    m1, m2 = measures

    def g(z):
        tail = np.maximum(values - z, 0.0)
        floor = np.minimum(values, z)
        return (base_risk(m1.kind, m1.param, probs, tail)
                + base_risk(m2.kind, m2.param, probs, floor))

    lo, hi = np.min(values) - 1.0, np.max(values) + 1.0
    grid = np.linspace(lo, hi, 2001)
    best = min(grid, key=g)
    res = minimize_scalar(
        g, bounds=(best - (hi - lo) / 2000, best + (hi - lo) / 2000),
        method="bounded", options={"xatol": 1e-12})
    return min(float(res.fun), g(best))


# ----------------------------------------------------------------------
# comonotone splits
# ----------------------------------------------------------------------

def test_split_identity():
    split = ComonotoneSplit(np.zeros(0), np.array([[1.0]]), np.zeros(1))
    x = np.array([-3.0, 0.0, 2.5])
    assert np.allclose(split.apply(x)[0], x)


@given(
    st.floats(-5, 5),
    st.lists(st.floats(-10, 10), min_size=1, max_size=8),
)
@settings(max_examples=200)
def test_split_stop_loss_matches_formulas(zeta, xs):
    split = lawinv._stop_loss_split(2, zeta, 0, 1)
    x = np.array(xs)
    f = split.apply(x)
    assert np.allclose(f[0], np.maximum(x - zeta, 0.0), atol=1e-12)
    assert np.allclose(f[1], np.minimum(x, zeta), atol=1e-12)
    assert np.allclose(f.sum(axis=0), x, atol=1e-12)


def test_split_constructor_guards():
    with pytest.raises(StructuralError):
        ComonotoneSplit(np.zeros(0), np.array([[1.5], [-0.5]]), np.zeros(2))
    with pytest.raises(StructuralError):
        ComonotoneSplit(np.zeros(0), np.array([[0.5], [0.4]]), np.zeros(2))
    with pytest.raises(StructuralError):
        ComonotoneSplit(np.zeros(0), np.array([[0.5], [0.5]]),
                        np.array([1.0, 0.0]))
    with pytest.raises(StructuralError):
        ComonotoneSplit(np.array([2.0, 1.0]),
                        np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]),
                        np.zeros(2))


# ----------------------------------------------------------------------
# entropic convolution
# ----------------------------------------------------------------------

def test_entropic_pair_harmonic_parameter():
    # risk aversions 1 and 1 convolve to 1/2
    space = four_space()
    X = space.rv([1.0, -0.5, 2.0, 0.3])
    value, split = entropic_infconv([1.0, 1.0], X)
    assert value == pytest.approx(
        base_risk(ENTROPIC, 0.5, space.probs, X.values), abs=1e-12)
    assert np.allclose(split.slopes, 0.5)


def test_entropic_two_point_value():
    # uniform two-point loss {0, log 4} at aggregate aversion 1/2:
    # (1/(1/2)) log( (1 + e^{log4 * 1/2}) / 2 ) = 2 log(3/2)
    space = ScenarioSpace.uniform(["u", "v"])
    X = space.rv([0.0, math.log(4.0)])
    value, _ = entropic_infconv([1.0, 1.0], X)
    assert value == pytest.approx(2.0 * math.log(1.5), abs=1e-12)


def test_entropic_single_agent_is_identity():
    space = four_space()
    X = space.rv([0.4, -1.0, 0.2, 3.0])
    value, split = entropic_infconv([2.3], X)
    assert value == pytest.approx(
        base_risk(ENTROPIC, 2.3, space.probs, X.values), abs=1e-12)
    assert np.allclose(split.apply(X.values)[0], X.values)


def test_entropic_split_parts_recover_value():
    rng = np.random.default_rng(11)
    space = four_space()
    for _ in range(20):
        alphas = rng.uniform(0.2, 4.0, size=3)
        X = space.rv(rng.normal(0, 1.5, 4))
        value, split = entropic_infconv(alphas, X)
        parts = split.apply(X.values)
        total = sum(base_risk(ENTROPIC, a, space.probs, part)
                    for a, part in zip(alphas, parts))
        assert total == pytest.approx(value, abs=1e-8)
        assert np.allclose(parts.sum(axis=0), X.values, atol=1e-12)


def test_entropic_rejects_nonpositive_aversion():
    space = four_space()
    X = space.rv([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        entropic_infconv([1.0, -2.0], X)
    with pytest.raises(DomainError):
        entropic_infconv([], X)


# ----------------------------------------------------------------------
# the other convolution families
# ----------------------------------------------------------------------

def test_avar_convolution_takes_smallest_level():
    rng = np.random.default_rng(5)
    space = four_space()
    measures = (avar(0.55), avar(0.3))
    for _ in range(10):
        X = space.rv(rng.normal(0, 2, 4))
        value, split = convolution_split(measures, space.probs, X.values)
        assert value == pytest.approx(
            base_risk(AVAR, 0.3, space.probs, X.values), abs=1e-10)
        parts = split.apply(X.values)
        total = sum(base_risk(m.kind, m.param, space.probs, p)
                    for m, p in zip(measures, parts))
        assert total == pytest.approx(value, abs=1e-8)


def test_expectation_absorbs_convolution():
    space = four_space()
    X = space.rv([1.0, -2.0, 0.5, 4.0])
    for measures in [(EXP, ent(1.0)), (avar(0.4), EXP, ent(2.0))]:
        value, split = convolution_split(measures, space.probs, X.values)
        assert value == pytest.approx(float(space.probs @ X.values), abs=1e-12)
        idx = [i for i, m in enumerate(measures) if m.kind == EXPECTATION][0]
        assert np.allclose(split.apply(X.values)[idx], X.values)


def test_mixed_convolution_matches_stop_loss_oracle():
    rng = np.random.default_rng(17)
    space = four_space()
    for _ in range(15):
        beta = rng.uniform(0.1, 0.8)
        gamma = rng.uniform(0.3, 3.0)
        measures = (avar(beta), ent(gamma))
        X = space.rv(rng.normal(0, 1.5, 4))
        value, q = convolution_value(measures, space.probs, X.values)
        oracle = comonotone_oracle(measures, space.probs, X.values)
        assert value == pytest.approx(oracle, abs=1e-6)
        # dual feasibility of the maximizer
        assert np.min(q) >= -1e-12
        assert np.max(q) <= 1.0 / (1.0 - beta) + 1e-9
        assert float(space.probs @ q) == pytest.approx(1.0, abs=1e-10)


def test_clipped_density_respects_mass_and_cap():
    rng = np.random.default_rng(2)
    probs = np.array([0.25, 0.25, 0.3, 0.2])
    for _ in range(10):
        values = rng.normal(0, 1, 4)
        q, _ = lawinv._clipped_density(1.7, 2.5, probs, values, 0.6)
        assert float(probs @ q) == pytest.approx(0.6, abs=1e-11)
        assert np.max(q) <= 2.5 + 1e-12
        order = np.argsort(values)
        assert np.all(np.diff(q[order]) >= -1e-12)   # comonotone with values


def test_clipped_density_survives_extreme_exponents():
    probs = np.array([0.5, 0.5])
    q, _ = lawinv._clipped_density(5.0, 1.9, probs, np.array([0.0, 1000.0]), 1.0)
    assert np.isfinite(q).all()
    assert float(probs @ q) == pytest.approx(1.0, abs=1e-10)


def _lse(a):
    top = np.max(a)
    return top + math.log(np.sum(np.exp(a - top)))


def _clipped_density_by_bisection(gamma, cap, probs, values, target):
    """Reference: the bracket-and-bisection solver that _clipped_density
    was before its closed form, with a max-shifted log-sum-exp in place of
    SciPy's for speed."""
    order = np.argsort(-values, kind="stable")
    lp = np.log(probs[order])
    gv = gamma * values[order]
    logcap = math.log(cap)

    def mass(logc):
        return math.exp(_lse(lp + np.minimum(logc + gv, logcap)))

    lo = math.log(target) - _lse(lp + gv)
    if mass(lo) > target * (1 + 1e-12):
        lo -= 60.0
    hi = lo + 1.0
    for _ in range(200):
        if mass(hi) > target:
            break
        hi += max(1.0, hi - lo)
    else:
        raise NumericalFailure("clipped-density mass never reaches target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) < target:
            lo = mid
        else:
            hi = mid
    logc = 0.5 * (lo + hi)
    q = np.empty(values.size)
    q[order] = np.exp(np.minimum(logc + gv, logcap))
    return q, logc


def test_clipped_density_closed_form_matches_bisection():
    # Both solvers round exponents of size |gamma v| to about eps |gamma v|,
    # so they are compared where |gamma v| <= 40 and on the extreme case of
    # the test above (its unclipped scenario sits at 0); the mass identity,
    # the cap and the refusal are checked on exponents up to 5000 as well.
    rng = np.random.default_rng(2613)
    tol = 1e-12
    compared = [(5.0, 1.9, np.array([0.5, 0.5]), np.array([0.0, 1000.0]), 1.0)]
    extreme = []
    for i in range(2300):
        m = int(rng.integers(1, 41))
        probs = rng.uniform(0.05, 1.0, m)
        probs *= rng.uniform(0.2, 1.0) / probs.sum()
        cap = float(rng.uniform(1.05, 6.0))
        gamma = float(10.0 ** rng.uniform(-1.0, 1.0))
        values = rng.normal(0.0, 1.0, m)
        if i % 3 == 0:
            values = np.round(2.0 * values)            # ties
        scale = 5000.0 if i % 8 == 7 else rng.uniform(0.0, 40.0)
        values *= scale / gamma / max(1.0, np.max(np.abs(values)))
        target = float(cap * probs.sum() * rng.uniform(0.001, 0.999))
        case = (gamma, cap, probs, values, target)
        (extreme if i % 8 == 7 else compared).append(case)
    assert len(compared) >= 2000
    for gamma, cap, probs, values, target in compared + extreme:
        q, _ = lawinv._clipped_density(gamma, cap, probs, values, target)
        assert abs(float(probs @ q) - target) <= tol * target
        assert np.max(q) <= cap
        with pytest.raises(NumericalFailure):
            lawinv._clipped_density(gamma, cap, probs, values,
                                    cap * probs.sum() * (1.0 + 1e-9))
    for gamma, cap, probs, values, target in compared:
        q, logc = lawinv._clipped_density(gamma, cap, probs, values, target)
        q_ref, logc_ref = _clipped_density_by_bisection(
            gamma, cap, probs, values, target)
        assert np.max(np.abs(q - q_ref)) <= tol * np.max(q_ref)
        assert abs(logc - logc_ref) <= tol * max(1.0, abs(logc_ref))


# ----------------------------------------------------------------------
# law invariance and recession behaviour of the base families
# ----------------------------------------------------------------------

@given(st.permutations([0, 1, 2, 3]), st.lists(
    st.floats(-20, 20), min_size=4, max_size=4))
@settings(max_examples=150)
def test_convolution_law_invariant_under_permutation(perm, xs):
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    x = np.array(xs)
    measures = (ent(1.3), avar(0.45))
    v1, _ = convolution_value(measures, space.probs, x)
    v2, _ = convolution_value(measures, space.probs, x[list(perm)])
    assert v1 == v2   # bitwise: evaluation is order-canonicalized


def test_mean_zero_directions_are_not_recession_directions():
    rng = np.random.default_rng(23)
    space = four_space()
    for kind, param in [(ENTROPIC, 1.7), (AVAR, 0.3)]:
        for _ in range(20):
            u = rng.normal(0, 1, 4)
            u -= (space.probs @ u)           # mean zero
            if np.max(np.abs(u)) < 1e-9:
                continue
            grew = max(base_risk(kind, param, space.probs, t * u)
                       for t in (1.0, 10.0, 100.0, 1000.0))
            assert grew > 1e-9


def test_nonpositive_directions_stay_acceptable():
    rng = np.random.default_rng(29)
    space = four_space()
    for kind, param in [(ENTROPIC, 0.8), (AVAR, 0.6)]:
        for _ in range(20):
            u = -np.abs(rng.normal(0, 1, 4))
            for t in (1.0, 10.0, 100.0):
                assert base_risk(kind, param, space.probs, t * u) <= 1e-12


# ----------------------------------------------------------------------
# two entropic agents trading cash and a spread
# ----------------------------------------------------------------------

def spread_market(space, mask, p):
    spread = np.where(mask, 1.0, -1.0)
    return SecurityMarket((space.rv(np.ones(space.size)), space.rv(spread)),
                          np.array([p, 0.0]))


def test_entropic_pair_matches_one_dimensional_search():
    rng = np.random.default_rng(31)
    space = four_space()
    mask = np.array([True, False, True, False])
    for _ in range(20):
        alphas = rng.uniform(0.3, 4.0, size=2)
        p = rng.uniform(0.5, 2.0)
        X = space.rv(rng.normal(0, 1.5, 4))
        res = entropic_pair_sharing(p, alphas, ("a", "c"), X)
        alpha = 1.0 / (1.0 / alphas[0] + 1.0 / alphas[1])
        spread = np.where(mask, 1.0, -1.0)

        def g(s):
            return p * base_risk(ENTROPIC, alpha, space.probs,
                                 X.values - s * spread)

        o = minimize_scalar(g, bounds=(-60, 60), method="bounded",
                            options={"xatol": 1e-12})
        assert res.value == pytest.approx(float(o.fun), abs=1e-8)
        assert res.r_star == pytest.approx(float(o.x), abs=1e-6)


def test_entropic_pair_constant_loss_prices_at_par():
    # the pricing measure puts mass 1/2 on A; when P(A) = 1/2 as well, a
    # deterministic loss c costs exactly p*c and needs no spread position
    space = ScenarioSpace(("a", "b", "c"), np.array([0.5, 0.3, 0.2]))
    X = space.rv([2.5, 2.5, 2.5])
    res = entropic_pair_sharing(2.0, (1.0, 4.0), ("a",), X)
    assert res.value == pytest.approx(5.0, abs=1e-10)
    assert res.r_star == pytest.approx(0.0, abs=1e-7)


def test_entropic_pair_cash_additivity():
    space = four_space()
    X = space.rv([1.0, -0.3, 0.6, 2.0])
    base = entropic_pair_sharing(1.4, (2.0, 3.0), ("a", "b"), X)
    shifted = entropic_pair_sharing(1.4, (2.0, 3.0), ("a", "b"),
                                    space.rv(X.values + 0.75))
    assert shifted.value == pytest.approx(base.value + 1.4 * 0.75, abs=1e-10)
    assert shifted.r_star == pytest.approx(base.r_star, abs=1e-6)


def test_entropic_pair_allocation_is_exact():
    space = four_space()
    X = space.rv([1.2, -0.8, 0.4, 2.1])
    alphas = (2.0, 0.9)
    p = 1.3
    res = entropic_pair_sharing(p, alphas, ("b", "d"), X)
    assert np.allclose(res.parts[0].values + res.parts[1].values, X.values,
                       atol=1e-10)
    for a, part in zip(alphas, res.acceptable_parts):
        assert base_risk(ENTROPIC, a, space.probs, part.values) <= 1e-8
    # prices under the pricing measure (mass 1/2 on A): spread is free,
    # cash costs p, so the two securities together cost the requirement
    mask = np.array([lab in ("b", "d") for lab in space.labels])
    qa = 0.5 * mask / space.probs[mask].sum() \
        + 0.5 * ~mask / space.probs[~mask].sum()
    price = sum(float(p * (space.probs * qa) @ s.values)
                for s in res.securities)
    assert price == pytest.approx(res.value, abs=1e-9)
    # full certification through the regime interface
    sup = SupportMask.full(space)
    mkt = spread_market(space, mask, p)
    total = 0.0
    for a, part in zip(alphas, res.parts):
        r = RiskMeasurementRegime(sup, ent(a), mkt)
        total += rho(r, part).value.as_float()
    assert total == pytest.approx(res.value, abs=1e-8)


def test_entropic_pair_rejects_bad_inputs():
    space = four_space()
    X = space.rv([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        entropic_pair_sharing(0.0, (1.0, 1.0), ("a",), X)
    with pytest.raises(DomainError):
        entropic_pair_sharing(1.0, (1.0, -1.0), ("a",), X)
    with pytest.raises(DomainError):
        entropic_pair_sharing(1.0, (1.0, 1.0), (), X)
    with pytest.raises(DomainError):
        entropic_pair_sharing(1.0, (1.0, 1.0), ("a", "b", "c", "d"), X)


# ----------------------------------------------------------------------
# one AVaR agent and one entropic agent
# ----------------------------------------------------------------------

def five_space():
    return ScenarioSpace(("a1", "a2", "b1", "b2", "b3"),
                         np.array([0.2, 0.175, 0.25, 0.25, 0.125]))


def nested_oracle(beta, gamma, a_labels, qstar_a, X):
    """Brute route over the kernel coefficient and the stop-loss
    threshold: coarse grid, then a simplex polish from the best cell."""
    from scipy.optimize import minimize

    space = X.space
    mask = np.isin(np.array(space.labels), np.asarray(list(a_labels)))
    r = qstar_a / (1.0 - qstar_a)
    kernel = np.where(mask, 1.0, -r)

    def f(sz):
        w = X.values - sz[0] * kernel
        tail = np.maximum(w - sz[1], 0.0)
        floor = np.minimum(w, sz[1])
        return (base_risk(AVAR, beta, space.probs, tail)
                + base_risk(ENTROPIC, gamma, space.probs, floor))

    lo, hi = np.min(X.values) - 2.0, np.max(X.values) + 2.0
    ss = np.linspace(-3.0, 3.0, 101)
    zz = np.linspace(lo, hi, 101)
    best = min(((s, z) for s in ss for z in zz), key=f)
    res = minimize(f, np.array(best), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12})
    return float(res.fun)


def test_avar_entropic_matches_nested_oracle():
    space = five_space()
    X = space.rv([1.1, -0.4, 0.3, 2.0, -1.2])
    res = avar_entropic_sharing(0.4, 1.5, ("a1", "a2"), 0.3, X)
    oracle = nested_oracle(0.4, 1.5, ("a1", "a2"), 0.3, X)
    assert res.value == pytest.approx(oracle, abs=1e-3)
    assert res.value <= oracle + 1e-9    # dual route can only be tighter


def test_avar_entropic_zero_loss_reads_the_density_mismatch():
    space = five_space()
    X = space.rv(np.zeros(5))
    matched = avar_entropic_sharing(0.4, 1.5, ("a1", "a2"), 0.375, X)
    assert matched.value == pytest.approx(0.0, abs=1e-12)
    skewed = avar_entropic_sharing(0.4, 1.5, ("a1", "a2"), 0.3, X)
    assert skewed.value < -1e-6


def test_avar_entropic_certificates_and_allocation():
    rng = np.random.default_rng(41)
    space = five_space()
    sup = SupportMask.full(space)
    mask = np.array([lab in ("a1", "a2") for lab in space.labels])
    beta, gamma, qa = 0.4, 1.5, 0.3
    mkt = SecurityMarket(
        (space.rv(np.ones(5)), space.rv(mask.astype(float))),
        np.array([1.0, qa]))
    for _ in range(5):
        X = space.rv(rng.normal(0, 1, 5))
        res = avar_entropic_sharing(beta, gamma, ("a1", "a2"), qa, X)
        assert np.allclose(res.parts[0].values + res.parts[1].values,
                           X.values, atol=1e-10)
        assert res.certificates["supergradient_gap"] <= 1e-8
        assert max(res.certificates["part_risks"]) <= 1e-8
        assert res.s_interval[0] <= res.s_star <= res.s_interval[1]
        assert sum(res.security_prices) == pytest.approx(res.value, abs=1e-9)
        total = (rho(RiskMeasurementRegime(sup, avar(beta), mkt),
                     res.parts[0]).value.as_float()
                 + rho(RiskMeasurementRegime(sup, ent(gamma), mkt),
                       res.parts[1]).value.as_float())
        assert total == pytest.approx(res.value, abs=1e-8)


def test_avar_entropic_precondition_guards():
    space = five_space()
    X = space.rv(np.zeros(5))
    with pytest.raises(DomainError):
        avar_entropic_sharing(0.4, 1.5, ("a1", "a2"), 0.7, X)   # > cap * P(A)
    with pytest.raises(DomainError):
        avar_entropic_sharing(1.2, 1.5, ("a1", "a2"), 0.3, X)
    with pytest.raises(DomainError):
        avar_entropic_sharing(0.4, 0.0, ("a1", "a2"), 0.3, X)
    with pytest.raises(DomainError):
        avar_entropic_sharing(0.4, 1.5, (), 0.3, X)


def test_avar_entropic_is_deterministic():
    space = five_space()
    X = space.rv([0.3, 1.4, -2.0, 0.1, 0.9])
    a = avar_entropic_sharing(0.4, 1.5, ("a1", "a2"), 0.3, X)
    b = avar_entropic_sharing(0.4, 1.5, ("a1", "a2"), 0.3, X)
    assert a.value == b.value
    assert a.s_star == b.s_star
    assert np.array_equal(a.dual_density, b.dual_density)


# ----------------------------------------------------------------------
# general law-invariant systems
# ----------------------------------------------------------------------

def rv_of(space, v):
    return space.rv(np.asarray(v, dtype=float))


def cash_basis(space):
    return (rv_of(space, np.ones(space.size)),)


def test_requirement_two_entropic_cash_agents():
    space = four_space()
    X = space.rv([1.0, -0.5, 2.0, 0.3])
    prob = LawInvariantProblem(
        space=space,
        measures=(ent(2.0), ent(0.7)),
        security_bases=(cash_basis(space), cash_basis(space)),
        q=np.ones(4), p=1.0)
    res = law_invariant_requirement(prob, X)
    alpha = 1.0 / (1.0 / 2.0 + 1.0 / 0.7)
    assert res.value.as_float() == pytest.approx(
        base_risk(ENTROPIC, alpha, space.probs, X.values), abs=1e-10)
    assert res.certificates["aggregate_boundary"] == pytest.approx(0, abs=1e-10)


def test_requirement_single_agent_cash():
    space = four_space()
    X = space.rv([0.2, 1.7, -0.9, 0.5])
    prob = LawInvariantProblem(
        space=space, measures=(ent(1.1),),
        security_bases=(cash_basis(space),), q=np.ones(4), p=1.0)
    res = law_invariant_requirement(prob, X)
    assert res.value.as_float() == pytest.approx(
        base_risk(ENTROPIC, 1.1, space.probs, X.values), abs=1e-10)
    assert np.allclose(res.parts[0].values, X.values, atol=1e-10)


def test_requirement_scales_with_price_of_cash():
    space = four_space()
    X = space.rv([1.0, -0.5, 2.0, 0.3])
    prob = LawInvariantProblem(
        space=space, measures=(ent(1.0), ent(1.0)),
        security_bases=(cash_basis(space), cash_basis(space)),
        q=np.ones(4), p=1.6)
    res = law_invariant_requirement(prob, X)
    assert res.value.as_float() == pytest.approx(
        1.6 * base_risk(ENTROPIC, 0.5, space.probs, X.values), abs=1e-10)
    # the numeraire payoff is the rescaled unit
    assert np.allclose(res.unit.values, 1.0 / 1.6)


def test_requirement_agrees_with_entropic_pair_closed_form():
    space = four_space()
    mask = np.array([True, False, True, False])
    X = space.rv([0.8, -0.2, 1.4, 0.1])
    p, alphas = 1.25, (2.0, 3.0)
    closed = entropic_pair_sharing(p, alphas, ("a", "c"), X)
    qa = 0.5 * mask / space.probs[mask].sum() \
        + 0.5 * ~mask / space.probs[~mask].sum()
    spread = rv_of(space, np.where(mask, 1.0, -1.0))
    prob = LawInvariantProblem(
        space=space, measures=(ent(alphas[0]), ent(alphas[1])),
        security_bases=((cash_basis(space)[0], spread), cash_basis(space)),
        q=qa, p=p)
    res = law_invariant_requirement(prob, X)
    assert res.value.as_float() == pytest.approx(closed.value, abs=1e-8)


def test_requirement_agrees_with_avar_entropic_dual():
    space = five_space()
    mask = np.array([lab in ("a1", "a2") for lab in space.labels])
    X = space.rv([0.6, -1.0, 0.4, 1.3, -0.2])
    beta, gamma, qstar = 0.4, 1.5, 0.3
    direct = avar_entropic_sharing(beta, gamma, ("a1", "a2"), qstar, X)
    q = qstar * mask / space.probs[mask].sum() \
        + (1 - qstar) * ~mask / space.probs[~mask].sum()
    ind = rv_of(space, mask.astype(float))
    prob = LawInvariantProblem(
        space=space, measures=(avar(beta), ent(gamma)),
        security_bases=((cash_basis(space)[0], ind),
                        (cash_basis(space)[0], ind)),
        q=q, p=1.0)
    res = law_invariant_requirement(prob, X)
    assert res.value.as_float() == pytest.approx(direct.value, abs=1e-8)


def test_requirement_two_dimensional_kernel():
    # two independent zero-price spreads; oracle by Powell search
    from scipy.optimize import minimize

    space = ScenarioSpace(("a", "b", "c", "d", "e"),
                          np.array([0.2, 0.2, 0.2, 0.2, 0.2]))
    q = np.array([1.5, 0.5, 1.0, 1.0, 1.0])
    d1 = np.array([1.0, -1.0, 0.0, 2.0, -1.0])
    d2 = np.array([0.0, 1.0, -2.0, 0.5, 1.0])
    w = space.probs * q
    d1 -= (w @ d1) * 1.0
    d2 -= (w @ d2) * 1.0
    X = space.rv([0.7, -0.3, 1.9, -1.1, 0.5])
    prob = LawInvariantProblem(
        space=space, measures=(ent(1.2), ent(0.8)),
        security_bases=(
            (cash_basis(space)[0], rv_of(space, d1)),
            (cash_basis(space)[0], rv_of(space, d2))),
        q=q, p=1.0)
    res = law_invariant_requirement(prob, X)
    alpha = 1.0 / (1.0 / 1.2 + 1.0 / 0.8)

    def g(t):
        return base_risk(ENTROPIC, alpha, space.probs,
                         X.values - t[0] * d1 - t[1] * d2)

    o = minimize(g, np.zeros(2), method="Powell",
                 options={"xtol": 1e-12, "ftol": 1e-14})
    assert res.value.as_float() == pytest.approx(float(o.fun), abs=1e-7)
    assert res.certificates["allocation_residual"] <= 1e-8
    assert res.certificates["security_price_sum"] == pytest.approx(
        res.value.as_float(), abs=1e-8)


def test_requirement_pure_avar_lp_route():
    space = four_space()
    q = np.array([1.2, 0.8, 1.0, 0.8])
    q = q / float(space.probs @ q)
    spread = np.array([1.0, -1.0, 0.5, -2.0])
    spread = spread - float((space.probs * q) @ spread)
    X = space.rv([0.5, -1.2, 2.2, 0.1])
    prob = LawInvariantProblem(
        space=space, measures=(avar(0.35), avar(0.6)),
        security_bases=((cash_basis(space)[0], rv_of(space, spread)),
                        cash_basis(space)),
        q=q, p=1.0)
    res = law_invariant_requirement(prob, X)

    def g(t):
        return base_risk(AVAR, 0.35, space.probs, X.values - t * spread)

    o = minimize_scalar(g, bounds=(-100, 100), method="bounded",
                        options={"xatol": 1e-13})
    assert res.value.as_float() <= float(o.fun) + 1e-9
    assert res.value.as_float() == pytest.approx(float(o.fun), abs=1e-6)


def test_requirement_expectation_agent_takes_the_mean():
    space = four_space()
    X = space.rv([3.0, -1.0, 0.4, 0.9])
    prob = LawInvariantProblem(
        space=space, measures=(EXP, avar(0.5)),
        security_bases=(cash_basis(space), cash_basis(space)),
        q=np.ones(4), p=1.0)
    res = law_invariant_requirement(prob, X)
    assert res.value.as_float() == pytest.approx(
        float(space.probs @ X.values), abs=1e-10)


def test_requirement_unbounded_expectation_system():
    space = four_space()
    q = np.array([2.0, 0.5, 0.5, 1.0])
    q = q / float(space.probs @ q)
    d = np.array([1.0, -2.0, -2.0, 1.0])
    d = d - float((space.probs * q) @ d)
    assert abs(float(space.probs @ d)) > 0.1     # kernel with nonzero mean
    prob = LawInvariantProblem(
        space=space, measures=(EXP, avar(0.5)),
        security_bases=((cash_basis(space)[0], rv_of(space, d)),
                        cash_basis(space)),
        q=q, p=1.0)
    with pytest.raises(DomainError):
        law_invariant_requirement(prob, space.rv([1.0, 0.0, 0.0, 0.0]))


def test_requirement_needs_the_unit_in_the_span():
    space = four_space()
    e1 = rv_of(space, [1.0, 0.0, 0.0, 0.0])
    e2 = rv_of(space, [0.0, 1.0, 0.0, 0.0])
    prob = LawInvariantProblem(
        space=space, measures=(ent(1.0), ent(1.0)),
        security_bases=((e1,), (e2,)),
        q=np.ones(4), p=1.0)
    with pytest.raises(DomainError):
        law_invariant_requirement(prob, space.rv([0.1, 0.2, 0.3, 0.4]))


def test_requirement_wrong_space():
    space = four_space()
    other = ScenarioSpace.uniform(["x", "y"])
    prob = LawInvariantProblem(
        space=space, measures=(ent(1.0), ent(1.0)),
        security_bases=(cash_basis(space), cash_basis(space)),
        q=np.ones(4), p=1.0)
    with pytest.raises(StructuralError):
        law_invariant_requirement(prob, other.rv([0.0, 1.0]))


# ----------------------------------------------------------------------
# problem validation
# ----------------------------------------------------------------------

def test_validate_clean_problem():
    space = four_space()
    q = np.array([1.2, 0.8, 1.0, 0.8])
    q = q / float(space.probs @ q)
    spread = np.array([1.0, -1.0, 0.5, -2.0])
    spread = spread - float((space.probs * q) @ spread)
    prob = LawInvariantProblem(
        space=space, measures=(ent(2.0), ent(0.7)),
        security_bases=((cash_basis(space)[0], rv_of(space, spread)),
                        cash_basis(space)),
        q=q, p=1.15)
    rep = validate_problem(prob)
    assert rep.passed, rep.to_dict()
    names = {c.name for c in rep.checks}
    assert "kernel_free_of_one_signed_directions" in names
    assert "aggregate_span_contains_unit" in names


def test_validate_flags_one_signed_kernel():
    # the pricing density ignores scenario "a", so its indicator is a free
    # nonnegative payoff -- the classic nonattainment culprit
    space = four_space()
    q = np.array([0.0, 1.0, 1.0, 1.0])
    q = q / float(space.probs @ q)
    prob = LawInvariantProblem(
        space=space, measures=(ent(1.0), ent(1.0)),
        security_bases=((cash_basis(space)[0],
                         rv_of(space, [1.0, 0.0, 0.0, 0.0])),
                        cash_basis(space)),
        q=q, p=1.0)
    rep = validate_problem(prob)
    assert not rep.passed
    failing = {c.name for c in rep.checks if not c.passed}
    assert failing == {"kernel_free_of_one_signed_directions"}


def test_validate_kernel_witnesses():
    from riskshare.linprog import null_space

    space = four_space()
    q = np.array([1.2, 0.8, 1.0, 0.8])
    q = q / float(space.probs @ q)
    spread = np.array([1.0, -1.0, 0.5, -2.0])
    spread = spread - float((space.probs * q) @ spread)
    prob_args = dict(
        space=space, measures=(ent(2.0), ent(0.7)),
        security_bases=((cash_basis(space)[0], rv_of(space, spread)),
                        cash_basis(space)),
        q=q, p=1.0)
    # reconstruct the kernel direction the validator will use
    span = lawinv._span_basis(LawInvariantProblem(**prob_args).stacked_matrix())
    price_row = (space.probs * q) @ span
    kdir = (span @ null_space(price_row.reshape(1, -1)))[:, 0]
    witness = 1.0 + 0.5 * np.sign(kdir)
    witness = witness / float(space.probs @ witness)
    good = LawInvariantProblem(**prob_args, kernel_witnesses=(witness,))
    assert validate_problem(good).passed
    bad = LawInvariantProblem(
        **prob_args, kernel_witnesses=(2.0 / float(space.probs @ (2.0 - witness))
                                       - witness,))
    rep = validate_problem(bad)
    assert not rep.passed


def test_problem_constructor_guards():
    space = four_space()
    with pytest.raises(StructuralError):
        LawInvariantProblem(space=space, measures=(),
                            security_bases=(), q=np.ones(4), p=1.0)
    with pytest.raises(StructuralError):
        LawInvariantProblem(space=space, measures=(ent(1.0),),
                            security_bases=(cash_basis(space),),
                            q=np.ones(4), p=-1.0)
    with pytest.raises(StructuralError):
        LawInvariantProblem(space=space, measures=(ent(1.0),),
                            security_bases=(cash_basis(space),),
                            q=-np.ones(4), p=1.0)
    with pytest.raises(StructuralError):
        LawInvariantProblem(space=space, measures=(ent(1.0),),
                            security_bases=(cash_basis(space),),
                            q=2.0 * np.ones(4), p=1.0)
    with pytest.raises(StructuralError):
        LawInvariantProblem(space=space, measures=(ent(1.0), ent(1.0)),
                            security_bases=(cash_basis(space),),
                            q=np.ones(4), p=1.0)


# ----------------------------------------------------------------------
# conjugate identity across the convolution
# ----------------------------------------------------------------------

def test_convolution_conjugate_identity():
    # at the dual maximizer q* of any point, Fenchel equality pins the
    # conjugate of the convolution, which must equal the sum of the agent
    # conjugates evaluated at q*
    rng = np.random.default_rng(53)
    space = four_space()
    families = [
        (ent(2.0), ent(0.7)),
        (ent(1.1), avar(0.45)),
        (avar(0.3), avar(0.6)),
    ]
    for measures in families:
        for _ in range(20):
            w = rng.normal(0, 1.2, 4)
            value, q = convolution_value(measures, space.probs, w)
            lhs = float(space.probs @ (q * w)) - value
            rhs = 0.0
            for m in measures:
                c = base_risk_conjugate(m.kind, m.param, space.probs, q)
                assert c.is_finite
                rhs += c.as_float()
            assert lhs == pytest.approx(rhs, abs=1e-6)


# ----------------------------------------------------------------------
# the agent-system adapter
# ----------------------------------------------------------------------

def law_regime(space, acc, market=None):
    if market is None:
        market = SecurityMarket(cash_basis(space), np.array([1.0]))
    return RiskMeasurementRegime(SupportMask.full(space), acc, market)


def test_adapter_routes_from_capital_requirement():
    from riskshare.market import AgentSystem, capital_requirement

    space = four_space()
    X = space.rv([1.0, -0.5, 2.0, 0.3])
    s = AgentSystem((law_regime(space, ent(2.0)), law_regime(space, ent(0.7))))
    res = capital_requirement(s, X)
    assert res.method == "lawinv"
    alpha = 1.0 / (1.0 / 2.0 + 1.0 / 0.7)
    assert res.value.as_float() == pytest.approx(
        base_risk(ENTROPIC, alpha, space.probs, X.values), abs=1e-8)
    assert np.allclose(res.allocation.total(), X.values, atol=1e-8)
    total = sum(v.as_float() for v in res.agent_risks)
    assert total == pytest.approx(res.value.as_float(), abs=1e-8)


def test_adapter_subgradient_matches_finite_differences():
    from riskshare.market import AgentSystem, capital_requirement

    space = four_space()
    X = space.rv([0.4, -0.1, 1.3, 0.8])
    s = AgentSystem((law_regime(space, ent(1.5)), law_regime(space, ent(0.5))))
    res = capital_requirement(s, X)
    rng = np.random.default_rng(3)
    v = rng.normal(0, 1, 4)
    eps = 1e-6
    up = capital_requirement(s, space.rv(X.values + eps * v)).value.as_float()
    dn = capital_requirement(s, space.rv(X.values - eps * v)).value.as_float()
    fd = (up - dn) / (2 * eps)
    assert float(res.subgradient.weights @ v) == pytest.approx(fd, abs=1e-4)


def test_adapter_with_avar_agent_and_event_security():
    from riskshare.market import AgentSystem, capital_requirement

    space = five_space()
    mask = np.array([lab in ("a1", "a2") for lab in space.labels])
    mkt = SecurityMarket(
        (cash_basis(space)[0], rv_of(space, mask.astype(float))),
        np.array([1.0, 0.3]))
    X = space.rv([0.6, -1.0, 0.4, 1.3, -0.2])
    s = AgentSystem((law_regime(space, avar(0.4), mkt),
                     law_regime(space, ent(1.5), mkt)))
    res = capital_requirement(s, X)
    direct = avar_entropic_sharing(0.4, 1.5, ("a1", "a2"), 0.3, X)
    assert res.value.as_float() == pytest.approx(direct.value, abs=1e-8)
    total = sum(v.as_float() for v in res.agent_risks)
    assert total == pytest.approx(res.value.as_float(), abs=1e-8)


def test_adapter_subgradients_are_dual_feasible():
    # pairs trading cash and an event priced inside the AVaR dual box: the
    # supporting functional prices both securities and every agent's
    # conjugate is finite; the first case has tied losses, where AVaR's
    # density has no coordinate strictly inside its box
    from riskshare.market import AgentSystem, capital_requirement

    rng = np.random.default_rng(19)
    cases = [(np.array([0.5, 0.5]), (avar(0.5), avar(0.5)), 1, 0.3,
              np.array([1.0, 0.0]))]
    for i in range(30):
        m = int(rng.integers(2, 7))
        probs = rng.uniform(0.2, 1.0, m)
        probs /= probs.sum()
        b1, b2 = rng.uniform(0.1, 0.8, 2)
        g1, g2 = rng.uniform(0.3, 3.0, 2)
        measures = [(avar(b1), ent(g1)), (avar(b1), avar(b2)),
                    (ent(g1), ent(g2))][i % 3]
        k = int(rng.integers(1, m))               # the event: first k
        pa = float(probs[:k].sum())
        cap = min(acc.dual_cap() for acc in measures)
        lo, hi = max(0.0, 1.0 - cap * (1.0 - pa)), min(cap * pa, 1.0)
        qa = float(lo + (hi - lo) * rng.uniform(0.05, 0.95))
        x = rng.normal(0.0, 1.0, m)
        if i % 4 == 0:
            x = np.round(x)
        cases.append((probs, measures, k, qa, x))
    for probs, measures, k, qa, x in cases:
        m = probs.size
        space = ScenarioSpace(tuple(f"s{j}" for j in range(m)), probs)
        event = (np.arange(m) < k).astype(float)
        mkt = SecurityMarket((rv_of(space, np.ones(m)), rv_of(space, event)),
                             np.array([1.0, qa]))
        s = AgentSystem(tuple(law_regime(space, acc, mkt) for acc in measures))
        phi = capital_requirement(s, space.rv(x), certify=False).subgradient
        B = mkt.basis_matrix()
        assert np.max(np.abs(phi.weights @ B - mkt.prices)) <= 1e-12
        for r in s.regimes:
            assert conjugate(r, phi).is_finite


def test_adapter_rejects_priceless_systems():
    from riskshare.lawinv import law_invariant_sharing
    from riskshare.market import AgentSystem

    space = four_space()
    # the same payoff priced differently by the two agents: no measure
    mkt1 = SecurityMarket(cash_basis(space), np.array([1.0]))
    mkt2 = SecurityMarket(cash_basis(space), np.array([2.0]))
    s = AgentSystem((law_regime(space, ent(1.0), mkt1),
                     law_regime(space, ent(1.0), mkt2)))
    with pytest.raises(DomainError):
        law_invariant_sharing(s, space.rv([0.0, 0.0, 0.0, 0.0]))


def test_mixed_family_systems_are_rejected():
    from helpers import overlap_pair
    from riskshare.market import AgentSystem, capital_requirement

    r1, _ = overlap_pair()
    space = r1.space
    s = AgentSystem((r1, law_regime(space, ent(1.0))))
    with pytest.raises(DomainError):
        capital_requirement(s, space.rv([1.0, 1.0, 1.0]))
