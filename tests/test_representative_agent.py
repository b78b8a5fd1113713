"""Lambda as rho of the representative agent: the one law-invariant
search, the one pricing-density LP, and properties of both over generated
law-invariant pairs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from riskshare.errors import DomainError
from riskshare.lawinv import (
    CERT_TOL,
    convolution_split,
    convolution_value,
    law_invariant_sharing,
)
from riskshare.market import AgentSystem, block_decompose, capital_requirement
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    EXPECTATION,
    LawInvariantAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    _pricing_margin,
    conjugate,
    rho,
)
from riskshare.scenario import ScenarioSpace, SupportMask


def _regime(space, kind, param, payoffs, prices):
    market = SecurityMarket(tuple(space.rv(np.asarray(b, dtype=float))
                                  for b in payoffs),
                            np.asarray(prices, dtype=float))
    return RiskMeasurementRegime(SupportMask.full(space),
                                 LawInvariantAcceptanceSet(kind, param), market)


# ----------------------------------------------------------------------
# the pricing-density LP
# ----------------------------------------------------------------------

def _highs_margin(weights, B, prices, cap):
    """The density (primal) form, solved by SciPy's HiGHS: the largest s
    with s <= d <= cap and the weights w d pricing every column of B."""
    m, K = B.shape
    res = optimize.linprog(
        np.concatenate([np.zeros(m), [-1.0]]),
        A_ub=np.hstack([-np.eye(m), np.ones((m, 1))]), b_ub=np.zeros(m),
        A_eq=np.hstack([(weights[:, None] * B).T, np.zeros((K, 1))]),
        b_eq=prices, bounds=[(None, cap)] * m + [(None, None)],
        method="highs")
    if res.status == 2:
        return -math.inf
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("i", range(24))
def test_payoff_form_margin_equals_the_density_form(i):
    rng = np.random.default_rng([83, i])
    m = 3 + i % 4
    probs = rng.uniform(0.2, 1.0, m)
    probs /= probs.sum()
    B = np.column_stack([np.ones(m)] + [rng.normal(0.0, 1.0, m)
                                        for _ in range(1 + i % 2)])
    # a density inside (0, 2), or one with a negative entry every third
    # draw, prices the span
    d = 1.0 + rng.uniform(-0.5, 0.5, m) * (3.0 if i % 3 == 0 else 1.0)
    d /= probs @ d
    prices = (probs * d) @ B
    for cap in (1.5, 2.0, math.inf):
        got, dual = _pricing_margin(probs, B, prices, cap)
        ref = _highs_margin(probs, B, prices, cap)
        if math.isinf(ref):
            assert got == ref and dual is None
            continue
        assert got == pytest.approx(ref, abs=1e-10)
        # the density the duals certify prices the span and lies in
        # [margin, cap]
        scale = np.abs(B).T @ (probs * np.abs(dual))
        assert np.all(np.abs(B.T @ (probs * dual) - prices) <= 1e-12 * scale)
        assert got - 1e-12 <= np.min(dual) and np.max(dual) <= cap + 1e-12


def test_margin_without_nonnegative_payoffs_is_infinite():
    # the span of (1, -1) holds no nonzero nonnegative payoff
    B = np.array([[1.0], [-1.0]])
    assert _pricing_margin(np.ones(2), B, np.array([0.0]),
                           math.inf) == (math.inf, None)


@pytest.mark.parametrize("payoffs, prices, says", [
    # 1_a >= 0 priced at -0.1: every density pricing the span is negative
    # on a
    ([np.ones(2), [1.0, 0.0]], [1.0, -0.1], "no nonnegative pricing measure"),
    # the span of 1_a - 1_b holds no nonzero nonnegative payoff
    ([[1.0, -1.0]], [0.3], "must contain the unit"),
], ids=["negative_price", "no_unit"])
def test_adapter_refuses_prices_without_a_pricing_measure(payoffs, prices,
                                                          says):
    space = ScenarioSpace.uniform(["a", "b"])
    s = AgentSystem(tuple(_regime(space, ENTROPIC, a, payoffs, prices)
                          for a in (1.0, 2.0)))
    with pytest.raises(DomainError, match=says):
        law_invariant_sharing(s, space.rv([1.0, -1.0]))


# ----------------------------------------------------------------------
# defects fixed along the way
# ----------------------------------------------------------------------

def _uniform_four():
    return ScenarioSpace.uniform(["a", "b", "c", "d"])


def test_pure_avar_lambda_density_comes_from_the_lp_duals():
    # the density _avar_density gives at the LP optimum cannot be repaired
    # into the dual box here; the LP's row duals are in it by construction
    space = _uniform_four()
    s = AgentSystem((
        _regime(space, AVAR, 0.6, [np.ones(4), [2, 1, 0, 2]], [1.0, 1.25]),
        _regime(space, AVAR, 0.2, [np.ones(4), [-2, 1, 0, 1]], [1.0, 0.0])))
    x = np.array([1.0, -1.0, 0.0, -1.0])
    res = capital_requirement(s, space.rv(x))
    # the dual side by HiGHS: max E[d X] over densities d <= 1.25 E[d]
    # pricing both markets
    probs = space.probs
    B = np.column_stack([np.ones(4), [2, 1, 0, 2], [-2, 1, 0, 1]])
    ref = optimize.linprog(
        -(probs * x), A_ub=np.eye(4) - 1.25 * np.tile(probs, (4, 1)),
        b_ub=np.zeros(4), A_eq=(probs[:, None] * B).T,
        b_eq=[1.0, 1.25, 0.0], bounds=[(0.0, None)] * 4, method="highs")
    assert res.value.as_float() == pytest.approx(-ref.fun, abs=1e-12)
    assert res.value.as_float() == pytest.approx(-0.234375, abs=1e-12)
    for r in s.regimes:
        assert conjugate(r, res.subgradient).is_finite


def test_selection_blocks_of_very_different_scales_sum_back():
    # payoffs of scale 1e3 and 1e-3 in one block system; the least squares
    # on the raw columns missed the 1e-9 residual check
    space = _uniform_four()
    x = space.rv([0.4, 0.4, -0.4, 1.4])
    values = []
    for scale in (1.0, 1e3):
        s = AgentSystem((
            _regime(space, ENTROPIC, 0.5,
                    [np.ones(4), np.array([-2, 0, 3, -1]) / scale],
                    [1.0, 0.0]),
            _regime(space, ENTROPIC, 2.0,
                    [np.ones(4), scale * np.array([0, 3, -1, -2]),
                     np.array([-1, 2, 1, -2]) / scale], [1.0, 0.0, 0.0])))
        values.append(capital_requirement(s, x).value.as_float())
    assert values[1] == pytest.approx(values[0], abs=CERT_TOL)
    assert values[0] == pytest.approx(0.45, abs=1e-12)


def test_block_decompose_is_exact_on_a_power_of_two_rescale():
    # scaling by a power of two is exact, so a column and its 2^k multiple
    # split a vector into the same parts
    rng = np.random.default_rng(89)
    cols = rng.normal(0.0, 1.0, (5, 3))
    values = cols @ rng.normal(0.0, 1.0, 3)
    base = block_decompose([cols[:, :1], cols[:, 1:]], values)
    scaled = block_decompose([8.0 * cols[:, :1], cols[:, 1:] / 4.0], values)
    for a, b in zip(base, scaled):
        assert np.array_equal(a, b)


MEASURES = [LawInvariantAcceptanceSet(ENTROPIC, 0.7),
            LawInvariantAcceptanceSet(AVAR, 0.4),
            LawInvariantAcceptanceSet(EXPECTATION)]


@pytest.mark.parametrize("others", [(), (0,), (1,), (0, 1)])
def test_expectation_convolution_is_bitwise_permutation_invariant(others):
    rng = np.random.default_rng([97, len(others)] + list(others))
    measures = [MEASURES[2]] + [MEASURES[i] for i in others]
    for _ in range(100):
        m = int(rng.integers(3, 8))
        probs = rng.uniform(0.2, 1.0, m)
        probs /= probs.sum()
        x = rng.normal(0.0, 2.0, m)
        perm = rng.permutation(m)
        v, q = convolution_value(measures, probs, x)
        vp, qp = convolution_value(measures, probs[perm], x[perm])
        assert vp == v and np.array_equal(qp, q[perm])
        assert convolution_split(measures, probs[perm], x[perm])[0] == \
            convolution_split(measures, probs, x)[0]


# ----------------------------------------------------------------------
# properties over generated law-invariant pairs
# ----------------------------------------------------------------------

PAIRS = list(itertools.combinations_with_replacement(
    (ENTROPIC, AVAR, EXPECTATION), 2))


def _param(rng, kind):
    if kind == ENTROPIC:
        return float(rng.uniform(0.3, 2.5))
    if kind == AVAR:
        return float(rng.uniform(0.2, 0.7))
    return 0.0


@st.composite
def pairs(draw):
    """A law-invariant pair on m = 3..6 scenarios.  Both agents trade cash
    at p; agent 1 also trades the first of 1 or 2 further payoffs, agent 2
    the rest (none when there is one).  Every price comes from one density
    strictly inside both agents' dual boxes."""
    families = draw(st.sampled_from(PAIRS))
    m = draw(st.integers(3, 6))
    k = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probs = rng.uniform(0.2, 1.0, m)
    probs /= probs.sum()
    params = [_param(rng, kind) for kind in families]
    caps = [LawInvariantAcceptanceSet(kind, a).dual_cap()
            for kind, a in zip(families, params)]
    cap = min(caps)
    if cap == 1.0:
        q = np.ones(m)
    else:
        # inside (0, cap): (1 + a d) / (1 - a d) < 1 + d for a < 1/3
        q = 1.0 + rng.uniform(-0.3, 0.3, m) * min(1.0, cap - 1.0)
        q /= probs @ q
    p = float(rng.uniform(0.8, 1.25))
    payoffs = [np.ones(m)] + [rng.normal(0.0, 1.0, m) for _ in range(k)]
    prices = [p * float((probs * q) @ b) for b in payoffs]
    x = rng.normal(0.0, 1.5, m)
    x1 = rng.normal(0.0, 1.5, m)
    held = ([0, 1], [0] + list(range(2, k + 1)))
    return dict(families=families, params=params, probs=probs,
                payoffs=payoffs, prices=prices, held=held, x=x, x1=x1,
                flip=int(rng.integers(0, k + 1)),
                rescale=(int(rng.integers(0, k + 1)),
                         float(rng.choice([1e-6, 1e6]))),
                perm=rng.permutation(m))


def _system(doc, perm=None, factor=None):
    """The pair's regimes and loss, optionally with the scenarios permuted
    or one payoff (and its price) multiplied by factor = (index, f)."""
    perm = np.arange(len(doc["probs"])) if perm is None else perm
    space = ScenarioSpace(tuple(f"s{j}" for j in range(perm.size)),
                          doc["probs"][perm])
    payoffs = [b[perm] for b in doc["payoffs"]]
    prices = list(doc["prices"])
    if factor is not None:
        j, f = factor
        payoffs[j], prices[j] = f * payoffs[j], f * prices[j]
    regimes = tuple(
        _regime(space, kind, a, [payoffs[j] for j in held],
                [prices[j] for j in held])
        for kind, a, held in zip(doc["families"], doc["params"],
                                 doc["held"]))
    return regimes, space.rv(doc["x"][perm])


def _values(regimes, X):
    return ([capital_requirement(AgentSystem(regimes), X).value.as_float()]
            + [rho(r, X).value.as_float() for r in regimes])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pairs())
def test_values_are_invariant_under_relabelling_sign_and_scale(doc):
    base = _values(*_system(doc))
    for variant in (_system(doc, perm=doc["perm"]),
                    _system(doc, factor=(doc["flip"], -1.0)),
                    _system(doc, factor=doc["rescale"])):
        for v0, v in zip(base, _values(*variant)):
            assert abs(v - v0) <= CERT_TOL * (1.0 + abs(v0))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pairs())
def test_lambda_is_below_the_risk_of_every_split(doc):
    regimes, X = _system(doc)
    lam = capital_requirement(AgentSystem(regimes), X).value.as_float()
    X1 = X.space.rv(doc["x1"])
    total = (rho(regimes[0], X1).value.as_float()
             + rho(regimes[1], X - X1).value.as_float())
    assert lam <= total + CERT_TOL * (1.0 + abs(total))
