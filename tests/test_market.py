import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from riskshare import lawinv, linprog, market
from riskshare.errors import DomainError, NumericalFailure, StructuralError
from riskshare.market import (
    AgentSystem,
    Allocation,
    capital_requirement,
    lambda_batch,
    nsa_check,
    shift_allocation,
    validate_star,
)
from riskshare.problemfile import load_problem
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    rho,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask

from helpers import (
    cash_market,
    ceiling_regime,
    hard_ceiling_pair,
    law_invariant_regime,
    overlap_pair,
    point_eval,
    three_space,
)
from oracles import (
    acceptable_decomposition,
    capital_requirement_payoff_form,
    level_set_certificate,
    pareto_from_payoff,
    pi,
    security_selection,
)
from test_linprog import window_chain

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def overlap_system():
    space = three_space()
    return space, AgentSystem(overlap_pair(space))


def total_risk(system, alloc):
    return sum(
        rho(r, part).value.as_float()
        for r, part in zip(system.regimes, alloc.parts)
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_system_needs_cover():
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    r1 = ceiling_regime(space, ["a", "b"], (1.0, 1.0))
    r2 = ceiling_regime(space, ["b", "c"], (1.0, 1.0))
    with pytest.raises(StructuralError):
        AgentSystem((r1, r2))   # nobody owns d


def test_system_needs_two_agents():
    space = three_space()
    r1 = ceiling_regime(space, ["a", "b", "c"], (1.0, 1.0, 1.0))
    with pytest.raises(StructuralError):
        AgentSystem((r1,))


# ---------------------------------------------------------------------------
# price agreement and connectivity
# ---------------------------------------------------------------------------

def test_star_holds_on_overlap(overlap_system):
    _, s = overlap_system
    rep = validate_star(s)
    assert rep.passed


def test_star_price_disagreement():
    space = three_space()
    r1 = ceiling_regime(space, ["a", "b"], (1.0, 2.0))
    # same shape as r1's partner but the shared indicator trades at 2
    acc = PolyhedralAcceptanceSet(
        (point_eval(space, "b"), point_eval(space, "c")),
        np.array([1.0, 3.0]),
    )
    mkt = SecurityMarket(
        (space.indicator(["b"]), space.indicator(["c"])),
        np.array([2.0, 1.0]),
    )
    r2 = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["b", "c"]),
        acceptance=acc, market=mkt)
    rep = validate_star(AgentSystem((r1, r2)))
    names = {c.name: c.passed for c in rep.checks}
    assert not names["price_agreement_on_intersections"]


def test_star_disconnected():
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    r1 = ceiling_regime(space, ["a", "b"], (1.0, 1.0))
    r2 = ceiling_regime(space, ["c", "d"], (1.0, 1.0))
    rep = validate_star(AgentSystem((r1, r2)))
    names = {c.name: c.passed for c in rep.checks}
    assert names["price_agreement_on_intersections"]   # vacuous
    assert not names["relation_graph_connected"]


# ---------------------------------------------------------------------------
# the pi(0) dichotomy
# ---------------------------------------------------------------------------

def test_nsa_overlap_pair(overlap_system):
    _, s = overlap_system
    res = nsa_check(s)
    assert res.dim_v == 1
    assert res.pi_zero_is_zero
    assert res.lp_status == "optimal"
    assert res.verdict() == "pi(0)=0"


def _triple_agents(space, include_third=True):
    """Three agents on a common unit: each holds the unit at price 1 plus
    one zero-price spread; the spreads satisfy a + b = c while agent 3
    prices c at 0.5, so withholding c and going long a, b earns money at
    every scale."""
    unit = space.rv(np.ones(3))
    spread_a = space.rv(np.array([1.0, -1.0, 0.0]))
    spread_b = space.rv(np.array([0.0, 1.0, -1.0]))
    spread_c = space.rv(np.array([1.0, 0.0, -1.0]))
    full = SupportMask.full(space)
    acc = PolyhedralAcceptanceSet((Functional(space, np.ones(3)),),
                                  np.array([0.0]))
    mk = lambda extras, prices: SecurityMarket(
        (unit,) + extras, np.array([1.0] + prices))
    agents = [
        RiskMeasurementRegime(support=full, acceptance=acc,
                              market=mk((spread_a,), [0.0])),
        RiskMeasurementRegime(support=full, acceptance=acc,
                              market=mk((spread_b,), [0.0])),
    ]
    if include_third:
        agents.append(RiskMeasurementRegime(
            support=full, acceptance=acc, market=mk((spread_c,), [0.5])))
    return AgentSystem(tuple(agents))


def test_nsa_violation_three_agents():
    space = three_space()
    s = _triple_agents(space)
    assert validate_star(s).passed      # prices agree where spans meet
    res = nsa_check(s)
    assert res.dim_v == 3
    assert not res.pi_zero_is_zero
    assert res.lp_status == "unbounded"
    with pytest.raises(DomainError):
        capital_requirement(s, space.rv(np.zeros(3)))
    with pytest.raises(DomainError):
        pi(s, np.ones(3))


def test_nsa_restored_without_third_agent():
    space = three_space()
    s = _triple_agents(space, include_third=False)
    res = nsa_check(s)
    assert res.dim_v == 1
    assert res.pi_zero_is_zero


def test_nsa_price_disagreement_below_full_rank():
    # both agents trade the payoff 1, at prices 1 and 2: V is the line
    # through (1, -2), so dim(V) = 1 < n = 2, but its total price -1 does
    # not vanish and pi(0) = -inf, as the zero-sum LP finds
    space = ScenarioSpace.uniform(["low", "high"])
    s = AgentSystem(tuple(
        law_invariant_regime(space, ENTROPIC, 1.0, cash_market(space, price))
        for price in (1.0, 2.0)))
    res = nsa_check(s)
    assert (res.dim_v, res.lp_status) == (1, "unbounded")
    assert not res.pi_zero_is_zero
    assert res.verdict() == "pi(0)=-inf"
    with pytest.raises(DomainError, match="scalable arbitrage"):
        capital_requirement(s, space.rv(np.zeros(2)))


def test_nsa_over_one_market_object_solves_its_lp_once(monkeypatch):
    # agents holding one market object contribute its columns once: the
    # zero-sum LP is the market's, kept on it for every later system
    space = three_space()
    regime = law_invariant_regime(space, ENTROPIC, 1.0,
                                  cash_market(space, 0.9))
    solves = []
    solve = linprog.solve
    monkeypatch.setattr(linprog, "solve",
                        lambda p: solves.append(p) or solve(p))
    for n in (2, 3, 5):
        res = nsa_check(AgentSystem((regime,) * n))
        assert (res.dim_v, res.n_agents) == (n - 1, n)
        assert res.pi_zero_is_zero and res.lp_status == "optimal"
    assert [p.rows.shape for p in solves] == [(3, 1)]


# ---------------------------------------------------------------------------
# glued prices
# ---------------------------------------------------------------------------

def test_pi_agrees_with_agent_prices(overlap_system):
    space, s = overlap_system
    assert pi(s, space.indicator(["a"]).values) == pytest.approx(1.0, abs=1e-10)
    assert pi(s, space.indicator(["b"]).values) == pytest.approx(1.0, abs=1e-10)
    assert pi(s, np.array([3.0, 2.0, 3.0])) == pytest.approx(8.0, abs=1e-9)


def test_pi_outside_span():
    space = three_space()
    acc = PolyhedralAcceptanceSet((Functional(space, np.ones(3)),),
                                  np.array([0.0]))
    cash = SecurityMarket((space.rv(np.ones(3)),), np.array([1.0]))
    r = RiskMeasurementRegime(support=SupportMask.full(space),
                              acceptance=acc, market=cash)
    s = AgentSystem((r, r))
    with pytest.raises(DomainError):
        pi(s, np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# the sharing functional
# ---------------------------------------------------------------------------

def test_overlap_value_and_payoff(overlap_system):
    space, s = overlap_system
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    res = capital_requirement(s, X)
    assert res.value.is_finite
    assert res.value.value == pytest.approx(8.0, abs=1e-8)
    np.testing.assert_allclose(res.payoff.values, [3.0, 2.0, 3.0], atol=1e-8)
    np.testing.assert_allclose(res.allocation.total(), X.values, atol=1e-9)
    # parts live where their owners do
    assert s.regimes[0].support.contains(res.allocation.parts[0], tol=1e-12)
    assert s.regimes[1].support.contains(res.allocation.parts[1], tol=1e-12)
    assert total_risk(s, res.allocation) == pytest.approx(8.0, abs=1e-8)


def test_overlap_closed_form_random():
    # On the overlap instance the support constraints pin every coordinate
    # except the shared one, and the objective telescopes:
    #   Lambda(X) = X(a) + X(b) + X(c) - (k1a + k1b + k2b + k2c)
    rng = np.random.default_rng(7)
    space = three_space()
    for _ in range(25):
        k1 = rng.uniform(0.2, 3.0, 2)
        k2 = rng.uniform(0.2, 3.0, 2)
        s = AgentSystem(overlap_pair(space, tuple(k1), tuple(k2)))
        X = space.rv(rng.uniform(-5.0, 8.0, 3))
        res = capital_requirement(s, X)
        expected = X.values.sum() - (k1.sum() + k2.sum())
        assert res.value.value == pytest.approx(expected, abs=1e-8)


def test_requirement_nonpositive_inside_acceptance(overlap_system):
    space, s = overlap_system
    # X sits exactly at agent 1's ceilings; unused room elsewhere can be
    # sold, so the market requirement is strictly negative.
    X = space.rv(np.array([1.0, 2.0, 0.0]))
    res = capital_requirement(s, X)
    assert res.value.value <= 1e-12
    assert res.value.value == pytest.approx(-4.0, abs=1e-8)


def test_aggregate_additivity(overlap_system):
    space, s = overlap_system
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    M = space.rv(np.array([2.0, -1.0, 3.0]))   # price 2 - 1 + 3 = 4
    lhs = capital_requirement(s, X + M).value.value
    rhs = capital_requirement(s, X).value.value + pi(s, M.values)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_subgradient_on_overlap(overlap_system):
    space, s = overlap_system
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    res = capital_requirement(s, X)
    np.testing.assert_allclose(res.subgradient.weights, np.ones(3), atol=1e-9)


def test_payoff_form_agrees(overlap_system):
    space, s = overlap_system
    rng = np.random.default_rng(11)
    for _ in range(10):
        X = space.rv(rng.uniform(-4.0, 8.0, 3))
        a = capital_requirement(s, X, certify=False).value.value
        b = capital_requirement_payoff_form(s, X).value
        assert a == pytest.approx(b, abs=1e-8)


def test_payoff_form_agrees_four_scenarios():
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    rng = np.random.default_rng(13)
    for _ in range(10):
        r1 = ceiling_regime(space, ["a", "b", "c"], rng.uniform(0.5, 3.0, 3))
        r2 = ceiling_regime(space, ["b", "c", "d"], rng.uniform(0.5, 3.0, 3))
        s = AgentSystem((r1, r2))
        X = space.rv(rng.uniform(-5.0, 5.0, 4))
        res = capital_requirement(s, X)         # certifies sum rho_i == value
        b = capital_requirement_payoff_form(s, X).value
        assert res.value.value == pytest.approx(b, abs=1e-8)


def test_unshareable_profile_gives_infinity():
    space = three_space()
    # agent 1's acceptance demands X(a) >= 1 and X(a) <= 0 after hedging
    # with a security that cannot separate the two rows
    phi = point_eval(space, "a")
    acc = PolyhedralAcceptanceSet(
        (phi, Functional(space, -phi.density)), np.array([0.0, -1.0]))
    mkt = SecurityMarket((space.indicator(["b"]),), np.array([1.0]))
    r1 = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["a", "b"]),
        acceptance=acc, market=mkt)
    r2 = ceiling_regime(space, ["b", "c"], (1.0, 1.0))
    s = AgentSystem((r1, r2))
    res = capital_requirement(s, space.rv(np.array([1.0, 1.0, 1.0])))
    assert not res.value.is_finite
    assert res.allocation is None


def test_wrong_space_rejected(overlap_system):
    _, s = overlap_system
    other = ScenarioSpace.uniform(["x", "y", "z"])
    with pytest.raises(StructuralError):
        capital_requirement(s, other.rv(np.zeros(3)))


# ---------------------------------------------------------------------------
# allocations from payoffs
# ---------------------------------------------------------------------------

def test_pareto_from_payoff_overlap(overlap_system):
    space, s = overlap_system
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    Z = space.rv(np.array([3.0, 2.0, 3.0]))
    alloc = pareto_from_payoff(s, X, Z)
    # the acceptable parts are pinned uniquely here, so the whole
    # allocation is deterministic
    np.testing.assert_allclose(alloc.parts[0].values, [4.0, 4.0, 0.0],
                               atol=1e-9)
    np.testing.assert_allclose(alloc.parts[1].values, [0.0, 1.0, 6.0],
                               atol=1e-9)
    assert total_risk(s, alloc) == pytest.approx(8.0, abs=1e-8)


def test_pareto_on_disjoint_supports():
    # the supports are disjoint, so each scenario has one holder and X - Z
    # has one candidate decomposition
    space = three_space()
    s = AgentSystem((ceiling_regime(space, ["a"], [1.0]),
                     ceiling_regime(space, ["b", "c"], [2.0, 3.0])))
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    assert acceptable_decomposition(s, X.values) is None
    Z = space.rv(np.array([3.0, 3.0, 3.0]))
    alloc = pareto_from_payoff(s, X, Z)
    np.testing.assert_array_equal(alloc.parts[0].values, [4.0, 0.0, 0.0])
    np.testing.assert_array_equal(alloc.parts[1].values, [0.0, 5.0, 6.0])
    assert total_risk(s, alloc) == pytest.approx(9.0, abs=1e-8)


def test_pareto_rejects_mispriced_payoff(overlap_system):
    space, s = overlap_system
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    with pytest.raises(DomainError):
        pareto_from_payoff(s, X, space.rv(np.zeros(3)))


def test_pareto_rejects_nonoptimal_payoff(overlap_system):
    space, s = overlap_system
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    # price 8, matching Lambda, but X - Z leaves the aggregate acceptance set
    Z = space.rv(np.array([8.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        pareto_from_payoff(s, X, Z)


# ---------------------------------------------------------------------------
# the continuous security selection
# ---------------------------------------------------------------------------

def _nested_system():
    space = ScenarioSpace.uniform(["u", "d"])
    acc = PolyhedralAcceptanceSet((Functional(space, np.ones(2)),),
                                  np.array([0.0]))
    full = SupportMask.full(space)
    ones = space.rv(np.ones(2))
    updown = space.rv(np.array([1.0, -1.0]))
    r1 = RiskMeasurementRegime(
        support=full, acceptance=acc,
        market=SecurityMarket((ones,), np.array([1.0])))
    r2 = RiskMeasurementRegime(
        support=full, acceptance=acc,
        market=SecurityMarket((ones, updown), np.array([1.0, 0.2])))
    return space, AgentSystem((r1, r2))


def test_selection_example():
    space, s = _nested_system()
    parts = security_selection(s, space.rv(np.array([2.0, 0.0])))
    np.testing.assert_allclose(parts[0].values, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(parts[1].values, [1.0, -1.0], atol=1e-12)


def test_selection_linear_and_exact():
    space, s = _nested_system()
    rng = np.random.default_rng(3)
    for _ in range(20):
        z1, z2 = rng.normal(size=2), rng.normal(size=2)
        a = rng.normal()
        p_comb = security_selection(s, space.rv(a * z1 + z2))
        p1 = security_selection(s, space.rv(z1))
        p2 = security_selection(s, space.rv(z2))
        for comb, u, v in zip(p_comb, p1, p2):
            np.testing.assert_allclose(comb.values,
                                       a * u.values + v.values, atol=1e-9)
        total = sum(p.values for p in p_comb)
        np.testing.assert_allclose(total, a * z1 + z2, atol=1e-10)


def test_selection_outside_span():
    space = three_space()
    r = ceiling_regime(space, ["a", "b", "c"], (1.0, 1.0, 1.0))
    cashish = RiskMeasurementRegime(
        support=SupportMask.full(space),
        acceptance=PolyhedralAcceptanceSet(
            (Functional(space, np.ones(3)),), np.array([0.0])),
        market=SecurityMarket((space.rv(np.ones(3)),), np.array([1.0])))
    s = AgentSystem((cashish, cashish))
    with pytest.raises(DomainError):
        security_selection(s, space.rv(np.array([1.0, 0.0, 0.0])))
    del r


def test_selection_parts_stay_in_spans(overlap_system):
    space, s = overlap_system
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.normal(size=3)
        parts = security_selection(s, space.rv(z))
        for r, p in zip(s.regimes, parts):
            coeffs = r.market.coefficients_of(p.values)
            assert coeffs is not None


# ---------------------------------------------------------------------------
# the one-parameter family of optima
# ---------------------------------------------------------------------------

def test_shift_along_shared_direction(overlap_system):
    space, s = overlap_system
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    base = pareto_from_payoff(s, X, space.rv(np.array([3.0, 2.0, 3.0])))
    shifted = shift_allocation(s, base, 0, 1, amount=-1.0)
    np.testing.assert_allclose(shifted.parts[0].values + shifted.parts[1].values,
                               X.values, atol=1e-9)
    assert total_risk(s, shifted) == pytest.approx(8.0, abs=1e-8)
    # moved along the shared indicator
    delta = shifted.parts[0].values - base.parts[0].values
    assert abs(delta[0]) < 1e-12 and abs(delta[2]) < 1e-12


def test_shift_needs_shared_priced_direction():
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    r1 = ceiling_regime(space, ["a", "b"], (1.0, 1.0))
    r2 = ceiling_regime(space, ["c", "d"], (1.0, 1.0))
    s = AgentSystem((r1, r2))
    alloc = Allocation((space.rv(np.array([1.0, 1.0, 0.0, 0.0])),
                        space.rv(np.array([0.0, 0.0, 1.0, 1.0]))))
    with pytest.raises(DomainError):
        shift_allocation(s, alloc, 0, 1, amount=0.5)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_level_set_certificate(overlap_system):
    space, s = overlap_system
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    U = space.indicator(["b"])          # traded by both agents at price 1
    assert level_set_certificate(s, X, 8.0, U)
    assert level_set_certificate(s, X, 8.5, U)
    assert not level_set_certificate(s, X, 7.5, U)


# ---------------------------------------------------------------------------
# Lambda over many loss profiles
# ---------------------------------------------------------------------------

def lambda_batch_matches_capital_requirement(s, targets):
    """lambda_batch against capital_requirement row by row: the same
    finiteness, values within 1e-12 (1 + |v|)."""
    values = lambda_batch(s, targets)
    assert values.shape == (len(targets),)
    for k, t in enumerate(targets):
        one = capital_requirement(s, s.space.rv(t), certify=False).value
        assert math.isfinite(values[k]) == one.is_finite, k
        if one.is_finite:
            v = one.as_float()
            assert abs(values[k] - v) <= 1e-12 * (1.0 + abs(v)), k
        else:
            assert values[k] == math.inf, k
    return values


def test_lambda_batch_polyhedral_with_infeasible_rows(monkeypatch):
    # Lambda is finite exactly while X(a) stays at or below agent 1's
    # untradeable ceiling 1
    space = three_space()
    s = AgentSystem(hard_ceiling_pair(space))
    rng = np.random.default_rng(8)
    targets = np.array([1.0, 5.0, 6.0]) + rng.uniform(-1.0, 1.0, (40, 3))
    nsa_check(s)                        # cached: only sharing LPs remain
    solves = []
    solve = linprog.solve
    monkeypatch.setattr(linprog, "solve",
                        lambda p: solves.append(p) or solve(p))
    values = lambda_batch_matches_capital_requirement(s, targets)
    infeasible = targets[:, 0] > 1.0
    np.testing.assert_array_equal(np.isinf(values), infeasible)
    assert 0 < infeasible.sum() < len(targets)
    # every infeasible row is a solve of its own; the finite rows share a
    # few optimal bases
    solves_in_batch = len(solves) - len(targets)        # the loop above
    assert solves_in_batch < len(targets)
    assert solves_in_batch - infeasible.sum() <= 3


@pytest.mark.parametrize("exponent", [8, 10, 12, 14, 15, 16, 18, 20])
def test_lambda_past_a_large_ceiling_stays_infinite(exponent):
    # agent 1's untradeable ceiling on scenario a is `scale`: exceeding it
    # by a relative 1e-10 leaves no acceptable decomposition at any scale,
    # while X on the ceiling keeps a finite requirement
    space = three_space()
    scale = 10.0 ** exponent
    s = AgentSystem(hard_ceiling_pair(space, scale))
    X = scale * np.array([1.0, 5.0, 6.0])
    over = X * np.array([1.0 + 1e-10, 1.0, 1.0])
    assert capital_requirement(s, space.rv(X)).value.as_float() == 5 * scale
    assert capital_requirement(s, space.rv(over)).value.as_float() == math.inf
    np.testing.assert_array_equal(lambda_batch(s, np.array([X, over])),
                                  [5 * scale, math.inf])


def test_lambda_batch_law_invariant_falls_back_row_by_row():
    space = ScenarioSpace.uniform(["low", "high"])
    s = AgentSystem((law_invariant_regime(space, ENTROPIC, 1.0),
                     law_invariant_regime(space, ENTROPIC, 2.0)))
    targets = np.random.default_rng(3).normal(0.0, 2.0, (6, 2))
    values = lambda_batch_matches_capital_requirement(s, targets)
    assert np.all(np.isfinite(values))


def _law_invariant_pair(space, mkt, measures):
    return AgentSystem(tuple(
        law_invariant_regime(space, kind, param, mkt)
        for kind, param in measures))


def _four_space():
    return ScenarioSpace.uniform(["a", "b", "c", "d"])


def _avar_kernel_system():
    # the spread 1_{a,b} - 1_{c,d} at price 0 leaves a kernel direction,
    # searched by the Rockafellar-Uryasev LP for AVaR-only systems
    space = _four_space()
    mkt = SecurityMarket((space.rv(np.ones(4)),
                          space.rv(np.array([1.0, 1.0, -1.0, -1.0]))),
                         np.array([1.0, 0.0]))
    return _law_invariant_pair(space, mkt, [(AVAR, 0.3), (AVAR, 0.6)])


def _cash_only_system():
    space = _four_space()
    return _law_invariant_pair(space, cash_market(space, 0.9),
                               [(ENTROPIC, 0.5), (AVAR, 0.4)])


LAW_INVARIANT_SYSTEMS = {
    "entropic_pair": lambda: load_problem(
        FIXTURES / "entropic_pair.json").system(),
    "avar_entropic": lambda: load_problem(
        FIXTURES / "avar_entropic.json").system(),
    "avar_kernel_lp": _avar_kernel_system,
    "cash_only": _cash_only_system,
}


@pytest.mark.parametrize("name", sorted(LAW_INVARIANT_SYSTEMS))
def test_lambda_batch_law_invariant_rows_are_capital_requirement_bitwise(name):
    s = LAW_INVARIANT_SYSTEMS[name]()
    targets = np.random.default_rng(12).normal(0.0, 1.5, (5, s.space.size))
    values = lambda_batch(s, targets)
    for k, t in enumerate(targets):
        for certify in (True, False):
            fresh = LAW_INVARIANT_SYSTEMS[name]()
            one = capital_requirement(fresh, s.space.rv(t), certify=certify)
            assert values[k] == one.value.as_float(), (k, certify)


def _unbounded_system():
    # 1_a priced 0.5 > cap P(a) = 0.25 / 0.6: no density in the AVaR(0.4)
    # box prices the market
    space = _four_space()
    mkt = SecurityMarket((space.rv(np.ones(4)), space.indicator(["a"])),
                         np.array([1.0, 0.5]))
    return _law_invariant_pair(space, mkt, [(AVAR, 0.4), (ENTROPIC, 1.5)])


def _unattained_system():
    # agent 0 trades 1_a at price zero: the only pricing density vanishes
    # on a, and the entropic requirement falls toward its infimum along
    # 1_a without attaining it
    space = _four_space()
    return AgentSystem((
        law_invariant_regime(space, ENTROPIC, 1.0, SecurityMarket(
            (space.rv(np.ones(4)), space.indicator(["a"])),
            np.array([1.0, 0.0]))),
        law_invariant_regime(space, ENTROPIC, 2.0)))


@pytest.mark.parametrize("build,error,match", [
    (_unbounded_system, DomainError, "unbounded below"),
    (_unattained_system, NumericalFailure, "not attained"),
])
def test_lambda_batch_law_invariant_refusals_match_capital_requirement(
        build, error, match):
    x = np.array([0.3, -0.8, 1.1, 0.2])
    with pytest.raises(error, match=match) as batch:
        lambda_batch(build(), x[None, :])
    s = build()
    with pytest.raises(error) as single:
        capital_requirement(s, s.space.rv(x))
    assert str(batch.value) == str(single.value)


def test_lambda_batch_law_invariant_market_work_once_certificate_per_row(
        monkeypatch):
    # the scalable-arbitrage LP and the pricing-density LP depend on the
    # markets alone: at most two LPs per system, none per row, and with an
    # unbounded dual box the margin also serves the kernel search; a
    # system whose agents hold one market object takes that market's kept
    # answers, so a second such system solves none; every row still
    # unwinds its remainder into acceptable parts
    solves, unwound = [], []
    solve, unwind = linprog.solve, lawinv._unwind
    monkeypatch.setattr(linprog, "solve",
                        lambda p: solves.append(p) or solve(p))
    monkeypatch.setattr(lawinv, "_unwind",
                        lambda *a: unwound.append(a) or unwind(*a))
    for name in ("cash_only", "entropic_pair"):
        s = LAW_INVARIANT_SYSTEMS[name]()
        targets = np.random.default_rng(4).normal(0.0, 1.0,
                                                  (8, s.space.size))
        del solves[:], unwound[:]
        lambda_batch(s, targets)
        assert len(solves) <= 2, name
        assert len(unwound) == len(targets), name
        per_system = len(solves)
        lambda_batch(s, targets)
        capital_requirement(s, s.space.rv(targets[0]), certify=False)
        assert len(solves) == per_system, name
    # both cash_only agents hold one market object
    shared = LAW_INVARIANT_SYSTEMS["cash_only"]()
    targets = np.random.default_rng(4).normal(0.0, 1.0, (8, 4))
    lambda_batch(shared, targets)
    del solves[:]
    lambda_batch(AgentSystem(tuple(reversed(shared.regimes))), targets)
    assert solves == []


def test_law_invariant_certify_false_skips_agent_rho(monkeypatch):
    s = LAW_INVARIANT_SYSTEMS["avar_entropic"]()
    X = s.space.rv(np.linspace(-1.0, 2.0, s.space.size))
    certified = capital_requirement(s, X, certify=True)
    calls = []
    monkeypatch.setattr(lawinv, "rho", lambda *a: calls.append(a))
    res = capital_requirement(s, X, certify=False)
    assert calls == [] and res.agent_risks is None
    assert res.value.as_float() == certified.value.as_float()
    np.testing.assert_array_equal(res.allocation.total(),
                                  certified.allocation.total())
    np.testing.assert_array_equal(res.subgradient.density,
                                  certified.subgradient.density)


def test_used_law_invariant_systems_still_pickle():
    s = LAW_INVARIANT_SYSTEMS["entropic_pair"]()
    X = s.space.rv(np.linspace(-1.0, 2.0, s.space.size))
    value = capital_requirement(s, X).value.as_float()
    copy = pickle.loads(pickle.dumps(s))
    assert capital_requirement(copy, X).value.as_float() == value


def test_lambda_batch_refusals(overlap_system):
    space, s = overlap_system
    assert lambda_batch(s, np.zeros((0, 3))).shape == (0,)
    for bad in (np.zeros(3), np.zeros((2, 2)), np.full((1, 3), np.nan)):
        with pytest.raises(StructuralError):
            lambda_batch(s, bad)
    pd = load_problem(FIXTURES / "arbitrage_triple.json")
    with pytest.raises(DomainError, match="scalable arbitrage"):
        lambda_batch(pd.system(), np.zeros((1, pd.space.size)))


# ---------------------------------------------------------------------------
# layout of the sharing LP
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture, loss, shared", [
    ("overlap_ceilings.json", {"a": 4, "b": 5, "c": 6}, "b"),
    ("avar_ceiling.json", {"up": 3, "down": -1}, "up"),
])
def test_sharing_lp_layout(monkeypatch, fixture, loss, shared):
    pd = load_problem(FIXTURES / fixture)
    s = pd.system()
    X = pd.space.rv_from_dict(loss)
    nsa_check(s)                        # cached: only the sharing LP remains
    captured = []
    solve = linprog.solve

    def capture(problem):
        captured.append(problem)
        return solve(problem)

    monkeypatch.setattr(linprog, "solve", capture)
    capital_requirement(s, X, certify=False)
    assert len(captured) == 1
    lp = captured[0]

    m = s.space.size
    forms = [r.lp_rows() for r in s.regimes]
    Js = [W.shape[0] for W, _, _, _ in forms]
    J = sum(Js)
    # no scenario rows: the acceptance rows alone, every one <=
    assert lp.rows.shape[0] == J
    assert lp.senses == [linprog.LE] * J
    assert np.all(np.isposinf(lp.upper))

    # the holder of a scenario is the first agent whose support holds it;
    # M holds W_h[:, w] in holder h's rows, and the loss enters only the
    # right-hand side bounds - M X
    supports = [r.support.included for r in s.regimes]
    holder = [next(i for i, inc in enumerate(supports) if inc[w])
              for w in range(m)]
    agent_rows = [slice(a, a + J_i)
                  for a, J_i in zip(np.cumsum([0] + Js[:-1]), Js)]
    M = np.zeros((J, m))
    for w, h in enumerate(holder):
        M[agent_rows[h], w] = forms[h][0][:, w]
    np.testing.assert_array_equal(
        lp.rhs, np.concatenate([b for _, _, b, _ in forms]) - M @ X.values)

    # per agent: the coordinates of the scenarios it supports and does not
    # hold, its security coefficients, then its auxiliaries; only the
    # auxiliaries carry a finite bound
    col = 0
    securities = []                     # the security columns
    for i, (r, (W, A, bounds, aux_lower)) in enumerate(zip(s.regimes, forms)):
        free = [w for w in range(m) if supports[i][w] and holder[w] != i]
        nf, ki, na = len(free), r.market.dim, A.shape[1]
        end = col + nf + ki + na
        own = agent_rows[i]
        # a free coordinate X_i[w] has W_i[:, w] in its agent's rows and
        # the substitution entries -W_h[:, w] in its holder's rows
        for local, w in enumerate(free):
            expected = np.zeros(J)
            expected[own] = W[:, w]
            h = holder[w]
            expected[agent_rows[h]] = -forms[h][0][:, w]
            np.testing.assert_array_equal(lp.rows[:, col + local], expected)
        block = lp.rows[own]
        np.testing.assert_array_equal(block[:, col + nf:col + nf + ki],
                                      -(W @ r.market.basis_matrix()))
        np.testing.assert_array_equal(block[:, col + nf + ki:end], A)
        others = np.ones(J, dtype=bool)
        others[own] = False
        assert not np.any(lp.rows[others, col + nf:end])
        np.testing.assert_array_equal(lp.c[col + nf:col + nf + ki],
                                      r.market.prices)
        assert np.all(np.isneginf(lp.lower[col:col + nf + ki]))
        np.testing.assert_array_equal(lp.lower[col + nf + ki:end], aux_lower)
        if r.is_law_invariant and r.acceptance.kind == AVAR:
            # m tail rows and the budget row; tau free, each u >= 0
            assert Js[i] == m + 1 and na == m + 1
            np.testing.assert_array_equal(aux_lower,
                                          [-math.inf] + [0.0] * m)
        else:
            assert na == 0
        securities += range(col + nf, col + nf + ki)
        col = end
    assert lp.rows.shape[1] == col
    # the cost prices exactly the security columns
    assert np.flatnonzero(lp.c).tolist() == securities
    if not any(r.is_law_invariant for r in s.regimes):
        assert np.all(np.isneginf(lp.lower))

    # the shared scenario lies in both supports and the first agent holds
    # it, so it keeps one coordinate column, the second agent's
    w = pd.space.index(shared)
    assert [inc[w] for inc in supports] == [True, True] and holder[w] == 0


@pytest.mark.parametrize("query", [
    lambda s, X: capital_requirement_payoff_form(s, X),
    lambda s, X: level_set_certificate(s, X, 1.0, X.space.rv(np.ones(2))),
    lambda s, X: acceptable_decomposition(s, X.values),
], ids=["payoff_form", "level_set", "decomposition"])
def test_sharing_lps_refuse_law_invariant_systems(query):
    pd = load_problem(FIXTURES / "entropic_pair.json")
    s = pd.system()
    X = pd.space.rv(np.zeros(pd.space.size))
    with pytest.raises(DomainError, match="polyhedral"):
        query(s, X)


def test_basis_matrices_are_built_once_and_read_only():
    s = AgentSystem(overlap_pair())
    mkt = s.regimes[0].market
    B = mkt.basis_matrix()
    assert mkt.basis_matrix() is B
    stacked = s.stacked_basis()
    assert s.stacked_basis() is stacked
    assert np.array_equal(stacked[0], np.hstack(
        [r.market.basis_matrix() for r in s.regimes]))
    for a in (B, stacked[0], stacked[1]):
        with pytest.raises(ValueError, match="read-only"):
            a += 1.0


def _freshly_built_rho_lp(r, part):
    """rho's LP at `part` built afresh from the agent's LP form, as rho
    built it for every certificate before the regime kept its LP."""
    W, A, bounds, aux_lower = r.lp_rows()
    B = r.market.basis_matrix()
    rows = np.hstack([-(W @ B), A])
    return linprog.LpProblem(
        c=np.concatenate([r.market.prices, np.zeros(A.shape[1])]), rows=rows,
        senses=[linprog.LE] * rows.shape[0], rhs=bounds - W @ part,
        lower=np.concatenate([np.full(B.shape[1], -math.inf), aux_lower]),
        upper=np.full(rows.shape[1], math.inf))


@pytest.mark.parametrize("case", [
    *(f"window_chain_80_{seed}" for seed in range(1, 6)),
    "overlap_ceilings", "avar_ceiling"])
def test_certified_agent_risks_keep_the_bits_of_a_fresh_rho_lp(case):
    # a certified risk is c.x of its agent's block of the sharing LP,
    # checked against the LP its regime keeps; it has the bits of the
    # same check against rho's LP built afresh, at poly-lambda's size
    # (window chains, m = 80, n = 4) and on the fixtures
    if case.startswith("window_chain"):
        s, X = window_chain(80, n=4, seed=int(case.rsplit("_", 1)[1]))
    else:
        doc = load_problem(FIXTURES / f"{case}.json")
        s = doc.system()
        X = s.space.rv_from_dict({"a": 4, "b": 5, "c": 6}
                                 if case == "overlap_ceilings"
                                 else {"up": 3, "down": -1})
    res, (_, layout, sol) = market._capital_requirement_lp(s, X, True)
    certificates = layout.certificates(sol.primal, sol.duals)
    for r, part, risk, (x, duals) in zip(s.regimes, res.allocation.parts,
                                         res.agent_risks, certificates):
        want = linprog.certified_objective(
            _freshly_built_rho_lp(r, part.values), x, duals)
        assert want is not None
        assert np.float64(risk.as_float()).tobytes() == (
            np.float64(want).tobytes())
