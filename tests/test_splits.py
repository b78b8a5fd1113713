"""Group-size optimization: cost builders, the sweep with and without the
Fenchel bound stop, and the bound-functional / problem validation reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.errors import DomainError, StructuralError
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    base_risk,
    rho,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask
from riskshare.splits import (
    CostFunction,
    SplitProblem,
    check_bound_functional,
    split_optimize,
    validate_split_problem,
)

from helpers import (
    cash_market,
    ceiling_regime,
    law_invariant_regime,
    point_eval,
    three_space,
)


def two_point_space():
    return ScenarioSpace.uniform(["low", "high"])


def expectation_functional(space):
    return Functional(space, np.ones(space.size))


@pytest.fixture
def entropic_problem():
    space = two_point_space()
    regime = law_invariant_regime(space, ENTROPIC, 1.0)
    return space, SplitProblem.identical(
        regime, CostFunction.linear(0.1), n_max=50)


# ---------------------------------------------------------------------------
# cost builders
# ---------------------------------------------------------------------------

def test_cost_builders():
    lin = CostFunction.linear(0.25)
    assert lin(4) == pytest.approx(1.0)
    assert lin.diverges

    stp = CostFunction.step(1.0, 3)
    assert [stp(n) for n in (1, 3, 4, 6, 7)] == [1.0, 1.0, 2.0, 2.0, 3.0]
    assert stp.diverges

    tab = CostFunction.tabulated([0.0, 0.5, 2.0])
    assert tab(2) == pytest.approx(0.5)
    assert not tab.diverges
    with pytest.raises(StructuralError):
        tab(4)


def test_free_cost_does_not_diverge():
    assert not CostFunction.linear(0.0).diverges
    assert not CostFunction.step(0.0, 2).diverges


def test_cost_must_not_decrease():
    space = two_point_space()
    regime = law_invariant_regime(space, ENTROPIC, 1.0)
    with pytest.raises(StructuralError):
        SplitProblem.identical(
            regime, CostFunction.tabulated([0.3, 0.2]), n_max=2)
    with pytest.raises(StructuralError):
        SplitProblem.identical(
            regime, CostFunction.tabulated([0.3]), n_max=5)  # table too short


def test_regime_cycle_repeats():
    space = two_point_space()
    r1 = law_invariant_regime(space, ENTROPIC, 1.0)
    r2 = law_invariant_regime(space, ENTROPIC, 2.0)
    p = SplitProblem((r1, r2), CostFunction.linear(0.1), n_max=5)
    assert p.regimes(5) == (r1, r2, r1, r2, r1)
    assert p.distinct_regimes() == (r1, r2)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def test_entropic_sweep_matches_closed_form(entropic_problem):
    space, prob = entropic_problem
    X = space.rv(np.array([0.0, 2.0]))
    res = split_optimize(prob, X, phi0=expectation_functional(space))
    # n identical entropic agents pool into one entropic requirement at
    # aversion alpha/n, so each objective has a closed form
    for pt in res.objectives:
        expect = base_risk(ENTROPIC, 1.0 / pt.n, space.probs, X.values)
        assert pt.requirement == pytest.approx(expect, abs=1e-9)
        assert pt.objective == pytest.approx(expect + 0.1 * pt.n, abs=1e-9)
    assert res.n_star == 2
    assert res.value == pytest.approx(
        base_risk(ENTROPIC, 0.5, space.probs, X.values) + 0.2, abs=1e-9)
    assert not res.cap_limited
    assert res.lower_bound == pytest.approx(1.0, abs=1e-9)   # E[X]


def test_bound_stop_skips_the_tail(entropic_problem):
    space, prob = entropic_problem
    X = space.rv(np.array([0.0, 2.0]))
    res = split_optimize(prob, X, phi0=expectation_functional(space))
    # lower bound E[X] = 1 and incumbent ~1.44: cost 0.1 n exceeds the gap
    # from n = 5 on, so the sweep never evaluates the other 45 sizes
    assert res.objectives[-1].n == 4
    assert len(res.objectives) == 4


def test_sweep_without_functional_is_cap_limited(entropic_problem):
    space, _ = entropic_problem
    regime = law_invariant_regime(space, ENTROPIC, 1.0)
    prob = SplitProblem.identical(regime, CostFunction.linear(0.1), n_max=6)
    X = space.rv(np.array([0.0, 2.0]))
    res = split_optimize(prob, X)
    assert res.n_star == 2
    assert res.cap_limited
    assert res.lower_bound is None
    assert [pt.n for pt in res.objectives] == [1, 2, 3, 4, 5, 6]


def test_sweep_work_counts_on_identical_entropic_agents(monkeypatch):
    # per group size n >= 2 the sweep builds one agent system; every one
    # of them holds the one market object, so the whole sweep solves at
    # most two LPs (the zero-sum price LP of the scalable-arbitrage check
    # and the pricing density), which the market keeps; rho runs for
    # n = 1 and for the certified optimum only, whose capital_requirement
    # reuses the system the sweep built
    from riskshare import lawinv, linprog, market, splits
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    regime = law_invariant_regime(space, ENTROPIC, 1.5)
    prob = SplitProblem.identical(regime, CostFunction.linear(0.1), n_max=8)
    X = space.rv(np.array([-1.0, 0.5, 2.0, 3.5]))

    built, solves, rho_calls = [], [], []

    class CountedSystem(market.AgentSystem):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    solve = linprog.solve

    def counted_rho(r, Y, certificate=None):
        rho_calls.append(len(built))
        return rho(r, Y, certificate)

    monkeypatch.setattr(market, "AgentSystem", CountedSystem)
    monkeypatch.setattr(linprog, "solve",
                        lambda p: solves.append(p) or solve(p))
    for module in (splits, lawinv, market):
        monkeypatch.setattr(module, "rho", counted_rho)
    res = split_optimize(prob, X)
    assert res.n_star == 4
    assert len(built) == prob.n_max - 1
    assert len(solves) <= 2
    # one rho before the first system, then one per agent of the optimum
    assert rho_calls == [0] + [len(built)] * res.n_star


def test_sweep_decides_the_arbitrage_verdict_once(monkeypatch):
    # every system of the sweep holds the one market object, whose
    # scalable-arbitrage verdict the market keeps: at most one null space
    # for the whole sweep, and no rank, which only nsa_check's report of
    # dim(V) computes
    from riskshare import linprog
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    regime = law_invariant_regime(space, ENTROPIC, 1.5)
    prob = SplitProblem.identical(regime, CostFunction.linear(0.1), n_max=8)
    X = space.rv(np.array([-1.0, 0.5, 2.0, 3.5]))
    null_spaces, ranks = [], []
    null_space, matrix_rank = linprog.null_space, np.linalg.matrix_rank
    monkeypatch.setattr(linprog, "null_space",
                        lambda A: null_spaces.append(A) or null_space(A))
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda *a, **k: ranks.append(a) or matrix_rank(*a, **k))
    assert split_optimize(prob, X).n_star == 4
    assert len(null_spaces) <= 1
    assert ranks == []


def test_law_invariant_value_reuses_the_split_certificate_risks(monkeypatch):
    # identical entropic agents on cash: one convolution for all rows in
    # the search, then per row the convolution value, the part risks that
    # certify the split, and the part risks after the constant shifts;
    # the shifts are the certificate's risks, not a fourth evaluation
    from riskshare import lawinv, market
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    regime = law_invariant_regime(space, ENTROPIC, 1.5)
    rows = np.random.default_rng(3).normal(0.0, 1.0, (5, 4))
    calls = []
    monkeypatch.setattr(lawinv, "base_risk",
                        lambda *a: calls.append(a) or base_risk(*a))
    for n in (2, 3):
        s = market.AgentSystem((regime,) * n)
        lawinv._system_problem(s)
        del calls[:]
        lawinv.law_invariant_value(s, rows)
        assert len(calls) == 1 + 3 * len(rows)


def test_non_diverging_cost_cannot_bound():
    space = two_point_space()
    regime = law_invariant_regime(space, ENTROPIC, 1.0)
    prob = SplitProblem.identical(
        regime, CostFunction.tabulated([0.1 * n for n in range(1, 7)]),
        n_max=6)
    res = split_optimize(prob, space.rv(np.array([0.0, 2.0])),
                         phi0=expectation_functional(space))
    assert res.cap_limited
    assert res.lower_bound is None


def test_requirement_monotone_and_optimum_dominates(entropic_problem):
    space, prob = entropic_problem
    X = space.rv(np.array([-0.5, 1.7]))
    res = split_optimize(prob, X, phi0=expectation_functional(space))
    reqs = [pt.requirement for pt in res.objectives]
    assert all(a >= b - 1e-8 for a, b in zip(reqs, reqs[1:]))
    assert all(res.value <= pt.objective + 1e-8 for pt in res.objectives)
    assert sum(res.agent_risks) + res.cost == pytest.approx(res.value,
                                                            abs=1e-8)


def test_allocation_is_exact_at_the_optimum(entropic_problem):
    space, prob = entropic_problem
    X = space.rv(np.array([0.0, 2.0]))
    res = split_optimize(prob, X, phi0=expectation_functional(space))
    assert len(res.allocation.parts) == res.n_star
    assert np.allclose(res.allocation.total(), X.values, atol=1e-9)
    regime = prob.regime(0)
    attained = sum(rho(regime, part).value.as_float()
                   for part in res.allocation.parts)
    assert attained == pytest.approx(res.requirement, abs=1e-8)


def test_flat_requirement_ties_to_one_agent():
    # zero-ceiling agents: every split of X carries the same total
    # requirement sum(X), so with any non-decreasing cost the smallest
    # group wins the tie
    space = three_space()
    regime = ceiling_regime(space, ["a", "b", "c"], (0.0, 0.0, 0.0))
    prob = SplitProblem.identical(
        regime, CostFunction.tabulated([0.0, 0.0, 0.0]), n_max=3)
    res = split_optimize(prob, space.rv(np.array([0.4, -0.1, 0.7])))
    assert res.n_star == 1
    assert res.cap_limited
    reqs = [pt.requirement for pt in res.objectives]
    assert np.allclose(reqs, reqs[0], atol=1e-9)


def test_acceptable_profile_needs_no_split():
    space = two_point_space()
    regime = law_invariant_regime(space, ENTROPIC, 1.0)
    prob = SplitProblem.identical(
        regime, CostFunction.tabulated([0.0, 10.0, 20.0]), n_max=3)
    W = space.rv(np.array([-1.0, -1.0]))
    res = split_optimize(prob, W)
    assert res.n_star == 1
    assert res.value <= 0.0


def test_unsupported_profile_raises():
    space = three_space()
    regime = ceiling_regime(space, ["a", "b"], (1.0, 2.0))
    prob = SplitProblem.identical(regime, CostFunction.linear(1.0), n_max=1)
    with pytest.raises(DomainError):
        split_optimize(prob, space.rv(np.array([0.0, 1.0, 5.0])))


def test_space_mismatch_rejected(entropic_problem):
    _, prob = entropic_problem
    other = three_space()
    with pytest.raises(StructuralError):
        split_optimize(prob, other.rv(np.zeros(3)))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0, allow_nan=False, width=32),
                min_size=2, max_size=2))
def test_sweep_invariants_hold_on_random_profiles(vals):
    space = two_point_space()
    regime = law_invariant_regime(space, ENTROPIC, 2.0)
    prob = SplitProblem.identical(regime, CostFunction.linear(0.05), n_max=4)
    res = split_optimize(prob, space.rv(np.array(vals, dtype=float)),
                         phi0=expectation_functional(space))
    reqs = [pt.requirement for pt in res.objectives]
    assert all(a >= b - 1e-8 for a, b in zip(reqs, reqs[1:]))
    assert all(res.value <= pt.objective + 1e-8 for pt in res.objectives)
    if res.lower_bound is not None:
        assert all(pt.requirement >= res.lower_bound - 1e-6
                   for pt in res.objectives)


# ---------------------------------------------------------------------------
# the bound functional report
# ---------------------------------------------------------------------------

def test_bound_functional_clean_on_entropic(entropic_problem):
    space, prob = entropic_problem
    rep = check_bound_functional(prob, expectation_functional(space))
    assert rep.passed, rep.to_dict()


def test_bound_functional_mispriced(entropic_problem):
    space, prob = entropic_problem
    rep = check_bound_functional(prob, Functional(space, 1.3 * np.ones(2)))
    names = {c.name: c.passed for c in rep.checks}
    assert not names["prices_securities_consistently"]


def test_bound_functional_polyhedral_support_values():
    space = three_space()
    exp = expectation_functional(space)
    # acceptance {E[Y] <= 0}: the expectation functional attains 0 on it
    mean_regime = RiskMeasurementRegime(
        support=SupportMask.full(space),
        acceptance=PolyhedralAcceptanceSet((exp,), np.array([0.0])),
        market=cash_market(space),
    )
    prob = SplitProblem.identical(mean_regime, CostFunction.linear(0.1),
                                  n_max=4)
    rep = check_bound_functional(prob, exp)
    assert rep.passed, rep.to_dict()

    # positive ceilings leak value: sup E[Y] over {Y <= K} is E[K] > 0,
    # which recurs for every copy, so the terms cannot be summable
    leaky = ceiling_regime(space, ["a", "b", "c"], (1.0, 2.0, 3.0))
    prob2 = SplitProblem.identical(leaky, CostFunction.linear(0.1), n_max=4)
    rep2 = check_bound_functional(prob2, exp)
    names = {c.name: c.passed for c in rep2.checks}
    assert names["support_values_finite"]
    assert not names["support_values_summable"]
    assert not names["acceptance_sets_nonpositive_under_functional"]


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_validate_split_problem_normalized(entropic_problem):
    _, prob = entropic_problem
    rep = validate_split_problem(prob)
    assert rep.passed, rep.to_dict()


def _unbounded_avar_regime():
    # pricing 1_a at 0.05 needs density 1.9 on b, outside AVaR(0.2)'s box,
    # so rho is unbounded below
    space = two_point_space()
    market = SecurityMarket((space.rv(np.ones(2)), space.rv([1.0, 0.0])),
                            np.array([1.0, 0.05]))
    return law_invariant_regime(space, AVAR, 0.2, market)


@pytest.mark.parametrize("regime", [
    lambda: ceiling_regime(three_space(), ["a", "b", "c"], (1.0, 2.0, 3.0)),
    _unbounded_avar_regime,
], ids=["positive", "unbounded"])
def test_validate_split_problem_flags_unnormalized(regime):
    prob = SplitProblem.identical(regime(), CostFunction.linear(0.1), n_max=3)
    rep = validate_split_problem(prob)
    names = {c.name: c.passed for c in rep.checks}
    assert not names["requirements_normalized"]
