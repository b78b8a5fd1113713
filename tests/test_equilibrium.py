"""Equilibrium construction and verification: supporting prices from the
sharing duals, the common numeraire, budget-exact allocations, and the full
verification report on both polyhedral and law-invariant systems."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare import equilibrium as eqm
from riskshare import linprog, market, regime
from riskshare.equilibrium import (
    Equilibrium,
    build_equilibrium,
    common_numeraire,
    subgradient,
    verify_equilibrium,
)
from riskshare.errors import (
    DomainError,
    NRViolation,
    RiskShareError,
    StructuralError,
)
from riskshare.market import AgentSystem, Allocation, capital_requirement
from riskshare.regime import (
    ENTROPIC,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    base_risk,
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
from test_linprog import window_chain
from test_sharing_substitution import _counted_solves, partial_system


@pytest.fixture
def overlap_system():
    space = three_space()
    return space, AgentSystem(overlap_pair(space))


@pytest.fixture
def entropic_system():
    space = ScenarioSpace(("w1", "w2", "w3", "w4"),
                          np.array([0.3, 0.2, 0.4, 0.1]))
    s = AgentSystem((
        law_invariant_regime(space, ENTROPIC, 1.0),
        law_invariant_regime(space, ENTROPIC, 2.0),
    ))
    endowments = (
        space.rv(np.array([1.0, -0.5, 2.0, 0.3])),
        space.rv(np.array([0.2, 1.5, -1.0, 2.0])),
    )
    return space, s, endowments


# ---------------------------------------------------------------------------
# subgradients
# ---------------------------------------------------------------------------

def test_subgradient_on_worked_instance(overlap_system):
    space, s = overlap_system
    phi = subgradient(s, space.rv(np.array([4.0, 5.0, 6.0])))
    # requirement is sum(X) - 7, so the gradient weights every scenario by 1
    assert np.allclose(phi.weights, np.ones(3), atol=1e-9)
    # and it prices every traded indicator at its market price
    for lab in ("a", "b", "c"):
        assert phi(space.indicator([lab])) == pytest.approx(1.0, abs=1e-9)


def test_subgradient_matches_finite_differences(overlap_system):
    space, s = overlap_system
    X = np.array([0.5, -1.0, 2.5])
    phi = subgradient(s, space.rv(X))
    h = 1e-5
    for w in range(3):
        up, dn = X.copy(), X.copy()
        up[w] += h
        dn[w] -= h
        fd = (capital_requirement(s, space.rv(up)).value.as_float()
              - capital_requirement(s, space.rv(dn)).value.as_float()) / (2 * h)
        assert phi.weights[w] == pytest.approx(fd, abs=1e-6)


def test_subgradient_finite_differences_entropic(entropic_system):
    space, s, endowments = entropic_system
    W = endowments[0].values + endowments[1].values
    phi = subgradient(s, space.rv(W))
    h = 1e-5
    for w in range(space.size):
        up, dn = W.copy(), W.copy()
        up[w] += h
        dn[w] -= h
        fd = (capital_requirement(s, space.rv(up)).value.as_float()
              - capital_requirement(s, space.rv(dn)).value.as_float()) / (2 * h)
        assert phi.weights[w] == pytest.approx(fd, abs=1e-5)


def test_subgradient_entropic_density_closed_form(entropic_system):
    space, s, endowments = entropic_system
    W = endowments[0].values + endowments[1].values
    alpha = 1.0 / (1.0 / 1.0 + 1.0 / 2.0)
    value = base_risk(ENTROPIC, alpha, space.probs, W)
    phi = subgradient(s, space.rv(W))
    assert np.allclose(phi.density, np.exp(alpha * (W - value)), atol=1e-10)


def test_subgradient_outside_domain_rejected():
    space = three_space()
    s = AgentSystem(hard_ceiling_pair(space))
    with pytest.raises(DomainError):
        subgradient(s, space.rv(np.array([4.0, 5.0, 6.0])))


def test_cash_shift_priced_consistently():
    # both agents trade cash at 1.6: the requirement shifts by 1.6 per unit
    # of cash added, and the supporting functional prices cash at 1.6
    space = ScenarioSpace.uniform(["w1", "w2", "w3"])
    s = AgentSystem((
        law_invariant_regime(space, ENTROPIC, 1.0,
                             market=cash_market(space, 1.6)),
        law_invariant_regime(space, ENTROPIC, 3.0,
                             market=cash_market(space, 1.6)),
    ))
    X = np.array([0.4, -0.2, 1.1])
    base = capital_requirement(s, space.rv(X)).value.as_float()
    shifted = capital_requirement(s, space.rv(X + 2.0)).value.as_float()
    assert shifted == pytest.approx(base + 2.0 * 1.6, abs=1e-9)
    phi = subgradient(s, space.rv(X))
    assert phi(space.rv(np.ones(3))) == pytest.approx(1.6, abs=1e-9)


# ---------------------------------------------------------------------------
# the common numeraire
# ---------------------------------------------------------------------------

def test_numeraire_is_shared_indicator(overlap_system):
    space, s = overlap_system
    z = common_numeraire(s)
    assert np.allclose(z.values, space.indicator(["b"]).values, atol=1e-12)


def test_numeraire_rescaled_to_unit_price():
    space = ScenarioSpace.uniform(["w1", "w2", "w3"])
    s = AgentSystem((
        law_invariant_regime(space, ENTROPIC, 1.0,
                             market=cash_market(space, 1.6)),
        law_invariant_regime(space, ENTROPIC, 2.0,
                             market=cash_market(space, 1.6)),
    ))
    z = common_numeraire(s)
    assert np.allclose(z.values, np.full(3, 1.0 / 1.6), atol=1e-12)


def test_numeraire_missing_common_span():
    space = three_space()
    r1 = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["a", "b"]),
        acceptance=PolyhedralAcceptanceSet(
            (point_eval(space, "a"), point_eval(space, "b")),
            np.array([1.0, 2.0])),
        market=SecurityMarket((space.indicator(["a"]),), np.array([1.0])))
    r2 = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["b", "c"]),
        acceptance=PolyhedralAcceptanceSet(
            (point_eval(space, "b"), point_eval(space, "c")),
            np.array([1.0, 3.0])),
        market=SecurityMarket((space.indicator(["c"]),), np.array([1.0])))
    with pytest.raises(NRViolation):
        common_numeraire(AgentSystem((r1, r2)))


def test_numeraire_priceless_common_span():
    space = three_space()
    r1 = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["a", "b"]),
        acceptance=PolyhedralAcceptanceSet(
            (point_eval(space, "a"), point_eval(space, "b")),
            np.array([1.0, 2.0])),
        market=SecurityMarket(
            (space.indicator(["a"]), space.indicator(["b"])),
            np.array([1.0, 0.0])))
    r2 = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["b", "c"]),
        acceptance=PolyhedralAcceptanceSet(
            (point_eval(space, "b"), point_eval(space, "c")),
            np.array([1.0, 3.0])),
        market=SecurityMarket(
            (space.indicator(["b"]), space.indicator(["c"])),
            np.array([0.0, 1.0])))
    with pytest.raises(NRViolation):
        common_numeraire(AgentSystem((r1, r2)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_equilibrium_on_worked_instance(overlap_system):
    space, s = overlap_system
    endowments = (
        space.rv(np.array([2.0, 3.0, 0.0])),
        space.rv(np.array([2.0, 2.0, 6.0])),
    )
    eq = build_equilibrium(s, endowments)
    assert eq.value == pytest.approx(8.0, abs=1e-9)
    assert sum(eq.transfers) == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(eq.allocation.total(),
                       np.array([4.0, 5.0, 6.0]), atol=1e-9)
    # each agent ends exactly on its budget line
    for part, w in zip(eq.allocation.parts, endowments):
        assert eq.price(part) == pytest.approx(eq.price(w), abs=1e-9)
    rep = verify_equilibrium(s, endowments, eq)
    assert rep.passed, rep.to_dict()


def test_zero_transfers_for_pareto_endowments(overlap_system):
    space, s = overlap_system
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    parts = capital_requirement(s, X).allocation.parts
    eq = build_equilibrium(s, parts)
    assert np.allclose(eq.transfers, 0.0, atol=1e-9)
    for built, original in zip(eq.allocation.parts, parts):
        assert np.allclose(built.values, original.values, atol=1e-9)


def test_entropic_equilibrium_end_to_end(entropic_system):
    space, s, endowments = entropic_system
    eq = build_equilibrium(s, endowments)
    assert sum(eq.transfers) == pytest.approx(0.0, abs=1e-12)
    rep = verify_equilibrium(s, endowments, eq)
    assert rep.passed, rep.to_dict()
    # the allocation actually attains the aggregate requirement
    risks = [rho(r, x).value.as_float()
             for r, x in zip(s.regimes, eq.allocation.parts)]
    assert sum(risks) == pytest.approx(eq.value, abs=1e-9)


def test_boundary_endowment_rejected():
    space = three_space()
    s = AgentSystem(hard_ceiling_pair(space))
    # total (1, 5, 6) sits on the requirement's domain boundary: scenario a
    # is exactly at agent 1's untradeable ceiling
    endowments = (
        space.rv(np.array([1.0, 2.0, 0.0])),
        space.rv(np.array([0.0, 3.0, 6.0])),
    )
    # the first infinite probe, in scenario order and up before down, is
    # named: scenario a (index 0) moved up by 1e-6 (1 + max |W|)
    with pytest.raises(DomainError, match=r"perturbing scenario 0 by \+7\.0e-06 "):
        build_equilibrium(s, endowments)
    # nudging scenario a inside makes the construction go through
    interior = (
        space.rv(np.array([0.5, 2.0, 0.0])),
        space.rv(np.array([0.0, 3.0, 6.0])),
    )
    eq = build_equilibrium(s, interior)
    assert verify_equilibrium(s, interior, eq).passed


def far_bound_system(far_bound):
    """Agent 1 owns {b, c} and trades only the indicator of b, so its
    ceiling 1 on c is hard; its bound on b is unrelated to that ceiling.
    With the endowments: a total (1, 2, 1) at that ceiling."""
    space = three_space()
    r1 = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["b", "c"]),
        acceptance=PolyhedralAcceptanceSet(
            (point_eval(space, "b"), point_eval(space, "c")),
            np.array([far_bound, 1.0])),
        market=SecurityMarket((space.indicator(["b"]),), np.array([1.0])),
    )
    s = AgentSystem((r1, ceiling_regime(space, ["a", "b"], (1.0, 3.0))))
    endowments = (
        space.rv(np.array([0.0, 1.0, 1.0])),
        space.rv(np.array([1.0, 1.0, 0.0])),
    )
    return s, endowments


@pytest.mark.parametrize("far_bound", [1.0, 1e4, 1e6, 1e9, 1e12])
def test_boundary_on_a_later_scenario_is_named(far_bound):
    # The probes of scenarios a and b are finite, so an optimal basis is
    # on hand when the probe past the ceiling comes up.
    s, endowments = far_bound_system(far_bound)
    with pytest.raises(DomainError, match=r"perturbing scenario 2 by \+3\.0e-06 "):
        build_equilibrium(s, endowments)


def hard_ceiling_system(seed):
    """2-3 ceiling agents on 3-6 scenarios with integral ceilings, each
    trading the indicators of some of its scenarios, so that a scenario
    none of its owners trades has a hard ceiling; and an integral total
    endowment, which often sits on such a ceiling."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(3, 7)), int(rng.integers(2, 4))
    space = ScenarioSpace.uniform([f"s{j}" for j in range(m)])
    owned = [rng.uniform(size=m) < 0.6 for _ in range(n)]
    for w in np.flatnonzero(~np.any(owned, axis=0)):
        owned[int(rng.integers(n))][w] = True
    regimes = []
    for inc in owned:
        if not inc.any():
            inc[int(rng.integers(m))] = True
        labels = [space.labels[w] for w in np.flatnonzero(inc)]
        traded = [lab for lab in labels if rng.uniform() < 0.6] or labels[:1]
        regimes.append(RiskMeasurementRegime(
            support=SupportMask(space, inc),
            acceptance=PolyhedralAcceptanceSet(
                tuple(point_eval(space, lab) for lab in labels),
                rng.integers(-2, 3, len(labels)).astype(float)),
            market=SecurityMarket(
                tuple(space.indicator([lab]) for lab in traded),
                np.ones(len(traded)))))
    return AgentSystem(tuple(regimes)), space.rv(
        rng.integers(-3, 4, m).astype(float))


def _screened_probes(monkeypatch, s, W):
    """_probe_interior at W: its probes, its one solve_batch answer, and
    its refusal (None where it passes); None where Lambda(W) is
    infinite."""
    res, sharing = eqm._sharing(s, W, certify=False)
    if not res.value.is_finite:
        return None
    probes, batches = [], []
    moves, solve_batch = market._coordinate_moves, linprog.solve_batch
    with monkeypatch.context() as mp:
        mp.setattr(market, "_coordinate_moves", lambda *args: probes.append(
            moves(*args)) or probes[0])
        mp.setattr(linprog, "solve_batch", lambda *args: batches.append(
            solve_batch(*args)) or batches[0])
        try:
            eqm._probe_interior(s, W, sharing)
            refused = None
        except DomainError as exc:
            refused = str(exc)
    (probes,), (batch,) = probes, batches
    return probes, batch, refused


def test_screened_probes_refuse_where_lambda_batch_is_infinite(monkeypatch):
    space = three_space()
    cases = [(AgentSystem(hard_ceiling_pair(space)),
              space.rv(np.array([1.0, 5.0, 6.0])))]
    for far_bound in (1.0, 1e4, 1e6, 1e9, 1e12):
        s, endowments = far_bound_system(far_bound)
        cases.append((s, space.rv(sum(w.values for w in endowments))))
    cases += [hard_ceiling_system(seed) for seed in range(200)]
    refusals = 0
    for s, W in cases:
        screened = _screened_probes(monkeypatch, s, W)
        if screened is None:
            continue
        probes, _, refused = screened
        infinite = np.flatnonzero(np.isinf(market.lambda_batch(s, probes)))
        if not infinite.size:
            assert refused is None
            continue
        # the first infinite probe, scenario by scenario, up before down
        refusals += 1
        k = int(infinite[0])
        step = probes[k, k // 2] - W.values[k // 2]
        assert f"perturbing scenario {k // 2} by {step:+.1e} " in refused
    assert refusals >= 20


def test_probes_the_endowments_basis_rejects_are_solved(monkeypatch):
    # a probe that leaves the optimal basis at W is finite, but only a
    # solve of its own finds that
    s, W = hard_ceiling_system(54)
    probes, batch, refused = _screened_probes(monkeypatch, s, W)
    assert refused is None
    assert batch.solves >= 1
    assert set(batch.status) == {"optimal"}
    want = market.lambda_batch(s, probes)
    assert np.abs(batch.objective_value - want).max() <= 1e-9 * (
        1.0 + np.abs(want).max())


def test_one_lp_builds_a_window_chain_equilibrium(monkeypatch):
    s, _ = window_chain(16, n=2, seed=3)
    rng = np.random.default_rng(4)
    endowments = tuple(s.space.rv(rng.uniform(-5.0, 5.0, 16))
                       for _ in range(2))
    solves = _counted_solves(monkeypatch)
    eq = build_equilibrium(s, endowments)
    assert len(solves) == 1
    del solves[:]
    # verification stays independent of the build: it solves its own rho
    # LP per agent, whose solutions certify its conjugates, and its own
    # Lambda LP
    assert verify_equilibrium(s, endowments, eq).passed
    assert len(solves) == 3
    del solves[:]
    phi = subgradient(s, s.space.rv(sum(w.values for w in endowments)))
    assert len(solves) == 1
    assert phi.weights.tobytes() == eq.price.weights.tobytes()


def test_structural_guards(overlap_system):
    space, s = overlap_system
    w = space.rv(np.zeros(3))
    with pytest.raises(StructuralError):
        build_equilibrium(s, (w,))
    other = ScenarioSpace.uniform(["x", "y", "z"])
    with pytest.raises(StructuralError):
        build_equilibrium(s, (w, other.rv(np.zeros(3))))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False, width=32),
                min_size=6, max_size=6))
def test_random_endowments_yield_verified_equilibria(vals):
    space = three_space()
    s = AgentSystem(overlap_pair(space))
    endowments = (
        space.rv(np.array(vals[:3], dtype=float)),
        space.rv(np.array(vals[3:], dtype=float)),
    )
    eq = build_equilibrium(s, endowments)
    rep = verify_equilibrium(s, endowments, eq)
    assert rep.passed, rep.to_dict()


# ---------------------------------------------------------------------------
# verification catches broken candidates
# ---------------------------------------------------------------------------

def test_perturbed_price_fails_consistency(overlap_system):
    space, s = overlap_system
    endowments = (
        space.rv(np.array([2.0, 3.0, 0.0])),
        space.rv(np.array([2.0, 2.0, 6.0])),
    )
    eq = build_equilibrium(s, endowments)
    bad = Equilibrium(
        allocation=eq.allocation,
        price=Functional(space, eq.price.density + 0.3),
        transfers=eq.transfers,
        numeraire=eq.numeraire,
        value=eq.value,
    )
    rep = verify_equilibrium(s, endowments, bad)
    names = {c.name: c.passed for c in rep.checks}
    assert not names["price_consistent_on_security_spans"]
    assert not rep.passed


def test_degraded_allocation_fails_optimality(entropic_system):
    space, s, endowments = entropic_system
    eq = build_equilibrium(s, endowments)
    # move a price-zero, non-constant payoff between the agents: budgets
    # stay exact but strict convexity makes both parts strictly worse
    w = eq.price.weights
    v = np.zeros(space.size)
    v[0], v[1] = 0.5 / w[0], -0.5 / w[1]
    assert float(w @ v) == pytest.approx(0.0, abs=1e-12)
    degraded = Equilibrium(
        allocation=Allocation((
            space.rv(eq.allocation.parts[0].values + v),
            space.rv(eq.allocation.parts[1].values - v),
        )),
        price=eq.price,
        transfers=eq.transfers,
        numeraire=eq.numeraire,
        value=eq.value,
    )
    rep = verify_equilibrium(s, endowments, degraded)
    names = {c.name: c.passed for c in rep.checks}
    assert names["budget_equalities"]
    assert not names["individual_optimality"]
    assert not names["pareto_optimal"]


# ---------------------------------------------------------------------------
# verification certifies each conjugate with its own rho LP
# ---------------------------------------------------------------------------

def kinked_pair():
    """Two ceiling agents on three equally likely scenarios, each trading
    cash at 1 and 1_a at 1/3: rho_i(X) = (X_a - c_ia) / 3
    + 2/3 max(X_b - c_ib, X_c - c_ic), polyhedral with a kink where the
    two maxima meet, which no window chain has (its agents trade every
    scenario they hold, so their requirements are linear)."""
    space = ScenarioSpace.uniform(["a", "b", "c"])
    market_ = SecurityMarket((space.rv(np.ones(3)), space.indicator(["a"])),
                             np.array([1.0, 1.0 / 3.0]))

    def agent(ceilings):
        return RiskMeasurementRegime(
            SupportMask.full(space),
            PolyhedralAcceptanceSet(
                tuple(point_eval(space, lab) for lab in "abc"),
                np.array(ceilings)),
            market_)
    return space, AgentSystem((agent([1.0, 2.0, 0.0]),
                               agent([0.0, -1.0, 1.0])))


def _verified(monkeypatch, s, endowments, eq, certified=True):
    """verify_equilibrium's report, each agent's conjugate in agent order,
    and the LPs it solved.  With certified=False no conjugate takes a
    certificate, so each polyhedral one solves its support LP: the
    reference the certificates must reproduce."""
    conjugates = []

    def conjugate(r, phi, certificate=None):
        v = regime.conjugate(r, phi, certificate if certified else None)
        conjugates.append(v.as_float() if v.is_finite else math.inf)
        return v
    with monkeypatch.context() as mp:
        mp.setattr(eqm, "conjugate", conjugate)
        solves = _counted_solves(mp)
        rep = verify_equilibrium(s, endowments, eq)
    return rep, conjugates, len(solves)


def test_degraded_polyhedral_allocation_fails_optimality(monkeypatch):
    space, s = kinked_pair()
    # the total sits on the kink of Lambda, so every optimal split puts
    # both agents on theirs
    endowments = (space.rv(np.array([2.0, 3.0, 1.0])),
                  space.rv(np.array([-1.0, 0.0, 2.0])))
    eq = build_equilibrium(s, endowments)
    assert verify_equilibrium(s, endowments, eq).passed
    # the price, one of many at the kink, gives scenario c weight zero: a
    # loss of 0.5 on c moved from the first agent to the second keeps
    # every budget and leaves the first on its kink, but lifts the
    # second's max by 0.5
    assert eq.price.weights[2] == 0.0
    c = 0.5 * space.indicator(["c"]).values
    a, b = eq.allocation.parts
    degraded = Equilibrium(
        allocation=Allocation((space.rv(a.values - c),
                               space.rv(b.values + c))),
        price=eq.price, transfers=eq.transfers, numeraire=eq.numeraire,
        value=eq.value)
    rep, _, _ = _verified(monkeypatch, s, endowments, degraded)
    names = {c.name: c.passed for c in rep.checks}
    assert names["budget_equalities"]
    assert not names["individual_optimality"]
    assert not names["pareto_optimal"]
    ref, _, _ = _verified(monkeypatch, s, endowments, degraded, False)
    assert [c.passed for c in rep.checks] == [c.passed for c in ref.checks]


def test_a_price_that_does_not_support_solves_the_support_lps(monkeypatch):
    space, s = kinked_pair()
    # off the kink the supporting price is unique: (1/3, 2/3, 0)
    endowments = (space.rv(np.array([2.0, 4.0, 0.0])),
                  space.rv(np.array([-1.0, 0.0, 2.0])))
    eq = build_equilibrium(s, endowments)
    assert eq.price.weights == pytest.approx([1 / 3, 2 / 3, 0.0], abs=1e-12)
    # (1/3, 1/2, 1/6) prices cash and 1_a as the market does, but
    # supports neither agent: their rho LPs' duals certify no conjugate
    moved = Equilibrium(
        allocation=eq.allocation, price=Functional(space, [1.0, 1.5, 0.5]),
        transfers=eq.transfers, numeraire=eq.numeraire, value=eq.value)
    rep, conjugates, solves = _verified(monkeypatch, s, endowments, moved)
    ref, want, ref_solves = _verified(monkeypatch, s, endowments, moved,
                                      False)
    assert solves == ref_solves == 5
    assert conjugates == want
    assert rep.to_dict() == ref.to_dict()
    assert not rep.passed


def _equilibrium_draws(family, seed):
    """(system, endowments) of a drawn family: a window chain, or a
    partial_system of polyhedral, AVaR and expectation agents."""
    rng = np.random.default_rng(seed)
    if family == "window_chain":
        s, _ = window_chain(int(rng.integers(6, 17)),
                            n=int(rng.integers(2, 4)), seed=seed)
    else:
        kinds = rng.choice(["polyhedral", "polyhedral", "avar",
                            "expectation"], size=int(rng.integers(2, 4)))
        s = partial_system(seed, int(rng.integers(2, 7)), list(kinds))
    return s, tuple(s.space.rv(rng.normal(0.0, 2.0, s.space.size)
                               * r.support.included) for r in s.regimes)


@pytest.mark.parametrize("family", ["window_chain", "partial_system"])
def test_certified_conjugates_give_the_support_lps_verdict(monkeypatch,
                                                           family):
    # most partial_system draws share nothing (an unbounded sharing LP, no
    # common numeraire): the seeds run on until 30 equilibria are checked
    checked, certified = 0, 0
    for seed in range(1000):
        if checked == 30:
            break
        s, endowments = _equilibrium_draws(family, seed)
        try:
            eq = build_equilibrium(s, endowments)
        except RiskShareError:
            continue
        rep, conjugates, solves = _verified(monkeypatch, s, endowments, eq)
        ref, want, ref_solves = _verified(monkeypatch, s, endowments, eq,
                                          False)
        assert [c.passed for c in rep.checks] == [
            c.passed for c in ref.checks], seed
        risks = [rho(r, x).value.as_float()
                 for r, x in zip(s.regimes, eq.allocation.parts)]
        for got, ref_value, risk in zip(conjugates, want, risks):
            # the gaps are rho_i - (budget_i - conjugate_i)
            assert abs(got - ref_value) <= 1e-12 * (1.0 + abs(risk)), seed
        checked += 1
        certified += ref_solves - solves
    assert checked == 30
    # most conjugates take their certificate
    assert certified >= checked, certified
