"""Equilibrium construction and verification: supporting prices from the
sharing duals, the common numeraire, budget-exact allocations, and the full
verification report on both polyhedral and law-invariant systems."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare import equilibrium as eqm
from riskshare import linprog, market
from riskshare.equilibrium import (
    Equilibrium,
    build_equilibrium,
    common_numeraire,
    subgradient,
    verify_equilibrium,
)
from riskshare.errors import DomainError, NRViolation, StructuralError
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
from test_sharing_substitution import _counted_solves


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
    # verification stays independent: rho and conjugate per agent, Lambda
    assert verify_equilibrium(s, endowments, eq).passed
    assert len(solves) == 5
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
