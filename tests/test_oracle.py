"""Brute-force baselines: grid brackets around the solver's requirement,
Pareto domination sweeps, and finite-difference subgradient checks."""

import math

import numpy as np
import pytest

from riskshare.errors import DomainError, GridRefusal, StructuralError
from riskshare.market import AgentSystem, Allocation, capital_requirement
from riskshare.oracle import (
    GridSpec,
    brute_lambda,
    fd_subgradient_check,
    verify_pareto,
)
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    EXPECTATION,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    base_risk,
    rho,
    rho_batch,
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


def two_space():
    return ScenarioSpace.uniform(["low", "high"])


@pytest.fixture
def entropic_pair():
    space = two_space()
    s = AgentSystem((
        law_invariant_regime(space, ENTROPIC, 1.0),
        law_invariant_regime(space, ENTROPIC, 2.0),
    ))
    return space, s


# ---------------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------------

def test_grid_counts_and_axes():
    g = GridSpec(np.array([0.0, -1.0]), np.array([1.0, 1.0]), 0.5)
    assert g.counts == (3, 5)
    assert np.allclose(g.axis(0), [0.0, 0.5, 1.0])
    assert np.allclose(g.axis(1), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_grid_cap_refusal_is_deterministic():
    lo, hi = np.zeros(4), np.full(4, 10.0)
    for _ in range(2):
        with pytest.raises(GridRefusal):
            GridSpec(lo, hi, 0.001)


def test_grid_bad_inputs():
    with pytest.raises(StructuralError):
        GridSpec(np.array([0.0]), np.array([-1.0]), 0.1)
    with pytest.raises(StructuralError):
        GridSpec(np.array([0.0]), np.array([1.0]), 0.0)
    with pytest.raises(StructuralError):
        GridSpec(np.array([0.0]), np.array([np.inf]), 0.1)


# ---------------------------------------------------------------------------
# batch requirement evaluation
# ---------------------------------------------------------------------------

def test_batch_matches_per_point_requirement():
    space = ScenarioSpace(("w1", "w2", "w3"), np.array([0.5, 0.3, 0.2]))
    rng = np.random.default_rng(7)
    rows = rng.uniform(-2.0, 2.0, size=(12, 3))
    for kind, param in ((ENTROPIC, 1.3), (AVAR, 0.4), (EXPECTATION, 0.0)):
        r = law_invariant_regime(space, kind, param)
        fast = rho_batch(r, rows)
        for k in range(rows.shape[0]):
            direct = rho(r, space.rv(rows[k])).value.as_float()
            assert fast[k] == pytest.approx(direct, abs=1e-9)


def window_chain_regimes(rng, m, n):
    """Ceiling agents as in the benchmark's window chains: agent i owns
    scenario 0 and a window overlapping the next agent's by two, and trades
    the indicator of every scenario it owns at price 1."""
    space = ScenarioSpace.uniform([f"s{i}" for i in range(m)])
    width = -(-(m - 1) // n)
    regimes = []
    for i in range(n):
        lo = 1 + i * width
        owned = [0] + list(range(lo, min(m - 1, lo + width + 1) + 1))
        regimes.append(ceiling_regime(space, [space.labels[w] for w in owned],
                                      rng.uniform(-2.0, 2.0, len(owned))))
    return space, regimes


def full_support_regime(rng, space):
    """E_Q[X] <= b for Q = P and two random densities, on a cash market."""
    dens = [np.ones(space.size)] + [rng.dirichlet(np.ones(space.size))
                                    / space.probs for _ in range(2)]
    acc = PolyhedralAcceptanceSet(tuple(Functional(space, d) for d in dens),
                                  rng.uniform(-1.0, 1.0, 3))
    return RiskMeasurementRegime(SupportMask.full(space), acc,
                                 cash_market(space))


def partly_infeasible_regime(space):
    """Scenario a is capped at 1 and cannot be securitized."""
    acc = PolyhedralAcceptanceSet(
        (point_eval(space, "a"), point_eval(space, "b")),
        np.array([1.0, 2.0]))
    return RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["a", "b"]),
        acceptance=acc,
        market=SecurityMarket((space.indicator(["b"]),), np.array([1.0])))


def polyhedral_batches():
    rng = np.random.default_rng(17)
    space, chain = window_chain_regimes(rng, 9, 3)
    for i, r in enumerate(chain):
        rows = rng.uniform(-5.0, 5.0, size=(25, space.size))
        rows[:, ~r.support.included] = 0.0
        yield pytest.param(r, rows, id=f"window_chain{i}")
    space = ScenarioSpace.uniform(["w1", "w2", "w3", "w4"])
    for i in range(3):
        yield pytest.param(full_support_regime(rng, space),
                           rng.normal(0.0, 1.0, size=(60, space.size)),
                           id=f"full_support{i}")
    space = three_space()
    rows = rng.uniform(-1.0, 3.0, size=(30, 3))
    rows[:, 2] = 0.0
    yield pytest.param(partly_infeasible_regime(space), rows,
                       id="partly_infeasible")


@pytest.mark.parametrize("r,rows", list(polyhedral_batches()))
def test_batch_matches_per_point_polyhedral_requirement(r, rows):
    fast = rho_batch(r, rows)
    for k in range(rows.shape[0]):
        direct = rho(r, r.space.rv(rows[k])).value.as_float()
        if math.isinf(direct):
            assert fast[k] == direct
        else:
            assert fast[k] == pytest.approx(direct, abs=1e-9)


def test_batch_screens_the_infeasible_part():
    space = three_space()
    rows = np.array([[0.5, 1.0, 0.0], [2.0, 1.0, 0.0], [0.0, 3.0, 0.0],
                     [1.5, -1.0, 0.0]])
    fast = rho_batch(partly_infeasible_regime(space), rows)
    assert np.array_equal(fast, [-1.0, math.inf, 1.0, math.inf])


def test_batch_law_invariant_kernel_market_is_rho_row_by_row():
    space = ScenarioSpace(("w1", "w2", "w3"), np.array([0.5, 0.3, 0.2]))
    market = SecurityMarket((space.rv(np.ones(3)),
                             space.indicator(["w1"])), np.array([1.0, 0.4]))
    rows = np.random.default_rng(4).uniform(-2.0, 2.0, size=(6, 3))
    for kind, param in ((ENTROPIC, 1.3), (AVAR, 0.4)):
        r = law_invariant_regime(space, kind, param, market)
        fast = rho_batch(r, rows)
        for k in range(rows.shape[0]):
            assert fast[k] == rho(r, space.rv(rows[k])).value.as_float()


def test_batch_refuses_malformed_rows():
    space = three_space()
    r = overlap_pair(space)[0]
    for bad in (np.zeros(3), np.zeros((2, 2)), np.zeros((1, 2, 3)),
                np.array([[np.nan, 0.0, 0.0]]),
                np.array([[np.inf, 0.0, 0.0]])):
        with pytest.raises(StructuralError):
            rho_batch(r, bad)
    with pytest.raises(DomainError):        # c lies outside agent 1's support
        rho_batch(r, np.array([[0.0, 0.0, 1.0]]))


def test_batch_refuses_unbounded_requirements():
    space = three_space()
    acc = PolyhedralAcceptanceSet((point_eval(space, "a"),), np.array([1.0]))
    r = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["a"]), acceptance=acc,
        market=SecurityMarket((space.indicator(["a"]),), np.array([-1.0])))
    with pytest.raises(DomainError, match="unbounded below"):
        rho_batch(r, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# brute-force requirement
# ---------------------------------------------------------------------------

def test_brute_bracket_on_worked_instance():
    space = three_space()
    s = AgentSystem(overlap_pair(space))
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    g = GridSpec.around(X, 5.0, 0.05)
    res = brute_lambda(s, X, g)
    solver = capital_requirement(s, X).value.as_float()
    assert solver == pytest.approx(8.0, abs=1e-9)
    lo, hi = res.bracket()
    assert lo - 1e-9 <= solver <= hi + 1e-9
    # the ceiling requirements are linear, so the sweep finds 8 exactly
    assert res.estimate.as_float() == pytest.approx(8.0, abs=1e-9)
    assert np.allclose(res.best_allocation.total(), X.values, atol=1e-12)


def test_brute_zero_profile_stays_normalized(entropic_pair):
    space, s = entropic_pair
    X = space.rv(np.zeros(2))
    res = brute_lambda(s, X, GridSpec.around(X, 1.0, 0.02))
    assert res.estimate.as_float() == pytest.approx(0.0, abs=1e-12)
    assert res.estimate.as_float() <= res.modulus


def test_brute_bracket_entropic_convolution(entropic_pair):
    space, s = entropic_pair
    X = space.rv(np.array([0.3, 1.7]))
    g = GridSpec.around(X, 2.0, 0.02)
    res = brute_lambda(s, X, g)
    pooled = base_risk(ENTROPIC, 2.0 / 3.0, space.probs, X.values)
    assert res.estimate.as_float() >= pooled - 1e-9
    lo, hi = res.bracket()
    assert lo - 1e-9 <= pooled <= hi + 1e-9
    assert res.points == 201 ** 2


def test_brute_infinite_when_no_acceptable_split():
    space = three_space()
    # agent 1 cannot securitize scenario a and its ceiling there is 1
    acc1 = PolyhedralAcceptanceSet(
        (point_eval(space, "a"), point_eval(space, "b")),
        np.array([1.0, 2.0]))
    r1 = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["a", "b"]),
        acceptance=acc1,
        market=SecurityMarket((space.indicator(["b"]),), np.array([1.0])))
    r2 = overlap_pair(space)[1]
    s = AgentSystem((r1, r2))
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    res = brute_lambda(s, X, GridSpec.around(X, 2.0, 0.5))
    assert not res.estimate.is_finite


def test_brute_preconditions(entropic_pair):
    space, s = entropic_pair
    X = space.rv(np.zeros(2))
    g = GridSpec.around(X, 1.0, 0.1)
    triple = AgentSystem((s.regimes[0], s.regimes[1],
                          law_invariant_regime(space, ENTROPIC, 3.0)))
    with pytest.raises(StructuralError):
        brute_lambda(triple, X, g)
    wide = ScenarioSpace.uniform(["a", "b", "c", "d", "e"])
    s5 = AgentSystem((law_invariant_regime(wide, ENTROPIC, 1.0),
                      law_invariant_regime(wide, ENTROPIC, 2.0)))
    with pytest.raises(StructuralError):
        brute_lambda(s5, wide.rv(np.zeros(5)), g)
    with pytest.raises(StructuralError):
        brute_lambda(s, X, GridSpec(np.zeros(3), np.ones(3), 0.1))


# ---------------------------------------------------------------------------
# Pareto verification
# ---------------------------------------------------------------------------

def test_solver_allocation_is_pareto(entropic_pair):
    space, s = entropic_pair
    X = space.rv(np.array([0.3, 1.7]))
    alloc = capital_requirement(s, X).allocation
    chk = verify_pareto(s, X, alloc, GridSpec.around(X, 1.5, 0.05))
    assert chk.pareto
    assert chk.witness is None


def test_cash_shifted_family_stays_pareto(entropic_pair):
    space, s = entropic_pair
    X = space.rv(np.array([0.3, 1.7]))
    parts = capital_requirement(s, X).allocation.parts
    for shift in (-0.5, 0.3):
        moved = Allocation((
            space.rv(parts[0].values + shift),
            space.rv(parts[1].values - shift),
        ))
        chk = verify_pareto(s, X, moved, GridSpec.around(X, 1.5, 0.05))
        assert chk.pareto, (shift, chk.witness_risks)


def test_shifted_worked_instance_stays_pareto():
    space = three_space()
    s = AgentSystem(overlap_pair(space))
    X = space.rv(np.array([4.0, 5.0, 6.0]))
    parts = capital_requirement(s, X).allocation.parts
    ind_b = space.indicator(["b"]).values
    for shift in (-1.0, 2.0):
        moved = Allocation((
            space.rv(parts[0].values + shift * ind_b),
            space.rv(parts[1].values - shift * ind_b),
        ))
        chk = verify_pareto(s, X, moved, GridSpec.around(X, 3.0, 0.05))
        assert chk.pareto


def test_coordinate_transfer_is_dominated(entropic_pair):
    space, s = entropic_pair
    X = space.rv(np.array([0.3, 1.7]))
    parts = capital_requirement(s, X).allocation.parts
    bump = np.array([0.8, 0.0])
    bad = Allocation((
        space.rv(parts[0].values + bump),
        space.rv(parts[1].values - bump),
    ))
    chk = verify_pareto(s, X, bad, GridSpec.around(X, 1.5, 0.05))
    assert not chk.pareto
    assert chk.witness is not None
    u, v = chk.witness_risks
    assert u <= chk.base_risks[0] + 1e-9
    assert v <= chk.base_risks[1] + 1e-9
    assert (chk.base_risks[0] - u > chk.modulus
            or chk.base_risks[1] - v > chk.modulus)
    assert np.allclose(chk.witness.total(), X.values, atol=1e-12)


def test_pareto_requires_matching_total(entropic_pair):
    space, s = entropic_pair
    X = space.rv(np.array([0.3, 1.7]))
    bad = Allocation((space.rv(np.zeros(2)), space.rv(np.zeros(2))))
    with pytest.raises(StructuralError):
        verify_pareto(s, X, bad, GridSpec.around(X, 1.0, 0.1))


# ---------------------------------------------------------------------------
# finite-difference subgradient checks
# ---------------------------------------------------------------------------

def test_fd_smooth_entropic(entropic_pair):
    space, s = entropic_pair
    X = space.rv(np.array([0.3, 1.7]))
    phi = capital_requirement(s, X).subgradient
    chk = fd_subgradient_check(s, X, phi)
    assert chk.mode == "smooth"
    assert chk.passed
    assert chk.max_relative_error <= 1e-4


def test_fd_detects_perturbed_functional(entropic_pair):
    space, s = entropic_pair
    X = space.rv(np.array([0.3, 1.7]))
    phi = capital_requirement(s, X).subgradient
    bad = Functional(space, 1.1 * phi.density)
    chk = fd_subgradient_check(s, X, bad)
    assert not chk.passed


def test_fd_kink_path_on_tail_requirements():
    space = two_space()
    s = AgentSystem((
        law_invariant_regime(space, AVAR, 0.5),
        law_invariant_regime(space, AVAR, 0.5),
    ))
    X = space.rv(np.array([1.0, 1.0]))   # both scenarios tie for the tail
    phi = capital_requirement(s, X).subgradient
    chk = fd_subgradient_check(s, X, phi)
    assert chk.mode == "kink"
    assert chk.kink_coords
    assert chk.passed
    assert chk.min_inequality_gap >= -1e-8

    wrong = Functional(space, phi.density + np.array([1.0, 0.0]))
    bad = fd_subgradient_check(s, X, wrong)
    assert bad.mode == "kink"
    assert not bad.passed


def test_fd_needs_finite_neighborhood():
    space = three_space()
    s = AgentSystem(hard_ceiling_pair(space))
    X = space.rv(np.array([1.0, 5.0, 6.0]))   # scenario a at the hard ceiling
    phi = Functional(space, np.ones(3))
    with pytest.raises(DomainError):
        fd_subgradient_check(s, X, phi)


@pytest.mark.parametrize("scale", [1e4, 1e5, 1e6, 1e9])
def test_fd_needs_finite_neighborhood_at_large_scale(scale):
    # the forward neighbour of scenario a lies delta = 1e-5 past a ceiling
    # of size `scale`: it must stay infeasible however large the bounds (at
    # 1e12 the step is below half a unit in the last place and rounds away)
    space = three_space()
    s = AgentSystem(hard_ceiling_pair(space, scale))
    X = space.rv(scale * np.array([1.0, 5.0, 6.0]))
    phi = Functional(space, np.ones(3))
    with pytest.raises(DomainError, match="infinite next to the expansion"):
        fd_subgradient_check(s, X, phi)
