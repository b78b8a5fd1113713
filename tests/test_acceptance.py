"""End-to-end acceptance gate.

Each test pins a closed form, a dichotomy, or a certified cross-check with
an explicit tolerance; loosening any number here is a behavior change, not
a cleanup.  Runtime-capped tests assert their own budgets.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from riskshare import splits
from riskshare.equilibrium import (build_equilibrium, subgradient,
                                   verify_equilibrium)
from riskshare.lawinv import (avar_entropic_sharing, entropic_infconv,
                              entropic_pair_sharing)
from riskshare.market import (AgentSystem, capital_requirement, nsa_check,
                              pareto_from_payoff)
from riskshare.oracle import (GridSpec, brute_lambda, fd_subgradient_check,
                              verify_pareto)
from riskshare.problemfile import load_problem
from riskshare.regime import (AVAR, ENTROPIC, EXPECTATION,
                              LawInvariantAcceptanceSet,
                              PolyhedralAcceptanceSet, RiskMeasurementRegime,
                              SecurityMarket, base_risk, conjugate, rho)
from riskshare.scenario import ScenarioSpace, SupportMask

from helpers import law_invariant_regime, overlap_pair, point_eval, three_space

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _uniform(labels):
    return ScenarioSpace(tuple(labels), np.full(len(labels), 1.0 / len(labels)))


def _entropic_pair_system(space, beta, gamma):
    return AgentSystem((law_invariant_regime(space, ENTROPIC, beta),
                        law_invariant_regime(space, ENTROPIC, gamma)))


def _tail_entropic_system(space, beta, gamma, a_labels, qa):
    unit = space.rv(np.ones(space.size))
    event = space.indicator(a_labels)
    market = SecurityMarket((unit, event), np.array([1.0, qa]))
    full = SupportMask.full(space)
    return AgentSystem((
        RiskMeasurementRegime(full, LawInvariantAcceptanceSet(AVAR, beta),
                              market),
        RiskMeasurementRegime(full, LawInvariantAcceptanceSet(ENTROPIC, gamma),
                              market),
    ))


# ----------------------------------------------------------------------
# 1. ceiling-overlap closed form
# ----------------------------------------------------------------------

def test_overlap_closed_form_family():
    """200 random singleton-cell instances: the LP requirement equals the
    per-cell closed form, and the analytic payoff prices back to it."""
    rng = np.random.default_rng(2601)
    space = three_space()
    start = time.monotonic()
    for _ in range(200):
        k1 = rng.uniform(-5.0, 5.0, 2)
        k2 = rng.uniform(-5.0, 5.0, 2)
        xs = rng.uniform(-5.0, 5.0, 3)
        s = AgentSystem(overlap_pair(space, tuple(k1), tuple(k2)))
        lam = capital_requirement(s, space.rv(xs),
                                  certify=False).value.as_float()
        rho_a = xs[0] - k1[0]
        rho_b = xs[1] - k1[1] - k2[0]
        rho_c = xs[2] - k2[1]
        assert abs(lam - (rho_a + rho_b + rho_c)) <= 1e-8
        # the optimal payoff rho_a 1_a + (lam - rho_a - rho_c) 1_b
        # + rho_c 1_c, priced through the markets that trade each indicator
        price = (rho_a * s.regimes[0].market.prices[0]
                 + (lam - rho_a - rho_c) * s.regimes[0].market.prices[1]
                 + rho_c * s.regimes[1].market.prices[1])
        assert abs(price - lam) <= 1e-10
    assert time.monotonic() - start < 5.0


# ----------------------------------------------------------------------
# 2. entropic convolution identity + brute bracket
# ----------------------------------------------------------------------

def test_entropic_convolution_identity_and_bracket():
    rng = np.random.default_rng(2602)
    start = time.monotonic()
    space8 = _uniform([f"w{i}" for i in range(1, 9)])
    for _ in range(50):
        beta, gamma = rng.uniform(0.3, 4.0, 2)
        X = space8.rv(rng.normal(0.0, 1.5, 8))
        pool = beta * gamma / (beta + gamma)
        value, split = entropic_infconv((beta, gamma), X)
        assert abs(value - base_risk(ENTROPIC, pool, space8.probs,
                                     X.values)) <= 1e-8
        parts = split.apply(X.values)
        assert np.max(np.abs(parts[0] + parts[1] - X.values)) <= 1e-12

    # grid bracket at h = 0.02, on spaces small enough for the brute
    # sweep's preconditions; the box is centered at the proportional
    # split, which is optimal for cash-market entropic agents
    space4 = _uniform(["w1", "w2", "w3", "w4"])
    for _ in range(50):
        beta, gamma = rng.uniform(0.3, 4.0, 2)
        X = space4.rv(rng.normal(0.0, 1.0, 4))
        pool = beta * gamma / (beta + gamma)
        s = _entropic_pair_system(space4, beta, gamma)
        lam = capital_requirement(s, X, certify=False).value.as_float()
        assert abs(lam - base_risk(ENTROPIC, pool, space4.probs,
                                   X.values)) <= 1e-8
        center = (gamma / (beta + gamma)) * X.values
        br = brute_lambda(s, X, GridSpec(center - 0.1, center + 0.1, 0.02))
        low, high = br.bracket()
        assert high - low == pytest.approx(0.02, abs=1e-12)
        assert low - 1e-9 <= lam <= high + 1e-9
    assert time.monotonic() - start < 30.0


# ----------------------------------------------------------------------
# 3. entropic pair with a zero-price spread: closed form vs line search
# ----------------------------------------------------------------------

def test_entropic_pair_closed_form_vs_golden_section():
    rng = np.random.default_rng(2603)
    space = _uniform(["a", "b", "c", "d", "e"])
    for _ in range(20):
        alphas = tuple(rng.uniform(0.3, 4.0, 2))
        p = float(rng.uniform(0.5, 2.0))
        k = int(rng.integers(1, space.size))
        a_labels = tuple(rng.choice(space.labels, size=k, replace=False))
        X = space.rv(rng.normal(0.0, 1.5, space.size))
        res = entropic_pair_sharing(p, alphas, a_labels, X)

        pool = 1.0 / (1.0 / alphas[0] + 1.0 / alphas[1])
        mask = np.array([lab in a_labels for lab in space.labels])
        spread = np.where(mask, 1.0, -1.0)

        def g(r):
            return p * base_risk(ENTROPIC, pool, space.probs,
                                 X.values - r * spread)

        out = minimize_scalar(g, bracket=(-5.0, 5.0), method="golden",
                              options={"xtol": 1e-12})
        assert abs(res.value - float(out.fun)) <= 1e-6
        for a, part in zip(alphas, res.acceptable_parts):
            assert base_risk(ENTROPIC, a, space.probs, part.values) <= 1e-8
        total = res.parts[0].values + res.parts[1].values
        assert np.max(np.abs(total - X.values)) <= 1e-12


# ----------------------------------------------------------------------
# 4. tail-measure + entropic pair vs the grid oracle
# ----------------------------------------------------------------------

def test_tail_entropic_dual_matches_oracle_grid():
    beta, gamma, qa = 0.4, 1.0, 0.3
    rng = np.random.default_rng(2604)
    space8 = _uniform([f"w{i}" for i in range(1, 9)])
    a_labels = ("w1", "w2", "w3")
    s8 = _tail_entropic_system(space8, beta, gamma, a_labels, qa)
    for _ in range(10):
        X = space8.rv(rng.normal(0.0, 1.0, 8))
        res = avar_entropic_sharing(beta, gamma, a_labels, qa, X)
        # the generic solver is an independent code path (clipped-density
        # duals + comonotone splits, no two-block ascent)
        lam = capital_requirement(s8, X, certify=False).value.as_float()
        assert abs(res.value - lam) <= 2e-4
        acc_av, acc_ent = res.acceptable_parts
        assert base_risk(AVAR, beta, space8.probs, acc_av.values) <= 1e-6
        assert base_risk(ENTROPIC, gamma, space8.probs,
                         acc_ent.values) <= 1e-6

    # literal grid sweep, sized to the brute oracle's preconditions,
    # boxed around the dual ascent's own allocation
    space4 = _uniform(["w1", "w2", "w3", "w4"])
    a4 = ("w1", "w2")
    s4 = _tail_entropic_system(space4, beta, gamma, a4, 0.4)
    for _ in range(3):
        X = space4.rv(rng.normal(0.0, 1.0, 4))
        res = avar_entropic_sharing(beta, gamma, a4, 0.4, X)
        center = res.parts[0].values
        br = brute_lambda(s4, X, GridSpec(center - 0.02, center + 0.02, 0.02))
        low, high = br.bracket()
        assert low - 1e-9 <= res.value <= high + 1e-9
        assert abs(br.estimate.as_float() - res.value) <= 2e-4


# ----------------------------------------------------------------------
# 5. emitted allocations are Pareto optimal
# ----------------------------------------------------------------------

def test_emitted_allocations_certify_pareto():
    cases = [
        ("overlap_ceilings.json", [
            {"a": 4.0, "b": 5.0, "c": 6.0},
            {"a": 1.0, "b": -2.0, "c": 0.5},
        ], 2.0, 0.05),
        ("entropic_pair.json", [
            {"heads": 1.5, "tails": 1.5},
            {"heads": -0.4, "tails": 2.2},
        ], 0.3, 0.05),
    ]
    for name, losses, margin, h in cases:
        pd = load_problem(FIXTURES / name)
        s = pd.system()
        for loss in losses:
            X = pd.space.rv_from_dict(loss)
            res = capital_requirement(s, X, certify=True)
            lam = res.value.as_float()
            grid = GridSpec.around(X, margin, h)
            allocs = [res.allocation]
            if all(isinstance(r.acceptance, PolyhedralAcceptanceSet)
                   for r in s.regimes):
                # the payoff-form reconstruction is defined for polyhedral
                # systems; its allocation must certify too
                allocs.append(pareto_from_payoff(s, X, res.payoff))
            for alloc in allocs:
                total = sum(
                    rho(r, part).value.as_float()
                    for r, part in zip(s.regimes, alloc.parts))
                assert abs(total - lam) <= 1e-8
                assert verify_pareto(s, X, alloc, grid).pareto


# ----------------------------------------------------------------------
# 6. scalable-arbitrage dichotomy on the bundled fixture
# ----------------------------------------------------------------------

def test_scalable_arbitrage_dichotomy():
    pd = load_problem(FIXTURES / "arbitrage_triple.json")
    s = pd.system()
    res = nsa_check(s)
    assert res.dim_v == 3
    assert res.lp_status == "unbounded"
    assert res.verdict() == "pi(0)=-inf"
    assert res.pi_zero_is_zero == (res.dim_v < len(pd.regimes))

    trimmed = AgentSystem(pd.regimes[:2])
    res2 = nsa_check(trimmed)
    assert res2.dim_v < 2
    assert res2.verdict() == "pi(0)=0"
    zero = capital_requirement(trimmed, pd.space.rv(np.zeros(3)),
                               certify=False)
    assert zero.value.as_float() == pytest.approx(0.0, abs=1e-10)


# ----------------------------------------------------------------------
# 7. random polyhedral equilibria
# ----------------------------------------------------------------------

def test_random_polyhedral_equilibria_certify():
    rng = np.random.default_rng(2607)
    space = three_space()
    for _ in range(50):
        k1 = tuple(rng.uniform(-5.0, 5.0, 2))
        k2 = tuple(rng.uniform(-5.0, 5.0, 2))
        s = AgentSystem(overlap_pair(space, k1, k2))
        endowments = [space.rv(rng.uniform(-5.0, 5.0, 3)) for _ in range(2)]
        eq = build_equilibrium(s, endowments)
        rep = verify_equilibrium(s, endowments, eq)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
        # budget equalities certified at 1e-8 directly
        for part, w in zip(eq.allocation.parts, endowments):
            assert abs(eq.price.weights @ (part.values - w.values)) <= 1e-8


# ----------------------------------------------------------------------
# 8. axiom battery per shipped regime family
# ----------------------------------------------------------------------

def _ceiling_family(space):
    # normalized representative: zero ceilings
    return overlap_pair(space, (0.0, 0.0), (0.0, 0.0))[0]


@pytest.mark.parametrize("family,seed,make", [
    ("ceiling", 2681, _ceiling_family),
    ("entropic", 2682, lambda sp: law_invariant_regime(sp, ENTROPIC, 1.3)),
    ("avar", 2683, lambda sp: law_invariant_regime(sp, AVAR, 0.35)),
    ("expectation", 2684, lambda sp: law_invariant_regime(sp, EXPECTATION)),
])
def test_axiom_battery(family, seed, make):
    space = three_space()
    r = make(space)
    included = r.support.included
    rng = np.random.default_rng(seed)

    def requirement(values):
        return rho(r, space.rv(values)).value.as_float()

    assert abs(requirement(np.zeros(3))) <= 1e-8  # normalization
    B = r.market.basis_matrix()
    for _ in range(1000):
        X = rng.uniform(-3.0, 3.0, 3) * included
        Y = rng.uniform(-3.0, 3.0, 3) * included
        rx, ry = requirement(X), requirement(Y)
        # security additivity
        w = rng.uniform(-2.0, 2.0, r.market.dim)
        shifted = requirement(X + B @ w)
        assert abs(shifted - rx - float(r.market.prices @ w)) <= 1e-8
        # monotonicity against a dominating loss
        worse = X + rng.uniform(0.0, 2.0, 3) * included
        assert requirement(worse) >= rx - 1e-8
        # midpoint convexity
        mid = requirement(0.5 * (X + Y))
        assert mid <= 0.5 * (rx + ry) + 1e-8


# ----------------------------------------------------------------------
# 9. conjugate sum identity at sampled dual points
# ----------------------------------------------------------------------

def _dual_fixture_systems():
    yield "overlap", AgentSystem(overlap_pair()), 3
    pd = load_problem(FIXTURES / "entropic_pair.json")
    yield "entropic_pair", pd.system(), 2
    pd = load_problem(FIXTURES / "avar_entropic.json")
    yield "tail_entropic", pd.system(), 8


def test_conjugate_sum_identity_at_sampled_duals():
    rng = np.random.default_rng(2609)
    for name, s, size in _dual_fixture_systems():
        for _ in range(20):
            X = s.space.rv(rng.normal(0.0, 1.0, size))
            lam = capital_requirement(s, X, certify=False).value.as_float()
            phi = subgradient(s, X)
            attained = float(phi(X)) - lam       # Lambda*(phi), tight at X
            total = 0.0
            for r in s.regimes:
                c = conjugate(r, phi)
                assert c.is_finite, name
                total += c.as_float()
            assert abs(attained - total) <= 1e-6, name


def test_law_invariant_subgradient_lies_in_its_dual_box():
    # the tail_entropic draws of the identity above: the supporting
    # functional meets the AVaR cap and the security prices outright, not
    # merely within the 1e-9 slack of the conjugate
    rng = np.random.default_rng(2609)
    for name, s, size in _dual_fixture_systems():
        draws = [rng.normal(0.0, 1.0, size) for _ in range(20)]
    assert name == "tail_entropic"
    cap = s.regimes[0].acceptance.dual_cap()
    market = s.regimes[0].market
    B = market.basis_matrix()
    for x in draws:
        phi = capital_requirement(s, s.space.rv(x), certify=False).subgradient
        mass = float(s.space.probs @ phi.density)
        assert np.max(phi.density / mass) <= cap * (1.0 + 1e-12)
        assert np.max(np.abs(phi.weights @ B - market.prices)) <= 1e-12


# ----------------------------------------------------------------------
# 10. split sweep against the closed-form objective
# ----------------------------------------------------------------------

def test_split_sweep_matches_closed_form():
    start = time.monotonic()
    pd = load_problem(FIXTURES / "split_entropic.json")
    X = pd.space.rv_from_dict({"low": 0.0, "high": 2.0})
    sp = pd.split_problem()
    assert sp.n_max == 50

    objective = [
        base_risk(ENTROPIC, 1.0 / n, pd.space.probs, X.values) + 0.1 * n
        for n in range(1, 51)
    ]
    n_closed = int(np.argmin(objective)) + 1

    res = splits.split_optimize(sp, X,
                                phi0=pd.pricing.functional(pd.space))
    assert res.n_star == n_closed == 2
    assert res.value == pytest.approx(min(objective), abs=1e-9)

    # without the lower-bound functional the sweep runs to the cap;
    # requirements must be non-increasing all along it
    full = splits.split_optimize(sp, X)
    assert full.cap_limited and len(full.objectives) == 50
    reqs = [pt.requirement for pt in full.objectives]
    for a, b in zip(reqs, reqs[1:]):
        assert a >= b - 1e-8
    assert full.n_star == n_closed
    assert time.monotonic() - start < 10.0


# ----------------------------------------------------------------------
# 11. allocation selection stability along segments
# ----------------------------------------------------------------------

def test_allocation_selection_stability():
    # strictly convex family: the optimal allocation is unique, so the
    # selection must move at the speed of the data
    space = ScenarioSpace(("w1", "w2", "w3", "w4"),
                          np.array([0.3, 0.2, 0.4, 0.1]))
    s = _entropic_pair_system(space, 1.0, 2.0)
    rng = np.random.default_rng(2611)
    ts = np.linspace(0.0, 0.1, 11)
    for _ in range(20):
        X0 = rng.normal(0.0, 1.0, 4)
        D = rng.normal(0.0, 1.0, 4)
        norm_d = float(np.max(np.abs(D)))
        values, allocs = [], []
        for t in ts:
            res = capital_requirement(s, space.rv(X0 + t * D))
            values.append(res.value.as_float())
            allocs.append([p.values.copy() for p in res.allocation.parts])
        slopes = np.abs(np.diff(values)) / np.diff(ts)
        assert np.all(np.isfinite(slopes))
        assert np.max(slopes) <= 100.0 * (1.0 + norm_d)
        for prev, nxt, dt in zip(allocs, allocs[1:], np.diff(ts)):
            jump = max(
                float(np.max(np.abs(b - a))) for a, b in zip(prev, nxt))
            assert jump <= 10.0 * norm_d * dt


# ----------------------------------------------------------------------
# 12. subgradients vs finite differences
# ----------------------------------------------------------------------

def test_subgradient_finite_difference_gate():
    # smooth entropic points
    space = ScenarioSpace(("w1", "w2", "w3", "w4"),
                          np.array([0.3, 0.2, 0.4, 0.1]))
    s = _entropic_pair_system(space, 1.0, 2.0)
    rng = np.random.default_rng(2612)
    for _ in range(5):
        X = space.rv(rng.normal(0.0, 1.0, 4))
        chk = fd_subgradient_check(s, X, subgradient(s, X))
        assert chk.mode == "smooth" and chk.passed
        assert chk.max_relative_error <= 1e-4

    # polyhedral kink: two agents whose requirement is the running maximum
    space2 = _uniform(["u", "v"])
    full = SupportMask.full(space2)
    acc = PolyhedralAcceptanceSet(
        (point_eval(space2, "u"), point_eval(space2, "v")),
        np.zeros(2))
    market = SecurityMarket((space2.rv(np.ones(2)),), np.array([1.0]))
    s2 = AgentSystem((
        RiskMeasurementRegime(full, acc, market),
        RiskMeasurementRegime(full, acc, market),
    ))
    X = space2.rv(np.array([1.0, 1.0]))           # tie -> kink
    lam0 = capital_requirement(s2, X, certify=False).value.as_float()
    assert lam0 == pytest.approx(1.0, abs=1e-10)
    phi = subgradient(s2, X)
    chk = fd_subgradient_check(s2, X, phi)
    assert chk.mode == "kink" and chk.passed
    assert chk.min_inequality_gap >= -1e-8
    for _ in range(100):
        Y = X.values + rng.uniform(-1.0, 1.0, 2)
        lam_y = capital_requirement(s2, space2.rv(Y),
                                    certify=False).value.as_float()
        assert lam_y >= lam0 + float(phi.weights @ (Y - X.values)) - 1e-8
