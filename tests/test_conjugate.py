"""The agent conjugate rho*(phi): +inf unless phi prices the security span,
otherwise the acceptance set's support function.

Polyhedral conjugates and budget optima are compared with the LPs that
carry the securities as variables (kept here as references) over window
chains with partial supports and full-support polyhedral pairs, at
supporting and random functionals.  A payoff-scale test covers the price
check's relative tolerance."""

import math

import numpy as np
import pytest

from riskshare import linprog
from riskshare.equilibrium import (
    BUDGET_TOL,
    Equilibrium,
    build_equilibrium,
    subgradient,
    verify_equilibrium,
)
from riskshare.market import AgentSystem, capital_requirement
from riskshare.regime import (
    LawInvariantAcceptanceSet,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    conjugate,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask

from helpers import ceiling_regime


def _free_lp(c, rows, rhs):
    n = rows.shape[1]
    return linprog.solve(linprog.LpProblem(
        c=c, rows=rows, senses=[linprog.LE] * rows.shape[0], rhs=rhs,
        lower=np.full(n, -math.inf), upper=np.full(n, math.inf)))


def _acceptance_block(r):
    """[W[:, inc] | -W B]: X - B z is acceptable iff the block times
    (X[inc], z) is at most the bounds."""
    W = r.acceptance.weight_matrix()
    return np.hstack([W[:, r.support.included],
                      -(W @ r.market.basis_matrix())])


def _reference_conjugate(r, phi) -> float:
    """max phi(X) - prices.z subject to X - B z acceptable, X supported."""
    inc = r.support.included
    sol = _free_lp(np.concatenate([-phi.weights[inc], r.market.prices]),
                   _acceptance_block(r), r.acceptance.bounds.copy())
    if sol.status == "unbounded":
        return math.inf
    assert sol.status == "optimal"
    return -sol.objective_value


def _reference_budget_optimum(r, phi, budget: float) -> float:
    """min { rho(Y) : phi(Y) >= budget } over supported Y and the agent's
    security coefficients."""
    block = _acceptance_block(r)
    budget_row = np.zeros(block.shape[1])
    budget_row[:r.support.dim] = -phi.weights[r.support.included]
    sol = _free_lp(
        np.concatenate([np.zeros(r.support.dim), r.market.prices]),
        np.vstack([block, budget_row]),
        np.concatenate([r.acceptance.bounds, [-budget]]))
    if sol.status == "unbounded":
        return -math.inf
    assert sol.status == "optimal"
    return sol.objective_value


def _space(m):
    return ScenarioSpace.uniform([f"s{w}" for w in range(m)])


def _window_chain(rng, m, n):
    """n ceiling agents owning scenario 0 plus overlapping windows."""
    space = _space(m)
    width = -(-(m - 1) // n)
    regimes = []
    for i in range(n):
        lo = 1 + i * width
        owned = [0] + list(range(lo, min(m - 1, lo + width + 1) + 1))
        regimes.append(ceiling_regime(
            space, [space.labels[w] for w in owned],
            rng.uniform(-2.0, 2.0, len(owned))))
    return space, tuple(regimes)


def _full_support_pair(rng, m):
    """Two full-support agents sharing the expectation ceiling, each with
    random nonnegative ceilings and cash plus one payoff at its P-price."""
    space = _space(m)
    regimes = []
    for _ in range(2):
        densities = [np.ones(m)] + [rng.uniform(0.0, 2.0, m)
                                    for _ in range(3)]
        payoff = rng.normal(size=m)
        regimes.append(RiskMeasurementRegime(
            SupportMask.full(space),
            PolyhedralAcceptanceSet(
                tuple(Functional(space, d) for d in densities),
                rng.uniform(-1.0, 1.0, len(densities))),
            SecurityMarket((space.rv(np.ones(m)), space.rv(payoff)),
                           np.array([1.0, float(space.probs @ payoff)]))))
    return space, tuple(regimes)


def _systems():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        yield rng, _window_chain(rng, int(rng.integers(6, 11)),
                                 int(rng.integers(2, 4)))
        yield rng, _full_support_pair(rng, int(rng.integers(3, 6)))


def _functionals(rng, space, regimes):
    """(label, phi): subgradients at two losses, a rescaled subgradient,
    and a random positive density."""
    s = AgentSystem(regimes)
    out = []
    for tag in ("subgradient", "other subgradient"):
        X = space.rv(rng.uniform(-3.0, 3.0, space.size))
        out.append((tag, capital_requirement(s, X, certify=False).subgradient))
    phi = out[0][1]
    out.append(("rescaled", Functional(space, 1.5 * phi.density)))
    out.append(("random", Functional(space, rng.uniform(0.1, 2.0,
                                                        space.size))))
    return out


def test_conjugate_and_budget_match_the_security_lps():
    infinite = finite = 0
    for rng, (space, regimes) in _systems():
        s = AgentSystem(regimes)
        X = space.rv(rng.uniform(-3.0, 3.0, space.size))
        res = capital_requirement(s, X, certify=False)
        for tag, phi in _functionals(rng, space, regimes):
            consistent = True
            for r, part in zip(regimes, res.allocation.parts):
                ref = _reference_conjugate(r, phi)
                got = conjugate(r, phi).as_float()
                if ref == math.inf:
                    assert got == math.inf, tag
                    consistent = False
                    infinite += 1
                    continue
                finite += 1
                assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), tag
                budget = phi(part)
                best = _reference_budget_optimum(r, phi, budget)
                assert abs((budget - got) - best) <= 1e-9 * (1.0 + abs(best))
            if consistent:
                continue
            eq = Equilibrium(allocation=res.allocation, price=phi,
                             transfers=(0.0,) * len(regimes), numeraire=X,
                             value=res.value.as_float())
            checks = {c.name: c for c in
                      verify_equilibrium(s, res.allocation.parts, eq).checks}
            assert not checks["price_consistent_on_security_spans"].passed
            worst = max(abs(float(phi.weights @ r.market.basis_matrix()[:, k])
                            - r.market.prices[k])
                        for r in regimes for k in range(r.market.dim))
            assert worst > BUDGET_TOL
    assert infinite > 0 and finite > 0


def _scaled_pair(scale):
    """An entropic agent trading cash and a P-priced payoff times `scale`,
    and an AVaR agent trading cash, with the total loss."""
    space = ScenarioSpace(("w1", "w2", "w3", "w4"),
                          np.array([0.1, 0.2, 0.3, 0.4]))
    one = space.rv(np.ones(4))
    payoff = space.rv(scale * np.array([1.0, 1.0, -1.0, 0.25]))
    entropic = RiskMeasurementRegime(
        SupportMask.full(space), LawInvariantAcceptanceSet("entropic", 1.5),
        SecurityMarket((one, payoff), np.array([1.0, 0.1 * scale])))
    avar = RiskMeasurementRegime(
        SupportMask.full(space), LawInvariantAcceptanceSet("avar", 0.4),
        SecurityMarket((one,), np.array([1.0])))
    return (entropic, avar), space.rv(np.array([0.3, -0.8, 1.1, 0.2]))


def _subgradient_and_conjugates(scale):
    regimes, X = _scaled_pair(scale)
    phi = subgradient(AgentSystem(regimes), X)
    return phi.weights, [conjugate(r, phi).as_float() for r in regimes]


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e8, -1e8, 1e10])
def test_price_check_scales_with_the_payoff(scale):
    weights, conj = _subgradient_and_conjugates(scale)
    ref_weights, ref_conj = _subgradient_and_conjugates(1.0)
    assert np.allclose(ref_weights, [0.1667, 0.1149, 0.2890, 0.4294],
                       atol=1e-4)
    assert abs(ref_conj[0] - 0.0274187) <= 1e-7 and ref_conj[1] == 0.0
    assert np.max(np.abs(weights - ref_weights)) <= 1e-12
    assert np.max(np.abs(np.subtract(conj, ref_conj))) <= 1e-12
    # equilibrium verification checks prices with the same relative
    # tolerance (an absolute 1e-8 refused the 1e10 payoff)
    regimes, X = _scaled_pair(scale)
    s = AgentSystem(regimes)
    halves = (0.5 * X, 0.5 * X)
    rep = verify_equilibrium(s, halves, build_equilibrium(s, halves))
    assert rep.passed, rep.to_dict()
