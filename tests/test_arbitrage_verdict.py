"""The scalable-arbitrage verdict, decided over distinct market objects.

pi(0) = 0 iff every zero-sum combination of the payoffs of the system's
distinct markets has zero price.  The verdict is computed once per market
set (the market keeps it when every agent holds one market object), and
nsa_check reports it with the per-agent rank dim_v.  The reference below
is the former per-agent computation: one row of V per agent, over the
stacked basis of every agent, however many agents hold each market."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cash_market, law_invariant_regime
from riskshare import linprog
from riskshare.errors import InternalInconsistency
from riskshare.market import AgentSystem, _verdict, nsa_check
from riskshare.problemfile import load_problem
from riskshare.regime import (
    ENTROPIC,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    _zero_sum_status,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def per_agent_reference(s):
    """(dim_v, lp_status, pi(0) = 0) as the per-agent computation gives
    them: the null space of every agent's columns stacked, V with one row
    per agent, the rank and the column sums at 1e-10 max(1, |V|max), and
    the zero-sum price LP over the distinct markets' columns."""
    B, prices, slices = s.stacked_basis()
    ns = linprog.null_space(B)
    if ns.shape[1] == 0:
        V = np.zeros((s.n, 0))
    else:
        V = np.array([
            [float(prices[sl] @ ns[sl, c]) for c in range(ns.shape[1])]
            for sl in slices
        ])
    tol = 1e-10 * max(1.0, np.abs(V).max() if V.size else 1.0)
    dim_v = int(np.linalg.matrix_rank(V, tol=tol))
    vanishes = bool(np.all(np.abs(V.sum(axis=0)) <= tol))
    markets = list({id(r.market): r.market for r in s.regimes}.values())
    status = _zero_sum_status(
        np.hstack([mk.basis_matrix() for mk in markets]),
        np.concatenate([mk.prices for mk in markets]))
    if (status == "unbounded") == vanishes:
        raise InternalInconsistency(
            f"per-agent V gives {vanishes} but the LP is {status}")
    return dim_v, status, vanishes


def assert_matches_reference(s):
    dim_v, status, vanishes = per_agent_reference(s)
    assert _verdict(s) == (vanishes, status)
    res = nsa_check(s)
    assert (res.dim_v, res.n_agents, res.lp_status, res.pi_zero_is_zero) == (
        dim_v, s.n, status, vanishes)


def _outcome(check, s):
    """check(s), or "refused" where it raises InternalInconsistency."""
    try:
        return check(s)
    except InternalInconsistency:
        return "refused"


def _regime(space, market):
    acc = PolyhedralAcceptanceSet((Functional(space, np.ones(space.size)),),
                                  np.array([0.0]))
    return RiskMeasurementRegime(SupportMask.full(space), acc, market)


@st.composite
def systems(draw):
    """(system, factor): 2-5 agents on 2-6 scenarios over 1-3 distinct
    market objects, some held by several agents.  Every market trades the
    payoff 1 in some draws, so the markets' spans meet; its prices come
    from one pricing density (no arbitrage) or are drawn freely, and one
    payoff, with its price, is rescaled by `factor` (1, 1e6 or 1e-6)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 6))
    n = draw(st.integers(2, 5))
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)),
                          np.full(m, 1.0 / m))
    density = rng.uniform(0.5, 1.5, m)
    consistent = draw(st.booleans())
    with_cash = draw(st.booleans())
    n_markets = draw(st.integers(1, min(3, n)))
    rescaled = draw(st.integers(0, n_markets - 1))
    factor = draw(st.sampled_from([1.0, 1e6, 1e-6]))
    markets = []
    for j in range(n_markets):
        k = int(rng.integers(1, m + 1))
        B = rng.normal(0.0, 1.0, (m, k))
        if with_cash:
            B[:, 0] = 1.0
        prices = (density @ B / m if consistent
                  else rng.normal(0.5, 1.0, k))
        if j == rescaled:
            B[:, -1] *= factor
            prices[-1] *= factor
        markets.append(SecurityMarket(tuple(space.rv(c) for c in B.T),
                                      prices))
    # every market held at least once, the rest of the agents at random
    held = list(range(len(markets))) + rng.integers(
        0, len(markets), n - len(markets)).tolist()
    rng.shuffle(held)
    system = AgentSystem(tuple(_regime(space, markets[j]) for j in held))
    return system, factor


@settings(derandomize=True, deadline=None, max_examples=300)
@given(systems())
def test_verdict_matches_the_per_agent_computation(drawn):
    s, factor = drawn
    old = _outcome(per_agent_reference, s)
    new = _outcome(lambda s: (nsa_check(s).dim_v, *_verdict(s)[::-1]), s)
    if old != "refused" and new != "refused":
        assert_matches_reference(s)
    elif len({id(r.market) for r in s.regimes}) == s.n:
        # no market held twice: the verdict runs the per-agent numbers
        assert old == new
    else:
        # a repeated market changes the null space, and with it the
        # rounding that a payoff of scale 1e6 leaves in the column sums
        # of V; there the |V|max tolerance can refuse on either side
        assert factor == 1e6


def test_price_disagreement_pair():
    # both agents trade the payoff 1, at prices 1 and 2
    space = ScenarioSpace.uniform(["low", "high"])
    s = AgentSystem(tuple(
        law_invariant_regime(space, ENTROPIC, 1.0, cash_market(space, price))
        for price in (1.0, 2.0)))
    assert_matches_reference(s)
    assert _verdict(s) == (False, "unbounded")


def test_arbitrage_triple_fixture():
    s = load_problem(FIXTURES / "arbitrage_triple.json").system()
    assert_matches_reference(s)
    assert nsa_check(s).dim_v == 3
    assert _verdict(s) == (False, "unbounded")


@pytest.mark.parametrize("n", [2, 3, 5])
def test_one_market_object_takes_the_markets_verdict(n):
    space = ScenarioSpace.uniform(["a", "b", "c"])
    mkt = SecurityMarket((space.rv(np.ones(3)), space.indicator(["a"])),
                         np.array([1.0, 0.3]))
    s = AgentSystem((_regime(space, mkt),) * n)
    assert_matches_reference(s)
    assert _verdict(s) is mkt.arbitrage_verdict()
    assert nsa_check(s).dim_v == n - 1
