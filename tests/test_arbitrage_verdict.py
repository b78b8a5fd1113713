"""The scalable-arbitrage verdict, decided over distinct market objects.

pi(0) = 0 iff every zero-sum combination of the payoffs of the system's
distinct markets has zero price, that is, iff the zero-sum price LP is not
unbounded; the verdict is that LP's status alone.  It is computed once per
market set (the market keeps it when every agent holds one market object),
and nsa_check reports it with the per-agent rank dim_v.  The reference
below is the former per-agent computation: one row of V per agent, over
the stacked basis of every agent, however many agents hold each market,
and pi(0) = 0 where the column sums of V vanish."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import cash_market, law_invariant_regime
from riskshare import linprog, market, regime
from riskshare.cli import run
from riskshare.market import (
    AgentSystem,
    _verdict,
    capital_requirement,
    lambda_batch,
    nsa_check,
)
from riskshare.problemfile import load_problem
from riskshare.regime import (
    ENTROPIC,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    _zero_sum_status,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask

from test_golden import CASES
from test_linprog import window_chain

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def per_agent_reference(s):
    """(dim_v, lp_status, pi(0) = 0) as the per-agent computation gives
    them: the null space of every agent's columns stacked, V with one row
    per agent, the rank and the column sums at 1e-10 max(1, |V|max), and
    the zero-sum price LP over the distinct markets' columns.  The column
    sums and the LP can disagree, where that tolerance misses rounding."""
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
    return dim_v, status, vanishes


def assert_matches_reference(s):
    dim_v, status, vanishes = per_agent_reference(s)
    assert (status == "unbounded") != vanishes
    assert _verdict(s) == (vanishes, status)
    res = nsa_check(s)
    assert (res.dim_v, res.n_agents, res.lp_status, res.pi_zero_is_zero) == (
        dim_v, s.n, status, vanishes)


def _regime(space, market, density=None):
    """An agent accepting the losses X with E[density X] <= 0 (density 1
    by default), trading `market`."""
    if density is None:
        density = np.ones(space.size)
    acc = PolyhedralAcceptanceSet((Functional(space, density),),
                                  np.array([0.0]))
    return RiskMeasurementRegime(SupportMask.full(space), acc, market)


def drawn_system(seed, m, n, consistent, with_cash, n_markets, rescaled,
                 factor):
    """2-5 agents on 2-6 scenarios over 1-3 distinct market objects, some
    held by several agents.  Every market trades the payoff 1 when
    `with_cash`, so the markets' spans meet; its prices come from one
    pricing density (no arbitrage) when `consistent` and are drawn freely
    otherwise, and the last payoff of market `rescaled`, with its price,
    is multiplied by `factor`.  Every agent accepts the losses of
    nonpositive price under that density, so Lambda(X) is the density's
    price of X when the prices are consistent."""
    rng = np.random.default_rng(seed)
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)),
                          np.full(m, 1.0 / m))
    density = rng.uniform(0.5, 1.5, m)
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
    return AgentSystem(tuple(_regime(space, markets[j], density)
                             for j in held))


@st.composite
def systems(draw):
    """(system, the same system with its rescale undone): drawn_system
    with one payoff, and its price, rescaled by 1, 1e6 or 1e-6."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    m = draw(st.integers(2, 6))
    n = draw(st.integers(2, 5))
    consistent = draw(st.booleans())
    with_cash = draw(st.booleans())
    n_markets = draw(st.integers(1, min(3, n)))
    rescaled = draw(st.integers(0, n_markets - 1))
    factor = draw(st.sampled_from([1.0, 1e6, 1e-6]))
    args = seed, m, n, consistent, with_cash, n_markets, rescaled
    return drawn_system(*args, factor), drawn_system(*args, 1.0)


# drawn_system arguments (without the factor) of draws whose column sums
# of V, at the rescale 1e6, miss the LP's status; their prices are
# consistent, so the LP finds pi(0) = 0
REFUSED_BY_V = [
    (2241173076, 3, 2, True, True, 2, 1),
    (4281994984, 4, 3, True, True, 3, 0),
    (2114309845, 2, 2, True, False, 2, 0),
    (1949277939, 6, 4, True, True, 3, 1),
]
# one more, where two agents hold one market object
SHARED_REFUSED_BY_V = (1943359571, 5, 4, True, True, 3, 2)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(systems())
@example((drawn_system(*REFUSED_BY_V[0], 1e6),
          drawn_system(*REFUSED_BY_V[0], 1.0)))
@example((drawn_system(*SHARED_REFUSED_BY_V, 1e6),
          drawn_system(*SHARED_REFUSED_BY_V, 1.0)))
def test_verdict_matches_the_per_agent_computation(drawn):
    s, unscaled = drawn
    dim_v, status, vanishes = per_agent_reference(s)
    if (status == "unbounded") == vanishes:
        # the column sums of V miss the LP's status: the rounding that a
        # payoff of scale 1e6 leaves in them exceeds |V|max's tolerance.
        # pi(0) does not change when a payoff and its price are rescaled
        # together, so V decides on the system with the rescale undone
        _, plain_status, vanishes = per_agent_reference(unscaled)
        assert (plain_status == "unbounded") != vanishes
    assert _verdict(s) == (vanishes, status)
    assert _verdict(unscaled) == _verdict(s)
    res = nsa_check(s)
    assert (res.dim_v, res.n_agents, res.lp_status, res.pi_zero_is_zero) == (
        dim_v, s.n, status, vanishes)


def _document(s):
    """The problem document of a system of drawn_system."""
    labels = s.space.labels

    def values(v):
        return dict(zip(labels, np.asarray(v).tolist()))

    return {
        "scenarios": {"labels": list(labels),
                      "probs": values(s.space.probs)},
        "agents": [{
            "name": f"agent_{i}",
            "acceptance": {"polyhedral": [
                {"density": values(f.density), "bound": float(b)}
                for f, b in zip(r.acceptance.functionals,
                                r.acceptance.bounds)]},
            "securities": [{"payoff": values(p.values), "price": float(c)}
                           for p, c in zip(r.market.basis, r.market.prices)],
        } for i, r in enumerate(s.regimes)],
    }


@pytest.mark.parametrize("args", REFUSED_BY_V)
def test_rescaled_draws_get_lambda(args, tmp_path, capsys):
    s = drawn_system(*args, 1e6)
    _, status, vanishes = per_agent_reference(s)
    assert (status, vanishes) == ("optimal", False)
    assert _verdict(s) == (True, "optimal")
    X = s.space.rv(np.random.default_rng(args[0]).normal(size=s.space.size))
    # every agent accepts X exactly when its Q-price is nonpositive, and
    # Q prices every market, so Lambda(X) = E[density X]
    expected = s.regimes[0].acceptance.functionals[0](X)
    res = capital_requirement(s, X)
    assert res.value.as_float() == pytest.approx(expected, abs=1e-8)
    assert lambda_batch(s, X.values[None, :])[0] == pytest.approx(
        expected, abs=1e-8)
    path = tmp_path / "rescaled.json"
    path.write_text(json.dumps(_document(s)))
    loss = json.dumps(dict(zip(s.space.labels, X.values.tolist())))
    code = run(["lambda", str(path), "--loss", loss])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["outputs"]["value"]["value"] == pytest.approx(
        expected, abs=1e-8)


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


def _counting(monkeypatch, name, *modules):
    """Wrap `name` in each of `modules` with one call counter; returns
    the list of calls."""
    calls = []
    inner = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_only_validate_pays_for_v(monkeypatch, capsys, case):
    # V, and with it the null-space SVD of the stacked basis, serves
    # nsa_check's dim_v alone; every sharing command decides pi(0) by the
    # zero-sum price LP
    calls = _counting(monkeypatch, "_zero_sum_prices", regime, market)
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a
            for a in CASES[case]]
    assert run(argv) in (0, 1)
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    reports_dim_v = argv[0] == "validate" and outputs["nsa"] is not None
    assert len(calls) == reports_dim_v


def test_window_chain_lambda_runs_no_null_space(monkeypatch):
    s, X = window_chain(80)
    calls = _counting(monkeypatch, "null_space", linprog)
    res = capital_requirement(s, X)
    lambda_batch(s, np.stack([X.values, -X.values]))
    assert res.value.is_finite
    assert calls == []
    nsa_check(s)
    assert calls == ["null_space"]
