"""The scalable-arbitrage verdict, decided over distinct market objects.

pi(0) = 0 iff every zero-sum combination of the payoffs of the system's
distinct markets has zero price, that is, iff the zero-sum price LP is not
unbounded; the verdict is that LP's status alone.  It is computed once per
market set (the market keeps it when every agent holds one market object),
and nsa_check reports it with the per-agent rank dim_v.  A sharing command
skips that LP when the density its own first LP returns prices every
security (market._verdict given those weights); there the LP must be
optimal, and a system with scalable arbitrage is refused as before.  The reference below
is the former per-agent computation: one row of V per agent, over the
stacked basis of every agent, however many agents hold each market, and
pi(0) = 0 where the column sums of V vanish."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import cash_market, law_invariant_regime, point_eval, three_space
from riskshare import linprog, market, regime
from riskshare.cli import run
from riskshare.errors import DomainError, RiskShareError
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
from test_market import _triple_agents

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


# the sharing commands on a system with scalable arbitrage, which no
# golden case runs: no density certifies, so each solves the zero-sum
# price LP once and is refused
ARBITRAGE_CASES = {
    f"{command}-arbitrage_triple": [
        command, "fixtures/arbitrage_triple.json",
        "--loss", '{"a": 1, "b": 2, "c": 0.5}', *flags]
    for command, flags in (("lambda", ()), ("pareto", ("--zeta", "0.5")),
                           ("oracle", ("--check", "lambda")))}


# the validate cases whose cone LP (validate_star) certifies pi(0) = 0
CONE_CERTIFIED = {"readme-validate", "validate-avar_ceiling"}


@pytest.mark.parametrize("case", sorted(CASES) + sorted(ARBITRAGE_CASES))
def test_only_validate_pays_for_v(monkeypatch, capsys, case):
    # V, and with it the null-space SVD of the stacked basis, serves
    # nsa_check's dim_v alone; a sharing command, and validate's cone LP,
    # reads pi(0) = 0 off its own first LP, so the zero-sum price LP runs
    # only in validate's nsa_check where no density certifies
    svds = _counting(monkeypatch, "_zero_sum_prices", regime, market)
    lps = _counting(monkeypatch, "_zero_sum_status", regime)
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a
            for a in {**CASES, **ARBITRAGE_CASES}[case]]
    code = run(argv)
    out = capsys.readouterr().out
    if case in ARBITRAGE_CASES:
        assert (code, out, svds, len(lps)) == (2, "", [], 1)
        return
    assert code in (0, 1)
    reports_dim_v = (argv[0] == "validate"
                     and json.loads(out)["outputs"]["nsa"] is not None)
    assert len(svds) == reports_dim_v
    assert len(lps) == (reports_dim_v and case not in CONE_CERTIFIED)


def test_window_chain_lambda_runs_no_null_space(monkeypatch):
    s, X = window_chain(80)
    calls = _counting(monkeypatch, "null_space", linprog)
    res = capital_requirement(s, X)
    lambda_batch(s, np.stack([X.values, -X.values]))
    assert res.value.is_finite
    assert calls == []
    nsa_check(s)
    assert calls == ["null_space"]


# ----------------------------------------------------------------------
# the sharing LP's own density certifies pi(0) = 0
# ----------------------------------------------------------------------

def _decided_by_its_own_lp(s, share):
    """Run `share(s)`, a sharing command, on a system that has no verdict
    yet: (True when its own LP certified pi(0) = 0, so that it never asked
    the zero-sum price LP's verdict (market._arbitrage_verdict over the
    distinct markets, or SecurityMarket.arbitrage_verdict, which a market
    shared with an earlier system may keep), its answer or None when
    refused).  Where it certified, that LP must be optimal."""
    assert "_verdict" not in s.__dict__
    with pytest.MonkeyPatch.context() as mp:
        stacked = _counting(mp, "_arbitrage_verdict", market)
        kept = _counting(mp, "arbitrage_verdict", SecurityMarket)
        try:
            answer = share(s)
        except RiskShareError:
            answer = None
    calls = stacked + kept
    if not calls:
        assert _verdict(s) == (True, "optimal")
        assert _zero_sum_status(*s.stacked_basis()[:2]) == "optimal"
    return not calls, answer


def assert_certificate_agrees(s, X):
    """capital_requirement and lambda_batch on fresh copies of `s` certify
    alike, and nsa_check after a sharing command is nsa_check on a fresh
    system.  Returns (certified, lambda_batch's value or None)."""
    certified, _ = _decided_by_its_own_lp(
        s, lambda s: capital_requirement(s, X, certify=False))
    batch_certified, values = _decided_by_its_own_lp(
        AgentSystem(s.regimes), lambda s: lambda_batch(s, X.values[None, :]))
    assert batch_certified == certified
    assert nsa_check(s) == nsa_check(AgentSystem(s.regimes))
    return certified, None if values is None else values[0]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(systems())
@example((drawn_system(*REFUSED_BY_V[0], 1e6), None))
@example((drawn_system(*REFUSED_BY_V[3], 1e-6), None))
@example((drawn_system(*SHARED_REFUSED_BY_V, 1e6), None))
def test_a_certified_sharing_lp_is_the_zero_sum_lps_verdict(drawn):
    s = drawn[0]
    X = s.space.rv(np.random.default_rng(0).normal(size=s.space.size))
    certified, value = assert_certificate_agrees(s, X)
    # every agent holds every scenario, so an optimal sharing LP's duals
    # price every market: a finite Lambda is certified without the LP
    assert certified == (value is not None and np.isfinite(value))


@pytest.mark.parametrize("fixture", sorted(
    p.name for p in FIXTURES.glob("*.json") if p.name != "split_entropic.json"))
def test_fixture_sharing_certifies_where_pi_zero_vanishes(fixture):
    s = load_problem(FIXTURES / fixture).system()
    X = s.space.rv(np.linspace(-1.0, 2.0, s.space.size))
    certified, _ = assert_certificate_agrees(s, X)
    assert certified == (fixture != "arbitrage_triple.json")


def _infeasible_arbitrage_pair():
    """Two agents accepting X <= 0 in every scenario, trading the spread
    1_a - 1_b at prices 0 and 0.5 (a zero-sum combination priced -0.5);
    no part can carry a positive loss at c, so the sharing LP of
    X = 1_c is infeasible."""
    space = three_space()
    acc = PolyhedralAcceptanceSet(
        tuple(point_eval(space, label) for label in space.labels),
        np.zeros(3))
    spread = space.rv(np.array([1.0, -1.0, 0.0]))
    return AgentSystem(tuple(
        RiskMeasurementRegime(SupportMask.full(space), acc,
                              SecurityMarket((spread,), np.array([price])))
        for price in (0.0, 0.5)))


def _price_disagreement_pair():
    space = ScenarioSpace.uniform(["low", "high"])
    return AgentSystem(tuple(
        law_invariant_regime(space, ENTROPIC, 1.0, cash_market(space, price))
        for price in (1.0, 2.0)))


def _entropic_document(s):
    """The problem document of _price_disagreement_pair."""
    labels = s.space.labels
    return {
        "scenarios": {"labels": list(labels),
                      "probs": dict(zip(labels, s.space.probs.tolist()))},
        "agents": [{
            "name": f"agent_{i}",
            "acceptance": {"entropic": 1.0},
            "securities": [{"payoff": dict.fromkeys(labels, 1.0),
                            "price": float(r.market.prices[0])}],
        } for i, r in enumerate(s.regimes)],
    }


ARBITRAGE = ("system admits scalable arbitrage (pi(0) = -inf); the sharing "
             "functional is identically -inf")


@pytest.mark.parametrize("name, build, loss", [
    ("triple", lambda: _triple_agents(three_space()), [1.0, 2.0, 0.5]),
    ("fixture", lambda: load_problem(
        FIXTURES / "arbitrage_triple.json").system(), [1.0, 2.0, 0.5]),
    ("infeasible", _infeasible_arbitrage_pair, [0.0, 0.0, 1.0]),
    ("disagreement", _price_disagreement_pair, [0.3, -0.4]),
])
def test_arbitrage_is_refused_first(name, build, loss, tmp_path, capsys):
    s = build()
    X = s.space.rv(np.array(loss))
    if name == "infeasible":
        assert linprog.solve(
            market._sharing_lp(s, X.values)[0]).status == "infeasible"
    for share in (lambda s: capital_requirement(s, X),
                  lambda s: lambda_batch(s, X.values[None, :])):
        with pytest.raises(DomainError) as refused:
            share(build())
        assert str(refused.value) == ARBITRAGE
    document = (_entropic_document(s) if name == "disagreement"
                else _document(s))
    path = tmp_path / "arbitrage.json"
    path.write_text(json.dumps(document))
    code = run(["lambda", str(path), "--loss",
                json.dumps(dict(zip(s.space.labels, loss)))])
    assert code == 2
    assert capsys.readouterr().err == f"error: {ARBITRAGE}\n"
