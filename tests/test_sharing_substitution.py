"""The sharing LP without scenario rows against the scenario-row form.

market._sharing_lp substitutes each scenario's coordinate at its holder
(the first agent whose support holds it) by the remainder of the loss, so
the LP has the agents' acceptance rows alone.  tests/oracles.py keeps the
form with one equality row per scenario.  On drawn systems, with partial
supports, scenarios held by one to n agents, and polyhedral, AVaR and
expectation agents, and on the full-support systems of
tests/test_arbitrage_verdict.py, both forms must give the same status and
value.  Where Lambda is finite the loss's shadow prices -M^T lambda must
close the Fenchel equality, the parts must add up to the loss, each part
less its agent's securities must be acceptable, and Lambda must not move
when the agents are permuted, which changes every holder.

Each agent's block of an optimal sharing LP certifies its own rho LP at its
part: a certified Lambda solves one LP, its agent risks agree with
re-solved rho, and rho ignores a certificate that fails a check or that a
cash agent is offered.  The same block certifies the support LP of the
agent's conjugate at the loss's shadow prices, which then ignores a failed
certificate as rho does, and which a law-invariant agent answers in closed
form whatever it is offered.

On the law-invariant engine each agent's security and the sharing's
subgradient bracket its rho by weak duality: a certified Lambda runs one
search, its agent risks agree with re-solved rho, and rho ignores a
bracket that fails a check or that a cash agent is offered."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cash_market,
    ceiling_regime,
    law_invariant_regime,
    three_space,
)
from oracles import scenario_row_sharing_lp
from riskshare import equilibrium, lawinv, linprog, market, regime
from riskshare.errors import RiskShareError
from riskshare.market import AgentSystem, capital_requirement
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    EXPECTATION,
    LawInvariantAcceptanceSet,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    conjugate,
    rho,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask

from test_arbitrage_verdict import drawn_system
from test_lawinv import entropic_free_system
from test_linprog import window_chain

def partial_system(seed, m, kinds):
    """One agent per entry of `kinds` on m scenarios.  A "polyhedral"
    agent's support is a random subset of the scenarios, grown so that
    the supports cover the space; an "avar" or "expectation" agent
    supports every scenario.  Every agent trades payoffs that vanish off
    its support, priced by one density q, and a polyhedral agent accepts
    the losses of nonpositive q-price on its support and one or two
    random halfspaces besides."""
    rng = np.random.default_rng(seed)
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)),
                          rng.dirichlet(np.ones(m)))
    q = rng.uniform(0.5, 1.5, m)
    supports = [np.ones(m, dtype=bool) if kind != "polyhedral"
                else rng.uniform(size=m) < 0.5 for kind in kinds]
    for w in np.flatnonzero(~np.any(supports, axis=0)):
        supports[int(rng.integers(len(kinds)))][w] = True
    regimes = []
    for kind, inc in zip(kinds, supports):
        if not inc.any():
            inc[int(rng.integers(m))] = True
        k = int(rng.integers(1, inc.sum() + 1))
        B = rng.normal(size=(m, k)) * inc[:, None]
        market_ = SecurityMarket(tuple(space.rv(b) for b in B.T),
                                 q * space.probs @ B)
        if kind == "polyhedral":
            densities = [q * inc] + [rng.uniform(0.0, 2.0, m) * inc
                                     for _ in range(rng.integers(1, 3))]
            acc = PolyhedralAcceptanceSet(
                tuple(Functional(space, d) for d in densities),
                np.concatenate([[0.0], rng.uniform(-1.0, 1.0,
                                                   len(densities) - 1)]))
        elif kind == "avar":
            acc = LawInvariantAcceptanceSet(AVAR, rng.uniform(0.1, 0.9))
        else:
            acc = LawInvariantAcceptanceSet(EXPECTATION)
        regimes.append(RiskMeasurementRegime(SupportMask(space, inc), acc,
                                             market_))
    return AgentSystem(tuple(regimes))


@st.composite
def systems(draw):
    """(system, a permutation of its agents, a loss): a partial_system or
    a drawn_system (full supports, possibly with scalable arbitrage)."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        m = draw(st.integers(2, 6))
        kinds = draw(st.lists(
            st.sampled_from(["polyhedral", "polyhedral", "avar",
                             "expectation"]), min_size=2, max_size=4))
        s = partial_system(seed, m, kinds)
    else:
        m = draw(st.integers(2, 6))
        n = draw(st.integers(2, 5))
        n_markets = draw(st.integers(1, min(3, n)))
        s = drawn_system(seed, m, n, draw(st.booleans()), draw(st.booleans()),
                         n_markets, draw(st.integers(0, n_markets - 1)),
                         draw(st.sampled_from([1.0, 1e6, 1e-6])))
    order = draw(st.permutations(range(s.n)))
    loss = np.random.default_rng(seed).normal(0.0, 2.0, s.space.size)
    return s, order, s.space.rv(loss)


def _holders(s):
    return [next(i for i, r in enumerate(s.regimes) if r.support.included[w])
            for w in range(s.space.size)]


def _outcome(share):
    """A sharing command's value, or the type of its refusal."""
    try:
        return share().value.as_float()
    except RiskShareError as exc:
        return type(exc)


def _acceptable(r, part):
    """The part lies in the agent's acceptance set, within 1e-9 of its
    scale: some auxiliaries a >= aux_lower satisfy W part + A a <= bounds."""
    W, A, bounds, aux_lower = r.lp_rows()
    slack = bounds - W @ part + 1e-9 * max(1.0, np.abs(part).max())
    if A.shape[1] == 0:
        return bool(np.all(slack >= 0.0))
    return linprog.solve(linprog.LpProblem(
        c=np.zeros(A.shape[1]), rows=A, senses=[linprog.LE] * A.shape[0],
        rhs=slack, lower=aux_lower,
        upper=np.full(A.shape[1], math.inf))).optimal


@settings(derandomize=True, deadline=None, max_examples=150)
@given(systems())
def test_substituted_lp_matches_the_scenario_rows(drawn):
    s, order, X = drawn
    old_lp, _ = scenario_row_sharing_lp(s, X.values)
    old = linprog.solve(old_lp)
    lp, layout = market._sharing_lp(s, X.values)
    new = linprog.solve(lp)
    assert lp.rows.shape == (old_lp.rows.shape[0] - s.space.size,
                             old_lp.rows.shape[1] - s.space.size)
    assert set(lp.senses) == {linprog.LE}
    assert new.status == old.status
    if new.optimal:
        v = old.objective_value
        assert abs(new.objective_value - v) <= linprog.CERT_TOL * (
            1.0 + abs(v))
        # the parts add up to the loss, and each less its securities is
        # acceptable to its agent
        parts = layout.parts(new.primal, X.values)
        assert np.abs(parts.sum(axis=0) - X.values).max() <= 1e-9 * max(
            1.0, np.abs(X.values).max())
        certificates = layout.certificates(new.primal, new.duals)
        assert all(_acceptable(r, p - r.market.basis_matrix() @ x[:r.market.dim])
                   for r, p, (x, _) in zip(s.regimes, parts, certificates))
    assert list(layout.holder) == _holders(s)

    value = _outcome(lambda: capital_requirement(s, X))
    permuted = AgentSystem(tuple(s.regimes[i] for i in order))
    moved = _outcome(lambda: capital_requirement(permuted, X))
    if isinstance(value, float) and math.isfinite(value):
        assert isinstance(moved, float)
        assert abs(moved - value) <= linprog.CERT_TOL * (1.0 + abs(value))
        res = capital_requirement(s, X, certify=False)
        assert np.abs(res.allocation.total() - X.values).max() <= 1e-9 * max(
            1.0, np.abs(X.values).max())
        # the loss's shadow prices close the Fenchel equality
        assert equilibrium._verified_subgradient(s, X, res,
                                                 None) is res.subgradient
    else:
        assert moved == value


# ----------------------------------------------------------------------
# each agent's requirement from its block of the sharing LP
# ----------------------------------------------------------------------

def _counted_solves(monkeypatch):
    """The list of the problems of every linprog.solve call from now on."""
    problems = []
    solve = linprog.solve

    def counted(p, *args, **kwargs):
        problems.append(p)
        return solve(p, *args, **kwargs)

    monkeypatch.setattr(linprog, "solve", counted)
    return problems


def _assert_risks_are_rhos(s, res):
    for r, part, risk in zip(s.regimes, res.allocation.parts,
                             res.agent_risks):
        v = rho(r, part).value.value
        assert abs(risk.value - v) <= linprog.CERT_TOL * (1.0 + abs(v))


def _assert_bitwise_same(a, b):
    assert np.float64(a.value.value).tobytes() == np.float64(
        b.value.value).tobytes()
    assert a.security.values.tobytes() == b.security.values.tobytes()
    assert a.coefficients.tobytes() == b.coefficients.tobytes()


def _certified_blocks(s, X):
    """The sharing LP's parts of X and each agent's certificate."""
    lp, layout = market._sharing_lp(s, X.values)
    sol = linprog.solve(lp)
    assert sol.optimal
    return ([s.space.rv(p) for p in layout.parts(sol.primal, X.values)],
            layout.certificates(sol.primal, sol.duals))


@pytest.mark.parametrize("m", [16, 80, 640])
def test_certified_lambda_is_one_lp_on_window_chains(monkeypatch, m):
    s, X = window_chain(m)
    solves = _counted_solves(monkeypatch)
    res = capital_requirement(s, X, certify=True)
    assert len(solves) == 1
    _assert_risks_are_rhos(s, res)


def test_certified_agent_risks_are_rho_on_partial_systems(monkeypatch):
    solves = _counted_solves(monkeypatch)
    finite = 0
    for seed in range(240):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        kinds = ["polyhedral", *rng.choice(["polyhedral", "avar",
                                            "expectation"],
                                           int(rng.integers(1, 4)))]
        s = partial_system(seed, m, kinds)
        X = s.space.rv(rng.normal(0.0, 2.0, m))
        before = len(solves)
        try:
            res = capital_requirement(s, X, certify=True)
        except RiskShareError:
            continue
        if not res.value.is_finite:
            continue
        finite += 1
        assert len(solves) == before + 1
        _assert_risks_are_rhos(s, res)
    assert finite >= 60


def test_a_failed_certificate_leaves_rho_to_its_own_lp(monkeypatch):
    s, X = window_chain(16)
    parts, certificates = _certified_blocks(s, X)
    solves = _counted_solves(monkeypatch)
    for r, part, (x, duals) in zip(s.regimes, parts, certificates):
        own = rho(r, part)
        before = len(solves)
        certified = rho(r, part, (x, duals))
        assert len(solves) == before
        v = own.value.value
        assert abs(certified.value.value - v) <= linprog.CERT_TOL * (
            1.0 + abs(v))
        # a tight row's dual is negative; moving z along that row's
        # security coefficients pushes the row past its bound
        assert duals.min() < 0.0
        W, _, _, _ = r.lp_rows()
        off = x.copy()
        off[:r.market.dim] -= (W @ r.market.basis_matrix())[
            int(np.argmin(duals))]
        for corrupted in ((x, 2.0 * duals), (off, duals)):
            before = len(solves)
            _assert_bitwise_same(rho(r, part, corrupted), own)
            assert len(solves) == before + 1


def test_a_cash_agent_answers_alike_with_or_without_a_certificate(
        monkeypatch):
    space = three_space()
    cash = law_invariant_regime(space, AVAR, 0.5, cash_market(space, 3.0))
    s = AgentSystem((cash, ceiling_regime(space, ["a", "b", "c"],
                                          [1.0, 2.0, 3.0])))
    parts, certificates = _certified_blocks(s, space.rv([1.0, -2.0, 0.5]))
    solves = _counted_solves(monkeypatch)
    x, duals = certificates[0]
    plain = rho(cash, parts[0])
    for certificate in ((x, duals), (x + 1.0, 2.0 * duals)):
        _assert_bitwise_same(rho(cash, parts[0], certificate), plain)
    assert solves == []


# ----------------------------------------------------------------------
# each agent's conjugate from its block of the sharing LP
# ----------------------------------------------------------------------

def _conjugate_blocks(s, X):
    """The sharing result at X and each agent's conjugate certificate."""
    res, sharing = equilibrium._sharing(s, X, certify=False)
    return res, equilibrium._conjugate_certificates(s, res, sharing)


def _assert_certified_conjugates(monkeypatch, s, X):
    """Each block-certified conjugate at the loss's shadow prices solves
    nothing for a polyhedral agent and matches the re-solved conjugate."""
    res, certificates = _conjugate_blocks(s, X)
    phi = res.subgradient
    solves = _counted_solves(monkeypatch)
    certified = [conjugate(r, phi, c) for r, c in zip(s.regimes,
                                                      certificates)]
    assert solves == []
    for r, v in zip(s.regimes, certified):
        own = conjugate(r, phi).value
        assert abs(v.value - own) <= linprog.CERT_TOL * (1.0 + abs(own))


@pytest.mark.parametrize("m", [16, 80])
def test_block_certified_conjugates_on_window_chains(monkeypatch, m):
    s, X = window_chain(m)
    _assert_certified_conjugates(monkeypatch, s, X)


def test_block_certified_conjugates_on_partial_systems(monkeypatch):
    finite = 0
    for seed in range(240):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        kinds = ["polyhedral", *rng.choice(["polyhedral", "avar",
                                            "expectation"],
                                           int(rng.integers(1, 4)))]
        s = partial_system(seed, m, kinds)
        X = s.space.rv(rng.normal(0.0, 2.0, m))
        try:
            res = capital_requirement(s, X, certify=False)
        except RiskShareError:
            continue
        if not res.value.is_finite:
            continue
        finite += 1
        with monkeypatch.context() as mp:
            _assert_certified_conjugates(mp, s, X)
    assert finite >= 60


def test_a_failed_certificate_leaves_conjugate_to_its_own_lp(monkeypatch):
    s, X = window_chain(16)
    res, certificates = _conjugate_blocks(s, X)
    phi = res.subgradient
    solves = _counted_solves(monkeypatch)
    for r, (x, duals) in zip(s.regimes, certificates):
        own = conjugate(r, phi)
        # a tight row's dual is negative; moving Y along that row's
        # weights pushes the row past its bound
        assert duals.min() < 0.0
        W, _, _, _ = r.lp_rows()
        inc = r.support.included
        off = x.copy()
        off[:inc.sum()] += W[int(np.argmin(duals)), inc]
        for corrupted in ((x, 2.0 * duals), (off, duals)):
            before = len(solves)
            v = conjugate(r, phi, corrupted)
            assert len(solves) == before + 1
            assert np.float64(v.value).tobytes() == np.float64(
                own.value).tobytes()


def test_law_invariant_conjugates_ignore_a_certificate(monkeypatch):
    space = three_space()
    cash = cash_market(space, 3.0)
    s = AgentSystem((
        law_invariant_regime(space, AVAR, 0.5, cash),
        law_invariant_regime(space, EXPECTATION, 0.0, cash),
        ceiling_regime(space, ["a", "b", "c"], [1.0, 2.0, 3.0])))
    res, certificates = _conjugate_blocks(s, space.rv([1.0, -2.0, 0.5]))
    phi = res.subgradient
    solves = _counted_solves(monkeypatch)
    for r, (x, duals) in zip(s.regimes[:2], certificates):
        plain = conjugate(r, phi)
        for certificate in ((x, duals), (x + 1.0, 2.0 * duals)):
            assert np.float64(conjugate(r, phi, certificate).value).tobytes(
                ) == np.float64(plain.value).tobytes()
    assert solves == []


# ----------------------------------------------------------------------
# each law-invariant agent's requirement from the sharing's subgradient
# ----------------------------------------------------------------------

def tail_entropic_system(seed):
    """An AVaR agent and an entropic agent on 4-12 uniform scenarios, both
    trading the unit at price 1 and the indicator of an event A at a price
    Q*(A) strictly inside the range the AVaR dual box allows, so the
    market has a zero-price kernel direction; and a loss."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 13))
    space = ScenarioSpace.uniform([f"s{j}" for j in range(m)])
    a_mask = np.zeros(m, dtype=bool)
    a_mask[rng.choice(m, size=int(rng.integers(1, m)), replace=False)] = True
    beta, gamma = rng.uniform(0.1, 0.7), rng.uniform(0.5, 2.0)
    cap, pa = 1.0 / (1.0 - beta), a_mask.mean()
    lo, hi = max(0.0, 1.0 - cap * (1.0 - pa)), min(cap * pa, 1.0)
    qa = lo + (hi - lo) * rng.uniform(0.2, 0.8)
    mkt = SecurityMarket((space.rv(np.ones(m)), space.rv(a_mask * 1.0)),
                         np.array([1.0, qa]))
    s = AgentSystem((law_invariant_regime(space, AVAR, beta, mkt),
                     law_invariant_regime(space, ENTROPIC, gamma, mkt)))
    return s, space.rv(rng.normal(0.0, 1.0, m))


def _counted_searches(monkeypatch):
    """The list of the regimes of every regime._rho_search call."""
    searched = []
    search = regime._rho_search

    def counted(r, rows):
        searched.append(r)
        return search(r, rows)

    monkeypatch.setattr(regime, "_rho_search", counted)
    return searched


def _assert_bracketed_risks(monkeypatch, s, X):
    """A certified law-invariant Lambda whose agents' risks come from
    their brackets, with no search but a cash agent's closed form, and
    agree with re-solved rho; False when the system has no finite
    Lambda on lawinv."""
    with monkeypatch.context() as mp:
        searched = _counted_searches(mp)
        try:
            res = capital_requirement(s, X, certify=True)
        except RiskShareError:
            return False
    if res.method != "lawinv" or not res.value.is_finite:
        return False
    assert all(r.market.cash_unit_price() is not None for r in searched)
    _assert_risks_are_rhos(s, res)
    return True


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.integers(0, 2 ** 32 - 1))
def test_bracketed_agent_risks_are_rho_on_tail_entropic_systems(seed):
    with pytest.MonkeyPatch.context() as mp:
        assert _assert_bracketed_risks(mp, *tail_entropic_system(seed))


def test_bracketed_agent_risks_are_rho_on_entropic_free_systems(monkeypatch):
    finite = sum(_assert_bracketed_risks(monkeypatch,
                                         *entropic_free_system(seed))
                 for seed in range(150))
    assert finite >= 40


def _bracket_blocks(s, X):
    """The law-invariant sharing at X, and each agent's certificate: the
    coefficients of its security and the sharing's subgradient."""
    res = lawinv.law_invariant_requirement(lawinv._system_problem(s), X)
    phi = capital_requirement(s, X, certify=False).subgradient
    return res.parts, [(r.market.coefficients_of(sec.values), phi)
                       for r, sec in zip(s.regimes, res.securities)]


def test_a_failed_bracket_leaves_rho_to_its_own_search(monkeypatch):
    s, X = tail_entropic_system(3)
    parts, certificates = _bracket_blocks(s, X)
    searched = _counted_searches(monkeypatch)
    for r, part, (z, phi) in zip(s.regimes, parts, certificates):
        own = rho(r, part)
        before = len(searched)
        certified = rho(r, part, (z, phi))
        assert len(searched) == before
        v = own.value.value
        assert abs(certified.value.value - v) <= linprog.CERT_TOL * (
            1.0 + abs(v))
        # twice phi prices the unit at 2; z moved along the market's
        # zero-price direction keeps its price and the lower bound, and
        # leaves X - B z unacceptable
        doubled = Functional(s.space, 2.0 * phi.density)
        off = z + np.array([-r.market.prices[1], 1.0])
        assert r.market.price(off) == pytest.approx(r.market.price(z))
        assert r.acceptance.xi(s.space.probs, part.values
                               - r.market.basis_matrix() @ off) > 1e-3
        for corrupted in ((z, doubled), (off, phi)):
            before = len(searched)
            _assert_bitwise_same(rho(r, part, corrupted), own)
            assert len(searched) == before + 1


def test_a_cash_agent_ignores_a_bracket():
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    kernel = SecurityMarket((space.rv(np.ones(4)),
                             space.rv([1.0, 0.0, 0.0, 1.0])),
                            np.array([1.0, 0.4]))
    s = AgentSystem((law_invariant_regime(space, AVAR, 0.5,
                                          cash_market(space)),
                     law_invariant_regime(space, ENTROPIC, 1.5, kernel)))
    X = space.rv([1.0, -2.0, 0.5, 3.0])
    parts, certificates = _bracket_blocks(s, X)
    cash = s.regimes[0]
    z, phi = certificates[0]
    plain = rho(cash, parts[0])
    doubled = Functional(space, 2.0 * phi.density)
    for certificate in ((z, phi), (z + 1.0, doubled)):
        _assert_bitwise_same(rho(cash, parts[0], certificate), plain)


def test_certified_tail_entropic_lambda_is_one_lp_and_one_search(
        monkeypatch):
    # the first request fills the market's kept answers; a new system over
    # the same agents then solves the kernel search's pricing margin in the
    # AVaR box and runs the kernel Newton search of Lambda, and its agents'
    # risks come from their brackets
    s, X = tail_entropic_system(3)
    capital_requirement(s, X, certify=True)
    solves = _counted_solves(monkeypatch)
    searches = []
    newton = lawinv._kernel_newton
    monkeypatch.setattr(lawinv, "_kernel_newton",
                        lambda *a: searches.append(a) or newton(*a))
    res = capital_requirement(AgentSystem(s.regimes), X, certify=True)
    assert res.method == "lawinv"
    assert (len(solves), len(searches)) == (1, 1)
