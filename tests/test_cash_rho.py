"""rho on a market that trades only cash is one closed form for every
acceptance family: a polyhedral agent's rho is xi(X) times the price of
cash, xi(X) = max_j (phi_j(X) - b_j) / phi_j(1) over the functionals with
a positive cash weight.  rho's LP (regime._rho_rows) stays the reference:
the closed form must report its statuses and its values, and make no LP,
in rho and rho_batch.  validate's polyhedral no-arbitrage check is one LP
on every market, and it is exact: the former seeded probes stay here as a
reference it must never pass against."""

import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskshare import linprog, oracle
from riskshare.cli import run
from riskshare.errors import DomainError, RiskShareError
from riskshare.market import AgentSystem, _verdict, capital_requirement
from riskshare.problemfile import load_problem
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    _rho_rows,
    rho,
    rho_batch,
    validate_regime,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask

from helpers import law_invariant_regime
from oracles import margin
from test_oracle import full_support_regime, window_chain_regimes

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ----------------------------------------------------------------------
# parity with rho's LP
# ----------------------------------------------------------------------

# densities stay away from magnitudes the LP's pivot tolerance (1e-9)
# treats as zero; a cash weight that cancels to a rounding residue is zero
# on both paths
_HALVES = st.integers(-4, 8).map(lambda k: k / 2.0)
_NONNEGATIVE = st.one_of(st.integers(0, 8).map(lambda k: k / 2.0),
                         st.floats(0.1, 4.0))
_SIGNED = st.one_of(_HALVES, st.floats(0.1, 4.0), st.floats(-2.0, -0.1))


def _support(draw, m):
    inc = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    if draw(st.booleans()) or not inc.any():
        inc = np.ones(m, dtype=bool)
    return inc


def _acceptance(draw, space, inc):
    """1-4 signed, nonnegative or zero functionals on the support, with
    bounds in [-3, 3]; in some draws none has a positive cash weight."""
    m = space.size
    functionals = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["nonnegative", "signed", "zero"]))
        if kind == "zero":
            d = np.zeros(m)
        else:
            entry = _NONNEGATIVE if kind == "nonnegative" else _SIGNED
            d = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
        functionals.append(Functional(space, d * inc))
    if draw(st.booleans()):
        # no functional with a positive cash weight
        functionals = [Functional(space, -np.abs(f.density))
                       for f in functionals]
    bounds = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(functionals),
                           max_size=len(functionals)))
    return PolyhedralAcceptanceSet(tuple(functionals), np.array(bounds))


@st.composite
def cash_agents(draw):
    """A polyhedral agent with 1-4 functionals on m <= 6 scenarios that
    trades c 1 at price pi (c != 1, and c and pi of one sign), and a loss
    on its support."""
    m = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 8), min_size=m, max_size=m))
    space = ScenarioSpace([f"s{i}" for i in range(m)],
                          np.array(weights) / sum(weights))
    inc = _support(draw, m)
    acceptance = _acceptance(draw, space, inc)
    sign = draw(st.sampled_from([1.0, -1.0]))
    c = sign * draw(st.floats(0.25, 4.0).filter(lambda v: v != 1.0))
    price = sign * draw(st.floats(0.25, 4.0))
    r = RiskMeasurementRegime(
        SupportMask(space, inc), acceptance,
        SecurityMarket((space.rv(np.full(m, c)),), np.array([price])))
    losses = []
    for _ in range(2):
        x = np.zeros(m)
        x[inc] = draw(st.lists(st.floats(-5.0, 5.0), min_size=int(inc.sum()),
                               max_size=int(inc.sum())))
        losses.append(x)
    return r, losses


@st.composite
def market_agents(draw):
    """A polyhedral agent as in cash_agents on 2 <= m <= 6 equally likely
    scenarios that trades 1-3 linearly independent payoffs inside its
    support (indicators, the support's unit, signed random payoffs) at
    prices of either sign."""
    m = draw(st.integers(2, 6))
    space = ScenarioSpace.uniform([f"s{i}" for i in range(m)])
    inc = _support(draw, m)
    held = np.flatnonzero(inc).tolist()
    basis = np.zeros((m, 0))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["indicator", "unit", "random"]))
        if kind == "indicator":
            b = np.zeros(m)
            b[draw(st.sampled_from(held))] = 1.0
        elif kind == "unit":
            b = inc.astype(float)
        else:
            b = np.array(draw(st.lists(_SIGNED, min_size=m,
                                       max_size=m))) * inc
        stacked = np.column_stack([basis, b])
        if np.linalg.matrix_rank(stacked, tol=1e-6) == stacked.shape[1]:
            basis = stacked
    assume(basis.shape[1] > 0)
    prices = draw(st.lists(_SIGNED, min_size=basis.shape[1],
                           max_size=basis.shape[1]))
    return RiskMeasurementRegime(
        SupportMask(space, inc), _acceptance(draw, space, inc),
        SecurityMarket(tuple(space.rv(b) for b in basis.T),
                       np.array(prices)))


def _outcome(f):
    try:
        return f()
    except RiskShareError as exc:
        return type(exc)


def _status(t):
    """rho's status for a requirement t of _rho_rows."""
    return {math.inf: "infeasible", -math.inf: "unbounded"}.get(t, "optimal")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cash_agents())
def test_closed_form_matches_the_lp(agent):
    r, (x, y) = agent
    closed = _outcome(lambda: rho(r, r.space.rv(x)))
    lp = _outcome(lambda: _rho_rows(r, r.lp_rows(), x))
    if isinstance(lp, type):
        assert closed is lp
        return
    assert closed.status == _status(lp[0])
    if closed.status == "optimal":
        v = closed.value.as_float()
        assert abs(v - lp[0]) <= 1e-12 * (1.0 + abs(v))
        # the security makes the part acceptable
        t = closed.security.values[0]
        assert np.all(closed.security.values == t)
        assert margin(r.acceptance, x - closed.security.values) <= (
            linprog.CERT_TOL * (1.0 + np.max(np.abs(x)) + abs(t)))
    # rho_batch is rho row by row, bitwise, and refuses where rho does
    rows = np.array([x, y, x])
    singles = [_outcome(lambda z=z: rho(r, r.space.rv(z))) for z in rows]
    if any(isinstance(s, type) or s.status == "unbounded" for s in singles):
        with pytest.raises(RiskShareError):
            rho_batch(r, rows)
    else:
        assert rho_batch(r, rows).tolist() == [s.value.as_float()
                                              for s in singles]


@pytest.mark.parametrize("bound, status", [(-0.5, "infeasible"),
                                           (0.5, "unbounded")])
def test_a_cash_weight_that_cancels_is_zero(bound, status):
    # phi(1) = 3/6 - 3 (1/6) is 5.6e-17 in floating point, not 0: were it
    # positive, rho would be a finite 1e16-sized amount; the LP cannot
    # pivot on it either
    space = ScenarioSpace.uniform(list("abcdef"))
    phi = Functional(space, np.array([3.0, -1.0, -1.0, -1.0, 0.0, 0.0]))
    assert phi.weights.sum() != 0.0
    r = RiskMeasurementRegime(
        SupportMask.full(space),
        PolyhedralAcceptanceSet((phi,), np.array([bound])),
        SecurityMarket((space.rv(np.full(6, -2.0)),), np.array([-1.5])))
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0])
    assert rho(r, space.rv(x)).status == status
    assert _status(_rho_rows(r, r.lp_rows(), x)[0]) == status


# ----------------------------------------------------------------------
# the edges through the CLI
# ----------------------------------------------------------------------

def _bank_document(tmp_path, functionals):
    """fixtures/avar_ceiling.json with the bank's `up` density raised to 4
    and `functionals` appended to its acceptance set."""
    doc = json.loads((FIXTURES / "avar_ceiling.json").read_text())
    poly = doc["agents"][1]["acceptance"]["polyhedral"]
    poly[0]["density"]["up"] = 4.0
    poly += functionals
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _rho_cli(capsys, path, loss, agent=2):
    code = run(["rho", path, "--agent", str(agent),
                "--loss", json.dumps(loss)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.err


def test_overflowing_margin_is_a_structural_exit(tmp_path, capsys):
    # phi(X) = 2e308 overflows from a finite loss
    code, err = _rho_cli(capsys, _bank_document(tmp_path, []),
                         {"up": 1e308, "down": 0})
    assert code == 1
    assert err.startswith("error:")


def test_empty_acceptance_set_is_infeasible(tmp_path, capsys):
    # a zero functional with a negative bound accepts nothing
    path = _bank_document(tmp_path, [{"density": {}, "bound": -1.0}])
    code, err = _rho_cli(capsys, path, {"up": 1, "down": 0})
    assert code == 2 and "infinite" in err
    r = load_problem(path).regimes[1]
    x = r.space.rv(np.array([1.0, 0.0]))
    assert rho(r, x).status == "infeasible"
    assert _rho_rows(r, r.lp_rows(), x.values)[0] == math.inf
    assert rho_batch(r, x.values[None, :]).tolist() == [math.inf]


CASH = [{"payoff": {"a": 1.0, "b": 1.0}, "price": 1.0}]
INDICATORS = [{"payoff": {"a": 1.0}, "price": 0.5},
              {"payoff": {"b": 1.0}, "price": 0.5}]


ZERO_BELOW_ZERO = {"density": {}, "bound": -1e-13}
ZERO_AT_ZERO = {"density": {}, "bound": 0.0}
TINY_WEIGHTS = {"density": {"a": 1e-15, "b": 1e-15}, "bound": -1.0}


@pytest.mark.parametrize("securities, functional, nonempty", [
    (CASH, ZERO_BELOW_ZERO, False),
    (INDICATORS, ZERO_BELOW_ZERO, False),
    (CASH, ZERO_AT_ZERO, True),
    (INDICATORS, ZERO_AT_ZERO, True),
    # only the cash form: rho's LP calls this set empty, its pivot and
    # reduced-cost tolerances (1e-9, absolute) being far above the weights
    (CASH, TINY_WEIGHTS, True),
], ids=["zero_below_zero-cash", "zero_below_zero-indicators",
        "zero_at_zero-cash", "zero_at_zero-indicators", "tiny_weights-cash"])
def test_acceptance_nonempty_agrees_with_rho(tmp_path, capsys, securities,
                                             functional, nonempty):
    # a zero functional fails exactly when its bound is negative; any
    # other functional accepts large negative losses
    doc = {"scenarios": {"labels": ["a", "b"],
                         "probs": {"a": 0.5, "b": 0.5}},
           "agents": [{"name": "bank",
                       "acceptance": {"polyhedral": [
                           {"density": {"a": 1.0, "b": 1.0}, "bound": 0.0},
                           functional]},
                       "securities": securities}]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    run(["validate", str(path)])
    checks = json.loads(capsys.readouterr().out)["outputs"]["agents"][
        "bank"]["checks"]
    assert {c["name"]: c["passed"] for c in checks}[
        "acceptance_nonempty"] == nonempty
    code, _ = _rho_cli(capsys, str(path), {}, agent=1)
    assert code == (0 if nonempty else 2)


def test_set_without_positive_cash_weight_is_unbounded(tmp_path, capsys):
    doc = json.loads((FIXTURES / "avar_ceiling.json").read_text())
    doc["agents"][1]["acceptance"]["polyhedral"] = [
        {"density": {"up": -2.0}, "bound": 1.0},
        {"density": {}, "bound": 1.0}]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, err = _rho_cli(capsys, str(path), {"up": 1, "down": 0})
    assert code == 2 and "unbounded" in err
    r = load_problem(str(path)).regimes[1]
    x = r.space.rv(np.array([1.0, 0.0]))
    assert rho(r, x).status == "unbounded"
    assert _rho_rows(r, r.lp_rows(), x.values)[0] == -math.inf
    with pytest.raises(DomainError, match="unbounded below"):
        rho_batch(r, x.values[None, :])


# ----------------------------------------------------------------------
# what rho_batch promises
# ----------------------------------------------------------------------

def test_rho_batch_is_bitwise_on_closed_forms_and_certified_on_screens():
    rng = np.random.default_rng(23)
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    rows = rng.uniform(-3.0, 3.0, size=(40, 4))
    # the cash closed form, for every family, and the law-invariant search
    agents = [full_support_regime(rng, space),
              law_invariant_regime(space, AVAR, 0.4),
              law_invariant_regime(space, ENTROPIC, 1.3),
              law_invariant_regime(space, ENTROPIC, 0.7, SecurityMarket(
                  (space.rv(np.ones(4)), space.indicator(["a"])),
                  np.array([1.0, 0.3])))]
    for r in agents:
        assert rho_batch(r, rows).tolist() == [
            rho(r, space.rv(x)).value.as_float() for x in rows]
    # indicator markets: screened rows carry the LP's certificate, not
    # the bits of a simplex run of their own
    space, chain = window_chain_regimes(rng, 12, 3)
    for r in chain:
        batch = rng.uniform(-4.0, 4.0, size=(60, space.size))
        batch[:, ~r.support.included] = 0.0
        with recording() as seen:
            values = rho_batch(r, batch)
        assert len(seen["solve"]) < batch.shape[0]
        for v, x in zip(values, batch):
            single = rho(r, space.rv(x)).value.as_float()
            if math.isinf(single):
                assert v == single
            else:
                assert abs(v - single) <= linprog.CERT_TOL * (1.0 + abs(v))


# ----------------------------------------------------------------------
# work counters
# ----------------------------------------------------------------------

@contextlib.contextmanager
def recording():
    """The problems given to linprog.solve and linprog.solve_batch while
    the block runs (solve_batch's own solves included under "solve")."""
    seen = {"solve": [], "solve_batch": []}
    solve_, batch_ = linprog.solve, linprog.solve_batch

    def solve(p, *args, **kwargs):
        seen["solve"].append(p)
        return solve_(p, *args, **kwargs)

    def solve_batch(p, rhs, *args, **kwargs):
        seen["solve_batch"].append(p)
        return batch_(p, rhs, *args, **kwargs)

    linprog.solve, linprog.solve_batch = solve, solve_batch
    try:
        yield seen
    finally:
        linprog.solve, linprog.solve_batch = solve_, batch_


def test_polyhedral_cash_rho_makes_no_lp():
    rng = np.random.default_rng(5)
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    r = full_support_regime(rng, space)
    rows = rng.normal(size=(81, 4))
    with recording() as seen:
        rho(r, space.rv(rows[0]))
        rho_batch(r, rows)
    assert seen == {"solve": [], "solve_batch": []}


@pytest.mark.parametrize("kind", ["polyhedral", ENTROPIC, AVAR])
@pytest.mark.parametrize("cash", [1.0, 2.5])
def test_cash_rho_coefficients_need_no_least_squares(monkeypatch, kind, cash):
    # the coefficient of the one payoff c 1 that pays xi 1 is xi / c
    rng = np.random.default_rng(5)
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    market = SecurityMarket((space.rv(np.full(4, cash)),),
                            np.array([0.8 * cash]))
    if kind == "polyhedral":
        r = RiskMeasurementRegime(SupportMask.full(space), full_support_regime(
            rng, space).acceptance, market)
    else:
        r = law_invariant_regime(space, kind, 0.5, market=market)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    res = rho(r, space.rv(rng.normal(size=4)))
    assert calls == []
    assert market.price(res.coefficients) == pytest.approx(
        res.value.as_float(), rel=1e-15)
    assert np.allclose(market.payoff(res.coefficients).values,
                       res.security.values, rtol=1e-15, atol=0.0)


def test_certified_lambda_and_pareto_sweep_make_one_system_lp():
    rng = np.random.default_rng(9)
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    s = AgentSystem((full_support_regime(rng, space),
                     full_support_regime(rng, space)))
    X = space.rv(rng.normal(size=4))
    with recording() as seen:
        res = capital_requirement(s, X, certify=True)
        check = oracle.verify_pareto(s, X, res.allocation,
                                     oracle.GridSpec.around(X, 0.5, 0.5))
    assert check.pareto
    assert seen["solve_batch"] == []
    # the sharing LP, whose loss shadow prices certify pi(0) = 0, so no
    # zero-sum price LP (equality rows over the stacked basis) runs
    sharing, = seen["solve"]
    assert sharing.rows.shape[0] > s.space.size
    assert linprog.LE in sharing.senses
    assert _verdict(s) == (True, "optimal")


# ----------------------------------------------------------------------
# validate's no-arbitrage check is exact
# ----------------------------------------------------------------------

def _lp_probes(r, seed):
    """validate's former polyhedral probes with rho's LP (_rho_rows) at
    X = 0 and at 8 seeded random points: the verdict and detail of the
    first unbounded probe."""
    rng = np.random.default_rng(seed)
    inc = r.support.included
    probes = [np.zeros(r.space.size)]
    for _ in range(8):
        x = np.zeros(r.space.size)
        x[inc] = rng.uniform(-5.0, 5.0, inc.sum())
        probes.append(x)
    for i, x in enumerate(probes):
        if _rho_rows(r, r.lp_rows(), x)[0] == -math.inf:
            return False, f"probe {i}: securitization gain unbounded"
    return True, "bounded at X = 0 and 8 random probes (probabilistic check)"


def _no_arbitrage(r):
    check = {c.name: c for c in validate_regime(r).checks}[
        "no_arbitrage_dual_density"]
    assert not check.heuristic
    return check.passed


def _acceptable_point(r):
    """A loss on the support that the acceptance set accepts, from a
    feasibility LP over its functionals, or None when it accepts none or
    the LP refuses (a zero functional with a bound of -6e-8 is within its
    feasibility tolerance and then fails its certificate)."""
    W, _, bounds, _ = r.lp_rows()
    inc = r.support.included
    n = int(inc.sum())
    sol = _outcome(lambda: linprog.solve(linprog.LpProblem(
        c=np.zeros(n), rows=W[:, inc], senses=[linprog.LE] * W.shape[0],
        rhs=bounds, lower=np.full(n, -math.inf), upper=np.full(n, math.inf))))
    if isinstance(sol, type) or sol.status == "infeasible":
        return None
    x = np.zeros(r.space.size)
    x[inc] = sol.primal
    return x


def _cash_regime(densities, bounds):
    space = ScenarioSpace(["a", "b", "c"], np.array([0.2, 0.3, 0.5]))
    return RiskMeasurementRegime(
        SupportMask.full(space),
        PolyhedralAcceptanceSet(
            tuple(Functional(space, np.array(d)) for d in densities),
            np.array(bounds)),
        SecurityMarket((space.rv(np.full(3, 2.0)),), np.array([1.5])))


@pytest.mark.parametrize("densities, bounds, verdict", [
    # a functional with a positive cash weight: bounded everywhere
    ([[1.0, 2.0, 0.5], [0.0, 3.0, 1.0]], [1.0, -0.5], True),
    # no positive cash weight: unbounded at X = 0
    ([[-1.0, 0.0, -2.0]], [1.0], False),
    # a zero cash weight whose row X = 0 breaks: infeasible at X = 0,
    # unbounded at the first random probe that meets the row
    ([[1.0, -2.0 / 3.0, 0.0], [-1.0, 0.0, -1.0]], [-0.1, 1.0], False),
], ids=["bounded", "unbounded_at_zero", "unbounded_later"])
def test_cash_market_verdicts(densities, bounds, verdict):
    r = _cash_regime(densities, bounds)
    assert _lp_probes(r, 0)[0] is verdict
    assert _no_arbitrage(r) is verdict


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(cash_agents().map(lambda agent: agent[0]), market_agents()),
       st.integers(0, 20))
def test_no_arbitrage_check_is_exact(r, seed):
    passed = _no_arbitrage(r)
    # never passes where a former probe found the requirement unbounded
    probes = _outcome(lambda: _lp_probes(r, seed))
    if not isinstance(probes, type) and not probes[0]:
        assert not passed
    # at an acceptable loss rho's LP is feasible (w = 0), and unbounded
    # exactly when the check fails
    x = _acceptable_point(r)
    if x is not None:
        t = _rho_rows(r, r.lp_rows(), x)[0]
        assert t < math.inf
        assert passed is (t > -math.inf)
