"""The kernel Newton search runs every row of a batch in lockstep.  Each
row must come out of rho_batch and lambda_batch bitwise as it does alone
and as the scalar search it replaced (kept below as the reference), rows
must leave the batch at their own steps, and a refused row must refuse
as the row loop did: the lowest-index refusal is raised, with the row
loop's exception and message."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare import linprog, regime
from riskshare.errors import (
    DomainError,
    InternalInconsistency,
    NumericalFailure,
    RiskShareError,
)
from riskshare.lawinv import (
    _entropic_param,
    _grouped,
    _kernel_search,
    _system_problem,
    convolution_value,
)
from riskshare.market import AgentSystem, capital_requirement, lambda_batch
from riskshare.problemfile import load_problem
from riskshare.regime import (
    AVAR,
    ENTROPIC,
    LawInvariantAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    _kernel_newton,
    _priced_density,
    _rho_law_invariant,
    _span_basis,
    base_risk_conjugate,
    rho,
    rho_batch,
)
from riskshare.scenario import ScenarioSpace, SupportMask

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# a loss far beyond what the kernel Newton search reaches from eta = 0
# (ROADMAP item 1): its row refuses with "did not converge"
HUGE = 3e10


# ----------------------------------------------------------------------
# the reference: the scalar search, one row at a time
# ----------------------------------------------------------------------

def _reference_newton_terms(probs, D, U, q, w):
    pq = probs * q
    mass = float(U @ pq)
    pw = probs * w
    smooth = float(U @ pw)
    hess = np.zeros((D.shape[1], D.shape[1]))
    if smooth > 0.0:
        G = D - np.outer(U, (D.T @ pw) / smooth)
        hess = (G.T * pw) @ G / mass
    return -(D.T @ pq) / mass, hess


def _reference_damped_step(hess, grad, mu):
    try:
        step = -np.linalg.solve(hess + mu * np.eye(grad.size), grad)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(step)) and float(grad @ step) < 0.0):
        return None
    return step


def _reference_kernel_newton(evaluate, probs, D, U, dual):
    k = D.shape[1]
    eta = np.zeros(k)
    t, q, w = evaluate(eta)
    grad, hess = _reference_newton_terms(probs, D, U, q, w)
    mu, nu = 0.0, 2.0
    for _ in range(100 if k else 0):
        if not np.any(grad):
            break
        step = _reference_damped_step(hess, grad, mu)
        pred = (-float(grad @ step + 0.5 * step @ hess @ step)
                if step is not None else -1.0)
        if 0.0 <= pred <= 1e-14 * (1.0 + abs(t)):
            break
        if pred > 0.0:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    trial = evaluate(eta + step)
            except NumericalFailure:
                trial = (math.nan,)
            gain = (t - trial[0]) / pred
            if gain > 1e-4:
                eta, (t, q, w) = eta + step, trial
                grad, hess = _reference_newton_terms(probs, D, U, q, w)
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu = 2.0
                continue
        mu, nu = max(mu * nu, 1e-3), 2.0 * nu
    else:
        if k:
            raise NumericalFailure("kernel Newton search did not converge")
    for _ in range(8 if k else 0):
        step = _reference_damped_step(hess, grad, 0.0)
        if step is None or np.all(eta + step == eta):
            break
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                t1, q1, w1 = evaluate(eta + step)
        except NumericalFailure:
            break
        g1, h1 = _reference_newton_terms(probs, D, U, q1, w1)
        if not (t1 <= t + 1e-14 * (1.0 + abs(t))
                and np.linalg.norm(g1) <= 0.5 * np.linalg.norm(grad)):
            break
        eta, t, q, w = eta + step, t1, q1, w1
        grad, hess = g1, h1
    gap = t - dual(q)
    if not abs(gap) <= linprog.CERT_TOL * (1.0 + abs(t)):
        raise NumericalFailure(
            f"kernel search stopped with duality gap {gap:.2e}")
    return eta, t, q


def _reference_unit_root(measures, probs, Y, U):
    v, q = convolution_value(measures, probs, Y)
    if np.all(U == U[0]):
        return v / U[0], q
    t = v / float(probs @ U)
    for _ in range(100):
        R = Y - t * U
        v, q = convolution_value(measures, probs, R)
        mass = float(probs @ (q * U))
        step = v / mass
        if abs(step) <= 1e-14 * (1.0 + float(np.max(np.abs(R)))) / mass:
            return t, q
        t += step
    raise NumericalFailure("unit root of the convolution did not converge")


def _reference_search(measures, probs, B, prices, U, price, X):
    """(t, Z, q) of one loss X by the scalar kernel Newton search."""
    D = _span_basis(B @ linprog.null_space(np.reshape(prices, (1, -1))))
    cap = min(ms.dual_cap() for ms in measures)
    alpha = _entropic_param(_grouped(measures)[0])

    def evaluate(eta):
        t, q = _reference_unit_root(measures, probs, X - D @ eta, U)
        return t, q, alpha * q * (q < cap)

    def dual(q):
        scale = price / float(U @ (probs * q))
        q = _priced_density(q, scale, probs, B, prices, cap)
        mass = float(probs @ q)
        conj = sum(base_risk_conjugate(ms.kind, ms.param, probs,
                                       q / mass).as_float()
                   for ms in measures)
        return scale * (float(probs @ (q * X)) - mass * conj) / price

    eta, t, q = _reference_kernel_newton(evaluate, probs, D, U, dual)
    return t, t * U + D @ eta, q


def _assert_rows_match_the_reference(measures, probs, B, prices, U, price,
                                     rows):
    t, Z, q, refusals = _kernel_search(measures, probs, B, prices, U,
                                       price)(rows)
    for i, x in enumerate(rows):
        try:
            ref = _reference_search(measures, probs, B, prices, U, price, x)
        except NumericalFailure as exc:
            assert isinstance(refusals.get(i), NumericalFailure)
            assert str(refusals[i]) == str(exc)
            continue
        except ZeroDivisionError:
            # the scalar search crashed on a trial point whose dual density
            # underflowed to zero; _unit_root now refuses that point, and
            # the search goes on to a certified value
            assert i not in refusals and math.isfinite(t[i])
            continue
        assert i not in refusals
        assert repr(float(t[i])) == repr(float(ref[0]))
        np.testing.assert_array_equal(Z[i], ref[1])
        np.testing.assert_array_equal(q[i], ref[2])


# ----------------------------------------------------------------------
# batches against the reference and against single rows
# ----------------------------------------------------------------------

def _kernel_regime(rng, m, k, cash=True):
    """An entropic agent trading a strictly positive payoff (cash, or one
    that is not constant) and k random payoffs priced by a strictly
    positive density, which leaves a price kernel."""
    probs = rng.uniform(0.2, 1.0, m)
    probs /= probs.sum()
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)), probs)
    d = rng.uniform(0.6, 1.4, m)
    d /= probs @ d
    unit = np.ones(m) if cash else rng.uniform(0.5, 2.0, m)
    payoffs = [unit] + [rng.normal(0.0, 1.0, m) for _ in range(k)]
    market = SecurityMarket(tuple(space.rv(b) for b in payoffs),
                            np.array([probs @ (d * b) for b in payoffs]))
    return RiskMeasurementRegime(
        SupportMask.full(space),
        LawInvariantAcceptanceSet(ENTROPIC, float(rng.uniform(0.3, 2.5))),
        market)


def _scaled_rows(rng, m, exponents):
    """One loss row per exponent, of size about 10 ** exponent."""
    return np.array([rng.normal(0.0, 1.0, m) * 10.0 ** e for e in exponents])


def _row_loop(f, rows):
    """repr of f of each row in turn, or (type, message) of the first
    refusal: what a loop over the rows gives."""
    out = []
    for x in rows:
        try:
            out.append(repr(float(f(x))))
        except RiskShareError as exc:
            return type(exc), str(exc)
    return out


def _batch(f, rows):
    try:
        return [repr(float(v)) for v in f(rows)]
    except RiskShareError as exc:
        return type(exc), str(exc)


def _rho_value(r):
    return lambda x: rho(r, r.space.rv(x)).value.as_float()


def _lambda_value(s):
    return lambda x: capital_requirement(
        s, s.space.rv(x), certify=False).value.as_float()


def _batch_sizes(monkeypatch):
    """Record the number of rows of every evaluation of the search."""
    sizes = []
    evaluate_rows = regime._evaluate_rows

    def spy(evaluate, eta, rows, m):
        sizes.append(rows.size)
        return evaluate_rows(evaluate, eta, rows, m)
    monkeypatch.setattr(regime, "_evaluate_rows", spy)
    return sizes


@pytest.mark.parametrize("seed", range(8))
def test_rho_rows_are_the_scalar_search_bitwise(seed):
    # without cash the unit U is not constant, and _unit_root iterates
    rng = np.random.default_rng(seed)
    m = 2 + seed % 5
    r = _kernel_regime(rng, m, 1 + seed % (m - 1), cash=seed % 2 == 0)
    B = r.market.basis_matrix()
    _, w_u = r.market.unit_certificate(r.support.included)
    rows = _scaled_rows(rng, m, (-4, -1, 0, 0, 1, 2, 11))
    _assert_rows_match_the_reference((r.acceptance,), r.space.probs, B,
                                     r.market.prices, B @ w_u, 1.0, rows)


def _mixed_kernel_system():
    # the spread 1_{a,b} - 1_{c,d} at price 0 leaves a kernel direction;
    # the AVaR cap clips the dual density, where the curvature is zero
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    market = SecurityMarket((space.rv(np.ones(4)),
                             space.rv(np.array([1.0, 1.0, -1.0, -1.0]))),
                            np.array([1.0, 0.0]))
    return AgentSystem(tuple(
        RiskMeasurementRegime(SupportMask.full(space),
                              LawInvariantAcceptanceSet(kind, param), market)
        for kind, param in ((AVAR, 0.4), (ENTROPIC, 1.5))))


@pytest.mark.parametrize("build", [
    lambda: load_problem(FIXTURES / "entropic_pair.json").system(),
    lambda: load_problem(FIXTURES / "avar_entropic.json").system(),
    _mixed_kernel_system,
], ids=["entropic_pair", "avar_entropic", "mixed_kernel"])
def test_lambda_rows_are_the_scalar_search_bitwise(build):
    prob = _system_problem(build())
    probs = prob.space.probs
    span = _span_basis(prob.stacked_matrix())
    rows = _scaled_rows(np.random.default_rng(17), prob.space.size,
                        (-3, -1, 0, 0, 1, 2, 3))
    _assert_rows_match_the_reference(
        prob.measures, probs, span, prob.p * (probs * prob.q) @ span,
        np.ones(prob.space.size), prob.p, rows)


def test_rho_batch_rows_leave_at_their_own_steps_bitwise(monkeypatch):
    rng = np.random.default_rng(131)
    for m, k in ((3, 1), (5, 2), (6, 3)):
        r = _kernel_regime(rng, m, k)
        rows = _scaled_rows(rng, m, (-4, -1, 0, 1, 2))
        sizes = _batch_sizes(monkeypatch)
        batch = _batch(lambda x: rho_batch(r, x), rows)
        monkeypatch.undo()
        assert batch == _row_loop(_rho_value(r), rows), (m, k)
        # the rows converged at different steps and left the batch
        assert sizes[0] == len(rows) and min(sizes) < len(rows), sizes


@pytest.mark.parametrize("name", ["entropic_pair", "avar_entropic"])
def test_lambda_batch_is_capital_requirement_bitwise_across_scales(name):
    # avar_entropic clips the dual density at the AVaR cap, where the
    # curvature density is zero
    s = load_problem(FIXTURES / f"{name}.json").system()
    rng = np.random.default_rng(7)
    rows = _scaled_rows(rng, s.space.size, (-3, -1, 0, 0, 1, 2, 3))
    fresh = load_problem(FIXTURES / f"{name}.json").system()
    assert (_batch(lambda x: lambda_batch(s, x), rows)
            == _row_loop(_lambda_value(fresh), rows))


def test_a_refused_middle_row_refuses_as_the_row_loop_does():
    s = load_problem(FIXTURES / "entropic_pair.json").system()
    fund = s.regimes[0]
    rows = np.array([[1.5, -0.4], [HUGE, 0.0], [0.3, 2.0]])
    for batch, single in ((lambda x: rho_batch(fund, x), _rho_value(fund)),
                          (lambda x: lambda_batch(s, x), _lambda_value(s))):
        refusal = _batch(batch, rows)
        assert refusal == _row_loop(single, rows)
        assert refusal == (NumericalFailure,
                           "kernel Newton search did not converge")
    # the other rows' outcomes are those of a batch of one
    search = _rho_law_invariant(fund)
    t, Z, q, refusals = search(rows)
    assert list(refusals) == [1] and isinstance(refusals[1], NumericalFailure)
    assert np.isnan(t[1])
    for k in (0, 2):
        t1, Z1, q1, _ = search(rows[k:k + 1])
        assert repr(float(t[k])) == repr(float(t1[0]))
        np.testing.assert_array_equal(Z[k], Z1[0])
        np.testing.assert_array_equal(q[k], q1[0])


# t*(eta) = log E[e^{X - D eta}] on three scenarios, one row per loss;
# rows 1 to 3 fail by their row and their point alone
_PROBS = np.array([0.2, 0.3, 0.5])
_BASIS = (np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]])
          / np.array([math.sqrt(2.0), math.sqrt(6.0)]))
_LOSSES = np.array([[1.0, -1.0, 0.5], [3.0, -3.0, 0.0], [0.2, 0.1, -0.1],
                    [6.0, -2.0, 1.0], [9.0, 0.0, -4.0], [0.2, 0.1, -0.1]])


def _synthetic_search(rows, failed):
    """_kernel_newton over the losses `rows` of _LOSSES.  Row 1 is refused
    at its first evaluation, row 2 at its first trial point, and every
    trial point of row 3 with eta[0] > 100 fails with NumericalFailure
    (recorded in `failed`).  Returns (eta, t, q, errors, evaluations)."""
    rows = np.asarray(rows)
    calls = []

    def evaluate(eta, at):
        calls.append(at.size)
        for row, e in zip(rows[at].tolist(), eta.tolist()):
            if row == 1:
                raise DomainError("row 1 has no value")
            if row == 2 and any(e):
                raise InternalInconsistency("row 2 broke at a trial point")
            if row == 3 and e[0] > 100.0:
                failed.append(e[0])
                raise NumericalFailure("row 3 overflowed")
        y = _LOSSES[rows[at]] - (_BASIS @ eta[..., None])[..., 0]
        v = np.log(np.vecdot(np.exp(y), _PROBS))
        q = np.exp(y - v[:, None])
        return v, q, q

    def dual(at, q):
        x = _LOSSES[rows[at]]
        return float(_PROBS @ (q * x)) - float(_PROBS @ (q * np.log(q)))

    return (*_kernel_newton(evaluate, dual, _PROBS, _BASIS, np.ones(3),
                            rows.size), len(calls))


def test_kernel_newton_rows_keep_their_own_bookkeeping():
    failed = []
    eta, t, q, errors, _ = _synthetic_search(range(len(_LOSSES)), failed)
    # row 3's overshooting trial points failed and only refused the step
    assert failed and errors[3] is None
    assert isinstance(errors[1], DomainError)
    assert str(errors[1]) == "row 1 has no value"
    assert isinstance(errors[2], InternalInconsistency)
    assert str(errors[2]) == "row 2 broke at a trial point"
    steps = []
    for row in range(len(_LOSSES)):
        eta1, t1, q1, errors1, calls = _synthetic_search([row], [])
        assert type(errors1[0]) is type(errors[row])
        assert str(errors1[0]) == str(errors[row])
        if errors[row] is not None:
            assert np.isnan(eta[row]).all() and np.isnan(t[row])
            assert np.isnan(q[row]).all()
            continue
        steps.append(calls)
        assert eta[row].tobytes() == eta1[0].tobytes()
        assert t[row].tobytes() == t1[0].tobytes()
        assert q[row].tobytes() == q1[0].tobytes()
    # the certified rows left the batch at different steps
    assert len(set(steps)) >= 3, steps


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 6),
       exponents=st.lists(st.sampled_from([-3, -1, 0, 1, 2, 11]),
                          min_size=1, max_size=5))
def test_rho_batch_is_the_row_loop(seed, m, exponents):
    rng = np.random.default_rng(seed)
    r = _kernel_regime(rng, m, int(rng.integers(1, m)))
    rows = _scaled_rows(rng, m, exponents)
    assert _batch(lambda x: rho_batch(r, x), rows) == _row_loop(
        _rho_value(r), rows)
