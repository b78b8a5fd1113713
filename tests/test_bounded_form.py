"""AVaR's Rockafellar-Uryasev auxiliaries u >= 0 as column bounds.

The acceptance form (regime._lp_rows) writes AVaR(beta) as its m tail rows
X - tau - u <= 0 and its budget row, with tau free and u >= 0 as bounds on
the columns of u.  The reference kept here is the former row form: the m
rows -u <= 0 between the tail rows and the budget row, 2m + 1 rows in
all, and every column free.  rho's LP (regime._rho_lp, through
regime._rho_rows) and Lambda's sharing LP (market.lambda_batch) over the
bounded form must reach the reference's status, and a value within
CERT_TOL (1 + |value|) of it, on AVaR and expectation agents over markets
that trade more than cash."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare import linprog
from riskshare.errors import DomainError
from riskshare.market import AgentSystem, lambda_batch
from riskshare.regime import (
    AVAR,
    EXPECTATION,
    LawInvariantAcceptanceSet,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
    _rho_rows,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask


def row_form(acc, probs):
    """(W, A, bounds) of the former form: X is acceptable iff
    W X + A a <= bounds for some free auxiliaries a."""
    if isinstance(acc, PolyhedralAcceptanceSet):
        W = acc.weight_matrix()
        return W, np.zeros((W.shape[0], 0)), acc.bounds
    if acc.kind == EXPECTATION:
        return probs[None, :], np.zeros((1, 0)), np.zeros(1)
    m = probs.size
    eye = np.eye(m)
    W = np.vstack([eye, np.zeros((m + 1, m))])
    A = np.zeros((2 * m + 1, 1 + m))
    A[:m, 0], A[:m, 1:], A[m:2 * m, 1:] = -1.0, -eye, -eye
    A[2 * m, 0], A[2 * m, 1:] = 1.0, probs / (1.0 - acc.param)
    return W, A, np.zeros(2 * m + 1)


def solve_free(c, rows, senses, rhs):
    n = len(c)
    sol = linprog.solve(linprog.LpProblem(
        c=c, rows=rows, senses=senses, rhs=rhs,
        lower=np.full(n, -math.inf), upper=np.full(n, math.inf)))
    return sol.status, sol.objective_value


def reference_rho(r, x):
    """(status, value) of rho's LP over the former form."""
    W, A, bounds = row_form(r.acceptance, r.space.probs)
    B = r.market.basis_matrix()
    rows = np.hstack([-(W @ B), A])
    return solve_free(np.concatenate([r.market.prices, np.zeros(A.shape[1])]),
                      rows, [linprog.LE] * rows.shape[0], bounds - W @ x)


def reference_lambda(s, x):
    """(status, value) of the sharing LP over the former forms: per agent
    its supported coordinates, its security coefficients and its free
    auxiliaries, then one row per scenario adding the parts up to x."""
    m = s.space.size
    blocks, costs, bounds = [], [], []
    for r in s.regimes:
        W, A, b = row_form(r.acceptance, r.space.probs)
        inc = r.support.included
        blocks.append(np.hstack([W[:, inc], -(W @ r.market.basis_matrix()),
                                 A]))
        costs.append(np.concatenate([np.zeros(inc.sum()), r.market.prices,
                                     np.zeros(A.shape[1])]))
        bounds.append(b)
    J = sum(b.shape[0] for b in blocks)
    rows = np.zeros((J + m, sum(b.shape[1] for b in blocks)))
    row = col = 0
    for r, b in zip(s.regimes, blocks):
        rows[row:row + b.shape[0], col:col + b.shape[1]] = b
        held = np.flatnonzero(r.support.included)
        rows[J + held, col + np.arange(held.size)] = 1.0
        row += b.shape[0]
        col += b.shape[1]
    return solve_free(np.concatenate(costs), rows,
                      [linprog.LE] * J + [linprog.EQ] * m,
                      np.concatenate(bounds + [x]))


def assert_same_outcome(got, ref):
    assert got[0] == ref[0]
    if ref[0] == "optimal":
        assert abs(got[1] - ref[1]) <= linprog.CERT_TOL * (1.0 + abs(ref[1]))


@st.composite
def markets(draw):
    """(space, market, density, rng): 2-6 equally likely scenarios and a
    market of 1-3 random payoffs, the first one cash in some draws but
    never cash alone, priced by the density: 1 (the expectation) or a
    random positive density of mass one."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 6))
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)),
                          np.full(m, 1.0 / m))
    with_cash = draw(st.booleans())
    k = draw(st.integers(2 if with_cash else 1, min(3, m)))
    B = rng.normal(0.0, 1.0, (m, k))
    if with_cash:
        B[:, 0] = 1.0
    density = (np.ones(m) if draw(st.booleans())
               else rng.uniform(0.2, 1.8, m))
    density /= space.probs @ density
    market = SecurityMarket(tuple(space.rv(c) for c in B.T),
                            B.T @ (density * space.probs))
    return space, market, density, rng


def measures():
    return st.one_of(
        st.just(LawInvariantAcceptanceSet(EXPECTATION, 0.0)),
        st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]).map(
            lambda beta: LawInvariantAcceptanceSet(AVAR, beta)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(markets(), measures())
def test_rho_over_the_bounded_form_is_the_row_form(drawn, acc):
    space, market, _, rng = drawn
    r = RiskMeasurementRegime(SupportMask.full(space), acc, market)
    form = r.lp_rows()
    assert form[0].shape[0] == (space.size + 1 if acc.kind == AVAR else 1)
    for x in rng.normal(0.0, 2.0, (3, space.size)):
        t = _rho_rows(r, form, x)[0]
        got = ({math.inf: "infeasible", -math.inf: "unbounded"}.get(
            t, "optimal"), t)
        assert_same_outcome(got, reference_rho(r, x))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(markets(), st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
       st.integers(1, 3))
def test_lambda_over_the_bounded_form_is_the_row_form(drawn, beta, J):
    # an AVaR agent beside a polyhedral one, both holding the one market
    # object, so pi(0) = 0; the polyhedral agent's functionals are the
    # pricing density and J random nonnegative ones, so Lambda is bounded
    # whenever the density lies in AVaR's dual box
    space, market, density, rng = drawn
    m = space.size
    acc = PolyhedralAcceptanceSet(
        tuple(Functional(space, d) for d in
              [density, *rng.uniform(0.0, 2.0, (J, m))]),
        rng.uniform(-1.0, 2.0, J + 1))
    s = AgentSystem((
        RiskMeasurementRegime(SupportMask.full(space),
                              LawInvariantAcceptanceSet(AVAR, beta), market),
        RiskMeasurementRegime(SupportMask.full(space), acc, market)))
    for x in rng.normal(0.0, 2.0, (3, m)):
        try:
            value = float(lambda_batch(s, x[None, :])[0])
            got = ("infeasible" if value == math.inf else "optimal", value)
        except DomainError as refused:
            assert "unbounded below" in str(refused)
            got = ("unbounded", None)
        assert_same_outcome(got, reference_lambda(s, x))
