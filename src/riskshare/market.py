"""Agent systems and the market-level risk sharing machinery.

An agent system is an ordered family of risk measurement regimes on one
scenario space whose markets price shared securities consistently.  It
induces a representative agent: the aggregate acceptance set (Minkowski
sum), the aggregate security space  M = S_1 + ... + S_n  with the glued
price functional pi, and the sharing functional

    Lambda(X) = inf { sum_i rho_i(X_i) : X_1 + ... + X_n = X,
                      X_i in agent i's support ideal }.

Lambda is finite and exact (the infimum is attained by an allocation whose
risks sum to it) exactly in the no-scalable-arbitrage case pi(0) = 0, which
holds exactly when some linear functional prices every agent's securities.
A sharing command, and validate's cone LP, reads such a functional off its
own first LP (the loss's shadow prices -M^T lambda of the sharing LP, or
the law-invariant pricing density); only where none comes back is the
dichotomy pi(0) in {0, -inf} decided by the zero-sum price LP, unbounded
exactly when some zero-sum combination of the distinct markets' payoffs
has a negative price.

The sharing LP has no row per scenario: each scenario's holder, the first
agent whose support holds it, takes the remainder of the loss there, so
the LP is the agents' acceptance rows alone and the loss enters only their
right-hand side (_sharing_lp).
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linprog
from .errors import (
    DomainError,
    InternalInconsistency,
    NumericalFailure,
    RiskShareError,
    StructuralError,
)
from .regime import (
    ENTROPIC,
    RiskValue,
    ValidationReport,
    _arbitrage_verdict,
    _zero_sum_prices,
    rho,
)
from .scenario import Functional, RandomVariable, ScenarioSpace

__all__ = [
    "AgentSystem",
    "Allocation",
    "SharingResult",
    "NsaResult",
    "validate_star",
    "nsa_check",
    "capital_requirement",
    "lambda_batch",
    "selection_blocks",
    "shift_allocation",
]

SPAN_TOL = 1e-10


@dataclass(frozen=True)
class AgentSystem:
    """n >= 2 regimes on a common scenario space."""

    regimes: tuple

    def __post_init__(self):
        regimes = tuple(self.regimes)
        object.__setattr__(self, "regimes", regimes)
        if len(regimes) < 2:
            raise StructuralError("agent system needs at least two agents")
        space = regimes[0].space
        for r in regimes[1:]:
            if r.space.labels != space.labels or not np.array_equal(
                r.space.probs, space.probs
            ):
                raise StructuralError("agents live on different scenario spaces")
        cover = np.zeros(space.size, dtype=bool)
        for r in regimes:
            cover |= r.support.included
        if not cover.all():
            raise StructuralError(
                "agent supports must jointly cover the scenario space"
            )

    @property
    def space(self) -> ScenarioSpace:
        return self.regimes[0].space

    @property
    def n(self) -> int:
        return len(self.regimes)

    @property
    def is_law_invariant(self) -> bool:
        return all(r.is_law_invariant for r in self.regimes)

    # ---- aggregate security space --------------------------------------

    def stacked_basis(self):
        """(B, prices, slices): B has one column per basis payoff of every
        agent in order; slices[i] selects agent i's columns.  Built once
        and cached on the system; B and prices are read-only."""
        cached = getattr(self, "_stacked_basis", None)
        if cached is not None:
            return cached
        cols, prices, slices = [], [], []
        start = 0
        for r in self.regimes:
            B = r.market.basis_matrix()
            cols.append(B)
            prices.append(r.market.prices)
            slices.append(slice(start, start + B.shape[1]))
            start += B.shape[1]
        B, prices = np.hstack(cols), np.concatenate(prices)
        B.flags.writeable = prices.flags.writeable = False
        cached = B, prices, tuple(slices)
        object.__setattr__(self, "_stacked_basis", cached)
        return cached

    def market_answer(self, kept, solve):
        """A market-only answer of the system, over its distinct market
        objects: when every agent holds one market object, kept(market),
        the answer that market keeps; else solve(B, prices) over the
        stacked columns of the distinct markets in agent order.  A market
        held by several agents would only repeat (payoff, price) columns,
        which change no feasible set, optimum or status, and add only
        zero-sum combinations of price zero."""
        markets = list({id(r.market): r.market
                        for r in self.regimes}.values())
        if len(markets) == 1:
            return kept(markets[0])
        return solve(np.hstack([mk.basis_matrix() for mk in markets]),
                     np.concatenate([mk.prices for mk in markets]))


@dataclass(frozen=True)
class Allocation:
    """One loss profile per agent, each inside that agent's support ideal."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def total(self) -> np.ndarray:
        return np.sum([p.values for p in self.parts], axis=0)


# ----------------------------------------------------------------------
# (★): price agreement on intersections + connectivity
# ----------------------------------------------------------------------

def pair_intersection(s: AgentSystem, i: int, j: int):
    """Basis of S_i ∩ S_j as payoff columns, with the coefficient
    representations (u over S_i's basis, v over S_j's)."""
    Bi = s.regimes[i].market.basis_matrix()
    Bj = s.regimes[j].market.basis_matrix()
    ns = linprog.null_space(np.hstack([Bi, -Bj]))
    ki = Bi.shape[1]
    vectors, us, vs = [], [], []
    for col in range(ns.shape[1]):
        u, v = ns[:ki, col], ns[ki:, col]
        z = Bi @ u
        if np.max(np.abs(z)) > SPAN_TOL:
            vectors.append(z)
            us.append(u)
            vs.append(v)
    return vectors, us, vs


def validate_star(s: AgentSystem) -> ValidationReport:
    """Check price agreement on pairwise security-span intersections and
    connectivity of the nontrivial-price relation graph.  A system that
    is not fully law-invariant shares through the sharing LP
    (_sharing_lp); when an agent has no LP rows for it, a failing
    `sharing_lp_rows` check carries the refusal.  Otherwise the sharing LP
    with every right-hand side 0 runs over the acceptance cones: it is
    feasible at 0, so it is unbounded exactly when Lambda is unbounded
    below wherever it is finite, and when pi(0) = 0 (_verdict) that
    refusal is a failing `sharing_functional_bounded` check.  When it is
    optimal, its shadow prices -M^T lambda go to _verdict, as a sharing
    command's do, so nsa_check solves no zero-sum price LP where they
    price every security."""
    rep = ValidationReport()
    n = s.n
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    worst = 0.0
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        vectors, us, vs = pair_intersection(s, i, j)
        nontrivial_price = False
        for z, u, v in zip(vectors, us, vs):
            pi_ = s.regimes[i].market.price(u)
            pj_ = s.regimes[j].market.price(v)
            scale = max(1.0, abs(pi_), abs(pj_))
            worst = max(worst, abs(pi_ - pj_) / scale)
            if abs(pi_) > 1e-10:
                nontrivial_price = True
        if vectors and nontrivial_price:
            edges.append((i, j))
            parent[find(i)] = find(j)
    connected = len({find(a) for a in range(n)}) == 1
    rep.add("price_agreement_on_intersections", worst <= 1e-10,
            f"max relative price disagreement = {worst:.2e}")
    rep.add("relation_graph_connected", connected,
            f"edges: {edges}")
    if not s.is_law_invariant:
        try:
            cone, layout = _sharing_lp(s, np.zeros(s.space.size))
        except DomainError as exc:
            rep.add("sharing_lp_rows", False, str(exc))
            return rep
        cone.rhs[:] = 0.0
        sol = linprog.solve(cone)
        if sol.optimal:
            _verdict(s, layout.prices(sol.duals))
        elif sol.status == "unbounded" and _verdict(s)[0]:
            rep.add("sharing_functional_bounded", False,
                    str(_unbounded_sharing()))
    return rep


# ----------------------------------------------------------------------
# the pi(0) dichotomy
# ----------------------------------------------------------------------

@dataclass
class NsaResult:
    dim_v: int
    n_agents: int
    lp_status: str
    pi_zero_is_zero: bool

    def verdict(self) -> str:
        return "pi(0)=0" if self.pi_zero_is_zero else "pi(0)=-inf"


def _verdict(s: AgentSystem, phi=None):
    """The verdict of the pi(0) dichotomy for `s` as (pi(0) = 0, status of
    the zero-sum price LP), decided on the first call and kept on the
    system.  A sharing command passes the scenario weights `phi` its first
    LP returned (None when it returned none): the loss's shadow prices of
    the sharing LP, or the law-invariant pricing density.  When phi
    prices every column j of the stacked basis,

        |B_j . phi - prices_j| <= CERT_TOL (1 + |prices_j| + |phi| . |B_j|),

    every zero-sum combination of the securities has the price phi gives
    its zero payoff, so pi(0) = 0 (LP duality: Chvatal, Linear
    Programming, 1983) and the zero-sum price LP would be optimal: the
    verdict is (True, "optimal").  Otherwise it is
    regime._arbitrage_verdict, the one LP, over the system's distinct
    market objects, computed once per market set: the kept answer of the
    market when every agent holds one market object; how many agents hold
    each market does not enter it."""
    verdict = s.__dict__.get("_verdict")
    if verdict is None:
        B, prices, _ = s.stacked_basis()
        if phi is not None and np.all(
                np.abs(phi @ B - prices) <= linprog.CERT_TOL * (
                    1.0 + np.abs(prices) + np.abs(phi) @ np.abs(B))):
            verdict = (True, "optimal")
        else:
            verdict = s.market_answer(lambda mk: mk.arbitrage_verdict(),
                                      _arbitrage_verdict)
        object.__setattr__(s, "_verdict", verdict)
    return verdict


def nsa_check(s: AgentSystem) -> NsaResult:
    """The report of the dichotomy: pi(0) = 0 iff every zero-sum
    combination of the payoffs of the system's distinct markets has zero
    price, that is, iff the zero-sum price LP, whose status is lp_status,
    is not unbounded (the verdict, _verdict); otherwise pi(0) = -inf.
    After a sharing command certified pi(0) = 0 the verdict is kept and
    lp_status is "optimal", the status that LP has whenever pi(0) = 0.

    dim_v is the rank of V, the set of per-agent price vectors
    (v_1, ..., v_n) of zero-sum security allocations, within
    1e-10 max(1, |V|max) (regime._zero_sum_prices with one row per
    agent); dim(V) < n is necessary for pi(0) = 0, not sufficient.  V
    needs a null-space SVD of the stacked basis, which only this report
    pays for: the verdict, which every sharing command asks, needs
    neither V nor its rank.
    """
    vanishes, status = _verdict(s)
    V, tol = _zero_sum_prices(*s.stacked_basis())
    return NsaResult(dim_v=int(np.linalg.matrix_rank(V, tol=tol)),
                     n_agents=s.n, lp_status=status, pi_zero_is_zero=vanishes)


def _ensure_shareable(s: AgentSystem, phi=None):
    """Refuse a system with scalable arbitrage by its verdict
    (_verdict(s, phi)), which solves the zero-sum price LP unless a
    verdict is kept or the weights phi certify pi(0) = 0."""
    if not _verdict(s, phi)[0]:
        raise DomainError(
            "system admits scalable arbitrage (pi(0) = -inf); the sharing "
            "functional is identically -inf"
        )


@contextlib.contextmanager
def _verdict_first(s: AgentSystem):
    """Around a sharing command's first LP: a refusal raised there comes
    after the arbitrage refusal, so a system with pi(0) = -inf is refused
    as such whichever step fails first."""
    try:
        yield
    except RiskShareError:
        _ensure_shareable(s)
        raise


# ----------------------------------------------------------------------
# Lambda
# ----------------------------------------------------------------------

@dataclass
class SharingResult:
    value: RiskValue
    allocation: Allocation = None
    payoff: RandomVariable = None          # an optimal aggregate payoff
    subgradient: Functional = None         # -M^T lambda / P (joint LP)
    agent_risks: list = None               # certified per-part risks
    method: str = "joint_lp"
    dual_degenerate: bool = False          # subgradient may be non-unique


def _law_invariant_path(s: AgentSystem) -> bool:
    """Whether s shares on the law-invariant engine (lawinv) rather than
    the joint LP: every agent is law-invariant, and one is entropic,
    which the joint LP cannot state, or the aggregate span holds the
    unit, which lawinv's pricing form needs (lawinv._system_span, cached
    on the system and reused by that form).  capital_requirement,
    lambda_batch and equilibrium's sharing route by it."""
    if not s.is_law_invariant:
        return False
    if any(r.acceptance.kind == ENTROPIC for r in s.regimes):
        return True
    from . import lawinv
    return lawinv._system_span(s) is not None


def capital_requirement(s: AgentSystem, X: RandomVariable,
                        certify: bool = True) -> SharingResult:
    """Lambda(X) with a Pareto-optimal allocation and an optimal payoff.

    Fully law-invariant systems route through the law-invariant
    machinery, whose market-only work is done once per system
    (lawinv._system_problem), unless they are entropic-free and their
    aggregate span lacks the unit (_law_invariant_path); any other
    system solves one joint LP (_sharing_lp), which refuses an entropic
    agent.  Either path decides pi(0) from its first LP
    (_ensure_shareable) and refuses scalable arbitrage before any other
    refusal.  On the joint LP the parts are its
    free coordinates and each holder's remainder (_SharingLayout.parts),
    whose sum must still be the loss within 1e-9 (a remainder can lose a
    small coordinate to cancellation against huge parts), and the
    subgradient is the loss's shadow prices -M^T lambda over the
    probabilities.  With `certify`, every agent's rho of its part is
    certified (agent_risks), and the risks must sum to the value within
    CERT_TOL (1 + |sum|); without it agent_risks is None.  On the joint LP
    rho takes its agent's block of the optimal solution as the certificate
    of its own LP (_SharingLayout.certificates) and solves that LP only
    where the certificate fails a check, so an agent's risk there carries
    the sharing LP's certificate, not the bits of a solve of its own.  On
    the law-invariant path rho takes the coefficients of its agent's
    security and the sharing's subgradient, which bracket it by weak
    duality (regime.rho), so no agent searches unless its bracket is too
    wide; a cash agent answers by its closed form.  A caller that needs
    only the value uses lambda_batch.
    """
    if X.space.labels != s.space.labels:
        raise StructuralError("loss profile on a different scenario space")
    if _law_invariant_path(s):
        from . import lawinv
        return lawinv.law_invariant_sharing(s, X, certify)
    return _capital_requirement_lp(s, X, certify)[0]


@dataclass(frozen=True)
class _SharingLayout:
    """The layout of a sharing LP (_sharing_lp).  The loss enters only the
    right-hand side  bounds - M target,  and an optimal solution's duals
    lambda give the loss's shadow prices  -M^T lambda  (prices)."""

    bounds: np.ndarray        # the acceptance rows' bounds, in agent order
    M: np.ndarray             # W_h[:, w] in holder h's rows, column w
    holder: np.ndarray        # the agent holding each scenario
    free: tuple               # per agent, the scenarios of its coordinates
    starts: tuple             # per agent, its first column
    row_starts: tuple         # per agent, its first acceptance row

    def rhs(self, targets):
        """bounds - M target: the right-hand side for one loss, or one row
        of right-hand sides per row of a batch of losses."""
        return self.bounds - targets @ self.M.T

    def prices(self, duals):
        """The loss's shadow prices  phi = -M^T lambda  of rows' duals."""
        return -(duals @ self.M)

    def parts(self, primal, target):
        """The parts of `target` that `primal` holds, one row per agent:
        the free coordinates first, then each holder's remainder
        target[w] - (the other agents' coordinates at w)."""
        parts = np.zeros((len(self.free), target.size))
        for i, (f, o) in enumerate(zip(self.free, self.starts)):
            parts[i, f] = primal[o:o + f.size]
        parts[self.holder, np.arange(target.size)] = (
            target - parts.sum(axis=0))
        return parts

    def certificates(self, primal, duals):
        """Per agent i of the sharing LP, the certificate (x_i, y_i)
        that an optimal solution's block gives i's own rho LP
        (RiskMeasurementRegime.rho_lp) at its part: x_i its z_i and
        auxiliaries, y_i its rows' duals.  Those columns meet no other
        agent's rows, so y_i is dual feasible for i's LP, and
        complementary slackness holds there row for row (the block
        decomposition of a block-angular LP's dual: Dantzig and Wolfe,
        Oper. Res. 8 (1960))."""
        cols = zip(self.starts, self.starts[1:] + (primal.size,))
        rows = zip(self.row_starts, self.row_starts[1:] + (duals.size,))
        return [(primal[o + f.size:end], duals[a:b])
                for f, (o, end), (a, b) in zip(self.free, cols, rows)]


def _sharing_lp(s: AgentSystem, target: np.ndarray):
    """The sharing LP of `s` in allocation form: each agent's part lies in
    its acceptance set up to its own securities B_i z_i, priced by its
    market, and the parts add up to `target` scenario by scenario.  Every
    agent enters through its LP form (RiskMeasurementRegime.lp_rows), so
    polyhedral, AVaR and expectation agents share here; an entropic agent
    has no such form and is refused.

    The parts add up to the target without a row for it: the holder h(w)
    of scenario w, the first agent in system order whose support holds
    w, takes the remainder  X_h[w] = target[w] - sum_{j != h} X_j[w],
    substituted into h's acceptance rows (the free-column substitution of
    presolve: Andersen and Andersen, Math. Prog. 71 (1995)).  M holds
    W_h[:, w] in h's rows for every scenario w that h holds, so the
    right-hand side is  bounds - M target.

    Columns: per agent i the coordinates X_i[w] of its supported scenarios
    that it does not hold, in scenario order, then its own z_i, then its
    auxiliaries a_i >= aux_lower_i; every other column is free.  Rows, all
    <=: the acceptance blocks  W_i[:, free_i] | -W_i B_i | A_i,
    block-diagonal in agent order, with -W_h[:, w] in holder h's rows of
    each column X_j[w].  The part  -W_i B_i | A_i, with its cost (p_i, 0)
    and its column bounds, is the agent's own rho LP, kept on its regime
    (RiskMeasurementRegime.rho_block), so W B is the full product, not
    W[:, inc] B[inc], which can differ in the last bit.

    Returns (LpProblem, _SharingLayout).
    """
    m = s.space.size
    forms = [r.lp_rows() for r in s.regimes]
    own = [r.rho_block() for r in s.regimes]
    holder = np.argmax([r.support.included for r in s.regimes], axis=0)
    J = sum(W.shape[0] for W, _, _, _ in forms)
    M = np.zeros((J, m))
    free, row_starts, row = [], [], 0
    for i, (r, (W, _, _, _)) in enumerate(zip(s.regimes, forms)):
        held = holder == i
        row_starts.append(row)
        M[row:row + W.shape[0], held] = W[:, held]
        free.append(np.flatnonzero(r.support.included & ~held))
        row += W.shape[0]
    rows = np.zeros((J, sum(f.size + b[1].size for f, b in zip(free, own))))
    c = np.zeros(rows.shape[1])
    lower = np.full(rows.shape[1], -math.inf)
    starts, col = [], 0
    for (W, _, _, _), f, (b, cost, low), row in zip(forms, free, own,
                                                    row_starts):
        # agent i's own columns (z_i, a_i) are its rho LP's, rows and all
        end = col + f.size + cost.size
        rows[row:row + W.shape[0], col:col + f.size] = W[:, f]
        rows[row:row + W.shape[0], col + f.size:end] = b
        rows[:, col:col + f.size] -= M[:, f]
        c[col + f.size:end] = cost
        lower[col + f.size:end] = low
        starts.append(col)
        col = end
    layout = _SharingLayout(
        np.concatenate([bounds for _, _, bounds, _ in forms]), M, holder,
        tuple(free), tuple(starts), tuple(row_starts))
    return linprog.LpProblem(
        c=c, rows=rows, senses=[linprog.LE] * J, rhs=layout.rhs(target),
        lower=lower, upper=np.full(rows.shape[1], math.inf)), layout


def _unbounded_sharing() -> DomainError:
    """The refusal of a sharing LP unbounded below once pi(0) = 0 is known:
    the LP's dual is infeasible, so no scenario weights price every
    agent's securities and stay bounded above on every agent's acceptance
    set, and Lambda = -inf."""
    return DomainError(
        "the sharing functional is unbounded below on this system: no "
        "scenario weights price every agent's securities and stay bounded "
        "on every agent's acceptance set"
    )


def _check_allocation_sum(total, target):
    """Refuse parts whose sum `total` misses the loss `target` by more
    than 1e-9 times max(1, |target|_inf), the scale that block_decompose
    uses."""
    resid = float(np.abs(total - target).max(initial=0.0))
    if resid > 1e-9 * max(1.0, float(np.abs(target).max(initial=0.0))):
        raise InternalInconsistency(f"allocation sums off by {resid:.2e}")


def _capital_requirement_lp(s, X, certify):
    """capital_requirement on the joint LP, with the sharing LP it solved:
    (SharingResult, (LpProblem, _SharingLayout, LpSolution)).  The LP is
    handed back apart from the result, which keeps no reference to it, so
    a caller that holds many results holds no LP (build_equilibrium reads
    it at the endowment)."""
    space = s.space
    m = space.size
    with _verdict_first(s):
        lp, layout = _sharing_lp(s, X.values)
        sol = linprog.solve(lp)
    # the X_i and z_i columns are free, so the loss's optimal shadow
    # prices price each agent's payoffs that vanish off its support
    phi = layout.prices(sol.duals) if sol.optimal else None
    _ensure_shareable(s, phi)

    if sol.status == "infeasible":
        return SharingResult(value=RiskValue.infinite()), (lp, layout, sol)
    if sol.status == "unbounded":
        raise _unbounded_sharing()

    certificates = layout.certificates(sol.primal, sol.duals)
    payoff_vals = np.zeros(m)
    for r, (x, _) in zip(s.regimes, certificates):
        payoff_vals += r.market.basis_matrix() @ x[:r.market.dim]
    alloc = Allocation(tuple(RandomVariable(space, p) for p in
                             layout.parts(sol.primal, X.values)))
    _check_allocation_sum(alloc.total(), X.values)

    subgrad = Functional(space, phi / space.probs)

    agent_risks = None
    if certify:
        agent_risks = [rho(r, p, c).value for r, p, c in
                       zip(s.regimes, alloc.parts, certificates)]
        total = sum(v.as_float() for v in agent_risks)
        if abs(total - sol.objective_value) > linprog.CERT_TOL * (
                1 + abs(total)):
            raise InternalInconsistency(
                f"sum of certified agent risks {total} != LP value "
                f"{sol.objective_value}"
            )
    return SharingResult(
        value=RiskValue.finite(sol.objective_value),
        allocation=alloc,
        payoff=RandomVariable(space, payoff_vals),
        subgradient=subgrad,
        agent_risks=agent_risks,
        dual_degenerate=sol.degenerate,
    ), (lp, layout, sol)


def lambda_batch(s: AgentSystem, targets) -> np.ndarray:
    """Lambda of each row of `targets` (one aggregate loss per row), +inf
    where no acceptable decomposition exists; once pi(0) = 0 is known an
    unbounded sharing LP is refused with a DomainError (Lambda is
    unbounded below on the system), as capital_requirement refuses it.

    A system that is not fully law-invariant builds its sharing LP once.
    The loss enters only the right-hand side  bounds - M X  of its rows,
    so linprog.solve_batch solves one LP per optimal basis and screens
    the other rows; the loss's shadow prices -M^T lambda of its first
    optimal solve decide pi(0) (_ensure_shareable).  With no scenario row
    there is no allocation sum to check.  A system on the law-invariant
    path (_law_invariant_path), whose pricing density decides pi(0),
    prices all rows with one kernel search on its cached market-only
    preamble (lawinv.law_invariant_value; the kernel Newton search runs
    the rows in lockstep): each row's primal
    certificate is lawinv._unwind's acceptable parts of X - Z, and there
    is no allocation, per-agent rho or subgradient.  Its values are
    capital_requirement's, bitwise, and so are its refusals, the first
    refused row raising."""
    targets = np.asarray(targets, dtype=float)
    m = s.space.size
    if targets.ndim != 2 or targets.shape[1] != m:
        raise StructuralError(f"loss profiles must form an (N, {m}) array")
    if not np.all(np.isfinite(targets)):
        raise StructuralError("loss profiles must be finite")
    if _law_invariant_path(s):
        from . import lawinv
        return lawinv.law_invariant_value(s, targets)
    with _verdict_first(s):
        lp, layout = _sharing_lp(s, np.zeros(m))
        batch = linprog.solve_batch(lp, layout.rhs(targets))
    _ensure_shareable(s, None if batch.duals is None
                      else layout.prices(batch.duals))
    if "unbounded" in batch.status:
        raise _unbounded_sharing()
    return batch.objective_value


def _coordinate_moves(x, scenarios, steps) -> np.ndarray:
    """One copy of x per (scenario, step) pair, that scenario moved by that
    step: the probe rows of the finite-difference checks and of an
    equilibrium's interior test."""
    rows = np.repeat(x[None, :], len(steps), axis=0)
    rows[np.arange(len(steps)), scenarios] += steps
    return rows


# ----------------------------------------------------------------------
# the continuous security selection
# ----------------------------------------------------------------------

def selection_blocks(bases) -> list:
    """Per-agent column selections forming a direct-sum decomposition of
    the aggregate span: walk the agents in order and keep every basis
    column that enlarges the span covered so far.  Kept columns are the
    agents' own payoffs, so each block lies inside its agent's span."""
    blocks = []
    qacc = np.zeros((bases[0].shape[0], 0))
    for B in bases:
        kept = []
        for j in range(B.shape[1]):
            col = B[:, j]
            resid = col - qacc @ (qacc.T @ col) if qacc.shape[1] else col
            norm = np.linalg.norm(resid)
            if norm > SPAN_TOL * max(1.0, np.linalg.norm(col)):
                kept.append(col)
                qacc = np.hstack([qacc, (resid / norm)[:, None]])
        blocks.append(np.column_stack(kept) if kept
                      else np.zeros((B.shape[0], 0)))
    return blocks


def block_decompose(blocks, values) -> list:
    """Split a vector of the aggregate span along the direct-sum blocks.
    The stacked kept columns have full column rank, so the coefficients
    are unique and the parts sum back exactly.  The least squares runs on
    columns scaled to about unit norm, so payoffs of very different scales
    lose no accuracy; each scale is the power of two nearest the inverse
    norm, which makes the scaling itself exact."""
    stacked = np.hstack([b for b in blocks if b.shape[1]])
    scale = np.exp2(-np.round(np.log2(np.linalg.norm(stacked, axis=0))))
    coeffs = scale * np.linalg.lstsq(stacked * scale, values, rcond=None)[0]
    resid = float(np.max(np.abs(stacked @ coeffs - values)))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(values)))):
        raise NumericalFailure(f"selection parts sum off by {resid:.2e}")
    parts, at = [], 0
    for b in blocks:
        k = b.shape[1]
        parts.append(b @ coeffs[at:at + k] if k else np.zeros(len(values)))
        at += k
    return parts


def shift_allocation(s: AgentSystem, alloc: Allocation, i: int, j: int,
                     amount: float) -> Allocation:
    """One-parameter Pareto family: move `amount * direction` from agent j
    to agent i along the first nontrivially-priced vector of S_i ∩ S_j.
    Total risk is preserved because both agents price the direction
    identically; certified before returning."""
    vectors, us, _ = pair_intersection(s, i, j)
    cand = [z for z, u in zip(vectors, us)
            if abs(s.regimes[i].market.price(u)) > 1e-10]
    if not cand:
        raise DomainError(
            f"agents {i} and {j} share no nontrivially priced securities"
        )
    direction = RandomVariable(s.space, cand[0])
    before = sum(rho(r, p).value.as_float() for r, p in zip(s.regimes, alloc.parts))
    parts = list(alloc.parts)
    parts[i] = parts[i] + direction * amount
    parts[j] = parts[j] - direction * amount
    for k in (i, j):
        if not s.regimes[k].support.contains(parts[k], tol=1e-9):
            raise DomainError("shifted part leaves an agent's support ideal")
    after = sum(rho(r, p).value.as_float() for r, p in zip(s.regimes, parts))
    if abs(after - before) > 1e-8 * (1 + abs(before)):
        raise DomainError(
            f"shift changed the total risk ({before} -> {after}); the "
            f"direction is not priced consistently"
        )
    return Allocation(tuple(parts))
