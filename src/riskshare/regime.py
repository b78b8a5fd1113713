"""Risk measurement regimes and their risk measures.

A regime bundles three things on a support ideal (coordinate subspace):

* an acceptance set — either polyhedral (finitely many monotone linear
  ceilings) or law-invariant (entropic, average-value-at-risk, or plain
  expectation, each given as the zero-sublevel set of a normalized
  cash-additive base risk measure xi);
* a security market — a finite-dimensional payoff span with a linear
  pricing functional;
* the induced risk measure  rho(X) = inf { price(Z) : Z in span,
  X - Z acceptable }, the least capital that securitizes X.

Values of rho can be +infinity (nothing securitizes X); that case is
carried as an explicit variant, never as a float sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linprog
from .errors import (
    DomainError,
    NumericalFailure,
    RiskShareError,
    StructuralError,
)
from .scenario import (
    Functional,
    RandomVariable,
    ScenarioSpace,
    SupportMask,
    _check_finite,
)

__all__ = [
    "RiskValue",
    "PolyhedralAcceptanceSet",
    "LawInvariantAcceptanceSet",
    "SecurityMarket",
    "RiskMeasurementRegime",
    "RhoResult",
    "CheckResult",
    "ValidationReport",
    "validate_regime",
    "rho",
    "rho_batch",
    "conjugate",
]

PRICE_TOL = 1e-9        # price-consistency decisions in conjugates


# ----------------------------------------------------------------------
# values that may be infinite
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RiskValue:
    """A capital amount in [-inf, +inf] with the infinite cases explicit."""

    kind: str            # "finite" | "infinite"
    value: float = 0.0

    @classmethod
    def finite(cls, v: float) -> "RiskValue":
        if not math.isfinite(v):
            raise StructuralError(f"finite RiskValue from non-finite {v!r}")
        return cls("finite", float(v))

    @classmethod
    def infinite(cls) -> "RiskValue":
        return cls("infinite", math.inf)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def as_float(self) -> float:
        """Float embedding (+inf for the infinite variant)."""
        return self.value if self.is_finite else math.inf

    def __repr__(self):
        return f"RiskValue({self.value!r})" if self.is_finite else "RiskValue(+inf)"


# ----------------------------------------------------------------------
# acceptance sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolyhedralAcceptanceSet:
    """{X : phi_j(X) <= bound_j for all j} with finitely many functionals.

    Monotonicity (acceptable minus a nonnegative loss stays acceptable) is
    certified by all densities being nonnegative; that is checked during
    regime validation rather than raised here, so that constructed
    violations can be reported.
    """

    functionals: tuple
    bounds: np.ndarray

    def __post_init__(self):
        fs = tuple(self.functionals)
        bs = np.asarray(self.bounds, dtype=float)
        object.__setattr__(self, "functionals", fs)
        object.__setattr__(self, "bounds", bs)
        if len(fs) == 0:
            raise StructuralError("polyhedral acceptance set needs >= 1 functional")
        if bs.shape != (len(fs),):
            raise StructuralError("one bound per functional required")
        _check_finite("bound", bs, "functional", range(len(fs)))
        space = fs[0].space
        for f in fs[1:]:
            if f.space is not space and f.space.labels != space.labels:
                raise StructuralError("functionals on mismatched spaces")
        W = np.array([f.weights for f in fs])
        W.flags.writeable = False
        object.__setattr__(self, "_weights", W)
        # phi_j(1); a sum that cancels to a rounding residue is zero
        cash = W.sum(axis=1)
        cash[np.abs(cash) <= 1e-12 * np.abs(W).sum(axis=1)] = 0.0
        object.__setattr__(self, "_cash", cash)

    def weight_matrix(self) -> np.ndarray:
        """Rows are the functionals' per-scenario weights density*probs,
        built once and read-only."""
        return self._weights

    def xi(self, probs: np.ndarray, values: np.ndarray):
        """The least cash amount t with X - t 1 acceptable, for one profile
        (a float) or each row of a batch: the max over functionals with a
        positive cash weight phi_j(1) of (phi_j(X) - b_j) / phi_j(1), +inf
        when no t works, -inf when no functional has a positive cash
        weight (one within 1e-12 sum_w |weight| of zero is zero: the
        rounding residue of a sum that cancels).  The weights already carry
        `probs`.

        A negative cash weight bounds t from above and a zero one holds
        for every t or for none.  Where these leave no t, the set is
        called empty as rho's LP calls it: when a functional that is zero
        in every scenario has a negative bound, or when the least total
        violation of the rows X - 0 breaks, over the t meeting the rows it
        meets (the LP's phase-1 optimum, _least_violation), exceeds
        linprog.PHASE1_TOL.  X - t 1 must meet every row within
        linprog.CERT_TOL (1 + max |X| + |t|), as linprog._certify asks of
        an LP optimum, or NumericalFailure is raised; acceptance margins
        that overflow on a finite X are a StructuralError, as a non-finite
        right-hand side is to linprog.LpProblem."""
        values = np.asarray(values, dtype=float)
        X = values.reshape(-1, values.shape[-1])
        cash = self._cash
        with np.errstate(over="ignore", invalid="ignore"):
            # row by row, so that a row's bits do not depend on the batch
            excess = np.vecdot(X[:, None, :], self._weights) - self.bounds
            ratio = excess / np.where(cash == 0.0, 1.0, cash)
        if not np.isfinite(ratio).all():
            raise StructuralError(
                "acceptance margins overflow on a finite loss profile")
        t = np.maximum.reduce(np.where(cash > 0, ratio, -np.inf), axis=1)
        # the largest margin of X - t 1 (of X where t is -inf): positive
        # only where no t may work, and by rounding
        gap = np.maximum.reduce(
            excess - np.where(t > -np.inf, t, 0.0)[:, None] * cash, axis=1)
        empty = np.flatnonzero(gap > 0)
        if empty.size:
            # a functional that is zero in every scenario holds or fails on
            # its bound alone, exactly, as rho's LP decides a zero row
            zero = ~self._weights.any(axis=1)
            cut = ((excess[empty][:, zero] > 0).any(axis=1)
                   | (_least_violation(excess[empty], ratio[empty], cash)
                      > linprog.PHASE1_TOL))
            t[empty[cut]] = np.inf
        tol = linprog.CERT_TOL * (
            1.0 + np.maximum.reduce(np.abs(X), axis=1) + np.abs(t))
        missed = np.isfinite(t) & (gap > tol)
        if missed.any():
            k = int(np.argmax(missed))
            raise NumericalFailure(
                f"cash requirement misses an acceptance row by {gap[k]:.2e}")
        return float(t[0]) if values.ndim == 1 else t


def _least_violation(excess, ratio, cash) -> np.ndarray:
    """Per row of excess[:, j] = phi_j(X) - b_j, with ratio = excess /
    cash where cash = phi_j(1) is not 0, the phase-1 optimum of
    rho's LP on a cash-only market: the least total violation
    sum_j max(0, excess_j - cash_j t) of the rows with excess_j > 0, over
    the t meeting every other row, an interval holding 0.  The sum is
    convex and piecewise linear in t, so it is least at a kink or an end of
    the interval: at one of the kinks excess_j / cash_j or at 0, clipped to
    the interval."""
    soft = excess > 0
    lo = np.max(np.where(~soft & (cash > 0), ratio, -np.inf), axis=1)
    hi = np.min(np.where(~soft & (cash < 0), ratio, np.inf), axis=1)
    kinks = np.clip(np.where(soft & (cash != 0), ratio, 0.0),
                    lo[:, None], hi[:, None])
    # rows met by t contribute 0 (up to rounding, far below the cut)
    return np.maximum(excess[:, None, :] - kinks[:, :, None] * cash,
                      0.0).sum(axis=2).min(axis=1)


ENTROPIC, AVAR, EXPECTATION = "entropic", "avar", "expectation"


@dataclass(frozen=True)
class LawInvariantAcceptanceSet:
    """{X : xi(X) <= 0} for a normalized cash-additive base risk measure.

    kinds:
      entropic(alpha > 0):  xi(X) = (1/alpha) log E[exp(alpha X)]
      avar(beta in (0,1)):  xi(X) = sup { E_Q[X] : 0 <= dQ/dP <= 1/(1-beta),
                                          E[dQ/dP] = 1 }
      expectation:          xi(X) = E[X]
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in (ENTROPIC, AVAR, EXPECTATION):
            raise StructuralError(f"unknown law-invariant kind {self.kind!r}")
        if self.kind == ENTROPIC and not 0 < self.param < math.inf:
            raise StructuralError("entropic risk aversion must be > 0 and "
                                  "finite")
        if self.kind == AVAR and not 0.0 < self.param < 1.0:
            raise StructuralError("avar level must lie in (0, 1)")

    def xi(self, probs: np.ndarray, values: np.ndarray):
        """xi of one profile (a float) or of each row of a batch."""
        return base_risk(self.kind, self.param, probs, values)

    def xi_conjugate(self, probs: np.ndarray, density: np.ndarray) -> RiskValue:
        return base_risk_conjugate(self.kind, self.param, probs, density)

    def dual_cap(self) -> float:
        """Upper bound of the dual density box (inf for entropic)."""
        if self.kind == AVAR:
            return 1.0 / (1.0 - self.param)
        if self.kind == EXPECTATION:
            return 1.0
        return math.inf


def base_risk(kind: str, param: float, probs, values):
    """xi of the loss profile along the last axis of `values`: a float for
    one profile, an array with one value per row for a batch."""
    # evaluation happens in canonical (descending-value) order so that
    # probability-preserving permutations leave the result bitwise unchanged
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, axis=-1, kind="stable")
    v = (values[order] if values.ndim == 1 else
         values[np.arange(values.shape[0])[:, None], order])
    p = probs[order]
    if kind == ENTROPIC:
        out = _logsumexp(param * v, p) / param
    elif kind == AVAR:
        # worst scenarios first, each contributing at most probs/(1-beta)
        # of the unit dual mass
        out = np.vecdot(_cap_fill(p / (1.0 - param)), v)
    elif kind == EXPECTATION:
        out = np.vecdot(p, v)
    else:
        raise StructuralError(f"unknown kind {kind!r}")
    return float(out) if values.ndim == 1 else out


def _logsumexp(a, b):
    """log sum_i b_i e^{a_i} along the last axis, for weights b > 0.

    The operations of scipy.special.logsumexp (SciPy 1.17) in the same
    order, without its array-API dispatch: the maximal terms are split off
    for precision, the others are summed in their original positions."""
    a = np.asarray(a, dtype=float)
    # the reductions are the ufuncs behind np.max and np.sum, called
    # without their Python wrappers; scipy's guard s = where(s == 0, s,
    # s / m) is left out, since with b > 0 the tied mass m is positive
    # whenever s is 0 (and s / m is then 0 as well)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=-1, keepdims=True)
        tied = a == a_max
        m = np.add.reduce(b * tied, axis=-1, keepdims=True)
        rest = np.where(tied, -np.inf, a)
        s = np.add.reduce(b * np.exp(rest - a_max), axis=-1,
                          keepdims=True) / m
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if np.count_nonzero(bad):
            # the direct sum, whose log follows C99 at 0 and inf
            direct = np.log(np.add.reduce(b * np.exp(a), axis=-1,
                                          keepdims=True))
            out = np.where(bad, direct, out)
    return out[..., 0]


def _cap_fill(caps, mass: float = 1.0) -> np.ndarray:
    """Greedy mass filling along the last axis: box i takes as much of
    `mass` as is left after the boxes before it, at most caps[i]."""
    caps = np.asarray(caps, dtype=float)
    before = np.concatenate([np.zeros(caps.shape[:-1] + (1,)),
                             np.cumsum(caps, axis=-1)[..., :-1]], axis=-1)
    return np.minimum(caps, np.maximum(0.0, mass - before))


def _relative_entropy(probs, q) -> float:
    """H(Q|P) = E[q log q] of a density q >= 0, with 0 log 0 = 0."""
    mask = q > 0
    return float((probs[mask] * q[mask] * np.log(q[mask])).sum())


def base_risk_conjugate(kind: str, param: float, probs, density) -> RiskValue:
    """Conjugate of the base risk on densities: sup_X E[q X] - xi(X)."""
    probs = np.asarray(probs, dtype=float)
    q = np.asarray(density, dtype=float)
    if q.min() < -1e-9 or abs(probs @ q - 1.0) > PRICE_TOL:
        return RiskValue.infinite()
    q = np.maximum(q, 0.0)
    if kind == ENTROPIC:
        return RiskValue.finite(_relative_entropy(probs, q) / param)
    if kind == AVAR:
        if np.max(q) <= 1.0 / (1.0 - param) + 1e-9:
            return RiskValue.finite(0.0)
        return RiskValue.infinite()
    if kind == EXPECTATION:
        if np.max(np.abs(q - 1.0)) <= 1e-9:
            return RiskValue.finite(0.0)
        return RiskValue.infinite()
    raise StructuralError(f"unknown kind {kind!r}")


# ----------------------------------------------------------------------
# security markets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SecurityMarket:
    """span{basis} with a linear price per basis payoff.

    The basis matrix and the prices are read-only, so every answer that
    depends on the market alone is computed the first time it is asked
    and kept on the market: the price of the payoff 1 (cash_unit_price),
    the unit LP per support mask (unit_certificate), the pricing density
    per probability vector (pricing_margin) and the scalable-arbitrage
    verdict with the status of its zero-sum price LP (arbitrage_verdict).
    Every regime and agent system that holds this market object shares
    them.  The basis is checked linearly independent here, so a market
    alone has no zero-sum combination of its payoffs beyond rounding, and
    its verdict is pi(0) = 0."""

    basis: tuple            # tuple of RandomVariable
    prices: np.ndarray      # one price per basis vector

    def __post_init__(self):
        basis = tuple(self.basis)
        prices = np.array(self.prices, dtype=float)
        prices.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "prices", prices)
        if len(basis) == 0:
            raise StructuralError("security market needs >= 1 basis payoff")
        if prices.shape != (len(basis),):
            raise StructuralError("one price per basis payoff required")
        _check_finite("price", prices, "basis payoff", range(len(basis)))
        B = np.column_stack([b.values for b in basis])
        B.flags.writeable = False
        object.__setattr__(self, "_basis", B)
        object.__setattr__(self, "_answers", {})
        if np.linalg.matrix_rank(B, tol=1e-10 * max(1.0, np.abs(B).max())) < len(basis):
            raise StructuralError("security basis payoffs are linearly dependent")

    @property
    def space(self) -> ScenarioSpace:
        return self.basis[0].space

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> np.ndarray:
        """Columns are basis payoffs: shape (n_scenarios, dim), built once
        and read-only."""
        return self._basis

    def payoff(self, coeffs) -> RandomVariable:
        coeffs = np.asarray(coeffs, dtype=float)
        return RandomVariable(self.space, self.basis_matrix() @ coeffs)

    def price(self, coeffs) -> float:
        return float(self.prices @ np.asarray(coeffs, dtype=float))

    def coefficients_of(self, values: np.ndarray):
        """Coefficients representing `values` in the span, or None when
        the least-squares residual exceeds 1e-9 max(1, |values|max)."""
        B = self.basis_matrix()
        w, *_ = np.linalg.lstsq(B, values, rcond=None)
        if np.max(np.abs(B @ w - values)) > 1e-9 * max(1.0, np.abs(values).max()):
            return None
        return w

    # ---- market-only answers, each computed once ----------------------

    def cash_unit_price(self):
        """Price of the unit payoff 1 when the market trades exactly one
        constant payoff at a positive price, else None."""
        return _kept(self._answers, "cash", lambda: _cash_unit_price(self))

    def unit_certificate(self, included: np.ndarray):
        """LP: maximize the minimum included coordinate of Z subject to
        price(Z) = 1.  A strictly positive optimum certifies the existence
        of a strictly positive unit-price payoff.  Returns (optimum, coeffs)
        where optimum may be +inf (unbounded) or None (infeasible)."""
        included = np.asarray(included, dtype=bool)
        return _kept(
            self._answers, ("unit", included.tobytes()),
            lambda: _unit_lp(self.basis_matrix()[included], self.prices))

    def pricing_margin(self, probs: np.ndarray):
        """_pricing_margin(probs, B, prices, inf): the margin of the
        densities that price the market under the probabilities `probs`,
        and the density its duals certify."""
        probs = np.asarray(probs, dtype=float)
        return _kept(
            self._answers, ("margin", probs.tobytes()),
            lambda: _pricing_margin(probs, self.basis_matrix(), self.prices,
                                    math.inf))

    def arbitrage_verdict(self):
        """_arbitrage_verdict over the market's own columns: (pi(0) = 0,
        status of the zero-sum price LP), decided by that LP alone."""
        return _kept(self._answers, "verdict", lambda: _arbitrage_verdict(
            self.basis_matrix(), self.prices))


def _kept(answers, key, compute):
    """The answer kept under `key` in the dict `answers`, computed on the
    first ask; the arrays in it are made read-only."""
    if key not in answers:
        answer = compute()
        for part in answer if isinstance(answer, tuple) else ():
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        answers[key] = answer
    return answers[key]


def _unit_lp(B, prices):
    """SecurityMarket.unit_certificate's LP over the included rows of the
    basis matrix B: maximize t subject to t <= Z(w) on those rows and
    price(w) = 1, over free w and t."""
    k = B.shape[1]
    # variables: w (k, free), t (free); maximize t  ==  minimize -t
    c = np.zeros(k + 1)
    c[-1] = -1.0
    rows = np.vstack([np.hstack([-B, np.ones((B.shape[0], 1))]),   # t - Z <= 0
                      np.concatenate([prices, [0.0]])])
    senses = [linprog.LE] * B.shape[0] + [linprog.EQ]
    rhs = np.concatenate([np.zeros(B.shape[0]), [1.0]])
    free = np.full(k + 1, -math.inf)
    sol = linprog.solve(linprog.LpProblem(
        c=c, rows=rows, senses=senses, rhs=rhs,
        lower=free, upper=np.full(k + 1, math.inf)))
    if sol.status == "infeasible":
        return None, None
    if sol.status == "unbounded":
        return math.inf, None
    return -sol.objective_value, sol.primal[:k]


def _zero_sum_status(B, prices) -> str:
    """Status of the LP  minimize price(w) subject to B w = 0  over free
    w: "unbounded" exactly when some zero-sum combination of the columns
    of B has a negative price."""
    k = B.shape[1]
    return linprog.solve(linprog.LpProblem(
        c=np.array(prices, dtype=float), rows=B,
        senses=[linprog.EQ] * B.shape[0], rhs=np.zeros(B.shape[0]),
        lower=np.full(k, -math.inf), upper=np.full(k, math.inf))).status


def _zero_sum_prices(B, prices, slices):
    """V and its tolerance: V has one row per slice of the columns of B,
    its entry in column c the slice's price of its share of the c-th
    null-space vector of B (a zero-sum combination of the columns).  The
    tolerance is 1e-10 max(1, |V|max).  It needs a full SVD of B, which
    only nsa_check's dim_v pays for."""
    ns = linprog.null_space(B)
    V = np.array([[float(prices[sl] @ ns[sl, c]) for c in range(ns.shape[1])]
                  for sl in slices])
    return V, 1e-10 * max(1.0, float(np.abs(V).max(initial=0.0)))


def _arbitrage_verdict(B, prices):
    """The pi(0) dichotomy of markets whose columns are stacked in B:
    pi(0) = 0 iff every zero-sum combination of the columns has zero
    price, that is, iff the zero-sum price LP (_zero_sum_status) is not
    unbounded; otherwise pi(0) = -inf.  The LP's status is certified by
    linprog at the data's scale.  Returns (pi(0) = 0, the LP's status).
    A market repeated in B would only add zero-sum combinations of price
    zero, so callers pass each market once."""
    status = _zero_sum_status(B, prices)
    return status != "unbounded", status


# ----------------------------------------------------------------------
# regimes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RiskMeasurementRegime:
    """An acceptance set and a market on a support ideal.  Its parts are
    read-only, so the LP forms built from them are built the first time
    they are asked for and kept on the regime, as a market keeps its
    answers: the acceptance set's rows (lp_rows), the columns of rho's LP
    (rho_block) and that LP (rho_lp), and the support LP of its
    conjugates (_support_lp)."""

    support: SupportMask
    acceptance: object       # PolyhedralAcceptanceSet | LawInvariantAcceptanceSet
    market: SecurityMarket

    def __post_init__(self):
        object.__setattr__(self, "_answers", {})
        if self.market.space.labels != self.support.space.labels:
            raise StructuralError("market and support on different spaces")
        if isinstance(self.acceptance, LawInvariantAcceptanceSet):
            if not self.support.included.all():
                raise DomainError(
                    "law-invariant acceptance sets are defined relative to the "
                    "whole-space probability measure; partial supports are not "
                    "supported"
                )

    @property
    def space(self) -> ScenarioSpace:
        return self.support.space

    @property
    def is_law_invariant(self) -> bool:
        return isinstance(self.acceptance, LawInvariantAcceptanceSet)

    def lp_rows(self):
        """The acceptance set as its LP form (W, A, bounds, aux_lower): X
        is acceptable iff  W X + A a <= bounds  for some auxiliaries
        a >= aux_lower (_lp_rows); kept, its arrays read-only."""
        return _kept(self._answers, "rows",
                     lambda: _lp_rows(self.acceptance, self.space.probs))

    def rho_block(self):
        """The columns of rho's LP over lp_rows() and the market
        (_lp_block): its rows [-W B | A], its cost (prices, 0) and its
        lower bounds; kept, read-only.  The sharing LP copies them into
        the agent's block, and rho_lp is built on them."""
        mkt = self.market
        return _kept(self._answers, "block", lambda: _lp_block(
            self.lp_rows(), mkt.basis_matrix(), mkt.prices))

    def rho_lp(self) -> linprog.LpProblem:
        """rho's LP at X = 0 on rho_block(), kept: LpProblem checks its
        arrays once, here.  rho's LP at X is its variant with the
        right-hand side bounds - W X (_rho_lp), and a certificate of it is
        checked against it at that right-hand side (_certified_rho)."""
        return _kept(self._answers, "lp", lambda: _block_lp(
            self.rho_block(), self.lp_rows()[2]))


def _lp_rows(acc, probs):
    """(W, A, bounds, aux_lower) of an acceptance set, W over all
    scenarios: X is acceptable iff  W X + A a <= bounds  for some
    auxiliaries a >= aux_lower.

    A polyhedral set has its functionals' weights and no auxiliaries; the
    expectation is the one row  P.X <= 0; AVaR(beta) is the
    Rockafellar-Uryasev polyhedron over a = (tau, u), AVaR(X) being the
    least tau + E[u] / (1 - beta) over u >= X - tau, u >= 0 (Rockafellar
    and Uryasev, J. Risk 2 (2000)): the m tail rows  X - tau - u <= 0, then
    the budget row  tau + E[u] / (1 - beta) <= 0, with tau free and u >= 0
    as column bounds.  Both law-invariant forms have a nonnegative W,
    which certifies monotonicity.  An entropic set has no such form."""
    if isinstance(acc, PolyhedralAcceptanceSet):
        W = acc.weight_matrix()
        return W, np.zeros((W.shape[0], 0)), acc.bounds, np.zeros(0)
    if acc.kind == EXPECTATION:
        return probs[None, :], np.zeros((1, 0)), np.zeros(1), np.zeros(0)
    if acc.kind != AVAR:
        raise DomainError(
            "an entropic acceptance set is not polyhedral and has no LP "
            "rows; an entropic agent shares only with law-invariant agents")
    m = probs.size
    eye = np.eye(m)
    W = np.vstack([eye, np.zeros((1, m))])
    A = np.zeros((m + 1, 1 + m))
    A[:m, 0], A[:m, 1:] = -1.0, -eye
    A[m, 0], A[m, 1:] = 1.0, probs / (1.0 - acc.param)
    return W, A, np.zeros(m + 1), np.concatenate([[-math.inf], np.zeros(m)])


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    heuristic: bool = False


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def add(self, name, passed, detail="", heuristic=False):
        self.checks.append(CheckResult(name, bool(passed), str(detail), heuristic))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail,
                 "heuristic": c.heuristic}
                for c in self.checks
            ],
        }


def validate_regime(r: RiskMeasurementRegime) -> ValidationReport:
    """Certify the regime contract: acceptance-set shape, market unit and
    price positivity, and no-arbitrage (boundedness of the pricing gain of
    acceptability-preserving trades).

    No-arbitrage is certified exactly on both branches.  A polyhedral
    regime solves rho's LP over the acceptance set's recession cone
    (bounds 0) at X = 0: w = 0 is feasible, so the LP is optimal or
    unbounded, and by LP duality it is optimal exactly when some
    nonnegative combination of the functionals prices every traded
    payoff.  That dual set does not depend on X, so rho is then bounded
    below wherever it is finite, and otherwise unbounded wherever it is
    feasible.  A law-invariant regime exhibits a market-consistent
    density in the dual domain of the base risk.
    """
    rep = ValidationReport()
    space = r.space
    inc = r.support.included

    # market payoffs live inside the support ideal
    B = r.market.basis_matrix()
    outside = 0.0 if inc.all() else float(np.max(np.abs(B[~inc]), initial=0.0))
    rep.add("market_in_support", outside <= 1e-12,
            f"max |basis| outside support = {outside:.2e}")

    if isinstance(r.acceptance, PolyhedralAcceptanceSet):
        W = np.array([f.density for f in r.acceptance.functionals])
        out_w = 0.0 if inc.all() else float(np.max(np.abs(W[:, ~inc]), initial=0.0))
        rep.add("acceptance_in_support", out_w <= 1e-12,
                f"max |density| outside support = {out_w:.2e}")
        min_density = float(W.min())
        rep.add("monotonicity_certificate", min_density >= -1e-12,
                f"min functional density = {min_density:.3g}")
        # a functional that is zero in every scenario holds or fails on
        # its bound alone, as rho's LP and xi decide a zero row; with
        # nonnegative densities every other one accepts large negative
        # losses and is violated by large positive ones
        zero = ~r.acceptance.weight_matrix().any(axis=1)
        empty = bool(np.any(zero & (r.acceptance.bounds < 0)))
        rep.add("acceptance_nonempty", not empty,
                "zero functional with negative bound" if empty else
                "large negative losses are acceptable")
        proper = not zero.all()
        rep.add("acceptance_proper", proper,
                "" if proper else "no functional can ever be violated")
    else:
        rep.add("acceptance_normalized", True,
                f"base risk xi({r.acceptance.kind}) has xi(0) = 0 by construction")

    uval, _ = r.market.unit_certificate(inc)
    if r.is_law_invariant:
        # Section-5-style systems replace the per-market positive unit with a
        # global pricing density; report the unit value informationally.  A
        # density in the base risk's dual box pricing the payoff 1 at 1 and
        # every basis payoff at its price certifies rho > -inf everywhere.
        margin, _ = _pricing_margin(
            space.probs, np.column_stack([np.ones(space.size), B]),
            np.concatenate([[1.0], r.market.prices]), r.acceptance.dual_cap())
        ok = margin >= -1e-12
        rep.add("no_arbitrage_dual_density", ok,
                "market-consistent dual density exists (exact certificate)"
                if ok else
                "no market-consistent density in the base risk's dual domain")
        rep.add("positive_unit_payoff", True,
                f"optional for law-invariant regimes; LP value "
                f"{uval if uval is not None else 'infeasible'}", heuristic=False)
    else:
        rep.add("positive_unit_payoff",
                uval is not None and uval > 1e-10,
                f"max-min-coordinate LP value = {uval}")
        cone = linprog.solve(_rho_lp(r, np.zeros(r.lp_rows()[0].shape[0])))
        ok = cone.status == "optimal"
        rep.add("no_arbitrage_dual_density", ok,
                "rho's LP over the acceptance cone is bounded (exact "
                "certificate)" if ok else
                "securitization gain unbounded over the acceptance cone")

    # min price over nonnegative span payoffs with coordinate sum 1
    pval, _ = _pricing_margin(np.ones(int(inc.sum())), B[inc],
                              r.market.prices, math.inf)
    if pval == math.inf:
        rep.add("price_positivity", True,
                "no nonnegative payoffs in span (vacuous)")
    else:
        rep.add("price_positivity", pval >= -1e-10,
                f"min price over normalized nonnegative payoffs = {pval:.3g}")
    return rep


# ----------------------------------------------------------------------
# rho
# ----------------------------------------------------------------------

@dataclass
class RhoResult:
    value: RiskValue
    security: RandomVariable = None    # an optimal Z when finite
    coefficients: np.ndarray = None
    status: str = "optimal"
    certificate: tuple = None          # (x, duals) of rho's LP at X when
                                       # that LP answered (rho)


def rho(r: RiskMeasurementRegime, X: RandomVariable,
        certificate=None) -> RhoResult:
    """Least capital securitizing X under the regime: the one-row reader
    of _rho_search, which picks the path.  A requirement of +inf has the
    status "infeasible" and one of -inf "unbounded"; a finite one comes
    with an optimal security and its coefficients, least squares in the
    market basis after an entropic search, whose outcome has none.  A
    refused row raises its refusal.  Where rho's own LP answered, solved
    or certified, the result keeps that LP's optimal solution (x, duals)
    as its `certificate`, a point x = (z, a) and one dual per row:
    verify_equilibrium offers it to the agent's conjugate.

    A certificate offers rho's answer without a search, in one of two
    forms; outside a cash market rho checks it, and when it holds rho
    answers from it, with the security B z and the coefficients z, so
    the value carries the certificate's check, not the bits of rho's own
    search.  A certificate that fails its check is ignored, and so is one
    offered to a cash agent, whose closed form costs one base risk: rho
    then answers as without one.

    * (x, duals) offers a solution of rho's own LP at X (_rho_lp over
      lp_rows()) to an agent that is not entropic: a point x = (z, a) of
      security coefficients and auxiliaries, and one dual per row, such
      as an agent's block of an optimal sharing LP.  rho checks it
      against the regime's kept LP at X (linprog.certified_objective,
      _certified_rho); its value is c.x.
    * (z, phi), phi a Functional, offers a law-invariant agent security
      coefficients z and a supporting functional phi, such as its
      security in a law-invariant sharing and the sharing's subgradient.
      Weak duality brackets rho(X) with no search: above by price(z)
      when xi(X - B z) <= CERT_TOL (1 + max|X|) (one base risk), below by
      phi(X) - conjugate(r, phi) (a closed form, -inf when phi misprices
      the market).  When the two agree within CERT_TOL (1 + |price(z)|),
      rho is price(z).  Summed over the agents of a sharing the lower
      bounds are the Fenchel dual value at phi and the upper bounds are
      Lambda, so each agent's width is nonnegative and the widths add up
      to the sharing search's own duality gap."""
    if X.space.labels != r.space.labels:
        raise StructuralError("loss profile on a different scenario space")
    if not r.support.contains(X, tol=1e-9):
        raise DomainError("loss profile lies outside the regime's support ideal")
    if certificate is not None and r.market.cash_unit_price() is None:
        x, dual = certificate
        certified = (_bracketed_rho(r, X, x, dual)
                     if isinstance(dual, Functional)
                     else _certified_rho(r, X.values, x, dual))
        if certified is not None:
            return certified
    values, Z, w, refusals, solutions = _rho_search(r, X.values[None, :])
    if refusals:
        raise refusals[0]
    if values[0] == math.inf:
        return RhoResult(value=RiskValue.infinite(), status="infeasible")
    if values[0] == -math.inf:
        return RhoResult(value=None, status="unbounded")
    return RhoResult(value=RiskValue.finite(values[0]),
                     security=RandomVariable(r.space, Z[0]),
                     coefficients=w[0] if w is not None else np.linalg.lstsq(
                         r.market.basis_matrix(), Z[0], rcond=None)[0],
                     certificate=solutions.get(0))


def rho_batch(r: RiskMeasurementRegime, rows) -> np.ndarray:
    """rho of each row of `rows` (one loss profile per row), +inf where
    nothing securitizes the row: the N-row reader of _rho_search.  An
    unbounded requirement is refused, and the lowest-index row that is
    unbounded or refused raises what rho raises for it.

    Each row's value is rho's, bitwise, except on a polyhedral batch of
    several rows outside a cash market: a row that solve_batch screens
    takes its value from the basic solution B^-1 b of an earlier row's
    optimal basis, not from a simplex run of its own, so it carries the
    certificate rho's LP checks (linprog._certify), not rho's bits."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != r.space.size:
        raise StructuralError(
            f"loss profiles must form an (N, {r.space.size}) array")
    if not np.all(np.isfinite(rows)):
        raise StructuralError("loss profiles must be finite")
    excluded = ~r.support.included
    if np.max(np.abs(rows[:, excluded]), initial=0.0) > 1e-9:
        raise DomainError("loss profile lies outside the regime's support ideal")
    values, _, _, refusals, _ = _rho_search(r, rows)
    bounded = values > -math.inf        # False on -inf and on NaN
    if np.count_nonzero(bounded) < bounded.size:
        k = int(np.argmin(bounded))
        raise refusals[k] if k in refusals else _arbitrage_refusal()
    return values


def _rho_search(r, rows):
    """rho of each row of the (N, m) array `rows`, on the one path that
    the regime's acceptance family and market call for.  Returns (values,
    Z, w, refusals, solutions): the requirements (+inf where nothing
    securitizes a row, -inf where it is unbounded below, NaN on a refused
    row), an optimal security per row, its coefficients (None after an
    entropic search), the dict mapping each refused row to its exception,
    and the dict mapping each row that a solve of rho's LP of its own
    answered to that LP's optimal solution (x, duals).

    * A market that trades only a constant payoff c 1 makes every agent
      cash additive: rho is xi(X) times the price of the payoff 1, with
      the security xi(X) 1 of coefficient xi(X) / c, xi being the
      acceptance set's least acceptable cash amount (a polyhedral xi is
      +inf or -inf where rho's LP is infeasible or unbounded; a
      law-invariant one that overflows is refused for the whole batch).
    * An entropic agent runs the search of _rho_law_invariant.
    * Polyhedral, AVaR and expectation agents otherwise solve rho's LP
      (_rho_lp over lp_rows()): row by row (_rho_rows) for one row and for
      the law-invariant families, and with linprog.solve_batch for a
      polyhedral batch of several rows."""
    mkt = r.market
    unit_price = mkt.cash_unit_price()
    if unit_price is not None:
        xi = r.acceptance.xi(r.space.probs, rows)
        if r.is_law_invariant and not np.all(np.isfinite(xi)):
            raise StructuralError("the base risk of a loss profile overflows")
        return (unit_price * xi, xi[:, None] * np.ones(r.space.size),
                xi[:, None] / mkt.basis_matrix()[0], {}, {})
    if r.is_law_invariant and r.acceptance.kind == ENTROPIC:
        t, Z, _, refusals = _rho_law_invariant(r)(rows)
        return t, Z, None, refusals, {}
    form = r.lp_rows()
    if rows.shape[0] > 1 and not r.is_law_invariant:
        W, _, bounds, _ = form
        batch = linprog.solve_batch(r.rho_lp(), bounds - rows @ W.T)
        w = batch.primal[:, :mkt.dim]
        return batch.objective_value, w @ mkt.basis_matrix().T, w, {}, {}
    # each row keeps its LP's solution: x = (z, a), then the row duals
    n = r.rho_block()[1].size
    t, Z, kept, refusals = _search_rows(lambda x: _rho_rows(r, form, x), rows,
                                        n + form[0].shape[0])
    solutions = {i: (kept[i, :n], kept[i, n:])
                 for i in np.flatnonzero(np.isfinite(t)).tolist()}
    return t, Z, kept[:, :mkt.dim], refusals, solutions


def _search_rows(outcome, X, k: int):
    """A search over the rows of X, row by row: outcome(x) gives (t, Z, w)
    of a row, Z with a value per scenario and w with k values.  Returns
    the arrays of all rows and the dict of refusals, each row whose
    outcome raised a RiskShareError mapped to it; those rows hold NaN."""
    t = np.full(X.shape[0], math.nan)
    Z, w = np.full(X.shape, math.nan), np.full((X.shape[0], k), math.nan)
    refusals = {}
    for i, x in enumerate(X):
        try:
            t[i], Z[i], w[i] = outcome(x)
        except RiskShareError as exc:
            refusals[i] = exc
    return t, Z, w, refusals


def _lp_block(form, B, prices):
    """The columns (rows, c, lower) of rho's LP for an acceptance form (W,
    A, bounds, aux_lower) (_lp_rows) and a market pricing the columns of B
    at `prices`, over free security coefficients w and auxiliaries
    a >= aux_lower: minimize price(w) subject to  -W B w + A a <= rhs,
    where rhs = bounds - W X.  W B is the full product, whose bits the
    sharing LP's agent blocks keep."""
    W, A, _, aux_lower = form
    return (np.hstack([-(W @ B), A]),
            np.concatenate([prices, np.zeros(A.shape[1])]),
            np.concatenate([np.full(B.shape[1], -math.inf), aux_lower]))


def _block_lp(block, rhs) -> linprog.LpProblem:
    """The LP of the columns (rows, c, lower) of _lp_block at the
    right-hand side rhs, every row <= and no column bounded above."""
    rows, c, lower = block
    return linprog.LpProblem(c=c, rows=rows,
                             senses=[linprog.LE] * rows.shape[0], rhs=rhs,
                             lower=lower, upper=np.full(c.size, math.inf))


def _rho_lp(r, rhs) -> linprog.LpProblem:
    """rho's LP with the right-hand side rhs = bounds - W X: the variant
    of the regime's kept LP (RiskMeasurementRegime.rho_lp)."""
    return linprog._variant(r.rho_lp(), rhs=rhs)


def _rho_rows(r, form, xvals):
    """rho of one loss profile by its LP, for the regime's lp_rows()
    `form`, as the row outcome (t, Z, x) of _search_rows: the requirement,
    the optimal security's payoff, and the LP's optimal point (z, a)
    followed by its row duals, t being +inf where the LP is infeasible
    and -inf where it is unbounded, Z and x NaN there."""
    W, _, bounds, _ = form
    sol = linprog.solve(_rho_lp(r, bounds - W @ xvals))
    if sol.status != "optimal":         # objective_value is +-inf there
        return sol.objective_value, math.nan, math.nan
    return (sol.objective_value,
            r.market.basis_matrix() @ sol.primal[:r.market.dim],
            np.concatenate([sol.primal, sol.duals]))


def _certified_rho(r, xvals, x, duals):
    """rho's answer at the loss profile xvals from the certificate (x,
    duals) of its LP (rho), or None when the agent is entropic or
    linprog.certified_objective refuses it.  The check reads the
    regime's kept LP at the right-hand side bounds - W X; no LP is
    built."""
    if r.is_law_invariant and r.acceptance.kind == ENTROPIC:
        return None
    W, _, bounds, _ = r.lp_rows()
    value = linprog.certified_objective(r.rho_lp(), x, duals,
                                        bounds - W @ xvals)
    if value is None:
        return None
    z = np.asarray(x, dtype=float)[:r.market.dim]
    return RhoResult(value=RiskValue.finite(value),
                     security=RandomVariable(r.space,
                                             r.market.basis_matrix() @ z),
                     coefficients=z, certificate=(x, duals))


def _bracketed_rho(r, X, z, phi):
    """rho's answer at X from the law-invariant certificate (z, phi)
    (rho): price(z) when xi(X - B z) <= CERT_TOL (1 + max|X|) and
    phi(X) - conjugate(r, phi) lies within CERT_TOL (1 + |price(z)|) of
    it; None when a check fails or the agent is not law-invariant."""
    if not r.is_law_invariant:
        return None
    mkt = r.market
    z = np.asarray(z, dtype=float)
    Z = mkt.basis_matrix() @ z
    slack = r.acceptance.xi(r.space.probs, X.values - Z)
    # the negated comparisons also refuse a NaN
    if not slack <= linprog.CERT_TOL * (1.0 + float(np.abs(X.values).max())):
        return None
    upper = mkt.price(z)
    conj = conjugate(r, phi)
    if not conj.is_finite or not abs(
            upper - (phi(X) - conj.as_float())) <= linprog.CERT_TOL * (
                1.0 + abs(upper)):
        return None
    return RhoResult(value=RiskValue.finite(upper),
                     security=RandomVariable(r.space, Z), coefficients=z)


def _rho_law_invariant(r):
    """The search of entropic rho outside a cash market, over the rows of
    an (N, m) array, with the outcome (t, Z, q, refusals) of
    lawinv._kernel_search, rho being t: that search with the unit U from
    the unit LP, priced at 1, and, when the market has a price kernel, the
    pricing margin, both answers the market keeps; or, on a one-payoff
    market without a strictly positive unit, the interval search
    _line_search.  A larger market without such a unit is refused."""
    from .lawinv import _kernel_search      # lawinv imports this module

    mkt = r.market
    B = mkt.basis_matrix()
    uval, w_u = mkt.unit_certificate(r.support.included)
    if uval is None or math.isinf(uval) or not uval > 1e-10:
        if mkt.dim != 1:
            raise DomainError(
                "law-invariant rho needs a strictly positive unit payoff "
                "in the span (or a one-dimensional market)")
        return _line_search(r.acceptance.param, r.space.probs, B[:, 0],
                            float(mkt.prices[0]))
    # a market with a unit has a price kernel exactly when it trades more
    # than one payoff; only then does the search read the margin
    margin = (mkt.pricing_margin(r.space.probs)[0] if mkt.dim > 1
              else None)
    return _kernel_search((r.acceptance,), r.space.probs, B, mkt.prices,
                          B @ w_u, 1.0, margin)


def _rho_value(res: RhoResult) -> float:
    """A rho result as a float, +inf when nothing securitizes the profile;
    an unbounded requirement is refused."""
    if res.status == "unbounded":
        raise _arbitrage_refusal()
    return res.value.as_float()


def _arbitrage_refusal() -> DomainError:
    return DomainError("an agent's requirement is unbounded below; its "
                       "security prices admit arbitrage")


def _cash_unit_price(mkt: SecurityMarket):
    """SecurityMarket.cash_unit_price, computed: the price of the unit
    payoff 1 when the market trades exactly one constant payoff at a
    positive price, else None."""
    if mkt.dim != 1:
        return None
    vals = mkt.basis[0].values
    if abs(vals.max() - vals.min()) > 1e-12 * max(1.0, abs(vals.max())):
        return None
    if abs(vals[0]) < 1e-12:
        return None
    unit_price = mkt.prices[0] / vals[0]
    return unit_price if unit_price > 0 else None


def _line_search(gamma: float, probs, b, p0: float):
    """Entropic(gamma) rho on a market that trades one payoff b at price
    p0 and holds no strictly positive unit, as a search over rows with the
    outcome (t, Z, q, refusals) of lawinv._kernel_search: t = p0 w and
    Z = w b, t = -inf where it is unbounded below and +inf where nothing
    securitizes the row, and q NaN.  The feasible w form an interval, since
    xi(X - w b) is convex in w, and w is its end in the cheaper direction
    d = -sign(p0) (at a zero price the end with d = -1, else the other
    end, else 0), from _entropic_edge."""
    def outcome(x):
        w = _entropic_edge(gamma, probs, x, b, 1.0 if p0 < 0 else -1.0)
        if w is None and p0 == 0.0:
            w = _entropic_edge(gamma, probs, x, b, 1.0)
            w = 0.0 if w is None else w
        if w is None or math.isinf(w):
            return -math.inf if w is None else math.inf, math.nan, math.nan
        # + 0.0 turns the -0.0 of a zero price into 0.0
        return p0 * w + 0.0, w * b, math.nan
    return lambda X: _search_rows(outcome, X, X.shape[1])


def _entropic_edge(gamma: float, probs, x, b, d: float):
    """The end in direction d of {w : h(w) <= 0}, h(w) = xi(x - w b) for
    the entropic base risk with parameter gamma: that w, None when the
    interval is unbounded in direction d, +inf when it is empty.

    h is convex and above L = (1/gamma) log E[1{b=0} e^{gamma x}], so
    L >= 0 leaves the interval empty; when no scenario has d b_j < 0, h
    falls toward L < 0 along d.  Otherwise each term of
    E[e^{gamma (x - w b)}] is at most 1 on the interval, so d w <= T =
    min over d b_j < 0 of -(log p_j + gamma x_j) / (gamma |b_j|), and
    h(d T) >= 0.  Newton's method on s = d w starts at T; by convexity its
    iterates fall monotonically to the end, and an iterate with h > 0 and
    a slope along d of at most 0 proves h > 0 everywhere.  Where rounding
    stops h from falling, the step doubles (from at least one unit in the
    last place of s), so the end returned always has h <= 0."""
    zero = b == 0
    if zero.any() and base_risk(ENTROPIC, gamma, probs[zero], x[zero]) >= 0:
        return math.inf
    db = d * b
    out = db < 0
    if not out.any():
        return None
    s = float(np.min((np.log(probs[out]) + gamma * x[out])
                     / (gamma * db[out])))
    h_last = math.inf
    for _ in range(100):
        y = x - d * s * b
        h = base_risk(ENTROPIC, gamma, probs, y)
        if h <= 0.0:
            return d * s
        slope = -float((probs * np.exp(gamma * (y - h))) @ db)
        if slope <= 0.0:
            return math.inf
        step = h / slope if h < h_last else max(2.0 * step, math.ulp(s))
        h_last = h
        s -= step
    raise NumericalFailure("entropic coefficient search did not converge")


# ----------------------------------------------------------------------
# parts of the law-invariant kernel search (lawinv._kernel_search)
# ----------------------------------------------------------------------

def _span_basis(B: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of B."""
    u, s, _ = np.linalg.svd(B, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]


def _pricing_margin(weights, B, prices, cap: float):
    """Which density prices the span of B at `prices`, as one LP in payoff
    (dual) form:

        minimize  price(Z) + cap sum(nu)  over Z = B y and nu >= 0
        subject to  w Z + nu >= 0  and  sum(w Z + nu) = 1,

    the nu columns present only for a finite cap.  Returns (margin, d).
    By LP duality the value is the margin: the largest s such that some d
    with s <= d <= cap prices every column of B through the weights w d
    (E[d B_j] = prices_j for w = P), and the row duals give such a d,
    d = duals[m] - duals[:m].  (-inf, None) when no such d exists (the
    payoff LP is unbounded), (+inf, None) when the span holds no nonzero
    payoff with w Z >= 0 (it is infeasible, which needs an infinite cap).

    For w = 1 and an infinite cap the LP is the minimum price of a
    nonnegative span payoff with coordinate sum 1.  For w = P, by Stiemke's
    lemma a positive margin holds exactly when the span has no nonzero
    nonnegative payoff priced at most zero, which is when an entropic
    infimum over the price kernel is attained."""
    m, K = B.shape
    wB = weights[:, None] * B
    rows = np.vstack([-wB, wB.sum(axis=0)])       # -w Z - nu <= 0 ; sum = 1
    c = np.array(prices, dtype=float)
    lower = np.full(K, -math.inf)
    if math.isfinite(cap):
        rows = np.hstack([rows, np.vstack([-np.eye(m), np.ones(m)])])
        c = np.concatenate([c, np.full(m, cap)])
        lower = np.concatenate([lower, np.zeros(m)])
    sol = linprog.solve(linprog.LpProblem(
        c=c, rows=rows, senses=[linprog.LE] * m + [linprog.EQ],
        rhs=np.concatenate([np.zeros(m), [1.0]]), lower=lower,
        upper=np.full(c.size, math.inf)))
    if sol.status == "unbounded":
        return -math.inf, None
    if sol.status == "infeasible":
        return math.inf, None
    return sol.objective_value, sol.duals[m] - sol.duals[:m]


def _newton_terms(probs, D, U, q, w):
    """Gradient and Hessian of t*(eta) at each row's point, for rows of
    dual densities q and curvature densities w (gamma q where the density
    is smooth, 0 where a dual cap clips it): grad (N, k), hess (N, k, k).

    Implicit differentiation of xi(X - t U - D eta) = 0 gives the gradient
    -D^T (p q) / E_q[U] and the Hessian G^T diag(p w) G / E_q[U] with
    G = D - U a^T, a = D^T (p w) / U^T (p w).  The products are stacked
    per row, so each row's terms are those of a batch of one."""
    pq = probs * q
    mass = np.vecdot(pq, U)
    pw = probs * w
    smooth = np.vecdot(pw, U)
    curved = smooth > 0.0
    if np.count_nonzero(curved) == curved.size:
        hess = _curvature(D, U, pw, smooth, mass)
    else:
        hess = np.zeros((q.shape[0], D.shape[1], D.shape[1]))
        if curved.any():
            hess[curved] = _curvature(D, U, pw[curved], smooth[curved],
                                      mass[curved])
    return -(D.T @ pq[..., None])[..., 0] / mass[:, None], hess


def _curvature(D, U, pw, smooth, mass):
    """The Hessian rows G^T diag(p w) G / E_q[U] of _newton_terms."""
    a = (D.T @ pw[..., None])[..., 0] / smooth[:, None]
    G = D - U[:, None] * a[:, None, :]
    return (G.swapaxes(-1, -2) * pw[:, None, :]) @ G / mass[:, None, None]


def _damped_step(hess, grad, mu, eye):
    """Each row's solution of (hess + mu I) step = -grad: (step, descent,
    grad . step), descent marking the rows where the step is a finite
    descent direction (elsewhere it is zero).  The matrix is positive
    semidefinite by construction, so a row fails only when its matrix is
    numerically singular."""
    A = hess + mu[:, None, None] * eye
    try:
        step = -np.linalg.solve(A, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular row fails the stacked solve: solve row by row
        step = np.full(grad.shape, math.nan)
        for j in range(grad.shape[0]):
            try:
                step[j] = -np.linalg.solve(A[j:j + 1],
                                           grad[j:j + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
    finite = np.isfinite(step).all(axis=1)
    if np.count_nonzero(finite) < finite.size:
        step = np.where(finite[:, None], step, 0.0)
    slope = np.vecdot(grad, step)
    return step, finite & (slope < 0.0), slope


_ROUNDING = 1e-14     # relative level below which changes of t* are noise


def _evaluate_rows(evaluate, eta, rows, m: int):
    """evaluate at eta for the rows `rows`, all at once or, when that
    raises a RiskShareError, each row alone, so that a row's refusal is
    its own.  Returns
    (t, q, w, failures), failures mapping the position of each failed row
    to its exception; those rows hold NaN."""
    try:
        return (*evaluate(eta, rows), {})
    except RiskShareError as exc:
        failures = {0: exc}
    t = np.full(rows.size, math.nan)
    q, w = np.full((rows.size, m), math.nan), np.full((rows.size, m), math.nan)
    if rows.size > 1:
        failures = {}
        for j in range(rows.size):
            try:
                t[j:j + 1], q[j:j + 1], w[j:j + 1] = evaluate(
                    eta[j:j + 1], rows[j:j + 1])
            except RiskShareError as exc:
                failures[j] = exc
    return t, q, w, failures


def _gather(live, n: int, *arrays):
    """The rows `live` of each array: the arrays themselves while all n
    rows are live, copies otherwise."""
    return arrays if live.size == n else tuple(a[live] for a in arrays)


def _kernel_newton(evaluate, dual, probs, D, U, n: int):
    """Minimize the convex t*(eta) over the coordinates of an orthonormal
    kernel basis D, for n rows in lockstep.  evaluate(eta, rows) returns
    (t*, q, w) of the rows `rows` (an increasing index array) at eta (one
    row of coordinates each): the values, the dual densities and the
    curvature densities (see _newton_terms).  dual(row, q) is the dual
    value of that row at the density q.

    Damped Newton (Boyd and Vandenberghe, Convex Optimization, 9.5) with
    Levenberg-Marquardt damping: the step solves (hess + mu I) step =
    -grad and is taken only when t* falls by more than 1e-4 of the
    decrease its quadratic model predicts; mu starts at 0, grows on every
    refusal and shrinks with the gain ratio on every success (Nielsen's
    rule, Madsen, Nielsen and Tingleff, Methods for Non-Linear Least
    Squares Problems, 2004).  D is orthonormal, so the damping acts in
    payoff units, and the steps lengthen along directions where t* is
    locally linear: where the dual cap clips the density, or where the
    Gibbs density has all but vanished off one scenario.  A trial point
    whose evaluation fails with NumericalFailure counts as a refusal.
    The phase ends when the model predicts no decrease above the rounding
    of t*.

    Near a perfect hedge t* is flat to rounding within sqrt(eps) of the
    optimum while its gradient is not, so up to eight Newton steps follow
    for as long as each halves the gradient and keeps t* within its
    rounding.

    The search ends with its duality gap t* - dual(q) and refuses with
    NumericalFailure above linprog.CERT_TOL (1 + |t*|).

    The state has one entry per row in each field: arrays for eta, t*, q,
    grad and hess, lists of floats for the damping mu and nu.  An index
    array holds the rows still searching: each step gathers them,
    evaluates their trial points in one call and writes the accepted rows
    back in place; a row that stops or is refused leaves the index.  The
    polish steps run the same way over the certified rows.  Every row
    keeps its own damping, acceptance test, stopping rule, polishing steps
    and gap check, so its arithmetic is that of a batch of one.  Returns
    (eta, t*, q, errors): errors[row] is the exception refusing that row,
    None for a certified row; eta, t* and q hold NaN on refused rows."""
    k, m = D.shape[1], U.size
    eye = np.eye(k)
    eta, mu, nu = np.zeros((n, k)), [0.0] * n, [2.0] * n
    t, q, w, failures = _evaluate_rows(evaluate, eta, np.arange(n), m)
    errors = [failures.get(j) for j in range(n)]
    grad, hess = _newton_terms(probs, D, U, q, w)
    live = np.array([j for j, e in enumerate(errors) if e is None], int)
    for _ in range(100 if k else 0):
        g, h, x0, t0 = _gather(live, n, grad, hess, eta, t)
        if np.count_nonzero(g) < g.size:
            # a zero gradient is a minimum: the row stops
            live = live[g.any(axis=1)]
            g, h, x0, t0 = _gather(live, n, grad, hess, eta, t)
        if not live.size:
            break
        # each row's decisions in the scalar arithmetic of a lone row
        t_rows, ids = t0.tolist(), live.tolist()
        step, descent, slope = _damped_step(
            h, g, np.array([mu[row] for row in ids]), eye)
        # decrease predicted by the quadratic model; rounding can leave the
        # Hessian slightly indefinite, and then more damping is needed
        pred = (-(slope + np.vecdot(((0.5 * step)[:, None, :] @ h)[:, 0, :],
                                    step))).tolist()
        stop, trial = [], []
        for j, d in enumerate(descent.tolist()):
            p = pred[j] if d else -1.0
            if 0.0 <= p <= _ROUNDING * (1.0 + abs(t_rows[j])):
                stop.append(j)
            elif p > 0.0:
                trial.append(j)
        accept, shrink = [], {}
        if trial:
            sel = slice(None) if len(trial) == live.size else trial
            rows, x1 = live[sel], x0[sel] + step[sel]
            # a step far outside the model may overflow or fail; either
            # way it is refused
            with np.errstate(over="ignore", invalid="ignore"):
                t1, q1, w1, failures = _evaluate_rows(evaluate, x1, rows, m)
            for i, exc in failures.items():
                if not isinstance(exc, NumericalFailure):
                    errors[rows[i]] = exc
                    stop.append(trial[i])
            for i, (j, t1_j) in enumerate(zip(trial, t1.tolist())):
                gain = (t_rows[j] - t1_j) / pred[j]
                if gain > 1e-4:
                    accept.append(i)
                    shrink[j] = max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        leaving = set(stop)
        for j, row in enumerate(ids):
            if j in shrink:
                mu[row], nu[row] = mu[row] * shrink[j], 2.0
            elif j not in leaving:
                mu[row], nu[row] = max(mu[row] * nu[row], 1e-3), 2.0 * nu[row]
        if len(accept) == n:
            # every row moved: the trial arrays are the new state
            eta, t, q = x1, t1, q1
            grad, hess = _newton_terms(probs, D, U, q1, w1)
        elif accept:
            moved = rows[accept]
            eta[moved], t[moved], q[moved] = x1[accept], t1[accept], q1[accept]
            grad[moved], hess[moved] = _newton_terms(probs, D, U, q1[accept],
                                                     w1[accept])
        if stop:
            live = np.array([row for j, row in enumerate(ids)
                             if j not in leaving], int)
    for row in live.tolist() if k else ():
        errors[row] = NumericalFailure("kernel Newton search did not converge")

    certified = np.array([j for j, e in enumerate(errors) if e is None], int)
    live = certified
    for _ in range(8 if k else 0):
        x0, t0, g0, h0 = _gather(live, n, eta, t, grad, hess)
        step, descent, _ = _damped_step(h0, g0, np.zeros(live.size), eye)
        x1 = x0 + step
        go = descent & (x1 != x0).any(axis=1)
        if np.count_nonzero(go) < go.size:
            live, x1, t0, g0 = live[go], x1[go], t0[go], g0[go]
        if not live.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            t1, q1, w1, failures = _evaluate_rows(evaluate, x1, live, m)
        g1, h1 = _newton_terms(probs, D, U, q1, w1)
        better = [t1_j <= t_j + _ROUNDING * (1.0 + abs(t_j))
                  and math.sqrt(s1) <= 0.5 * math.sqrt(s0)
                  for t_j, t1_j, s0, s1 in zip(
                      t0.tolist(), t1.tolist(), np.vecdot(g0, g0).tolist(),
                      np.vecdot(g1, g1).tolist())]
        for i, exc in failures.items():
            better[i] = False
            if not isinstance(exc, NumericalFailure):
                errors[live[i]] = exc
        if live.size == n and all(better):
            eta, t, q, grad, hess = x1, t1, q1, g1, h1
            continue
        better = np.array(better, dtype=bool)
        live = live[better]
        eta[live], t[live], q[live] = x1[better], t1[better], q1[better]
        grad[live], hess[live] = g1[better], h1[better]
        if not live.size:
            break

    for row in certified.tolist():
        gap = t[row] - dual(row, q[row])
        if not abs(gap) <= linprog.CERT_TOL * (1.0 + abs(t[row])):
            errors[row] = NumericalFailure(
                f"kernel search stopped with duality gap {gap:.2e}")
    refused = [j for j, e in enumerate(errors) if e is not None]
    if refused:
        eta[refused], t[refused], q[refused] = math.nan, math.nan, math.nan
    return eta, t, q, errors


def _priced_density(q, scale: float, probs, B, prices, cap: float):
    """q clipped into [0, cap], then moved so that the weights
    scale * q * probs price every column of B at `prices`.

    A numeric dual density satisfies its constraints only to solver
    precision; a supporting functional must satisfy them outright.  Each
    round clips q into the box and restores the prices with a minimum-norm
    correction of the coordinates strictly inside the box, or of all
    coordinates when those cannot restore them (AVaR's density at tied
    losses may have none inside), until the result stays in the box.
    When three rounds fail, one LP decides (_nearest_priced_density), and
    NumericalFailure is raised only when no density in the box prices B."""
    m = probs.size
    q0 = q
    # array methods in place of the np.clip, np.max and np.all wrappers
    # (the same ufuncs): this runs once for every certified row
    for _ in range(3):
        q = q.clip(0.0, cap)
        inside = (q > 0.0) & (q < cap)
        w = scale * q * probs
        tol = 1e-12 * (1.0 + float((np.abs(B).T @ w).max()))
        for movable in (inside, np.full(m, True)):
            delta = np.linalg.lstsq(B[movable].T, prices - B.T @ w,
                                    rcond=None)[0]
            moved = q.copy()
            moved[movable] = (w[movable] + delta) / (scale * probs[movable])
            resid = float(np.abs(B.T @ (scale * moved * probs)
                                 - prices).max())
            if resid <= tol:
                break
        q = moved
        if resid <= tol and ((q >= 0.0) & (q <= cap)).all():
            return q
    q = _nearest_priced_density(q0.clip(0.0, cap), scale, probs, B, prices,
                                cap)
    if q is None:
        raise NumericalFailure(
            f"no density inside the dual box restores the security prices "
            f"(price residual {resid:.2e} after three rounds, and the "
            f"pricing LP is infeasible)"
        )
    return q


def _nearest_priced_density(q0, scale: float, probs, B, prices, cap: float):
    """The density q in [0, cap] nearest q0 in the l1 norm whose weights
    scale * q * probs price every column of B at `prices`, from one LP
    over (q, t) with |q - q0| <= t, minimizing the sum of t; None when
    no such q exists (the LP is infeasible).  The prices are imposed on an
    orthonormal basis U of B's span (_span_basis), at the prices they
    imply: a stacked basis can repeat a payoff, and repeated equality rows
    leave the simplex a near-singular basis."""
    m, eye = probs.size, np.eye(probs.size)
    U = _span_basis(B)
    rows = np.block([[U.T * (scale * probs), np.zeros((U.shape[1], m))],
                     [eye, -eye], [-eye, -eye]])
    sol = linprog.solve(linprog.LpProblem(
        c=np.concatenate([np.zeros(m), np.ones(m)]), rows=rows,
        senses=[linprog.EQ] * U.shape[1] + [linprog.LE] * (2 * m),
        rhs=np.concatenate([np.linalg.lstsq(B, U, rcond=None)[0].T @ prices,
                            q0, -q0]),
        lower=np.zeros(2 * m),
        upper=np.concatenate([np.full(m, cap), np.full(m, math.inf)])))
    return sol.primal[:m].clip(0.0, cap) if sol.optimal else None


# ----------------------------------------------------------------------
# conjugates
# ----------------------------------------------------------------------

def conjugate(r: RiskMeasurementRegime, phi: Functional,
              certificate=None) -> RiskValue:
    """rho*(phi) = sup { phi(X) - rho(X) : X in the support ideal }.

    With several eligible securities this splits in two: +inf unless phi
    prices the security span at the market prices, and otherwise the
    acceptance set's support function sup { phi(Y) : Y acceptable }.  The
    price check is relative to the size of phi on the basis payoffs.

    `certificate` = (x, duals), the twin of rho's, offers a solution of
    a polyhedral agent's support LP (_support_value): a point x = (Y[inc],
    a) of an acceptable Y on the supported scenarios and auxiliaries, and
    one dual per row, such as an agent's block of an optimal sharing LP at
    phi's duals.  When linprog.certified_objective accepts it the LP is
    not solved, and the value carries the certificate the LP checks, not
    the bits of its own solve.  A certificate that fails a check is
    ignored, and so is one offered to a law-invariant agent, whose
    support function is a closed form.
    """
    if phi.space.labels != r.space.labels:
        raise StructuralError("functional on a different scenario space")
    if _price_deviation(r, phi) > PRICE_TOL * (1.0 + _price_scale(r, phi)):
        return RiskValue.infinite()
    return _support_value(r, phi, certificate)


def _price_deviation(r, phi) -> float:
    """max_k |phi(b_k) - price_k| over the agent's security basis."""
    B = r.market.basis_matrix()
    return max(abs(float(phi.weights @ B[:, k]) - r.market.prices[k])
               for k in range(r.market.dim))


def _price_scale(r, phi) -> float:
    """max_k sum_w |phi_w b_k(w)|, the size of phi on the agent's basis
    payoffs: every price check compares _price_deviation with its
    tolerance times 1 + this scale."""
    return float(np.max(np.abs(phi.weights) @ np.abs(r.market.basis_matrix())))


def _support_lp(r) -> linprog.LpProblem:
    """The support LP of a polyhedral agent (_support_value) at a zero
    cost, kept on the regime: its rows and bounds do not depend on phi."""
    inc = r.support.included
    return _kept(r._answers, "support", lambda: _block_lp(
        _lp_block(r.lp_rows(), -np.eye(r.space.size)[:, inc],
                  np.zeros(np.count_nonzero(inc))), r.lp_rows()[2]))


def _support_value(r, phi, certificate=None) -> RiskValue:
    """sup { phi(Y) : Y in the acceptance set }, the agent's securities
    left out.  A polyhedral set solves one LP over the supported
    coordinates: the supremum is -rho(0) on a market that trades the
    payoff -1_w of each supported scenario w at the price -phi_w, so rho's
    LP (_lp_block) over the acceptance form has the coordinates Y[inc] as
    its security coefficients.  That LP is kept on the regime
    (_support_lp), and phi only sets the cost of a variant of it
    (linprog._variant).  It is solved only where `certificate`
    (conjugate) is None or fails linprog.certified_objective.  A
    law-invariant set scales out of phi's total mass into the conjugate
    of its base risk."""
    if isinstance(r.acceptance, PolyhedralAcceptanceSet):
        lp = linprog._variant(_support_lp(r),
                              c=-phi.weights[r.support.included])
        value = (None if certificate is None
                 else linprog.certified_objective(lp, *certificate))
        if value is not None:
            return RiskValue.finite(-value)
        sol = linprog.solve(lp)
        if sol.status == "unbounded":
            return RiskValue.infinite()
        if sol.status == "infeasible":
            raise NumericalFailure(
                "conjugate LP infeasible for nonempty acceptance set")
        return RiskValue.finite(-sol.objective_value)
    if float(np.min(phi.density)) < -1e-9:
        return RiskValue.infinite()
    mass = float(r.space.probs @ phi.density)
    if mass <= PRICE_TOL:
        return RiskValue.finite(0.0)        # phi = 0 on a positive density
    inner = r.acceptance.xi_conjugate(r.space.probs, phi.density / mass)
    if not inner.is_finite:
        return inner
    return RiskValue.finite(mass * inner.as_float())
