"""Reference formulations and closed forms that no command runs.

The tests check the library's engines against them; no library code
calls them.

* scenario_row_sharing_lp is the sharing LP with one equality row per
  scenario, the form market._sharing_lp had before each scenario's holder
  took the remainder of the loss, in three `securities` modes: "own" is
  the library's allocation form, "aggregate" the payoff form of the
  representative agent and "none" membership in A_+.
* On it: the payoff form of Lambda (capital_requirement_payoff_form), the
  membership oracle (acceptable_decomposition), the Pareto allocation
  built from an optimal aggregate payoff (pareto_from_payoff, with the
  canonical security_selection) and the level-set certificate.
* The law-invariant closed forms of two entropic agents:
  entropic_infconv and entropic_pair_sharing.
* expectation and lower_quantile on loss profiles.
* The glued price of an aggregate-span payoff (pi, over
  aggregate_contains) and a polyhedral acceptance set's margin.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from riskshare import linprog
from riskshare.errors import DomainError, InternalInconsistency, StructuralError
from riskshare.lawinv import ComonotoneSplit, _unwind, convolution_split
from riskshare.linprog import CERT_TOL
from riskshare.market import (
    SPAN_TOL,
    Allocation,
    _ensure_shareable,
    _unbounded_sharing,
    block_decompose,
    capital_requirement,
    selection_blocks,
)
from riskshare.regime import (
    ENTROPIC,
    LawInvariantAcceptanceSet,
    RiskValue,
    _logsumexp,
)
from riskshare.scenario import RandomVariable, _lower_quantile


def aggregate_contains(s, values):
    """Coefficients of `values` over the stacked basis of the system `s`
    (least squares), or None if it lies outside the aggregate span (a
    residual above SPAN_TOL max(1, |values|max))."""
    B, _, _ = s.stacked_basis()
    w, *_ = np.linalg.lstsq(B, values, rcond=None)
    scale = max(1.0, np.abs(values).max())
    if np.max(np.abs(B @ w - values)) > SPAN_TOL * scale:
        return None
    return w


def pi(s, values) -> float:
    """Glued price of an aggregate-span payoff.  Well-defined (the same
    for every decomposition) when pi(0) = 0; a system with scalable
    arbitrage is refused (market._ensure_shareable)."""
    _ensure_shareable(s)
    w = aggregate_contains(s, values)
    if w is None:
        raise DomainError("payoff lies outside the aggregate security span")
    _, prices, _ = s.stacked_basis()
    return float(prices @ w)


def margin(acc, values) -> float:
    """max_j phi_j(X) - bound_j of a polyhedral acceptance set (<= 0 iff
    X is acceptable)."""
    return float(np.max(acc.weight_matrix() @ values - acc.bounds))


def scenario_row_sharing_lp(s, target, securities="own"):
    """The sharing LP of `s` with its scenario rows, and each agent's
    first column.

    `securities` names where the securities enter:
    * "own": each agent's own security coefficients z_i, priced by its
      market (Lambda in allocation form, market._sharing_lp's problem);
    * "aggregate": the payoff Z = B w on the columns of
      s.stacked_basis(), priced by the stacked prices (the payoff form);
    * "none": no security columns and a zero cost (membership in A_+).

    Columns: the aggregate columns w (if any), then per agent i its
    supported coordinates X_i[inc_i], then its own z_i (if any), then its
    auxiliaries a_i >= aux_lower_i; every other column is free.  Rows: the
    acceptance blocks  W_i[:, inc_i] | -W_i B_i | A_i  (<= bounds_i),
    block-diagonal in agent order, then one equality row per scenario w
    with a 1 at every agent that holds w, B[w] in the aggregate columns,
    and right-hand side target[w].

    Returns (LpProblem, starts), starts[i] being agent i's first column.
    """
    m = s.space.size
    forms = [r.lp_rows() for r in s.regimes]
    own = securities == "own"
    if securities == "aggregate":
        B, prices, _ = s.stacked_basis()
    else:
        B, prices = np.zeros((m, 0)), np.zeros(0)
    blocks = []
    for r, (W, A, _, _) in zip(s.regimes, forms):
        z = [-(W @ r.market.basis_matrix())] if own else []
        blocks.append(np.hstack([W[:, r.support.included], *z, A]))
    k = B.shape[1]
    J = sum(b.shape[0] for b in blocks)
    n = k + sum(b.shape[1] for b in blocks)
    rows = np.zeros((J + m, n))
    rows[J:, :k] = B
    c = np.zeros(n)
    c[:k] = prices
    lower = np.full(n, -math.inf)
    starts, row, col = [], 0, k
    for r, b, (_, _, _, aux_lower) in zip(s.regimes, blocks, forms):
        rows[row:row + b.shape[0], col:col + b.shape[1]] = b
        held = np.flatnonzero(r.support.included)
        rows[J + held, col + np.arange(held.size)] = 1.0
        if own:
            c[col + held.size:col + held.size + r.market.dim] = r.market.prices
        lower[col + b.shape[1] - aux_lower.size:col + b.shape[1]] = aux_lower
        starts.append(col)
        row += b.shape[0]
        col += b.shape[1]
    rhs = np.concatenate([bounds for _, _, bounds, _ in forms] + [target])
    return linprog.LpProblem(
        c=c, rows=rows, senses=[linprog.LE] * J + [linprog.EQ] * m, rhs=rhs,
        lower=lower, upper=np.full(n, math.inf)), starts


# ----------------------------------------------------------------------
# the representative agent
# ----------------------------------------------------------------------

def capital_requirement_payoff_form(s, X):
    """inf { pi(Z) : Z in M, X - Z in A_+ }: the representative-agent form,
    solved as its own LP (the cross-check of the allocation form)."""
    _ensure_shareable(s)
    sol = linprog.solve(scenario_row_sharing_lp(s, X.values, "aggregate")[0])
    if sol.status == "infeasible":
        return RiskValue.infinite()
    if sol.status == "unbounded":
        raise _unbounded_sharing()
    return RiskValue.finite(sol.objective_value)


def acceptable_decomposition(s, target):
    """Y_i in A_i (inside supports) with sum = target, or None (an LP
    feasibility query for membership in the Minkowski sum A_+).  Agent
    i's part is its block of supported coordinates, read off starts[i]."""
    lp, starts = scenario_row_sharing_lp(s, target, "none")
    sol = linprog.solve(lp)
    if sol.status != "optimal":
        return None
    parts = []
    for r, o in zip(s.regimes, starts):
        inc = np.flatnonzero(r.support.included)
        part = np.zeros(target.size)
        part[inc] = sol.primal[o:o + inc.size]
        parts.append(part)
    return parts


def security_selection(s, Z):
    """The canonical linear selection of a security allocation: decompose Z
    along the sequential direct-sum blocks (market.selection_blocks).
    Parts sum to Z exactly and each lies in its agent's span."""
    if aggregate_contains(s, Z.values) is None:
        raise DomainError("payoff lies outside the aggregate security span")
    bases = [r.market.basis_matrix() for r in s.regimes]
    parts = block_decompose(selection_blocks(bases), Z.values)
    return [RandomVariable(s.space, p) for p in parts]


def pareto_from_payoff(s, X, Z):
    """Turn an optimal aggregate payoff into a Pareto allocation: find
    acceptable parts summing to X - Z, split Z by the canonical security
    selection, and recombine."""
    res = capital_requirement(s, X, certify=False)
    if not res.value.is_finite:
        raise DomainError("X is not shareable (Lambda = +inf)")
    price = pi(s, Z.values)
    if abs(price - res.value.value) > 1e-8 * (1 + abs(price)):
        raise DomainError(
            f"payoff price {price} does not match Lambda(X) = {res.value.value}"
        )
    parts_acc = acceptable_decomposition(s, X.values - Z.values)
    if parts_acc is None:
        raise DomainError(
            "X - Z is not in the aggregate acceptance set; the payoff "
            "violates the optimality contract"
        )
    secs = security_selection(s, Z)
    return Allocation(tuple(
        RandomVariable(s.space, y + sec.values)
        for y, sec in zip(parts_acc, secs)
    ))


def level_set_certificate(s, X, c, U):
    """LP feasibility for  X - c*U  in  A_+ + ker(pi): certifies the level
    set identity L_c(Lambda) = c U + A_+ + ker(pi)."""
    lp, _ = scenario_row_sharing_lp(s, X.values - c * U.values, "aggregate")
    # the row pi(Z) = 0 pins the priced objective: optimal or infeasible
    sol = linprog.solve(linprog.LpProblem(
        c=lp.c, rows=np.vstack([lp.c, lp.rows]),
        senses=[linprog.EQ] + lp.senses, rhs=np.concatenate([[0.0], lp.rhs]),
        lower=lp.lower, upper=lp.upper))
    return sol.status == "optimal"


# ----------------------------------------------------------------------
# two entropic agents
# ----------------------------------------------------------------------

def entropic_infconv(alphas, X):
    """Convolution of entropic base measures: the entropic measure at the
    harmonic-sum parameter, attained by the proportional split."""
    alphas = [float(a) for a in alphas]
    if not alphas or any(a <= 0 for a in alphas):
        raise DomainError("entropic parameters must be positive")
    measures = tuple(LawInvariantAcceptanceSet(ENTROPIC, a) for a in alphas)
    return convolution_split(measures, X.space.probs, X.values)


@dataclass
class EntropicPairResult:
    value: float
    r_star: float
    cash: float                       # value / p, the traded cash layer
    kernel: RandomVariable            # r* (1_A - 1_{A^c}), price zero
    parts: tuple                      # final positions, summing to X
    acceptable_parts: tuple
    securities: tuple
    split: ComonotoneSplit
    certificates: dict = field(default_factory=dict)


def entropic_pair_sharing(p, alphas, a_labels, X):
    """Two entropic agents trading cash (price p) and the zero-price spread
    1_A - 1_{A^c} (the pricing measure puts mass 1/2 on A).

    The requirement has a closed form,

        value = (p / (2 alpha)) (log E[e^{aX} 1_A] + log E[e^{aX} 1_{A^c}]
                                 + 2 log 2),

    and the optimal spread position r* solves the boundary equation
    e^{-ar} a~ + e^{ar} b~ = 1, a quadratic in e^{ar} whose discriminant
    vanishes at the optimum.
    """
    if p <= 0:
        raise DomainError("cash price scale must be positive")
    b_param, g_param = (float(a) for a in alphas)
    if b_param <= 0 or g_param <= 0:
        raise DomainError("entropic parameters must be positive")
    space = X.space
    mask = np.isin(np.array(space.labels), np.asarray(list(a_labels)))
    pa = float(space.probs[mask].sum())
    if not 0.0 < pa < 1.0:
        raise DomainError("the event A must be a nonempty proper subset")
    alpha = 1.0 / (1.0 / b_param + 1.0 / g_param)
    probs = space.probs
    log_a = float(_logsumexp(alpha * X.values[mask], probs[mask]))
    log_b = float(_logsumexp(alpha * X.values[~mask], probs[~mask]))
    value = (p / (2.0 * alpha)) * (log_a + log_b + 2.0 * math.log(2.0))
    cash = value / p

    # boundary quadratic in u = e^{alpha r}:  b~ u^2 - u + a~ = 0
    a_t = math.exp(log_a - alpha * cash)
    b_t = math.exp(log_b - alpha * cash)
    disc = 1.0 - 4.0 * a_t * b_t
    if disc < -1e-10:
        raise InternalInconsistency(
            f"boundary quadratic has negative discriminant {disc:.2e}"
        )
    u = (1.0 + math.sqrt(max(disc, 0.0))) / (2.0 * b_t)
    r_star = math.log(u) / alpha
    closed_ratio = (log_a - log_b) / (2.0 * alpha)
    if abs(r_star - closed_ratio) > 1e-7 * (1.0 + abs(r_star)):
        raise InternalInconsistency(
            "quadratic root and closed-ratio solutions disagree"
        )

    spread = np.where(mask, 1.0, -1.0)
    kernel = RandomVariable(space, r_star * spread)
    y = X.values - cash - kernel.values
    measures = (LawInvariantAcceptanceSet(ENTROPIC, b_param),
                LawInvariantAcceptanceSet(ENTROPIC, g_param))
    # the slack above the boundary is a part risk, checked by _unwind
    boundary, split, acc_vals, part_risks = _unwind(measures, probs, y)
    if abs(boundary) > CERT_TOL:
        raise InternalInconsistency(
            f"securitized remainder misses the acceptance boundary by "
            f"{boundary:.2e}"
        )
    acc_parts = [RandomVariable(space, v) for v in acc_vals]
    sec1 = RandomVariable(space, cash * np.ones(space.size) + kernel.values)
    sec2 = RandomVariable(space, np.zeros(space.size))
    parts = (acc_parts[0] + sec1, acc_parts[1] + sec2)
    certs = {"aggregate_boundary": boundary, "part_risks": part_risks}
    return EntropicPairResult(
        value=value, r_star=r_star, cash=cash, kernel=kernel,
        parts=parts, acceptable_parts=tuple(acc_parts),
        securities=(sec1, sec2), split=split, certificates=certs)


# ----------------------------------------------------------------------
# loss-profile statistics
# ----------------------------------------------------------------------

def expectation(Q, X):
    """Weighted expectation sum density*probs*values."""
    return Q(X)


def lower_quantile(X, level):
    """Smallest value v with P(X <= v) >= level."""
    if not 0.0 < level <= 1.0:
        raise StructuralError("quantile level must lie in (0, 1]")
    return _lower_quantile(X.space.probs, X.values, level)
