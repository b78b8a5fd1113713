"""Equilibrium prices and allocations for risk-sharing systems.

A linear functional phi supports an equilibrium when it is nonnegative,
prices every agent's securities consistently, and no agent can lower its
capital requirement inside its budget set.  Such functionals are exactly
the subgradients of the aggregate requirement at the total endowment, and
from any one of them an equilibrium allocation is assembled by moving each
agent's Pareto part onto its budget line with a commonly traded numeraire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linprog, market
from .errors import (
    DomainError,
    InternalInconsistency,
    NRViolation,
    StructuralError,
)
from .regime import (
    ValidationReport,
    _price_deviation,
    _price_scale,
    conjugate,
    rho,
)
from .scenario import Functional, RandomVariable

__all__ = [
    "Equilibrium",
    "subgradient",
    "common_numeraire",
    "build_equilibrium",
    "verify_equilibrium",
]

FENCHEL_TOL = 1e-6
BUDGET_TOL = 1e-8


@dataclass
class Equilibrium:
    allocation: market.Allocation
    price: Functional
    transfers: tuple                 # phi(W_i - Y_i), one per agent
    numeraire: RandomVariable        # commonly traded, priced to one
    value: float                     # aggregate requirement at the endowment
    price_unique: bool = True        # False when the dual solution may not be


# ----------------------------------------------------------------------
# subgradients of the aggregate requirement
# ----------------------------------------------------------------------

def subgradient(s: market.AgentSystem, X: RandomVariable) -> Functional:
    """A supporting functional of the aggregate requirement at X, from the
    sharing LP's shadow prices of the loss or the maximizing density of the
    convolved dual (law-invariant).  Certified before returning: the
    conjugate of the requirement is the sum of the agent conjugates, and
    the Fenchel equality must close to 1e-6.  On the joint LP each agent's
    conjugate takes its block of the sharing LP as its certificate
    (_conjugate_certificates), so one LP is solved."""
    res, sharing = _sharing(s, X, certify=False)
    return _verified_subgradient(s, X, res, sharing)


def _sharing(s, X, certify):
    """capital_requirement at X, and on the joint LP the sharing LP it
    solved, (LpProblem, _SharingLayout, LpSolution); None in its place on
    the law-invariant path (market._law_invariant_path).  A loss on
    another space goes to capital_requirement, which refuses it."""
    if market._law_invariant_path(s) or X.space.labels != s.space.labels:
        return market.capital_requirement(s, X, certify), None
    return market._capital_requirement_lp(s, X, certify)


def _verified_subgradient(s, X, res, sharing) -> Functional:
    if not res.value.is_finite:
        raise DomainError(
            "loss profile admits no supported decomposition; the "
            "requirement is infinite there"
        )
    phi = res.subgradient
    value = res.value.as_float()
    certificates = ([None] * s.n if sharing is None
                    else _conjugate_certificates(s, res, sharing))
    conj = _conjugate_sum(s, phi, certificates)
    gap = abs(value - (phi(X) - conj))
    if gap > FENCHEL_TOL * (1.0 + abs(value)):
        raise InternalInconsistency(
            f"candidate supporting functional misses the Fenchel equality "
            f"by {gap:.2e}"
        )
    return phi


def _conjugate_certificates(s, res, sharing):
    """Per agent, the certificate that its block of the solved sharing LP
    gives its conjugate's support LP (_support_certificate) at the loss's
    shadow prices phi: the block's duals satisfy W_i[:, inc]^T duals =
    -phi[inc] (_SharingLayout.certificates)."""
    _, layout, sol = sharing
    return [_support_certificate(r, part, x, duals)
            for r, part, (x, duals) in zip(
                s.regimes, res.allocation.parts,
                layout.certificates(sol.primal, sol.duals))]


def _support_certificate(r, part, x, duals):
    """The certificate (x', duals) that an optimal solution (x, duals) of
    agent r's rho LP at its part X, x = (z, a), offers the support LP of
    its conjugate (regime.conjugate): x' = (Y[inc], a), Y = X - B z being
    the acceptable part of X.  It can certify the conjugate at phi only
    where the duals price the supported scenarios at phi, W[:, inc]^T
    duals = -phi[inc]: where phi supports the agent at X and these duals
    say so; elsewhere the conjugate solves its support LP."""
    k = r.market.dim
    Y = part.values - r.market.basis_matrix() @ x[:k]
    return np.concatenate([Y[r.support.included], x[k:]]), duals


def _conjugate_sum(s, phi, certificates) -> float:
    total = 0.0
    for r, certificate in zip(s.regimes, certificates):
        v = conjugate(r, phi, certificate)
        if not v.is_finite:
            raise InternalInconsistency(
                "candidate supporting functional has an infinite agent "
                "conjugate (inconsistent with that agent's prices)"
            )
        total += v.as_float()
    return total


# ----------------------------------------------------------------------
# the commonly traded numeraire
# ----------------------------------------------------------------------

def common_numeraire(s: market.AgentSystem) -> RandomVariable:
    """A payoff traded by every agent, rescaled to price one.  Raises
    NRViolation when the common span is trivial or entirely priceless."""
    V, _ = np.linalg.qr(s.regimes[0].market.basis_matrix())
    for r in s.regimes[1:]:
        B = r.market.basis_matrix()
        if V.shape[1] == 0:
            break
        ns = linprog.null_space(np.hstack([V, -B]))
        V = V @ ns[:V.shape[1]]
        if V.shape[1]:
            q, rmat = np.linalg.qr(V)
            keep = np.abs(np.diag(rmat)) > 1e-10 * max(1.0, np.abs(V).max())
            V = q[:, keep]
    if V.shape[1] == 0:
        raise NRViolation("agents share no common security payoff")
    mkt0 = s.regimes[0].market
    prices = []
    for k in range(V.shape[1]):
        u = mkt0.coefficients_of(V[:, k])
        if u is None:
            raise InternalInconsistency(
                "common-span vector left the first agent's span"
            )
        prices.append(mkt0.price(u))
    k = int(np.argmax(np.abs(prices)))
    if abs(prices[k]) <= 1e-10:
        raise NRViolation(
            "every commonly traded payoff has price zero; no numeraire"
        )
    return RandomVariable(s.space, V[:, k] / prices[k])


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def build_equilibrium(s: market.AgentSystem, endowments) -> Equilibrium:
    """Equilibrium from a Pareto allocation of the total endowment: each
    agent receives its Pareto part plus the transfer phi(W_i - Y_i) in
    units of the common numeraire, which lands it exactly on its budget
    line while keeping the total unchanged.

    On the joint LP one LP is solved: the sharing LP at the total
    endowment W certifies each agent's rho (capital_requirement) and
    conjugate (_verified_subgradient) with its own blocks, and its optimal
    basis screens the interior probes (_probe_interior)."""
    endowments = tuple(endowments)
    if len(endowments) != len(s.regimes):
        raise StructuralError("one endowment per agent required")
    for w in endowments:
        if w.space.labels != s.space.labels:
            raise StructuralError("endowment on a different scenario space")
    space = s.space
    total = np.sum([w.values for w in endowments], axis=0)
    W = RandomVariable(space, total)

    res, sharing = _sharing(s, W, certify=True)
    if not res.value.is_finite:
        raise DomainError("total endowment admits no supported decomposition")
    if sharing is not None:
        _probe_interior(s, W, sharing)

    phi = _verified_subgradient(s, W, res, sharing)
    numeraire = common_numeraire(s)
    transfers = tuple(
        float(phi.weights @ (w.values - y.values))
        for w, y in zip(endowments, res.allocation.parts)
    )
    drift = abs(sum(transfers))
    if drift > BUDGET_TOL * (1.0 + float(np.max(np.abs(total)))):
        raise InternalInconsistency(
            f"transfers sum to {drift:.2e} instead of zero"
        )
    parts = tuple(
        RandomVariable(space, y.values + t * numeraire.values)
        for y, t in zip(res.allocation.parts, transfers)
    )
    return Equilibrium(
        allocation=market.Allocation(parts),
        price=phi,
        transfers=transfers,
        numeraire=numeraire,
        value=res.value.as_float(),
        price_unique=not res.dual_degenerate,
    )


def _probe_interior(s, W, sharing):
    """The supporting-functional construction needs the endowment interior
    to the requirement's domain; in finite dimension, coordinate probes
    decide that exactly when the domain is a polyhedron, as it is for
    systems that share through the joint LP.  The 2m probes are
    right-hand sides of the sharing LP solved at W, sharing = (LpProblem,
    _SharingLayout, LpSolution), and that solution's optimal basis screens
    them all before any solve (linprog.solve_batch's start); only the
    probes it rejects are solved.  The basis is dual feasible for every
    right-hand side, so no probe is unbounded, and a probe is infinite
    exactly where market.lambda_batch finds it infinite.  The first
    infinite one, scenario by scenario and up before down, is the one
    refused."""
    lp, layout, sol = sharing
    eps = 1e-6 * (1.0 + float(np.max(np.abs(W.values))))
    m = s.space.size
    scenario = np.repeat(np.arange(m), 2)
    steps = np.tile([eps, -eps], m)
    probes = market._coordinate_moves(W.values, scenario, steps)
    batch = linprog.solve_batch(lp, layout.rhs(probes), sol)
    infinite = np.flatnonzero(np.isinf(batch.objective_value))
    if infinite.size:
        k = infinite[0]
        raise DomainError(
            f"total endowment sits on the boundary of the "
            f"requirement's domain (perturbing scenario {scenario[k]} "
            f"by {steps[k]:+.1e} makes it infinite)"
        )


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def verify_equilibrium(s: market.AgentSystem, endowments,
                       eq: Equilibrium) -> ValidationReport:
    """Full check of the equilibrium definition: price positivity, price
    consistency on every security span, budget equalities, per-agent
    optimality inside the budget set, and Pareto optimality of the
    allocation.

    Verification reads only the LPs it solves itself, never the build's:
    each agent's rho of its part, and Lambda of the total.  An agent's
    conjugate takes the solution of its own rho LP as the certificate of
    its support LP (_support_certificate), which holds when the price
    supports the agent at its part; only where that check fails, at
    degenerate duals or at a price that does not support the agent, is
    the support LP solved."""
    endowments = tuple(endowments)
    space = s.space
    phi = eq.price
    rep = ValidationReport()

    worst_neg = float(np.min(phi.density))
    rep.add("price_nonnegative", worst_neg >= -1e-10,
            f"min density {worst_neg:.3e}")

    checks = [(_price_deviation(r, phi), _price_scale(r, phi))
              for r in s.regimes]
    rep.add("price_consistent_on_security_spans",
            all(dev <= BUDGET_TOL * (1.0 + scale) for dev, scale in checks),
            f"max price deviation {max(dev for dev, _ in checks):.2e}")

    total = np.sum([w.values for w in endowments], axis=0)
    # relative to the endowment, as market._check_allocation_sum checks
    scale = max(1.0, float(np.max(np.abs(total))))
    resid = float(np.max(np.abs(eq.allocation.total() - total)))
    supported = all(r.support.contains(x, tol=1e-9)
                    for r, x in zip(s.regimes, eq.allocation.parts))
    rep.add("allocation_feasible", resid <= 1e-8 * scale and supported,
            f"sum residual {resid:.2e}, parts supported: {supported}")

    worst_budget = max(
        abs(float(phi.weights @ (x.values - w.values)))
        for x, w in zip(eq.allocation.parts, endowments)
    )
    rep.add("budget_equalities", worst_budget <= BUDGET_TOL * scale,
            f"max |phi(X_i) - phi(W_i)| = {worst_budget:.2e}")

    gaps = []
    ok = True
    risks = []
    for r, x, w in zip(s.regimes, eq.allocation.parts, endowments):
        try:
            own = rho(r, x)
            ri = own.value.as_float()
        except DomainError:
            own, ri = None, math.inf
        risks.append(ri)
        certificate = (None if own is None or own.certificate is None
                       else _support_certificate(r, x, *own.certificate))
        budget = float(phi.weights @ w.values)
        # min{rho_i(Y) : phi(Y) >= b} = b - rho_i*(phi) when phi prices S_i
        # consistently and some security has a nonzero price
        best = budget - conjugate(r, phi, certificate).as_float()
        gap = ri - best
        gaps.append(gap)
        ok &= abs(gap) <= FENCHEL_TOL * (1.0 + abs(ri))
    rep.add("individual_optimality", ok,
            "budget-constrained gaps: "
            + ", ".join(f"{g:.2e}" for g in gaps))

    lam = market.capital_requirement(
        s, RandomVariable(space, total), certify=False).value
    if lam.is_finite:
        pareto_gap = abs(sum(risks) - lam.as_float())
        rep.add("pareto_optimal",
                pareto_gap <= BUDGET_TOL * (1.0 + abs(lam.as_float())),
                f"sum of risks deviates from requirement by {pareto_gap:.2e}")
    else:
        rep.add("pareto_optimal", False, "aggregate requirement infinite")
    return rep
