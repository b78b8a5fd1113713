"""Seeded workloads of the riskshare benchmark.

Each workload is one operation on one instance family at one size, so that
the latency median of a run describes a single population.  Request i of a
run gets instance i of a stream that depends on the seed alone, and every
answer is checked against a reference: a closed form, an independent code
path, or the certificate the operation itself must pass.
"""

import functools
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

# requests call through module attributes, so the tracer's rebinding
# reaches them
from riskshare import equilibrium, lawinv, market, oracle, regime, splits
from riskshare.regime import (LawInvariantAcceptanceSet,
                              PolyhedralAcceptanceSet, RiskMeasurementRegime,
                              SecurityMarket)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask

# sizes that requests_per_s and the latencies of each workload refer to
POLY_LAMBDA_M, POLY_LAMBDA_N = 80, 4
POLY_EQ_M, POLY_EQ_N = 16, 2
LAWINV_M = 8
SPLIT_M, SPLIT_N_MAX = 4, 8
PARETO_M, PARETO_MARGIN, PARETO_STEP = 4, 0.5, 0.5    # 3^4 grid rows
BRACKET_STEP = 0.02                                   # 2 x 2 grid rows
ANCHORS = 4               # lawinv-lambda: fixed instances, seeded order
ANCHOR_SEED = 20181009
SCALE_SIZES = ((40, 2), (40, 4), (80, 2), (80, 4), (160, 2), (160, 4))

LAMBDA_TOL = 1e-8         # window-chain closed form
BUDGET_TOL = 1e-8         # equilibrium budgets
AVAR_ENTROPIC_TOL = 2e-4  # acceptance gate 4
RHO_TOL = 1e-8            # relative to 1 + |value|
SPLIT_TOL = 1e-9          # acceptance gate 10
BRACKET_SLACK = 1e-9


# ----------------------------------------------------------------------
# instance builders
# ----------------------------------------------------------------------

def _space(m):
    return ScenarioSpace.uniform([f"s{i}" for i in range(m)])


def _ceiling_regime(space, owned, ceilings):
    """Acceptable iff X(w) <= ceiling(w) on every owned scenario; the market
    trades the indicator of every owned scenario at price 1."""
    functionals = []
    for w in owned:
        d = np.zeros(space.size)
        d[w] = 1.0 / space.probs[w]
        functionals.append(Functional(space, d))
    labels = [space.labels[w] for w in owned]
    return RiskMeasurementRegime(
        support=SupportMask.from_labels(space, labels),
        acceptance=PolyhedralAcceptanceSet(tuple(functionals),
                                           np.asarray(ceilings, dtype=float)),
        market=SecurityMarket(tuple(space.indicator([lab]) for lab in labels),
                              np.ones(len(labels))))


def window_chain(rng, m, n):
    """n ceiling agents on m scenarios: agent i owns scenario 0 plus a
    window of consecutive scenarios overlapping the next agent's window by
    two.  Lambda = sum X - sum of all ceilings.  Returns (regimes, X,
    expected Lambda)."""
    space = _space(m)
    inner = m - 1
    width = -(-inner // n)
    regimes, total_ceiling = [], 0.0
    for i in range(n):
        lo = 1 + i * width
        hi = min(inner, lo + width + 1)          # inclusive, two overlap
        owned = [0] + list(range(lo, hi + 1))
        ceilings = rng.uniform(-2.0, 2.0, len(owned))
        total_ceiling += float(ceilings.sum())
        regimes.append(_ceiling_regime(space, owned, ceilings))
    X = space.rv(rng.uniform(-5.0, 5.0, m))
    return tuple(regimes), X, float(X.values.sum()) - total_ceiling


def _kernel_market(space, a_mask, qa):
    """{unit at price 1, indicator of A at price qa}: the payoff
    1_A - qa/(1-qa) 1_{A^c} has price zero."""
    return SecurityMarket(
        (space.rv(np.ones(space.size)), space.rv(a_mask.astype(float))),
        np.array([1.0, qa]))


def _li_regime(space, kind, param, market):
    return RiskMeasurementRegime(SupportMask.full(space),
                                 LawInvariantAcceptanceSet(kind, param),
                                 market)


def _event(rng, m, k):
    mask = np.zeros(m, dtype=bool)
    mask[rng.choice(m, size=k, replace=False)] = True
    return mask


def _polyhedral_full(rng, space, extra):
    """Full-support polyhedral agent: E_Q[X] <= b for Q = P and `extra`
    random densities; cash market.  Sharing P keeps Lambda finite."""
    m = space.size
    dens = [np.ones(m)] + [rng.dirichlet(np.ones(m)) / space.probs
                           for _ in range(extra)]
    acc = PolyhedralAcceptanceSet(tuple(Functional(space, d) for d in dens),
                                  rng.uniform(-1.0, 1.0, len(dens)))
    return RiskMeasurementRegime(
        SupportMask.full(space), acc,
        SecurityMarket((space.rv(np.ones(m)),), np.array([1.0])))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple          # layers that must record spans in a traced run
    instance: object       # (seed, i) -> instance i of the seed's stream
    request: object        # instance -> answer
    reference: object      # instance -> reference, once per instance object
    check: object          # (instance, answer, reference) -> bool
    cycle: int = 1         # a timed run ends on a multiple of this count

    def instances(self, seed, n):
        return [self.instance(seed, i) for i in range(n)]


def _fresh(draw):
    """Instance i drawn from its own generator, seeded by (seed, i)."""
    return lambda seed, i: draw(np.random.default_rng([seed, i]))


def _no_reference(_inst):
    return None


# poly-lambda ----------------------------------------------------------

def _poly_lambda_draw(rng):
    return window_chain(rng, POLY_LAMBDA_M, POLY_LAMBDA_N)


def poly_lambda_request(inst):
    regimes, X, _ = inst
    return market.capital_requirement(market.AgentSystem(regimes), X,
                                      certify=True)


def _poly_lambda_check(inst, res, _ref):
    return (res.value.is_finite
            and abs(res.value.as_float() - inst[2]) <= LAMBDA_TOL)


# poly-equilibrium -----------------------------------------------------

def _poly_eq_draw(rng):
    regimes, _, _ = window_chain(rng, POLY_EQ_M, POLY_EQ_N)
    space = regimes[0].space
    endowments = tuple(space.rv(rng.uniform(-5.0, 5.0, space.size))
                       for _ in regimes)
    return regimes, endowments


def _poly_eq_request(inst):
    regimes, endowments = inst
    s = market.AgentSystem(regimes)
    eq = equilibrium.build_equilibrium(s, endowments)
    return eq, equilibrium.verify_equilibrium(s, endowments, eq)


def _poly_eq_check(inst, answer, _ref):
    eq, rep = answer
    budgets = max(abs(float(eq.price.weights @ (x.values - w.values)))
                  for x, w in zip(eq.allocation.parts, inst[1]))
    return rep.passed and budgets <= BUDGET_TOL


# lawinv-lambda --------------------------------------------------------

@functools.lru_cache(maxsize=ANCHORS)
def _tail_entropic_anchor(k):
    """Anchor instance k of the AVaR + entropic kernel family."""
    m = LAWINV_M
    space = _space(m)
    anchor = np.random.default_rng([ANCHOR_SEED, k])
    a_mask = _event(anchor, m, 3)
    beta = float(anchor.uniform(0.3, 0.5))
    gamma = float(anchor.uniform(0.5, 2.0))
    pa = a_mask.mean()
    cap = 1.0 / (1.0 - beta)
    q_lo, q_hi = max(0.0, 1.0 - cap * (1.0 - pa)), min(cap * pa, 1.0)
    qa = float(q_lo + (q_hi - q_lo) * anchor.uniform(0.3, 0.7))
    X = space.rv(anchor.normal(0.0, 1.0, m))
    mkt = _kernel_market(space, a_mask, qa)
    regimes = (_li_regime(space, "avar", beta, mkt),
               _li_regime(space, "entropic", gamma, mkt))
    labels = tuple(lab for lab, a in zip(space.labels, a_mask) if a)
    return regimes, X, (beta, gamma, labels, qa)


def _tail_entropic_instance(seed, i):
    """The fixed anchors, cycled in a seeded order.  The solver's cost is
    erratic in the loss: shifting X by a constant, moving it by 0.05 or
    relabelling its scenarios changes the number of mixed-dual evaluations
    from 33 to 82, and a run completes only about a dozen requests, so
    seeded draws would make the median depend on the draw."""
    order = np.random.default_rng(seed).permutation(ANCHORS)
    return _tail_entropic_anchor(int(order[i % ANCHORS]))


def _lawinv_lambda_request(inst):
    regimes, X, _ = inst
    return market.capital_requirement(market.AgentSystem(regimes), X,
                                      certify=True)


def _lawinv_lambda_reference(inst):
    beta, gamma, labels, qa = inst[2]
    return lawinv.avar_entropic_sharing(beta, gamma, labels, qa, inst[1]).value


def _lawinv_lambda_check(_inst, res, ref):
    return (res.value.is_finite
            and abs(res.value.as_float() - ref) <= AVAR_ENTROPIC_TOL)


# lawinv-rho -----------------------------------------------------------

def _entropic_kernel_draw(rng):
    m = LAWINV_M
    space = _space(m)
    a_mask = _event(rng, m, 3)
    qa = float(rng.uniform(0.2, 0.6))
    alpha = float(rng.uniform(0.5, 2.0))
    r = _li_regime(space, "entropic", alpha, _kernel_market(space, a_mask, qa))
    return r, space.rv(rng.normal(0.0, 1.0, m)), (a_mask, qa)


def _lawinv_rho_request(inst):
    return regime.rho(inst[0], inst[1])


def _lawinv_rho_reference(inst):
    """Closed form of the dual: the maximizing density is the Gibbs density
    of alpha X, renormalized to mass qa on A and 1 - qa off it, so
    rho = (qa log(Z_A / qa) + (1 - qa) log(Z_A^c / (1 - qa))) / alpha with
    Z_B = E[exp(alpha X); B]."""
    r, X, (a_mask, qa) = inst
    alpha = r.acceptance.param
    weights = r.space.probs * np.exp(alpha * X.values)
    total = 0.0
    for mask, mass in ((a_mask, qa), (~a_mask, 1.0 - qa)):
        total += mass * (math.log(float(weights[mask].sum())) - math.log(mass))
    return total / alpha


def _lawinv_rho_check(_inst, res, ref):
    return (res.value is not None and res.value.is_finite
            and abs(res.value.as_float() - ref) <= RHO_TOL * (1.0 + abs(ref)))


# lawinv-split ---------------------------------------------------------

def _split_objectives(alpha, cost, X):
    return [regime.base_risk("entropic", alpha / n, X.space.probs, X.values)
            + cost * n for n in range(1, SPLIT_N_MAX + 1)]


def _split_draw(rng):
    """Identical entropic subsidiaries with a cash market and a linear
    licensing cost; redrawn until the best group size is unambiguous."""
    space = _space(SPLIT_M)
    while True:
        alpha = float(rng.uniform(0.5, 2.0))
        cost = float(rng.uniform(0.02, 0.3))
        X = space.rv(rng.normal(0.0, 2.0, SPLIT_M))
        objective = sorted(_split_objectives(alpha, cost, X))
        if objective[1] - objective[0] > 1e-6:
            break
    r = _li_regime(space, "entropic", alpha,
                   SecurityMarket((space.rv(np.ones(SPLIT_M)),),
                                  np.array([1.0])))
    return r, X, (alpha, cost)


def _split_request(inst):
    r, X, (_, cost) = inst
    problem = splits.SplitProblem.identical(
        r, splits.CostFunction.linear(cost), SPLIT_N_MAX)
    return splits.split_optimize(problem, X)


def _split_reference(inst):
    r, X, (alpha, cost) = inst
    objective = _split_objectives(alpha, cost, X)
    k = int(np.argmin(objective))
    return k + 1, objective[k]


def _split_check(_inst, res, ref):
    n_star, value = ref
    return res.n_star == n_star and abs(res.value - value) <= SPLIT_TOL


# oracle-pareto --------------------------------------------------------

def _pareto_draw(rng):
    space = _space(PARETO_M)
    regimes = (_polyhedral_full(rng, space, 2),
               _polyhedral_full(rng, space, 2))
    return regimes, space.rv(rng.normal(0.0, 1.0, PARETO_M))


def _pareto_request(inst):
    regimes, X = inst
    s = market.AgentSystem(regimes)
    res = market.capital_requirement(s, X, certify=True)
    grid = oracle.GridSpec.around(X, PARETO_MARGIN, PARETO_STEP)
    return oracle.verify_pareto(s, X, res.allocation, grid)


def _pareto_check(_inst, chk, _ref):
    return chk.pareto is True


# oracle-bracket -------------------------------------------------------

def _bracket_draw(rng):
    """Two entropic agents on two scenarios; the first also trades the
    indicator of scenario 0, which leaves a zero-price kernel direction."""
    p0 = float(rng.uniform(0.3, 0.7))
    space = ScenarioSpace(("heads", "tails"), np.array([p0, 1.0 - p0]))
    qa = float(rng.uniform(0.3, 0.7))
    alphas = rng.uniform(0.5, 2.0, 2)
    regimes = (
        _li_regime(space, "entropic", float(alphas[0]),
                   _kernel_market(space, np.array([True, False]), qa)),
        _li_regime(space, "entropic", float(alphas[1]),
                   SecurityMarket((space.rv(np.ones(2)),), np.array([1.0]))))
    return regimes, space.rv(rng.normal(0.0, 1.0, 2))


def _bracket_request(inst):
    """Lambda, then the brute-force grid boxed around the solver's own first
    part, so the box holds an optimal first part."""
    regimes, X = inst
    s = market.AgentSystem(regimes)
    res = market.capital_requirement(s, X, certify=True)
    center = res.allocation.parts[0].values
    grid = oracle.GridSpec(center, center + BRACKET_STEP, BRACKET_STEP)
    return res.value.as_float(), oracle.brute_lambda(s, X, grid)


def _bracket_check(_inst, answer, _ref):
    value, br = answer
    low, high = br.bracket()
    return (br.estimate.is_finite
            and low - BRACKET_SLACK <= value <= high + BRACKET_SLACK)


# cli-readme -----------------------------------------------------------

LOSS = '{"a": 4, "b": 5, "c": 6}'
CLI_COMMANDS = (
    (("validate", "fixtures/overlap_ceilings.json"), 0),
    (("rho", "fixtures/overlap_ceilings.json", "--agent", "1",
      "--loss", '{"a": 1, "b": 2}'), 0),
    (("lambda", "fixtures/overlap_ceilings.json", "--loss", LOSS), 0),
    (("pareto", "fixtures/overlap_ceilings.json", "--loss", LOSS,
      "--zeta", "0.5"), 0),
    (("equilibrium", "fixtures/overlap_ceilings.json"), 0),
    (("split", "fixtures/split_entropic.json", "--loss", '{"high": 2}'), 0),
    (("oracle", "fixtures/overlap_ceilings.json", "--loss", LOSS,
      "--check", "lambda"), 0),
    (("validate", "fixtures/arbitrage_triple.json"), 1),
)


def _cli_instance(seed, i):
    """Command i: each pass of eight runs every README command once, in an
    order drawn per pass."""
    order = np.random.default_rng([seed, i // len(CLI_COMMANDS)]).permutation(
        len(CLI_COMMANDS))
    return CLI_COMMANDS[int(order[i % len(CLI_COMMANDS)])]


def cli_child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    return env


def _cli_request(inst):
    """The command in a fresh interpreter: (exit code, stdout bytes)."""
    proc = subprocess.run([sys.executable, "-m", "riskshare.cli", *inst[0]],
                          capture_output=True, env=cli_child_env(),
                          timeout=120)
    return proc.returncode, proc.stdout


def _cli_reference(inst):
    """The same command run in-process: (exit code, stdout bytes)."""
    from riskshare import cli        # imported by this workload alone
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(list(inst[0]))
    return code, buf.getvalue().encode()


def _cli_check(inst, answer, reference):
    """The documented exit code, stdout byte-identical to the in-process
    run, and the README's worked numbers for `lambda`."""
    (argv, expected_code), (code, out) = inst, answer
    if code != expected_code or (code, out) != reference:
        return False
    if argv[0] == "lambda":
        outputs = json.loads(out)["outputs"]
        risks = sorted(v["value"] for v in outputs["agent_risks"].values())
        return outputs["value"]["value"] == 8.0 and risks == [3.0, 5.0]
    return True


CLI = "cli-readme"

WORKLOADS = {
    "poly-lambda": Workload(
        "poly-lambda", ("linprog", "market", "regime"),
        _fresh(_poly_lambda_draw), poly_lambda_request, _no_reference,
        _poly_lambda_check),
    "poly-equilibrium": Workload(
        "poly-equilibrium", ("linprog", "market", "regime", "equilibrium"),
        _fresh(_poly_eq_draw), _poly_eq_request, _no_reference,
        _poly_eq_check),
    "lawinv-lambda": Workload(
        "lawinv-lambda", ("market", "lawinv", "regime"),
        _tail_entropic_instance, _lawinv_lambda_request,
        _lawinv_lambda_reference, _lawinv_lambda_check, ANCHORS),
    "lawinv-rho": Workload(
        "lawinv-rho", ("regime", "linprog"),
        _fresh(_entropic_kernel_draw), _lawinv_rho_request,
        _lawinv_rho_reference, _lawinv_rho_check),
    "lawinv-split": Workload(
        "lawinv-split", ("splits", "lawinv", "market"),
        _fresh(_split_draw), _split_request, _split_reference, _split_check),
    "oracle-pareto": Workload(
        "oracle-pareto", ("oracle", "linprog", "regime"),
        _fresh(_pareto_draw), _pareto_request, _no_reference, _pareto_check),
    "oracle-bracket": Workload(
        "oracle-bracket", ("oracle", "regime", "lawinv"),
        _fresh(_bracket_draw), _bracket_request, _no_reference,
        _bracket_check),
    CLI: Workload(
        CLI, ("cli", "problemfile", "market", "regime", "linprog"),
        _cli_instance, _cli_request, _cli_reference, _cli_check,
        len(CLI_COMMANDS)),
}
