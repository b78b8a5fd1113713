"""Command-line front end: load a problem document, run one solver, emit a
result document.

Every command is pure given the file and its flags: rerunning with the same
inputs and seed produces a byte-identical document.  Numeric outputs are
wrapped as {"value": ..., "tol": ...} carrying the tolerance under which the
number was certified; vectors are scenario-label-keyed.

Start-up loads the document path (problemfile, market, regime, linprog)
and nothing else: equilibrium, lawinv, oracle and splits are imported by
the commands that run them, so a polyhedral `rho` or `lambda` never pays
for them.  Bad flag values are refused with a StructuralError before the
document is read.
"""

import argparse
import json
import math
import sys

from . import __version__
from .errors import (DomainError, InternalInconsistency, NumericalFailure,
                     StructuralError)
from .market import (capital_requirement, nsa_check, shift_allocation,
                     validate_star)
from .problemfile import ProblemDocument, load_problem, vector_to
from .regime import rho, validate_regime

DEFAULT_TOL = 1e-8


def _tool():
    return {"name": "riskshare", "version": __version__}


def _num(x: float):
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _scalar(x, tol: float) -> dict:
    return {"value": _num(x), "tol": float(tol)}


def _vector(space, values, tol: float) -> dict:
    return {"value": vector_to(space, values), "tol": float(tol)}


def _json_flag(flag: str, text: str, opener: str):
    """A flag value that is inline JSON (starting with `opener`) or a path
    to a JSON file."""
    try:
        if text.lstrip().startswith(opener):
            return json.loads(text)
        with open(text) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{flag} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise StructuralError(f"cannot read {flag}: {exc}") from exc


def _loss(space, text: str):
    mapping = _json_flag("--loss", text, "{")
    if not isinstance(mapping, dict):
        raise StructuralError("loss vector must be a label-keyed object")
    return space.rv_from_dict(mapping)


def _endowments(space, text: str):
    rows = _json_flag("--endowments", text, "[")
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise StructuralError(
            "--endowments must be a JSON array of label-keyed objects")
    return tuple(space.rv_from_dict(r) for r in rows)


def _report(rep) -> dict:
    return rep.to_dict()


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _cmd_validate(pd: ProblemDocument, args):
    outputs = {"agents": {}, "star": None, "nsa": None, "pricing": None}
    ok = True
    for name, r in zip(pd.names, pd.regimes):
        rep = validate_regime(r, seed=args.seed)
        outputs["agents"][name] = _report(rep)
        ok &= rep.passed
    if len(pd.regimes) >= 2:
        s = pd.system()
        star = validate_star(s)
        outputs["star"] = _report(star)
        ok &= star.passed
        nsa = nsa_check(s)
        outputs["nsa"] = {
            "dim_v": int(nsa.dim_v),
            "n_agents": int(nsa.n_agents),
            "verdict": nsa.verdict(),
            "passed": bool(nsa.pi_zero_is_zero),
        }
        ok &= nsa.pi_zero_is_zero
    prob = pd.law_invariant_problem()
    if prob is not None:
        from . import lawinv
        rep = lawinv.validate_problem(prob)
        outputs["pricing"] = _report(rep)
        ok &= rep.passed
    if pd.split is not None:
        from . import splits
        rep = splits.validate_split_problem(pd.split_problem())
        outputs["split"] = _report(rep)
        ok &= rep.passed
    return outputs, ok


def _cmd_rho(pd: ProblemDocument, args):
    if not 1 <= args.agent <= len(pd.regimes):
        raise StructuralError(
            f"--agent {args.agent} out of range 1..{len(pd.regimes)}")
    r = pd.regimes[args.agent - 1]
    X = _loss(pd.space, args.loss)
    res = rho(r, X)
    if res.status == "unbounded":
        raise DomainError(
            "the requirement is unbounded below; the agent's security "
            "prices admit arbitrage")
    if not res.value.is_finite:
        raise DomainError(
            "no traded payoff securitizes the loss; the requirement "
            "is infinite")
    return {
        "agent": args.agent,
        "value": _scalar(res.value.as_float(), args.tol),
        "hedge_payoff": _vector(pd.space, res.security.values, args.tol),
        "status": res.status,
    }, True


def _shared_requirement(pd, args):
    s = pd.system()
    X = _loss(pd.space, args.loss)
    res = capital_requirement(s, X, certify=True)
    if not res.value.is_finite:
        raise DomainError(
            "the loss profile admits no acceptable decomposition; the "
            "total requirement is infinite")
    return s, X, res


def _allocation_out(pd, alloc, tol) -> dict:
    return {
        name: _vector(pd.space, part.values, tol)
        for name, part in zip(pd.names, alloc.parts)
    }


def _cmd_lambda(pd: ProblemDocument, args):
    _, _, res = _shared_requirement(pd, args)
    return {
        "value": _scalar(res.value.as_float(), args.tol),
        "payoff": _vector(pd.space, res.payoff.values, args.tol),
        "allocation": _allocation_out(pd, res.allocation, args.tol),
        "agent_risks": {
            name: _scalar(v.as_float(), args.tol)
            for name, v in zip(pd.names, res.agent_risks)
        },
        "method": res.method,
    }, True


def _cmd_pareto(pd: ProblemDocument, args):
    s, _, res = _shared_requirement(pd, args)
    alloc = res.allocation
    if args.zeta != 0.0:
        alloc = shift_allocation(s, alloc, 0, 1, args.zeta)
    risks = [rho(r, part).value.as_float()
             for r, part in zip(s.regimes, alloc.parts)]
    return {
        "value": _scalar(res.value.as_float(), args.tol),
        "allocation": _allocation_out(pd, alloc, args.tol),
        "agent_risks": {
            name: _scalar(v, args.tol) for name, v in zip(pd.names, risks)
        },
    }, True


def _cmd_equilibrium(pd: ProblemDocument, args):
    from . import equilibrium
    s = pd.system()
    endowments = pd.endowments
    if args.endowments is not None:
        endowments = _endowments(pd.space, args.endowments)
    if endowments is None:
        raise StructuralError(
            "no endowments: pass --endowments or add an endowments section")
    eq = equilibrium.build_equilibrium(s, endowments)
    rep = equilibrium.verify_equilibrium(s, endowments, eq)
    price_tol = max(args.tol, equilibrium.FENCHEL_TOL)
    outputs = {
        "value": _scalar(eq.value, args.tol),
        "price": _vector(pd.space, eq.price.weights, price_tol),
        "price_unique": bool(eq.price_unique),
        "numeraire": _vector(pd.space, eq.numeraire.values, args.tol),
        "transfers": {
            name: _scalar(t, args.tol)
            for name, t in zip(pd.names, eq.transfers)
        },
        "allocation": _allocation_out(pd, eq.allocation, args.tol),
        "verification": _report(rep),
    }
    return outputs, rep.passed


def _cmd_split(pd: ProblemDocument, args):
    from . import splits
    X = _loss(pd.space, args.loss)
    sp = pd.split_problem()
    outputs = {"bound_functional": None, "bound_used": False}
    phi0 = None
    if pd.pricing is not None:
        phi0 = pd.pricing.functional(pd.space)
        rep = splits.check_bound_functional(sp, phi0)
        outputs["bound_functional"] = _report(rep)
        if not rep.passed:
            phi0 = None            # an uncertified bound could cut the true optimum
    outputs["bound_used"] = phi0 is not None
    res = splits.split_optimize(sp, X, phi0=phi0)
    outputs.update({
        "n_star": int(res.n_star),
        "value": _scalar(res.value, args.tol),
        "requirement": _scalar(res.requirement, args.tol),
        "cost": _scalar(res.cost, 0.0),
        "sweep": [
            {
                "n": int(pt.n),
                "requirement": _scalar(pt.requirement, args.tol),
                "objective": _scalar(pt.objective, args.tol),
            }
            for pt in res.objectives
        ],
        "lower_bound": (None if res.lower_bound is None
                        else _scalar(res.lower_bound, args.tol)),
        "cap_limited": bool(res.cap_limited),
        "allocation": [
            _vector(pd.space, part.values, args.tol)
            for part in res.allocation.parts
        ],
        "agent_risks": [_scalar(v, args.tol) for v in res.agent_risks],
    })
    return outputs, True


def _cmd_oracle(pd: ProblemDocument, args):
    from . import oracle
    s = pd.system()
    X = _loss(pd.space, args.loss)
    g = oracle.GridSpec.around(X, args.grid_margin, args.grid_step)
    if args.check == "lambda":
        res = capital_requirement(s, X, certify=False)
        solver = res.value.as_float()
        br = oracle.brute_lambda(s, X, g)
        low, high = br.bracket()
        agree = (br.estimate.is_finite and res.value.is_finite
                 and low - 1e-9 <= solver <= high + 1e-9)
        outputs = {
            "estimate": _scalar(br.estimate.as_float(), br.modulus),
            "bracket": {"low": _scalar(low, 0.0), "high": _scalar(high, 0.0)},
            "modulus": _scalar(br.modulus, 0.0),
            "points": int(br.points),
            "solver_value": _scalar(solver, args.tol),
            "agree": bool(agree),
        }
        return outputs, agree
    if args.check == "pareto":
        _, _, res = _shared_requirement(pd, args)
        chk = oracle.verify_pareto(s, X, res.allocation, g)
        outputs = {
            "pareto": bool(chk.pareto),
            "base_risks": [_scalar(v, args.tol) for v in chk.base_risks],
            "modulus": _scalar(chk.modulus, 0.0),
            "witness": (None if chk.witness is None
                        else [_vector(pd.space, part.values, args.tol)
                              for part in chk.witness.parts]),
            "witness_risks": (None if chk.witness_risks is None
                              else [_scalar(v, args.tol)
                                    for v in chk.witness_risks]),
        }
        return outputs, chk.pareto
    from . import equilibrium
    phi = equilibrium.subgradient(s, X)
    chk = oracle.fd_subgradient_check(s, X, phi)
    outputs = {
        "mode": chk.mode,
        "passed": bool(chk.passed),
        "price": _vector(pd.space, phi.weights,
                         max(args.tol, equilibrium.FENCHEL_TOL)),
        "max_relative_error": (None if math.isnan(chk.max_relative_error)
                               else _scalar(chk.max_relative_error, 0.0)),
        "min_inequality_gap": (None if math.isnan(chk.min_inequality_gap)
                               else _scalar(chk.min_inequality_gap, 0.0)),
        "kink_scenarios": [pd.space.labels[int(i)] for i in chk.kink_coords],
    }
    return outputs, chk.passed


_COMMANDS = {
    "validate": _cmd_validate,
    "rho": _cmd_rho,
    "lambda": _cmd_lambda,
    "pareto": _cmd_pareto,
    "equilibrium": _cmd_equilibrium,
    "split": _cmd_split,
    "oracle": _cmd_oracle,
}


# ----------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("file", help="problem document (JSON)")
    shared.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="reporting tolerance (default 1e-8)")
    shared.add_argument("--seed", type=int, default=0,
                        help="seed for randomized validation probes")
    shared.add_argument("--output", default=None,
                        help="write the result document here instead of stdout")

    top = argparse.ArgumentParser(
        prog="riskshare",
        description="capital requirements and risk sharing on finite "
                    "scenario spaces")
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[shared],
                   help="regime, price-agreement and arbitrage reports")

    p = sub.add_parser("rho", parents=[shared],
                       help="one agent's capital requirement")
    p.add_argument("--agent", type=int, required=True,
                   help="agent index (1-based)")
    p.add_argument("--loss", required=True,
                   help="label-keyed loss vector (inline JSON or a path)")

    p = sub.add_parser("lambda", parents=[shared],
                       help="total requirement with optimal allocation")
    p.add_argument("--loss", required=True)

    p = sub.add_parser("pareto", parents=[shared],
                       help="Pareto-optimal allocation of a loss")
    p.add_argument("--loss", required=True)
    p.add_argument("--zeta", type=float, default=0.0,
                   help="shift along a commonly traded direction")

    p = sub.add_parser("equilibrium", parents=[shared],
                       help="supporting price and budget-exact allocation")
    p.add_argument("--endowments", default=None,
                   help="JSON array of label-keyed vectors (inline or a path)")

    p = sub.add_parser("split", parents=[shared],
                       help="optimal number of subsidiaries")
    p.add_argument("--loss", required=True)

    p = sub.add_parser("oracle", parents=[shared],
                       help="independent brute-force cross-checks")
    p.add_argument("--check", required=True,
                   choices=["lambda", "pareto", "subgradient"])
    p.add_argument("--loss", required=True)
    p.add_argument("--grid-margin", type=float, default=2.0)
    p.add_argument("--grid-step", type=float, default=0.05)
    return top


def _check_flags(args) -> None:
    """Refuse flag values no command can use, before the document is read."""
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise StructuralError(
            f"--tol must be finite and >= 0, got {args.tol!r}")
    if args.seed < 0:
        raise StructuralError(f"--seed must be >= 0, got {args.seed}")
    zeta = getattr(args, "zeta", 0.0)
    if not math.isfinite(zeta):
        raise StructuralError(f"--zeta must be finite, got {zeta!r}")


def _flags(args) -> dict:
    skip = {"command", "file", "output"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip
    }


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; bad invocations are validation
        # failures here, and exit 2 is reserved for domain refusals
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        _check_flags(args)
        pd = load_problem(args.file)
        outputs, ok = _COMMANDS[args.command](pd, args)
    except (StructuralError, InternalInconsistency) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    document = {
        "command": args.command,
        "status": "ok" if ok else "failed_validation",
        "tool": _tool(),
        "flags": _flags(args),
        "problem": pd.raw,
        "outputs": outputs,
    }
    text = json.dumps(document, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if args.output is not None:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
