"""Problem documents: schema-validated JSON in, solver objects out.

A document carries the scenario space, one block per agent (support,
acceptance spec, traded securities), and optional pricing / endowments /
split sections.  Vectors are scenario-label-keyed objects; a label left
out of a vector reads as zero.

Loading a document builds regimes only.  The solver objects that a few
commands need are built on request, and their modules are imported then:
market by system(), splits by split_problem(), and lawinv by
law_invariant_problem() on a law-invariant document with a pricing section.
"""

import json
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np
from referencing import Registry, Resource

from .errors import StructuralError
from .regime import (AVAR, ENTROPIC, EXPECTATION, LawInvariantAcceptanceSet,
                     PolyhedralAcceptanceSet, RiskMeasurementRegime,
                     SecurityMarket)
from .scenario import Functional, ScenarioSpace, SupportMask

_VALIDATORS: dict = {}


def _validator(name: str) -> jsonschema.Draft7Validator:
    if name not in _VALIDATORS:
        pkg = resources.files("riskshare.schemas")
        schemas = {
            f"riskshare/{fn}": json.loads(pkg.joinpath(fn).read_text())
            for fn in ("problem.schema.json", "result.schema.json")
        }
        registry = Registry().with_resources(
            (uri, Resource.from_contents(doc)) for uri, doc in schemas.items()
        )
        for uri, doc in schemas.items():
            key = uri.split("/")[-1].split(".")[0]
            _VALIDATORS[key] = jsonschema.Draft7Validator(
                doc, registry=registry)
    return _VALIDATORS[name]


def check_schema(doc, name: str = "problem") -> None:
    """Raise StructuralError on the best-matching schema violation."""
    errors = list(_validator(name).iter_errors(doc))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        where = "/".join(str(p) for p in best.absolute_path) or "(root)"
        raise StructuralError(
            f"{name} document rejected at {where}: {best.message}")


def vector_to(space: ScenarioSpace, values) -> dict:
    return {label: float(v) for label, v in zip(space.labels, values)}


@dataclass(frozen=True)
class PricingSpec:
    unit_price: float
    density: np.ndarray
    kernel_witnesses: tuple | None = None

    def functional(self, space: ScenarioSpace) -> Functional:
        return Functional(space, self.unit_price * self.density)


@dataclass(frozen=True)
class ProblemDocument:
    raw: dict
    space: ScenarioSpace
    names: tuple
    regimes: tuple
    pricing: PricingSpec | None = None
    endowments: tuple | None = None
    split: dict | None = None

    def system(self):
        from .market import AgentSystem

        return AgentSystem(self.regimes)

    def split_problem(self):
        if self.split is None:
            raise StructuralError("document has no split section")
        from . import splits

        spec = self.split["cost"]
        if "linear" in spec:
            cost = splits.CostFunction.linear(spec["linear"])
        elif "step" in spec:
            cost = splits.CostFunction.step(
                spec["step"]["per_block"], spec["step"]["block"])
        else:
            cost = splits.CostFunction.tabulated(spec["tabulated"])
        return splits.SplitProblem.repeating(
            self.regimes, cost, self.split["n_max"])

    def law_invariant_problem(self):
        if self.pricing is None:
            return None
        if any(not r.is_law_invariant for r in self.regimes):
            return None
        from .lawinv import LawInvariantProblem

        return LawInvariantProblem(
            space=self.space,
            measures=tuple(r.acceptance for r in self.regimes),
            security_bases=tuple(r.market.basis for r in self.regimes),
            q=self.pricing.density,
            p=self.pricing.unit_price,
            kernel_witnesses=self.pricing.kernel_witnesses,
        )


def _acceptance(space, spec):
    if "polyhedral" in spec:
        return PolyhedralAcceptanceSet(
            functionals=tuple(
                Functional(space, space.rv_from_dict(row["density"]).values)
                for row in spec["polyhedral"]
            ),
            bounds=np.array([row["bound"] for row in spec["polyhedral"]]),
        )
    if "entropic" in spec:
        return LawInvariantAcceptanceSet(ENTROPIC, float(spec["entropic"]))
    if "avar" in spec:
        return LawInvariantAcceptanceSet(AVAR, float(spec["avar"]))
    return LawInvariantAcceptanceSet(EXPECTATION)


def _agent(space, block):
    if "support" in block:
        support = SupportMask.from_labels(space, block["support"])
    else:
        support = SupportMask.full(space)
    market = SecurityMarket(
        basis=tuple(space.rv_from_dict(sec["payoff"])
                    for sec in block["securities"]),
        prices=np.array([sec["price"] for sec in block["securities"]]),
    )
    return RiskMeasurementRegime(
        support=support, acceptance=_acceptance(space, block["acceptance"]),
        market=market)


def parse_problem(doc: dict) -> ProblemDocument:
    check_schema(doc, "problem")
    labels = tuple(doc["scenarios"]["labels"])
    probs = np.zeros(len(labels))
    for label, p in doc["scenarios"]["probs"].items():
        if label not in labels:
            raise StructuralError(f"unknown scenario label {label!r}")
        probs[labels.index(label)] = float(p)
    space = ScenarioSpace(labels, probs)

    regimes = tuple(_agent(space, block) for block in doc["agents"])
    names = tuple(
        block.get("name", f"agent_{i + 1}")
        for i, block in enumerate(doc["agents"])
    )

    pricing = None
    if "pricing" in doc:
        block = doc["pricing"]
        witnesses = None
        if "kernel_witnesses" in block:
            witnesses = tuple(space.rv_from_dict(w).values
                              for w in block["kernel_witnesses"])
        pricing = PricingSpec(
            unit_price=float(block["unit_price"]),
            density=space.rv_from_dict(block["density"]).values,
            kernel_witnesses=witnesses,
        )

    endowments = None
    if "endowments" in doc:
        endowments = tuple(space.rv_from_dict(w) for w in doc["endowments"])
        if len(endowments) != len(regimes):
            raise StructuralError(
                f"{len(endowments)} endowments for {len(regimes)} agents")

    return ProblemDocument(
        raw=doc, space=space, names=names, regimes=regimes, pricing=pricing,
        endowments=endowments, split=doc.get("split"))


def load_problem(path) -> ProblemDocument:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(f"problem file is not valid JSON: {exc}") from exc
    return parse_problem(doc)
