"""Problem documents: schema-checked JSON in, solver objects out.

A document carries the scenario space, one block per agent (support,
acceptance spec, traded securities), and optional pricing / endowments /
split sections.  Vectors are scenario-label-keyed objects; a label left
out of a vector reads as zero.

Documents are checked against the JSON Schema (Draft-07) file
`riskshare/schemas/problem.schema.json`, which stays the one statement of
the format, by a small interpreter of the keywords that file uses
(`_KEYWORDS`); a schema that uses any other keyword, or a `$ref` into
another file, is refused when it is loaded, so a later edit cannot weaken
the check unnoticed.  The interpreter keeps Draft-07's semantics: an
integral float such as 2.0 is an integer, a bool is not a number, 1 is not
`const: true`, and NaN passes `minimum` (finiteness is checked at parse).
A violation raises StructuralError "problem document rejected at <path>:
<message>", the path being that of the violation nearest the root (the
deepest one inside a `oneOf` when only one is deepest), which the CLI
reports with exit code 1.

Loading a document builds regimes only.  The solver objects that a few
commands need are built on request, and their modules are imported then:
market by system(), splits by split_problem(), and lawinv by
law_invariant_problem() on a law-invariant document with a pricing section.
"""

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import StructuralError
from .regime import (AVAR, ENTROPIC, EXPECTATION, LawInvariantAcceptanceSet,
                     PolyhedralAcceptanceSet, RiskMeasurementRegime,
                     SecurityMarket)
from .scenario import Functional, ScenarioSpace, SupportMask, _real_number

_KEYWORDS = frozenset({
    "type", "required", "properties", "additionalProperties", "items",
    "minItems", "minLength", "uniqueItems", "minimum", "exclusiveMinimum",
    "exclusiveMaximum", "const", "oneOf", "$ref"})
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description",
                          "definitions"})
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}
_BOUNDS = (("minimum", lambda v, b: v < b, "less than"),
           ("exclusiveMinimum", lambda v, b: v <= b, "not greater than"),
           ("exclusiveMaximum", lambda v, b: v >= b, "not less than"))
_SCHEMA_FILE = "problem.schema.json"
_SCHEMA: dict = {}
# the largest split.n_max a document may ask for: the sweep prices every
# group size up to n_max, and the bundled split document asks for 50
MAX_SPLIT_N = 10_000


def _resolve(root, ref):
    """The node that the `$ref` pointer `#/a/b` names inside root."""
    if not ref.startswith("#"):
        raise KeyError(ref)
    node = root
    for part in ref.split("/")[1:]:
        node = node[part]
    return node


def _check_keywords(root, node, where):
    """Refuse a schema node that uses a keyword the interpreter does not
    implement (Draft-07 ignores every sibling of `$ref`, so none is
    allowed) or a `$ref` that names no node of root."""
    if not isinstance(node, dict):
        raise StructuralError(f"schema node {where} is not an object")
    allowed = {"$ref"} if "$ref" in node else _KEYWORDS | _ANNOTATIONS
    if node.keys() - allowed:
        raise StructuralError(
            f"schema node {where} uses {sorted(node.keys() - allowed)}, "
            "which the validator does not implement")
    if "$ref" in node:
        try:
            _resolve(root, node["$ref"])
        except (KeyError, TypeError) as exc:
            raise StructuralError(
                f"schema node {where}: unresolvable $ref") from exc
    for key in ("properties", "definitions"):
        for name, sub in node.get(key, {}).items():
            _check_keywords(root, sub, f"{where}/{key}/{name}")
    for i, sub in enumerate(node.get("oneOf", ())):
        _check_keywords(root, sub, f"{where}/oneOf/{i}")
    if "items" in node:
        _check_keywords(root, node["items"], f"{where}/items")
    if not isinstance(node.get("additionalProperties", True), bool):
        _check_keywords(root, node["additionalProperties"],
                        f"{where}/additionalProperties")
    if set(_types(node)) - _TYPES.keys():
        raise StructuralError(f"schema node {where}: unknown type")


def _checked_schema(schema: dict) -> dict:
    """The problem schema once it passes _check_keywords."""
    _check_keywords(schema, schema, _SCHEMA_FILE)
    return schema


def _types(schema) -> list:
    types = schema.get("type", [])
    return [types] if isinstance(types, str) else types


def _equal(a, b) -> bool:
    """JSON equality: a bool equals only itself, 1 == 1.0, and arrays and
    objects compare item by item."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a is b or a == b


def _unique(items) -> bool:
    if all(isinstance(v, str) for v in items):
        return len(set(items)) == len(items)
    return not any(_equal(a, b) for i, a in enumerate(items)
                   for b in items[:i])


def _show(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _errors(root, schema, value, path):
    """Every violation of `schema` by `value` as (path, message), `path`
    the tuple of keys and indices from the document root; a failed `oneOf`
    gives one violation."""
    if "$ref" in schema:
        yield from _errors(root, _resolve(root, schema["$ref"]), value, path)
        return
    types = _types(schema)
    if types and not any(_TYPES[t](value) for t in types):
        yield path, f"expected {' or '.join(types)}, found {_show(value)}"
    if "const" in schema and not _equal(value, schema["const"]):
        yield path, f"expected {_show(schema['const'])}, found {_show(value)}"
    if _TYPES["number"](value):
        for key, fails, words in _BOUNDS:
            if key in schema and fails(value, schema[key]):
                yield path, f"{_show(value)} is {words} {schema[key]}"
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        yield path, (f"string shorter than {schema['minLength']} "
                     "character(s)")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, (f"{len(value)} item(s), at least "
                         f"{schema['minItems']} required")
        if schema.get("uniqueItems") and not _unique(value):
            yield path, "items are not unique"
        for i, item in enumerate(value if "items" in schema else ()):
            yield from _errors(root, schema["items"], item, path + (i,))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"required key {_show(key)} is missing"
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        unknown = [k for k in value if k not in props]
        if extra is False and unknown:
            yield path, f"unknown key(s) {', '.join(map(_show, unknown))}"
        for key, item in value.items():
            sub = props.get(key, extra)
            if isinstance(sub, dict):
                yield from _errors(root, sub, item, path + (key,))
    if "oneOf" in schema:
        found = [list(_errors(root, branch, value, path))
                 for branch in schema["oneOf"]]
        valid = sum(not errs for errs in found)
        flat = [e for errs in found for e in errs]
        depth = max((len(p) for p, _ in flat), default=0)
        deepest = [e for e in flat if len(e[0]) == depth]
        if not valid and len(deepest) == 1:
            yield deepest[0]
        elif valid != 1:
            yield path, (f"{_show(value)} matches {valid} of the "
                         f"{len(found)} alternatives, not exactly one")


def check_schema(doc) -> None:
    """Raise StructuralError on the problem schema violation nearest the
    root."""
    if not _SCHEMA:
        _SCHEMA.update(_checked_schema(json.loads(
            resources.files("riskshare.schemas").joinpath(_SCHEMA_FILE)
            .read_text())))
    errors = list(_errors(_SCHEMA, _SCHEMA, doc, ()))
    if errors:
        where, message = min(errors, key=lambda e: len(e[0]))
        raise StructuralError(
            "problem document rejected at "
            f"{'/'.join(map(str, where)) or '(root)'}: {message}")


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
            cost = splits.CostFunction.linear(
                _real_number(spec["linear"], "split cost"))
        elif "step" in spec:
            cost = splits.CostFunction.step(
                _real_number(spec["step"]["per_block"], "split cost"),
                spec["step"]["block"])
        else:
            cost = splits.CostFunction.tabulated(
                [_real_number(v, "split cost") for v in spec["tabulated"]])
        return splits.SplitProblem(self.regimes, cost, self.split["n_max"])

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
            bounds=np.array([_real_number(row["bound"], "bound")
                             for row in spec["polyhedral"]]),
        )
    if "entropic" in spec:
        return LawInvariantAcceptanceSet(
            ENTROPIC, _real_number(spec["entropic"], "entropic"))
    if "avar" in spec:
        return LawInvariantAcceptanceSet(
            AVAR, _real_number(spec["avar"], "avar"))
    return LawInvariantAcceptanceSet(EXPECTATION)


def _agent(space, block):
    if "support" in block:
        support = SupportMask.from_labels(space, block["support"])
    else:
        support = SupportMask.full(space)
    market = SecurityMarket(
        basis=tuple(space.rv_from_dict(sec["payoff"])
                    for sec in block["securities"]),
        prices=np.array([_real_number(sec["price"], "price")
                         for sec in block["securities"]]),
    )
    return RiskMeasurementRegime(
        support=support, acceptance=_acceptance(space, block["acceptance"]),
        market=market)


def parse_problem(doc: dict) -> ProblemDocument:
    check_schema(doc)
    labels = tuple(doc["scenarios"]["labels"])
    probs = np.zeros(len(labels))
    for label, p in doc["scenarios"]["probs"].items():
        if label not in labels:
            raise StructuralError(f"unknown scenario label {label!r}")
        probs[labels.index(label)] = _real_number(p, f"scenario {label!r}")
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
        unit_price = _real_number(block["unit_price"], "unit_price")
        # the schema's exclusiveMinimum lets NaN and +inf through
        if not math.isfinite(unit_price):
            raise StructuralError(f"non-finite unit price {unit_price!r}")
        pricing = PricingSpec(
            unit_price=unit_price,
            density=space.rv_from_dict(block["density"]).values,
            kernel_witnesses=witnesses,
        )

    endowments = None
    if "endowments" in doc:
        endowments = tuple(space.rv_from_dict(w) for w in doc["endowments"])
        if len(endowments) != len(regimes):
            raise StructuralError(
                f"{len(endowments)} endowments for {len(regimes)} agents")

    if "split" in doc:
        n_max = doc["split"]["n_max"]
        if n_max > MAX_SPLIT_N:
            raise StructuralError(
                f"split n_max {n_max!r} exceeds the cap of {MAX_SPLIT_N}")
        # a schema integer may be written as an integral float (2.0)
        split = dict(doc["split"], n_max=int(n_max))
        if "step" in split["cost"]:
            step = split["cost"]["step"]
            split["cost"] = {"step": dict(step, block=int(step["block"]))}
        doc = dict(doc, split=split)

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
