"""Shared builders for test fixtures: the three-scenario overlap instance
(two agents whose ceilings overlap on the middle scenario), its variant
with an untradeable ceiling, and small law-invariant regimes; and
jsonschema's Draft-07 validators of the two schema files."""

import functools
import json
from importlib import resources

import numpy as np

from riskshare.regime import (
    LawInvariantAcceptanceSet,
    PolyhedralAcceptanceSet,
    RiskMeasurementRegime,
    SecurityMarket,
)
from riskshare.scenario import Functional, ScenarioSpace, SupportMask


def three_space():
    return ScenarioSpace.uniform(["a", "b", "c"])


def point_eval(space, label):
    """Functional acting as X -> X(label)."""
    d = np.zeros(space.size)
    i = space.index(label)
    d[i] = 1.0 / space.probs[i]
    return Functional(space, d)


def ceiling_regime(space, labels, ceilings):
    """Agent supported on `labels` with per-scenario ceilings: acceptable
    iff X(label) <= ceiling for each owned label; securities are the
    indicators of the owned labels, each priced 1."""
    functionals = tuple(point_eval(space, lab) for lab in labels)
    acc = PolyhedralAcceptanceSet(functionals, np.asarray(ceilings, dtype=float))
    market = SecurityMarket(
        tuple(space.indicator([lab]) for lab in labels),
        np.ones(len(labels)),
    )
    return RiskMeasurementRegime(
        support=SupportMask.from_labels(space, labels),
        acceptance=acc,
        market=market,
    )


def overlap_pair(space=None, k1=(1.0, 2.0), k2=(1.0, 3.0)):
    """The worked three-scenario instance: agent 1 on {a, b}, agent 2 on
    {b, c}, ceilings k1 on (a, b) and k2 on (b, c)."""
    space = space or three_space()
    return (
        ceiling_regime(space, ["a", "b"], k1),
        ceiling_regime(space, ["b", "c"], k2),
    )


def hard_ceiling_pair(space=None, scale=1.0):
    """Agent 1 owns {a, b} but can only trade the indicator of b, so its
    ceiling on scenario a cannot be securitized away: the aggregate
    requirement is finite only while X(a) stays below that ceiling.  Every
    acceptance bound is multiplied by `scale`."""
    space = space or three_space()
    acc1 = PolyhedralAcceptanceSet(
        (point_eval(space, "a"), point_eval(space, "b")),
        scale * np.array([1.0, 2.0]),
    )
    r1 = RiskMeasurementRegime(
        support=SupportMask.from_labels(space, ["a", "b"]),
        acceptance=acc1,
        market=SecurityMarket((space.indicator(["b"]),), np.array([1.0])),
    )
    return r1, overlap_pair(space, k2=(scale, 3.0 * scale))[1]


def cash_market(space, price=1.0):
    return SecurityMarket((space.rv(np.ones(space.size)),), np.array([price]))


def law_invariant_regime(space, kind, param=0.0, market=None):
    market = market or cash_market(space)
    return RiskMeasurementRegime(
        support=SupportMask.full(space),
        acceptance=LawInvariantAcceptanceSet(kind, param),
        market=market,
    )


def schema_files():
    """The schema files, file name -> schema."""
    pkg = resources.files("riskshare.schemas")
    return {fn: json.loads(pkg.joinpath(fn).read_text())
            for fn in ("problem.schema.json", "result.schema.json")}


@functools.cache
def draft7_validators():
    """jsonschema's Draft-07 validator of each schema file, "problem" and
    "result", over a registry that resolves the result schema's `$ref`
    into the problem schema."""
    import jsonschema
    import referencing

    schemas = schema_files()
    registry = referencing.Registry().with_resources(
        (f"riskshare/{fn}", referencing.Resource.from_contents(doc))
        for fn, doc in schemas.items())
    return {fn.split(".")[0]: jsonschema.Draft7Validator(doc,
                                                         registry=registry)
            for fn, doc in schemas.items()}


def check_result(doc):
    """Raise jsonschema.ValidationError unless `doc` is a valid result
    document."""
    draft7_validators()["result"].validate(doc)
