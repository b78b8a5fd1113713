"""The schema interpreter in `problemfile` against jsonschema's Draft-07
validator: the same verdict on every problem document, and a reported path
that jsonschema reports too (somewhere in its error tree).  Result
documents, which the program writes and never reads, are checked by
jsonschema alone."""

import copy
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.errors import StructuralError
from riskshare.problemfile import _checked_schema, check_schema

from helpers import draft7_validators, schema_files

pytest.importorskip("jsonschema")
pytest.importorskip("referencing")

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
GOLDEN = sorted(p for p in (ROOT / "tests" / "golden").glob("*.json")
                if p.name != "exit_codes.json")


REFERENCE = draft7_validators()


def _tree_paths(errors):
    """'/'-joined absolute paths of every error and every error in their
    contexts, at any depth."""
    paths = set()
    for e in errors:
        paths.add("/".join(map(str, e.absolute_path)) or "(root)")
        paths |= _tree_paths(e.context)
    return paths


def _assert_agrees(doc):
    reference = list(REFERENCE["problem"].iter_errors(doc))
    try:
        check_schema(doc)
    except StructuralError as exc:
        assert reference, f"refused a document jsonschema accepts: {exc}"
        where = re.match(r"problem document rejected at (.*?): ",
                         str(exc)).group(1)
        assert where in _tree_paths(reference), (str(exc), [
            (list(e.absolute_path), e.message) for e in reference])
        return False
    assert not reference, (
        f"accepted a document jsonschema refuses: {reference[0].message}")
    return True


def _load(path):
    return json.loads(path.read_text())


def _variants():
    """Problem documents that reach the schema's less common branches."""
    base = _load(ROOT / "fixtures" / "split_entropic.json")
    step = copy.deepcopy(base)
    step["split"]["cost"] = {"step": {"per_block": 0.2, "block": 2}}
    tabulated = copy.deepcopy(base)
    tabulated["split"]["cost"] = {"tabulated": [0.0, 0.1, 0.3]}
    expectation = copy.deepcopy(base)
    expectation["agents"][0]["acceptance"] = {"expectation": True}
    expectation["agents"][0]["support"] = ["low", "high"]
    expectation["endowments"] = [{"low": 1.0}]
    expectation["pricing"]["kernel_witnesses"] = [{"low": 1.0}]
    return {"step_cost": step, "tabulated_cost": tabulated,
            "expectation": expectation}


def _result(path):
    """A golden result document with the tool field it is stored without."""
    return dict(_load(path), tool={"name": "riskshare", "version": "0"})


NAMED_PROBLEMS = {p.stem: _load(p) for p in FIXTURES} | _variants()
PROBLEMS = list(NAMED_PROBLEMS.values())

# values of every JSON type, with the boundaries the schema draws
SAMPLES = [0, 1, -1, 2, 0.0, 1.0, 2.0, 0.5, -0.5, 1e300, True, False,
           math.nan, math.inf, -math.inf, "", "u", None, [], ["u"],
           [1, 1.0], [1, True], ["u", "u"], {}, {"u": 1.0}]
SECOND_BRANCH = [{"entropic": 1.0}, {"avar": 0.5}, {"expectation": True},
                 {"polyhedral": [{"density": {}, "bound": 0.0}]},
                 {"linear": 0.1}, {"step": {"per_block": 0.1, "block": 1}},
                 {"tabulated": [0.1]}]


def _slots(node, path=()):
    """(path, container, key) of every value in the document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), node, key
        yield from _slots(value, path + (key,))


@st.composite
def mutated(draw, bases):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    _, container, key = draw(st.sampled_from(list(_slots(doc))))
    value = container[key]
    action = draw(st.sampled_from(
        ["replace", "replace", "drop", "add", "branch", "label"]))
    if action == "drop" and isinstance(value, dict) and value:
        del value[draw(st.sampled_from(sorted(value)))]
    elif action == "add" and isinstance(value, dict):
        value[draw(st.sampled_from(["extra", "u", "linear"]))] = draw(
            st.sampled_from(SAMPLES))
    elif action == "branch" and isinstance(value, dict):
        value.update(draw(st.sampled_from(SECOND_BRANCH)))
    elif action == "label" and isinstance(value, list) and value:
        value[draw(st.integers(0, len(value) - 1))] = ""
    else:
        container[key] = copy.deepcopy(draw(st.sampled_from(SAMPLES)))
    return doc


@pytest.mark.parametrize("name", NAMED_PROBLEMS)
def test_fixtures_pass_both_validators(name):
    assert _assert_agrees(NAMED_PROBLEMS[name])


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_results_get_jsonschemas_verdict(path):
    # {"value": 8.0, "tol": 0.0} is a certified scalar and not an object
    # of entries, although 8.0 and 0.0 are Draft-07 integers
    assert REFERENCE["result"].is_valid(_result(path))


@pytest.mark.parametrize("entry, valid", [
    ({"value": 8.0, "tol": 0.0}, True), ({"value": 8, "tol": 0}, True),
    ({"value": {"a": 1.0}, "tol": 0.0}, True), ({"value": 8.0}, True),
    ({"tol": 0.0, "u": {"value": 1, "tol": 0}}, True),
    ({"value": 8.0, "tol": 0.0, "u": 1}, False),
    ({"value": [1], "tol": 0.0}, False), ({"value": 8.0, "tol": "0"}, False)])
def test_an_object_with_value_and_tol_is_only_certified(entry, valid):
    doc = _result(ROOT / "tests" / "golden" / "readme-oracle.json")
    doc["outputs"]["probe"] = entry
    assert REFERENCE["result"].is_valid(doc) is valid


@settings(derandomize=True, deadline=None, max_examples=600)
@given(mutated(PROBLEMS))
def test_mutated_problems_get_jsonschemas_verdict(doc):
    _assert_agrees(doc)


@pytest.mark.parametrize("value, valid", [
    (2, True), (2.0, True), (1e300, True), (True, False), (1.5, False),
    (0, False), (math.nan, False), (math.inf, False), ("2", False)])
def test_integer_is_drafts_integer(value, valid):
    doc = _load(ROOT / "fixtures" / "split_entropic.json")
    doc["split"]["n_max"] = value
    assert _assert_agrees(doc) is valid


@pytest.mark.parametrize("value, valid", [
    (True, True), (1, False), (1.0, False), (False, False)])
def test_const_true_is_only_true(value, valid):
    doc = copy.deepcopy(NAMED_PROBLEMS["expectation"])
    doc["agents"][0]["acceptance"] = {"expectation": value}
    assert _assert_agrees(doc) is valid


@pytest.mark.parametrize("labels, valid", [
    ([1, 1.0], False), ([1, True], True), (["u", "u"], False),
    ([[1], [1.0]], False), ([{"a": True}, {"a": 1}], True)])
def test_unique_items_compare_as_json(labels, valid):
    doc = copy.deepcopy(NAMED_PROBLEMS["expectation"])
    doc["agents"][0]["support"] = labels
    # support items must be strings, so only uniqueness can differ here
    reference = list(REFERENCE["problem"].iter_errors(doc))
    unique_error = any(e.validator == "uniqueItems" for e in reference)
    assert unique_error is not valid
    _assert_agrees(doc)


@pytest.mark.parametrize("bound, valid", [
    (0.0, False), (0, False), (1e-300, True), (1.0, True), (math.nan, True),
    (math.inf, True), (-math.inf, False)])
def test_exclusive_minimum_lets_nan_through(bound, valid):
    doc = _load(ROOT / "fixtures" / "entropic_pair.json")
    doc["agents"][0]["acceptance"] = {"entropic": bound}
    assert _assert_agrees(doc) is valid


def _problem_schema():
    return schema_files()["problem.schema.json"]


@pytest.mark.parametrize("keyword, value", [
    ("pattern", "^[a-z]+$"), ("maxItems", 3), ("enum", [["u"]]),
    ("not", {"maxItems": 3})])
def test_unimplemented_keywords_are_refused_at_load(keyword, value):
    schema = _problem_schema()
    _checked_schema(copy.deepcopy(schema))
    labels = schema["properties"]["scenarios"]["properties"]["labels"]
    if keyword == "pattern":
        labels["items"][keyword] = value
    else:
        labels[keyword] = value
    with pytest.raises(StructuralError, match=keyword):
        _checked_schema(schema)


def test_a_sibling_of_ref_is_refused_at_load():
    schema = _problem_schema()
    schema["properties"]["scenarios"]["properties"]["probs"][
        "minProperties"] = 1
    with pytest.raises(StructuralError, match="minProperties"):
        _checked_schema(schema)


@pytest.mark.parametrize("ref", [
    "result.schema.json", "result.schema.json#/definitions/vector",
    "#/definitions/missing"])
def test_a_ref_outside_the_problem_schema_is_refused_at_load(ref):
    schema = _problem_schema()
    schema["properties"]["scenarios"]["properties"]["probs"] = {"$ref": ref}
    with pytest.raises(StructuralError, match="unresolvable"):
        _checked_schema(schema)


@pytest.mark.parametrize("mutate, where", [
    # a failed oneOf names its one deepest violation
    (lambda d: d["agents"][0].__setitem__("acceptance", {"entropic": -1.0}),
     "agents/0/acceptance/entropic: -1.0 is not greater than 0"),
    # and itself when several are deepest
    (lambda d: d["agents"][0]["acceptance"].update(avar=0.5),
     "agents/0/acceptance: {\"entropic\": 1.0, \"avar\": 0.5} matches 0 of "
     "the 4 alternatives"),
    # the violation nearest the root comes first
    (lambda d: (d.pop("agents"), d["scenarios"]["probs"].update(u="x")),
     "(root): required key \"agents\" is missing"),
])
def test_the_reported_violation(mutate, where):
    doc = _load(ROOT / "fixtures" / "entropic_pair.json")
    mutate(doc)
    with pytest.raises(StructuralError,
                       match=re.escape(f"problem document rejected at {where}")):
        check_schema(doc)
    _assert_agrees(doc)
