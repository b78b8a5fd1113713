import json
from pathlib import Path

import numpy as np
import pytest

from riskshare.errors import StructuralError
from riskshare.problemfile import (MAX_SPLIT_N, check_schema, load_problem,
                                   parse_problem, vector_to)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _minimal(**overrides):
    doc = {
        "scenarios": {"labels": ["u", "v"], "probs": {"u": 0.5, "v": 0.5}},
        "agents": [
            {
                "acceptance": {"entropic": 1.0},
                "securities": [
                    {"payoff": {"u": 1.0, "v": 1.0}, "price": 1.0}
                ],
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_worked_fixture_parses():
    pd = load_problem(FIXTURES / "overlap_ceilings.json")
    assert pd.space.labels == ("a", "b", "c")
    assert pd.names == ("north", "south")
    assert not pd.regimes[0].is_law_invariant
    assert pd.regimes[0].support.included.tolist() == [True, True, False]
    assert pd.endowments[0].values.tolist() == [2.0, 3.0, 0.0]
    assert pd.pricing is None and pd.split is None


def test_omitted_labels_read_as_zero():
    pd = parse_problem(_minimal(endowments=[{"v": 2.0}]))
    assert pd.endowments[0].values.tolist() == [0.0, 2.0]


def test_unknown_label_rejected():
    with pytest.raises(StructuralError, match="unknown scenario label"):
        parse_problem(_minimal(endowments=[{"w": 1.0}]))


def test_vector_to_covers_every_label():
    pd = parse_problem(_minimal())
    assert vector_to(pd.space, np.array([1.5, 0.0])) == {"u": 1.5, "v": 0.0}


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("agents"),
    lambda d: d["agents"].clear(),
    lambda d: d["agents"][0].pop("securities"),
    lambda d: d["agents"][0].__setitem__("acceptance", {"entropic": -1.0}),
    lambda d: d["agents"][0].__setitem__(
        "acceptance", {"entropic": 1.0, "avar": 0.5}),
    lambda d: d["scenarios"]["labels"].append("u"),
    lambda d: d.__setitem__("extra_section", {}),
])
def test_schema_violations_are_structural(mutate):
    doc = _minimal()
    mutate(doc)
    with pytest.raises(StructuralError, match="problem document rejected"):
        parse_problem(doc)


@pytest.mark.parametrize("price", [float("nan"), float("inf")])
def test_non_finite_unit_price_rejected(price):
    # both pass the schema's exclusiveMinimum 0, as Draft-07 has it
    pricing = {"unit_price": price, "density": {"u": 1.0, "v": 1.0}}
    with pytest.raises(StructuralError, match="non-finite unit price"):
        parse_problem(_minimal(pricing=pricing))


def test_bad_probabilities_rejected():
    with pytest.raises(StructuralError):
        parse_problem(_minimal(
            scenarios={"labels": ["u", "v"], "probs": {"u": 1.0}}))
    with pytest.raises(StructuralError, match="sum"):
        parse_problem(_minimal(
            scenarios={"labels": ["u", "v"],
                       "probs": {"u": 0.6, "v": 0.6}}))


def test_endowment_count_must_match_agents():
    with pytest.raises(StructuralError, match="1 endowments for"):
        parse_problem(_minimal(endowments=[{"u": 1.0}],
                               agents=_minimal()["agents"] * 2))


def test_split_problem_roundtrip():
    pd = load_problem(FIXTURES / "split_entropic.json")
    sp = pd.split_problem()
    assert sp.n_max == 50
    assert sp.cost(3) == pytest.approx(0.3)
    assert sp.cost.diverges
    # the same document without a split section refuses
    bare = dict(pd.raw)
    del bare["split"]
    with pytest.raises(StructuralError, match="no split section"):
        parse_problem(bare).split_problem()


@pytest.mark.parametrize("n_max, accepted", [
    (MAX_SPLIT_N, True), (float(MAX_SPLIT_N), True),
    (MAX_SPLIT_N + 1, False), (1e300, False)])
def test_split_n_max_is_capped(n_max, accepted):
    doc = json.loads((FIXTURES / "split_entropic.json").read_text())
    doc["split"]["n_max"] = n_max
    if accepted:
        assert parse_problem(doc).split["n_max"] == MAX_SPLIT_N
    else:
        with pytest.raises(StructuralError, match="exceeds the cap"):
            parse_problem(doc)


def test_law_invariant_problem_requires_pricing_and_kind():
    entropic = load_problem(FIXTURES / "entropic_pair.json")
    prob = entropic.law_invariant_problem()
    assert prob is not None and prob.p == 1.0
    assert entropic.pricing.functional(entropic.space)(
        entropic.space.rv(np.ones(2))) == pytest.approx(1.0)
    # polyhedral agents: no law-invariant reading
    assert load_problem(
        FIXTURES / "overlap_ceilings.json").law_invariant_problem() is None
    # law-invariant agents but no pricing section
    assert parse_problem(_minimal()).law_invariant_problem() is None


def test_every_fixture_parses_and_revalidates():
    for path in sorted(FIXTURES.glob("*.json")):
        raw = json.loads(path.read_text())
        check_schema(raw)
        pd = parse_problem(raw)
        assert pd.raw == raw


def test_unreadable_file_is_structural(tmp_path):
    with pytest.raises(StructuralError, match="cannot read"):
        load_problem(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(StructuralError, match="not valid JSON"):
        load_problem(bad)
