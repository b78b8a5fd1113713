"""Systems that mix polyhedral and law-invariant agents.

On a finite space the AVaR and expectation acceptance sets are polyhedra,
so such agents share with polyhedral ones through the one sharing LP
(market._sharing_lp over RiskMeasurementRegime.lp_rows).  The fixture
pairs an AVaR(0.5) agent with an agent that accepts X(w) <= 1 in each of
two equally likely scenarios, both trading cash at price 1.  Their
requirements are max(X) and max(X) - 1, so Lambda(X) = max(X) - 1, which
is 0, 2, 3 and 4 on the loss grid below.  An entropic agent has no LP
rows, and beside a polyhedral agent it is refused."""

import json
from pathlib import Path

import numpy as np
import pytest

from riskshare.cli import run
from riskshare.market import capital_requirement, lambda_batch
from riskshare.oracle import GridSpec, brute_lambda
from riskshare.problemfile import load_problem
from riskshare.regime import rho

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "avar_ceiling.json"

GRID = [((1.0, 0.0), 0.0), ((3.0, -1.0), 2.0), ((4.0, 2.5), 3.0),
        ((-2.0, 5.0), 4.0)]


def _loss(x) -> str:
    return json.dumps({"up": x[0], "down": x[1]})


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


@pytest.mark.parametrize("x, value", GRID)
def test_lambda_takes_the_grid_values(x, value):
    pd = load_problem(FIXTURE)
    s = pd.system()
    X = pd.space.rv(np.array(x))
    res = capital_requirement(s, X, certify=True)
    assert res.method == "joint_lp"
    assert abs(res.value.as_float() - value) <= 1e-9
    # the parts add up to X and their certified risks to Lambda
    np.testing.assert_allclose(res.allocation.total(), X.values, atol=1e-12)
    assert sum(v.as_float() for v in res.agent_risks) == pytest.approx(
        value, abs=1e-9)
    assert abs(lambda_batch(s, X.values[None, :])[0] - value) <= 1e-9
    # no split on the brute-force grid beats it
    low, high = brute_lambda(s, X, GridSpec.around(X, 2.0, 0.05)).bracket()
    assert low - 1e-9 <= res.value.as_float() <= high + 1e-9


@pytest.mark.parametrize("x, value", GRID)
def test_cli_lambda_and_the_oracle_agree(capsys, x, value):
    code, doc, err = _run(capsys, "lambda", str(FIXTURE), "--loss", _loss(x))
    assert code == 0, err
    assert abs(doc["outputs"]["value"]["value"] - value) <= 1e-9
    code, doc, err = _run(capsys, "oracle", str(FIXTURE), "--loss", _loss(x),
                          "--check", "lambda")
    assert code == 0, err
    assert doc["outputs"]["agree"]
    assert abs(doc["outputs"]["solver_value"]["value"] - value) <= 1e-9


def test_cli_pareto_and_equilibrium_pass_their_checks(capsys):
    pd = load_problem(FIXTURE)
    code, doc, err = _run(capsys, "validate", str(FIXTURE))
    assert code == 0, err
    code, doc, err = _run(capsys, "pareto", str(FIXTURE),
                          "--loss", _loss((3.0, -1.0)))
    assert code == 0, err
    risks = doc["outputs"]["agent_risks"]
    assert sum(v["value"] for v in risks.values()) == pytest.approx(
        2.0, abs=1e-9)
    for name, r in zip(pd.names, pd.regimes):
        part = pd.space.rv_from_dict(doc["outputs"]["allocation"][name]["value"])
        assert rho(r, part).value.as_float() == pytest.approx(
            risks[name]["value"], abs=1e-9)
    code, doc, err = _run(
        capsys, "equilibrium", str(FIXTURE), "--endowments",
        '[{"up": 1, "down": 0}, {"up": 2, "down": -1}]')
    assert code == 0, err
    assert doc["outputs"]["verification"]["passed"]
    assert doc["outputs"]["value"]["value"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["lambda"], ["pareto"], ["oracle", "--check", "lambda"],
    ["equilibrium", "--endowments",
     '[{"up": 1, "down": 0}, {"up": 2, "down": -1}]'],
], ids=["lambda", "pareto", "oracle", "equilibrium"])
def test_an_entropic_agent_beside_a_polyhedral_one_is_refused(
        argv, tmp_path, capsys):
    doc = json.loads(FIXTURE.read_text())
    doc["agents"][0]["acceptance"] = {"entropic": 1.0}
    path = tmp_path / "entropic_ceiling.json"
    path.write_text(json.dumps(doc))
    if argv[0] != "equilibrium":
        argv = argv + ["--loss", _loss((3.0, -1.0))]
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out is None
    assert err.startswith("error:") and "entropic" in err
    assert "Traceback" not in err


def test_validate_fails_an_entropic_agent_beside_a_polyhedral_one(
        tmp_path, capsys):
    doc = json.loads(FIXTURE.read_text())
    doc["agents"][0]["acceptance"] = {"entropic": 1.0}
    path = tmp_path / "entropic_ceiling.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "validate", str(path))
    assert code == 1
    assert out["status"] == "failed_validation"
    assert not out["outputs"]["star"]["passed"]
    (check,) = [c for c in out["outputs"]["star"]["checks"]
                if not c["passed"]]
    assert check["name"] == "sharing_lp_rows"
    assert "entropic acceptance set is not polyhedral" in check["detail"]
    assert "Traceback" not in err
