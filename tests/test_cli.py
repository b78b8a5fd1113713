import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from riskshare.cli import run
from riskshare.problemfile import check_schema

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
WORKED = str(FIXTURES / "overlap_ceilings.json")
LOSS = '{"a": 4, "b": 5, "c": 6}'


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


def test_validate_worked_fixture(capsys):
    code, doc, err = _run(capsys, "validate", WORKED)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["outputs"]["nsa"]["verdict"] == "pi(0)=0"
    assert doc["outputs"]["star"]["passed"]
    check_schema(doc, "result")


def test_lambda_worked_fixture(capsys):
    code, doc, err = _run(capsys, "lambda", WORKED, "--loss", LOSS)
    assert code == 0
    out = doc["outputs"]
    assert out["value"]["value"] == pytest.approx(8.0, abs=1e-9)
    assert out["value"]["tol"] == 1e-8
    assert out["payoff"]["value"] == {"a": 3.0, "b": 2.0, "c": 3.0}
    total = {k: sum(v["value"][k] for v in out["allocation"].values())
             for k in ("a", "b", "c")}
    assert total == {"a": 4.0, "b": 5.0, "c": 6.0}
    check_schema(doc, "result")


def test_rho_of_zero_on_normalized_agent(capsys):
    code, doc, err = _run(capsys, "rho", str(FIXTURES / "entropic_pair.json"),
                     "--agent", "1", "--loss", "{}")
    assert code == 0
    assert abs(doc["outputs"]["value"]["value"]) <= 1e-9


def test_rho_hedge_of_a_hedgeable_loss_is_exact(capsys):
    # the loss lies in the fund's span, so the optimal hedge is the loss
    # itself; the kernel search must locate it well inside the printed tol
    code, doc, err = _run(capsys, "rho", str(FIXTURES / "entropic_pair.json"),
                          "--agent", "1",
                          "--loss", '{"heads": 1.5, "tails": -0.4}')
    assert code == 0
    out = doc["outputs"]
    assert out["value"]["value"] == pytest.approx(0.55, abs=1e-12)
    hedge = out["hedge_payoff"]["value"]
    assert abs(hedge["heads"] - 1.5) <= 1e-12
    assert abs(hedge["tails"] + 0.4) <= 1e-12


@pytest.mark.parametrize("argv", [["lambda"], ["rho", "--agent", "1"]])
def test_a_large_loss_on_a_complete_market_prices_at_e_q(capsys, argv):
    # the fund's market is complete with Q = (1/2, 1/2), so rho and Lambda
    # are E_Q[X]; the allocation check scales with |X|, so a loss of 1e9
    # passes it
    code, doc, err = _run(capsys, argv[0], str(FIXTURES / "entropic_pair.json"),
                          *argv[1:], "--loss", '{"heads": 1e9, "tails": 0}')
    assert code == 0, err
    assert doc["outputs"]["value"]["value"] == pytest.approx(5e8, rel=1e-15)


@pytest.mark.parametrize("exponent", range(8, 21))
def test_lambda_scale_sweep(capsys, exponent):
    # every part is securitized, so the requirement is 15 s - 7 rounded
    # once, 1.4999999999999992e16 at s = 1e15; there the phase-1 cost row
    # alone reads 2.0, rounding on a right-hand side of 6e15, while every
    # artificial has left the basis
    s = 10.0 ** exponent
    loss = json.dumps({"a": 4 * s, "b": 5 * s, "c": 6 * s})
    code, doc, err = _run(capsys, "lambda", WORKED, "--loss", loss)
    assert code == 0, err
    assert doc["outputs"]["value"]["value"] == 15 * s - 7


def test_rho_outside_support_is_domain_exit(capsys):
    code, _, err = _run(capsys, "rho", WORKED, "--agent", "1",
                   "--loss", '{"c": 1}')
    assert code == 2
    assert "support" in err


def test_agent_index_out_of_range(capsys):
    code, _, err = _run(capsys, "rho", WORKED, "--agent", "7", "--loss", "{}")
    assert code == 1


def test_arbitrage_fixture_fails_validation(capsys):
    code, doc, err = _run(capsys, "validate",
                     str(FIXTURES / "arbitrage_triple.json"))
    assert code == 1
    assert doc["status"] == "failed_validation"
    assert doc["outputs"]["nsa"]["verdict"] == "pi(0)=-inf"
    assert doc["outputs"]["nsa"]["dim_v"] == 3
    check_schema(doc, "result")


def test_lambda_on_arbitrage_is_domain_exit(capsys):
    code, _, err = _run(capsys, "lambda", str(FIXTURES / "arbitrage_triple.json"),
                   "--loss", "{}")
    assert code == 2
    assert "arbitrage" in err


def _price_disagreement(tmp_path):
    # both agents trade the payoff 1, at prices 1 and 2: dim(V) = 1 < n = 2,
    # yet buying it from one and selling it to the other earns 1 per unit
    ceilings = {"polyhedral": [{"density": {"low": 1.0}, "bound": 1.0},
                               {"density": {"high": 1.0}, "bound": 1.0}]}
    doc = {
        "scenarios": {"labels": ["low", "high"],
                      "probs": {"low": 0.5, "high": 0.5}},
        "agents": [
            {"name": name, "acceptance": ceilings,
             "securities": [{"payoff": {"low": 1.0, "high": 1.0},
                             "price": price}]}
            for name, price in (("cheap", 1.0), ("dear", 2.0))],
    }
    path = tmp_path / "price_disagreement.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_price_disagreement_fails_validation(tmp_path, capsys):
    code, doc, err = _run(capsys, "validate", _price_disagreement(tmp_path))
    assert code == 1, err
    assert doc["status"] == "failed_validation"
    star = {c["name"]: c["passed"] for c in doc["outputs"]["star"]["checks"]}
    assert star == {"price_agreement_on_intersections": False,
                    "relation_graph_connected": True}
    assert doc["outputs"]["nsa"] == {"dim_v": 1, "n_agents": 2,
                                     "verdict": "pi(0)=-inf",
                                     "passed": False}
    check_schema(doc, "result")


def test_lambda_on_price_disagreement_is_domain_exit(tmp_path, capsys):
    code, _, err = _run(capsys, "lambda", _price_disagreement(tmp_path),
                        "--loss", '{"low": 1}')
    assert code == 2
    assert "system admits scalable arbitrage" in err


def test_grid_refusal_is_domain_exit(capsys):
    code, _, err = _run(capsys, "oracle", WORKED, "--check", "lambda",
                   "--loss", LOSS, "--grid-step", "1e-5")
    assert code == 2
    assert "coarsen" in err


def test_reruns_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for p in paths:
        assert run(["equilibrium", WORKED, "--output", str(p)]) == 0
    assert capsys.readouterr().out == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_equilibrium_outputs(capsys):
    code, doc, err = _run(capsys, "equilibrium", WORKED)
    assert code == 0
    out = doc["outputs"]
    assert out["value"]["value"] == pytest.approx(8.0)
    assert out["transfers"]["north"]["value"] == pytest.approx(-3.0)
    assert out["transfers"]["south"]["value"] == pytest.approx(3.0)
    assert out["verification"]["passed"]
    check_schema(doc, "result")


def test_equilibrium_endowment_flag_overrides(capsys):
    inline = '[{"a": 1, "b": 2, "c": 1}, {"a": 3, "b": 3, "c": 5}]'
    code, doc, err = _run(capsys, "equilibrium", WORKED, "--endowments", inline)
    assert code == 0
    assert doc["outputs"]["value"]["value"] == pytest.approx(15.0 - 7.0)


def test_equilibrium_without_endowments(capsys, tmp_path):
    doc = json.loads(Path(WORKED).read_text())
    del doc["endowments"]
    p = tmp_path / "bare.json"
    p.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "equilibrium", str(p))
    assert code == 1
    assert "endowments" in err


def test_equilibrium_checks_scale_with_the_endowment(capsys, tmp_path):
    # at 1e9 the budgets of the entropic pair are off by 2.4e-7 in
    # absolute terms, 2.4e-16 relative to the endowment
    doc = json.loads((FIXTURES / "entropic_pair.json").read_text())
    doc["endowments"] = [{k: 1e9 * v for k, v in w.items()}
                         for w in doc["endowments"]]
    p = tmp_path / "large.json"
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "equilibrium", str(p))
    assert code == 0, err
    assert out["outputs"]["verification"]["passed"]


def test_rho_without_a_unit_loads_no_scipy(tmp_path):
    # a market that trades only the payoff of heads holds no strictly
    # positive unit; its rho is exact and needs no scipy
    doc = json.loads((FIXTURES / "entropic_pair.json").read_text())
    doc["agents"] = [{"name": "fund", "acceptance": {"entropic": 1.0},
                      "securities": [{"payoff": {"heads": 1.0},
                                      "price": 0.5}]}]
    del doc["endowments"], doc["pricing"]
    p = tmp_path / "heads.json"
    p.write_text(json.dumps(doc))
    argv = ["rho", str(p), "--agent", "1",
            "--loss", '{"heads": 2, "tails": -1}']
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from riskshare.cli import run; code = run(sys.argv[1:]); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
         " file=sys.stderr); sys.exit(code)", *argv],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"
    out = json.loads(proc.stdout)["outputs"]
    assert out["value"]["value"] == pytest.approx(
        0.5 * (2.0 - math.log(2.0 - math.exp(-1.0))), abs=1e-12)


_COMMAND_MODULES = ("riskshare.equilibrium", "riskshare.lawinv",
                    "riskshare.oracle", "riskshare.splits",
                    "importlib.metadata")


@pytest.mark.parametrize("argv, loaded", [
    (["lambda", WORKED, "--loss", LOSS], []),
    (["split", str(FIXTURES / "split_entropic.json"),
      "--loss", '{"high": 2}'], ["riskshare.lawinv", "riskshare.splits"]),
    (["equilibrium", WORKED], ["riskshare.equilibrium"]),
], ids=["lambda", "split", "equilibrium"])
def test_commands_load_only_the_modules_they_run(argv, loaded):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from riskshare.cli import run; code = run(sys.argv[1:]); "
         f"print(sorted(m for m in sys.modules if m in {_COMMAND_MODULES}),"
         " file=sys.stderr); sys.exit(code)", *argv],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == str(loaded)


def test_tool_version_is_the_package_version(capsys):
    import riskshare

    code, doc, err = _run(capsys, "lambda", WORKED, "--loss", LOSS)
    assert code == 0, err
    assert doc["tool"] == {"name": "riskshare",
                           "version": riskshare.__version__}


@pytest.mark.filterwarnings("ignore")      # [tool.setuptools] is "beta"
def test_build_reads_the_package_version():
    # pyproject.toml declares the version dynamic; setuptools reads it from
    # riskshare/__init__.py without importing the package
    import riskshare

    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parent.parent
    project = config.read_configuration(root / "pyproject.toml")["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == riskshare.__version__


def test_pareto_zeta_preserves_total_risk(capsys):
    _, base, err = _run(capsys, "pareto", WORKED, "--loss", LOSS)
    code, shifted, err = _run(capsys, "pareto", WORKED, "--loss", LOSS,
                         "--zeta", "0.5")
    assert code == 0
    risks = lambda d: {k: v["value"]
                       for k, v in d["outputs"]["agent_risks"].items()}
    assert risks(base) != risks(shifted)
    assert sum(risks(shifted).values()) == pytest.approx(8.0, abs=1e-8)


def test_split_command(capsys):
    code, doc, err = _run(capsys, "split", str(FIXTURES / "split_entropic.json"),
                     "--loss", '{"low": 0, "high": 2}')
    assert code == 0
    out = doc["outputs"]
    assert out["n_star"] == 2
    assert out["bound_used"] and out["bound_functional"]["passed"]
    assert out["lower_bound"]["value"] == pytest.approx(1.0)
    assert [pt["n"] for pt in out["sweep"]] == [1, 2, 3, 4]
    check_schema(doc, "result")


def test_split_needs_split_section(capsys):
    code, _, err = _run(capsys, "split", WORKED, "--loss", LOSS)
    assert code == 1
    assert "split section" in err


@pytest.mark.parametrize("check", ["lambda", "pareto", "subgradient"])
def test_oracle_checks_pass_on_worked_fixture(capsys, check):
    code, doc, err = _run(capsys, "oracle", WORKED, "--check", check,
                     "--loss", LOSS, "--grid-margin", "3")
    assert code == 0
    check_schema(doc, "result")
    if check == "lambda":
        out = doc["outputs"]
        assert out["agree"]
        assert out["bracket"]["low"]["value"] <= 8.0 \
            <= out["bracket"]["high"]["value"] + 1e-9
    if check == "pareto":
        assert doc["outputs"]["pareto"] and doc["outputs"]["witness"] is None
    if check == "subgradient":
        assert doc["outputs"]["mode"] == "smooth"
        assert doc["outputs"]["passed"]


def test_usage_errors_exit_one(capsys):
    assert run(["rho", WORKED]) == 1          # missing --agent/--loss
    assert run(["no-such-command", WORKED]) == 1
    assert run(["--help"]) == 0


def test_malformed_loss_flag(capsys):
    code, _, err = _run(capsys, "lambda", WORKED, "--loss", '{"a": oops')
    assert code == 1
    code, _, err = _run(capsys, "lambda", WORKED, "--loss", '{"zz": 1}')
    assert code == 1
    code, _, err = _run(capsys, "lambda", WORKED, "--loss", '[1, 2, 3]')
    assert code == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "riskshare.cli"],
        capture_output=True, text=True)
    assert proc.returncode == 1


def test_validate_seed_changes_probes_not_verdict(capsys):
    code0, doc0, err = _run(capsys, "validate", WORKED, "--seed", "0")
    code1, doc1, err = _run(capsys, "validate", WORKED, "--seed", "123")
    assert code0 == code1 == 0
    assert doc0["outputs"]["nsa"] == doc1["outputs"]["nsa"]
    assert doc0["flags"]["seed"] == 0 and doc1["flags"]["seed"] == 123


@pytest.mark.parametrize("argv, says", [
    (["equilibrium", WORKED, "--endowments", '[{"a":1'], "not valid JSON"),
    (["equilibrium", WORKED, "--endowments", "/missing.json"], "cannot read"),
    (["lambda", WORKED, "--loss", LOSS, "--output", "/no/such/dir/out.json"],
     "cannot write"),
    (["lambda", WORKED, "--loss", '{"a": NaN, "b": 5, "c": 6}'],
     "scenario 'a'"),
    (["lambda", WORKED, "--loss", '{"a": 4, "b": Infinity, "c": 6}'],
     "scenario 'b'"),
    (["lambda", WORKED, "--loss", '{"a": "x", "b": 5, "c": 6}'],
     "scenario 'a'"),
    (["lambda", WORKED, "--loss", LOSS, "--tol", "nan"], "--tol"),
    (["lambda", WORKED, "--loss", LOSS, "--tol", "inf"], "--tol"),
    (["lambda", WORKED, "--loss", LOSS, "--tol", "-1"], "--tol"),
    (["validate", WORKED, "--seed", "-1"], "--seed"),
    (["pareto", WORKED, "--loss", LOSS, "--zeta", "nan"], "--zeta"),
    (["pareto", WORKED, "--loss", LOSS, "--zeta", "inf"], "--zeta"),
], ids=["bad_endowments_json", "missing_endowments_file",
        "unwritable_output", "nan_loss", "infinite_loss", "non_numeric_loss",
        "nan_tol", "infinite_tol", "negative_tol", "negative_seed",
        "nan_zeta", "infinite_zeta"])
def test_bad_flag_values_are_typed_refusals(argv, says, capsys):
    code, doc, err = _run(capsys, *argv)
    assert code == 1
    assert doc is None
    assert err.startswith("error:") and says in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["lambda", "validate"])
@pytest.mark.parametrize("path, value, says", [
    (("agents", 0, "securities", 0, "price"), math.inf, "price"),
    (("scenarios", "probs", "a"), math.nan, "probability"),
    (("agents", 0, "acceptance", "polyhedral", 0, "bound"), math.nan, "bound"),
], ids=["infinite_price", "nan_probability", "nan_bound"])
def test_non_finite_document_numbers_are_refused_on_load(
        path, value, says, command, tmp_path, capsys):
    doc = json.loads(Path(WORKED).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))   # writes NaN / Infinity literals
    argv = [command, str(doc_path)]
    if command == "lambda":
        argv += ["--loss", LOSS]
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out is None
    assert err.startswith("error:") and says in err
    assert "Traceback" not in err


def test_split_with_an_unbounded_agent_is_a_domain_exit(tmp_path, capsys):
    # AVaR(0.2) caps densities at 1.25, but pricing 1_a at 0.05 needs
    # density 1.9 on b: the agent's requirement is unbounded below
    doc = {
        "scenarios": {"labels": ["a", "b"], "probs": {"a": 0.5, "b": 0.5}},
        "agents": [{
            "name": "sub",
            "acceptance": {"avar": 0.2},
            "securities": [
                {"payoff": {"a": 1.0, "b": 1.0}, "price": 1.0},
                {"payoff": {"a": 1.0}, "price": 0.05},
            ],
        }],
        "split": {"cost": {"linear": 0.1}, "n_max": 3},
    }
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "split", str(doc_path), "--loss", '{"a": 1}')
    assert code == 2
    assert out is None
    assert err.startswith("error:") and "unbounded below" in err
