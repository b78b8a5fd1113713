import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from riskshare.cli import run

from helpers import check_result
from test_golden import CASES

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
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
    check_result(doc)


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
    check_result(doc)


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
    check_result(doc)


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
    check_result(doc)


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
    check_result(doc)


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


_VALIDATOR_PACKAGES = ("jsonschema", "referencing", "attrs", "rpds")


@pytest.mark.parametrize("case", [
    "readme-validate", "readme-rho", "readme-lambda", "readme-pareto",
    "readme-equilibrium", "readme-split", "readme-oracle",
    "validate-arbitrage_triple"])
def test_commands_load_no_validator_library(case):
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a
            for a in CASES[case]]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from riskshare.cli import run; code = run(sys.argv[1:]); "
         "print(sorted(m for m in sys.modules "
         f"if m.split('.')[0] in {_VALIDATOR_PACKAGES}), file=sys.stderr); "
         "sys.exit(code)", *argv],
        capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "[]"


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


def test_negative_float_flags_parse_with_a_space(capsys):
    # argparse alone takes a separate "-1e-1" or "-inf" for an option
    code, spaced, _ = _run(capsys, "pareto", WORKED, "--loss", LOSS,
                           "--zeta", "-1e-1")
    assert code == 0
    assert _run(capsys, "pareto", WORKED, "--loss", LOSS,
                "--zeta=-1e-1") == (0, spaced, "")
    assert spaced["flags"]["zeta"] == -0.1
    # the grid flags reach the grid's own refusal, not a usage error
    code, _, err = _run(capsys, "oracle", WORKED, "--check", "lambda",
                        "--loss", LOSS, "--grid-margin", "-1e-1",
                        "--grid-step", "-5e-2")
    assert code == 1 and err.startswith("error:") and "usage" not in err


@pytest.mark.parametrize("flag", ["--zet", "--z"])
def test_abbreviated_zeta_parses_with_a_space(flag, capsys):
    joined = _run(capsys, "pareto", WORKED, "--loss", LOSS, "--zeta=-1e-1")
    assert joined[0] == 0
    assert _run(capsys, "pareto", WORKED, "--loss", LOSS,
                flag, "-1e-1") == joined


@pytest.mark.parametrize("flags, says", [
    (("--grid-m", "-1e-1", "--grid-s", "-5e-2"), "error:"),
    (("--grid", "-1e-1"), "ambiguous option"),
], ids=["abbreviated", "ambiguous"])
def test_abbreviated_grid_flags(flags, says, capsys):
    # an abbreviation reaches the grid's own refusal; an ambiguous one
    # stays argparse's usage error
    code, _, err = _run(capsys, "oracle", WORKED, "--check", "lambda",
                        "--loss", LOSS, *flags)
    assert code == 1 and says in err
    assert ("usage" in err) is (says == "ambiguous option")


def test_split_command(capsys):
    code, doc, err = _run(capsys, "split", str(FIXTURES / "split_entropic.json"),
                     "--loss", '{"low": 0, "high": 2}')
    assert code == 0
    out = doc["outputs"]
    assert out["n_star"] == 2
    assert out["bound_used"] and out["bound_functional"]["passed"]
    assert out["lower_bound"]["value"] == pytest.approx(1.0)
    assert [pt["n"] for pt in out["sweep"]] == [1, 2, 3, 4]
    check_result(doc)


def test_split_needs_split_section(capsys):
    code, _, err = _run(capsys, "split", WORKED, "--loss", LOSS)
    assert code == 1
    assert "split section" in err


@pytest.mark.parametrize("check", ["lambda", "pareto", "subgradient"])
def test_oracle_checks_pass_on_worked_fixture(capsys, check):
    code, doc, err = _run(capsys, "oracle", WORKED, "--check", check,
                     "--loss", LOSS, "--grid-margin", "3")
    assert code == 0
    check_result(doc)
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


def _cli_flags(source: str) -> set:
    """The string literals that `add_argument` calls in `source` pass."""
    return {arg.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            for arg in node.args if isinstance(arg, ast.Constant)}


def _readme_flags(readme: str) -> set:
    """The --flags that README's `## CLI` section names."""
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z]+(?:-[a-z]+)*", section))


def test_readme_names_only_flags_the_cli_defines():
    named = _readme_flags((ROOT / "README.md").read_text())
    defined = _cli_flags((ROOT / "src" / "riskshare" / "cli.py").read_text())
    assert {"--loss", "--tol", "--output"} <= named
    assert named <= defined, sorted(named - defined)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "riskshare.cli"],
        capture_output=True, text=True)
    assert proc.returncode == 1


def test_validate_has_no_seed(capsys):
    # validate's checks are exact, so nothing is seeded
    code, doc, err = _run(capsys, "validate", WORKED, "--seed", "0")
    assert code == 1 and doc is None
    assert "unrecognized arguments: --seed" in err
    assert "seed" not in _run(capsys, "validate", WORKED)[1]["flags"]


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
    (["lambda", WORKED, "--loss", '{"a": "4", "b": 5, "c": 6}'],
     "non-numeric value '4' at scenario 'a'"),
    (["lambda", WORKED, "--loss", '{"a": 4, "b": true, "c": 6}'],
     "non-numeric value True at scenario 'b'"),
    (["lambda", WORKED, "--loss", '{"a": -1%s, "b": 5, "c": 6}' % ("0" * 400)],
     "non-finite value -inf at scenario 'a'"),
    (["equilibrium", WORKED, "--endowments", '[{"a": "1", "b": 0}, {"c": 2}]'],
     "non-numeric value '1' at scenario 'a'"),
    (["equilibrium", WORKED, "--endowments", '[{"a": 1, "b": true}, {"c": 2}]'],
     "non-numeric value True at scenario 'b'"),
    (["lambda", WORKED, "--loss", LOSS, "--tol", "nan"], "--tol"),
    (["lambda", WORKED, "--loss", LOSS, "--tol", "inf"], "--tol"),
    (["lambda", WORKED, "--loss", LOSS, "--tol", "-1"], "--tol"),
    (["pareto", WORKED, "--loss", LOSS, "--zeta", "nan"], "--zeta"),
    (["pareto", WORKED, "--loss", LOSS, "--zeta", "inf"], "--zeta"),
    (["pareto", WORKED, "--loss", LOSS, "--zeta", "-inf"], "--zeta"),
], ids=["bad_endowments_json", "missing_endowments_file",
        "unwritable_output", "nan_loss", "infinite_loss", "non_numeric_loss",
        "numeric_string_loss", "boolean_loss", "huge_integer_loss",
        "numeric_string_endowment", "boolean_endowment",
        "nan_tol", "infinite_tol", "negative_tol",
        "nan_zeta", "infinite_zeta", "negative_infinite_zeta"])
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


HUGE = 10 ** 400        # a JSON integer past the float range


@pytest.mark.parametrize("fixture, path, says", [
    ("overlap_ceilings", ("agents", 0, "acceptance", "polyhedral", 0,
                          "bound"), "non-finite bound inf"),
    ("overlap_ceilings", ("agents", 0, "securities", 0, "price"),
     "non-finite price inf"),
    ("overlap_ceilings", ("scenarios", "probs", "a"),
     "non-finite probability inf"),
    ("split_entropic", ("agents", 0, "acceptance", "entropic"),
     "entropic risk aversion"),
    ("avar_entropic", ("agents", 0, "acceptance", "avar"), "avar"),
    ("split_entropic", ("pricing", "unit_price"), "non-finite unit price"),
    ("split_entropic", ("split", "cost", "linear"), "cost rate"),
], ids=["bound", "price", "probs", "entropic", "avar", "unit_price",
        "split_cost"])
def test_a_number_past_the_float_range_is_refused_on_load(
        fixture, path, says, tmp_path, capsys):
    # every number of a document is read as ScenarioSpace.rv_from_dict
    # reads a loss: an integer past the float range is the infinity it
    # rounds to, which the field refuses; it never overflows a conversion
    doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = HUGE
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "validate", str(doc_path))
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


def _one_functional_agent(name, density, payoff, price):
    return {"name": name,
            "acceptance": {"polyhedral": [{"density": density, "bound": 0.0}]},
            "securities": [{"payoff": payoff, "price": price}]}


# each agent's rho is finite, but their acceptance densities differ, so no
# density serves both: moving risk between them lowers the sum without bound
TWO_DENSITIES = [_one_functional_agent(name, density, {"a": 1.0, "b": 1.0}, 1.0)
                 for name, density in (("first", {"a": 1.5, "b": 0.5}),
                                       ("second", {"a": 0.5, "b": 1.5}))]


@pytest.mark.parametrize("labels, agents", [
    # the one payoff is mispriced against the one acceptance density, so
    # each agent's own requirement is unbounded below
    (["s0", "s1"], [_one_functional_agent(
        name, {"s0": 1.137, "s1": 0.770}, {"s0": 0.105, "s1": -0.536}, 0.862)
        for name in ("first", "second")]),
    (["a", "b"], TWO_DENSITIES),
], ids=["mispriced", "two_densities"])
def test_lambda_unbounded_below_is_a_domain_exit(tmp_path, capsys, labels,
                                                  agents):
    doc = {"scenarios": {"labels": labels,
                         "probs": dict.fromkeys(labels, 0.5)},
           "agents": agents}
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "lambda", str(doc_path),
                          "--loss", json.dumps({labels[0]: 1}))
    assert code == 2
    assert out is None
    assert err.startswith("error:") and "unbounded below on this system" in err
    assert "Traceback" not in err


def test_validate_fails_a_sharing_functional_unbounded_below(tmp_path,
                                                             capsys):
    # every agent and the pi(0) verdict pass; the sharing LP over the
    # acceptance cones, which lambda refuses, fails the system
    doc = {"scenarios": {"labels": ["a", "b"], "probs": {"a": 0.5, "b": 0.5}},
           "agents": TWO_DENSITIES}
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "validate", str(doc_path))
    assert (code, err) == (1, "")
    check_result(out)
    outputs = out["outputs"]
    assert all(rep["passed"] for rep in outputs["agents"].values())
    assert outputs["nsa"]["passed"]
    failed = [c for c in outputs["star"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["sharing_functional_bounded"]
    assert "unbounded below on this system" in failed[0]["detail"]


@pytest.mark.parametrize("command", [
    ["split", "--loss", '{"high": 2}'], ["validate"]], ids=["split", "validate"])
@pytest.mark.parametrize("step", [False, True], ids=["linear", "step"])
def test_integral_float_split_integers_read_as_int(tmp_path, capsys, command,
                                                   step):
    # the schema's integers admit 2.0; the split sweep needs an int
    docs = []
    for n_max, block in ((2, 3), (2.0, 3.0)):
        doc = json.loads((FIXTURES / "split_entropic.json").read_text())
        doc["split"]["n_max"] = n_max
        if step:
            doc["split"]["cost"] = {"step": {"per_block": 0.1, "block": block}}
        path = tmp_path / f"{type(n_max).__name__}.json"
        path.write_text(json.dumps(doc))
        code = run([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        docs.append((code, captured.out.replace(str(path), "")))
    assert docs[0] == docs[1]
    assert docs[0][0] in (0, 1) and docs[0][1]


@pytest.mark.parametrize("command", [
    ["split", "--loss", '{"high": 2}'], ["validate"]], ids=["split", "validate"])
@pytest.mark.parametrize("n_max, shown", [
    (10_001, "10001"), (1e300, "1e+300")], ids=["past_the_cap", "1e300"])
def test_split_n_max_past_the_cap_is_refused(tmp_path, capsys, command,
                                             n_max, shown):
    # the schema's integers admit 1e300, whose sweep would never end
    doc = json.loads((FIXTURES / "split_entropic.json").read_text())
    doc["split"]["n_max"] = n_max
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (1, None)
    assert err == f"error: split n_max {shown} exceeds the cap of 10000\n"


def test_a_schema_violation_exits_1_naming_its_path(tmp_path, capsys):
    doc = json.loads((FIXTURES / "entropic_pair.json").read_text())
    doc["agents"][0]["acceptance"] = {"entropic": -1.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "validate", str(path))
    assert (code, out) == (1, None)
    assert err == ("error: problem document rejected at "
                   "agents/0/acceptance/entropic: -1.0 is not greater than 0\n")
