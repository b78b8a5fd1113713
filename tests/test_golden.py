"""Golden CLI documents: the README commands and `validate` of every
bundled fixture must print the recorded document byte for byte (without
the `tool` field, which carries the installed version) and exit with the
recorded code.

The documents live in tests/golden/, one `<case>.json` per command plus
`exit_codes.json`.  To re-record some of them after an intended output
change, name the cases; only their documents and their `exit_codes.json`
entries are rewritten:

    PYTHONPATH=src python tests/test_golden.py --record CASE [CASE ...]
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from riskshare.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
WORKED = "fixtures/overlap_ceilings.json"
LOSS = '{"a": 4, "b": 5, "c": 6}'

CASES = {
    "readme-validate": ["validate", WORKED],
    "readme-rho": ["rho", WORKED, "--agent", "1", "--loss", '{"a": 1, "b": 2}'],
    "readme-lambda": ["lambda", WORKED, "--loss", LOSS],
    "readme-pareto": ["pareto", WORKED, "--loss", LOSS, "--zeta", "0.5"],
    "readme-equilibrium": ["equilibrium", WORKED],
    "readme-split": ["split", "fixtures/split_entropic.json",
                     "--loss", '{"high": 2}'],
    "readme-oracle": ["oracle", WORKED, "--loss", LOSS, "--check", "lambda"],
    "equilibrium-entropic_pair": ["equilibrium", "fixtures/entropic_pair.json"],
    "subgradient-entropic_pair": [
        "oracle", "fixtures/entropic_pair.json",
        "--loss", '{"heads": 1.5, "tails": -0.4}', "--check", "subgradient"],
    "subgradient-overlap_ceilings": [
        "oracle", WORKED, "--loss", LOSS, "--check", "subgradient"],
    "pareto-entropic_pair": [
        "oracle", "fixtures/entropic_pair.json",
        "--loss", '{"heads": 1.5, "tails": -0.4}', "--check", "pareto"],
    "lambda-entropic_pair": [
        "oracle", "fixtures/entropic_pair.json",
        "--loss", '{"heads": 1.5, "tails": -0.4}', "--check", "lambda"],
    "validate-arbitrage_triple": ["validate", "fixtures/arbitrage_triple.json"],
    "validate-avar_entropic": ["validate", "fixtures/avar_entropic.json"],
    "validate-entropic_pair": ["validate", "fixtures/entropic_pair.json"],
    "validate-split_entropic": ["validate", "fixtures/split_entropic.json"],
    "rho-avar_entropic": [
        "rho", "fixtures/avar_entropic.json", "--agent", "1",
        "--loss", '{"w1": 2, "w2": 0.5, "w4": -1, "w5": 1.5, "w8": 0.25}'],
    "lambda-avar_ceiling": ["lambda", "fixtures/avar_ceiling.json",
                            "--loss", '{"up": 3, "down": -1}'],
    "validate-avar_ceiling": ["validate", "fixtures/avar_ceiling.json"],
}


def _document(argv):
    """(exit code, stdout without the tool field) of one CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run([str(ROOT / a) if a.startswith("fixtures/") else a
                    for a in argv])
    if not buf.getvalue():
        return code, ""
    doc = json.loads(buf.getvalue())
    doc.pop("tool", None)
    return code, json.dumps(doc, indent=2, sort_keys=True,
                            allow_nan=False) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_document_is_unchanged(case):
    code, text = _document(CASES[case])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[case]
    assert text == (GOLDEN / f"{case}.json").read_text()


def _record(cases):
    """Rewrite the documents and exit codes of `cases`; keep the rest."""
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    path = GOLDEN / "exit_codes.json"
    codes = json.loads(path.read_text()) if path.exists() else {}
    for case in cases:
        codes[case], text = _document(CASES[case])
        (GOLDEN / f"{case}.json").write_text(text)
    path.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or not sys.argv[2:]:
        sys.exit("usage: python tests/test_golden.py --record CASE [CASE ...]")
    _record(sys.argv[2:])
