"""The benchmark tracer's expected bindings hold in the package.

perfbench/spans.py lists, for each traced function, the riskshare modules
that must hold it (imported by name, the same function object); its
traced runs refuse to start when one is missing.  This test reads that
list as it is and checks it, so that a moved import fails here rather
than only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


TRACED = _traced()


@pytest.mark.parametrize("key", sorted(TRACED), ids=".".join)
def test_every_holder_binds_the_traced_function(key):
    mod_name, fn_name = key
    holders = TRACED[key]
    original = getattr(importlib.import_module(f"riskshare.{mod_name}"),
                       fn_name)
    missing = [
        holder for holder in holders
        if not any(value is original for value in
                   vars(importlib.import_module(f"riskshare.{holder}"))
                   .values())]
    assert missing == [], f"{mod_name}.{fn_name} is not bound in {missing}"
