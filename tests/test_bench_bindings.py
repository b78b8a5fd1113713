"""The benchmark tracer's expected bindings and layers hold in the package.

perfbench/spans.py lists, for each traced function, the riskshare modules
that must hold it (imported by name, the same function object); its
traced runs refuse to start when one is missing.  Each workload also names
the layers it exists to exercise, and a traced run refuses to report when
one of them records no span.  These tests read both as they are and check
them, so that a moved import or a hot path that no longer reaches a
traced function fails here rather than only in a traced benchmark run.
Each in-process workload's warm-up request must also pass its check
against the workload's reference."""

import importlib
import importlib.util
import sys
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



def _worker():
    """perfbench/worker.py, which imports its siblings by their own names."""
    sys.path.insert(0, str(SPANS.parent))
    try:
        import worker
    finally:
        sys.path.remove(str(SPANS.parent))
    return worker


WORKER = _worker()
IN_PROCESS = [name for name in WORKER.WORKLOAD_NAMES
              if name != WORKER.wl.CLI]


@pytest.mark.parametrize("name", IN_PROCESS)
def test_every_workload_layer_records_a_span(name):
    # the traced run's own pass: the batch it traces (its first instances
    # at seed 1), answered once untraced and then traced, so that answers
    # a market or system keeps from the untraced pass are reused, and its
    # refusal when a layer the workload exists to exercise records no span
    w = WORKER.workload(name)
    batch = w.instances(1, WORKER.TRACE_PASS[name])
    for inst in batch:
        w.request(inst)
    answers, summary, _ = WORKER.traced_pass(w, batch, 1)
    assert not [a for a in answers if isinstance(a, Exception)]
    WORKER.check_layers(w, summary)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_every_warm_up_answer_passes_its_reference(name):
    # the benchmark's set-up answers this instance and refuses to run when
    # its check fails, so a change that breaks a reference fails here too
    w = WORKER.workload(name)
    inst = w.instance(WORKER.WARMUP_SEED, 0)
    assert w.check(inst, w.request(inst), w.reference(inst))
