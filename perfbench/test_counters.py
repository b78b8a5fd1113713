"""The benchmark's own tests: traced work counters depend on the seed
alone, the seed reaches the generated inputs, and the tracer refuses to
run with a binding it cannot wrap.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import pickle

import pytest

import spans
import worker

COUNTERS = (
    "linprog.solve.pivots",
    "regime.base_risk.calls.entropic",
    "regime.base_risk.calls.avar",
    "regime.base_risk.calls.expectation",
    "lawinv.convolution_value.calls",
    "splits.sweep_points",
    "oracle.rows",
)


def traced_counters(name, seed, k):
    w = worker.workload(name)
    answers, summary, _ = worker.traced_pass(w, w.instances(seed, k), seed)
    assert not any(isinstance(a, Exception) for a in answers)
    metrics = spans.per_layer_metrics(summary, 1.0, {})
    return {c: metrics[c][0] for c in COUNTERS}


@pytest.mark.parametrize("name,k,moved", [
    ("poly-lambda", 2, "linprog.solve.pivots"),
    ("lawinv-rho", 3, "regime.base_risk.calls.entropic"),
    ("lawinv-split", 2, "lawinv.convolution_value.calls"),
    ("lawinv-split", 2, "splits.sweep_points"),
    ("oracle-pareto", 1, "oracle.rows"),
])
def test_same_seed_gives_identical_counters(name, k, moved):
    first = traced_counters(name, 5, k)
    assert traced_counters(name, 5, k) == first
    assert first[moved] > 0


@pytest.mark.parametrize("name", worker.WORKLOAD_NAMES)
def test_seed_changes_generated_inputs(name):
    w = worker.workload(name)

    def digest(seed):
        return hashlib.sha256(pickle.dumps(w.instances(seed, 8))).hexdigest()

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_unwrapped_binding_fails_loudly(monkeypatch):
    from riskshare import market, regime
    original = regime.rho
    monkeypatch.setitem(spans.TRACED, ("regime", "rho"),
                        ("regime", "problemfile"))
    with pytest.raises(RuntimeError, match="not bound in"):
        with spans.Tracer():
            pass
    assert regime.rho is original and market.rho is original


def test_silent_layer_fails_the_traced_run():
    w = worker.workload("poly-lambda")
    _, summary, _ = worker.traced_pass(w, w.instances(5, 1), 5)
    worker.check_layers(w, summary)
    with pytest.raises(RuntimeError, match="lawinv"):
        worker.check_layers(worker.workload("lawinv-split"), summary)
