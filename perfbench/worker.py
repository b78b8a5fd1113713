"""One benchmark process: set up a workload, then run it as a closed loop
(one client, the next request sent when the previous one returns) or as
a traced run.  Started by run.py; prints `ready` when set-up is done and
one JSON line with its raw results at the end."""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calib
import spans as tr
import workloads as wl

RESULTS = Path(__file__).resolve().parent / "results"
TRACED_CLI = str(Path(__file__).resolve().parent / "tracedcli.py")

# requests per traced pass: instances 0..K-1 of the seed's stream, so that
# the work counters of a traced run depend on the seed alone
TRACE_PASS = {
    "poly-lambda": 16, "poly-equilibrium": 16, "lawinv-lambda": 3,
    "lawinv-rho": 16, "lawinv-split": 16, "oracle-pareto": 16,
    "oracle-bracket": 8, wl.CLI: 8,
}
WORKLOAD_NAMES = tuple(wl.WORKLOADS)
WARMUP_SEED = 0
KERNEL_WINDOW_S = 0.5  # kernel runs this near a request rescale it


def workload(name):
    return wl.WORKLOADS[name]


def setup(w):
    """Answer one input once, checked (warm-up).  The warm-up input does
    not depend on the run's seed, so neither does the set-up work."""
    inst = w.instance(WARMUP_SEED, 0)
    if not w.check(inst, w.request(inst), w.reference(inst)):
        raise RuntimeError(f"{w.name}: warm-up request failed its check")
    calib.kernel()


def _call(w, inst):
    try:
        return w.request(inst)
    except Exception as exc:          # counted as a failed request
        return exc


def check_all(w, records):
    """records: (instance, latency, rescaled latency, answer or exception).
    Returns the (latency, rescaled) pairs of the requests that passed and
    notes on the ones that did not.  A reference is computed once per
    instance object."""
    refs, ok, failures = {}, [], []
    for n, (inst, latency, rescaled, answer) in enumerate(records):
        if isinstance(answer, Exception):
            failures.append(f"#{n}: {type(answer).__name__}: {answer}")
            continue
        if id(inst) not in refs:
            refs[id(inst)] = w.reference(inst)
        if w.check(inst, answer, refs[id(inst)]):
            ok.append((latency, rescaled))
        else:
            failures.append(f"#{n}: wrong answer")
    return ok, failures


def timed(w, seed, seconds):
    """Closed loop for `seconds`, ended on a cycle boundary of the
    workload's instance stream.  Each input is generated before its
    request and each request is followed by calibration kernel runs, both
    outside the request's latency; answers are checked afterwards."""
    records, kernels = [], [(time.perf_counter(), calib.kernel_seconds(3))]
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(records) % w.cycle):
        inst = w.instance(seed, len(records))
        t0 = time.perf_counter()
        answer = _call(w, inst)
        t1 = time.perf_counter()
        # a longer request gets more kernel runs (up to five) after it
        runs = 1 + min(4, int((t1 - t0) / 0.1))
        kernels.append((t1, calib.kernel_seconds(runs)))
        records.append([inst, t1 - t0, None, answer])
    # request i ran between kernel measurements i and i + 1.  One kernel
    # run is noisy and the host's speed drifts over seconds, so take the
    # median of the measurements within KERNEL_WINDOW_S of the request,
    # its two neighbours always included.
    at = np.array([t for t, _ in kernels])
    values = np.array([k for _, k in kernels])
    for i, rec in enumerate(records):
        near = np.abs(at - 0.5 * (at[i] + at[i + 1])) <= KERNEL_WINDOW_S
        near[i] = near[i + 1] = True
        rec[2] = calib.rescale(rec[1], float(np.median(values[near])))
    ok, failures = check_all(w, records)
    return {"latencies": [lat for lat, _ in ok],
            "rescaled": [res for _, res in ok],
            "busy_s": sum(r[1] for r in records),
            "busy_rescaled_s": sum(r[2] for r in records),
            "kernel_first_s": kernels[0][1],
            "attempted": len(records), "failed": len(failures),
            "failures": failures[:5]}


def _traced_cli(inst, k, seed):
    spans = RESULTS / f"spans-{wl.CLI}-s{seed}-{k}.tsv"
    env = dict(wl.cli_child_env(), BENCH_SPANS=str(spans))
    proc = subprocess.run([sys.executable, TRACED_CLI, *inst[0]],
                          capture_output=True, env=env, timeout=120)
    summary = json.loads(proc.stderr.decode().splitlines()[-1])
    return (proc.returncode, proc.stdout), summary


def traced_pass(w, batch, seed, spans_file=None):
    """One pass over `batch` with every layer traced.  Returns the answers,
    the span summary and the pass's wall time."""
    start = time.perf_counter()
    if w.name == wl.CLI:
        outs = [_traced_cli(inst, k, seed) for k, inst in enumerate(batch)]
        wall = time.perf_counter() - start
        return [a for a, _ in outs], tr.merge(s for _, s in outs), wall
    with tr.Tracer() as tracer:
        answers = []
        for i, inst in enumerate(batch):
            tracer.request = i
            answers.append(_call(w, inst))
    wall = time.perf_counter() - start
    if spans_file is not None:
        tracer.write(spans_file)
    return answers, tracer.summary(), wall


def cli_import_seconds(runs=3):
    """Median time for a fresh interpreter to import riskshare.cli."""
    code = ("import time; t = time.perf_counter(); import riskshare.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, env=wl.cli_child_env(),
                              timeout=120)
        times.append(float(proc.stdout))
    return sorted(times)[runs // 2]


def check_layers(w, summary):
    """Refuse a traced run in which a layer the workload exists to exercise
    recorded no span: a missed binding would make that layer look free."""
    calls = tr.layer_calls(summary)
    silent = [layer for layer in w.layers if not calls[layer]]
    if silent:
        raise RuntimeError(
            f"{w.name}: no spans recorded for layers {silent}; a binding "
            "was missed or the workload does not reach them")


def traced(w, seed, seconds):
    """Alternate untraced and traced passes over the first K instances
    until `seconds` have passed (at least one pair).  Counters and self
    times come from the first traced pass; the overhead compares the
    rescaled wall times of all passes."""
    RESULTS.mkdir(exist_ok=True)
    batch = w.instances(seed, TRACE_PASS[w.name])
    walls = [0.0, 0.0]
    first, records = None, []
    start = time.perf_counter()
    kernel_prev = calib.kernel_seconds(3)
    while first is None or time.perf_counter() - start < seconds:
        for side in (0, 1):
            t0 = time.perf_counter()
            if side == 0:
                answers = [_call(w, inst) for inst in batch]
            else:
                spans_file = None if first else (
                    RESULTS / f"spans-{w.name}-s{seed}.tsv")
                answers, summary, pass_wall = traced_pass(w, batch, seed,
                                                          spans_file)
                first = first or (summary, pass_wall)
            wall = time.perf_counter() - t0
            kernel = calib.kernel_seconds()
            walls[side] += calib.rescale(wall, 0.5 * (kernel_prev + kernel))
            kernel_prev = kernel
            records += [(inst, 0.0, 0.0, a) for inst, a in zip(batch, answers)]
    _, failures = check_all(w, records)
    if failures:
        raise RuntimeError(f"{w.name}: traced requests failed: {failures[:3]}")
    summary, pass_wall = first
    check_layers(w, summary)
    extra = {"cli.import_s": (cli_import_seconds(), "s"),
             "trace.overhead_frac": (walls[1] / walls[0] - 1.0, "ratio"),
             **scale_curve(seed)}
    metrics = tr.per_layer_metrics(summary, pass_wall, extra)
    return {"metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "attempted": len(records), "failed": 0}


def scale_curve(seed):
    """Polyhedral Lambda latency over scenario count m and agent count n:
    median of three window-chain instances per size, after one warm-up."""
    rng = np.random.default_rng([seed, 1])
    out = {}
    for m, n in wl.SCALE_SIZES:
        times = []
        for _ in range(4):
            inst = wl.window_chain(rng, m, n)
            t0 = time.perf_counter()
            res = wl.poly_lambda_request(inst)
            times.append(time.perf_counter() - t0)
            if abs(res.value.as_float() - inst[2]) > wl.LAMBDA_TOL:
                raise RuntimeError(f"scale curve m={m} n={n}: wrong Lambda")
        out[f"scale.lambda_ms.m{m}_n{n}"] = (
            1e3 * float(np.median(times[1:])), "ms")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    w = workload(args.workload)
    setup(w)
    print("ready", flush=True)
    if args.setup_only:
        return
    if args.trace:
        out = traced(w, args.seed, args.seconds)
    else:
        out = timed(w, args.seed, args.seconds)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
