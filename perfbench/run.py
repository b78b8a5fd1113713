"""riskshare benchmark: one workload, one seed, one run.

Usage (from the repository root):
    python3 perfbench/run.py --workload poly-lambda --seed 1 --seconds 10 --trace 0

--trace 0 times a closed loop (one client, next request when the previous
one returns) and prints the end-to-end metrics; --trace 1 runs the traced
passes and prints the per-layer metrics.  Every answer is checked against
a reference.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are for people.
A fuller record, with the environment, goes to perfbench/results/.
"""

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
SETUPS = 3                  # set-up is timed this many times per run
DEADLINE_S = 170.0          # the run must end within 180 s
TAIL_BEYOND = 10            # samples required beyond the tail percentile

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:       # one process uses at most one core
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline, extra=()):
    """Start one worker; return (seconds from spawn to `ready`, last stdout
    line).  The worker is killed if it outlives the deadline."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"worker-{args.workload}.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                                stdout=subprocess.PIPE, stderr=err)
        ready, buf = None, b""
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise BenchError("worker ran past the deadline")
                    if not sel.select(timeout=remaining):
                        continue
                    chunk = os.read(proc.stdout.fileno(), 65536)
                    if not chunk:
                        break
                    buf += chunk
                    if ready is None and b"ready\n" in buf:
                        ready = time.perf_counter() - start
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        message = err.read().decode(errors="replace")[-2000:]
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker exited with {proc.returncode}:\n{message}")
    lines = [ln for ln in buf.decode().splitlines() if ln.strip()]
    return ready, lines[-1]


def tail(latencies):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it.  Below 21 samples that percentile would sit under
    the median, so the maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": seed, "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(args, deadline):
    """Time set-up SETUPS times (the last one starts the measured worker)
    and take the closed-loop results.  Every interval is rescaled to the
    reference machine speed with the calibration kernel."""
    setups, raw_setups = [], []
    calib.kernel()
    for k in range(SETUPS):
        before = calib.kernel_seconds(3)
        extra = ("--setup-only",) if k < SETUPS - 1 else ()
        ready, last = run_worker(args, deadline, extra)
        after = (calib.kernel_seconds(3) if extra
                 else json.loads(last)["kernel_first_s"])
        raw_setups.append(ready)
        setups.append(calib.rescale(ready, 0.5 * (before + after)))
    raw = json.loads(last)
    lat, rescaled = raw["latencies"], raw["rescaled"]
    if not lat:
        raise BenchError(f"no request passed its check: {raw['failures']}")
    tail_v, tail_pct, n = tail(rescaled)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "requests_per_s": {"value": len(lat) / raw["busy_rescaled_s"],
                           "unit": "1/s"},
        "p50_ms": {"value": 1e3 * statistics.median(rescaled), "unit": "ms"},
    }
    unscaled = {
        "setup_s": statistics.median(raw_setups),
        "requests_per_s": len(lat) / raw["busy_s"],
        "p50_ms": 1e3 * statistics.median(lat),
    }
    notes = {
        "unscaled": unscaled, "setup_samples_s": setups,
        "tail_ms": 1e3 * tail_v, "tail_ms_unscaled": 1e3 * tail(lat)[0],
        "tail_percentile": tail_pct, "latency_samples": n,
        "fail_frac": raw["failed"] / raw["attempted"],
        "failures": raw["failures"],
    }
    return raw["attempted"], raw["failed"], metrics, notes


def per_layer(args, deadline):
    _, last = run_worker(args, deadline)
    raw = json.loads(last)
    return raw["attempted"], raw["failed"], raw["metrics"], {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "riskshare" / "__init__.py").is_file():
        sys.exit("riskshare sources not found under src/; run from a "
                 "checkout of the repository")
    # this process, its workers and their CLI children share one CPU, so
    # the calibration kernel runs on the core that does the work
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics, notes = measure(args, deadline)
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")
    env = environment(args.seed)
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **notes,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    out = RESULTS / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  env {json.dumps(env)}")
    for name, m in metrics.items():
        line = f"  {name:42s} {m['value']:>16.6g} {m['unit']}"
        if not args.trace:
            line += f"   (unscaled {notes['unscaled'][name]:.6g})"
        print(line)
    if not args.trace:
        print(f"  {'tail_ms':42s} {notes['tail_ms']:>16.6g} ms   (unscaled "
              f"{notes['tail_ms_unscaled']:.6g}; p{notes['tail_percentile']:.1f}"
              f" of {notes['latency_samples']} verified requests)")
        print(f"  {'fail_frac':42s} {notes['fail_frac']:>16.6g} ratio   "
              f"(of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
