#!/usr/bin/env python3
"""di-toolkit benchmark.

    python3 perfbench/run.py --workload rate-opt --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a fresh
worker process (cold lru_caches, as for every CLI user) with
DI_TOOLKIT_THREADS unset and BLAS pinned to one thread; a run makes a fixed
number of passes, about ``--seconds`` of timed work on a 2-core virtual
machine.  Every item's output is checked after the timed loop.  Timings are
in reference seconds: measured seconds scaled by the host speed sampled
while they were measured (hostspeed.py).  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` one traced pass
and the per-layer metrics derived from its spans.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("rate-opt", "rate-scalar", "verify-mix")
REQUIRED = ("src/di_toolkit/__init__.py", "tests/reference_curves.py")
SETUP_SAMPLES = 9
# Timed seconds of one pass on a 2-core virtual machine at the baseline, and
# the fewest passes a run makes.  A run makes max(MIN_PASSES, round(--seconds
# / PASS_SECONDS)) passes, a number fixed in advance, so its items and
# failures depend on the seed alone and not on how fast the host happens to
# be.  A verify-mix pass has 33 items, so its median and tail are single
# items; three passes steady them.
PASS_SECONDS = {"rate-opt": 24.0, "rate-scalar": 1.45, "verify-mix": 9.0}
MIN_PASSES = {"rate-opt": 1, "rate-scalar": 1, "verify-mix": 3}
PASS_TIMEOUT_S = 150.0
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "goodput_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "cpu_s_per_good_item": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "fraction",
    "key_rate_sum": "bit/round",
}


class BenchError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    env.pop("DI_TOOLKIT_THREADS", None)
    env.update({name: "1" for name in BLAS_THREADS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _workdir(args, pass_index):
    return os.path.join(
        WORKDIR, f"{args.workload}-s{args.seed}-t{args.trace}-p{pass_index}")


def _start(args, pass_index):
    """Spawn a worker; once it is ready returns the process and its set-up
    time: {"s": reference seconds, "raw_s": measured seconds}."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(pass_index), "--trace", str(args.trace),
           "--workdir", _workdir(args, pass_index)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=_worker_env(), cwd=ROOT)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    setup = time.perf_counter() - start
    word, _, boot = line.partition(" ")
    if word != "ready":
        _stop(proc)
        raise BenchError(f"worker for pass {pass_index} did not start")
    boot = json.loads(boot)  # host speed sampled by the worker's set-up
    return proc, {"s": (setup - boot["paused"]) * boot["speed"],
                  "raw_s": setup}


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc, command):
    try:
        out, _ = proc.communicate(command + "\n", timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {PASS_TIMEOUT_S:g} s") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if command == "go" else None


def pass_count(workload, seconds, trace):
    """Passes in a run: about --seconds of timed work; a traced run is one."""
    if trace:
        return 1
    return max(MIN_PASSES[workload], round(seconds / PASS_SECONDS[workload]))


def run_passes(args):
    """The run's passes, then set-up-only workers until there are
    SETUP_SAMPLES set-up times.  The generated input files are removed,
    except a traced run's spans."""
    passes, setups = [], []
    for index in range(pass_count(args.workload, args.seconds, args.trace)):
        proc, setup = _start(args, index)
        setups.append(setup)
        passes.append(_finish(proc, "go"))
    while not args.trace and len(setups) < SETUP_SAMPLES:
        proc, setup = _start(args, len(setups))
        _finish(proc, "exit")
        setups.append(setup)
    if not args.trace:
        for index in range(len(setups)):
            shutil.rmtree(_workdir(args, index), ignore_errors=True)
    return passes, setups


def tail_percentile(records):
    """The highest percentile of one pass's items with at least ten passed
    items beyond it (failed items count as +inf latency, so they lie beyond
    it too); with ten or fewer passed items, that of the slowest one."""
    passed = sum(r["status"] == "ok" for r in records)
    rank = passed - 10 if passed > 10 else passed
    return 100.0 * rank / len(records)


def harrell_davis(values, q, grid=200_000):
    """Harrell-Davis estimate of the q-quantile of the sorted ``values``: a
    mean of all of them weighted by the Beta((k+1)q, (k+1)(1-q)) mass of
    their rank, which moves smoothly when items near the quantile trade
    places, where the order statistic jumps across any gap between them."""
    k = len(values)
    x = (np.arange(grid) + 0.5) / grid
    a, b = (k + 1) * q, (k + 1) * (1 - q)
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    weights = np.bincount((x * k).astype(int), weights=pdf, minlength=k)
    return float(np.dot(weights, values) / weights.sum())


def end_to_end(workload, passes, setups):
    """The end-to-end metrics, plus a note on the tail percentile."""
    records = [r for p in passes for r in p["records"]]
    wall = sum(p["wall_s"] for p in passes)
    good = sorted(r["seconds"] for r in records if r["status"] == "ok")
    n, k = len(records), len(good)
    # failed items count as +inf latency: they sort after every passed one,
    # so the median of all items is the 0.5 n / k quantile of the passed
    # ones; an infinite latency is reported as the whole timed wall time
    p50 = harrell_davis(good, 0.5 * n / k) if 0.5 * n < k else wall
    # the percentile is set per pass, so that it does not depend on how many
    # passes a run makes, and read off all the items of the run
    pct = statistics.median(tail_percentile(p["records"]) for p in passes)
    latencies = good + [math.inf] * (n - k)
    rank = math.ceil(round(pct / 100.0 * n, 9))
    tail = min(latencies[rank - 1] if rank else math.inf, wall)
    if workload == "rate-opt":
        key_rate_sum = sum(r.get("value", 0.0) for r in passes[0]["records"])
    else:
        key_rate_sum = 1.0  # no rate optimization in this workload
    metrics = {
        "setup_s": statistics.median(x["s"] for x in setups),
        "goodput_per_s": k / wall,
        "item_s_p50": p50,
        "item_s_tail": tail,
        "cpu_s_per_good_item": sum(p["cpu_s"] for p in passes) / max(k, 1),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "fail_frac": (n - k) / n,
        "key_rate_sum": key_rate_sum,
    }
    note = (f"item_s_tail is p{pct:.2f} of all {n} items ({k} passed), the "
            f"highest percentile with at least ten passed items beyond it in "
            f"a pass of about {n // len(passes)} items; {len(passes)} passes, "
            f"{len(setups)} set-ups")
    return metrics, note


def summary(records):
    """Per item kind: count, failures, median latency of passed items."""
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    lines = []
    for kind, rs in sorted(kinds.items()):
        ok = [r["seconds"] for r in rs if r["status"] == "ok"]
        med = statistics.median(ok) if ok else float("nan")
        lines.append(f"  {kind}: {len(rs)} items, {len(rs) - len(ok)} failed, "
                     f"median {med:.4g} s")
        for r in [r for r in rs if r["status"] != "ok"][:3]:
            lines.append(f"    {r['status']}: {r['label'][:60]}: "
                         f"{r['detail'][:100]}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a di-toolkit checkout, missing {missing}",
              file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        passes, setups = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [r for p in passes for r in p["records"]]
    failed = sum(r["status"] != "ok" for r in records)
    correct = not any(r["status"] == "wrong" for r in records)
    wall = sum(p["wall_s"] for p in passes)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": passes[0]["numpy"], "di_toolkit": passes[0]["di_toolkit"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: "1" for name in BLAS_THREADS},
        "DI_TOOLKIT_THREADS": "unset in the workers (caller had "
                              f"{os.environ.get('DI_TOOLKIT_THREADS')!r})",
    }
    print("env " + json.dumps(env))
    print(f"{len(records)} items, {failed} failed, {wall:.3f} s timed, "
          f"goodput {(len(records) - failed) / wall:.6g}/s")
    if not args.trace:
        raw_wall = sum(p["raw_wall_s"] for p in passes)
        print(f"measured: {raw_wall:.3f} s timed wall, goodput "
              f"{(len(records) - failed) / raw_wall:.6g}/s, set-up median "
              f"{statistics.median(x['raw_s'] for x in setups):.4g} s; host "
              f"speed {wall / raw_wall:.4g} reference s per measured s over "
              f"{sum(p['samples'] for p in passes)} samples")
    for line in summary(records):
        print(line)

    if args.trace:
        layers = passes[0]["layers"]
        metrics = {name: {"value": layers[name],
                          "unit": tracing.metric_unit(name)}
                   for name in tracing.metric_names()}
    else:
        values, note = end_to_end(args.workload, passes, setups)
        print(note)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(WORKDIR, f"result-{args.workload}-s{args.seed}-"
                                    f"t{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "result": result, "setups": setups,
                   "passes": passes}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
