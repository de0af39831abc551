"""One pass of one workload, in a fresh process.

Protocol with run.py over stdin/stdout: after set-up (interpreter start,
``import di_toolkit``, input generation, writing the game and data files)
the worker prints ``ready`` with the host speed sampled during its set-up,
and waits for a line: ``go`` runs the timed pass, checks every output and
prints one JSON result line; ``exit`` ends the process (run.py uses that to
sample set-up time again).

An untraced pass samples the host speed while it times (hostspeed.py) and
reports its timings in reference seconds; a traced pass reports measured
seconds, so that no sample lands inside a span.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time

import numpy as np

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


class DeadlineExceeded(Exception):
    """Raised from SIGALRM inside an item that ran past its deadline.

    Not a ValueError or SolverError, so neither the library nor cli.main
    swallows it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_items(items, tracer, sampler):
    """Time each item; returns (records, outputs, spans, loop wall seconds,
    loop CPU seconds).  The time a sampler spends sampling is left out of
    every figure; ``spans`` are the (start, end, CPU seconds) of each
    item."""
    records, outputs, spans = [], [], []
    # item_start = inf holds off every sample while the clocks are read
    sampler.item_start = math.inf
    paused0, paused_cpu0 = sampler.paused, sampler.paused_cpu
    start, cpu0 = time.perf_counter(), _cpu_seconds()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.run_id = index
        status, detail, output = "ok", "", None
        paused, paused_cpu = sampler.paused, sampler.paused_cpu
        t0, c0 = time.perf_counter(), _cpu_seconds()
        sampler.item_start = t0
        try:
            if item.deadline:
                signal.setitimer(signal.ITIMER_REAL, item.deadline)
            try:
                output = item.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            status, detail = "deadline", f"over {item.deadline:g} s"
        except Exception as exc:  # a failed item is data, not a crash
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        sampler.item_start = math.inf
        t1, c1 = time.perf_counter(), _cpu_seconds()
        spans.append((t0, t1, c1 - c0 - (sampler.paused_cpu - paused_cpu)))
        records.append(dict(kind=item.kind, label=item.label,
                            seconds=t1 - t0 - (sampler.paused - paused),
                            status=status, detail=detail))
        outputs.append(output)
        sampler.catch_up()
    wall = time.perf_counter() - start - (sampler.paused - paused0)
    cpu = _cpu_seconds() - cpu0 - (sampler.paused_cpu - paused_cpu0)
    sampler.item_start = None
    return records, outputs, spans, wall, cpu


class NoSampler:
    """Stands in for a hostspeed.Sampler in a traced pass."""
    paused = paused_cpu = 0.0
    samples = ()
    item_start = None

    def catch_up(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def to_reference(records, spans, wall, cpu, sampler):
    """Scale the measured seconds of a pass to reference seconds: the wall
    and CPU time of each item by the host speed sampled in and around it,
    the rest of the loop by the pass's mean speed.  An item stopped at its
    deadline keeps its measured time: a deadline is wall time, and it costs
    the same on any host.  Returns (wall, cpu, mean speed)."""
    speed = hostspeed.speed(sampler.samples)
    wall_rest = wall - sum(r["seconds"] for r in records)
    cpu_rest = cpu - sum(c for _, _, c in spans)
    item_cpu = 0.0
    for record, (t0, t1, c) in zip(records, spans):
        factor = 1.0
        if record["status"] != "deadline":
            factor = sampler.speed_between(t0, t1)
        record["seconds"] *= factor
        item_cpu += c * factor
    wall = sum(r["seconds"] for r in records) + wall_rest * speed
    return wall, item_cpu + cpu_rest * speed, speed


def check_items(items, records, outputs):
    """Run each passed item's oracle; a wrong output marks the record."""
    for item, record, output in zip(items, records, outputs):
        if record["status"] != "ok":
            continue
        try:
            error = item.check(output)
        except Exception as exc:  # e.g. an output file in another format
            error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            record["status"], record["detail"] = "wrong", error
            continue
        del record["label"], record["detail"]  # keep the result file small
        if item.value is not None:
            record["value"] = item.value(output)


def set_up(args):
    """Import the library, generate the pass's items and write their input
    files; returns (items, tracer or None)."""
    import di_toolkit
    from di_toolkit import (boxes, cli, definetti, eat, keyrates, nslp,
                            signalling, simulate)
    import workloads

    lib = argparse.Namespace(boxes=boxes, cli=cli, definetti=definetti,
                             eat=eat, keyrates=keyrates, nslp=nslp,
                             signalling=signalling, simulate=simulate)
    os.makedirs(args.workdir, exist_ok=True)
    items = workloads.WORKLOADS[args.workload](
        lib, ROOT, args.seed, args.pass_index, args.workdir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(vars(lib))
    signal.signal(signal.SIGALRM, _alarm)
    return items, tracer


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    # only this process writes the protocol lines; stray prints go to stderr
    protocol = sys.stdout
    sys.stdout = sys.stderr
    # set-up is short, so the host speed is sampled more often there
    with hostspeed.Sampler(interval=0.05) as boot:
        items, tracer = set_up(args)
    protocol.write("ready " + json.dumps(dict(
        speed=hostspeed.speed(boot.samples), paused=boot.paused)) + "\n")
    protocol.flush()
    if sys.stdin.readline().strip() != "go":
        return 0

    sampler = NoSampler() if tracer is not None else hostspeed.Sampler()
    with sampler:
        records, outputs, spans, wall, cpu = run_items(items, tracer, sampler)
    raw_wall, raw_cpu, speed = wall, cpu, None
    if tracer is None:
        wall, cpu, speed = to_reference(records, spans, wall, cpu, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        tracer.write_spans(os.path.join(args.workdir, "spans.csv"))
    check_items(items, records, outputs)
    result = dict(records=records, wall_s=wall, cpu_s=cpu,
                  raw_wall_s=raw_wall, raw_cpu_s=raw_cpu, speed=speed,
                  samples=len(sampler.samples),
                  peak_rss_mb=peak_rss_mb, layers=layers,
                  numpy=np.__version__,
                  di_toolkit=sys.modules["di_toolkit"].__version__)
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
