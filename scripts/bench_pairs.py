#!/usr/bin/env python3
"""Before/after benchmark pairs of two checkouts on one workload.

For each seed it runs ``perfbench/run.py`` once in the parent checkout and
once in the changed one.  The first pair runs the parent first, the next
the change first, and so on, so that slow phases of a shared host and any
warm-up fall on both sides alike.  Each run's result is the JSON object
on the last line of its stdout.  The script prints, per end-to-end metric,
the median and quartiles of each side, each side's best run (the minimum
or maximum, in the metric's direction from BENCHMARK.json: on a noisy host
it moves less than the median), the number of pairs the change wins and
whether a gain may be claimed: the change wins at least 9 in 10 pairs,
and its median is better than the parent's by more than the parent's
interquartile range.  It writes every run and the summary to
bench/BENCH_<label>.json (see --out-dir).

Every run reads and writes no bytecode: PYTHONDONTWRITEBYTECODE=1 and a
fresh, empty PYTHONPYCACHEPREFIX, so a ``__pycache__`` that pytest left
in one checkout cannot move its ``setup_s``: without bytecode, importing
the package took 53 ms instead of 32 ms (median of 7, 2-core host).  The
prefix hides numpy's and the standard library's bytecode too, so a whole
``import di_toolkit.cli`` then took about 0.9 s instead of 0.3 s, on both
sides alike:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload rate-scalar --seeds 25201-25210 --label rate-scalar-x
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def parse_seeds(text):
    """'1,5,9' or '3-6' (inclusive) or a mix of both, in the given order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def last_json_line(stdout):
    """The result object a perfbench run prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def directions(checkout):
    """{metric: "higher" or "lower"} of BENCHMARK.json's end-to-end metrics."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values):
    """(q1, median, q3) by inclusive quantiles; one run is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better):
    """Per metric: each side's (q1, median, q3) and best run, the change's
    median relative to the parent's, in how many pairs the change is
    strictly better, and whether that meets the claim rule (``claim``).
    ``pairs`` holds {"parent": result, "change": result}; a metric without
    a direction in ``better`` gets no best run, no wins and no claim."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        best = {"higher": max, "lower": min}.get(better.get(name))
        row = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side])),
                          best=best(values[side]) if best else None)
               for side in SIDES}
        base, new = row["parent"]["median"], row["change"]["median"]
        row["median_change"] = (new - base) / base if base else None
        sign = {"higher": 1, "lower": -1}.get(better.get(name))
        row["wins"] = row["claim"] = None
        if sign is not None:
            row["wins"] = sum(sign * (c - p) > 0 for p, c in
                              zip(values["parent"], values["change"]))
            spread = row["parent"]["q3"] - row["parent"]["q1"]
            row["claim"] = (10 * row["wins"] >= 9 * len(pairs)
                            and sign * (new - base) > spread)
        out[name] = row
    return {"pairs": len(pairs), "metrics": out,
            "failed": {side: [p[side]["failed"] for p in pairs]
                       for side in SIDES},
            "correct": all(p[side]["correct"] for p in pairs
                           for side in SIDES)}


def summary_lines(summary):
    lines = [f"{summary['pairs']} pairs, all correct: {summary['correct']}"]
    for name, row in summary["metrics"].items():
        p, c = row["parent"], row["change"]
        rel = ("" if row["median_change"] is None
               else f" ({row['median_change']:+.1%})")
        wins = "" if row["wins"] is None else (
            f", change better in {row['wins']}/{summary['pairs']}; claim "
            + ("met" if row["claim"] else "not met"))
        lines.append(f"  {name}: {_spread(p)} -> {_spread(c)}{rel}{wins}")
    return lines


def _spread(side):
    """'median [q1, q3]', and ', best b' where the metric has a direction."""
    best = "" if side["best"] is None else f" best {side['best']:.6g}"
    return f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}]{best}"


def run_once(checkout, workload, seed, seconds):
    """The result of one perfbench run in ``checkout``, with no bytecode
    read or written (PYTHONPYCACHEPREFIX a fresh, empty directory)."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds)],
            cwd=checkout, env=env, capture_output=True, text=True,
            check=True)
    return last_json_line(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 25201-25210 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", default="bench")
    args = parser.parse_args(argv)

    pairs = []
    for k, seed in enumerate(args.seeds):
        pair = {"seed": seed, "first": SIDES[k % 2]}
        for side in SIDES[::-1] if k % 2 else SIDES:
            pair[side] = run_once(getattr(args, side), args.workload, seed,
                                  args.seconds)
        pairs.append(pair)
        print(f"seed {seed}: goodput "
              f"{pair['parent']['metrics']['goodput_per_s']['value']:.6g} -> "
              f"{pair['change']['metrics']['goodput_per_s']['value']:.6g}/s",
              flush=True)
    summary = summarize(pairs, directions(args.change))
    for line in summary_lines(summary):
        print(line)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump({"label": args.label, "workload": args.workload,
                   "seconds": args.seconds, "seeds": args.seeds,
                   "summary": summary, "pairs": pairs}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
