#!/usr/bin/env python3
"""Simplex work of the game programs: solves and pivots per caller.

It imports ``nslp`` and ``boxes`` from a checkout's ``src/`` (default:
this script's own checkout) and builds the games of that checkout's
verify-mix workload (``perfbench/workloads.py``): CHSH, extended CHSH and
the random games of passes 0, 1 and 2, keeping those that no
deterministic pair wins outright (a game won outright solves no program).
The stalling game of each pass is left out: its ``<= 0`` program raises
SolverError, so it has no record.  For each game it calls ``ns_value``
(one solve: the value, continued to the least kappa) and
``perturbed_value`` at verify-mix's slacks, and counts every
``nslp.solve`` call under the function that made it: solves, phase-1 and
phase-2 pivots (a continuation's included), seconds in the solver and
their split into pivot seconds (in ``nslp._simplex_phase``) and set-up
seconds (the rest: the tableau, the start, pricing and the optimum's
check), and for ``perturbed_value`` per slack also the starts the solver
took (phase 1 is then the start's X*Y pivots).  It writes
bench/BENCH_lp-pivots-<label>.json (see --out-dir):

    python3 scripts/lp_pivots.py --checkout ../parent --label parent
    python3 scripts/lp_pivots.py --label change
"""

import argparse
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = 3


def load(checkout):
    """nslp, boxes and perfbench's workloads module of ``checkout``."""
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "perfbench")]
    from di_toolkit import boxes, nslp
    import workloads
    return nslp, boxes, workloads


def games(boxes, workloads):
    """(label, game) for CHSH, extended CHSH and the random games of each
    pass, drawn as verify-mix draws them."""
    out = [("chsh", boxes.chsh_game()),
           ("extended-chsh", boxes.extended_chsh_game())]
    for pass_index in range(PASSES):
        rng = np.random.default_rng([workloads.GAME_SEED, pass_index])
        for i, (x, y, a, b) in enumerate(workloads.GAME_SHAPES * 3):
            q, win = workloads.random_game_arrays(rng, x, y, a, b)
            out.append((f"pass{pass_index}-random{i}", boxes.Game(
                boxes.Alphabets(a, b, x, y), boxes.InputDistribution(q), win)))
    return out


def shape(game):
    """[x, y, a, b]: the game's input and output alphabet sizes."""
    al = game.alphabets
    return [al.x_size, al.y_size, al.a_size, al.b_size]


def count(nslp, game_list, slacks):
    """Per caller (and per slack for perturbed_value): solves, phase-1 and
    phase-2 pivots, seconds in solve, of them in _simplex_phase (pivot_s)
    and outside it (setup_s), and starts taken."""
    tally = defaultdict(lambda: dict(solves=0, phase1=0, phase2=0,
                                     starts_taken=0, solve_s=0.0,
                                     pivot_s=0.0, setup_s=0.0))
    solve, phase, caller, in_phases = nslp.solve, nslp._simplex_phase, [], []

    def timed_phase(*args):
        began = time.perf_counter()
        try:
            return phase(*args)
        finally:
            in_phases.append(time.perf_counter() - began)

    def counting(lp):
        in_phases.clear()
        began = time.perf_counter()
        sol = solve(lp)
        seconds = time.perf_counter() - began
        pivot_s = sum(in_phases)
        start = getattr(lp, "start", ())
        for key in caller:
            row = tally[key]
            row["solves"] += 1
            row["phase1"] += sol.pivots[0]
            row["phase2"] += sol.pivots[1]
            # a taken start's phase 1 is its pivots; a refused one's record
            # is the two-phase solve's, whose phase 1 drives out an
            # artificial for each of the X*Y + nvar = and >= rows
            row["starts_taken"] += bool(start) and sol.pivots[0] == len(start)
            row["solve_s"] += seconds
            row["pivot_s"] += pivot_s
            row["setup_s"] += seconds - pivot_s
        return sol

    nslp.solve, nslp._simplex_phase = counting, timed_phase
    try:
        for _, game in game_list:
            caller[:] = ["ns_value"]
            nslp.ns_value(game)
            for slack in slacks:
                caller[:] = ["perturbed_value", f"perturbed_value@{slack:g}"]
                nslp.perturbed_value(game, slack)
    finally:
        nslp.solve, nslp._simplex_phase = solve, phase
    return {key: dict(row, pivots=row["phase1"] + row["phase2"])
            for key, row in tally.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=ROOT)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", default=os.path.join(ROOT, "bench"))
    args = parser.parse_args(argv)

    nslp, boxes, workloads = load(os.path.abspath(args.checkout))
    kept = [(label, game) for label, game in games(boxes, workloads)
            if nslp._outright_value(game) is None]
    counts = count(nslp, kept, workloads.SLACKS)
    for key, row in counts.items():
        print(f"{key}: {row['solves']} solves, {row['pivots']} pivots "
              f"({row['phase1']} phase 1, {row['phase2']} phase 2), "
              f"{row['starts_taken']} starts taken, {row['solve_s']:.3f} s "
              f"({row['setup_s']:.3f} s set-up)")
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"BENCH_lp-pivots-{args.label}.json")
    with open(path, "w") as fh:
        json.dump({"label": args.label, "passes": PASSES,
                   "slacks": list(workloads.SLACKS),
                   "games": {label: shape(game) for label, game in kept},
                   "counts": counts}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
