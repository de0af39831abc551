#!/usr/bin/env python3
"""Regenerate the finite-size key-rate curves (block mode).

Sweeps the QBER at several expected round counts, and the round count at
several QBERs, optimizing the free protocol parameters at every point.
Writes CSV files into the given output directory (default: cwd), which
is created if missing.
"""

import argparse
import os

from di_toolkit import cli
from di_toolkit import keyrates as kr

CAPS = kr.RateCaps(soundness=1e-5, completeness=1e-2, eps_ec=1e-10)

Q_SWEEP_NS = [1e7, 1e8, 1e10, 1e15]
Q_GRID = [1e-10] + [0.0029 * k for k in range(1, 25)]

N_SWEEP_QS = [0.005, 0.025, 0.05]
N_GRID = [10.0**(e / 2) for e in range(12, 31)]  # 1e6 .. 1e15


def write_csv(path, grid, reports):
    with open(path, "w") as fh:
        fh.write(cli.csv_text(*cli.rate_curve_table(grid, reports)))
    print(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--quick", action="store_true",
                        help="coarser grids for a fast smoke run")
    args = parser.parse_args()
    q_grid = Q_GRID[::4] if args.quick else Q_GRID
    n_grid = N_GRID[::4] if args.quick else N_GRID
    os.makedirs(args.out_dir, exist_ok=True)

    for n in (Q_SWEEP_NS[:2] if args.quick else Q_SWEEP_NS):
        reports = kr.rate_curve("q", q_grid, {"n": n, "q": None}, CAPS)
        write_csv(os.path.join(args.out_dir, f"rate_vs_qber_n{n:.0e}.csv"),
                  q_grid, reports)

    for q in (N_SWEEP_QS[:1] if args.quick else N_SWEEP_QS):
        reports = kr.rate_curve("n", n_grid, {"q": q, "n": None}, CAPS)
        write_csv(os.path.join(args.out_dir, f"rate_vs_rounds_q{q:g}.csv"),
                  n_grid, reports)


if __name__ == "__main__":
    main()
