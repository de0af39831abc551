#!/usr/bin/env python3
"""Honest-device abort probability against the estimation-width Hoeffding
bound, across a grid of confidence widths.

Each row compares the empirical abort frequency (with a 95% Wilson
interval) to exp(-2 n delta_est^2) and to the exact abort probability.
"""

import argparse

from di_toolkit import eat, simulate as sim


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=10**4)
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--omega-exp", type=float, default=0.81)
    parser.add_argument("--qber", type=float, default=0.01)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    device = sim.HonestDevice(args.omega_exp, args.qber)
    print("delta_est,abort_freq,wilson_lo,wilson_hi,hoeffding_bound,"
          "exact_abort")
    for delta in (0.005, 0.008, 0.012, 0.02, 0.03):
        cfg = sim.SimulationConfig(n=args.n, gamma=args.gamma,
                                   omega_exp=args.omega_exp,
                                   delta_est=delta, device=device)
        freq, (lo, hi) = sim.estimate_abort_probability(cfg, args.trials,
                                                        args.seed)
        bound = eat.hoeffding(args.n, delta)
        print(f"{delta:.9g},{freq:.9g},{lo:.9g},{hi:.9g},{bound:.9g},"
              f"{sim.exact_abort_probability(cfg):.9g}")


if __name__ == "__main__":
    main()
