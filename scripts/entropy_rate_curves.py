#!/usr/bin/env python3
"""Tabulate the optimized finite-size entropy rate against the expected
winning probability for several (n, eps) choices, gamma = 1.

Writes one CSV block per parameter set to stdout.
"""

import math
import sys

from di_toolkit import cli, eat

PARAM_SETS = [
    # (n, eps_s = eps_e, delta_est)
    (1e8, 1e-6, 1e-3),
    (1e7, 1e-5, 1e-3),
    (1e7, 1e-6, 1e-3),
    (1e6, 1e-3, 1e-3),
    (1e6, 1e-4, 1e-3),
    (1e6, 1e-5, 1e-3),
    (1e5, 1e-3, 1e-2),
]

POINTS = 50
OMEGA_MAX = (2 + math.sqrt(2)) / 4


def main():
    for n, eps_val, delta in PARAM_SETS:
        eps = eat.EatEpsilons(eps_val, eps_val)
        print(f"# n={n:g} eps={eps_val:g} delta_est={delta:g} gamma=1")
        lo = 0.75 + delta + 1e-6
        rows = []
        for i in range(POINTS):
            omega = lo + (OMEGA_MAX - lo) * i / (POINTS - 1)
            rows.append((omega, *eat.mu_opt(omega, delta, 1.0, n, eps)))
        sys.stdout.write(cli.csv_text(["omega_exp", "mu_opt", "best_cut"],
                                      rows))
        print()


if __name__ == "__main__":
    main()
