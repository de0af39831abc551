"""Independent checks of di_toolkit outputs.

Nothing here calls the library's numerics: the entropy bounds, the cut
objectives, the non-signalling conditions and the signalling measure are
written out again in numpy, so a shortcut in the library cannot also fake
its own check.
"""

from __future__ import annotations

import math

import numpy as np

OMEGA_C = 0.75
OMEGA_Q = (2.0 + math.sqrt(2.0)) / 4.0
EDGE = 1e-9  # the library keeps its cut this far inside the quantum regime
SCAN_POINTS = 4097


def _h2(p):
    p = np.clip(p, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p == 0.0) | (p == 1.0), 0.0, out)


def secrecy(w):
    """1 - h(1/2 + 1/2 sqrt(16 w (w-1) + 3)), flat outside [3/4, OMEGA_Q]."""
    w = np.clip(w, OMEGA_C, OMEGA_Q)
    root = np.sqrt(np.maximum(16.0 * w * (w - 1.0) + 3.0, 0.0))
    return 1.0 - _h2(0.5 + 0.5 * root)


def secrecy_slope(w):
    root = np.sqrt(16.0 * w * (w - 1.0) + 3.0)
    u = 0.5 + 0.5 * root
    return np.log2(u / (1.0 - u)) * 4.0 * (2.0 * w - 1.0) / root


def _penalty(es, ee, count):
    return (2.0 / math.sqrt(count)) * math.sqrt(1.0 - 2.0 * math.log2(es * ee))


def mu_round(cut, omega, delta, gamma, n, es, ee):
    """Per-round entropy rate at p1 = omega*gamma - delta, glued at ``cut``."""
    p1 = omega * gamma - delta
    slope = secrecy_slope(cut / gamma) / gamma
    f = np.where(p1 <= cut, secrecy(p1 / gamma),
                 secrecy(cut / gamma) + slope * (p1 - cut))
    return f - _penalty(es, ee, n) * (math.log2(13.0) + slope)


def mu_blockwise(cut, omega, delta, gamma, s_max, m, es, ee):
    """Per-block entropy rate at p~1 = omega*mass - delta, glued at ``cut``."""
    mass = 1.0 - (1.0 - gamma) ** s_max
    sbar = mass / gamma
    p1 = omega * mass - delta
    slope = sbar * secrecy_slope(cut / mass) / mass
    f = np.where(p1 <= cut, sbar * secrecy(p1 / mass),
                 sbar * secrecy(cut / mass) + slope * (p1 - cut))
    log2_dim = math.log2(1 + 2 * 6**s_max)
    return f - _penalty(es, ee, m) * (log2_dim + slope)


def _scan(objective, scale):
    cuts = np.linspace(scale * (OMEGA_C + EDGE), scale * (OMEGA_Q - EDGE),
                       SCAN_POINTS)
    return float(np.max(objective(cuts)))


def check_cut_optimum(value, cut, objective, scale) -> str | None:
    """A reported optimum (value, cut) must be the objective at that cut and
    no worse than a dense scan of the cut interval."""
    tol = 1e-9 * max(1.0, abs(value))
    lo, hi = scale * OMEGA_C, scale * OMEGA_Q
    if not lo < cut < hi:
        return f"cut {cut} outside ({lo}, {hi})"
    at_cut = float(objective(np.array([cut]))[0])
    if abs(at_cut - value) > tol:
        return f"value {value} != objective at its cut {at_cut}"
    best = _scan(objective, scale)
    if value < best - tol:
        return f"value {value} below dense scan {best}"
    return None


def mu_round_objective(omega, delta, gamma, n, es, ee):
    return lambda cut: mu_round(cut, omega, delta, gamma, n, es, ee)


def mu_block_objective(omega, delta, gamma, s_max, m, es, ee):
    return lambda cut: mu_blockwise(cut, omega, delta, gamma, s_max, m, es, ee)


# ---------------------------------------------------------------------------
# boxes and games


def check_ns_box(p, q, win, value, tol=1e-8) -> str | None:
    """``p[x,y,a,b]`` is a normalized non-signalling box winning with
    probability ``value``."""
    if np.any(p < -tol):
        return "negative entry"
    if np.any(np.abs(p.sum(axis=(2, 3)) - 1.0) > tol):
        return "not normalized"
    alice = p.sum(axis=3)  # (x, y, a): must not depend on y
    bob = p.sum(axis=2)  # (x, y, b): must not depend on x
    if np.any(np.abs(alice - alice[:, :1]) > tol):
        return "Alice's marginal depends on y"
    if np.any(np.abs(bob - bob[:1]) > tol):
        return "Bob's marginal depends on x"
    wins = float(np.sum(q[:, :, None, None] * p * np.transpose(win, (2, 3, 0, 1))))
    if abs(wins - value) > tol:
        return f"box wins {wins}, reported {value}"
    return None


def signalling_flags(x, y, a, b, sizes, q, zeta, eps):
    """Expected pass flag of each sig-test target, in the CLI's target order,
    or None for a target whose measure sits within 1e-9 of the threshold."""
    a_size, b_size, x_size, y_size = sizes
    half = len(x) // 2
    halves = [(x[:half], y[:half], a[:half], b[:half]),
              (x[half:], y[half:], a[half:], b[half:])]
    for hx, hy, _, _ in halves:
        seen = np.zeros((x_size, y_size), dtype=bool)
        seen[hx, hy] = True
        if not seen.all():  # the test rejects when a pair is missing
            return [False] * (x_size * y_size * (a_size + b_size))
    hx, hy, ha, hb = halves[1]
    counts = np.zeros((x_size, y_size, a_size, b_size))
    np.add.at(counts, (hx, hy, ha, hb), 1.0)
    joint = counts / half  # Q(x,y) * frequency box
    x_given_y = q / q.sum(axis=0, keepdims=True)
    y_given_x = q / q.sum(axis=1, keepdims=True)
    o_bxy = joint.sum(axis=2)
    o_axy = joint.sum(axis=3)
    threshold = zeta - 2.0 * eps
    flags = []
    for xi in range(x_size):
        for yi in range(y_size):
            measures = []
            for bi in range(b_size):
                mass = o_bxy[:, yi, bi].sum()
                measures.append(o_bxy[xi, yi, bi] - x_given_y[xi, yi] * mass)
            for ai in range(a_size):
                mass = o_axy[xi, :, ai].sum()
                measures.append(o_axy[xi, yi, ai] - y_given_x[xi, yi] * mass)
            for m in measures:
                flags.append(None if abs(m - threshold) <= 1e-9
                             else bool(m >= threshold))
    return flags
