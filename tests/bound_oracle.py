"""Reference texts of the CHSH secrecy bound, its slope and the glued
min-tradeoff function, as the package computed them before the bound and
its slope came from one root: secrecy_bound with its own clamp, radicand
and binary_entropy call, the checked secrecy_bound_slope, its unguarded
body _slope in the namespace ``xp``, the unguarded array bound
_bound_open, and eat._tradeoff calling secrecy_bound and
secrecy_bound_slope separately.  The tests compare entropy.secrecy_bound,
entropy._bound_and_slope and eat._tradeoff against these bit for bit.
log2_block_dims keeps the block output dimension's exact integer text,
the oracle of its closed form eat._log2_block_dim.
"""

import math

import numpy as np

from di_toolkit.eat import _log2_block_dim
from di_toolkit.entropy import (OMEGA_CLASSICAL, OMEGA_QUANTUM, _CLAMP,
                                binary_entropy)


def secrecy_bound(omega: float) -> float:
    """1 - h(1/2 + 1/2 sqrt(16 w (w-1) + 3)) on the quantum regime, flat
    outside it (0 below, 1 above); NaN raises."""
    if math.isnan(omega):
        raise ValueError("omega must not be NaN")
    if omega < OMEGA_CLASSICAL - _CLAMP:
        return 0.0
    if omega > OMEGA_QUANTUM + _CLAMP:
        return 1.0
    omega = min(max(omega, OMEGA_CLASSICAL), OMEGA_QUANTUM)
    radicand = 16.0 * omega * (omega - 1.0) + 3.0
    radicand = max(radicand, 0.0)
    return 1.0 - binary_entropy(0.5 + 0.5 * math.sqrt(radicand))


def secrecy_bound_slope(omega: float) -> float:
    """d/dw of secrecy_bound on the open quantum regime."""
    if not OMEGA_CLASSICAL < omega < OMEGA_QUANTUM:
        raise ValueError("slope defined on the open quantum regime only")
    return _slope(omega)


def _slope(omega, xp=math):
    """secrecy_bound_slope without the domain check, in the namespace ``xp``;
    with numpy, entries outside the open regime come out nan or infinite."""
    radicand = 16.0 * omega * (omega - 1.0) + 3.0
    root = xp.sqrt(radicand)
    u = 0.5 + 0.5 * root
    # dh/du = log2((1-u)/u); du/dw = 4(2w-1)/root
    return xp.log2(u / (1.0 - u)) * 4.0 * (2.0 * omega - 1.0) / root


def _bound_open(omega: np.ndarray) -> np.ndarray:
    """secrecy_bound elementwise with no guards: finite on the open quantum
    regime, where 1/2 < u < 1."""
    u = 0.5 + 0.5 * np.sqrt(16.0 * omega * (omega - 1.0) + 3.0)
    return 1.0 - (-u * np.log2(u) - (1.0 - u) * np.log2(1.0 - u))


def tradeoff(p1_tilde, gamma, s_max, mass, cut, k_pen):
    """eat._tradeoff with the bound and the slope at the cut taken from
    secrecy_bound and secrecy_bound_slope, each with its own root."""
    ratio = p1_tilde / mass
    if ratio < OMEGA_CLASSICAL - 1e-12 or ratio > 1.0 + 1e-12:
        raise ValueError(f"normalized statistic {ratio} outside [3/4, 1]")
    cut_ratio = cut / mass
    if not OMEGA_CLASSICAL < cut_ratio < OMEGA_QUANTUM:
        raise ValueError("cut outside the open quantum regime")
    sbar = mass / gamma
    slope = sbar * secrecy_bound_slope(cut_ratio) / mass
    if p1_tilde <= cut:
        value = sbar * secrecy_bound(ratio)
    else:
        value = sbar * secrecy_bound(cut_ratio) + slope * (p1_tilde - cut)
    return value, slope, value - k_pen * (_log2_block_dim(s_max) + slope)


def log2_block_dims(s_top: int) -> list:
    """[log2(1 + 2 * 2^s * 3^s) for s = 1..s_top] from the exact integers,
    as eat._log2_block_dim computed it before its closed form, with 6^s
    built by one multiplication per s."""
    dims, power = [], 1
    for _ in range(s_top):
        power *= 6
        dims.append(math.log2(1 + 2 * power))
    return dims
