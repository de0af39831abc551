r"""Scalar entropy functions and single-round entropy bounds for CHSH.

All logarithms are base 2.  The quantum CHSH regime is
omega in [3/4, (2+sqrt(2))/4].  On the open regime the secrecy bound and
its slope come from one unguarded body, _bound_and_slope, in the
namespace ``xp`` (math or numpy): eat's glued tangent takes both at its
cut, on floats and on keyrates' grid kernel arrays; secrecy_bound reads
its value there, is flat outside the regime, and is for floats only.
"""

from __future__ import annotations

import math

OMEGA_CLASSICAL = 0.75
OMEGA_QUANTUM = (2.0 + math.sqrt(2.0)) / 4.0

_CLAMP = 1e-12


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), with h(0) = h(1) = 0."""
    if not -_CLAMP <= p <= 1.0 + _CLAMP:  # NaN fails too
        raise ValueError(f"binary_entropy argument {p} outside [0,1]")
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def secrecy_bound(omega: float) -> float:
    """Lower bound on the adversary-conditioned von Neumann entropy of
    Alice's output, as a function of the CHSH winning probability:

        1 - h(1/2 + 1/2 sqrt(16 w (w-1) + 3)).

    Outside the quantum regime the bound extends flat: 0 below the
    classical value, 1 above the quantum optimum; NaN raises.
    """
    if math.isnan(omega):
        raise ValueError("omega must not be NaN")
    if omega <= OMEGA_CLASSICAL:
        return 0.0
    if omega > OMEGA_QUANTUM + _CLAMP:
        return 1.0
    return _bound_and_slope(min(omega, OMEGA_QUANTUM))[0]


def _bound_and_slope(omega, xp=math):
    """(secrecy_bound, d/dw secrecy_bound) with no guards, from one root, in
    the namespace ``xp``: finite on the open quantum regime, where
    1/2 < u < 1; with numpy, entries outside it come out nan or infinite."""
    root = xp.sqrt(16.0 * omega * (omega - 1.0) + 3.0)
    u = 0.5 + 0.5 * root
    # dh/du = log2((1-u)/u); du/dw = 4(2w-1)/root
    slope = xp.log2(u / (1.0 - u)) * 4.0 * (2.0 * omega - 1.0) / root
    return 1.0 - (-u * xp.log2(u) - (1.0 - u) * xp.log2(1.0 - u)), slope


def bell_diag_bound(omega: float) -> float:
    """Upper bound 2 h(1/2 - (2w-1)/sqrt(2)) - 1 on H(Q_A|Q_B) of any
    Bell-diagonal two-qubit state with CHSH winning probability w."""
    if not OMEGA_CLASSICAL - _CLAMP <= omega <= OMEGA_QUANTUM + _CLAMP:
        raise ValueError(f"omega {omega} outside the quantum CHSH regime")
    omega = min(max(omega, OMEGA_CLASSICAL), OMEGA_QUANTUM)
    arg = 0.5 - (2.0 * omega - 1.0) / math.sqrt(2.0)
    return 2.0 * binary_entropy(arg) - 1.0
