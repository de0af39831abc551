r"""Min-tradeoff functions and finite-size entropy rates.

The per-round min-tradeoff function is the CHSH secrecy bound g, expressed
in the test-statistic variable p(1) (probability of a winning test round),
"cut and glued" to its tangent above a cut point c so that its slope stays
bounded (Arnon-Friedman, Renner, Vidick).  The accumulated-entropy rate of
the entropy accumulation theorem (Dupuis, Fawzi, Renner) at statistic p1 is

    mu(c) = g(c) + g'(c) (p1 - c) - K (log2 d_O + g'(c)),
    K = (2/sqrt(n)) sqrt(1 - 2 log2(eps_s eps_e))

for a cut c below p1.  Its derivative is dmu/dc = g''(c) (p1 - c - K): the
dimension term log2 d_O does not depend on c, and g is strictly convex, so
mu rises up to c = p1 - K and falls after it (for c >= p1 the glued
function is g(p1) and only the penalty, falling at rate K g''(c), moves).
mu_opt's best cut is therefore c* = clamp(p1 - K) to the cut interval,
with no numerical search.

The block variant groups rounds into blocks that end at the first test
round or after s_max rounds, which improves how the penalty scales with the
test probability gamma.  Its per-block function s_bar g(c / mass) is convex
in the same way, so mu_block_opt uses the same closed form with m blocks in
place of n rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .entropy import OMEGA_CLASSICAL, OMEGA_QUANTUM, secrecy_bound, secrecy_bound_slope

# per-round output dimension |AB| with B in {0,1,bot}: log2(1 + 2*6)
LOG2_13 = math.log2(13.0)
# output dimension of B alone, {0,1,bot}: log2(1 + 2*3)
LOG2_7 = math.log2(7.0)

CUT_EDGE_SHRINK = 1e-9


@dataclass(frozen=True)
class TradeoffSpec:
    """Test probability and cut point (as a value of p(1))."""

    gamma: float
    p_cut1: float

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0,1]")
        ratio = self.p_cut1 / self.gamma
        if not OMEGA_CLASSICAL < ratio < OMEGA_QUANTUM:
            raise ValueError("p_cut1/gamma must lie strictly inside the "
                             "quantum CHSH regime")


@dataclass(frozen=True)
class EatEpsilons:
    """Smoothing and event-probability epsilons of the accumulation bound."""

    eps_s: float
    eps_e: float

    def __post_init__(self):
        if not (0 < self.eps_s < 1 and 0 < self.eps_e < 1):
            raise ValueError("epsilons must be in (0,1)")


@dataclass(frozen=True)
class BlockSpec:
    """Test probability and maximal block length."""

    gamma: float
    s_max: int

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0,1]")
        if self.s_max < 1:
            raise ValueError("s_max must be >= 1")

    @property
    def test_mass(self) -> float:
        """1 - (1-gamma)^s_max: probability that a block contains a test."""
        return 1.0 - (1.0 - self.gamma) ** self.s_max


def g(p1: float, gamma: float) -> float:
    """Secrecy bound in the test statistic: secrecy_bound(p1/gamma), flat 1
    above the quantum optimum."""
    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0,1]")
    ratio = p1 / gamma
    if ratio < OMEGA_CLASSICAL - 1e-12 or ratio > 1.0 + 1e-12:
        raise ValueError(f"p1/gamma = {ratio} outside [3/4, 1]")
    return secrecy_bound(ratio)


def g_slope(p_cut1: float, gamma: float) -> float:
    """d g / d p(1) at the cut; infinite at the upper edge, hence rejected
    there."""
    ratio = p_cut1 / gamma
    if not OMEGA_CLASSICAL < ratio < OMEGA_QUANTUM:
        raise ValueError("cut must lie strictly inside the quantum regime")
    return secrecy_bound_slope(ratio) / gamma


def f_min(p1: float, spec: TradeoffSpec) -> float:
    """The glued min-tradeoff function: g below the cut, its tangent above."""
    ratio = p1 / spec.gamma
    if ratio < OMEGA_CLASSICAL - 1e-12 or ratio > 1.0 + 1e-12:
        raise ValueError(f"p1/gamma = {ratio} outside [3/4, 1]")
    if p1 <= spec.p_cut1:
        return g(p1, spec.gamma)
    a = g_slope(spec.p_cut1, spec.gamma)
    b = g(spec.p_cut1, spec.gamma) - a * spec.p_cut1
    return a * p1 + b


def _penalty_scale(eps: EatEpsilons, n: float) -> float:
    """K = (2/sqrt(n)) sqrt(1 - 2 log2(eps_s eps_e)), the factor of
    (log2 d_O + slope) in the second-order term."""
    return (2.0 / math.sqrt(n)) * math.sqrt(
        1.0 - 2.0 * math.log2(eps.eps_s * eps.eps_e))


def _second_order(slope: float, eps: EatEpsilons, n: float,
                  log2_do: float = LOG2_13) -> float:
    return _penalty_scale(eps, n) * (log2_do + slope)


def mu(p1: float, spec: TradeoffSpec, eps: EatEpsilons, n: float) -> float:
    """Finite-size entropy rate:
    f_min(p1) - (2/sqrt(n)) (log2(13) + slope(cut)) sqrt(1 - 2 log2(es*ee))."""
    if n <= 0:
        raise ValueError("n must be positive")
    slope = g_slope(spec.p_cut1, spec.gamma)
    return f_min(p1, spec) - _second_order(slope, eps, n)


def cut_interval(gamma: float) -> tuple:
    """Open cut interval, shrunk away from the infinite-slope upper edge."""
    lo = gamma * OMEGA_CLASSICAL + CUT_EDGE_SHRINK * gamma
    hi = gamma * OMEGA_QUANTUM - CUT_EDGE_SHRINK * gamma
    return lo, hi


def _optimal_cut(p1: float, eps: EatEpsilons, count: float,
                 scale: float) -> float:
    """c* = clamp(p1 - K, cut_interval(scale)), the maximizer of the cut
    objective: its derivative g''(c) (p1 - c - K) has the sign of
    p1 - K - c because g is strictly convex."""
    if count <= 0:
        raise ValueError("round or block count must be positive")
    lo, hi = cut_interval(scale)
    if lo >= hi:
        raise ValueError("empty cut interval")
    return min(max(p1 - _penalty_scale(eps, count), lo), hi)


def mu_opt(omega_exp: float, delta_est: float, gamma: float, n: float,
           eps: EatEpsilons) -> tuple:
    """Maximize mu at p1 = omega_exp*gamma - delta_est over the cut point.

    Returns (value, best_cut) with best_cut = clamp(p1 - K) to
    cut_interval(gamma), K = (2/sqrt(n)) sqrt(1 - 2 log2(eps_s eps_e)):
    dmu/dc = g''(c) (p1 - c - K), and the dimension term log2(13) is
    constant in c.
    """
    p1 = omega_exp * gamma - delta_est
    ratio = p1 / gamma
    if not OMEGA_CLASSICAL <= ratio <= 1.0:
        raise ValueError("omega_exp*gamma - delta_est outside the domain")
    cut = _optimal_cut(p1, eps, n, gamma)
    return mu(p1, TradeoffSpec(gamma, cut), eps, n), cut


def entropy_lower_bound(n: float, mu_opt_value: float) -> float:
    """Total accumulated smooth min-entropy: n * mu_opt."""
    return n * mu_opt_value


def max_entropy_upper(n: float, gamma: float, eps_s: float, eps_ea: float,
                      eps_ec: float) -> float:
    """gamma*n + sqrt(n) * 2 log2(7) * sqrt(1 - 2 log2((eps_s/4)(eps_ea+eps_ec)))

    Upper bound on the smooth max-entropy of Bob's test outputs, used when
    converting accumulated entropy into key length.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return gamma * n + math.sqrt(n) * 2.0 * LOG2_7 * math.sqrt(
        1.0 - 2.0 * math.log2((eps_s / 4.0) * (eps_ea + eps_ec)))


# ---------------------------------------------------------------------------
# block variant


def expected_block_length(block: BlockSpec) -> float:
    """s_bar = (1 - (1-gamma)^s_max) / gamma."""
    return block.test_mass / block.gamma


@lru_cache(maxsize=None)
def _log2_block_dim(s_max: int) -> float:
    """log2(1 + 2 * 2^s_max * 3^s_max), computed exactly for large s_max."""
    return math.log2(1 + 2 * (2**s_max) * (3**s_max))


def f_min_block(p1_tilde: float, block: BlockSpec, cut: float) -> float:
    """Per-block min-tradeoff function: s_bar times the per-round bound in
    the normalized statistic p~(1) / (1 - (1-gamma)^s_max), glued at ``cut``
    (also on the p~(1) scale)."""
    mass = block.test_mass
    ratio = p1_tilde / mass
    if ratio < OMEGA_CLASSICAL - 1e-12 or ratio > 1.0 + 1e-12:
        raise ValueError(f"normalized statistic {ratio} outside [3/4, 1]")
    cut_ratio = cut / mass
    if not OMEGA_CLASSICAL < cut_ratio < OMEGA_QUANTUM:
        raise ValueError("cut outside the open quantum regime")
    sbar = expected_block_length(block)
    if p1_tilde <= cut:
        return sbar * secrecy_bound(ratio)
    slope = sbar * secrecy_bound_slope(cut_ratio) / mass
    value_at_cut = sbar * secrecy_bound(cut_ratio)
    return value_at_cut + slope * (p1_tilde - cut)


def f_min_block_slope(block: BlockSpec, cut: float) -> float:
    """Max gradient of the glued per-block function: its slope at the cut."""
    mass = block.test_mass
    sbar = expected_block_length(block)
    return sbar * secrecy_bound_slope(cut / mass) / mass


def mu_block(p1_tilde: float, block: BlockSpec, cut: float,
             eps: EatEpsilons, m_blocks: float) -> float:
    """Per-block entropy rate with dimension term log2(1 + 2*2^s*3^s)."""
    if m_blocks <= 0:
        raise ValueError("m_blocks must be positive")
    slope = f_min_block_slope(block, cut)
    return f_min_block(p1_tilde, block, cut) - _second_order(
        slope, eps, m_blocks, log2_do=_log2_block_dim(block.s_max))


def mu_block_opt(omega_exp: float, delta_est: float, block: BlockSpec,
                 m_blocks: float, eps: EatEpsilons) -> tuple:
    """Maximize mu_block at p~1 = omega_exp * test_mass - delta_est over the
    cut.  Returns (value, best_cut) with the cut on the p~(1) scale:
    best_cut = clamp(p~1 - K) to cut_interval(test_mass), K as in mu_opt
    with m_blocks in place of n; the dimension term log2(1 + 2*6^s_max) is
    constant in the cut and drops out."""
    mass = block.test_mass
    p1 = omega_exp * mass - delta_est
    ratio = p1 / mass
    if not OMEGA_CLASSICAL <= ratio <= 1.0:
        raise ValueError("test statistic outside the domain")
    cut = _optimal_cut(p1, eps, m_blocks, mass)
    return mu_block(p1, block, cut, eps, m_blocks), cut


def round_count_tail(m_blocks: float, gamma: float, eps_t: float) -> float:
    """Deviation t with Pr[N >= m*s_bar + t] <= eps_t for the total round
    count N of m blocks: t = sqrt(-m (1-gamma)^2 ln(eps_t) / (2 gamma^2))."""
    if not 0 < eps_t < 1:
        raise ValueError("eps_t must be in (0,1)")
    if gamma >= 1.0:
        return 0.0
    return math.sqrt(-m_blocks * (1.0 - gamma) ** 2 * math.log(eps_t)
                     / (2.0 * gamma * gamma))
