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
place of n rounds.  The key length's one-round blocks use the per-round
functions.  The terms that keyrates' numpy grid kernel shares with the
scalar path (the penalty K, the max-entropy bound, the round count tail)
take the namespace ``xp``: math for scalars, numpy for arrays.
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


def _penalty_scale(eps_s, eps_e, count, xp=math):
    """K = (2/sqrt(count)) sqrt(1 - 2 log2(eps_s eps_e)), the factor of
    (log2 d_O + slope) in the second-order term, in the namespace ``xp``."""
    return (2.0 / xp.sqrt(count)) * xp.sqrt(
        1.0 - 2.0 * xp.log2(eps_s * eps_e))


def mu(p1: float, spec: TradeoffSpec, eps: EatEpsilons, n: float) -> float:
    """Finite-size entropy rate:
    f_min(p1) - (2/sqrt(n)) (log2(13) + slope(cut)) sqrt(1 - 2 log2(es*ee))."""
    if n <= 0:
        raise ValueError("n must be positive")
    slope = g_slope(spec.p_cut1, spec.gamma)
    return f_min(p1, spec) - _penalty_scale(eps.eps_s, eps.eps_e, n) * (
        LOG2_13 + slope)


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
    return min(max(p1 - _penalty_scale(eps.eps_s, eps.eps_e, count), lo),
               hi)


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


def max_entropy_upper(n, gamma, eps_s, eps_e, xp=math):
    """gamma n + sqrt(n) 2 log2(7) sqrt(1 - 2 log2(eps_s eps_e)) in the
    namespace ``xp``: upper bound on the smooth max-entropy of Bob's test
    outputs over n rounds, with the key length's smoothing
    eps_s/4 - sqrt(eps_t) and eps_e = eps_ea + eps_ec."""
    return gamma * n + xp.sqrt(n) * 2.0 * LOG2_7 * xp.sqrt(
        1.0 - 2.0 * xp.log2(eps_s * eps_e))


# ---------------------------------------------------------------------------
# block variant


def default_s_max(gamma: float) -> int:
    """s_max = ceil(1/gamma), the block length cap that the rate optimizer
    and the CLI pick: about the mean spacing of test rounds.  The ceiling is
    guarded against float noise (1/0.1 = 10.000000000000002)."""
    return max(int(math.ceil(1.0 / gamma - 1e-9)), 1)


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
    penalty = _penalty_scale(eps.eps_s, eps.eps_e, m_blocks)
    return f_min_block(p1_tilde, block, cut) - penalty * (
        _log2_block_dim(block.s_max) + slope)


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
    return _tail(m_blocks, gamma, eps_t)


def _tail(m_blocks, gamma, eps_t, xp=math):
    """round_count_tail without its checks, in the namespace ``xp``."""
    return xp.sqrt(-m_blocks * (1.0 - gamma) ** 2 * xp.log(eps_t)
                   / (2.0 * gamma * gamma))


def hoeffding(n: float, deviation: float) -> float:
    """exp(-2 n deviation^2): Hoeffding's bound on the probability that the
    mean of n trials in [0, 1] exceeds its expectation by ``deviation``."""
    return math.exp(-2.0 * n * deviation**2)
