r"""Min-tradeoff functions and finite-size entropy rates.

The protocol groups rounds into blocks that end at their first test round
or after s_max rounds (Arnon-Friedman, Renner, Vidick); the per-round
protocol is the case of one-round blocks, s_max = 1.  A block holds a test
with probability mass = 1 - (1-gamma)^s_max (gamma itself at s_max = 1) and
has expected length s_bar = mass / gamma.  The per-block min-tradeoff
function is s_bar times the CHSH secrecy bound g in the normalized
statistic p~(1) / mass, p~(1) being the probability that a block ends in a
won test, "cut and glued" to its tangent above a cut point c so that its
slope stays bounded:

    f(p~1) = s_bar g(p~1 / mass) up to c,   f(c) + f'(c) (p~1 - c) above.

The accumulated-entropy rate of the entropy accumulation theorem (Dupuis,
Fawzi, Renner) over m blocks at statistic p~1 is

    mu(c) = f(p~1) - K (log2 d_O + f'(c)),
    K = (2/sqrt(m)) sqrt(1 - 2 log2(eps_s eps_e)),

with d_O = 1 + 2 * 2^s_max * 3^s_max outputs per block (13 for one round).
For a cut c below p~1 its derivative is dmu/dc = f''(c) (p~1 - c - K): the
dimension term does not depend on c, and f is strictly convex, so mu rises
up to c = p~1 - K and falls after it (for c >= p~1 the glued function is
f(p~1) and only the penalty, falling at rate K f''(c), moves).
mu_block_opt's best cut is therefore c* = clamp(p~1 - K) to the cut
interval, with no numerical search.  The per-round names (TradeoffSpec,
f_min, mu_opt) are these functions at s_max = 1, with m = n rounds.

The public functions check their inputs and call private bodies, which
keyrates calls on its own checked floats: _mu_block_opt, the one text of
the best-cut rate (of mu_block_opt and mu_opt), and _tail and _hoeffding
(of round_count_tail and hoeffding); the cut interval _cut_bounds has no
public form.  One body each holds the statistic p~1 = omega_exp mass -
delta_est (_statistic) and the domains of gamma (_check_block), delta_est
and the QBER (_check_delta_est, _check_qber).  The terms that its numpy
grid kernel shares with the scalar path (the statistic, the tail rule
_has_tail, the test mass, the cut interval, log2 d_O, the penalty K, the
glued function's tangent at the cut with its slope (_tangent: g, g' from
one root), the rate mu (_rate), the max-entropy bound and its smoothing
root, the round count tail, the Hoeffding bound) take the namespace ``xp``
or are plain arithmetic; _tradeoff keeps g itself below the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropy import (OMEGA_CLASSICAL, OMEGA_QUANTUM, _bound_and_slope,
                      secrecy_bound)

# output dimension of B alone, {0,1,bot}: log2(1 + 2*3)
LOG2_7 = math.log2(7.0)
LOG2_6 = math.log2(6.0)

CUT_EDGE_SHRINK = 1e-9


@dataclass(frozen=True)
class TradeoffSpec:
    """Test probability and cut point (as a value of p(1)) of the per-round
    min-tradeoff function."""

    gamma: float
    p_cut1: float

    def __post_init__(self):
        _check_block(self.gamma, 1)
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
        _check_epsilons(self.eps_s, self.eps_e)


def _check_epsilons(eps_s, eps_e):
    """EatEpsilons' check, on the two floats."""
    if not (0 < eps_s < 1 and 0 < eps_e < 1):
        raise ValueError("epsilons must be in (0,1)")


@dataclass(frozen=True)
class BlockSpec:
    """Test probability and maximal block length."""

    gamma: float
    s_max: int

    def __post_init__(self):
        _check_block(self.gamma, self.s_max)

    @property
    def test_mass(self) -> float:
        """1 - (1-gamma)^s_max: probability that a block contains a test."""
        return _block_mass(self.gamma, self.s_max)


def _check_block(gamma, s_max):
    """BlockSpec's check, on gamma (no bool) and an int (no float or bool)
    s_max; a block whose test mass 1 - (1-gamma)^s_max rounds to 0 (1 -
    gamma rounds to 1: gamma <= 2^-54) is refused."""
    if isinstance(gamma, bool) or not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0,1]")
    if isinstance(s_max, bool) or not hasattr(s_max, "__index__"):
        raise ValueError(f"s_max must be an integer, not {s_max!r}")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    if s_max > 1 and 1.0 - gamma == 1.0:
        raise ValueError("gamma too small: the test mass 1 - (1-gamma)^s_max "
                         "rounds to 0")


def _check_delta_est(delta_est):
    """The estimation width's domain, (0,1); NaN and bool fail."""
    if not 0 < delta_est < 1:
        raise ValueError("delta_est must be in (0,1)")


def _check_qber(q):
    """The QBER's domain, [0, 1/2]; NaN and bool fail."""
    if isinstance(q, bool) or not 0 <= q <= 0.5:
        raise ValueError("q must be in [0, 1/2]")


def _statistic(omega_exp, mass, delta_est):
    """p~1 = omega_exp mass - delta_est, the bound's and the abort rule's."""
    return omega_exp * mass - delta_est


def _block_mass(gamma, s_max):
    """1 - (1-gamma)^s_max, exactly gamma where every block is one round
    (no _has_tail), where the formula would round."""
    return _test_mass(gamma, s_max) if _has_tail(gamma, s_max) else gamma


def _has_tail(gamma, s_max):
    """Whether the round count has a tail: some block can hold more than one
    round (s_max > 1 and gamma < 1); elementwise on arrays too."""
    return (s_max > 1) & (gamma < 1)


def _test_mass(gamma, s_max):
    """1 - (1-gamma)^s_max, elementwise on arrays too."""
    return 1.0 - (1.0 - gamma) ** s_max


def _penalty_scale(eps_s, eps_e, count, xp=math):
    """K = (2/sqrt(count)) sqrt(1 - 2 log2(eps_s eps_e)), the factor of
    (log2 d_O + slope) in the second-order term, in the namespace ``xp``;
    its root is the max-entropy bound's smoothing root."""
    return (2.0 / xp.sqrt(count)) * _smoothing_root(eps_s, eps_e, xp)


def _cut_bounds(mass):
    """Open cut interval on the p~(1) scale of blocks with test mass
    ``mass`` in (0, 1], shrunk away from the infinite-slope upper edge;
    unchecked, elementwise on arrays too."""
    return (mass * OMEGA_CLASSICAL + CUT_EDGE_SHRINK * mass,
            mass * OMEGA_QUANTUM - CUT_EDGE_SHRINK * mass)


def _smoothing_root(eps_s, eps_e, xp=math):
    """sqrt(1 - 2 log2(eps_s eps_e)), the max-entropy bound's smoothing
    root, in the namespace ``xp``."""
    return xp.sqrt(1.0 - 2.0 * xp.log2(eps_s * eps_e))


def _max_entropy(n, gamma, root, xp=math):
    """gamma n + sqrt(n) 2 log2(7) root in the namespace ``xp``: upper bound
    on the smooth max-entropy of Bob's test outputs over n rounds, root
    being the smoothing root of the key length's smoothing and eps_e."""
    return gamma * n + xp.sqrt(n) * 2.0 * LOG2_7 * root


def default_s_max(gamma: float) -> int:
    """s_max = ceil(1/gamma), about the mean spacing of test rounds: the
    CLI's default block length cap and the seed of the rate optimizer's
    s_max axis on its coarse grid.  The ceiling is guarded against float
    noise (1/0.1 = 10.000000000000002)."""
    _check_block(gamma, 1)
    return math.ceil(1.0 / gamma - 1e-9)


def expected_block_length(block: BlockSpec) -> float:
    """s_bar = (1 - (1-gamma)^s_max) / gamma."""
    return block.test_mass / block.gamma


def _log2_block_dim(s_max, xp=math):
    """log2(1 + 2 * 6^s_max) = s_max log2(6) + log2(2 + 6^-s_max), in the
    namespace ``xp``: finite for every s_max, within an ulp of the value
    of the exact integer."""
    return s_max * LOG2_6 + xp.log2(2.0 + 6.0**-s_max)


def _tradeoff(p1_tilde: float, gamma: float, s_max: int, mass: float,
              cut: float, k_pen: float) -> tuple:
    """(f(p~1), f'(c), f(p~1) - k_pen (log2 d_O + f'(c))) of the glued
    function of blocks with test probability gamma, length cap s_max and
    test mass ``mass``, at cut c and penalty factor k_pen: the one text of
    the glued function, its slope and its entropy rate on floats that its
    callers check: _tangent above the cut, the bound g at or below it."""
    sbar = mass / gamma
    value, slope = _tangent(p1_tilde, sbar, mass, cut, math)
    if p1_tilde <= cut:
        value = sbar * secrecy_bound(p1_tilde / mass)
    return value, slope, _rate(value, slope, s_max, k_pen, math)


def _rate(value, slope, s_max, k_pen, xp):
    """f(p~1) - k_pen (log2 d_O + f'(c)) in the namespace ``xp``: the EAT
    rate of the glued function's value and slope at its cut."""
    return value - k_pen * (_log2_block_dim(s_max, xp) + slope)


def _tangent(p1_tilde, sbar, mass, cut, xp):
    """(f(c) + f'(c) (p~1 - c), f'(c)) in the namespace ``xp``, f = s_bar
    g(p~1 / mass): the tangent at the cut, unguarded (c / mass in the open
    regime)."""
    at_cut, dg = _bound_and_slope(cut / mass, xp)
    slope = sbar * dg / mass
    return sbar * at_cut + slope * (p1_tilde - cut), slope


def f_min_block(p1_tilde: float, block: BlockSpec, cut: float) -> float:
    """Per-block min-tradeoff function: s_bar times the per-round bound in
    the normalized statistic p~(1) / (1 - (1-gamma)^s_max), glued at ``cut``
    (also on the p~(1) scale)."""
    mass = block.test_mass
    ratio = p1_tilde / mass
    if not OMEGA_CLASSICAL - 1e-12 <= ratio <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError(f"normalized statistic {ratio} outside [3/4, 1]")
    if not OMEGA_CLASSICAL < cut / mass < OMEGA_QUANTUM:
        raise ValueError("cut outside the open quantum regime")
    return _tradeoff(p1_tilde, block.gamma, block.s_max, mass, cut, 0.0)[0]


def mu_block_opt(omega_exp: float, delta_est: float, block: BlockSpec,
                 m_blocks: float, eps: EatEpsilons) -> tuple:
    """Maximize the rate mu(c) at p~1 = omega_exp * test_mass - delta_est
    over the cut c.  Returns (value, best_cut), the cut on the p~(1) scale:
    best_cut = clamp(p~1 - K) to _cut_bounds(test_mass), the maximizer of
    the rate, whose derivative f''(c) (p~1 - c - K) has the sign of
    p~1 - K - c because f is strictly convex."""
    return _mu_block_opt(omega_exp, delta_est, block.gamma, block.s_max,
                         block.test_mass, m_blocks, eps.eps_s, eps.eps_e)


def _mu_block_opt(omega_exp, delta_est, gamma, s_max, mass, count, eps_s,
                  eps_e) -> tuple:
    """mu_block_opt on floats, with mass = _block_mass(gamma, s_max) and
    the epsilons and block already checked: the one text of the best-cut
    rate, which mu_block_opt, mu_opt and keyrates' key length call."""
    p1 = _statistic(omega_exp, mass, delta_est)
    if not OMEGA_CLASSICAL <= p1 / mass <= 1.0:
        raise ValueError("test statistic outside the domain")
    if count <= 0:
        raise ValueError("round or block count must be positive")
    if not count < math.inf:
        raise ValueError("round or block count must be finite")
    lo, hi = _cut_bounds(mass)
    if lo >= hi:
        raise ValueError("empty cut interval")
    k_pen = _penalty_scale(eps_s, eps_e, count)
    cut = min(max(p1 - k_pen, lo), hi)
    if not OMEGA_CLASSICAL < cut / mass < OMEGA_QUANTUM:  # subnormal mass
        raise ValueError("cut outside the open quantum regime")
    return _tradeoff(p1, gamma, s_max, mass, cut, k_pen)[2], cut


def f_min(p1: float, spec: TradeoffSpec) -> float:
    """The per-round glued min-tradeoff function: f_min_block with one-round
    blocks."""
    return f_min_block(p1, BlockSpec(spec.gamma, 1), spec.p_cut1)


def mu_opt(omega_exp: float, delta_est: float, gamma: float, n: float,
           eps: EatEpsilons) -> tuple:
    """The per-round entropy rate at p1 = omega_exp*gamma - delta_est,
    maximized over the cut: mu_block_opt with one-round blocks, m = n.
    Returns (value, best_cut)."""
    _check_block(gamma, 1)
    return _mu_block_opt(omega_exp, delta_est, gamma, 1, _block_mass(gamma, 1),
                         n, eps.eps_s, eps.eps_e)


def round_count_tail(m_blocks: float, gamma: float, s_max: int,
                     eps_t: float) -> float:
    """Deviation t with Pr[N >= m*s_bar + t] <= eps_t for the total round
    count N of m independent blocks, each of 1 to s_max rounds: Hoeffding
    over that range, t = (s_max - 1) sqrt(-m ln(eps_t) / 2).  t = 0 when
    every block is one round (no _has_tail: s_max = 1 or gamma = 1)."""
    if not 0 < eps_t < 1:
        raise ValueError("eps_t must be in (0,1)")
    if not 0 < m_blocks < math.inf:  # NaN fails too
        raise ValueError("m_blocks must be positive and finite")
    _check_block(gamma, s_max)
    return _tail(m_blocks, s_max, eps_t) if _has_tail(gamma, s_max) else 0.0


def _tail(m_blocks, s_max, eps_t, xp=math):
    """round_count_tail without its checks, in the namespace ``xp``."""
    return (s_max - 1.0) * xp.sqrt(-m_blocks * xp.log(eps_t) / 2.0)


def hoeffding(n, deviation):
    """exp(-2 n deviation^2), Hoeffding's bound on the probability that the
    mean of n >= 0 trials in [0, 1] exceeds its expectation by deviation."""
    if not 0 <= n < math.inf:  # NaN fails too
        raise ValueError("n must be in [0, inf)")
    if not abs(deviation) < math.inf:
        raise ValueError("deviation must be finite")
    return _hoeffding(n, deviation, math)


def _hoeffding(n, deviation, xp):
    """hoeffding without its checks, in the namespace ``xp``."""
    return xp.exp(-2.0 * n * deviation**2)
