r"""Finite-size device-independent QKD key length and rate curves.

The extractable key length is the accumulated-entropy lower bound less
four costs, each reported as a non-negative number and subtracted.  Over
m blocks of at most s_max rounds (each ends at its first test round), n
expected rounds and n' = n + t effective ones:

    l = m * mu_block_opt(eps_s/4, eps_ea + eps_ec)
        - leak(n', eps_t)
        - (-3 log2(1 - sqrt(1 - (eps_s/4)^2)))
        - (gamma n' + sqrt(n') 2 log2(7) sqrt(1 - 2 log2(eps_s' eps_e)))
        - 2 log2(1/eps_pa),

with eps_e = eps_ea + eps_ec, t the tail of the random round count at
error eps_t and eps_s' = eps_s/4 - sqrt(eps_t).  Each term's source and
the direction of its inequality, in report order:

- entropy_term: the entropy accumulation theorem (Dupuis, Fawzi, Renner)
  over the blocks of Arnon-Friedman, Renner and Vidick, a lower bound on
  the smooth min-entropy H_min^{eps_s/4}(AB|E) of the outputs given Eve;
- leak_ec: the error-correction leakage, an upper bound on the bits that
  error correction publishes (h(Q) per key round, h(omega_exp) per test
  round and second-order terms at eps_ec_prime and eps_ec);
- log_correction: the chain rule of Vitanov, Dupuis, Tomamichel and
  Renner, H_min^{eps_s}(A|BE) >= H_min^{eps_s/4}(AB|E) -
  H_max^{eps_s/4}(B|E) - log_correction, whose correction lowers the
  bound: a cost;
- max_entropy_term: an upper bound on that H_max(B|E), of Bob's test
  outputs, which the chain rule subtracts;
- pa_term: the leftover hash lemma's cost of privacy amplification.

The round count has a tail only if a block can hold more than one round,
s_max > 1 and gamma < 1 (eat._has_tail, the one text of that rule);
without one eps_t = 0 in every term.  The per-round protocol is the case
of one-round blocks, s_max = 1 (m = n): key_length and key_length_block
are one body, and the grid kernel scores every (gamma, s_max) row with
the same formulas.  The inputs are checked once, where they enter (by
eat's domain checks); from there the key length is computed on floats,
its entropy term by eat's float body of mu_block_opt, the budget's own
terms first (the log correction takes log2(0) for eps_s below about
4.2e-8, so such a budget raises before the cut search).

optimize_rate runs a coarse (gamma, delta_est) grid, an epsilon split grid
and one zoom that also searches s_max, in boxes set by the caps and the
rate; the mode sets only the s_max window, {1} per round.  Each stage and
zoom pass is one numpy call (_grid_key_lengths, the array form of
_eval_point), which also picks eps_t at each point among 14 candidates,
0 first (every point without a tail picks 0); a stage rescores the best
few values within 1e-9 relative of its top, best first, with scalar key
lengths, which alone produce the points chosen and the numbers reported.

Negative key lengths are reported as-is so that the zero crossings of rate
curves can be located; callers clamp for presentation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import eat
from .entropy import OMEGA_CLASSICAL, OMEGA_QUANTUM, binary_entropy

LOG2_2SQRT2_PLUS_1 = math.log2(2.0 * math.sqrt(2.0) + 1.0)

PER_ROUND = "per-round"
BLOCK = "block"


@dataclass(frozen=True)
class ProtocolParams:
    """Rounds (expected rounds in block mode), test probability, expected
    winning probability, estimation confidence width, and QBER."""

    n: float
    gamma: float
    omega_exp: float
    delta_est: float
    q: float

    def __post_init__(self):
        _check_n_q(self.n, self.q)
        eat._check_block(self.gamma, 1)
        eat._check_delta_est(self.delta_est)
        if not OMEGA_CLASSICAL <= self.omega_exp <= OMEGA_QUANTUM + 1e-12:
            raise ValueError("omega_exp must lie in the quantum CHSH regime")


def _check_n_q(n, q):
    """The checks ProtocolParams and RateTarget share, written so that NaN
    fails each: 1 <= n < inf and q in eat._check_qber's [0, 1/2]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not n < math.inf:
        raise ValueError("n must be finite")
    eat._check_qber(q)


@dataclass(frozen=True)
class EpsilonBudget:
    """Error terms of the protocol; eps_t only counts where there is a tail."""

    eps_ec: float
    eps_ec_complete: float
    eps_s: float
    eps_ea: float
    eps_pa: float
    eps_t: float = 0.0

    def __post_init__(self):
        for name in ("eps_ec", "eps_ec_complete", "eps_s", "eps_ea", "eps_pa"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must be in (0,1)")
        if self.eps_ec_complete <= self.eps_ec:
            raise ValueError("eps_ec_complete must exceed eps_ec")
        if not 0 <= self.eps_t < 1:  # NaN fails too
            raise ValueError("eps_t must be in [0,1)")

    @property
    def eps_ec_prime(self) -> float:
        return self.eps_ec_complete - self.eps_ec

    @property
    def soundness_error(self) -> float:
        return 2.0 * self.eps_ec + self.eps_pa + self.eps_s + self.eps_ea


class RateReport(NamedTuple):
    """Key length with its full term breakdown and the error accounting
    (read-only fields; ``extras`` holds the mode's further numbers)."""

    key_length: float
    rate: float
    entropy_term: float
    leak_ec: float
    log_correction: float
    max_entropy_term: float
    pa_term: float
    soundness_error: float
    completeness_error: float
    best_cut: float
    params: ProtocolParams
    budget: EpsilonBudget
    mode: str
    s_max: int
    extras: dict

    def breakdown_sum(self) -> float:
        return (self.entropy_term - self.leak_ec - self.log_correction
                - self.max_entropy_term - self.pa_term)

    def to_json_dict(self) -> dict:
        """The fields in order, but for ``extras``, with the parameters'
        fields in place of ``params`` (q as qber) and the budget's as eps."""
        out = {k: v for k, v in zip(self._fields, self)
               if k not in ("params", "budget", "extras")}
        p = self.params
        out.update(n=p.n, gamma=p.gamma, omega_exp=p.omega_exp,
                   delta_est=p.delta_est, qber=p.q, eps=asdict(self.budget))
        return out


def honest_werner(nu: float) -> tuple:
    """Expected winning probability and QBER of the depolarized singlet:
    omega = (2 + sqrt(2)(1-nu))/4, Q = nu/2."""
    if not 0 <= nu <= 1:
        raise ValueError("nu must be in [0,1]")
    return (2.0 + math.sqrt(2.0) * (1.0 - nu)) / 4.0, nu / 2.0


def _leak_rate(gamma, h_q, h_omega):
    """Per-round first-order leakage (1-gamma) h(Q) + gamma h(omega_exp),
    from h(Q) and h(omega_exp); elementwise on arrays too."""
    return (1.0 - gamma) * h_q + gamma * h_omega


def _eps_t_terms(n, gamma, t, rate, est, me_root, xp):
    """(first, scale, root, max_ent), in the namespace ``xp`` at the shapes
    of the inputs: the key length's terms that depend on eps_t, over n_eff
    = n + t rounds.  The leakage is first + scale * root + _leak_constants'
    two terms: first = n_eff rate, scale = sqrt(n_eff) 4 log2(2 sqrt(2) +
    1), root = sqrt(2 log2(8 / est^2)) at est = eps_ec_prime - 2
    sqrt(eps_t) > 0; max_ent is the max-entropy term at the smoothing root
    ``me_root``."""
    n_eff = n + t
    return (n_eff * rate, xp.sqrt(n_eff) * 4.0 * LOG2_2SQRT2_PLUS_1,
            xp.sqrt(2.0 * xp.log2(8.0 / est**2)),
            eat._max_entropy(n_eff, gamma, me_root, xp))


def _leak_constants(eps_ec_prime, eps_ec, xp=math):
    """(prime_term, ec_term) = (log2(8/eps_ec_prime^2 + 2/(2 -
    eps_ec_prime)), log2(1/eps_ec)): the leakage's eps_t-free terms."""
    return (xp.log2(8.0 / eps_ec_prime**2 + 2.0 / (2.0 - eps_ec_prime)),
            xp.log2(1.0 / eps_ec))


def completeness_error(params: ProtocolParams, budget: EpsilonBudget) -> float:
    """eps_ec_complete + eps_ec + exp(-2 n delta_est^2), with n the (expected)
    round count of the protocol."""
    return (budget.eps_ec_complete + budget.eps_ec
            + eat._hoeffding(params.n, params.delta_est, math))


def _log_correction(eps_s, xp=math):
    """-3 log2(1 - sqrt(1 - (eps_s/4)^2)) >= 0, the chain rule's cost;
    log2(0) below eps_s of about 4.2e-8, where math raises and numpy gives
    +inf."""
    return -3.0 * xp.log2(1.0 - xp.sqrt(1.0 - (eps_s / 4.0) ** 2))


def _pa_term(eps_pa, xp=math):
    return 2.0 * xp.log2(1.0 / eps_pa)


def key_length(params: ProtocolParams, budget: EpsilonBudget) -> RateReport:
    """Per-round-mode key length for a fixed round count n: the block
    computation with one-round blocks (s_max = 1), which have no tail
    (eps_t = 0, whatever ``budget.eps_t`` says)."""
    return RateReport(*_key_length(params, budget, 1)[0], PER_ROUND, 1, {})


def key_length_block(params: ProtocolParams, budget: EpsilonBudget,
                     s_max: int) -> RateReport:
    """Block-mode key length for an expected round count n_bar = params.n.

    Uses m = n_bar / s_bar blocks, the block entropy rate, and the round
    count tail t: n_bar + t effective rounds enter the leakage and
    max-entropy terms, whose smoothing parameters shift by sqrt(eps_t);
    without a tail (eat._has_tail) eps_t = 0, whatever the budget says."""
    fields, m, t, sbar = _key_length(params, budget, s_max)
    return RateReport(*fields, BLOCK, s_max,
                      {"m_blocks": m, "tail_t": t, "s_bar": sbar})


def _key_length(params: ProtocolParams, budget: EpsilonBudget,
                s_max: int) -> tuple:
    """(fields, m, t, s_bar), fields the RateReport's up to its mode: the
    checks, the budget's own terms, the entropy rate, then the terms of
    eps_t (t, the leakage, the max-entropy term), at 0 without a tail."""
    eps_s, eps_e = budget.eps_s / 4.0, budget.eps_ea + budget.eps_ec
    eat._check_epsilons(eps_s, eps_e)
    eat._check_block(params.gamma, s_max)
    log_corr, pa = _log_correction(budget.eps_s), _pa_term(budget.eps_pa)
    prime_term, ec_term = _leak_constants(budget.eps_ec_prime, budget.eps_ec)
    mass = eat._block_mass(params.gamma, s_max)
    sbar = mass / params.gamma
    m = params.n / sbar
    mu_value, cut = eat._mu_block_opt(params.omega_exp, params.delta_est,
                                      params.gamma, s_max, mass, m, eps_s,
                                      eps_e)
    entropy_term = m * mu_value
    leak_rate = _leak_rate(params.gamma, binary_entropy(params.q),
                           binary_entropy(params.omega_exp))
    tail = eat._has_tail(params.gamma, s_max)
    eps_t = budget.eps_t if tail else 0.0
    eps_s_shifted = eps_s - math.sqrt(eps_t)
    if not eps_s_shifted > 0:
        raise ValueError("eps_t too large: sqrt(eps_t) >= eps_s/4")
    t = eat.round_count_tail(m, params.gamma, s_max, eps_t) if tail else 0.0
    # the leakage's smoothing, shifted by 2 sqrt(eps_t)
    est = budget.eps_ec_prime - 2.0 * math.sqrt(eps_t)
    if est <= 0:
        raise ValueError("eps_t too large: eps_ec_prime - 2 sqrt(eps_t) <= 0")
    first, scale, root, max_ent = _eps_t_terms(
        params.n, params.gamma, t, leak_rate, est,
        eat._smoothing_root(eps_s_shifted, eps_e), math)
    leak = first + scale * root + prime_term + ec_term
    ell = entropy_term - leak - log_corr - max_ent - pa
    return ((ell, ell / params.n, entropy_term, leak, log_corr, max_ent, pa,
             budget.soundness_error, completeness_error(params, budget), cut,
             params, budget), m, t, sbar)


# ---------------------------------------------------------------------------
# optimization over the free protocol parameters


@dataclass(frozen=True)
class RateTarget:
    """What to reproduce: round count (expected, in block mode) and QBER."""

    n: float
    q: float

    def __post_init__(self):
        _check_n_q(self.n, self.q)


@dataclass(frozen=True)
class RateCaps:
    """Fixed error-term caps under which the rate is optimized."""

    soundness: float
    completeness: float
    eps_ec: float

    def __post_init__(self):
        if not self.eps_ec > 0:
            raise ValueError("eps_ec must be > 0")
        # written so that NaN fails each check: soundness spends 2 eps_ec,
        # and every budget has eps_ec_complete > eps_ec
        for name in ("soundness", "completeness"):
            if not getattr(self, name) > 2.0 * self.eps_ec:
                raise ValueError(f"{name} cap must exceed 2*eps_ec")
            if not getattr(self, name) < 1.0:
                raise ValueError(f"{name} cap must be below 1")


def _log_grid(lo: float, hi: float, per_decade: int) -> list:
    decades = math.log10(hi / lo)
    count = max(int(round(decades * per_decade)) + 1, 2)
    step = decades / (count - 1)
    return [lo * 10.0 ** (i * step) for i in range(count)]

GAMMA_GRID_PER_DECADE = 8
DELTA_GRID_PER_DECADE = 8
SPLIT_GRID_PER_DECADE = 3
EPS_T_CANDIDATE_DECADES = 14


def _eps_t_ladder() -> tuple:
    """The eps_t candidates of every point, as fractions of cap_t =
    (eps_s/4)^2: 0, which a point with a tail cannot take, then 10^-k."""
    return (0.0,) + tuple(10.0 ** (-k)
                          for k in range(1, EPS_T_CANDIDATE_DECADES))


def _split_soundness(caps: RateCaps, s_s, s_ea, s_pa) -> tuple:
    """(eps_s, eps_ea, eps_pa): the soundness budget S - 2 eps_ec divided in
    the proportions (s_s, s_ea, s_pa); elementwise on arrays too."""
    s_free = caps.soundness - 2.0 * caps.eps_ec
    w = s_s + s_ea + s_pa
    return s_free * s_s / w, s_free * s_ea / w, s_free * s_pa / w


def _ec_complete(caps: RateCaps, n, delta_est, xp):
    """The completeness slack C - eps_ec - exp(-2 n delta_est^2) left to
    eps_ec_complete after the estimation Hoeffding term, in the namespace
    ``xp``: below C, which RateCaps puts below 1."""
    return caps.completeness - caps.eps_ec - eat._hoeffding(n, delta_est, xp)


def _budget_for(caps: RateCaps, params: ProtocolParams, shares: tuple,
                eps_t_share: float) -> EpsilonBudget:
    """Assemble a budget meeting both caps, at eps_t = eps_t_share
    (eps_s/4)^2: the soundness split of positive ``shares`` and the
    completeness slack as eps_ec_complete (larger is better: it lowers the
    leakage).  Where no slack is left, delta_est at or below _delta_floor,
    EpsilonBudget raises its ValueError."""
    eps_s, eps_ea, eps_pa = _split_soundness(caps, *shares)
    eps_ec_complete = _ec_complete(caps, params.n, params.delta_est, math)
    return EpsilonBudget(eps_ec=caps.eps_ec, eps_ec_complete=eps_ec_complete,
                         eps_s=eps_s, eps_ea=eps_ea, eps_pa=eps_pa,
                         eps_t=(eps_s / 4.0) ** 2 * eps_t_share)


def _eval_point(target: RateTarget, caps: RateCaps, gamma: float,
                s_max: int, delta_est: float, shares: tuple,
                eps_t_index: int) -> RateReport | None:
    """The RateReport at (gamma, s_max, delta_est, shares), None if
    infeasible: key_length_block at s_max and the eps_t candidate the
    kernel picked, cap_t * _eps_t_ladder()[eps_t_index], cap_t =
    (eps_s/4)^2, whose index the report's ``extras`` record where the round
    count has a tail (``eps_t_index``; eat._has_tail)."""
    omega_exp, _ = honest_werner(2.0 * target.q)
    try:
        params = ProtocolParams(target.n, gamma, omega_exp, delta_est, target.q)
        budget = _budget_for(caps, params, shares,
                             _eps_t_ladder()[eps_t_index])
        report = key_length_block(params, budget, s_max)
    except ValueError:
        return None
    if eat._has_tail(gamma, s_max):
        report.extras["eps_t_index"] = eps_t_index
    return report


class _ShareAxis(NamedTuple):
    """The share axis of _grid_key_lengths: the terms that depend on the
    epsilon split and eps_t alone, computed once for every pass of a
    stage.  Shape (S,) per split; (E, 1, 1, S) per split and eps_t
    candidate, _eps_t_ladder's, eps_t = 0 first."""

    es4: np.ndarray
    eps_e: np.ndarray
    log_corr: np.ndarray
    pa: np.ndarray
    sqrt_t: np.ndarray
    eps_t: np.ndarray
    me_root: np.ndarray


def _share_axis(caps: RateCaps, shares) -> _ShareAxis:
    """_ShareAxis of the positive (eps_s, eps_ea, eps_pa) proportions
    ``shares``: _split_soundness, the log correction (log2(0) for eps_s
    below 4.2e-8), the PA term, the eps_t candidates of _eps_t_ladder and
    the max-entropy smoothing root at eps_s/4 - sqrt(eps_t)."""
    sh = np.array(shares, dtype=float).reshape(-1, 3)
    with np.errstate(all="ignore"):
        eps_s, eps_ea, eps_pa = _split_soundness(caps, *sh.T)
        es4, eps_e = eps_s / 4.0, eps_ea + caps.eps_ec
        eps_t = es4**2 * np.reshape(_eps_t_ladder(), (-1, 1, 1, 1))
        sqrt_t = np.sqrt(eps_t)
        return _ShareAxis(es4, eps_e, _log_correction(eps_s, np),
                          _pa_term(eps_pa, np), sqrt_t, eps_t,
                          eat._smoothing_root(es4 - sqrt_t, eps_e, np))


def _grid_key_lengths(target: RateTarget, caps: RateCaps, rows, deltas,
                      shares: _ShareAxis) -> tuple:
    """(values, paid): _eval_point's key length at every point of the
    outer product of the (gamma, s_max) ``rows``, ``deltas`` and the splits
    of ``shares`` (a _ShareAxis, computed once per stage) at its best eps_t
    candidate, shape (len(rows), len(deltas), S), -inf where _eval_point
    returns None; paid, the terms that depend on the candidate, one row per
    candidate (E, G, D, S): the first minimum of paid[:, i] is point i's
    eps_t_index.

    The contract covers optimize_rate's points: gammas in (0, 1], integer
    s_max >= 1, delta_est > 0 and positive shares.  Masked
    there: delta_est >= 1, no completeness slack, a statistic below 3/4
    and the log correction's log2(0).

    Every term is computed once, at the shape of its own inputs, from the
    scalar path's term functions called with xp = numpy.  With axes G =
    row, D = delta_est, S = split and E = eps_t candidate:

    - (G,): the block test mass, s_bar, m, log2 d_O, the cut interval and
      the leakage rate; (D,): eps_ec_prime and the leakage's two
      constants; (S,) and (E, S): _share_axis;
    - (G, D, S): the entropy term (eat._statistic, cut, penalty K,
      eat._tangent and its slope, eat._rate) less the log correction, the
      PA term and the leakage constants;
    - (E, G, 1, S): the tail t and _eps_t_terms' n_eff * leakage rate,
      max-entropy term and root factor sqrt(n_eff) 4 log2(2 sqrt(2) + 1);
    - (E, 1, D, S): the leakage root, +inf where eps_ec_prime - 2
      sqrt(eps_t) <= 0 (no key);
    - (E, G, D, S): one multiply-add, paid, then minimized over eps_t.

    Every row is scored on every candidate of _eps_t_ladder.  A row with a
    tail pays +inf at the first, eps_t = 0 (t = +inf, the Hoeffding tail's
    limit); one without (eat._has_tail) has t = 0 and pays least there, its
    first minimum, and a grid of such rows alone is scored there only.  No
    log or sqrt runs on more than the shapes above.  At or below the cut
    (p~1 within 1e-9 mass of 3/4) the kernel keeps the tangent, about
    1e-13 relative from the scalar path's exact bound.  With that, numpy's
    ulps and another summing order, the values agree with _eval_point
    within 1e-11 max(|l|, 1), not bit for bit: callers rescore the points
    they keep with _eval_point.
    """
    omega, _ = honest_werner(2.0 * target.q)
    n = target.n
    with np.errstate(all="ignore"):
        # (G, 1, 1): one (gamma, s_max) pair per row
        columns = np.array(list(zip(*rows)), dtype=float)
        gamma, s_max = columns[:, :, None, None]
        tail = eat._has_tail(gamma, s_max)
        mass = np.where(tail, eat._test_mass(gamma, s_max), gamma)
        sbar = mass / gamma
        m = n / sbar
        lo, hi = eat._cut_bounds(mass)
        leak_rate = _leak_rate(gamma, binary_entropy(target.q),
                               binary_entropy(omega))

        # (D, 1): one row per delta_est
        delta = np.array(deltas, dtype=float)[:, None]
        ecc = _ec_complete(caps, n, delta, np)
        delta_ok = (delta < 1) & (ecc > caps.eps_ec)
        prime = ecc - caps.eps_ec
        # (E, G, 1, S), (E, 1, D, S) and (D, 1): the eps_t terms, at
        # candidate 0 alone where no row has a tail.  A finite log
        # correction needs eps_s > 4.2e-8, so sqrt(eps_t) <= eps_s / (4
        # sqrt(10)): the eps_t guard cannot fire; est <= 0 can.
        k = None if tail.any() else 1
        t = np.where(tail, eat._tail(m, s_max, shares.eps_t[:k], np), 0.0)
        est = prime - 2.0 * shares.sqrt_t[:k]
        first, scale, root, max_ent = _eps_t_terms(
            n, gamma, t, leak_rate, est, shares.me_root[:k], np)
        root = np.where(est > 0, root, np.inf)
        prime_term, ec_term = _leak_constants(prime, caps.eps_ec, np)

        # (G, D, S): the eps_t-free terms
        p1 = eat._statistic(omega, mass, delta)
        k_pen = eat._penalty_scale(shares.es4, shares.eps_e, m, np)
        cut = np.minimum(np.maximum(p1 - k_pen, lo), hi)
        f_min, slope = eat._tangent(p1, sbar, mass, cut, np)
        fixed = (m * eat._rate(f_min, slope, s_max, k_pen, np)
                 - (shares.log_corr + shares.pa + prime_term + ec_term))

        # (E, G, 1, S), then (E, G, D, S), minimized over eps_t
        paid = scale * root + (first + max_ent)
        ok = (delta_ok & np.isfinite(shares.log_corr)
              & (p1 / mass >= OMEGA_CLASSICAL))
        return np.where(ok, fixed - paid.min(axis=0), -np.inf), paid


_DEFAULT_SHARES = (1.0, 1.0, 1.0)
SPLIT_EDGE_DECADES = 2
SPLIT_SCORED_DECADES = 8
ZOOM_REACH = 2.4**2
ZOOM_POINTS = 12
BAND = 1e-9
RESCORED = 3


def _band(values: np.ndarray) -> np.ndarray:
    """Flat indices, in grid order, of the values within BAND max(|top|, 1)
    of their largest, top: far wider than the kernel's error, so the band
    holds the scalar optimum and its members do not turn on rounding."""
    top = values.max()
    if not np.isfinite(top):
        return np.zeros(0, dtype=int)
    return np.flatnonzero(values >= top - BAND * max(abs(top), 1.0))


def _rescore(target, caps, grid, values, paid, best, stage, evals) -> tuple:
    """(report, i): ``best`` or the best of the RESCORED largest values of
    _band(values) (ties in grid order), values and paid as
    _grid_key_lengths returns them over ``grid`` = (rows, deltas, shares):
    point i (a flat index) scored by _eval_point at the eps_t candidate the
    kernel picked, the first minimum of paid[:, i], if it beats ``best``; i
    is None if none does."""
    rows, deltas, shares = grid
    index, picks = None, paid.reshape(len(paid), -1)
    band = _band(values)
    for i in band[np.argsort(-values.ravel()[band], kind="stable")][:RESCORED]:
        evals[stage + "_rescored"] += 1
        g, d, s = np.unravel_index(i, values.shape)
        point = _eval_point(target, caps, *rows[g], deltas[d], shares[s],
                            int(picks[:, i].argmin()))
        if point is not None and (best is None
                                  or point.key_length > best.key_length):
            best, index = point, i
    return best, index


def _split(target, caps, start: RateReport, evals: dict) -> tuple:
    """(report, shares): the best split (r, r, 1) of (eps_s, eps_ea,
    eps_pa) at ``start``'s point, r at SPLIT_GRID_PER_DECADE points per
    decade, with its report, or ``start``, a point at the equal split
    _DEFAULT_SHARES, with that split.  eps_s and eps_ea enter the key
    length as log2(eps_s eps_e) under square roots that grow with n, eps_pa
    only as 2 log2(1/eps_pa), so the optimum has eps_s = eps_ea and a small
    eps_pa.  One kernel call scores r within SPLIT_SCORED_DECADES decades
    of 1; while the outer SPLIT_EDGE_DECADES decades of either end hold a
    value above the best inside them by at least BAND max(|best|, 1), one
    more call scores twice the reach, so the axis ends where the rate is
    flat.  The band of the whole scored axis is rescored."""
    row, delta = (start.params.gamma, start.s_max), start.params.delta_est
    edge = SPLIT_EDGE_DECADES * SPLIT_GRID_PER_DECADE
    reach = SPLIT_SCORED_DECADES * SPLIT_GRID_PER_DECADE
    while True:
        shares = [(10.0 ** (k / SPLIT_GRID_PER_DECADE),) * 2 + (1.0,)
                  for k in range(-reach, reach + 1)]
        values, paid = _grid_key_lengths(target, caps, [row], [delta],
                                         _share_axis(caps, shares))
        evals["share_passes"] += 1
        evals["share_points"] += values.size
        inner = values[0, 0, edge:-edge].max()
        if not values.max() - inner >= BAND * max(abs(inner), 1.0):
            break
        reach *= 2
    point, i = _rescore(target, caps, ([row], [delta], shares), values, paid,
                        start, "share", evals)
    return point, _DEFAULT_SHARES if i is None else shares[i]


def _spread(lo: float, hi: float) -> list:
    """ZOOM_POINTS log-spaced points from lo < hi to hi, both ends
    exact."""
    step = (hi / lo) ** (1.0 / (ZOOM_POINTS - 1))
    return [lo] + [lo * step**i for i in range(1, ZOOM_POINTS - 1)] + [hi]


def _cells(grid: list, members) -> tuple:
    """The window from one cell below the first of ``members`` (an array
    of indices into ``grid``) to one cell above the last."""
    return (grid[max(members.min() - 1, 0)],
            grid[min(members.max() + 1, len(grid) - 1)])


def _zoom(target, caps, start: RateReport, shares: tuple, floor: float,
          s_cap: float, evals: dict) -> tuple:
    """(report, at_bound): the best key length over (gamma, s_max,
    delta_est) at the split ``shares``, start's, or ``start`` if none
    beats it.

    The box is a factor ZOOM_REACH either way of start's gamma (up to 1),
    s_max (integers from 1 to ``s_cap``) and delta_est (down to
    ``floor``).  A pass is one _grid_key_lengths call over the three
    windows, ZOOM_POINTS log-spaced points each, an s_max window of at
    most ZOOM_POINTS integers enumerated.  It shrinks each window to the
    cells around the pass's _band, down to 1e-5 in gamma and 1e-4 in log
    delta_est, an enumerated s_max window to the band's own values.  The
    pass where nothing shrinks is rescored.  ``at_bound``: the point's
    final windows touch an edge of the box other than gamma = 1, s_max = 1
    and delta_est = ``floor``.
    """
    gamma, s_max = start.params.gamma, start.s_max
    delta = start.params.delta_est
    gwin = (gamma / ZOOM_REACH, min(gamma * ZOOM_REACH, 1.0))
    swin = (max(math.floor(s_max / ZOOM_REACH), 1),
            min(math.ceil(s_max * ZOOM_REACH), s_cap))
    dwin = (max(delta / ZOOM_REACH, floor), delta * ZOOM_REACH)
    # the box's edges, but for gamma = 1, s_max = 1 and delta_est = floor
    edges = [None if e in (1, floor) else e for e in gwin + swin + dwin]
    axis = _share_axis(caps, [shares])
    while True:
        lo, hi = swin
        sampled = hi - lo >= ZOOM_POINTS
        s_axis = (sorted({lo, hi} | {round(x) for x in _spread(lo, hi)})
                  if sampled else range(lo, hi + 1))
        gammas, deltas = _spread(*gwin), _spread(*dwin)
        rows = [(g, s) for s in s_axis for g in gammas]
        values, paid = _grid_key_lengths(target, caps, rows, deltas, axis)
        evals["zoom_passes"] += 1
        evals["zoom_points"] += values.size
        i, j = np.divmod(_band(values), len(deltas))
        if not i.size:
            break
        k, i = np.divmod(i, len(gammas))
        shrunk = (gwin if gwin[1] - gwin[0] <= 1e-5 * gwin[0]
                  else _cells(gammas, i),
                  _cells(s_axis, k) if sampled
                  else (s_axis[k.min()], s_axis[k.max()]),
                  dwin if math.log(dwin[1] / dwin[0]) <= 1e-4
                  else _cells(deltas, j))
        if shrunk == (gwin, swin, dwin):
            break
        gwin, swin, dwin = shrunk
    point, i = _rescore(target, caps, (rows, deltas, [shares]), values, paid,
                        start, "zoom", evals)
    return point, i is not None and any(
        a == b for a, b in zip(gwin + swin + dwin, edges))


def optimize_rate(target: RateTarget, caps: RateCaps,
                  mode: str = BLOCK) -> RateReport:
    """Deterministic search for the best rate under the caps, in boxes set
    by the caps and the rate:

    1. coarse grid: log grids over gamma and delta_est, from just above
       delta_min (_delta_floor) to 0.1, at the equal split and s_max =
       eat.default_s_max(gamma) (1 per round: ``mode`` sets only the s_max
       window, {1} per round and free in block mode, and the label);
    2. split grid (_split) at that point, widened until the rate is flat;
    3. one kernel zoom (_zoom) of gamma, s_max and delta_est there.

    Each stage scores its points in numpy (_grid_key_lengths) and rescores
    the RESCORED best of its band with _eval_point (_rescore), whose
    RateReports are the points compared, so every number reported, and
    every point chosen, comes from the scalar path.  The kept report's
    ``extras`` gain ``evals`` (kernel points, ``*_points``, kernel calls,
    ``*_passes``, and scalar calls, ``*_rescored``, of the stages grid,
    share and zoom) and the zoom's ``at_bound``.
    """
    if mode not in (PER_ROUND, BLOCK):
        raise ValueError("mode must be 'per-round' or 'block'")
    s_cap = 1 if mode == PER_ROUND else math.inf
    evals = dict.fromkeys(("grid_points", "grid_rescored", "share_passes",
                           "share_points", "share_rescored", "zoom_passes",
                           "zoom_points", "zoom_rescored"), 0)
    floor = _delta_floor(target, caps)
    gammas = _log_grid(1e-4, 1.0, GAMMA_GRID_PER_DECADE)
    rows = [(g, min(eat.default_s_max(g), s_cap)) for g in gammas]
    grid = (rows, _log_grid(floor, 0.1, DELTA_GRID_PER_DECADE),
            [_DEFAULT_SHARES])
    values, paid = _grid_key_lengths(target, caps, *grid[:2],
                                     _share_axis(caps, grid[2]))
    evals["grid_points"] = values.size
    coarse, _ = _rescore(target, caps, grid, values, paid, None, "grid", evals)
    if coarse is None:
        raise ValueError("no feasible parameter point under the caps")
    point, shares = _split(target, caps, coarse, evals)
    report, at_bound = _zoom(target, caps, point, shares, floor, s_cap, evals)
    report.extras.update(evals=evals, at_bound=at_bound)
    return report._replace(mode=mode)


def _delta_floor(target: RateTarget, caps: RateCaps) -> float:
    """delta_min (1 + 1e-9), delta_min = sqrt(ln(1/(C - 2 eps_ec)) / (2n))
    with C the completeness cap: there the Hoeffding term leaves
    _budget_for no completeness slack, eps_ec_complete = eps_ec; RateCaps
    puts C - 2 eps_ec in (0, 1)."""
    slack = caps.completeness - 2.0 * caps.eps_ec
    return math.sqrt(math.log(1.0 / slack) / (2.0 * target.n)) * (1 + 1e-9)


def rate_curve(axis: str, grid: list, fixed: dict, caps: RateCaps,
               mode: str = BLOCK) -> list:
    """Sweep optimize_rate along ``axis`` ('q' or 'n'), one report per grid
    value in grid order.

    ``fixed`` supplies the non-swept target field.
    """
    if axis not in ("q", "n"):
        raise ValueError("axis must be 'q' or 'n'")
    targets = [RateTarget(n=fixed["n"], q=v) if axis == "q"
               else RateTarget(n=v, q=fixed["q"]) for v in grid]
    return [optimize_rate(t, caps, mode) for t in targets]
