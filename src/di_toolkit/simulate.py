r"""Monte Carlo simulation of the entropy-accumulation protocol with an
honest IID device.

The honest device is sampled analytically: test rounds win independently
with probability omega_exp, generation rounds agree except with probability
Q.  These marginals are all the completeness analysis uses, so no state
simulator is needed.

One sampler, run_protocol_blocks, serves both protocols: run_protocol
calls it with one-round blocks, s_max = 1.  A run of m blocks draws, in
this order: an (m, s_max) array of test flags, each block cut at its first
test or at s_max rounds; then, over the N rounds kept, the test wins; then
the test-round inputs, Alice's outputs and the generation-round
agreements.  A run aborts iff fewer than p~1 m blocks end in a won test,
p~1 the statistic eat._statistic at which keyrates evaluates the bound.
The flag draw alone fixes a run's round count N, so round_count_statistics
makes only that draw of each trial's stream.  At s_max = 1 the flag array
is one uniform per round and the test mass is gamma itself, so the
per-round stream and abort rule are the block ones of one-round blocks.
The abort estimator runs no sampler: the rounds are independent, so the
per-round protocol's won test rounds are Bin(n, gamma omega_dev); it draws
each trial's count from that law and applies the same threshold.

Randomness is a counter-based Philox generator keyed by
(master_seed, trial_index) at counter 0, so transcripts are bit-identical
for identical configuration and seed, and trials can run in any order or
in parallel.  round_count_statistics rekeys one generator, without the
OS-entropy seed that each new Philox draws and its key then replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import _integer
from .eat import (BlockSpec, _check_block, _check_delta_est, _check_qber,
                  _statistic, expected_block_length)
from .signalling import _binomial_upper_tail

GEN_INPUTS = (0, 2)  # (x, y) used in generation rounds

W_BOT = -1  # encodes the "no test" symbol in integer arrays


@dataclass(frozen=True)
class HonestDevice:
    """Honest IID device marginals: test-round winning probability and QBER."""

    omega_exp: float
    q: float

    def __post_init__(self):
        _check_omega(self.omega_exp)
        _check_qber(self.q)


@dataclass(frozen=True)
class Transcript:
    """Per-round protocol records; W is -1 on generation rounds."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    aborted: bool
    win_count: int

    def __post_init__(self):
        if np.any((self.w == W_BOT) != (self.t == 0)):
            raise ValueError("W must be bottom exactly on generation rounds")


def _trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """A fresh Philox keyed by (master_seed, trial) at counter 0, the seed
    an integer taken mod 2^64 (-1 keys as 2^64 - 1), the trial an integer
    in [0, 2^64)."""
    if not 0 <= _integer(trial, "trial") < 2**64:
        raise ValueError("trial must be in [0, 2**64)")
    key = np.array([_integer(master_seed, "seed") & 0xFFFFFFFFFFFFFFFF,
                    trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_omega(omega_exp):
    """The device's or the protocol's omega_exp: in [0,1], no NaN or bool."""
    if isinstance(omega_exp, bool) or not 0 <= omega_exp <= 1:
        raise ValueError("omega_exp must be in [0,1]")


def _abort_threshold(m, test_mass, omega_exp, delta_est):
    """Abort iff fewer than m p~1 blocks end in a won test (eat._statistic)."""
    return _statistic(omega_exp, test_mass, delta_est) * m


def _trial_count(trials):
    """The number of trials of an estimate, read as an integer >= 1."""
    if (trials := _integer(trials, "trials")) < 1:
        raise ValueError("trials must be >= 1")
    return trials


def _test_flags(m: int, block: BlockSpec,
                rng: np.random.Generator) -> np.ndarray:
    """The first draw of a trial's stream: the (m, s_max) test flags, each
    block cut at its first test.  Returns the kept rounds' flags in order,
    so their number is the run's round count N."""
    if _integer(m, "m_blocks") < 1:
        raise ValueError("the number of blocks must be >= 1")
    flags = rng.random((m, block.s_max)) < block.gamma
    kept = np.ones_like(flags)
    kept[:, 1:] = ~np.logical_or.accumulate(flags[:, :-1], axis=1)
    return flags[kept]


def run_protocol(n: int, gamma: float, omega_exp: float, delta_est: float,
                 device: HonestDevice, seed: int, trial: int = 0) -> Transcript:
    """One run of the per-round protocol, the block protocol with one-round
    blocks; aborts iff the number of winning test rounds falls below
    (omega_exp * gamma - delta_est) * n.

    ``omega_exp`` and ``delta_est`` are the protocol's acceptance
    parameters; the device may have a different actual winning probability.
    """
    return run_protocol_blocks(_integer(n, "n"), BlockSpec(gamma, 1),
                               omega_exp, delta_est, device, seed, trial)


def run_protocol_blocks(m_blocks: int, block: BlockSpec, omega_exp: float,
                        delta_est: float, device: HonestDevice, seed: int,
                        trial: int) -> Transcript:
    """One run of the block protocol, the one sampler: each block ends at
    its first test round or after s_max rounds; the block result is the
    last round's game outcome, or bottom if no test happened.

    Aborts iff the number of winning blocks falls below
    (omega_exp * (1 - (1-gamma)^s_max) - delta_est) * m_blocks
    (_abort_threshold).  The transcript is per-round; block boundaries
    follow from t.
    """
    _check_omega(omega_exp)
    _check_delta_est(delta_est)
    rng = _trial_rng(seed, trial)
    test = _test_flags(m_blocks, block, rng)
    n = test.size
    wins = rng.random(n) < device.omega_exp
    # a block holds at most one test, its last round: won tests = won blocks
    win_count = int(np.count_nonzero(wins & test))
    aborted = win_count < _abort_threshold(m_blocks, block.test_mass,
                                           omega_exp, delta_est)
    tests = int(np.count_nonzero(test))
    x = np.full(n, GEN_INPUTS[0], dtype=np.int8)
    y = np.full(n, GEN_INPUTS[1], dtype=np.int8)
    x[test] = rng.integers(0, 2, size=tests, dtype=np.int8)
    y[test] = rng.integers(0, 2, size=tests, dtype=np.int8)
    a = rng.integers(0, 2, size=n, dtype=np.int8)
    agree = rng.random(n) >= device.q
    b = np.where(agree, a, 1 - a).astype(np.int8)
    # test rounds: set b so that the CHSH predicate equals the win draw
    chsh_b = (a ^ (x & y)) ^ (~wins).astype(np.int8)
    b[test] = chsh_b[test]
    w = np.where(test, wins.astype(np.int8), np.int8(W_BOT)).astype(np.int8)
    return Transcript(t=test.astype(np.int8), x=x, y=y, a=a, b=b, w=w,
                      aborted=aborted, win_count=win_count)


def wilson_interval(successes: int, trials: int) -> tuple:
    """95% Wilson score interval for a binomial proportion, over fewer than
    2**63 trials (SimulationConfig's limit on n)."""
    if _trial_count(trials) >= 2**63:
        raise ValueError("trials must be below 2**63")
    if not 0 <= successes <= trials:  # NaN fails too
        raise ValueError("successes must be in [0, trials]")
    _integer(successes, "successes")
    z = 1.96  # the two-sided 95% normal quantile
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Per-round protocol configuration for abort-probability estimation."""

    n: int
    gamma: float
    omega_exp: float
    delta_est: float
    device: HonestDevice

    def __post_init__(self):
        _check_block(self.gamma, 1)
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n >= 2**63:  # Generator.binomial's limit
            raise ValueError("n must be below 2**63")
        _check_omega(self.omega_exp)
        _check_delta_est(self.delta_est)


def estimate_abort_probability(config: SimulationConfig, trials: int,
                               master_seed: int) -> tuple:
    """(frequency, (lo, hi)) abort frequency with its 95% Wilson interval:
    trial k aborts as run_protocol does on draw k of Bin(n, gamma omega_dev),
    the won test rounds, from the master seed's trial-0 generator."""
    trials = _trial_count(trials)
    wins = _trial_rng(master_seed, 0).binomial(
        config.n, config.gamma * config.device.omega_exp, size=trials)
    aborts = int(np.count_nonzero(wins < _abort_threshold(
        config.n, config.gamma, config.omega_exp, config.delta_est)))
    return aborts / trials, wilson_interval(aborts, trials)


def exact_abort_probability(config: SimulationConfig) -> float:
    """Pr[abort] of the per-round protocol: the won test rounds are
    X ~ Bin(n, p), p = gamma omega_dev, and a run aborts iff X is below
    _abort_threshold, i.e. iff X <= k = ceil(threshold) - 1: the upper tail
    of n - X ~ Bin(n, 1 - p) from n - k."""
    p = config.gamma * config.device.omega_exp
    k = math.ceil(_abort_threshold(config.n, config.gamma, config.omega_exp,
                                   config.delta_est)) - 1
    return _binomial_upper_tail(config.n, 1.0 - p, config.n - k)


def round_count_statistics(m_blocks: int, block: BlockSpec,
                           device: HonestDevice, trials: int, seed: int,
                           tail_t: float) -> float:
    """Empirical Pr[N >= m*s_bar + tail_t] over ``trials`` seeded block
    protocol runs, N read from each trial's flag draw alone (_test_flags)
    on trial 0's generator rekeyed to each trial's: run_protocol_blocks'
    transcript length at that seed and trial, for any ``device``."""
    trials = _trial_count(trials)
    if math.isnan(tail_t):
        raise ValueError("tail_t must not be NaN")
    nbar = m_blocks * expected_block_length(block)
    rng = _trial_rng(seed, 0)
    fresh, exceed = rng.bit_generator.state, 0
    for trial in range(trials):
        fresh["state"]["key"][1] = trial
        rng.bit_generator.state = fresh
        exceed += _test_flags(m_blocks, block, rng).size >= nbar + tail_t
    return exceed / trials
