import hashlib
import math
import re
import time

import numpy as np
import pytest

from conftest import round_count_law
from di_toolkit import simulate as sim
from di_toolkit.eat import BlockSpec, expected_block_length, round_count_tail

FIELDS = ("t", "x", "y", "a", "b", "w")


def device(omega=0.81, q=0.05):
    return sim.HonestDevice(omega_exp=omega, q=q)


def abort_law(m, block, omega, delta_est):
    """Pr[abort] of m blocks on a device that wins with the protocol's
    omega, summed term by term: the won-block count is
    Bin(m, omega * test_mass)."""
    p = omega * block.test_mass
    return sum(math.comb(m, k) * p**k * (1 - p)**(m - k)
               for k in range(m + 1)
               if k < (omega * block.test_mass - delta_est) * m)


def within_5_sigma(freq, trials, exact):
    """An abort frequency over ``trials`` runs within five binomial
    standard deviations of the exact abort probability."""
    return abs(freq - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials)


class TestRunProtocol:
    def test_transcript_invariant(self):
        tr = sim.run_protocol(1000, 0.3, 0.81, 0.02, device(), seed=1)
        assert np.all((tr.w == sim.W_BOT) == (tr.t == 0))
        gen = tr.t == 0
        assert np.all(tr.x[gen] == 0)
        assert np.all(tr.y[gen] == 2)

    def test_perfect_device_never_aborts(self):
        for seed in range(5):
            tr = sim.run_protocol(500, 1.0, 1.0, 0.01, device(omega=1.0),
                                  seed=seed)
            assert not tr.aborted
            assert tr.win_count == 500

    def test_broken_device_always_aborts(self):
        for seed in range(5):
            tr = sim.run_protocol(500, 1.0, 1.0, 0.01, device(omega=0.0),
                                  seed=seed)
            assert tr.aborted
            assert tr.win_count == 0

    def test_win_rate_statistics(self):
        n, gamma, omega = 10**5, 0.2, 0.81
        tr = sim.run_protocol(n, gamma, omega, 0.02, device(omega=omega),
                              seed=5)
        expected = gamma * omega
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(tr.win_count / n - expected) <= 3 * sigma

    def test_generation_disagreement_rate(self):
        n = 10**5
        tr = sim.run_protocol(n, 0.1, 0.81, 0.02, device(q=0.05), seed=9)
        gen = tr.t == 0
        rate = float((tr.a[gen] != tr.b[gen]).mean())
        sigma = math.sqrt(0.05 * 0.95 / gen.sum())
        assert abs(rate - 0.05) <= 3 * sigma

    def test_test_round_chsh_consistency(self):
        # on test rounds, the recorded (a, b, x, y) reproduce the drawn W
        tr = sim.run_protocol(2000, 0.5, 0.81, 0.02, device(), seed=13)
        test = tr.t == 1
        chsh_win = (tr.a[test] ^ tr.b[test]) == (tr.x[test] & tr.y[test])
        assert np.array_equal(chsh_win, tr.w[test] == 1)

    def test_bit_identical_reruns(self):
        a = sim.run_protocol(5000, 0.3, 0.81, 0.02, device(), seed=42)
        b = sim.run_protocol(5000, 0.3, 0.81, 0.02, device(), seed=42)
        for field in ("t", "x", "y", "a", "b", "w"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        c = sim.run_protocol(5000, 0.3, 0.81, 0.02, device(), seed=43)
        assert any(not np.array_equal(getattr(a, f), getattr(c, f))
                   for f in ("t", "a", "b"))


class TestRunProtocolBlocks:
    def test_smax_one_matches_per_round_shape(self):
        block = BlockSpec(0.4, 1)
        tr = sim.run_protocol_blocks(300, block, 0.81, 0.02, device(),
                                     seed=3, trial=0)
        assert len(tr.t) == 300  # every block is exactly one round

    def test_gamma_one_all_length_one(self):
        block = BlockSpec(1.0, 7)
        tr = sim.run_protocol_blocks(200, block, 0.81, 0.02, device(),
                                     seed=4, trial=0)
        assert len(tr.t) == 200
        assert np.all(tr.t == 1)

    def test_mean_block_length(self):
        block = BlockSpec(0.1, 10)
        m = 5000
        tr = sim.run_protocol_blocks(m, block, 0.81, 0.02, device(),
                                     seed=6, trial=0)
        # the m blocks' lengths sum to the transcript's length
        sbar = expected_block_length(block)
        # block length variance is at most s_max^2 / 4
        assert abs(len(tr.t) / m - sbar) <= 3 * block.s_max / (2 *
                                                               math.sqrt(m))

    def test_bot_probability(self):
        block = BlockSpec(0.1, 10)
        m = 5000
        tr = sim.run_protocol_blocks(m, block, 0.81, 0.02, device(),
                                     seed=8, trial=0)
        bots = m - np.count_nonzero(tr.t)
        expected = (1 - 0.1)**10
        sigma = math.sqrt(expected * (1 - expected) / m)
        assert abs(bots / m - expected) <= 3 * sigma

    def test_reproducible(self):
        block = BlockSpec(0.2, 5)
        a = sim.run_protocol_blocks(100, block, 0.81, 0.02, device(),
                                    seed=1, trial=0)
        b = sim.run_protocol_blocks(100, block, 0.81, 0.02, device(),
                                    seed=1, trial=0)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.b, b.b)


class TestOneSampler:
    """Both protocols draw through one sampler: the per-round run is the
    block run with s_max = 1, and the block run matches the exact laws of
    its round count and its abort event."""

    def test_per_round_is_one_round_blocks(self):
        for k, (n, gamma, q) in enumerate([(1, 1.0, 0.0), (300, 0.4, 0.05),
                                           (2000, 0.05, 0.2),
                                           (777, 0.93, 0.5)]):
            a = sim.run_protocol(n, gamma, 0.81, 0.02, device(q=q), seed=k,
                                 trial=k + 1)
            b = sim.run_protocol_blocks(n, BlockSpec(gamma, 1), 0.81, 0.02,
                                        device(q=q), seed=k, trial=k + 1)
            for field in FIELDS:
                assert np.array_equal(getattr(a, field), getattr(b, field))
            assert a.win_count == b.win_count

    def test_per_round_stream_pinned(self):
        # transcripts, abort frequencies and the simulate CLI rest on it
        tr = sim.run_protocol(5000, 0.3, 0.81, 0.02, device(), seed=42,
                              trial=3)
        digest = hashlib.sha256(b"".join(getattr(tr, f).tobytes()
                                         for f in FIELDS)).hexdigest()
        assert digest == ("9cb7c43e69d3497e0cf8e28054b29279"
                          "11b6c419568fdbd35f023f3c96572734")
        assert tr.win_count == 1209

    def test_round_count_law(self):
        # Kolmogorov-Smirnov distance to the exact law of N, within the
        # Dvoretzky-Kiefer-Wolfowitz bound at level 1e-3
        m, block, trials = 30, BlockSpec(0.15, 8), 2000
        law = round_count_law(m, block.gamma, block.s_max)
        counts = np.bincount(
            [len(sim.run_protocol_blocks(m, block, 0.81, 0.02, device(),
                                         seed=23, trial=k).t)
             for k in range(trials)], minlength=len(law))
        assert len(counts) == len(law)
        ks = np.max(np.abs(np.cumsum(counts) / trials - np.cumsum(law)))
        assert ks <= math.sqrt(math.log(2 / 1e-3) / (2 * trials))

    def test_block_abort_frequency_covers_exact(self):
        m, block, omega, delta, trials = 400, BlockSpec(0.1, 10), 0.81, \
            0.025, 1000
        exact = abort_law(m, block, omega, delta)
        assert 0.05 < exact < 0.5
        aborts = sum(sim.run_protocol_blocks(m, block, omega, delta,
                                             device(omega), seed=31,
                                             trial=k).aborted
                     for k in range(trials))
        lo, hi = sim.wilson_interval(aborts, trials)
        assert lo <= exact <= hi


# (id, m, gamma, s_max, delta_est) at which the abort estimator and the
# transcripts are checked against the exact abort law
COUNT_ONLY_CASES = [
    ("acceptance-09", 10**4, 0.5, 1, 0.02),
    ("frequent-aborts", 1000, 0.5, 1, 0.001),  # aborts about half
    ("gamma-1", 2000, 1.0, 1, 0.01),  # every round a test
    ("n-5", 5, 0.5, 1, 0.001),
    ("n-777-gamma-1", 777, 1.0, 1, 0.001),
    ("n-1001", 1001, 0.3, 1, 0.001),
    ("no-tests", 40, 0.02, 1, 0.001),  # about half the runs untested
    ("blocks-3", 500, 0.2, 3, 0.001),
    ("blocks-10", 300, 0.05, 10, 0.001),
]
ESTIMATOR_TRIALS = 10**5
RUN_TRIALS = 2000


KEY_CASES = [(0, 0), (7, 1), (42, 3), (-1, 5), (2**63 + 11, 2), (9001, 40)]


def fresh_rng(seed, trial):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TestRekeyedGenerator:
    """Each trial is keyed anew: a fresh Philox keyed by (seed mod 2^64,
    trial) at counter 0."""

    @pytest.mark.parametrize("s_max", [1, 4])
    def test_flag_draws_match_transcripts(self, s_max):
        """The test flags drawn from a Philox built here, keyed as the
        module docstring says, are the transcript's t."""
        block = BlockSpec(0.3, s_max)
        for seed, trial in KEY_CASES:
            want = sim.run_protocol_blocks(301, block, 0.81, 0.02, device(),
                                           seed, trial)
            got = sim._test_flags(301, block, fresh_rng(seed, trial))
            assert np.array_equal(got.astype(np.int8), want.t)

    @pytest.mark.parametrize("s_max", [1, 4, 10])
    @pytest.mark.parametrize("seed", [-1, 2**64 - 1, 9001])
    def test_statistic_rekeys_one_generator(self, s_max, seed, monkeypatch):
        """round_count_statistics draws OS entropy at most once per call
        (each new Philox draws a seed that its key then replaces), and
        reads each trial's flags from that trial's own _trial_rng stream."""
        block, m, trials = BlockSpec(0.2, s_max), 40, 25
        lengths = [sim._test_flags(m, block, sim._trial_rng(seed, k)).size
                   for k in range(trials)]
        draws, randbits = [], np.random.bit_generator.randbits

        def spy(*args):
            draws.append(args)
            return randbits(*args)

        monkeypatch.setattr(np.random.bit_generator, "randbits", spy)
        nbar = m * expected_block_length(block)
        for tail in (-1.0, 0.0, float(np.median(lengths)) - nbar):
            draws.clear()
            got = sim.round_count_statistics(m, block, device(), trials,
                                             seed, tail)
            assert len(draws) <= 1
            assert got == sum(n >= nbar + tail for n in lengths) / trials

    def test_loops_match_fresh_generators(self):
        dev = sim.HonestDevice(0.81, 0.01)
        block = BlockSpec(0.1, 20)
        lengths = [sim.run_protocol_blocks(50, block, 0.81, 0.5, dev, 5,
                                           trial=k).t.size for k in range(40)]
        tail = float(np.median(lengths))
        assert sim.round_count_statistics(50, block, dev, 40, 5, tail) == (
            sum(n >= 50 * expected_block_length(block) + tail
                for n in lengths) / 40)


class TestAbortProbability:
    def test_impossible_to_miss(self):
        cfg = sim.SimulationConfig(n=200, gamma=1.0, omega_exp=0.5,
                                   delta_est=0.6, device=device(omega=0.9))
        freq, _ = sim.estimate_abort_probability(cfg, 50, 3)
        assert freq == 0.0

    def test_hoeffding_envelope(self):
        cfg = sim.SimulationConfig(n=10**4, gamma=0.5, omega_exp=0.81,
                                   delta_est=0.02, device=device(omega=0.81))
        trials = 500
        freq, ci = sim.estimate_abort_probability(cfg, trials, 7)
        bound = math.exp(-2 * cfg.n * cfg.delta_est**2)
        sigma = math.sqrt(max(bound * (1 - bound), 0.25 / trials) / trials)
        assert freq <= bound + 3 * sigma
        assert ci[0] <= freq <= ci[1]

    def test_deterministic(self):
        cfg = sim.SimulationConfig(n=1000, gamma=0.5, omega_exp=0.81,
                                   delta_est=0.005, device=device())
        assert sim.estimate_abort_probability(cfg, 100, 11) == \
            sim.estimate_abort_probability(cfg, 100, 11)

    @pytest.mark.parametrize("trials, message", [
        pytest.param(trials, message, id=repr(trials)) for trials, message in (
            (0, "trials must be >= 1"), (-2, "trials must be >= 1"),
            # each once reached numpy, which raised TypeError
            (2.5, "trials must be an integer"),
            (3.0, "trials must be an integer"),
            (True, "trials must be an integer"))])
    def test_trials_domain(self, trials, message):
        cfg = sim.SimulationConfig(n=1000, gamma=0.5, omega_exp=0.81,
                                   delta_est=0.005, device=device())
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.estimate_abort_probability(cfg, trials, 7)

    @pytest.mark.parametrize("m, gamma, s_max, delta_est",
                             [case[1:] for case in COUNT_ONLY_CASES],
                             ids=[case[0] for case in COUNT_ONLY_CASES])
    def test_count_only_matches_transcripts(self, m, gamma, s_max,
                                            delta_est):
        """The estimator draws only each trial's won-test count, from its
        binomial law, and agrees with the transcripts in law: the abort
        frequency of RUN_TRIALS run_protocol (or run_protocol_blocks)
        transcripts, and the estimator's over ESTIMATOR_TRIALS, lie within
        5 sigma of the exact abort probability."""
        dev = sim.HonestDevice(0.81, 0.01)
        block = BlockSpec(gamma, s_max)
        if s_max == 1:
            cfg = sim.SimulationConfig(n=m, gamma=gamma, omega_exp=0.81,
                                       delta_est=delta_est, device=dev)
            exact = sim.exact_abort_probability(cfg)
            freq, _ = sim.estimate_abort_probability(cfg, ESTIMATOR_TRIALS, 7)
            assert within_5_sigma(freq, ESTIMATOR_TRIALS, exact)
            runs = (sim.run_protocol(m, gamma, 0.81, delta_est, dev, seed=7,
                                     trial=k) for k in range(RUN_TRIALS))
        else:
            exact = abort_law(m, block, 0.81, delta_est)
            runs = (sim.run_protocol_blocks(m, block, 0.81, delta_est, dev,
                                            seed=7, trial=k)
                    for k in range(RUN_TRIALS))
        freq = sum(tr.aborted for tr in runs) / RUN_TRIALS
        assert within_5_sigma(freq, RUN_TRIALS, exact)

    def test_law_at_integer_threshold(self):
        """(0.75 * 0.5 - 0.125) * 8 is exactly 2: a run with 2 won tests
        passes.  X ~ Bin(8, 0.375) has Pr[X < 2] = 0.135 and
        Pr[X <= 2] = 0.370, so the estimator and the transcripts tell the
        two apart."""
        dev = sim.HonestDevice(0.75, 0.01)
        cfg = sim.SimulationConfig(n=8, gamma=0.5, omega_exp=0.75,
                                   delta_est=0.125, device=dev)
        assert sim._abort_threshold(8, 0.5, 0.75, 0.125) == 2.0
        exact = sim.exact_abort_probability(cfg)
        assert exact == pytest.approx(0.625**8 + 8 * 0.375 * 0.625**7,
                                      rel=1e-12)
        freq, _ = sim.estimate_abort_probability(cfg, ESTIMATOR_TRIALS, 7)
        assert within_5_sigma(freq, ESTIMATOR_TRIALS, exact)
        freq = sum(sim.run_protocol(8, 0.5, 0.75, 0.125, dev, seed=7,
                                    trial=k).aborted
                   for k in range(RUN_TRIALS)) / RUN_TRIALS
        assert within_5_sigma(freq, RUN_TRIALS, exact)

    @pytest.mark.parametrize("gamma", [0.0, -0.2, 1.5, math.nan])
    def test_gamma_outside_unit_interval_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            sim.SimulationConfig(n=100, gamma=gamma, omega_exp=0.81,
                                 delta_est=0.02, device=device())

    @pytest.mark.parametrize("n, message", [
        pytest.param(n, message, id=repr(n)) for n, message in (
            (0, "n must be >= 1"), (-3, "n must be >= 1"),
            (2.5, "n must be an integer"), (100.0, "n must be an integer"),
            (True, "n must be an integer"),
            (2**63, "n must be below 2**63"),
            (10**20, "n must be below 2**63"))])
    def test_n_below_one_rejected(self, n, message):
        # 2.5 once passed: the estimate returned (0.8, ...) and the exact
        # probability raised TypeError; 10**20 raised numpy's OverflowError
        # in Generator.binomial
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.SimulationConfig(n=n, gamma=0.5, omega_exp=0.81,
                                 delta_est=0.02, device=device())

    @pytest.mark.parametrize("omega_exp", [-0.1, 1.5, math.nan])
    def test_omega_exp_outside_unit_interval_rejected(self, omega_exp):
        # NaN once passed, and the exact probability raised "cannot
        # convert float NaN to integer"
        with pytest.raises(ValueError, match=r"^omega_exp must be in \[0,1\]$"):
            sim.SimulationConfig(n=100, gamma=0.5, omega_exp=omega_exp,
                                 delta_est=0.02, device=device())

    @pytest.mark.parametrize("delta_est", [-0.1, 0.0, 1.0, 1.5])
    def test_delta_est_outside_unit_interval_rejected(self, delta_est):
        with pytest.raises(ValueError, match="delta_est"):
            sim.SimulationConfig(n=100, gamma=0.5, omega_exp=0.81,
                                 delta_est=delta_est, device=device())


class TestSeeds:
    """The master seed of every seeded entry point is read as an integer
    (the float 2.5 once raised numpy's TypeError, and True ran as seed 1),
    and an integer keys the generator mod 2^64."""

    CFG = sim.SimulationConfig(n=1000, gamma=0.5, omega_exp=0.81,
                               delta_est=0.005, device=device())

    def calls(self, seed):
        return (lambda: sim.estimate_abort_probability(self.CFG, 10, seed),
                lambda: sim.run_protocol(100, 0.5, 0.81, 0.005, device(),
                                         seed),
                lambda: sim.run_protocol_blocks(20, BlockSpec(0.3, 4), 0.81,
                                                0.005, device(), seed, 0),
                lambda: sim.round_count_statistics(
                    20, BlockSpec(0.3, 4), device(), 5, seed, 1.0))

    @pytest.mark.parametrize("seed", [2.5, 3.0, True, "7", math.nan])
    def test_non_integer_rejected(self, seed):
        for call in self.calls(seed):
            with pytest.raises(ValueError, match="^seed must be an integer$"):
                call()

    def test_negative_seed_keys_mod_2_64(self):
        """The CLI's --seed -1 runs as 2^64 - 1; a numpy integer as its
        value."""
        for a, b in ((-1, 2**64 - 1), (np.int64(7), 7), (2**64 + 3, 3)):
            for first, second in zip(self.calls(a), self.calls(b)):
                x, y = first(), second()
                if isinstance(x, sim.Transcript):
                    assert (x.aborted, x.win_count) == (y.aborted,
                                                        y.win_count)
                    for field in FIELDS:
                        assert np.array_equal(getattr(x, field),
                                              getattr(y, field))
                else:
                    assert x == y


class TestWilson:
    def test_contains_proportion(self):
        lo, hi = sim.wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_zero_successes(self):
        lo, hi = sim.wilson_interval(0, 100)
        assert lo == 0.0
        assert hi < 0.05

    @pytest.mark.parametrize("successes, trials, message", [
        (5, 3, "successes must be in [0, trials]"),
        (-1, 3, "successes must be in [0, trials]"),
        (math.nan, 3, "successes must be in [0, trials]"),
        (0, 0, "trials must be >= 1"),
        (0, math.nan, "trials must be >= 1"),
        (1, 2.5, "trials must be an integer"),
        (1, True, "trials must be an integer")])
    def test_domain(self, successes, trials, message):
        # successes > trials once died in a math domain error
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.wilson_interval(successes, trials)


class TestRoundCountStatistics:
    def test_gamma_one_never_exceeds(self):
        block = BlockSpec(1.0, 3)
        frac = sim.round_count_statistics(100, block, device(), 20, 5,
                                          tail_t=1.0)
        assert frac == 0.0

    def test_tail_bound_holds(self):
        block = BlockSpec(0.05, 20)
        m = 2000
        eps_t = 0.05
        t = round_count_tail(m, block.gamma, block.s_max, eps_t)
        trials = 60
        frac = sim.round_count_statistics(m, block, device(), trials, 17,
                                          tail_t=t)
        sigma = math.sqrt(max(eps_t * (1 - eps_t), 0.25 / trials) / trials)
        assert frac <= eps_t + 3 * sigma

    def test_loose_bound_trivial(self):
        block = BlockSpec(0.5, 2)
        frac = sim.round_count_statistics(200, block, device(), 20, 19,
                                          tail_t=round_count_tail(
                                              200, 0.5, 2, 0.5))
        assert frac <= 1.0

    @pytest.mark.parametrize("m", [1, 3, 40])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("s_max", [1, 4, 12])
    def test_prefix_round_count_is_transcript_length(self, m, gamma, s_max):
        """The flag draw alone gives each trial's round count: the kept
        flags are the transcript's t, and the statistic is the one over
        transcript lengths."""
        block = BlockSpec(gamma, s_max)
        for seed in (0, 7):
            lengths = []
            for trial in range(6):
                tr = sim.run_protocol_blocks(m, block, 0.81, 0.5, device(),
                                             seed, trial)
                flags = sim._test_flags(m, block, sim._trial_rng(seed, trial))
                assert np.array_equal(flags.astype(np.int8), tr.t)
                lengths.append(tr.t.size)
            nbar = m * expected_block_length(block)
            for tail in (-1.0, 0.0, float(np.median(lengths)) - nbar):
                assert sim.round_count_statistics(
                    m, block, device(), 6, seed, tail) == (
                        sum(n >= nbar + tail for n in lengths) / 6)

    @pytest.mark.parametrize("trials, tail_t, message", [
        (0, 1.0, "trials must be >= 1"),  # was ZeroDivisionError
        (-1, 1.0, "trials must be >= 1"),  # returned -0.0
        (2.5, 1.0, "trials must be an integer"),
        (True, 1.0, "trials must be an integer"),
        (20, math.nan, "tail_t must not be NaN")])  # returned 0.0
    def test_domain(self, trials, tail_t, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.round_count_statistics(50, BlockSpec(0.2, 5), device(),
                                       trials, 3, tail_t)


class TestExactAbort:
    def test_large_n_stops_early(self):
        # the tail of Bin(1e7, 0.595) from 13 standard deviations past its
        # mode: a few thousand terms count, the other ~4e6 round away
        cfg = sim.SimulationConfig(n=10**7, gamma=0.5, omega_exp=0.81,
                                   delta_est=0.002,
                                   device=sim.HonestDevice(0.81, 0.01))
        start = time.perf_counter()
        value = sim.exact_abort_probability(cfg)
        assert time.perf_counter() - start < 0.1
        assert 0.0 < value < 1e-30
