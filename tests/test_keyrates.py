import collections
import functools
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import bound_oracle
import key_length_oracle as oracle
from reference_curves import (KEY_RATE_POINTS, ZERO_CROSSING_N,
                              ZERO_CROSSING_WINDOW)

from di_toolkit import eat, entropy, keyrates as kr


def make_budget(eps_t=1e-300):
    return kr.EpsilonBudget(eps_ec=1e-10, eps_ec_complete=5e-3, eps_s=3e-6,
                            eps_ea=3e-6, eps_pa=3e-6, eps_t=eps_t)


def make_params(n=1e9, gamma=0.2, q=0.01, delta=1e-3):
    omega, qber = kr.honest_werner(2 * q)
    return kr.ProtocolParams(n, gamma, omega, delta, qber)


class TestHonestWerner:
    def test_pure_state(self):
        omega, q = kr.honest_werner(0.0)
        assert omega == pytest.approx(entropy.OMEGA_QUANTUM)
        assert q == 0.0

    def test_fully_mixed(self):
        assert kr.honest_werner(1.0) == (pytest.approx(0.5),
                                         pytest.approx(0.5))

    def test_intermediate(self):
        omega, q = kr.honest_werner(0.1)
        assert omega == pytest.approx(0.81820, abs=1e-5)
        assert q == pytest.approx(0.05)

    def test_domain(self):
        with pytest.raises(ValueError):
            kr.honest_werner(1.5)


class TestEpsilonBudget:
    def test_prime_identity(self):
        b = make_budget()
        assert b.eps_ec_prime == pytest.approx(b.eps_ec_complete - b.eps_ec)

    def test_complete_must_exceed_ec(self):
        with pytest.raises(ValueError):
            kr.EpsilonBudget(eps_ec=1e-2, eps_ec_complete=1e-3, eps_s=1e-6,
                             eps_ea=1e-6, eps_pa=1e-6)

    @pytest.mark.parametrize("eps_t", [-1e-20, math.nan, 1.0, 2.0,
                                       math.inf])
    def test_eps_t_outside_unit_interval_rejected(self, eps_t):
        # once math domain error (negative) or "eps_t too large" from
        # key_length_block, and at NaN a NaN key length at s_max = 1, where
        # no tail is drawn
        with pytest.raises(ValueError, match=r"^eps_t must be in \[0,1\)$"):
            make_budget(eps_t=eps_t)

    def test_soundness_sum(self):
        b = make_budget()
        assert b.soundness_error == pytest.approx(
            2 * b.eps_ec + b.eps_pa + b.eps_s + b.eps_ea)


def leak_at(n_eff, params, budget, eps_t):
    """key_length_oracle's leakage at the parameters and budget."""
    return oracle.leak(n_eff, params.gamma, entropy.binary_entropy(params.q),
                       entropy.binary_entropy(params.omega_exp),
                       budget.eps_ec_prime, budget.eps_ec, eps_t, math)


class TestLeakEc:
    """The leak_ec term of key_length and key_length_block reports."""

    def test_first_order_generation_only(self):
        # gamma -> 0: per-round leakage approaches h(Q)
        params = make_params(n=1e12, gamma=1e-9, q=0.02, delta=1e-11)
        leak = kr.key_length(params, make_budget()).leak_ec
        assert leak / params.n == pytest.approx(
            entropy.binary_entropy(params.q), abs=1e-4)

    def test_zero_qber_generation_only(self):
        params = make_params(n=1e12, gamma=1e-9, q=0.0, delta=1e-11)
        leak = kr.key_length(params, make_budget()).leak_ec
        assert leak / params.n == pytest.approx(0.0, abs=1e-4)

    def test_term_structure(self):
        params = make_params(n=1e10, gamma=1e-3, q=0.025, delta=1e-5)
        budget = kr.EpsilonBudget(eps_ec=1e-10, eps_ec_complete=2e-10,
                                  eps_s=3e-6, eps_ea=3e-6, eps_pa=3e-6)
        leak = kr.key_length(params, budget).leak_ec
        assert leak == leak_at(params.n, params, budget, 0.0)

    def test_eps_t_shift_increases_leak(self):
        """Block mode: the leakage over n + t rounds, its sqrt term at the
        shifted smoothing eps_ec_prime - 2 sqrt(eps_t), above the unshifted
        leakage over the same rounds."""
        params, budget = make_params(), make_budget(eps_t=1e-14)
        report = kr.key_length_block(params, budget, 5)
        n_eff = params.n + report.extras["tail_t"]
        assert report.leak_ec == leak_at(n_eff, params, budget,
                                                budget.eps_t)
        assert report.leak_ec > leak_at(n_eff, params, budget, 0.0)

    def test_eps_t_too_large(self):
        # sqrt(eps_t) < eps_s / 4, so only the leakage's shift fails
        budget = kr.EpsilonBudget(eps_ec=1e-10, eps_ec_complete=1e-5 + 1e-10,
                                  eps_s=0.5, eps_ea=3e-6, eps_pa=3e-6,
                                  eps_t=1e-6)
        with pytest.raises(ValueError, match="eps_ec_prime"):
            kr.key_length_block(make_params(), budget, 5)


class TestKeyLength:
    def test_breakdown_sums(self):
        report = kr.key_length(make_params(), make_budget())
        assert report.key_length == pytest.approx(report.breakdown_sum(),
                                                  abs=1e-9)

    def test_soundness_and_completeness_formulas(self):
        params, budget = make_params(), make_budget()
        report = kr.key_length(params, budget)
        assert report.soundness_error == pytest.approx(
            2 * budget.eps_ec + budget.eps_pa + budget.eps_s + budget.eps_ea)
        assert report.completeness_error == pytest.approx(
            budget.eps_ec_complete + budget.eps_ec
            + math.exp(-2 * params.n * params.delta_est**2))

    def test_completeness_hoeffding_term(self):
        params = make_params(n=1e4, delta=0.01)
        budget = make_budget()
        expected = math.exp(-2.0)
        assert kr.completeness_error(params, budget) == pytest.approx(
            budget.eps_ec_complete + budget.eps_ec + expected)

    def test_monotone_decreasing_in_qber(self):
        budget = make_budget()
        rates = []
        for q in (0.001, 0.01, 0.02, 0.04):
            rates.append(kr.key_length(make_params(q=q), budget).rate)
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_asymptotic_dw_limit(self):
        # n -> infinity, gamma -> 0, delta -> 0: rate approaches
        # secrecy_bound(omega) - h(Q)
        q = 0.01
        omega, _ = kr.honest_werner(2 * q)
        target = entropy.secrecy_bound(omega) - entropy.binary_entropy(q)
        params = kr.ProtocolParams(1e16, 1e-3, omega, 1e-8, q)
        report = kr.key_length(params, make_budget())
        assert report.rate == pytest.approx(target, abs=5e-3)

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_non_finite_n_rejected(self, n):
        # n = inf once gave a report of NaNs
        with pytest.raises(ValueError, match="^n must be finite$"):
            make_params(n=n)

    def test_negative_length_reported(self):
        report = kr.key_length(make_params(n=1e4, q=0.04, delta=1e-2),
                               make_budget())
        assert report.key_length < 0
        assert report.rate < 0


def per_round_reference(params, budget):
    """key_length_oracle's key length with one-round blocks under the
    per-round label: m = n / 1.0 = n, no tail."""
    return oracle.key_length(params, budget, 1)._replace(mode=kr.PER_ROUND,
                                                         extras={})


def per_round_draw(rng):
    """(params, budget) of a random per-round point: gamma = 1 one time in
    ten, delta_est up to 1.1 times the statistic's room, epsilons from 1e-9
    to 0.1 and eps_t, which one-round blocks ignore, up to 1e-2."""
    q = float(rng.uniform(0.0, 0.05))
    omega, qber = kr.honest_werner(2 * q)
    gamma = 1.0 if rng.random() < 0.1 else float(
        10.0 ** rng.uniform(-4.0, 0.0))
    delta = float(rng.uniform(1e-9, 1.1) * (omega - 0.75) * gamma)
    params = kr.ProtocolParams(float(10.0 ** rng.uniform(2, 16)),
                               gamma, omega, delta, qber)
    eps = [float(10.0 ** rng.uniform(-9.0, -1.0)) for _ in range(5)]
    budget = kr.EpsilonBudget(
        eps_ec=eps[0], eps_ec_complete=eps[0] + eps[1], eps_s=eps[2],
        eps_ea=eps[3], eps_pa=eps[4],
        eps_t=float(10.0 ** rng.uniform(-30.0, -2.0)))
    return params, budget


def block_draw(rng):
    """(params, budget, s_max) of a random block point: gamma from 1e-3 to
    0.95, s_max from 2 to 3 ceil(1/gamma) + 1 and eps_t up to twice
    (eps_s/4)^2, past which the key length raises."""
    q = float(rng.uniform(0.0, 0.05))
    omega, qber = kr.honest_werner(2 * q)
    gamma = float(10.0 ** rng.uniform(-3.0, np.log10(0.95)))
    s_max = int(rng.integers(2, 3 * math.ceil(1.0 / gamma) + 2))
    mass = eat.BlockSpec(gamma, s_max).test_mass
    delta = float(rng.uniform(1e-9, 1.1) * (omega - 0.75) * mass)
    params = kr.ProtocolParams(float(10.0 ** rng.uniform(2, 16)),
                               gamma, omega, delta, qber)
    eps = [float(10.0 ** rng.uniform(-9.0, -1.0)) for _ in range(5)]
    budget = kr.EpsilonBudget(
        eps_ec=eps[0], eps_ec_complete=eps[0] + eps[1], eps_s=eps[2],
        eps_ea=eps[3], eps_pa=eps[4],
        eps_t=(eps[2] / 4.0) ** 2 * float(10.0 ** rng.uniform(-14.0, 0.3)))
    return params, budget, s_max


class TestKeyLengthReference:
    def test_matches_retired_body(self, rng):
        """Bit-identical reports, field by field, where the oracle computes
        one, and the same exception type and message where it raises: a
        statistic outside the domain (delta_est too large) or log2(0)
        (eps_s below 4.2e-8)."""
        kept = raised_count = 0
        for _ in range(480):
            params, budget = per_round_draw(rng)
            want = raised(lambda: per_round_reference(params, budget))
            if want is not None:
                assert raised(lambda: kr.key_length(params, budget)) == want
                raised_count += 1
                continue
            got = kr.key_length(params, budget)
            assert hex_fields(got) == hex_fields(
                per_round_reference(params, budget))
            kept += 1
        assert kept >= 300 and raised_count >= 20


def raised(call):
    """(type, message) of the exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def hex_fields(report):
    """A report's JSON fields and extras, every float as float.hex()."""
    def encode(value):
        if isinstance(value, dict):
            return {k: encode(v) for k, v in value.items()}
        return value.hex() if isinstance(value, float) else value
    return encode({**report.to_json_dict(), "extras": report.extras})


class TestKeyLengthBlockReference:
    def test_matches_public_mu_block_opt(self, rng):
        """Bit-identical reports, field by field, at s_max > 1, and the same
        exception type and message where the reference raises: a statistic
        outside the domain, log2(0) (eps_s below 4.2e-8) or eps_t too
        large."""
        kept = raised_count = 0
        for _ in range(800):
            params, budget, s_max = block_draw(rng)
            want = raised(lambda: oracle.key_length(params, budget, s_max))
            if want is not None:
                assert raised(lambda: kr.key_length_block(
                    params, budget, s_max)) == want
                raised_count += 1
                continue
            got = kr.key_length_block(params, budget, s_max)
            assert hex_fields(got) == hex_fields(
                oracle.key_length(params, budget, s_max))
            kept += 1
        assert kept >= 400 and raised_count >= 50

    def test_error_parity(self):
        """The checks that BlockSpec, EatEpsilons and mu_block_opt made on
        the key-length path, with the same type and message."""
        params = make_params(gamma=0.2)
        eps = eat.EatEpsilons(1e-6, 1e-6)
        # eps_ea + eps_ec >= 1, which EpsilonBudget alone allows
        big_ea = kr.EpsilonBudget(eps_ec=0.3, eps_ec_complete=0.5,
                                  eps_s=1e-6, eps_ea=0.8, eps_pa=1e-6)
        # the statistic omega_exp - delta_est / mass below 3/4
        low = make_params(gamma=0.2, delta=0.1)
        cases = [
            (lambda: kr.key_length(params, big_ea),
             lambda: per_round_reference(params, big_ea)),
            (lambda: kr.key_length_block(params, big_ea, 5),
             lambda: oracle.key_length(params, big_ea, 5)),
            (lambda: kr.key_length_block(params, make_budget(), 0),
             lambda: oracle.key_length(params, make_budget(), 0)),
            (lambda: kr.key_length(low, make_budget()),
             lambda: per_round_reference(low, make_budget())),
            (lambda: kr.key_length_block(low, make_budget(), 5),
             lambda: oracle.key_length(low, make_budget(), 5)),
        ]
        for gamma in (0.0, -0.5, 1.5):
            cases.append((lambda g=gamma: eat.mu_opt(0.84, 1e-4, g, 1e8, eps),
                          lambda g=gamma: eat.BlockSpec(g, 1)))
        for count in (0.0, -1e6, -math.inf):
            cases.append((lambda c=count: eat.mu_opt(0.84, 1e-4, 0.5, c, eps),
                          lambda c=count: eat.mu_block_opt(
                              0.84, 1e-4, eat.BlockSpec(0.5, 1), c, eps)))
        cases.append((lambda: eat.mu_opt(0.76, 0.1, 0.5, 1e8, eps),
                      lambda: eat.mu_block_opt(0.76, 0.1, eat.BlockSpec(
                          0.5, 1), 1e8, eps)))
        messages = set()
        for call, reference in cases:
            want = raised(reference)
            assert want is not None and want[0] is ValueError
            assert raised(call) == want
            messages.add(want[1])
        assert messages == {"epsilons must be in (0,1)", "s_max must be >= 1",
                            "gamma must be in (0,1]",
                            "test statistic outside the domain",
                            "round or block count must be positive"}

    def test_builds_no_block_or_epsilons(self, monkeypatch):
        """key_length, key_length_block and mu_opt check floats that
        ProtocolParams and EpsilonBudget checked: they build no BlockSpec
        and no EatEpsilons."""
        eps = eat.EatEpsilons(1e-6, 1e-6)
        params, budget = make_params(gamma=0.05), make_budget(eps_t=1e-14)
        built = []
        for cls in (eat.BlockSpec, eat.EatEpsilons):
            def spy(self, original=cls.__post_init__):
                built.append(type(self).__name__)
                original(self)
            monkeypatch.setattr(cls, "__post_init__", spy)
        kr.key_length(params, budget)
        kr.key_length_block(params, budget, 20)
        eat.mu_opt(0.84, 1e-3, 0.5, 1e8, eps)
        assert built == []
        eat.BlockSpec(0.5, 2), eat.EatEpsilons(0.1, 0.1)
        assert built == ["BlockSpec", "EatEpsilons"]


class TestCostSigns:
    """Every cost a report subtracts from its entropy term is >= 0: the
    leakage, the chain rule's log correction, the max-entropy term and the
    PA term."""

    def test_scalar_costs_non_negative(self, rng):
        draws = ([per_round_draw(rng) + (1,) for _ in range(480)]
                 + [block_draw(rng) for _ in range(800)])
        checked = 0
        for params, budget, s_max in draws:
            try:
                report = kr.key_length_block(params, budget, s_max)
            except ValueError:
                continue
            assert min(report.leak_ec, report.log_correction,
                       report.max_entropy_term, report.pa_term) >= 0, report
            checked += 1
        assert checked >= 700

    def test_kernel_log_correction_non_negative(self):
        """The grid kernel's log corrections over split grids, +inf where
        eps_s is below 4.2e-8 (every split of STRICT)."""
        shares = [(10.0 ** (k / 3),) * 2 + (1.0,) for k in range(-24, 25)]
        finite = 0
        for caps in (TestGridKernel.CAPS, TestGridKernel.STRICT):
            log_corr = kr._share_axis(caps, shares).log_corr
            assert np.all(log_corr >= 0)
            finite += np.isfinite(log_corr).sum()
        assert finite >= 30


class TestBudgetTermsFirst:
    """The budget-only terms come before the entropy rate: a budget whose
    log correction is log2(0) raises before any cut search."""

    CAPS = kr.RateCaps(soundness=1e-5, completeness=1e-2, eps_ec=1e-10)
    # eps_s = 1e-9 at equal shares, below the log correction's 4.2e-8
    TINY_EPS_S = kr.RateCaps(soundness=3.2e-9, completeness=1e-2,
                             eps_ec=1e-10)
    TARGET = kr.RateTarget(n=1e10, q=0.005)

    @pytest.fixture
    def rate_calls(self, monkeypatch):
        calls = []

        def spy(*args, original=eat._mu_block_opt):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(eat, "_mu_block_opt", spy)
        return calls

    def test_tiny_eps_s_skips_the_cut_search(self, rate_calls):
        params = make_params(gamma=0.05)
        budget = replace(make_budget(eps_t=1e-30), eps_s=1e-9)
        for call in (lambda: kr.key_length(params, budget),
                     lambda: kr.key_length_block(params, budget, 20)):
            assert raised(call) == (ValueError, "math domain error")
        for s_max, index in ((1, 0), (20, 1)):
            point = kr._eval_point(self.TARGET, self.TINY_EPS_S, 0.05, s_max,
                                   1e-4, (1.0, 1.0, 1.0), index)
            assert point is None
        base = kr._budget_for(self.TINY_EPS_S, params, (1.0, 1.0, 1.0),
                              0.0)
        assert base.eps_s == pytest.approx(1e-9)
        assert rate_calls == []

    def test_one_entropy_rate_per_key_length(self, rate_calls):
        params, budget = make_params(gamma=0.05), make_budget(eps_t=1e-14)
        kr.key_length(params, budget)
        kr.key_length_block(params, budget, 20)
        assert len(rate_calls) == 2
        for s_max, index in ((1, 0), (20, 1)):
            point = kr._eval_point(self.TARGET, self.CAPS, 0.05, s_max, 1e-4,
                                   (1.0, 1.0, 1.0), index)
            assert point is not None
        assert len(rate_calls) == 4


class TestKeyLengthBlock:
    def test_reduction_to_per_round(self, rng):
        for _ in range(20):
            n = float(rng.integers(10**6, 10**9))
            gamma = float(rng.uniform(0.05, 1.0))
            q = float(rng.uniform(0.0, 0.04))
            omega, qber = kr.honest_werner(2 * q)
            delta = float(rng.uniform(1e-4, 2e-3))
            params = kr.ProtocolParams(n, gamma, omega, delta, qber)
            budget = make_budget(eps_t=1e-300)
            a = kr.key_length(params, budget)
            b = kr.key_length_block(params, budget, s_max=1)
            assert abs(a.key_length - b.key_length) <= 1e-9

    def test_breakdown_sums(self):
        report = kr.key_length_block(make_params(gamma=0.05),
                                     make_budget(eps_t=1e-14), s_max=20)
        assert report.key_length == pytest.approx(report.breakdown_sum(),
                                                  abs=1e-9)

    @pytest.mark.parametrize("gamma, s_max", [(0.2, 1), (1.0, 1), (1.0, 3),
                                              (1.0, 50)])
    def test_no_tail_is_eps_t_zero(self, gamma, s_max):
        """Where every block is one round (s_max = 1 or gamma = 1) the round
        count has no tail, and eps_t = 0 in every term: the report at
        eps_t = 0 but for the budget it echoes.  Each eps_t > 0 once cost
        key length (at n = 1e10 and eps_t = 1e-14: 44,760 bits at s_max = 1
        from the max-entropy shift, 66 bits at gamma = 1 and s_max = 3 from
        the leakage's), 1e-6 raised "eps_t too large", and eps_t = 0 raised
        at gamma = 1 with s_max > 1."""
        params = make_params(n=1e10, gamma=gamma)
        zero = kr.key_length_block(params, make_budget(eps_t=0.0), s_max)
        assert zero.extras["tail_t"] == 0.0
        for eps_t in (1e-30, 1e-14, 1e-6):
            budget = make_budget(eps_t=eps_t)
            got = kr.key_length_block(params, budget, s_max)
            assert got.budget is budget
            assert got._replace(budget=zero.budget) == zero
        if s_max == 1:
            assert kr.key_length(params, budget).key_length == zero.key_length

    def test_gamma_one_no_tail(self):
        params = make_params(gamma=1.0)
        report = kr.key_length_block(params, make_budget(eps_t=1e-14),
                                     s_max=3)
        assert report.extras["tail_t"] == 0.0

    def test_eps_t_guard(self):
        params = make_params()
        budget = kr.EpsilonBudget(eps_ec=1e-10, eps_ec_complete=5e-3,
                                  eps_s=3e-6, eps_ea=3e-6, eps_pa=3e-6,
                                  eps_t=1e-6)
        with pytest.raises(ValueError):
            kr.key_length_block(params, budget, s_max=5)

    @pytest.mark.parametrize("s_max", [2.5, math.nan, math.inf, True])
    def test_non_integer_s_max_rejected(self, s_max):
        """A fractional s_max gave a key length and inf -inf; nan raised
        "test statistic outside the domain", naming no s_max; True was
        taken as s_max = 1."""
        with pytest.raises(ValueError, match="^s_max must be an integer"):
            kr.key_length_block(make_params(), make_budget(eps_t=1e-14),
                                s_max)

    def test_block_beats_per_round_at_small_gamma(self):
        params = make_params(n=1e9, gamma=0.01, q=0.01, delta=5e-4)
        budget = make_budget(eps_t=1e-16)
        per_round = kr.key_length(params, budget)
        block = kr.key_length_block(params, budget, s_max=100)
        assert block.key_length > per_round.key_length


class TestOptimizeRate:
    CAPS = kr.RateCaps(soundness=1e-5, completeness=1e-2, eps_ec=1e-10)

    def test_caps_respected(self):
        report = kr.optimize_rate(kr.RateTarget(n=1e9, q=0.01), self.CAPS,
                                  mode=kr.BLOCK)
        assert report.soundness_error <= 1e-5 + 1e-15
        assert report.completeness_error <= 1e-2 + 1e-12
        assert report.budget.eps_ec == 1e-10

    def test_deterministic(self):
        t = kr.RateTarget(n=1e8, q=0.02)
        r1 = kr.optimize_rate(t, self.CAPS, mode=kr.BLOCK)
        r2 = kr.optimize_rate(t, self.CAPS, mode=kr.BLOCK)
        assert r1.rate == r2.rate
        assert r1.params == r2.params

    def test_per_round_mode_works(self):
        report = kr.optimize_rate(kr.RateTarget(n=1e9, q=0.01), self.CAPS,
                                  mode=kr.PER_ROUND)
        assert report.mode == kr.PER_ROUND
        assert report.rate > 0

    def test_infeasible_caps(self):
        with pytest.raises(ValueError):
            kr.RateCaps(soundness=1e-11, completeness=1e-2, eps_ec=1e-10)

    @pytest.mark.parametrize("eps_ec", [0.0, -1e-3, math.nan])
    def test_eps_ec_must_be_positive(self, eps_ec):
        # these caps once constructed, and optimize_rate then reported no
        # feasible parameter point
        with pytest.raises(ValueError, match=r"^eps_ec must be > 0$"):
            kr.RateCaps(soundness=1e-5, completeness=1e-2, eps_ec=eps_ec)

    @pytest.mark.parametrize("soundness, completeness, message", [
        (math.nan, 1e-2, "soundness cap must exceed 2*eps_ec"),
        (1e-5, math.nan, "completeness cap must exceed 2*eps_ec")])
    def test_nan_caps_rejected(self, soundness, completeness, message):
        # NaN once passed the caps' checks, written x <= bound
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kr.RateCaps(soundness=soundness, completeness=completeness,
                        eps_ec=1e-10)

    @pytest.mark.parametrize("soundness, completeness, message", [
        (1.0, 1e-2, "soundness cap must be below 1"),
        (2.0, 1e-2, "soundness cap must be below 1"),
        (math.inf, 1e-2, "soundness cap must be below 1"),
        (1e-5, 1.5e-10, "completeness cap must exceed 2*eps_ec"),
        (1e-5, 2e-10, "completeness cap must exceed 2*eps_ec")])
    def test_caps_no_budget_meets_rejected(self, soundness, completeness,
                                           message):
        # soundness 2 once gave a report with eps_s near 1 and soundness
        # error 2; a completeness cap in (eps_ec, 2 eps_ec] once failed
        # later as "no feasible parameter point under the caps"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kr.RateCaps(soundness=soundness, completeness=completeness,
                        eps_ec=1e-10)

    @pytest.mark.parametrize("mode", [kr.BLOCK, kr.PER_ROUND])
    def test_rate_curve_ordering_and_monotonicity(self, mode):
        grid = [0.005, 0.02, 0.035]
        reports = kr.rate_curve("q", grid, {"n": 1e9, "q": None}, self.CAPS,
                                mode=mode)
        assert {r.mode for r in reports} == {mode}
        rates = [r.rate for r in reports]
        assert rates[0] > rates[1] > rates[2]

    @pytest.mark.parametrize("mode", [kr.BLOCK, kr.PER_ROUND])
    def test_rate_monotone_in_n(self, mode):
        grid = [1e8, 1e9]
        reports = kr.rate_curve("n", grid, {"q": 0.02, "n": None}, self.CAPS,
                                mode=mode)
        assert reports[0].rate < reports[1].rate

    def test_search_provenance(self):
        for n, q in ((1e10, 0.005), (1e7, 0.03)):
            for mode in (kr.BLOCK, kr.PER_ROUND):
                report = kr.optimize_rate(kr.RateTarget(n=n, q=q), self.CAPS,
                                          mode=mode)
                evals = report.extras["evals"]
                assert set(evals) == {"grid_points", "grid_rescored",
                                      "share_passes", "share_points",
                                      "share_rescored", "zoom_passes",
                                      "zoom_points", "zoom_rescored"}
                for stage in ("grid", "share", "zoom"):
                    assert 1 <= evals[stage + "_rescored"] <= kr.RESCORED
                # the split is one kernel call over 49 points, or two, the
                # second over twice the reach; the zoom shrinks
                assert (evals["share_passes"], evals["share_points"]) in (
                    (1, 49), (2, 49 + 97))
                assert evals["zoom_passes"] >= 4
                assert report.extras["at_bound"] is False
                assert "evals" not in report.to_json_dict()

    def test_split_widens_past_first_call(self):
        """Per round at n = 1e17, q = 0.07 under loose caps the rate still
        rises in the outer SPLIT_EDGE_DECADES decades of the first split
        call, so a second call scores twice the reach, and the band of the
        whole axis is rescored: the split lands at r = 1e12, past the first
        call's 1e8.
        The nested-box walk that this search replaced stopped at r = 1e10
        with a key length of 0x1.2a6d13f1ae0bcp+50; this one is no lower."""
        caps = kr.RateCaps(soundness=1e-3, completeness=0.1, eps_ec=1e-9)
        report = kr.optimize_rate(kr.RateTarget(n=1e17, q=0.07), caps,
                                  mode=kr.PER_ROUND)
        evals = report.extras["evals"]
        assert (evals["share_passes"], evals["share_points"]) == (2, 49 + 97)
        assert report.budget.eps_s / report.budget.eps_pa == pytest.approx(
            1e12, rel=1e-9)
        assert report.key_length >= float.fromhex("0x1.2a6d13f1ae0bcp+50")

    def test_delta_floor(self):
        """The coarse grid and the zoom start just above delta_min, where
        _budget_for runs out of completeness slack (EpsilonBudget refuses
        its eps_ec_complete), and reach below the old constant floor 1e-4
        / 2.4^4 at n = 1e15."""
        target = kr.RateTarget(n=1e15, q=1e-10)
        floor = kr._delta_floor(target, self.CAPS)
        delta_min = math.sqrt(math.log(1.0 / (
            self.CAPS.completeness - 2.0 * self.CAPS.eps_ec)) / (2.0 * 1e15))
        assert delta_min < floor <= delta_min * (1.0 + 1e-9) * (1.0 + 1e-15)
        omega, _ = kr.honest_werner(2.0 * target.q)

        def budget(delta):
            params = kr.ProtocolParams(target.n, 0.01, omega, delta, target.q)
            return kr._budget_for(self.CAPS, params, (1.0, 1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="eps_ec_complete"):
            budget(delta_min * (1.0 - 1e-6))
        assert budget(floor).eps_ec_complete > self.CAPS.eps_ec
        for mode in (kr.BLOCK, kr.PER_ROUND):
            report = kr.optimize_rate(target, self.CAPS, mode=mode)
            assert floor < report.params.delta_est < 1e-4 / 2.4**4
            assert report.extras["at_bound"] is False
        # no delta_est leaves slack under C <= 2 eps_ec: the caps refuse it
        with pytest.raises(ValueError,
                           match=r"^completeness cap must exceed 2\*eps_ec$"):
            kr.RateCaps(soundness=1e-5, completeness=1.5e-10, eps_ec=1e-10)

    def test_at_bound(self, monkeypatch):
        """A zoom box cut down to a factor 1.001 either way stops short of
        the optimum, and the flag says so."""
        target = kr.RateTarget(n=1e12, q=0.015)
        monkeypatch.setattr(kr, "ZOOM_REACH", 1.001)
        for mode in (kr.BLOCK, kr.PER_ROUND):
            report = kr.optimize_rate(target, self.CAPS, mode=mode)
            assert report.extras["at_bound"] is True

    def test_at_bound_s_max_edge(self):
        """A zoom started at the optimum's gamma, delta_est and split but an
        eighth of its s_max ends on the top of its s_max window,
        ceil(s_max ZOOM_REACH), with gamma and delta_est well inside their
        windows: the s_max window's edge alone sets the flag."""
        target = kr.RateTarget(n=1e10, q=0.005)
        best = kr.optimize_rate(target, self.CAPS, mode=kr.BLOCK)
        gamma, delta = best.params.gamma, best.params.delta_est
        shares = (best.budget.eps_s, best.budget.eps_ea, best.budget.eps_pa)
        s_max = best.s_max // 8
        assert math.ceil(s_max * kr.ZOOM_REACH) < best.s_max
        start = kr._eval_point(target, self.CAPS, gamma, s_max, delta, shares,
                               best.extras["eps_t_index"])
        report, at_bound = kr._zoom(target, self.CAPS, start, shares,
                                    kr._delta_floor(target, self.CAPS),
                                    math.inf, collections.Counter())
        assert at_bound is True
        assert report.s_max == math.ceil(s_max * kr.ZOOM_REACH)
        reach = kr.ZOOM_REACH / 2.0
        assert gamma / reach < report.params.gamma < gamma * reach
        assert delta / reach < report.params.delta_est < delta * reach

    def test_rescore_ranks_band_by_value(self, monkeypatch):
        """The band is rescored best kernel value first, ties in grid order,
        RESCORED points of it: not its first members in grid order."""
        gammas = []
        monkeypatch.setattr(kr, "_eval_point",
                            lambda target, caps, gamma, *rest: gammas.append(
                                gamma))
        values = np.array([5.0, 10.0, 10.0 - 1e-9, 10.0, 1.0,
                           10.0 + 1e-9])[:, None, None]
        rows = [(g, 1) for g in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
        assert kr._band(values).tolist() == [1, 2, 3, 5]
        evals = collections.Counter()
        report, i = kr._rescore(None, None, (rows, [1e-3], [(1.0, 1.0, 1.0)]),
                                values, np.zeros((1,) + values.shape), None,
                                "grid", evals)
        assert gammas == [0.6, 0.2, 0.4] and evals["grid_rescored"] == 3
        assert report is None and i is None

    def test_strict_caps_infeasible(self):
        strict = kr.RateCaps(soundness=1e-9, completeness=1e-2, eps_ec=1e-12)
        for mode in (kr.BLOCK, kr.PER_ROUND):
            with pytest.raises(ValueError, match="no feasible parameter"):
                kr.optimize_rate(kr.RateTarget(n=1e10, q=0.01), strict,
                                 mode=mode)

    # at most RESCORED per stage (344-486 with the golden refine)
    SCALAR_EVAL_BUDGET = 10

    def test_work_counters(self, monkeypatch):
        calls = []
        eval_point = kr._eval_point

        def counting(*args):
            calls.append(args)
            return eval_point(*args)

        monkeypatch.setattr(kr, "_eval_point", counting)
        for n, q, _, _ in KEY_RATE_POINTS:
            calls.clear()
            report = kr.optimize_rate(kr.RateTarget(n=n, q=q), self.CAPS,
                                      mode=kr.BLOCK)
            evals = report.extras["evals"]
            deltas = kr._log_grid(kr._delta_floor(kr.RateTarget(n=n, q=q),
                                                  self.CAPS), 0.1,
                                  kr.DELTA_GRID_PER_DECADE)
            # the 33 log-spaced gammas, each at s_max = ceil(1/gamma)
            assert evals["grid_points"] == 33 * len(deltas)
            # one split call over 8 decades either way at 3 points per
            # decade, or a second over twice the reach
            assert (evals["share_passes"], evals["share_points"]) in (
                (1, 49), (2, 49 + 97))
            scalar = (evals["grid_rescored"] + evals["zoom_rescored"]
                      + evals["share_rescored"])
            assert scalar == len(calls)
            assert scalar <= self.SCALAR_EVAL_BUDGET

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_non_finite_target_rejected(self, n):
        # n = inf once died in a ZeroDivisionError in _log_grid
        with pytest.raises(ValueError, match="^n must be finite$"):
            kr.optimize_rate(kr.RateTarget(n=n, q=0.01), self.CAPS)

    @pytest.mark.parametrize("mode", [kr.BLOCK, kr.PER_ROUND])
    @pytest.mark.parametrize("n", [0, 0.0, 0.5, -5.0, -math.inf])
    def test_target_below_one_round_rejected(self, n, mode):
        # n = 0 once died in a ZeroDivisionError in _delta_floor, n < 0 in
        # a math domain error, and n in (0, 1) found no feasible point
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            kr.optimize_rate(kr.RateTarget(n=n, q=0.01), self.CAPS, mode)

    def test_eps_t_provenance(self):
        for n, index in ((1e15, 1), (1e10, 2)):
            report = kr.optimize_rate(kr.RateTarget(n=n, q=0.005), self.CAPS,
                                      mode=kr.BLOCK)
            cap_t = (report.budget.eps_s / 4.0) ** 2
            assert report.extras["eps_t_index"] == index
            assert report.budget.eps_t == cap_t * 10.0 ** (-index)


def s_rule(gamma):
    """The coarse grid's block length cap, ceil(1/gamma)."""
    return max(int(math.ceil(1.0 / gamma - 1e-9)), 1)


def rule_rows(mode, gammas):
    """(gamma, s_max) kernel rows: s_rule(gamma) in block mode, 1 per
    round."""
    return [(g, s_rule(g) if mode == kr.BLOCK else 1) for g in gammas]


def grid_kernel(target, caps, rows, deltas, shares):
    """The grid kernel at the (gamma, s_max) ``rows`` and the split list
    ``shares``, whose _share_axis it builds."""
    return kr._grid_key_lengths(target, caps, rows, deltas,
                                kr._share_axis(caps, shares))


def has_tail(gamma, s_max):
    """Whether the round count is random: some block can hold more than
    one round."""
    return s_max > 1 and gamma < 1


def sweep_oracle(target, caps, gamma, s_max, delta, shares):
    """The eps_t sweep as one full key_length_block call per candidate
    eps_t = cap_t 10^-k, k = 1..13 (eps_t = 0 is no candidate where the
    round count has a tail), keeping the first strict maximum, whose k its
    report's extras record (``eps_t_index``), as _eval_point's do."""
    omega, _ = kr.honest_werner(2.0 * target.q)
    try:
        params = kr.ProtocolParams(target.n, gamma, omega, delta, target.q)
        base = kr._budget_for(caps, params, shares, 0.0)
    except ValueError:
        return None
    cap_t = (base.eps_s / 4.0) ** 2
    best = None
    for k in range(1, kr.EPS_T_CANDIDATE_DECADES):
        try:
            report = kr.key_length_block(
                params, replace(base, eps_t=cap_t * 10.0 ** (-k)), s_max)
        except ValueError:
            continue
        if best is None or report.key_length > best.key_length:
            best = report
            best.extras["eps_t_index"] = k
    return best


def scalar_point(target, caps, gamma, s_max, delta, shares):
    """The scalar reference at a point, None if infeasible: sweep_oracle
    where the round count has a tail, else one key_length_block at
    eps_t = 0."""
    if has_tail(gamma, s_max):
        return sweep_oracle(target, caps, gamma, s_max, delta, shares)
    omega, _ = kr.honest_werner(2.0 * target.q)
    try:
        params = kr.ProtocolParams(target.n, gamma, omega, delta, target.q)
        base = kr._budget_for(caps, params, shares, 0.0)
        return kr.key_length_block(params, base, s_max)
    except ValueError:
        return None


def kernel_pick(target, caps, gamma, s_max, delta, shares):
    """(value, eps_t_index): the grid kernel's key length at one point and
    its pick, the first minimum of ``paid`` over the eps_t candidates."""
    values, paid = grid_kernel(target, caps, [(gamma, s_max)], [delta],
                               [shares])
    return values[0, 0, 0], int(paid[:, 0, 0, 0].argmin())


class TestEpsTSweep:
    CAPS = kr.RateCaps(soundness=1e-5, completeness=1e-2, eps_ec=1e-10)
    STRICT = kr.RateCaps(soundness=1e-9, completeness=1e-2, eps_ec=1e-12)
    TARGET = kr.RateTarget(n=1e10, q=0.005)

    def delta_leaving(self, eps_ec_prime):
        """delta_est whose Hoeffding term leaves eps_ec_complete - eps_ec
        close to ``eps_ec_prime``."""
        hoeffding = self.CAPS.completeness - 2 * self.CAPS.eps_ec - eps_ec_prime
        return math.sqrt(-math.log(hoeffding) / (2.0 * self.TARGET.n))

    def check(self, caps, gamma, delta, shares, s_max=None):
        """_eval_point at the kernel's eps_t pick against scalar_point (the
        full sweep where the round count has a tail), at s_max
        (s_rule(gamma) if None): the pick is the sweep's first strict
        maximum (0 without a tail), and the reports are equal."""
        s_max = s_rule(gamma) if s_max is None else s_max
        value, pick = kernel_pick(self.TARGET, caps, gamma, s_max, delta,
                                  shares)
        got = kr._eval_point(self.TARGET, caps, gamma, s_max, delta, shares,
                             pick)
        want = scalar_point(self.TARGET, caps, gamma, s_max, delta, shares)
        if want is None:
            assert got is None and value == -math.inf
            return None
        assert pick == want.extras.get("eps_t_index", 0)
        assert got.key_length == want.key_length
        assert got.budget.eps_t == want.budget.eps_t
        assert got.best_cut == want.best_cut
        assert got.to_json_dict() == want.to_json_dict()
        assert got.extras == want.extras
        return got

    def test_matches_full_key_length_per_candidate(self, rng):
        kept = 0
        for _ in range(30):
            gamma = 1.0 if rng.random() < 0.2 else float(
                10.0 ** rng.uniform(-3.5, 0.0))
            delta = float(10.0 ** rng.uniform(-5.0, -1.5))
            shares = tuple(float(10.0 ** rng.uniform(-2.0, 2.0))
                           for _ in range(3))
            # s_max = ceil(f / gamma), f from 0.3 to 3
            s_max = s_rule(gamma / 10.0 ** rng.uniform(-0.5, 0.5))
            kept += self.check(self.CAPS, gamma, delta, shares,
                               s_max) is not None
        assert kept >= 10

    def test_gamma_one(self):
        report = self.check(self.CAPS, 1.0, 1e-4, (1.0, 1.0, 1.0))
        assert report.s_max == 1 and report.extras["tail_t"] == 0.0
        # no tail: eps_t = 0, and no candidate to record
        assert report.budget.eps_t == 0.0
        assert "eps_t_index" not in report.extras

    def test_some_candidates_raise(self):
        # eps_ec_prime ~ 1e-9 < 2 sqrt(eps_t) for the largest candidates
        report = self.check(self.CAPS, 0.01, self.delta_leaving(1e-9),
                            (1.0, 1.0, 1.0))
        assert report.extras["eps_t_index"] > 1

    def test_every_candidate_raises(self):
        # eps_ec_prime ~ 1e-13 < 2 sqrt(eps_t) for every candidate
        delta = self.delta_leaving(1e-13)
        assert self.check(self.CAPS, 0.01, delta, (1.0, 1.0, 1.0)) is None

    def test_fixed_terms_raise(self):
        # statistic below the classical bound: mu_block_opt raises
        assert self.check(self.CAPS, 0.01, 0.1, (1.0, 1.0, 1.0)) is None
        # eps_s < 4.2e-8: the log correction raises
        assert self.check(self.STRICT, 0.01, 1e-4, (0.01, 1.0, 1.0)) is None

    def test_one_tail_per_rescored_point(self, monkeypatch):
        """A rescored block point is one key length at the kernel's eps_t:
        one round count tail, not one per candidate (13 once)."""
        calls = []

        def spy(*args, original=eat.round_count_tail):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(eat, "round_count_tail", spy)
        report = kr.optimize_rate(self.TARGET, self.CAPS, kr.BLOCK)
        evals = report.extras["evals"]
        rescored = sum(evals[stage + "_rescored"]
                       for stage in ("grid", "share", "zoom"))
        assert 0 < len(calls) <= rescored
        calls.clear()
        value, pick = kernel_pick(self.TARGET, self.CAPS, 0.01, 100, 1e-4,
                                  (1.0, 1.0, 1.0))
        assert calls == [] and value > 0
        kr._eval_point(self.TARGET, self.CAPS, 0.01, 100, 1e-4,
                       (1.0, 1.0, 1.0), pick)
        assert len(calls) == 1


def scalar_key_length(target, caps, gamma, s_max, delta, shares):
    report = scalar_point(target, caps, gamma, s_max, delta, shares)
    return -math.inf if report is None else report.key_length


def reference_golden_max(fn, lo, hi, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = a if fn(a) >= fn(b) else b
    return x, fn(x)


def reference_optimize_rate(target, caps, mode):
    """The optimizer as it stood with four stages (coarse grid, refine,
    split grid, refine) in constant boxes (delta_est >= 1e-4 on the grid, a
    split of at most two decades), one scalar key length per grid point
    (the full eps_t sweep in block mode, at s_max = ceil(1/gamma)) and
    golden-section refines."""

    def evaluate(gamma, delta, shares):
        return scalar_key_length(target, caps, gamma,
                                 s_rule(gamma) if mode == kr.BLOCK else 1,
                                 delta, shares)

    gammas = GRID_GAMMAS
    deltas = GRID_DELTAS
    best = (-math.inf, gammas[0], deltas[0])
    for gm in gammas:
        for dl in deltas:
            v = evaluate(gm, dl, (1.0, 1.0, 1.0))
            if v > best[0]:
                best = (v, gm, dl)
    if not math.isfinite(best[0]):
        raise ValueError("no feasible parameter point under the caps")
    _, gamma0, delta0 = best

    def refine_delta(gamma, delta, shares):
        dlo, dhi = max(delta / 2.4, 1e-7), min(delta * 2.4, 0.5)
        return reference_golden_max(
            lambda d_: evaluate(gamma, d_, shares), dlo, dhi, 1e-4 * delta)[0]

    def gamma_brackets(gamma):
        if mode == kr.PER_ROUND:
            return [(max(gamma / 2.4, 1e-6), min(gamma * 2.4, 1.0))]
        s_star = max(int(math.ceil(1.0 / gamma)), 1)
        out = []
        for s in range(max(s_star - 2, 1), s_star + 3):
            lo = 1.0 / s
            hi = 1.0 if s == 1 else min(1.0 / (s - 1) * (1 - 1e-12), 1.0)
            if s == 1:
                out.append((1.0, 1.0))
            elif lo < hi:
                out.append((lo, hi))
        return out

    def refine(gamma, delta, shares):
        for _ in range(2):
            cand = (-math.inf, gamma, delta)
            for glo, ghi in gamma_brackets(gamma):
                if glo == ghi:
                    gm, val = glo, evaluate(glo, delta, shares)
                else:
                    gm, val = reference_golden_max(
                        lambda g_: evaluate(g_, delta, shares), glo, ghi,
                        1e-5 * glo)
                if val > cand[0]:
                    cand = (val, gm, delta)
            gamma = cand[1]
            delta = refine_delta(gamma, delta, shares)
        return gamma, delta

    gamma1, delta1 = refine(gamma0, delta0, (1.0, 1.0, 1.0))
    best_shares = (1.0, 1.0, 1.0)
    best_v = evaluate(gamma1, delta1, best_shares)
    for shares in SHARE_GRID:
        v = evaluate(gamma1, delta1, shares)
        if v > best_v + 1e-12:
            best_v, best_shares = v, shares
    gamma2, delta2 = refine(gamma1, delta1, best_shares)
    return scalar_point(target, caps, gamma2,
                        s_rule(gamma2) if mode == kr.BLOCK else 1, delta2,
                        best_shares)


GRID_GAMMAS = sorted(set(kr._log_grid(1e-4, 1.0, kr.GAMMA_GRID_PER_DECADE))
                     | {1.0 / k for k in range(1, 41)})
GRID_DELTAS = kr._log_grid(1e-4, 1e-1, kr.DELTA_GRID_PER_DECADE)
SHARE_GRID = [(1.0, 1.0, 1.0)] + [
    (10.0 ** (i / 3), 10.0 ** (j / 3), 1.0)
    for i in range(-6, 7) for j in range(-6, 7)]
# the optimizer's split axis (r, r, 1) at a reach of 10 decades
SPLIT_AXIS = [(10.0 ** (k / 3),) * 2 + (1.0,) for k in range(-30, 31)]
ACCEPTANCE_TARGETS = [(n, q) for n, q, _, _ in KEY_RATE_POINTS] + [
    (ZERO_CROSSING_N, q) for q in ZERO_CROSSING_WINDOW]


@functools.lru_cache(maxsize=None)
def reference_result(n, q, mode):
    caps = TestGridKernel.CAPS
    return reference_optimize_rate(kr.RateTarget(n=n, q=q), caps, mode)


class TestGridKernel:
    CAPS = kr.RateCaps(soundness=1e-5, completeness=1e-2, eps_ec=1e-10)
    STRICT = kr.RateCaps(soundness=1e-9, completeness=1e-2, eps_ec=1e-12)
    # eps_ec_complete = C - eps_ec - exp(-2 n delta_est^2) can pass
    # 1 - 1e-12 only where the completeness cap C is that close to 1
    NEAR_ONE = kr.RateCaps(soundness=1e-5, completeness=1.0 - 1e-13,
                           eps_ec=1e-15)
    # n from 1e6 to 1e15, q from 0 to 0.034, the zero-crossing window
    # included; at n = 1e6 the Hoeffding term leaves no completeness
    # slack for delta_est below ~1.5e-3
    TARGETS = [(1e6, 0.0), (1e6, 0.02), (1e7, 0.030), (1e7, 0.034),
               (1e8, 0.01), (1e10, 0.005), (1e10, 0.025), (1e12, 0.015),
               (1e15, 0.005), (1e15, 0.034)]

    def check(self, target, caps, rows, deltas, shares):
        """Kernel against the scalar reference (the full eps_t sweep where
        the round count has a tail) at every point of the (gamma, s_max)
        ``rows`` x ``deltas`` x ``shares``: the same -inf mask, values
        within 1e-11 relative, the kernel's eps_t pick the sweep's first
        strict maximum (0 without a tail), and _eval_point at that pick the
        reference's key length; returns the feasible count."""
        got, paid = grid_kernel(target, caps, rows, deltas, shares)
        assert got.shape == (len(rows), len(deltas), len(shares))
        # candidate 0 alone on a grid without a tail, the least paid there
        tails = any(has_tail(*row) for row in rows)
        assert paid.shape == (len(kr._eps_t_ladder()) if tails else 1,) \
            + got.shape
        want = np.full(got.shape, -math.inf)
        for (i, (g, s_max)), (j, d), (k, s) in itertools.product(
                enumerate(rows), enumerate(deltas), enumerate(shares)):
            pick = int(paid[:, i, j, k].argmin())
            point = kr._eval_point(target, caps, g, s_max, d, s, pick)
            ref = scalar_point(target, caps, g, s_max, d, s)
            assert (point is None) == (ref is None)
            if ref is not None:
                want[i, j, k] = ref.key_length
                assert point.key_length == ref.key_length
                assert pick == ref.extras.get("eps_t_index", 0)
        feasible = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), feasible)
        assert np.all(got[~feasible] == -math.inf)
        gap = np.abs(got[feasible] - want[feasible])
        assert np.all(gap <= 1e-11 * np.maximum(np.abs(want[feasible]), 1.0))
        return int(feasible.sum())

    @pytest.mark.parametrize("mode", [kr.BLOCK, kr.PER_ROUND])
    def test_coarse_grid(self, mode):
        for n, q in self.TARGETS:
            feasible = self.check(kr.RateTarget(n=n, q=q), self.CAPS,
                                  rule_rows(mode, GRID_GAMMAS), GRID_DELTAS,
                                  [(1.0, 1.0, 1.0)])
            assert 0 < feasible < 71 * 25

    @pytest.mark.parametrize("mode", [kr.BLOCK, kr.PER_ROUND])
    def test_share_grid(self, mode):
        for n, q, gamma, delta in ((1e10, 0.005, 0.0123, 1e-4),
                                   (1e7, 0.03, 0.09, 2e-3)):
            for shares in (SHARE_GRID, SPLIT_AXIS):
                feasible = self.check(kr.RateTarget(n=n, q=q), self.CAPS,
                                      rule_rows(mode, [gamma]), [delta],
                                      shares)
                # small eps_s shares put eps_s below 4.2e-8: log2(0)
                assert 0 < feasible < len(shares)

    @pytest.mark.parametrize("mode", [kr.BLOCK, kr.PER_ROUND])
    def test_strict_caps(self, mode):
        # eps_s < 4.2e-8 at every split: the log correction's log2(0)
        target = kr.RateTarget(n=1e10, q=0.01)
        assert self.check(target, self.STRICT, rule_rows(mode, GRID_GAMMAS),
                          GRID_DELTAS, [(1.0, 1.0, 1.0)]) == 0
        assert self.check(target, self.STRICT, rule_rows(mode, [0.01]),
                          [1e-4], SHARE_GRID) == 0

    def test_invalid_inputs(self):
        # the masks optimize_rate's points reach (TestKernelContract)
        for mode in (kr.BLOCK, kr.PER_ROUND):
            assert self.check(
                kr.RateTarget(n=1e8, q=0.01), self.CAPS,
                rule_rows(mode, [0.3, 1.0]), [1e-3, 1.0],
                [(1.0, 1.0, 1.0)]) == 2
            # omega_exp below 3/4
            assert self.check(kr.RateTarget(n=1e8, q=0.2), self.CAPS,
                              rule_rows(mode, [0.3]), [1e-3],
                              [(1.0, 1.0, 1.0)]) == 0
        # fewer than one round is no target
        with pytest.raises(ValueError, match="n must be >= 1"):
            kr.RateTarget(n=0.5, q=0.01)

    def test_s_max_rows(self):
        """Block rows whose s_max is not ceil(1/gamma): from 1 to
        ceil(3/gamma), and s_max > 1 at gamma = 1, where every block is one
        round, so there is no tail and eps_t = 0 in every term; under the
        test caps and under a completeness cap of 1 - 1e-13, where the
        budget's eps_ec_complete passes 1 - 1e-12 and stays below 1."""
        rows = [(g, s) for g in (1.0, 0.3, 0.0123, 4e-4)
                for s in sorted({1, 2} | {s_rule(g / f)
                                          for f in (0.5, 1.5, 3.0)})]
        for caps, (n, q) in itertools.product(
                (self.CAPS, self.NEAR_ONE), ((1e10, 0.005), (1e7, 0.03))):
            feasible = self.check(kr.RateTarget(n=n, q=q), caps, rows,
                                  [1e-5, 1e-4, 2e-3], [(1.0, 1.0, 1.0)])
            assert 0 < feasible < 3 * len(rows)
        params = kr.ProtocolParams(1e10, 0.3, 0.85, 2e-3, 0.005)
        budget = kr._budget_for(self.NEAR_ONE, params, (1.0, 1.0, 1.0), 0.0)
        assert 1.0 - 1e-12 < budget.eps_ec_complete == (
            self.NEAR_ONE.completeness - self.NEAR_ONE.eps_ec) < 1.0

    def test_rows_with_and_without_tail(self):
        """One grid that mixes rows with a tail and rows without one
        (s_max = 1, and gamma = 1 with s_max > 1), interleaved, at several
        splits: the kernel meets _eval_point and the scalar reference; a
        row without a tail picks candidate 0, eps_t = 0, and a row with one
        pays +inf there; and each row's values and picks are bit-equal to
        those of the row scored alone."""
        rows = [(0.3, 4), (1.0, 3), (0.0123, 1), (0.0123, 90), (1.0, 1),
                (4e-4, 2500), (0.3, 1)]
        assert 0 < sum(has_tail(*row) for row in rows) < len(rows)
        target = kr.RateTarget(n=1e10, q=0.005)
        shares = [(1.0, 1.0, 1.0), (10.0, 10.0, 1.0), (0.1, 1.0, 1.0)]
        deltas = [1e-5, 1e-4, 2e-3]
        assert 0 < self.check(target, self.CAPS, rows, deltas, shares) \
            < len(rows) * len(deltas) * len(shares)
        values, paid = grid_kernel(target, self.CAPS, rows, deltas, shares)
        picks = paid.argmin(axis=0)
        for i, row in enumerate(rows):
            if has_tail(*row):
                assert np.all(paid[0, i] == math.inf)
            else:
                assert np.all(picks[i] == 0)
            alone, alone_paid = grid_kernel(target, self.CAPS, [row], deltas,
                                            shares)
            assert np.array_equal(values[i], alone[0])
            assert np.array_equal(picks[i], alone_paid.argmin(axis=0)[0])

    def check_oracle(self, got, want):
        """The key length is at least the golden-section reference's, less
        1e-9 relative, and the optimum is on no edge of its box but the
        feasibility edges."""
        assert got.key_length >= want.key_length - 1e-9 * max(
            abs(want.key_length), 1.0)
        assert got.extras["at_bound"] is False

    @pytest.mark.parametrize("mode", [kr.BLOCK, kr.PER_ROUND])
    def test_optimizer_matches_scalar_reference(self, mode):
        for n, q in ORACLE_TARGETS:
            got = kr.optimize_rate(kr.RateTarget(n=n, q=q), self.CAPS,
                                   mode=mode)
            self.check_oracle(got, reference_result(n, q, mode))

    def test_rescoring_under_kernel_noise(self, monkeypatch):
        """A kernel off by seeded noise of 1e-12 relative, its own error
        scale, still meets the oracle within the scalar call budget, and
        two noise seeds report the same points: the picks turn on band
        membership, not on the kernel's rounding."""
        kernel, eval_point = kr._grid_key_lengths, kr._eval_point
        calls = []
        cases = [(n, q, mode) for mode in (kr.BLOCK, kr.PER_ROUND)
                 for n, q in ACCEPTANCE_TARGETS]
        wants = [reference_result(*case) for case in cases]

        def counting(*args):
            calls.append(args)
            return eval_point(*args)

        monkeypatch.setattr(kr, "_eval_point", counting)
        reports = []
        for seed in (20261018, 20261019):
            rng = np.random.default_rng(seed)

            def noisy(*args):
                return tuple(a * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0,
                                                            a.shape))
                             for a in kernel(*args))

            monkeypatch.setattr(kr, "_grid_key_lengths", noisy)
            for (n, q, mode), want in zip(cases, wants):
                calls.clear()
                got = kr.optimize_rate(kr.RateTarget(n=n, q=q), self.CAPS,
                                       mode=mode)
                assert len(calls) <= TestOptimizeRate.SCALAR_EVAL_BUDGET
                self.check_oracle(got, want)
                reports.append(got.to_json_dict())
        assert reports[:len(cases)] == reports[len(cases):]


class TestKernelContract:
    """optimize_rate hands the grid kernel only points inside its contract,
    for n from 1 to 1e15 in both modes under the test caps: gammas in
    (0, 1], delta_est > 0 and positive, finite shares.  delta_est >= 1
    does occur, at small n, which is why the kernel still masks it."""

    def test_optimizer_points_in_contract(self, monkeypatch):
        rows, deltas, shares = {kr.BLOCK: [], kr.PER_ROUND: []}, {}, []
        kernel, axis = kr._grid_key_lengths, kr._share_axis
        mode = None

        def kernel_spy(target, caps, r, d, s):
            rows[mode].extend(r)
            deltas.setdefault(target.n, []).extend(d)
            return kernel(target, caps, r, d, s)

        def axis_spy(caps, s):
            shares.extend(s)
            return axis(caps, s)

        monkeypatch.setattr(kr, "_grid_key_lengths", kernel_spy)
        monkeypatch.setattr(kr, "_share_axis", axis_spy)
        for caps in (TestGridKernel.CAPS, TestGridKernel.STRICT,
                     TestBudgetTermsFirst.TINY_EPS_S):
            for mode in (kr.BLOCK, kr.PER_ROUND):
                for n, q in ((10.0**k, q) for k in range(16)
                             for q in (0.0, 0.02)):
                    error = raised(lambda: kr.optimize_rate(
                        kr.RateTarget(n=n, q=q), caps, mode=mode))
                    assert error in (None, (ValueError, "no feasible "
                                            "parameter point under the caps"))
        assert len(deltas) == 16 and len(rows[kr.BLOCK]) > 1000
        assert all(0 < g <= 1 for r in rows.values() for g, _ in r)
        assert all(isinstance(s, int) and s >= 1 for _, s in rows[kr.BLOCK])
        assert {s for _, s in rows[kr.PER_ROUND]} == {1}
        assert max(s for _, s in rows[kr.BLOCK]) > 1
        assert all(math.isfinite(x) and x > 0 for sh in shares for x in sh)
        assert all(d > 0 for ds in deltas.values() for d in ds)
        assert max(d for n, ds in deltas.items() if n <= 100 for d in ds) >= 1


# the grid kernel's targets and the acceptance targets, each once
ORACLE_TARGETS = TestGridKernel.TARGETS + [
    t for t in ACCEPTANCE_TARGETS if t not in TestGridKernel.TARGETS]


# the scalar secrecy bound, entry by entry
secrecy_bound_each = np.vectorize(entropy.secrecy_bound, otypes=[float])


def reference_grid_key_lengths(target, caps, rows, deltas, shares):
    """The grid kernel before it computed each term at the shape of its own
    inputs: per-axis rows from public scalar functions in Python loops
    (log2 d_O from the exact integer), every term on the full ((gamma,
    s_max), delta_est, share, eps_t) array, the key-length terms from
    key_length_oracle, summed in the scalar path's order, masked, then
    maximized over eps_t; eps_t is 0 on the rows whose blocks are all one
    round (s_max = 1 or gamma = 1)."""
    omega, _ = kr.honest_werner(2.0 * target.q)
    n = target.n
    shape = (len(rows), len(deltas), len(shares))
    if not (n >= 1 and entropy.OMEGA_CLASSICAL <= omega
            <= entropy.OMEGA_QUANTUM + 1e-12 and 0 <= target.q <= 0.5
            and 0 < caps.eps_ec < 1):
        return np.full(shape, -np.inf)

    def column(rows, axis):
        dims = [1, 1, 1, 1]
        dims[axis] = -1
        return [np.array(c).reshape(dims) for c in zip(*rows)]

    h_q, h_omega = entropy.binary_entropy(target.q), entropy.binary_entropy(
        omega)
    terms = []
    for gamma, s_max in rows:
        ok = 0 < gamma <= 1
        gamma = gamma if ok else 1.0
        block = eat.BlockSpec(gamma, s_max)
        scale, sbar = block.test_mass, eat.expected_block_length(block)
        lo, hi = eat.cut_interval(scale)
        terms.append((ok and lo < hi, gamma, block.s_max, scale, sbar,
                      n / sbar, math.log2(1 + 2 * 6**block.s_max), lo, hi))
    gamma_ok, gamma, s_max, scale, sbar, m, log2_do, lo, hi = column(terms, 0)
    tail = (s_max > 1) & (gamma < 1)
    rows = []
    for delta in deltas:
        ecc = caps.completeness - caps.eps_ec - eat.hoeffding(n, delta)
        if 0 < delta < 1 and ecc > caps.eps_ec:
            rows.append((True, delta, ecc - caps.eps_ec))
        else:
            rows.append((False, 0.5, 0.5))
    delta_ok, delta, prime = column(rows, 1)
    s_free = caps.soundness - 2.0 * caps.eps_ec
    rows = []
    for sh in shares:
        w = sum(sh)
        eps_s, eps_ea, eps_pa = (s_free * x / w for x in sh)
        row = (False, 0.25, 0.5, 0.0, 0.0, 0.0)
        if 0 < eps_s < 1 and 0 < eps_ea < 1 and 0 < eps_pa < 1:
            try:
                eps = eat.EatEpsilons(eps_s / 4.0, eps_ea + caps.eps_ec)
                row = (True, eps.eps_s, eps.eps_e,
                       oracle.log_correction(eps_s, math),
                       oracle.pa_term(eps_pa, math), eps.eps_s**2)
            except ValueError:
                pass
        rows.append(row)
    share_ok, es4, eps_e, log_corr, pa, cap_t = column(rows, 2)
    eps_t = np.where(tail, cap_t * np.array([10.0 ** (-k) for k in range(
        1, kr.EPS_T_CANDIDATE_DECADES)]), 0.0)
    with np.errstate(all="ignore"):
        p1 = omega * scale - delta
        ratio = p1 / scale
        ok = (gamma_ok & delta_ok & share_ok
              & (ratio >= entropy.OMEGA_CLASSICAL) & (ratio <= 1.0))
        k_pen = oracle.penalty(es4, eps_e, m, np)
        cut = np.minimum(np.maximum(p1 - k_pen, lo), hi)
        slope = sbar * bound_oracle._slope(cut / scale, np) / scale
        at_cut = sbar * secrecy_bound_each(cut / scale)
        glued = at_cut + slope * (p1 - cut)
        f_min = np.where(p1 <= cut, sbar * secrecy_bound_each(ratio), glued)
        entropy_term = m * (f_min - k_pen * (log2_do + slope))
        # Hoeffding over block lengths in [1, s_max]
        t = np.where(tail, (s_max - 1.0) * np.sqrt(-m * np.log(eps_t) / 2.0),
                     0.0)
        n_eff = n + t
        leak = oracle.leak(n_eff, gamma, h_q, h_omega, prime, caps.eps_ec,
                           eps_t, np)
        max_ent = oracle.max_entropy(n_eff, gamma, es4 - np.sqrt(eps_t),
                                     eps_e, np)
        ell = oracle.total(entropy_term, leak, log_corr, max_ent, pa)
    ok = ok & (prime - 2.0 * np.sqrt(eps_t) > 0)
    return np.where(ok, ell, -np.inf).max(axis=3)


def below_cut_count(target, caps, rows, deltas, shares):
    """Feasible points whose statistic p~1 is at or below the scalar
    optimum's cut, where the glued function is the secrecy bound itself."""
    count = 0
    for g, s_max in rows:
        for d in deltas:
            for sh in shares:
                point = scalar_point(target, caps, g, s_max, d, sh)
                if point is not None:
                    p1 = (point.params.omega_exp
                          * eat.BlockSpec(g, point.s_max).test_mass - d)
                    count += p1 <= point.best_cut
    return count


class TestKernelOracle:
    """The shape-true kernel against reference_grid_key_lengths on seeded
    random grids: the same -inf mask, values within 1e-11 max(|ref|, 1)."""

    CAPS = TestGridKernel.CAPS
    STRICT = TestGridKernel.STRICT
    # masked, and reached by optimize_rate's zoom at small n
    BAD_DELTA = 1.0

    def check(self, target, caps, rows, deltas, shares):
        got, paid = grid_kernel(target, caps, rows, deltas, shares)
        want = reference_grid_key_lengths(target, caps, rows, deltas, shares)
        assert got.shape == want.shape
        feasible = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), feasible)
        assert np.all(got[~feasible] == -math.inf)
        gap = np.abs(got[feasible] - want[feasible])
        assert np.all(gap <= 1e-11 * np.maximum(np.abs(want[feasible]), 1.0))
        return got

    def random_grid(self, rng):
        """(target, caps, mode, rows, deltas, shares): n from 1e5 to 1e15,
        QBER up to 0.04, gamma = 1 beside gammas below 1 in most grids,
        s_max = ceil(f / gamma) with f log-uniform from 0.3 to 3 in block
        mode (1 per round), and delta_est = 1 in some."""
        target = kr.RateTarget(n=float(10.0 ** rng.uniform(5.0, 15.0)),
                               q=float(rng.uniform(0.0, 0.04)))
        mode = kr.BLOCK if rng.random() < 0.6 else kr.PER_ROUND
        gammas = [float(g) for g in 10.0 ** rng.uniform(
            -4.0, 0.0, rng.integers(1, 30))]
        if rng.random() < 0.7:
            gammas.insert(int(rng.integers(len(gammas) + 1)), 1.0)
        deltas = [float(d) for d in 10.0 ** rng.uniform(
            -6.0, -1.0, rng.integers(1, 15))]
        shares = [tuple(float(x) for x in 10.0 ** rng.uniform(-2.0, 2.0, 3))
                  for _ in range(rng.integers(1, 5))]
        if rng.random() < 0.25:
            deltas.append(self.BAD_DELTA)
        caps = self.STRICT if rng.random() < 0.1 else self.CAPS
        f = 10.0 ** rng.uniform(-0.5, 0.5, len(gammas))
        rows = [(g, s_rule(g / x) if mode == kr.BLOCK else 1)
                for g, x in zip(gammas, f)]
        return target, caps, mode, rows, deltas, shares

    def test_random_grids(self):
        rng = np.random.default_rng(20261018)
        grids = [self.random_grid(rng) for _ in range(120)]
        kinds = {"block": 0, "per-round": 0, "mixed gamma = 1": 0,
                 "s_max > 1 at gamma = 1": 0, "strict": 0, "invalid": 0,
                 "feasible": 0}
        for target, caps, mode, rows, deltas, shares in grids:
            got = self.check(target, caps, rows, deltas, shares)
            gammas = [g for g, _ in rows]
            kinds[mode] += 1
            kinds["mixed gamma = 1"] += 1.0 in gammas and min(gammas) < 1.0
            kinds["s_max > 1 at gamma = 1"] += (1.0, 1) not in rows \
                and 1.0 in gammas
            kinds["invalid"] += self.BAD_DELTA in deltas
            kinds["feasible"] += bool(np.isfinite(got).any())
            if caps is self.STRICT:
                kinds["strict"] += 1
                # eps_s < 4.2e-8 at every split: the log correction's log2(0)
                assert np.all(got == -math.inf)
        assert min(kinds.values()) >= 5, kinds

    def test_picks_match_scalar_sweep(self):
        """At every feasible block point of seeded random grids, the
        kernel's eps_t pick, the first minimum of ``paid``, is the scalar
        sweep's first strict maximum, 0 without a tail (scalar_point)."""
        rng = np.random.default_rng(20261019)
        checked = 0
        while checked < 1000:
            target, caps, mode, rows, deltas, shares = self.random_grid(rng)
            if mode != kr.BLOCK:
                continue
            values, paid = grid_kernel(target, caps, rows, deltas, shares)
            for i, j, k in zip(*np.nonzero(np.isfinite(values))):
                want = scalar_point(target, caps, *rows[i], deltas[j],
                                    shares[k])
                assert int(paid[:, i, j, k].argmin()) == \
                    want.extras.get("eps_t_index", 0)
                checked += 1

    def test_below_cut(self):
        """Where p~1 sits at or below its cut the scalar path takes the
        secrecy bound itself, and the kernel keeps the glued function's
        tangent: within the same 1e-11 max(|ref|, 1) of the oracle's exact
        branch, on grids with some but not all feasible points there, and
        on grids with none.  The cut is clamp(p~1 - K) >= p~1 only where
        p~1 sits on the cut interval's lower end, within 1e-9 mass of the
        classical bound: there the statistic is p~1 = mass (3/4 + 5e-10).
        n runs from 1e6 to 1e15, gamma down to 4.1e-5."""
        for n, gammas in ((1e6, [1.0, 0.5, 0.3]), (1e15, [1.0, 0.5, 4.1e-5])):
            target = kr.RateTarget(n=n, q=0.02)
            omega, _ = kr.honest_werner(2.0 * target.q)
            for mode in (kr.BLOCK, kr.PER_ROUND):
                rows = rule_rows(mode, gammas)
                edge = [(omega - 0.75 - 5e-10) * eat.BlockSpec(
                    *row).test_mass for row in rows]
                inner = [1e-6, 0.003, 0.03]
                args = (target, self.CAPS, rows, edge + inner,
                        [(1.0, 1.0, 1.0)])
                got = self.check(*args)
                assert 0 < below_cut_count(*args) < np.isfinite(got).sum()
                args = (target, self.CAPS, rows, inner,
                        [(1.0, 1.0, 1.0)])
                got = self.check(*args)
                assert below_cut_count(*args) == 0 < np.isfinite(got).sum()

    def test_completeness_slack_edge(self):
        """delta_est whose Hoeffding term leaves eps_ec_prime between 1e-13
        and 1e-7, where eps_ec_prime - 2 sqrt(eps_t) changes sign along the
        eps_t candidates: a row with a tail loses every candidate at 1e-13,
        while gamma = 1, whose leakage takes eps_t = 0, keeps the point."""
        sweep = TestEpsTSweep()
        deltas = [sweep.delta_leaving(p)
                  for p in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-7)]
        for mode in (kr.BLOCK, kr.PER_ROUND):
            args = (sweep.TARGET, sweep.CAPS,
                    rule_rows(mode, [1.0, 0.5, 0.01]), deltas,
                    [(1.0, 1.0, 1.0)])
            got = self.check(*args)
            assert TestGridKernel().check(*args) == np.isfinite(got).sum()
            feasible = np.isfinite(got[:, 0, 0]).tolist()
            assert feasible == ([True, False, False] if mode == kr.BLOCK
                                else [True, True, True])


# the block length caps of the dense scan, s_max = ceil(f / gamma)
SCAN_S_FACTORS = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


def dense_scan(target, caps, mode):
    """The best key length on a dense grid over a wide box, rescored with
    the scalar reference (scalar_point) at the row's s_max: gamma
    log-spaced at 16 per decade from 1e-5 to 1, each with s_max =
    ceil(f / gamma) for every f in SCAN_S_FACTORS in block mode (1 per
    round); delta_est log-spaced at 16 per decade from delta_min to 0.1;
    the splits (r, r, 1), r at 3 per decade from 1 to 1e9; then at the
    kernel's best (gamma, s_max, delta_est) every split (r_s, r_e, 1), both
    at 3 per decade from 1e-2 to 1e10.  The ten best kernel points are
    rescored."""
    gammas = kr._log_grid(1e-5, 1.0, 16)
    rows = ([(g, s_rule(g / f)) for g in gammas for f in SCAN_S_FACTORS]
            if mode == kr.BLOCK else rule_rows(mode, gammas))
    delta_min = math.sqrt(math.log(1.0 / (
        caps.completeness - 2.0 * caps.eps_ec)) / (2.0 * target.n))
    deltas = kr._log_grid(delta_min * (1.0 + 1e-9), 0.1, 16)
    best = []
    for k in range(28):
        shares = (10.0 ** (k / 3), 10.0 ** (k / 3), 1.0)
        values = grid_kernel(target, caps, rows, deltas,
                             [shares])[0][:, :, 0]
        for i in np.argsort(values, axis=None)[-10:]:
            best.append((values.flat[i], rows[i // len(deltas)],
                         deltas[i % len(deltas)], shares))
    best = sorted(best)[-10:]
    _, row, delta, _ = best[-1]
    splits = [(10.0 ** (i / 3), 10.0 ** (j / 3), 1.0)
              for i in range(-6, 31) for j in range(-6, 31)]
    values = grid_kernel(target, caps, [row], [delta],
                         splits)[0][0, 0]
    for i in np.argsort(values)[-10:]:
        best.append((values[i], row, delta, splits[i]))
    return max(scalar_key_length(target, caps, *row, delta, shares)
               for _, row, delta, shares in best)


# the oracle targets and four more, 15 in all
SCAN_TARGETS = ORACLE_TARGETS + [(1e9, 0.01), (1e7, 0.0638), (1e11, 0.02),
                                 (1e13, 0.04)]


class TestDenseScanOracle:
    CAPS = TestGridKernel.CAPS

    @pytest.mark.parametrize("mode", [kr.BLOCK, kr.PER_ROUND])
    def test_optimizer_meets_dense_scan(self, mode):
        """No point of a wide dense scan beats the optimizer by more than
        1e-9 relative: its boxes, set by the caps and the rate, cut off no
        direction the scan can see."""
        assert len(SCAN_TARGETS) == len(set(SCAN_TARGETS)) >= 15
        for n, q in SCAN_TARGETS:
            target = kr.RateTarget(n=n, q=q)
            got = kr.optimize_rate(target, self.CAPS, mode=mode)
            want = dense_scan(target, self.CAPS, mode)
            assert got.key_length >= want - 1e-9 * max(abs(want), 1.0), (
                n, q, got.key_length, want)
            assert got.extras["at_bound"] is False
