import math
from dataclasses import replace

import pytest

from di_toolkit import entropy, keyrates as kr


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

    def test_soundness_sum(self):
        b = make_budget()
        assert b.soundness_error == pytest.approx(
            2 * b.eps_ec + b.eps_pa + b.eps_s + b.eps_ea)


class TestLeakEc:
    def test_first_order_generation_only(self):
        # gamma -> 0: per-round leakage approaches h(Q)
        params = make_params(n=1e12, gamma=1e-9, q=0.02)
        leak = kr.leak_ec(params.n, params, 5e-3, 1e-10)
        assert leak / params.n == pytest.approx(
            entropy.binary_entropy(params.q), abs=1e-4)

    def test_zero_qber_generation_only(self):
        params = make_params(n=1e12, gamma=1e-9, q=0.0)
        omega, _ = kr.honest_werner(0.0)
        leak = kr.leak_ec(params.n, params, 5e-3, 1e-10)
        assert leak / params.n == pytest.approx(0.0, abs=1e-4)

    def test_term_structure(self):
        params = make_params(n=1e10, gamma=1e-3, q=0.025)
        epsp, epsec = 1e-10, 1e-10
        leak = kr.leak_ec(params.n, params, epsp, epsec)
        first = params.n * ((1 - params.gamma)
                            * entropy.binary_entropy(params.q)
                            + params.gamma
                            * entropy.binary_entropy(params.omega_exp))
        second = math.sqrt(params.n) * 4 * math.log2(2 * math.sqrt(2) + 1) \
            * math.sqrt(2 * math.log2(8 / epsp**2))
        third = math.log2(8 / epsp**2 + 2 / (2 - epsp))
        fourth = math.log2(1 / epsec)
        assert leak == pytest.approx(first + second + third + fourth)

    def test_eps_t_shift_increases_leak(self):
        params = make_params()
        base = kr.leak_ec(params.n, params, 5e-3, 1e-10)
        shifted = kr.leak_ec(params.n, params, 5e-3, 1e-10, eps_t=1e-8)
        assert shifted > base

    def test_eps_t_too_large(self):
        params = make_params()
        with pytest.raises(ValueError):
            kr.leak_ec(params.n, params, 1e-5, 1e-10, eps_t=1e-6)


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

    def test_negative_length_reported(self):
        report = kr.key_length(make_params(n=1e4, q=0.04, delta=1e-2),
                               make_budget())
        assert report.key_length < 0
        assert report.rate < 0


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

    def test_rate_curve_ordering_and_monotonicity(self):
        grid = [0.005, 0.02, 0.035]
        reports = kr.rate_curve("q", grid, {"n": 1e9, "q": None}, self.CAPS,
                                mode=kr.BLOCK)
        rates = [r.rate for r in reports]
        assert rates[0] > rates[1] > rates[2]

    def test_rate_monotone_in_n(self):
        grid = [1e8, 1e9]
        reports = kr.rate_curve("n", grid, {"q": 0.02, "n": None}, self.CAPS,
                                mode=kr.BLOCK)
        assert reports[0].rate < reports[1].rate

    def test_eps_t_provenance(self):
        for n, index in ((1e15, 0), (1e10, 1)):
            report = kr.optimize_rate(kr.RateTarget(n=n, q=0.005), self.CAPS,
                                      mode=kr.BLOCK)
            cap_t = (report.budget.eps_s / 4.0) ** 2
            assert report.extras["eps_t_index"] == index
            assert report.extras["eps_t_at_bound"] == (index == 0)
            assert report.budget.eps_t == cap_t * 10.0 ** (-(index + 1))


def sweep_oracle(target, caps, gamma, delta, shares):
    """_eval_point's block-mode eps_t sweep as one full key_length_block
    call per candidate, keeping the first strict maximum."""
    omega, _ = kr.honest_werner(2.0 * target.q)
    try:
        params = kr.ProtocolParams(target.n, gamma, omega, delta, target.q)
    except ValueError:
        return None
    s_max = max(int(math.ceil(1.0 / gamma - 1e-9)), 1)
    base = kr._budget_for(caps, params, shares, 0.0)
    if base is None:
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
    return best


class TestEpsTSweep:
    CAPS = kr.RateCaps(soundness=1e-5, completeness=1e-2, eps_ec=1e-10)
    STRICT = kr.RateCaps(soundness=1e-9, completeness=1e-2, eps_ec=1e-12)
    TARGET = kr.RateTarget(n=1e10, q=0.005)

    def delta_leaving(self, eps_ec_prime):
        """delta_est whose Hoeffding term leaves eps_ec_complete - eps_ec
        close to ``eps_ec_prime``."""
        hoeffding = self.CAPS.completeness - 2 * self.CAPS.eps_ec - eps_ec_prime
        return math.sqrt(-math.log(hoeffding) / (2.0 * self.TARGET.n))

    def check(self, caps, gamma, delta, shares):
        got = kr._eval_point(self.TARGET, caps, kr.BLOCK, gamma, delta, shares)
        want = sweep_oracle(self.TARGET, caps, gamma, delta, shares)
        if want is None:
            assert got is None
            return None
        assert got.key_length == want.key_length
        assert got.budget.eps_t == want.budget.eps_t
        assert got.best_cut == want.best_cut
        assert got.to_json_dict() == want.to_json_dict()
        extras = dict(got.extras)
        index = extras.pop("eps_t_index")
        assert extras.pop("eps_t_at_bound") == (index == 0)
        assert extras == want.extras
        return got

    def test_matches_full_key_length_per_candidate(self, rng):
        kept = 0
        for _ in range(30):
            gamma = 1.0 if rng.random() < 0.2 else float(
                10.0 ** rng.uniform(-3.5, 0.0))
            delta = float(10.0 ** rng.uniform(-5.0, -1.5))
            shares = tuple(float(10.0 ** rng.uniform(-2.0, 2.0))
                           for _ in range(3))
            kept += self.check(self.CAPS, gamma, delta, shares) is not None
        assert kept >= 10

    def test_gamma_one(self):
        report = self.check(self.CAPS, 1.0, 1e-4, (1.0, 1.0, 1.0))
        assert report.s_max == 1 and report.extras["tail_t"] == 0.0

    def test_some_candidates_raise(self):
        # eps_ec_prime ~ 1e-9 < 2 sqrt(eps_t) for the largest candidates
        report = self.check(self.CAPS, 0.01, self.delta_leaving(1e-9),
                            (1.0, 1.0, 1.0))
        assert report.extras["eps_t_index"] > 0

    def test_every_candidate_raises(self):
        # eps_ec_prime ~ 1e-13 < 2 sqrt(eps_t) for every candidate
        delta = self.delta_leaving(1e-13)
        assert self.check(self.CAPS, 0.01, delta, (1.0, 1.0, 1.0)) is None

    def test_fixed_terms_raise(self):
        # statistic below the classical bound: mu_block_opt raises
        assert self.check(self.CAPS, 0.01, 0.1, (1.0, 1.0, 1.0)) is None
        # eps_s < 4.2e-8: the log correction raises
        assert self.check(self.STRICT, 0.01, 1e-4, (0.01, 1.0, 1.0)) is None
