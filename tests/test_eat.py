import math

import numpy as np
import pytest

import bound_oracle
import key_length_oracle
from bound_oracle import secrecy_bound_slope
from di_toolkit import eat, keyrates
from di_toolkit.entropy import OMEGA_CLASSICAL, OMEGA_QUANTUM, secrecy_bound
from conftest import round_count_law
from reference_curves import MU_OPT_CURVES

# per-round output dimension |AB| with B in {0,1,bot}: log2(1 + 2*6)
LOG2_13 = math.log2(13.0)


def reference_mu_round(p1, gamma, cut, eps, n):
    """The per-round entropy rate in its own text, kept as the oracle of the
    block functions at s_max = 1: g(p1) = secrecy_bound(p1/gamma) up to the
    cut, the tangent a p1 + b above it, minus
    K (log2 13 + a), K = (2/sqrt(n)) sqrt(1 - 2 log2(eps_s eps_e)) from
    key_length_oracle.

    Returns (rate, f_min, size), size being the sum of the magnitudes of
    the terms added up: the scale of this text's own rounding (the rate
    crosses zero, and a p1 + b cancels when the slope a is large)."""
    ratio = p1 / gamma
    if ratio < OMEGA_CLASSICAL - 1e-12 or ratio > 1.0 + 1e-12:
        raise ValueError(f"p1/gamma = {ratio} outside [3/4, 1]")
    a = secrecy_bound_slope(cut / gamma) / gamma
    if p1 <= cut:
        f = secrecy_bound(ratio)
        size = abs(f)
    else:
        b = secrecy_bound(cut / gamma) - a * cut
        f = a * p1 + b
        size = abs(a * p1) + abs(b)
    penalty = key_length_oracle.penalty(eps.eps_s, eps.eps_e, n, math) * (
        LOG2_13 + a)
    return f - penalty, f, size + penalty


def f_min_block_slope(block, cut):
    """Max gradient of the glued per-block function: its slope at the cut."""
    return eat._tradeoff(cut, block.gamma, block.s_max, block.test_mass, cut,
                         0.0)[1]


def _one_round(gamma):
    return eat.BlockSpec(gamma, 1)


class TestSpecs:
    def test_tradeoff_spec_range(self):
        eat.TradeoffSpec(0.5, 0.5 * 0.8)
        with pytest.raises(ValueError):
            eat.TradeoffSpec(0.5, 0.5 * 0.7)
        with pytest.raises(ValueError):
            eat.TradeoffSpec(0.5, 0.5 * 0.99)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            eat.EatEpsilons(0.0, 0.5)

    def test_block_spec(self):
        with pytest.raises(ValueError):
            eat.BlockSpec(0.5, 0)

    @pytest.mark.parametrize("gamma, s_max", [(2.0**-54, 2), (1e-17, 2),
                                              (1e-17, 10**17)])
    def test_block_spec_refuses_zero_test_mass(self, gamma, s_max):
        """1 - gamma rounds to 1, so 1 - (1-gamma)^s_max is 0: s_bar once
        read 0 and the key length's n / s_bar raised ZeroDivisionError."""
        with pytest.raises(ValueError, match="^gamma too small"):
            eat.BlockSpec(gamma, s_max)

    def test_smallest_gammas_with_a_test_mass(self):
        """One-round blocks keep gamma as the test mass at any gamma, and
        gamma = 2^-53 still has 1 - gamma < 1."""
        assert eat.BlockSpec(1e-17, 1).test_mass == 1e-17
        assert eat.BlockSpec(2.0**-53, 2).test_mass == 2.0**-52

    @pytest.mark.parametrize("s_max", [2.5, math.nan, math.inf, True, False])
    def test_block_spec_rejects_non_integer_s_max(self, s_max):
        """2.5 and inf were accepted (the simulator then failed in numpy),
        nan failed as a statistic outside the domain, and True was taken as
        s_max = 1."""
        with pytest.raises(ValueError, match="^s_max must be an integer"):
            eat.BlockSpec(0.1, s_max)


class TestG:
    """The glued function of one-round blocks below its cut is the secrecy
    bound in p1 / gamma."""

    def test_endpoints(self):
        # zero at the classical value; 1 as the cut nears the quantum optimum
        top = 0.4 * (OMEGA_QUANTUM - 1e-12)
        assert eat.f_min_block(0.75 * 0.4, _one_round(0.4), 0.4 * 0.8) == \
            pytest.approx(0.0, abs=1e-12)
        assert eat.f_min_block(top, _one_round(0.4), top) == pytest.approx(
            1.0, abs=1e-9)

    def test_composition(self):
        assert eat.f_min_block(0.8 * 0.3, _one_round(0.3), 0.82 * 0.3) == \
            pytest.approx(secrecy_bound(0.8))

    def test_domain(self):
        with pytest.raises(ValueError):
            eat.f_min_block(0.5 * 0.7, _one_round(0.5), 0.5 * 0.8)

    @pytest.mark.parametrize("call", [
        lambda: eat.f_min_block(math.nan, eat.BlockSpec(0.5, 2), 0.6),
        lambda: eat.f_min(math.nan, eat.TradeoffSpec(0.5, 0.4))],
        ids=["f_min_block", "f_min"])
    def test_nan_statistic_rejected(self, call):
        # a NaN statistic once passed the range check and gave nan
        with pytest.raises(ValueError, match="^normalized statistic nan "):
            call()


class TestGSlope:
    def test_positive_on_interior(self):
        for ratio in np.linspace(0.76, 0.85, 30):
            assert f_min_block_slope(_one_round(0.7), ratio * 0.7) > 0

    def test_finite_difference_agreement(self):
        h = 1e-8
        gamma = 0.6
        block, top = _one_round(gamma), 0.85 * gamma
        for ratio in np.linspace(0.77, 0.84, 20):
            cut = ratio * gamma
            numeric = (eat.f_min_block(cut + h, block, top)
                       - eat.f_min_block(cut - h, block, top)) / (2 * h)
            assert f_min_block_slope(block, cut) == pytest.approx(
                numeric, rel=1e-6)

    def test_divergence_at_upper_edge(self):
        block = _one_round(1.0)
        slopes = [f_min_block_slope(block, OMEGA_QUANTUM - delta)
                  for delta in (1e-2, 1e-4, 1e-6)]
        assert slopes[0] < slopes[1] < slopes[2]
        with pytest.raises(ValueError):
            f_min_block_slope(block, OMEGA_QUANTUM)


class TestFMin:
    def test_matches_g_below_cut(self):
        block = _one_round(1.0)
        for p1 in np.linspace(0.7501, 0.8199, 20):
            assert eat.f_min_block(p1, block, 0.82) == secrecy_bound(p1)

    def test_c1_at_cut(self):
        block = _one_round(1.0)
        h = 1e-9

        def f(p1):
            return eat.f_min_block(p1, block, 0.82)
        left = (f(0.82) - f(0.82 - h)) / h
        right = (f(0.82 + h) - f(0.82)) / h
        assert left == pytest.approx(right, rel=1e-4)
        assert f(0.82 + 1e-12) == pytest.approx(f(0.82), abs=1e-10)

    def test_below_g_on_achievable_branch(self, rng):
        # tangent of a convex function stays below it; above the quantum
        # optimum g flattens at 1 while the tangent keeps rising, but no
        # state reaches that region so the bound is not required there
        for _ in range(20):
            gamma = float(rng.uniform(0.2, 1.0))
            cut = gamma * float(rng.uniform(0.7501, 0.8534))
            block = _one_round(gamma)
            for p1 in np.linspace(gamma * 0.7501,
                                  gamma * (OMEGA_QUANTUM - 1e-9), 500):
                assert eat.f_min_block(p1, block, cut) <= \
                    secrecy_bound(p1 / gamma) + 1e-12

    def test_convex_continuous(self):
        block = _one_round(1.0)
        xs = np.linspace(0.7501, 0.9999, 10_000)
        ys = np.array([eat.f_min_block(x, block, 0.80) for x in xs])
        assert np.all(np.abs(np.diff(ys)) < 1e-2)  # continuity at this grid
        assert np.all(np.diff(ys, 2) > -1e-9)  # convexity


class TestPerRoundReference:
    def test_test_mass_of_one_round_blocks(self, rng):
        for gamma in [1.0, 0.5, 0.1, 1e-4] + list(10.0 ** rng.uniform(
                -4.0, 0.0, size=100)):
            assert _one_round(float(gamma)).test_mass == gamma

    def test_rate_against_reference(self, rng):
        """mu_opt and mu_block_opt at s_max = 1 agree with
        reference_mu_round within 1e-14 of the size of its terms, and pick
        its cut clamp(p1 - K) exactly."""
        ends = set()
        for i in range(240):
            gamma = float(10.0 ** rng.uniform(-4.0, 0.0))
            n = float(10.0 ** rng.uniform(1.0, 13.0))
            es, ee = (float(e) for e in 10.0 ** rng.uniform(-10.0, -2.0,
                                                             size=2))
            eps = eat.EatEpsilons(es, ee)
            # every fourth point has omega_exp up to 1 and a tiny delta_est,
            # which pushes p1 - K above the cut interval
            if i % 4:
                omega = float(rng.uniform(0.76, OMEGA_QUANTUM))
                delta = float(rng.uniform(0.0, 0.9 * (omega - 0.75) * gamma))
            else:
                omega = float(rng.uniform(0.76, 1.0))
                delta = float(rng.uniform(0.0, 1e-6)) * gamma
            p1 = omega * gamma - delta
            k_pen = key_length_oracle.penalty(es, ee, n, math)
            lo = gamma * OMEGA_CLASSICAL + 1e-9 * gamma
            hi = gamma * OMEGA_QUANTUM - 1e-9 * gamma
            cut = min(max(p1 - k_pen, lo), hi)
            ends.add("low" if cut == lo else "high" if cut == hi
                     else "inside")
            want, _, size = reference_mu_round(p1, gamma, cut, eps, n)
            block = _one_round(gamma)
            for value, at in (eat.mu_opt(omega, delta, gamma, n, eps),
                              eat.mu_block_opt(omega, delta, block, n, eps)):
                assert at == cut
                assert abs(value - want) <= 1e-14 * size
        assert ends == {"low", "inside", "high"}


def _tradeoff_outcome(fn, args):
    """The three floats of a glued-function call as hex, or the exception
    it raised as (type, message)."""
    try:
        return tuple(x.hex() for x in fn(*args))
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestTradeoffReference:
    """_tradeoff takes g and g' at its cut from one root; the retired text
    (tests/bound_oracle.py) took them from secrecy_bound and
    secrecy_bound_slope.  The numbers and the errors are the same, bit for
    bit."""

    def test_matches_retired_text_bitwise(self, rng):
        c, q = OMEGA_CLASSICAL, OMEGA_QUANTUM
        seen = {}
        for i in range(12000):
            gamma = float(10.0 ** rng.uniform(-4.0, 0.0))
            s_max = int(rng.integers(1, 41))
            mass = eat._block_mass(gamma, s_max)
            ratio = float(rng.uniform(c - 1e-2, 1.0 + 1e-2))
            if i % 10 == 0:
                # cuts within 1e-12 of either end of the open regime
                end = c if i % 20 == 0 else q
                cut_ratio = end + float(rng.uniform(-1e-12, 1e-12))
            elif i % 10 == 1:
                cut_ratio = ratio + float(rng.uniform(0.0, 1e-3))
            else:
                cut_ratio = float(rng.uniform(c - 5e-3, q + 5e-3))
            args = (ratio * mass, gamma, s_max, mass, cut_ratio * mass,
                    float(10.0 ** rng.uniform(-9.0, 0.0)))
            want = _tradeoff_outcome(bound_oracle.tradeoff, args)
            assert _tradeoff_outcome(eat._tradeoff, args) == want, args
            if isinstance(want[0], type):
                key = want[1].split(" ")[0]
            else:
                key = "below" if args[0] <= args[4] else "above"
            seen[key] = seen.get(key, 0) + 1
        # both branches and both errors, each many times over
        assert set(seen) == {"below", "above", "normalized", "cut"}
        assert min(seen.values()) >= 500, seen

    def test_one_evaluation_per_best_cut_rate(self, monkeypatch):
        calls = {"bound": 0, "rate": 0}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(eat, "_bound_and_slope",
                            spy("bound", eat._bound_and_slope))
        monkeypatch.setattr(eat, "_mu_block_opt",
                            spy("rate", eat._mu_block_opt))
        eps = eat.EatEpsilons(1e-6, 1e-6)
        eat.mu_opt(0.84, 1e-4, 0.1, 1e8, eps)
        eat.mu_block_opt(0.84, 1e-4, eat.BlockSpec(0.1, 10), 1e7, eps)
        # p1 - K above the cut interval: the rate is on the tangent
        eat.mu_opt(0.99, 1e-9, 0.5, 1e15, eps)
        omega, qber = keyrates.honest_werner(0.02)
        params = keyrates.ProtocolParams(1e9, 0.2, omega, 1e-3, qber)
        budget = keyrates.EpsilonBudget(1e-10, 5e-3, 3e-6, 3e-6, 3e-6,
                                        1e-300)
        keyrates.key_length(params, budget)
        keyrates.key_length_block(params, budget, 5)
        assert calls == {"bound": 5, "rate": 5}


SCAN_POINTS = 2049


def _check_cut_optimum(value, cut, objective, scale):
    """(value, cut) is the objective at the cut, no worse than a dense scan
    of the cut interval, and no worse than the objective 1e-6*scale away."""
    assert value == objective(cut)
    tol = 1e-9 * max(1.0, abs(value))
    lo, hi = eat.cut_interval(scale)
    assert lo <= cut <= hi
    scan_best = max(objective(c) for c in np.linspace(lo, hi, SCAN_POINTS))
    assert value >= scan_best - tol
    for c in (cut - 1e-6 * scale, cut + 1e-6 * scale):
        if lo <= c <= hi:
            assert value >= objective(c)


def _random_point(rng):
    """A random (omega_exp, gamma, count, eps) in the domain."""
    gamma = float(rng.uniform(0.05, 1.0))
    count = float(10.0 ** rng.uniform(3.0, 12.0))
    es, ee = (float(e) for e in 10.0 ** rng.uniform(-10.0, -2.0, size=2))
    omega = float(rng.uniform(0.76, OMEGA_QUANTUM))
    return omega, gamma, count, eat.EatEpsilons(es, ee)


def _block_objective(omega, delta, block, m, eps):
    """The rate of m blocks at cut c, in bound_oracle's text of the glued
    function, with key_length_oracle's penalty K = (2/sqrt(m)) sqrt(1 - 2
    log2(eps_s eps_e))."""
    p1 = omega * block.test_mass - delta
    k_pen = key_length_oracle.penalty(eps.eps_s, eps.eps_e, m, math)
    return lambda c: bound_oracle.tradeoff(p1, block.gamma, block.s_max,
                                           block.test_mass, c, k_pen)[2]


def _round_objective(omega, delta, gamma, n, eps):
    return _block_objective(omega, delta, _one_round(gamma), n, eps)


def _block_for(gamma):
    return eat.BlockSpec(gamma, max(int(math.ceil(1.0 / gamma - 1e-9)), 1))


class TestMuOpt:
    @pytest.mark.parametrize("params,points", sorted(MU_OPT_CURVES.items()))
    def test_reference_curves(self, params, points):
        n, eps_val, delta = params
        eps = eat.EatEpsilons(eps_val, eps_val)
        for omega, expected in points:
            value, cut = eat.mu_opt(omega, delta, 1.0, n, eps)
            assert value == pytest.approx(expected, abs=2e-3)

    def test_optimizer_interior_and_grid_oracle(self):
        eps = eat.EatEpsilons(1e-6, 1e-6)
        for omega, n in ((0.80, 1e6), (0.820736, 1e8), (0.85, 1e8)):
            value, cut = eat.mu_opt(omega, 1e-3, 1.0, n, eps)
            lo, hi = eat.cut_interval(1.0)
            assert lo < cut < hi
            # independent oracle: dense grid maximum
            p1 = omega - 1e-3
            grid = np.linspace(lo, hi, 10_000)
            grid_best = max(reference_mu_round(p1, 1.0, c, eps, n)[0]
                            for c in grid)
            assert value >= grid_best - 1e-9

    def test_optimizer_interior_all_reference_sets(self):
        lo, hi = eat.cut_interval(1.0)
        for (n, eps_val, delta), points in sorted(MU_OPT_CURVES.items()):
            eps = eat.EatEpsilons(eps_val, eps_val)
            omega = points[len(points) // 2][0]
            _, cut = eat.mu_opt(omega, delta, 1.0, n, eps)
            assert lo < cut < hi

    def test_value_at_most_g(self):
        eps = eat.EatEpsilons(1e-6, 1e-6)
        value, _ = eat.mu_opt(0.82, 1e-3, 1.0, 1e8, eps)
        assert value <= secrecy_bound(0.82 - 1e-3)

    def test_increasing_in_n(self):
        eps = eat.EatEpsilons(1e-6, 1e-6)
        values = [eat.mu_opt(0.82, 1e-3, 1.0, n, eps)[0]
                  for n in (1e6, 1e8, 1e10)]
        assert values[0] < values[1] < values[2]

    def test_domain_guard(self):
        eps = eat.EatEpsilons(1e-6, 1e-6)
        with pytest.raises(ValueError):
            eat.mu_opt(0.751, 0.1, 1.0, 1e8, eps)

    def test_closed_form_against_scan(self, rng):
        for _ in range(40):
            omega, gamma, n, eps = _random_point(rng)
            delta = float(rng.uniform(0.0, 0.9 * (omega - 0.75) * gamma))
            value, cut = eat.mu_opt(omega, delta, gamma, n, eps)
            _check_cut_optimum(value, cut,
                               _round_objective(omega, delta, gamma, n, eps),
                               gamma)

    # small n pushes p1 - K below the interval; omega_exp near 1 above it
    @pytest.mark.parametrize("omega,delta,gamma,n,end", [
        (0.80, 1e-3, 0.5, 100.0, 0), (0.999, 1e-6, 1.0, 1e12, 1)])
    def test_closed_form_clamped(self, omega, delta, gamma, n, end):
        eps = eat.EatEpsilons(1e-6, 1e-6)
        value, cut = eat.mu_opt(omega, delta, gamma, n, eps)
        assert cut == eat.cut_interval(gamma)[end]
        _check_cut_optimum(value, cut,
                           _round_objective(omega, delta, gamma, n, eps),
                           gamma)


class TestMuBlockOpt:
    def test_closed_form_against_scan(self, rng):
        for _ in range(40):
            omega, gamma, m, eps = _random_point(rng)
            block = _block_for(gamma)
            mass = block.test_mass
            delta = float(rng.uniform(0.0, 0.9 * (omega - 0.75) * mass))
            value, cut = eat.mu_block_opt(omega, delta, block, m, eps)
            _check_cut_optimum(value, cut,
                               _block_objective(omega, delta, block, m, eps),
                               mass)

    @pytest.mark.parametrize("omega,delta,m,end", [
        (0.80, 1e-4, 100.0, 0), (0.999, 1e-6, 1e12, 1)])
    def test_closed_form_clamped(self, omega, delta, m, end):
        eps = eat.EatEpsilons(1e-6, 1e-6)
        block = _block_for(0.1)
        value, cut = eat.mu_block_opt(omega, delta, block, m, eps)
        assert cut == eat.cut_interval(block.test_mass)[end]
        _check_cut_optimum(value, cut,
                           _block_objective(omega, delta, block, m, eps),
                           block.test_mass)


    @pytest.mark.parametrize("count", [math.inf, math.nan])
    def test_non_finite_count_rejected(self, count):
        # an infinite count once gave a zero penalty and a finite rate
        eps = eat.EatEpsilons(1e-6, 1e-6)
        with pytest.raises(ValueError, match="^round or block count must be "
                           "finite$"):
            eat.mu_block_opt(0.84, 1e-4, _block_for(0.1), count, eps)
        with pytest.raises(ValueError, match="^round or block count must be "
                           "finite$"):
            eat.mu_opt(0.84, 1e-3, 0.5, count, eps)


class TestKeyLengthHelpers:
    def test_max_entropy_upper(self):
        # smoothing eps_s/4 and event eps_ea + eps_ec of a budget with
        # eps_s = eps_ea = 1e-6, eps_ec = 1e-10
        root = eat._smoothing_root(1e-6 / 4, 1e-6 + 1e-10)
        val = eat._max_entropy(1e10, 0.01, root)
        assert val > 0.01 * 1e10
        pure_sqrt = eat._max_entropy(1e10, 0.0, root)
        assert pure_sqrt == pytest.approx(key_length_oracle.max_entropy(
            1e10, 0.0, 1e-6 / 4, 1e-6 + 1e-10, math))


class TestBlocks:
    def test_expected_block_length_edges(self):
        assert eat.expected_block_length(eat.BlockSpec(0.3, 1)) == \
            pytest.approx(1.0)
        assert eat.expected_block_length(eat.BlockSpec(1.0, 7)) == \
            pytest.approx(1.0)

    def test_expected_block_length_value(self):
        sbar = eat.expected_block_length(eat.BlockSpec(0.01, 100))
        assert sbar == pytest.approx((1 - 0.99**100) / 0.01, rel=1e-12)
        assert sbar == pytest.approx(63.40, abs=0.01)

    def test_expected_block_length_series_oracle(self):
        # s_bar = sum over s of s * Pr[block length = s]
        for gamma, s_max in ((0.1, 7), (0.35, 4), (0.8, 3)):
            direct = sum(s * (1 - gamma)**(s - 1) * gamma
                         for s in range(1, s_max + 1))
            direct += s_max * (1 - gamma)**s_max
            assert eat.expected_block_length(eat.BlockSpec(gamma, s_max)) == \
                pytest.approx(direct, rel=1e-12)

    def test_f_min_block_reduces_at_smax_1(self):
        gamma = 0.37
        block = eat.BlockSpec(gamma, 1)
        spec = eat.TradeoffSpec(gamma, gamma * 0.81)
        eps = eat.EatEpsilons(1e-6, 1e-6)
        for ratio in np.linspace(0.7501, 0.9999, 50):
            p1 = gamma * ratio
            value = eat.f_min_block(p1, block, gamma * 0.81)
            assert eat.f_min(p1, spec) == value
            _, want, _ = reference_mu_round(p1, gamma, gamma * 0.81, eps, 1e8)
            assert abs(value - want) <= 1e-12

    def test_f_min_block_flat_region_value(self):
        # the underlying per-block bound saturates at s_bar once the
        # normalized statistic passes the quantum optimum
        block = eat.BlockSpec(0.2, 5)
        mass = block.test_mass
        sbar = eat.expected_block_length(block)
        for ratio in (OMEGA_QUANTUM, 0.99, 1.0):
            assert sbar * secrecy_bound(ratio) == pytest.approx(
                sbar, abs=1e-8)
        cut = mass * 0.80
        assert eat.f_min_block(cut, block, cut) < sbar

    def test_f_min_block_continuity_at_cut(self):
        block = eat.BlockSpec(0.25, 6)
        cut = block.test_mass * 0.8
        h = 1e-10
        below = eat.f_min_block(cut - h, block, cut)
        above = eat.f_min_block(cut + h, block, cut)
        assert below == pytest.approx(above, abs=1e-8)

    def test_mu_block_dimension_constant_at_smax_1(self):
        # 1 + 2*2*3 = 13: the per-round constant
        assert eat._log2_block_dim(1) == pytest.approx(math.log2(13.0))

    def test_log2_block_dim_closed_form(self):
        """Within an ulp of the exact integer's log2 for s_max = 1 to
        60,000, on scalars and on the kernel's float arrays."""
        exact = np.array(bound_oracle.log2_block_dims(60000))
        s = np.arange(1, 60001)
        for got in (np.array([eat._log2_block_dim(int(k)) for k in s]),
                    eat._log2_block_dim(s.astype(float), np)):
            assert np.all(np.abs(got - exact) <= np.spacing(exact))

    def test_mu_block_opt_matches_per_round_at_smax_1(self):
        gamma = 0.5
        eps = eat.EatEpsilons(1e-6, 1e-6)
        block = eat.BlockSpec(gamma, 1)
        v_block, _ = eat.mu_block_opt(0.82, 1e-3, block, 1e8, eps)
        v_round, _ = eat.mu_opt(0.82, 1e-3, gamma, 1e8, eps)
        assert v_block == pytest.approx(v_round, abs=1e-9)

    def test_block_scaling_against_per_round(self):
        # at matched expected rounds, the block construction wins for small
        # test probability (its reason to exist)
        gamma = 0.01
        nbar = 1e8
        eps = eat.EatEpsilons(1e-6, 1e-6)
        s_max = 100
        block = eat.BlockSpec(gamma, s_max)
        sbar = eat.expected_block_length(block)
        m = nbar / sbar
        v_block, _ = eat.mu_block_opt(0.84, 1e-4, block, m, eps)
        per_block_rate = m * v_block / nbar
        v_round, _ = eat.mu_opt(0.84, 1e-4, gamma, nbar, eps)
        assert per_block_rate > v_round


class TestRoundCountTail:
    def test_gamma_one(self):
        assert eat.round_count_tail(100.0, 1.0, 3, 0.5) == 0.0
        assert eat.round_count_tail(100.0, 0.5, 1, 0.5) == 0.0

    def test_unit_algebra(self):
        # with (s_max - 1)^2 m = 1 and eps_t = e^-2, t = 1
        assert eat.round_count_tail(0.25, 0.5, 3, math.exp(-2.0)) == \
            pytest.approx(1.0)

    def test_plug_in(self):
        # Hoeffding over block lengths in [1, s_max], here s_max > 1/gamma
        t = eat.round_count_tail(1e6, 0.01, 150, 1e-10)
        expected = 149.0 * math.sqrt(1e6 * math.log(1e10) / 2.0)
        assert t == pytest.approx(expected)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            eat.round_count_tail(10.0, 0.5, 2, 0.0)

    # what each call once returned: a negative or a wrong tail, 0, nan, inf
    # or a "math domain error"
    @pytest.mark.parametrize("m, gamma, s_max, message", [
        (100, 0.5, 0.5, "s_max must be an integer, not 0.5"),  # -7.59
        (100, 0.5, 2.5, "s_max must be an integer, not 2.5"),  # 22.8
        (100, 0.5, 2.0, "s_max must be an integer, not 2.0"),  # 10.73
        (100, 0.5, True, "s_max must be an integer, not True"),  # 0.0
        (100, 0.5, 0, "s_max must be >= 1"),
        (100, math.nan, 10, r"gamma must be in \(0,1\]"),  # 136.6
        (100, -0.1, 10, r"gamma must be in \(0,1\]"),  # 136.6
        (100, 1.5, 10, r"gamma must be in \(0,1\]"),  # 0.0
        (math.nan, 0.5, 10, "m_blocks must be positive and finite"),
        (math.inf, 0.5, 10, "m_blocks must be positive and finite"),
        (-5, 0.5, 10, "m_blocks must be positive and finite")],
        ids=["s_max-0.5", "s_max-2.5", "s_max-2.0", "s_max-True", "s_max-0",
             "gamma-nan", "gamma-negative", "gamma-1.5", "m-nan", "m-inf",
             "m-negative"])
    def test_inputs_checked(self, m, gamma, s_max, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            eat.round_count_tail(m, gamma, s_max, 0.01)


class TestRoundCountTailExact:
    # (m, gamma, s_max, eps_t): s_max = default_s_max(gamma) but in the
    # last point; gamma in (1/3, 1/2) and s_max above 1/gamma are where a
    # tail over the range (1 - gamma)/gamma instead of s_max - 1 fails
    POINTS = [(m, gamma, eat.default_s_max(gamma), eps_t)
              for m, gamma, eps_t in [
                  (50, 0.5, 0.1), (200, 0.3, 0.05), (1000, 0.1, 1e-3),
                  (300, 0.05, 1e-6), (100, 0.01, 0.01), (2000, 0.2, 1e-9),
                  (40, 0.0123, 0.1), (200, 0.49, 1e-3), (2000, 0.45, 1e-6)]
              ] + [(500, 0.5, 10, 1e-6)]

    def test_tail_bound_against_exact_law(self):
        ratios = []
        for m, gamma, s_max, eps_t in self.POINTS:
            law = round_count_law(m, gamma, s_max)
            assert len(law) == m * s_max + 1
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
            sbar = eat.expected_block_length(eat.BlockSpec(gamma, s_max))
            mean = float(np.arange(len(law)) @ law)
            assert mean == pytest.approx(m * sbar, rel=1e-12)
            start = math.ceil(m * sbar
                              + eat.round_count_tail(m, gamma, s_max, eps_t))
            tail = float(law[start:].sum())
            assert tail <= eps_t, (m, gamma, s_max, eps_t, tail)
            ratios.append(tail / eps_t)
        # the bound is not vacuous: within a factor 1e3 somewhere
        assert max(ratios) >= 1e-3


class TestCheckedBounds:
    """cut_interval and hoeffding check their inputs; the key length and
    the grid kernel call their private bodies, _cut_bounds and
    _hoeffding, on checked inputs."""

    # what each call once returned: (nan, nan), (1.5, 1.71), a negative
    # interval, (0, 0), (inf, nan)
    @pytest.mark.parametrize("mass", [math.nan, 2.0, -1.0, 0.0, math.inf])
    def test_cut_interval_takes_a_test_mass(self, mass):
        with pytest.raises(ValueError, match=r"^test mass must be in \(0,1\]$"):
            eat.cut_interval(mass)

    # what each call once returned: nan, nan, 1.105, 0.0, 0.0
    @pytest.mark.parametrize("n, deviation, message", [
        (math.nan, 0.1, r"^n must be in \[0, inf\)$"),
        (10, math.nan, "^deviation must be finite$"),
        (-5, 0.1, r"^n must be in \[0, inf\)$"),
        (10, math.inf, "^deviation must be finite$"),
        (math.inf, 0.1, r"^n must be in \[0, inf\)$")])
    def test_hoeffding_checks_inputs(self, n, deviation, message):
        with pytest.raises(ValueError, match=message):
            eat.hoeffding(n, deviation)

    # the domain's edges: no trials, and a deviation of either sign
    @pytest.mark.parametrize("n, deviation", [(0, 0.3), (10, -0.2)])
    def test_hoeffding_domain_edges_accepted(self, n, deviation):
        assert eat.hoeffding(n, deviation) == math.exp(-2.0 * n * deviation**2)
