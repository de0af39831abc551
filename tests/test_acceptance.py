"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and asserting its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from di_toolkit import definetti as df
from di_toolkit import eat, entropy, keyrates as kr, nslp, signalling as sig
from di_toolkit import simulate as sim
from di_toolkit.boxes import (ObservedData, chsh_game, classical_value,
                              l1_distance)
from conftest import (BINARY, bob_echoes_x_box, random_box,
                      random_classical_box, random_game, sample_iid_data,
                      uniform_q)
from reference_curves import (KEY_RATE_POINTS, MU_OPT_CURVES, SECRECY_CURVE,
                              ZERO_CROSSING_N, ZERO_CROSSING_WINDOW)

CAPS = kr.RateCaps(soundness=1e-5, completeness=1e-2, eps_ec=1e-10)


class _Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance {self.number:02d}] {status} "
              f"({elapsed:.2f}s / budget {self.budget:.0f}s) "
              f"{self.description}", flush=True)
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget}s")
        return False


def test_01_entropy_curve():
    with _Criterion(1, "secrecy bound matches the 50 reference points "
                       "within 1e-4", 1.0):
        for omega, expected in SECRECY_CURVE:
            assert entropy.secrecy_bound(omega) == pytest.approx(
                expected, abs=1e-4)


def test_02_mu_opt_curves():
    with _Criterion(2, "optimized entropy rate reproduces >= 10 points per "
                       "reference curve within 2e-3", 10.0):
        for (n, eps_val, delta), points in sorted(MU_OPT_CURVES.items()):
            assert len(points) >= 10
            eps = eat.EatEpsilons(eps_val, eps_val)
            for omega, expected in points:
                value, _ = eat.mu_opt(omega, delta, 1.0, n, eps)
                assert value == pytest.approx(expected, abs=2e-3), (
                    n, eps_val, omega)


def test_03_key_rate_points():
    with _Criterion(3, "block-mode optimized key rates match the three "
                       "reference points within 0.01", 120.0):
        for n, q, expected, tol in KEY_RATE_POINTS:
            report = kr.optimize_rate(kr.RateTarget(n=n, q=q), CAPS,
                                      mode=kr.BLOCK)
            assert report.rate == pytest.approx(expected, abs=tol), (n, q)


def test_04_zero_crossing():
    with _Criterion(4, "the n=1e7 rate curve changes sign between "
                       "Q=3.0% and Q=3.4%", 60.0):
        lo, hi = ZERO_CROSSING_WINDOW
        r_lo = kr.optimize_rate(kr.RateTarget(n=ZERO_CROSSING_N, q=lo), CAPS,
                                mode=kr.BLOCK)
        r_hi = kr.optimize_rate(kr.RateTarget(n=ZERO_CROSSING_N, q=hi), CAPS,
                                mode=kr.BLOCK)
        assert r_lo.rate > 0.0
        assert r_hi.rate < 0.0


def test_05_definetti_reduction():
    with _Criterion(5, "P <= (n+1)^(l(m-1)) tau exactly for all "
                       "deterministic IID and 1000 random symmetrized "
                       "boxes, n in {1,2,3}", 30.0):
        # the n=1 table is the oracle integral vector (1/2, 1/4, 1/8, 1/8)
        tau1 = df.tau_table_exact(1, BINARY)
        for x, y in itertools.product(range(2), repeat=2):
            ordered = [tau1[x, y, k // 2, k % 2] for k in range(4)]
            assert ordered == [Fraction(1, 2), Fraction(1, 4),
                               Fraction(1, 8), Fraction(1, 8)]

        rng = np.random.default_rng(424242)
        for n in (1, 2, 3):
            tau = df.tau_classes(n, BINARY)
            factor = df.reduction_factor(n, 4, 4)
            # all deterministic IID boxes (signalling ones included):
            # numerators are 0/1 over denominator 1
            cells = _round_cell_indices(n)
            for fa in itertools.product(range(2), repeat=4):
                for fb in itertools.product(range(2), repeat=4):
                    single = np.zeros(16, dtype=np.int64)
                    for j in range(4):
                        x, y = j // 2, j % 2
                        single[(x * 2 + y) * 4 + fa[j] * 2 + fb[j]] = 1
                    table = single[cells].prod(axis=1).reshape(
                        tau.index.shape)
                    assert df.verify_reduction_exact(table, tau) <= factor
            # 1000 random symmetrized boxes, exact integer arithmetic
            for _ in range(1000):
                nums, denom = df.random_symmetrized_int_table(tau, rng)
                assert df.verify_reduction_exact(nums, tau) / denom <= factor


def _round_cell_indices(n):
    """Map each flattened (x,y,a,b) multi-round entry to its n single-round
    cell indices (x*2+y)*4 + a*2 + b."""
    size = 2**n
    idx = np.arange(size)
    digits = np.stack([(idx >> i) & 1 for i in range(n)], axis=1)
    ix, iy, ia, ib = np.meshgrid(idx, idx, idx, idx, indexing="ij")
    cells = np.empty(ix.shape + (n,), dtype=np.int64)
    for i in range(n):
        x = (ix >> i) & 1
        y = (iy >> i) & 1
        a = (ia >> i) & 1
        b = (ib >> i) & 1
        cells[..., i] = (x * 2 + y) * 4 + a * 2 + b
    return cells.reshape(-1, n)


def test_06_lp_suite():
    with _Criterion(6, "ns(CHSH)=1, classical(CHSH)=0.75, and "
                       "perturbed <= ns + slack*kappa with kappa <= d on "
                       "50 random games", 30.0):
        game = chsh_game()
        value, _ = nslp.ns_value(game)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert classical_value(game) == 0.75

        rng = np.random.default_rng(31337)
        for _ in range(50):
            g = random_game(rng)
            v, kappa = nslp.ns_value(g)
            assert kappa <= g.alphabets.num_signalling_constraints + 1e-9
            for slack in (0.0, 0.01, 0.05):
                assert nslp.perturbed_value(g, slack) <= v + slack * kappa + 1e-8


def test_07_signalling():
    with _Criterion(7, "Sig(non-signalling) = 0, continuity on 200 pairs, "
                       "and test reliability at n=2000 within the "
                       "Sanov-plus-3-sigma envelope", 60.0):
        rng = np.random.default_rng(777)
        q = uniform_q()
        targets = sig.all_sig_targets(BINARY)

        for box in (random_classical_box(rng), random_classical_box(rng)):
            for t in targets:
                assert abs(sig.sig_measure(box, q, t)) <= 1e-12

        for _ in range(200):
            b1, b2 = random_box(rng), random_box(rng)
            dist = l1_distance(b1, b2, q)
            for t in targets[:4]:
                gap = abs(sig.sig_measure(b1, q, t)
                          - sig.sig_measure(b2, q, t))
                assert gap <= 2 * dist + 1e-12

        n, trials = 2000, 500
        params = sig.TestParams(zeta=0.06, eps=0.008, n=n)
        row = sig.target_row(BINARY, sig.SigTarget(sig.A_TO_B, 0, 0, 0))
        delta = min(sig.sanov_delta(n // 2, params.eps, 16), 1.0)
        ns_box = random_classical_box(rng)
        sig_box = bob_echoes_x_box()
        false_pass = false_fail = 0
        for _ in range(trials):
            xs, ys, a, b = sample_iid_data(ns_box, q, n, rng)
            false_pass += sig.signalling_test_flags(
                ObservedData(n, a, b, xs, ys, BINARY), q, params)[row]
            xs, ys, a, b = sample_iid_data(sig_box, q, n, rng)
            false_fail += not sig.signalling_test_flags(
                ObservedData(n, a, b, xs, ys, BINARY), q, params)[row]
        slack = 3 * math.sqrt(max(delta * (1 - delta), 0.25 / trials) / trials)
        assert false_pass / trials <= delta + slack
        assert false_fail / trials <= delta + slack
        # the spec's examples: reject/detect with high probability
        assert false_pass / trials <= 0.1
        assert false_fail / trials <= 0.1


def test_08_iid_threshold():
    with _Criterion(8, "binomial threshold tail <= exp(-2 n beta^2) across "
                       "a sweep; CHSH bound equals exp(-n beta^2/230400)",
                    5.0):
        game = chsh_game()
        rng = np.random.default_rng(12)
        for box in (random_classical_box(rng), random_classical_box(rng)):
            for n in (10, 100, 1000, 5000):
                for beta in (0.01, 0.05, 0.1, 0.2):
                    exact, bound = sig.iid_threshold_probability(
                        box, game, n, beta)
                    assert exact <= bound + 1e-12
        d = game.alphabets.num_signalling_constraints
        assert d == 16
        beta = 0.2
        n = sig._minimal_n(beta / (10 * d), 2, 2, 2, 2) + 1
        assert sig.threshold_bound(game, n, beta) == pytest.approx(
            math.exp(-n * beta**2 / 230400.0), rel=1e-12)


def test_09_completeness_simulation():
    with _Criterion(9, "empirical abort frequency at n=1e4 within "
                       "exp(-8) + 3 sigma; bit-identical reruns", 30.0):
        cfg = sim.SimulationConfig(n=10**4, gamma=0.5, omega_exp=0.81,
                                   delta_est=0.02,
                                   device=sim.HonestDevice(0.81, 0.01))
        trials = 500
        freq, ci = sim.estimate_abort_probability(cfg, trials, master_seed=7)
        bound = math.exp(-8.0)
        sigma = math.sqrt(max(bound * (1 - bound), 0.25 / trials) / trials)
        assert freq <= bound + 3 * sigma
        assert sim.estimate_abort_probability(cfg, trials, master_seed=7) \
            == (freq, ci)
        a = sim.run_protocol(10**4, 0.5, 0.81, 0.02,
                             sim.HonestDevice(0.81, 0.01), seed=7, trial=3)
        b = sim.run_protocol(10**4, 0.5, 0.81, 0.02,
                             sim.HonestDevice(0.81, 0.01), seed=7, trial=3)
        for field in ("t", "x", "y", "a", "b", "w"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_10_block_consistency():
    with _Criterion(10, "block mode reduces to per-round mode at s_max=1 "
                        "(1e-9) and f_min_block to f_min (1e-12)", 5.0):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = float(rng.integers(10**6, 10**10))
            gamma = float(rng.uniform(0.02, 1.0))
            qber = float(rng.uniform(0.0, 0.045))
            omega, _ = kr.honest_werner(2 * qber)
            delta = float(rng.uniform(5e-5, 2e-3))
            params = kr.ProtocolParams(n, gamma, omega, delta, qber)
            budget = kr.EpsilonBudget(
                eps_ec=1e-10, eps_ec_complete=float(rng.uniform(1e-3, 1e-2)),
                eps_s=float(rng.uniform(1e-8, 1e-5)),
                eps_ea=float(rng.uniform(1e-8, 1e-5)),
                eps_pa=float(rng.uniform(1e-8, 1e-5)), eps_t=1e-300)
            per_round = kr.key_length(params, budget)
            block = kr.key_length_block(params, budget, s_max=1)
            assert abs(per_round.key_length - block.key_length) <= 1e-9

        for gamma in (0.05, 0.3, 0.9, 1.0):
            block = eat.BlockSpec(gamma, 1)
            cut = gamma * 0.81
            spec = eat.TradeoffSpec(gamma, cut)
            for ratio in np.linspace(0.7501, 0.9999, 200):
                p1 = gamma * ratio
                assert abs(eat.f_min_block(p1, block, cut)
                           - eat.f_min(p1, spec)) <= 1e-12
