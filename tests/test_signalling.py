import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from di_toolkit import signalling as sig
from di_toolkit.boxes import (Alphabets, InputDistribution, ObservedData,
                              SingleRoundBox, l1_distance)
from conftest import (BINARY, bob_echoes_x_box, frequency_box, pr_box,
                      random_box, random_classical_box, sample_iid_data,
                      uniform_q)


def joint_marginal_measure(p, q, target):
    """Oracle: O_BY(b,y) * [O_{X|BY}(x|b,y) - Q_{X|Y}(x|y)] (mirrored for
    BtoA) from the joint O = Q(x,y) P(a,b|x,y) of the table ``p`` and its
    marginals, Q(x|y) and Q(y|x) taken from q's table itself; 0 where the
    conditioning mass is 0."""
    joint = q.q[:, :, None, None] * p  # (x, y, a, b)
    if target.direction == sig.A_TO_B:
        x, y, b = target.x, target.y, target.outcome
        o_bxy = joint.sum(axis=2)  # (x, y, b)
        mass = o_bxy.sum(axis=0)[y, b]
        if mass == 0.0:
            return 0.0
        return float(o_bxy[x, y, b] - q.q[x, y] / q.q[:, y].sum() * mass)
    x, y, a = target.x, target.y, target.outcome
    o_axy = joint.sum(axis=3)  # (x, y, a)
    mass = o_axy.sum(axis=1)[x, a]
    if mass == 0.0:
        return 0.0
    return float(o_axy[x, y, a] - q.q[x, y] / q.q[x, :].sum() * mass)


def scatter_signalling_matrix(al, qq):
    """Reference: the signalling matrix scattered through np.ix_ index
    grids, with Q(x|y) and Q(y|x) 0 where their marginal is 0."""
    X, Y, A, B = al.x_size, al.y_size, al.a_size, al.b_size
    qy, qx = qq.sum(axis=0), qq.sum(axis=1, keepdims=True)
    x_given_y = qq / np.where(qy > 0, qy, 1)
    y_given_x = qq / np.where(qx > 0, qx, 1)
    out = np.zeros((al.num_signalling_constraints, X * Y * A * B))
    coef = (np.eye(X)[:, None, :] * qq[:, :, None]
            - x_given_y[:, :, None] * qq.T[None, :, :])  # (x, y, x')
    xx, yy, bb, xs, aa = np.ix_(*(np.arange(k) for k in (X, Y, B, X, A)))
    out[(xx * Y + yy) * B + bb,
        ((xs * Y + yy) * A + aa) * B + bb] = coef[xx, yy, xs]
    coef = (np.eye(Y)[None, :, :] * qq[:, :, None]
            - y_given_x[:, :, None] * qq[:, None, :])  # (x, y, y')
    xx, yy, aa, ys, bb = np.ix_(*(np.arange(k) for k in (X, Y, A, Y, B)))
    out[X * Y * B + (xx * Y + yy) * A + aa,
        ((xx * Y + ys) * A + aa) * B + bb] = coef[xx, yy, ys]
    return out


def random_alphabets_and_q(rng):
    al = Alphabets(*(int(k) for k in rng.integers(1, 4, size=4)))
    q = rng.dirichlet(np.ones(al.x_size * al.y_size))
    q = 0.9 * q + 0.1 / q.size
    return al, InputDistribution(q.reshape(al.x_size, al.y_size))


class TestSigMeasure:
    def test_zero_on_nonsignalling(self, rng):
        q = uniform_q()
        for box in (pr_box(), random_classical_box(rng)):
            for target in sig.all_sig_targets(BINARY):
                assert abs(sig.sig_measure(box, q, target)) <= 1e-12

    def test_bob_echoes_x_value(self):
        target = sig.SigTarget(sig.A_TO_B, x=0, y=0, outcome=0)
        value = sig.sig_measure(bob_echoes_x_box(), uniform_q(), target)
        assert value == pytest.approx(1.0 / 8.0)

    def test_continuity_bound(self, rng):
        q = uniform_q()
        targets = sig.all_sig_targets(BINARY)
        for _ in range(200):
            b1, b2 = random_box(rng), random_box(rng)
            dist = l1_distance(b1, b2, q)
            for target in targets:
                gap = abs(sig.sig_measure(b1, q, target)
                          - sig.sig_measure(b2, q, target))
                assert gap <= 2.0 * dist + 1e-12

    def test_zero_mass_conditioning(self):
        # Bob never outputs 1: targets conditioned on b=1 give 0
        import itertools

        from di_toolkit.boxes import SingleRoundBox

        p = np.zeros((2, 2, 2, 2))
        for x, y, a in itertools.product(range(2), repeat=3):
            p[x, y, a, 0] = 0.5
        box = SingleRoundBox(BINARY, p)
        target = sig.SigTarget(sig.A_TO_B, x=0, y=0, outcome=1)
        assert sig.sig_measure(box, uniform_q(), target) == 0.0


    def test_matches_joint_marginal_oracle(self, rng):
        for _ in range(200):
            al, q = random_alphabets_and_q(rng)
            box = random_box(rng, al)
            # zero out a random set of entries (renormalized per input pair
            # when possible) so some conditioning masses vanish; an input
            # pair left all zero makes the table no box, so the measures
            # are the signalling_matrix rows (sig_measure's) dotted with it
            p = box.p * (rng.random(box.p.shape) < 0.6)
            sums = p.sum(axis=(2, 3), keepdims=True)
            p = np.where(sums > 0, p / np.where(sums > 0, sums, 1.0), p)
            rows = sig.signalling_matrix(al, q)
            for target in sig.all_sig_targets(al):
                assert rows[sig.target_row(al, target)] @ p.reshape(-1) == (
                    pytest.approx(joint_marginal_measure(p, q, target),
                                  abs=1e-15))

    def test_zero_mass_matches_oracle(self):
        import itertools

        p = np.zeros((2, 2, 2, 2))
        for x, y, a in itertools.product(range(2), repeat=3):
            p[x, y, a, 0] = 0.5
        box = SingleRoundBox(BINARY, p)
        for target in sig.all_sig_targets(BINARY):
            assert sig.sig_measure(box, uniform_q(), target) == pytest.approx(
                joint_marginal_measure(box.p, uniform_q(), target), abs=1e-15)

    def test_matrix_rows_follow_targets(self, rng):
        al, q = random_alphabets_and_q(rng)
        S = sig.signalling_matrix(al, q)
        assert S.shape == (al.num_signalling_constraints,
                           al.x_size * al.y_size * al.a_size * al.b_size)
        rows = sorted(sig.target_row(al, t) for t in sig.all_sig_targets(al))
        assert rows == list(range(al.num_signalling_constraints))
        with pytest.raises(ValueError):
            sig.target_row(al, sig.SigTarget(sig.A_TO_B, 0, 0, al.b_size))
        with pytest.raises(ValueError):
            sig.signalling_matrix(al, uniform_q(al.x_size + 1, al.y_size))

    def test_matches_scatter_reference(self, rng):
        """The same bytes as the np.ix_ scatter, on every alphabet up to
        4x4x3x3 and on q with random zero entries, a zero row and a zero
        column."""
        for x, y, a, b in itertools.product(range(1, 5), range(1, 5),
                                            range(1, 4), range(1, 4)):
            al = Alphabets(a, b, x, y)
            dense = rng.dirichlet(np.ones(x * y)).reshape(x, y)
            sparse = dense * (rng.random((x, y)) < 0.5)
            sparse[0, 0] += 1.0 - sparse.sum()
            zero_row, zero_col = dense.copy(), dense.copy()
            zero_row[-1, :], zero_col[:, -1] = 0.0, 0.0
            zero_row[0, 0] += 1.0 - zero_row.sum()
            zero_col[0, 0] += 1.0 - zero_col.sum()
            for qq in (dense, sparse, zero_row, zero_col):
                q = InputDistribution(qq)
                assert sig.signalling_matrix(al, q).tobytes() == (
                    scatter_signalling_matrix(al, q.q).tobytes())

    def test_zero_column_gives_zero_rows(self, rng):
        """Q(y) = 0 on column y = 1: every target at y = 1 has a zero row,
        no 0/0 is taken (no NaN, no warning), and each row dotted with a
        random box is the oracle's measure."""
        al = Alphabets(2, 3, 2, 3)
        q = InputDistribution(np.array([[0.2, 0.0, 0.1], [0.3, 0.0, 0.4]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = sig.signalling_matrix(al, q)
        assert np.isfinite(S).all()
        p = random_box(rng, al).p
        for target in sig.all_sig_targets(al):
            row = S[sig.target_row(al, target)]
            assert (not row.any()) == (target.y == 1)
            assert row @ p.reshape(-1) == pytest.approx(
                joint_marginal_measure(p, q, target), abs=1e-15)


class TestSanov:
    def test_reference_value(self):
        assert sig.sanov_delta(10**4, 0.1, 4) == pytest.approx(1.93e-10,
                                                               rel=0.05)

    def test_trivial_for_small_eps(self):
        assert sig.sanov_delta(100, 1e-9, 4) >= 1.0

    RANGE = "need 1 <= n < inf, eps > 0, cells >= 1"

    @pytest.mark.parametrize("n, eps, cells, message", [
        pytest.param(*case, id="-".join(map(str, case[:3]))) for case in (
            (0, 0.1, 4, RANGE), (100, 0.0, 4, RANGE), (100, -0.1, 4, RANGE),
            (100, 0.1, 0, RANGE), (math.nan, 0.1, 4, RANGE),
            (100, math.nan, 4, RANGE), (100, 0.1, math.nan, RANGE),
            (math.inf, 0.1, 3, RANGE),
            (10, 0.1, 1.5, "cells must be an integer"),
            (10, 0.1, 2.0, "cells must be an integer"),
            (10, 0.1, True, "cells must be an integer"))])
    def test_domain(self, n, eps, cells, message):
        # a NaN eps once passed the check and gave a nan bound; an infinite
        # n gave nan and cells = 1.5 the bound 3.15
        with pytest.raises(ValueError, match=f"^{message}$"):
            sig.sanov_delta(n, eps, cells)

    def test_halved_n_matches_use_site(self):
        n, eps, cells = 2000, 0.01, 16
        direct = (n / 2 + 1.0)**(cells - 1) * math.exp(-n * eps**2 / 4)
        assert sig.sanov_delta(n // 2, eps, cells) == pytest.approx(direct)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**6), st.floats(1e-4, 1.0), st.integers(1, 20))
def test_sanov_delta_monotone_in_eps(n, eps, cells):
    assert sig.sanov_delta(n, eps, cells) >= sig.sanov_delta(n, min(eps * 2,
                                                                    1.0),
                                                             cells)


class TestTestParams:
    def test_zeta_floor(self):
        with pytest.raises(ValueError):
            sig.TestParams(zeta=0.05, eps=0.01, n=100)

    @pytest.mark.parametrize("zeta", [math.nan, math.inf])
    def test_non_finite_zeta_rejected(self, zeta):
        # NaN once passed `zeta < 7*eps`, and both failed later in Fraction
        with pytest.raises(ValueError,
                           match=r"^zeta must be finite and at least 7\*eps$"):
            sig.TestParams(zeta=zeta, eps=0.01, n=100)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            sig.TestParams(zeta=0.07, eps=0.01, n=101)

    @pytest.mark.parametrize("n", [4.0, 4.5, True, "4"])
    def test_non_integer_n_rejected(self, n):
        # 4.0 was once accepted as the n of 4 rounds
        with pytest.raises(ValueError, match="^n must be an integer$"):
            sig.TestParams(zeta=0.07, eps=0.01, n=n)


class TestSignallingTest:
    def test_missing_pairs_reject(self):
        params = sig.TestParams(zeta=0.07, eps=0.01, n=2)
        data = ObservedData(2, np.zeros(2, int), np.zeros(2, int),
                            np.zeros(2, int), np.zeros(2, int), BINARY)
        row = sig.target_row(BINARY, sig.SigTarget(sig.A_TO_B, 0, 0, 0))
        flags = sig.signalling_test_flags(data, uniform_q(), params)
        assert bool(flags[row]) is False

    def test_all_targets_match_single_target_view(self, rng):
        """signalling_test_flags, read in the CLI's target order, equals one
        call per target read at its target_row and the joint-marginal
        oracle on the second-half frequency box, for thresholds below, at
        and above the echo box's measure 1/8; data missing an input pair
        rejects."""
        q = uniform_q()
        targets = sig.all_sig_targets(BINARY)
        n = 400
        fired = []
        for box in (random_classical_box(rng), bob_echoes_x_box(), pr_box()):
            xs, ys, a, b = sample_iid_data(box, q, n, rng)
            second = ObservedData(n // 2, a[n // 2:], b[n // 2:],
                                  xs[n // 2:], ys[n // 2:], BINARY)
            freq = frequency_box(second, q)
            for zeta in (0.06, 0.16, 0.2):
                params = sig.TestParams(zeta=zeta, eps=zeta / 8, n=n)
                threshold = params.zeta - 2 * params.eps
                data = ObservedData(n, a, b, xs, ys, BINARY)
                flags = sig.signalling_test_flags(data, q, params)
                cli_order = [bool(flags[sig.target_row(BINARY, t)])
                             for t in targets]
                single = [bool(sig.signalling_test_flags(data, q, params)[
                    sig.target_row(BINARY, t)]) for t in targets]
                assert cli_order == single
                for t, flag in zip(targets, single):
                    m = joint_marginal_measure(freq, q, t)
                    if abs(m - threshold) > 1e-9:
                        assert flag == (m >= threshold)
                fired.append(sum(single))
            missing = ObservedData(n, a, b, np.zeros_like(xs), ys, BINARY)
            assert not sig.signalling_test_flags(missing, q, params).any()
        # the echo box fires its AtoB targets at the lowest threshold only
        assert fired[:3] == [0, 0, 0] and fired[-3:] == [0, 0, 0]
        assert fired[3] >= 4 and fired[5] < fired[3]

    def test_monte_carlo_reliability(self, rng):
        """Detection on a signalling box and rejection on a non-signalling
        box, each with high probability over 500 trials at n = 2000.

        The formal Sanov-plus-3-sigma envelope is also computed; at these
        sizes it exceeds 1, so the sharp content is the directional check.
        """
        n, trials = 2000, 500
        params = sig.TestParams(zeta=0.06, eps=0.008, n=n)
        row = sig.target_row(BINARY, sig.SigTarget(sig.A_TO_B, 0, 0, 0))
        q = uniform_q()
        cells = 16

        false_pass = 0
        ns_box = random_classical_box(rng)
        for trial in range(trials):
            xs, ys, a, b = sample_iid_data(ns_box, q, n, rng)
            data = ObservedData(n, a, b, xs, ys, BINARY)
            false_pass += sig.signalling_test_flags(data, q, params)[row]

        false_fail = 0
        sig_box = bob_echoes_x_box()  # Sig = 1/8 >= zeta for this target
        for trial in range(trials):
            xs, ys, a, b = sample_iid_data(sig_box, q, n, rng)
            data = ObservedData(n, a, b, xs, ys, BINARY)
            false_fail += not sig.signalling_test_flags(data, q, params)[row]

        delta = min(sig.sanov_delta(n // 2, params.eps, cells), 1.0)
        for count in (false_pass, false_fail):
            rate = count / trials
            slack = 3.0 * math.sqrt(max(delta * (1 - delta), 0.25) / trials)
            assert rate <= delta + slack
        assert false_pass / trials <= 0.1
        assert false_fail / trials <= 0.1


def fraction_flags(data, q, params):
    """Oracle: the second-half frequency box P = count / (n/2 Q(x,y)) in
    Fraction arithmetic, its joint-marginal measures (as in
    joint_marginal_measure) against zeta - 2 eps, with Q, zeta and eps the
    exact rationals of their floats; every input pair is present."""
    al, half = data.alphabets, data.n // 2
    qf = [[Fraction(v) for v in row] for row in q.q.tolist()]
    count = {}
    for key in zip(data.x[half:].tolist(), data.y[half:].tolist(),
                   data.a[half:].tolist(), data.b[half:].tolist()):
        count[key] = count.get(key, 0) + 1
    xs, ys, As, bs = (range(al.x_size), range(al.y_size), range(al.a_size),
                      range(al.b_size))

    def joint(x, y, a, b):  # Q(x,y) P(a,b|x,y)
        return qf[x][y] * (Fraction(count.get((x, y, a, b), 0), half)
                           / qf[x][y])

    threshold = Fraction(params.zeta) - 2 * Fraction(params.eps)
    flags = []
    for x in xs:
        for y in ys:
            x_given_y = qf[x][y] / sum(qf[k][y] for k in xs)
            for b in bs:
                o = sum(joint(x, y, a, b) for a in As)
                mass = sum(joint(k, y, a, b) for k in xs for a in As)
                flags.append(o - x_given_y * mass >= threshold)
    for x in xs:
        for y in ys:
            y_given_x = qf[x][y] / sum(qf[x][k] for k in ys)
            for a in As:
                o = sum(joint(x, y, a, b) for b in bs)
                mass = sum(joint(x, k, a, b) for k in ys for b in bs)
                flags.append(o - y_given_x * mass >= threshold)
    return flags


def local_tie_data(rng, second_counts):
    """Rounds of the local box a = x, b = 1 - y: a first half with every input
    pair equally often, then a shuffled second half with the given count N
    of each input pair.  Under the uniform Q an AtoB measure of this box at
    (x, y) is (N(x,y) - N(1-x,y)) / 2 over the n/2 second-half rounds: over
    1000 rounds, 0.015 = zeta - 2 eps at zeta = 0.021, eps = 0.003 in
    decimals, when the counts differ by 30."""
    pairs = [(x, y) for x in range(2) for y in range(2)]
    second = [p for p in pairs for _ in range(second_counts[p])]
    order = rng.permutation(len(second))
    xy = np.array(pairs * (len(second) // 4) + [second[i] for i in order])
    x, y = xy[:, 0], xy[:, 1]
    return ObservedData(len(xy), x, 1 - y, x, y, BINARY)


class TestExactTies:
    """sig-test decides a measure at the threshold exactly: from the integer
    counts, not from a float sum whose rounding depends on its order."""

    ZETA, EPS = 0.021, 0.003
    TIES = {(0, 0): 265, (1, 0): 235, (0, 1): 250, (1, 1): 250}
    QS = [uniform_q(), InputDistribution(np.array([[0.1, 0.2], [0.3, 0.4]]))]

    def data_sets(self, rng):
        sets = [local_tie_data(rng, self.TIES),
                local_tie_data(rng, {(0, 0): 280, (1, 0): 220, (0, 1): 235,
                                     (1, 1): 265})]
        for box in (random_classical_box(rng), random_classical_box(rng),
                    bob_echoes_x_box()):
            xs, ys, a, b = sample_iid_data(box, uniform_q(), 2000, rng)
            sets.append(ObservedData(2000, a, b, xs, ys, BINARY))
        return sets

    def test_matches_fraction_oracle(self, rng):
        params = sig.TestParams(zeta=self.ZETA, eps=self.EPS, n=2000)
        for data in self.data_sets(rng):
            for q in self.QS:
                assert sig.signalling_test_flags(data, q, params).tolist() \
                    == fraction_flags(data, q, params)
        # the tie: measure 3/200 = 0.015 at (AtoB, 0, 0, b = 1) under the
        # uniform Q sits below the exact rational of 0.021 - 2 * 0.003
        tie = local_tie_data(rng, self.TIES)
        row = sig.target_row(BINARY, sig.SigTarget(sig.A_TO_B, 0, 0, 1))
        assert Fraction(0.021) - 2 * Fraction(0.003) > Fraction(3, 200)
        assert not sig.signalling_test_flags(tie, uniform_q(), params)[row]

    def test_exact_tie_passes(self, rng):
        """At dyadic zeta = 1/16, eps = 1/128 the threshold 3/64 is exact:
        over n/2 = 1024 rounds the measure (N(0,0) - N(1,0)) / 2 / 1024
        equals it at a count difference of 96, which passes (>=), and one
        count less fails."""
        params = sig.TestParams(zeta=0.0625, eps=0.0078125, n=2048)
        row = sig.target_row(BINARY, sig.SigTarget(sig.A_TO_B, 0, 0, 1))
        for n00, flag in ((300, True), (299, False)):
            data = local_tie_data(rng, {(0, 0): n00, (1, 0): 204,
                                        (0, 1): 260, (1, 1): 560 - n00})
            flags = sig.signalling_test_flags(data, uniform_q(), params)
            assert flags.tolist() == fraction_flags(data, uniform_q(), params)
            assert bool(flags[row]) is flag

    def test_second_half_order_never_matters(self, rng):
        params = sig.TestParams(zeta=self.ZETA, eps=self.EPS, n=2000)
        for data in self.data_sets(rng):
            for q in self.QS:
                want = sig.signalling_test_flags(data, q, params)
                for _ in range(5):
                    order = np.concatenate([np.arange(1000),
                                            1000 + rng.permutation(1000)])
                    shuffled = ObservedData(2000, data.a[order],
                                            data.b[order], data.x[order],
                                            data.y[order], BINARY)
                    assert np.array_equal(
                        sig.signalling_test_flags(shuffled, q, params), want)


class TestThresholdBound:
    def test_precondition_examples(self):
        # CHSH-sized alphabets at eps = 0.01
        assert not sig.threshold_precondition(10**6, 0.01, 2, 2, 2, 2)
        assert sig.threshold_precondition(10**10, 0.01, 2, 2, 2, 2)
        assert not sig.threshold_precondition(2, 0.01, 2, 2, 2, 2)

    def test_precondition_false_outside_unit_interval(self):
        """Any eps outside (0, 1) gives False, as eps <= 0 does: 1 and 2
        read True, 1e200 overflowed in eps^2 and inf raised a math domain
        error."""
        for eps in (1.0, 2.0, 1e200, math.inf, math.nan):
            assert sig.threshold_precondition(10**10, eps, 2, 2, 2, 2) is False

    def test_bound_formula(self, chsh):
        d = 16
        beta = 0.25
        n = _big_enough_n(beta, d)
        bound = sig.threshold_bound(chsh, n, beta)
        assert bound == pytest.approx(math.exp(-n * beta**2 / (30 * d)**2))

    def test_beta_zero_trivial(self, chsh):
        assert sig.threshold_bound(chsh, 100, 0.0) == 1.0

    def test_bound_at_most_one(self, chsh):
        for beta in (0.1, 0.5, 1.0):
            n = _big_enough_n(beta, 16)
            assert sig.threshold_bound(chsh, n, beta) <= 1.0

    def test_small_n_error_carries_requirement(self, chsh):
        with pytest.raises(sig.ThresholdPreconditionError) as exc:
            sig.threshold_bound(chsh, 100, 0.25)
        required = exc.value.required_n
        eps = 0.25 / 160
        assert sig.threshold_precondition(required, eps, 2, 2, 2, 2)
        assert not sig.threshold_precondition(required - 1, eps, 2, 2, 2, 2)


    def test_least_n_near_the_float_range_edge(self, chsh):
        """At the eps where the precondition first holds at the largest
        float, the least n lies just below it: the search for it stays in
        the float range (its doubling once overflowed past 2^1024).  Just
        below that eps, and where eps^2 underflows to 0, the precondition
        fails at every float n, and threshold_bound names beta."""
        top = sys.float_info.max
        lo, hi = 1e-160, 1e-140
        while hi - lo > 1e-15 * hi:
            mid = (lo + hi) / 2
            lo, hi = ((lo, mid) if sig.threshold_precondition(
                top, mid, 2, 2, 2, 2) else (mid, hi))
        required = sig._minimal_n(hi, 2, 2, 2, 2)
        assert 2**1023 < required <= top
        assert sig.threshold_precondition(required, hi, 2, 2, 2, 2)
        assert not sig.threshold_precondition(top, 1e-200, 2, 2, 2, 2)
        for beta in (lo * 160, 1e-200):
            with pytest.raises(ValueError, match="^beta too small"):
                sig.threshold_bound(chsh, 100, beta)
        with pytest.raises(ValueError,
                           match="^n must be within the float range$"):
            sig.threshold_bound(chsh, 10**400, 0.25)


def _big_enough_n(beta, d):
    eps = beta / (10 * d)
    return sig._minimal_n(eps, 2, 2, 2, 2) + 1


class TestIidThreshold:
    def test_certain_winner(self, chsh):
        exact, _ = sig.iid_threshold_probability(pr_box(), chsh, 50, 0.0)
        assert exact == pytest.approx(1.0)

    def test_classical_optimum_all_wins(self, chsh):
        from conftest import deterministic_box

        box = deterministic_box([0, 0], [0, 0])  # omega = 0.75
        exact, bound = sig.iid_threshold_probability(box, chsh, 10, 0.25)
        assert exact == pytest.approx(0.75**10, rel=1e-9)
        assert bound == pytest.approx(math.exp(-2 * 10 * 0.25**2))

    @pytest.mark.parametrize("n, beta, message", [
        (math.nan, 0.1, "n must be an integer"),  # cannot convert NaN
        (2.5, 0.1, "n must be an integer"),  # TypeError
        (10, math.nan, "beta must be finite and >= 0"),  # cannot convert NaN
        (10, math.inf, "beta must be finite and >= 0")],  # OverflowError
        ids=["n-nan", "n-2.5", "beta-nan", "beta-inf"])
    def test_inputs_checked(self, chsh, n, beta, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sig.iid_threshold_probability(pr_box(), chsh, n, beta)

    def test_exact_below_hoeffding_sweep(self, chsh, rng):
        boxes = [pr_box(), random_classical_box(rng),
                 random_classical_box(rng)]
        for box in boxes:
            for n in (10, 100, 1000):
                for beta in (0.01, 0.05, 0.1, 0.2):
                    exact, bound = sig.iid_threshold_probability(
                        box, chsh, n, beta)
                    assert exact <= bound + 1e-12

    def test_binomial_tail_against_bruteforce(self, rng):
        # independent oracle: enumerate outcomes for small n
        import itertools

        for n in (1, 4, 7):
            p = float(rng.uniform(0.2, 0.9))
            for k0 in range(n + 2):
                brute = sum(
                    math.prod(p if o else 1 - p for o in outcome)
                    for outcome in itertools.product((0, 1), repeat=n)
                    if sum(outcome) >= k0)
                assert sig._binomial_upper_tail(n, p, k0) == pytest.approx(
                    brute, abs=1e-12)

    @pytest.mark.parametrize("p", [1e-3, 0.2, 0.5, 0.81, 0.999])
    def test_binomial_tail_against_exact_sum(self, p):
        """Every k0 from 0 to n + 1, on both sides of the mode, within
        1e-13 of the tail of the float p summed exactly in rationals."""
        exact_p = Fraction(p)
        for n in (1, 2, 9, 60, 300):
            tail = Fraction(0)
            for k0 in range(n + 1, -1, -1):
                if k0 <= n:
                    tail += (math.comb(n, k0) * exact_p**k0
                             * (1 - exact_p)**(n - k0))
                assert sig._binomial_upper_tail(n, p, k0) == pytest.approx(
                    float(tail), rel=0, abs=1e-13), (n, k0)

    def test_binomial_tail_stop_keeps_full_sum(self):
        def full_sum(n, p, k0):
            # every term from k0 to n, or below the mode 1 - every term
            # from k0 - 1 down to 0, with no early stop
            logp, log1p = math.log(p), math.log1p(-p)
            below = k0 < (n + 1) * p
            total = 0.0
            for k in range(k0 - 1, -1, -1) if below else range(k0, n + 1):
                total += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                                  - math.lgamma(n - k + 1) + k * logp
                                  + (n - k) * log1p)
            return 1.0 - total if below else min(total, 1.0)

        for n in (1, 10, 137, 2000, 20000):
            for p in (1e-9, 1e-3, 0.3, 0.5, 0.81, 1 - 1e-3, 1 - 1e-9):
                mode, sd = (n + 1) * p, math.sqrt(n * p * (1 - p))
                k0s = {1, int(mode / 2), int(mode - sd), int(mode),
                       int(mode) + 1, int(mode + 3 * sd) + 1, n}
                for k0 in sorted(k for k in k0s if 1 <= k <= n):
                    assert sig._binomial_upper_tail(n, p, k0) == \
                        full_sum(n, p, k0), (n, p, k0)
