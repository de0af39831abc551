import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from di_toolkit import boxes, definetti as df
from di_toolkit.boxes import Alphabets, MultiRoundBox
from conftest import BINARY, deterministic_box, iid_box
import perm_oracle


def tau_entry(n_jk):
    """tau's entry for the joint type counts n_jk, as tau_classes builds
    it: the inverse of the product of the rows' _row_denominator."""
    return Fraction(1, math.prod(map(df._row_denominator, n_jk)))


def single_use_counts(k, m=4, l=4):
    """n=1 counts with input pair 0 used once, producing output pair k."""
    n_jk = [[0] * m for _ in range(l)]
    n_jk[0][k] = 1
    return n_jk


class TestTypeCounts:
    def test_counts_of_strings(self):
        n_jk = perm_oracle.counts_of_strings((0, 1), (1, 0), (0, 0), (1, 1),
                                             BINARY)
        assert sum(map(sum, n_jk)) == 2
        assert sum(n_jk[0 * 2 + 1]) == 1  # (x,y) = (0,1)
        assert n_jk[0 * 2 + 1][0 * 2 + 1] == 1  # with (a,b) = (0,1)


class TestTauEntry:
    def test_single_round_values(self):
        # stick-breaking order makes the n=1 table (1/2, 1/4, 1/8, 1/8)
        expected = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                    Fraction(1, 8)]
        for k in range(4):
            assert tau_entry(single_use_counts(k)) == expected[k]

    def test_unused_input_contributes_one(self):
        assert tau_entry(((0, 0), (0, 0))) == 1

    def test_beta_moment(self):
        # single input pair, two outputs, two rounds split 1/1:
        # integral p(1-p) dp = 1/6
        assert tau_entry(((1, 1),)) == Fraction(1, 6)

    def test_monte_carlo_stick_breaking_oracle(self, rng):
        """Float tau entries agree with direct Monte Carlo integration over
        the sequential uniform measure within 3 standard errors."""
        m, l = 4, 2
        cases = [
            ((1, 1, 0, 0), (0, 0, 1, 0)),
            ((0, 2, 1, 0), (0, 0, 0, 0)),
            ((0, 0, 0, 1), (1, 0, 1, 0)),
        ]
        samples = 200_000
        for n_jk in cases:
            exact = float(tau_entry(n_jk))
            vals = np.ones(samples)
            for j in range(l):
                remainder = np.ones(samples)
                for k in range(m - 1):
                    p = remainder * rng.random(samples)
                    vals *= p ** n_jk[j][k]
                    remainder = remainder - p
                vals *= remainder ** n_jk[j][m - 1]
            est = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(samples)
            assert abs(est - exact) <= 3 * se + 1e-12


class TestBounds:
    def test_perm_upper_bound_is_inverse_orbit_size(self):
        """The oracle's entry bound of permutation-invariant boxes is the
        inverse orbit size: brute-force orbit counting at n <= 4 for a
        single input pair."""
        for n in (2, 3, 4):
            for assignment in itertools.product(range(2), repeat=n):
                counts = (assignment.count(0), assignment.count(1))
                c = (counts,)
                orbit = {tuple(assignment[i] for i in perm)
                         for perm in itertools.permutations(range(n))}
                assert perm_oracle.perm_upper_bound(c) == Fraction(
                    1, len(orbit))

    def test_reduction_factor(self):
        assert df.reduction_factor(2, 4, 4) == 3**12 == 531441
        assert df.reduction_factor(0, 3, 5) == 1
        assert df.reduction_factor(1, 1, 2) == 2
        # big-integer safe
        assert df.reduction_factor(50, 4, 4) == 51**12

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5,
                                       True])
    @pytest.mark.parametrize("name", ["n", "l", "m"])
    def test_reduction_factor_takes_integers(self, name, value):
        # nan and 2.5 once returned nan and 12.25
        args = {"n": 2, "l": 2, "m": 2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            df.reduction_factor(**args)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=4),
                min_size=1, max_size=3))
def test_bound_chain_property(rows):
    """The oracle's tau_lower_bound <= tau's entry <= perm_upper_bound for
    any well-formed counts, the entry equal to the running-division
    oracle."""
    m = max(len(r) for r in rows)
    rows = [r + [0] * (m - len(r)) for r in rows]
    mid = tau_entry(rows)
    assert perm_oracle.tau_lower_bound(rows) <= mid
    assert mid <= perm_oracle.perm_upper_bound(rows)
    assert mid == perm_oracle.tau_entry_exact(rows)


# (sizes, n): n = 1..3 on four alphabets, n = 4 binary, and |A||B| = 32 at
# n = 4, where 5,092 of the 52,360 denominators pass 2**63
DENOMINATOR_CASES = ([(sizes, n) for sizes in ((2, 2, 2, 2), (2, 3, 1, 2),
                                               (3, 2, 2, 1), (1, 2, 3, 2))
                      for n in (1, 2, 3)]
                     + [((2, 2, 2, 2), 4), ((4, 8, 1, 1), 4)])


@pytest.mark.parametrize("sizes, n", DENOMINATOR_CASES, ids=[
    f"{''.join(map(str, sizes))}-n{n}" for sizes, n in DENOMINATOR_CASES])
def test_class_denominators_match_oracle(sizes, n):
    """Each class's d, from the distinct rows' factors, is the inverse of
    the running-division tau of that class's own counts."""
    al = Alphabets(*sizes)
    _, counts = boxes._type_classes(n, al)
    rows = counts.reshape(len(counts), al.x_size * al.y_size, -1).tolist()
    tau = df.tau_classes(n, al)
    assert len(tau.denominators) == len(rows)
    assert all(type(d) is int for d in tau.denominators)
    assert [Fraction(1, d) for d in tau.denominators] == [
        perm_oracle.tau_entry_exact(row) for row in rows]
    if sizes == (4, 8, 1, 1):
        assert max(tau.denominators) > 2**63


class TestTauBox:
    def test_n1_binary_table(self):
        tau = df.tau_table_exact(1, BINARY)
        for x, y in itertools.product(range(2), repeat=2):
            # canonical output flattening k = a*b_size + b
            reordered = [tau[x, y, k // 2, k % 2] for k in range(4)]
            assert reordered == [Fraction(1, 2), Fraction(1, 4),
                                 Fraction(1, 8), Fraction(1, 8)]

    def test_positive_and_normalized(self):
        tau = df.tau_table_exact(2, BINARY)
        assert np.all(tau > 0)
        assert np.all(tau.sum(axis=(2, 3)) == 1)


class TestReduction:
    @pytest.mark.parametrize("n", [2.5, 2.0, True, math.nan, "2"])
    def test_tau_classes_takes_integer_n(self, n):
        # 2.5 once reached numpy, which raised TypeError
        with pytest.raises(ValueError, match="^n must be an integer$"):
            df.tau_classes(n, BINARY)

    def test_tau_classes_numpy_integer_n(self):
        tau = df.tau_classes(np.int64(2), BINARY)
        want = df.tau_classes(2, BINARY)
        assert type(tau.n) is int and tau.denominators == want.denominators
        assert np.array_equal(tau.index, want.index)
        # a numpy n once reached the size check as 16 ** np.int64(16),
        # which wraps to 0 and passed the 1e7-entry limit
        with pytest.raises(boxes.EnumerationLimitError):
            df.tau_classes(np.int64(16), BINARY)

    def test_tau_itself_has_ratio_one(self):
        tau = df.tau_classes(2, BINARY)
        assert df.verify_reduction_exact(df.tau_table_exact(2, BINARY),
                                         tau) == 1

    def test_iid_deterministic_n2(self):
        multi = iid_box(deterministic_box([0, 1], [1, 0]), 2)
        table = multi.p.astype(np.int64)  # 0/1 entries, denominator 1
        assert np.array_equal(table, multi.p)
        tau = df.tau_classes(2, BINARY)
        ratio = df.verify_reduction_exact(table, tau)
        assert ratio <= df.reduction_factor(2, 4, 4)

    def test_exact_reduction_random_boxes(self, rng):
        for n in (1, 2):
            tau = df.tau_classes(n, BINARY)
            tau_float = np.vectorize(float)(df.tau_table_exact(n, BINARY))
            factor = df.reduction_factor(n, 4, 4)
            for _ in range(25):
                nums, denom = df.random_symmetrized_int_table(tau, rng)
                ratio = df.verify_reduction_exact(nums, tau) / denom
                assert isinstance(ratio, Fraction)
                assert ratio <= factor
                # oracles: the same table as Fractions and the ratio in
                # floats
                exact = np.vectorize(lambda v: Fraction(int(v), denom),
                                     otypes=[object])(nums)
                assert df.verify_reduction_exact(exact, tau) == ratio
                assert float(ratio) == pytest.approx(
                    np.max(nums / (denom * tau_float)), rel=1e-12)

    def test_exact_reduction_all_deterministic_iid_n2(self):
        tau = df.tau_classes(2, BINARY)
        factor = df.reduction_factor(2, 4, 4)
        for fa in itertools.product(range(2), repeat=4):
            for fb in itertools.product(range(2), repeat=4):
                table = _deterministic_iid_exact(2, fa, fb)
                ratio = df.verify_reduction_exact(table, tau)
                assert ratio <= factor

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (2, 3, 1, 2),
                                       (3, 2, 2, 1)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tau_entries_are_unit_fractions(self, n, sizes):
        # the premise of verify_reduction_exact's integer products
        tau = df.tau_table_exact(n, Alphabets(*sizes))
        assert all(isinstance(t, Fraction) and t.numerator == 1
                   for t in tau.ravel().tolist())

    def test_misshaped_tables_rejected(self):
        tau = df.tau_classes(2, BINARY)
        good = np.zeros(tau.index.shape, dtype=np.int64)
        for table in (np.zeros((4, 4, 4, 2), dtype=np.int64),
                      good.reshape(4, 4, 16, 1), good[None]):
            with pytest.raises(ValueError):
                df.verify_reduction_exact(table, tau)

    @pytest.mark.parametrize("n, x_size", [(19, 1), (20, 1), (25, 1),
                                           (19, 2), (20, 2)])
    def test_numerators_past_int64_one_output(self, n, x_size, rng):
        """1009 n! passes 2**63 - 1 from n = 19; with one output per input
        P = tau = 1, so the exact ratio is 1."""
        tau = df.tau_classes(n, Alphabets(1, 1, x_size, 1))
        nums, denom = df.random_symmetrized_int_table(tau, rng)
        assert denom == 1009 * math.factorial(n)
        assert df.verify_reduction_exact(nums, tau) / denom == 1

    def test_numerators_past_int64_normalize(self, rng):
        """At n = 19 with two outputs each input string's numerators still
        sum to the denominator, and the ratio stays under the factor."""
        n = 19
        tau = df.tau_classes(n, Alphabets(2, 1, 1, 1))
        nums, denom = df.random_symmetrized_int_table(tau, rng)
        assert nums.sum() == denom
        ratio = df.verify_reduction_exact(nums, tau) / denom
        assert 1 < ratio <= df.reduction_factor(n, 1, 2)

    def test_prebuilt_classes_build_none(self, monkeypatch, rng):
        """With tau_classes built, drawing a table and checking it build no
        joint type classes."""
        tau = df.tau_classes(2, BINARY)
        calls = []
        for module in (boxes, df):
            monkeypatch.setattr(module, "_type_classes",
                                lambda *args: calls.append(args))
        nums, denom = df.random_symmetrized_int_table(tau, rng)
        assert df.verify_reduction_exact(nums, tau) / denom <= (
            df.reduction_factor(2, 4, 4))
        assert calls == []


def _deterministic_iid_exact(n, fa, fb):
    """Exact IID table of the deterministic single-round box
    a = fa[x*2+y], b = fb[x*2+y] (signalling allowed)."""
    single = np.zeros((2, 2, 2, 2), dtype=object)
    for x, y in itertools.product(range(2), repeat=2):
        for a, b in itertools.product(range(2), repeat=2):
            hit = fa[x * 2 + y] == a and fb[x * 2 + y] == b
            single[x, y, a, b] = Fraction(1) if hit else Fraction(0)
    shape = (2**n,) * 4
    table = np.empty(shape, dtype=object)
    for ix, iy, ia, ib in itertools.product(range(2**n), repeat=4):
        value = Fraction(1)
        for i in range(n):
            x = (ix >> i) & 1
            y = (iy >> i) & 1
            a = (ia >> i) & 1
            b = (ib >> i) & 1
            value *= single[x, y, a, b]
        table[ix, iy, ia, ib] = value
    return table


class TestPartition:
    def test_reduction_weight_feasible(self, rng):
        # any permutation-invariant box with weight 1/factor fits under tau:
        # (1/factor, P) is one branch of a convex decomposition of tau
        n = 2
        tau = np.vectorize(float)(df.tau_table_exact(n, BINARY))
        factor = df.reduction_factor(n, 4, 4)
        raw = rng.random((4, 4, 4, 4))
        raw /= raw.sum(axis=(2, 3), keepdims=True)
        sym = perm_oracle.symmetrize(MultiRoundBox(n, BINARY, raw))
        assert np.all(sym / factor <= tau + 1e-12)
