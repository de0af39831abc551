import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from di_toolkit import boxes, signalling
from di_toolkit.boxes import (Alphabets, EnumerationLimitError, Game,
                              InputDistribution, MultiRoundBox, ObservedData,
                              SingleRoundBox, chsh_game, classical_value,
                              l1_distance, winning_probability)
from conftest import (BINARY, bob_echoes_x_box, deterministic_box,
                      frequency_box, iid_box, pr_box, random_box,
                      random_classical_box, sample_iid_data, uniform_q)


class TestConstruction:
    def test_alphabets_reject_zero(self):
        with pytest.raises(ValueError):
            Alphabets(0, 2, 2, 2)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_alphabets_reject_non_integer(self, bad):
        # True once passed as the size 1
        with pytest.raises(ValueError, match="x_size must be an integer"):
            Alphabets(2, 2, bad, 2)

    def test_alphabets_numpy_integer_stored_as_int(self):
        al = Alphabets(np.int64(3), 2, 2, 2)
        assert al == Alphabets(3, 2, 2, 2) and type(al.a_size) is int

    @pytest.mark.parametrize("bad", [[["0.5", "0.5"]], [[True, False]],
                                     [[np.nan, 0.5], [0.25, 0.25]]],
                             ids=["strings", "booleans", "nan"])
    def test_input_distribution_non_numbers_rejected(self, bad):
        # once converted to 0.5 and to 1.0, 0.0; NaN once passed every
        # check, each a comparison that NaN fails
        with pytest.raises(ValueError, match="q entries must be numbers"):
            InputDistribution(np.array(bad))

    def test_nan_box_entries_rejected(self):
        # once accepted: NaN failed both the < 0 and the normalization test
        one = Alphabets(1, 1, 1, 1)
        with pytest.raises(ValueError, match="NaN probability entry"):
            SingleRoundBox(one, [[[[np.nan]]]])
        with pytest.raises(ValueError, match="NaN probability entry"):
            MultiRoundBox(2, one, np.full((1, 1, 1, 1), np.nan))

    def test_box_normalization_enforced(self):
        p = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(ValueError):
            SingleRoundBox(BINARY, p)

    def test_box_negative_entry_rejected(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = -0.1
        p[0, 0, 1, 1] = 0.6
        with pytest.raises(ValueError):
            SingleRoundBox(BINARY, p)

    def test_constructors_normalized_within_1e12(self, rng):
        for box in (pr_box(), bob_echoes_x_box(), random_box(rng),
                    iid_box(pr_box(), 2)):
            assert np.all(np.abs(box.p.sum(axis=(2, 3)) - 1.0) <= 1e-12)

    def test_observed_data_length_check(self):
        with pytest.raises(ValueError):
            ObservedData(3, np.zeros(2, int), np.zeros(3, int),
                         np.zeros(3, int), np.zeros(3, int), BINARY)

    def test_observed_data_range_check(self):
        with pytest.raises(ValueError):
            ObservedData(2, np.array([0, 5]), np.zeros(2, int),
                         np.zeros(2, int), np.zeros(2, int), BINARY)


    @pytest.mark.parametrize("name", ["a", "b", "x", "y"])
    @pytest.mark.parametrize("bad", [0.9, 1.5, float("nan"), float("inf")])
    def test_observed_data_non_integer_rejected(self, name, bad):
        # 0.9 was once read as symbol 0
        records = {k: np.zeros(2) for k in "abxy"}
        records[name][1] = bad
        with pytest.raises(ValueError, match=f"non-integer entry in {name}"):
            ObservedData(2, records["a"], records["b"], records["x"],
                         records["y"], BINARY)

    @pytest.mark.parametrize("bad", [np.array(["1", "0"]),
                                     np.array([True, False])],
                             ids=["strings", "booleans"])
    def test_observed_data_non_number_symbols_rejected(self, bad):
        # once read as the integers 1, 0
        with pytest.raises(ValueError, match="non-integer entry in b"):
            ObservedData(2, np.zeros(2, int), bad, np.zeros(2, int),
                         np.zeros(2, int), BINARY)

    def test_observed_data_integral_floats_accepted(self):
        data = ObservedData(2, np.array([0.0, 1.0]), np.zeros(2, int),
                            np.zeros(2, int), np.ones(2, int), BINARY)
        assert data.a.tolist() == [0, 1] and data.a.dtype.kind == "i"


def _largest_sig_measure(box):
    q = uniform_q(box.alphabets.x_size, box.alphabets.y_size)
    return max(abs(signalling.sig_measure(box, q, t))
               for t in signalling.all_sig_targets(box.alphabets))


class TestNonSignalling:
    """Every signalling measure of signalling.sig_measure is 0 on a
    non-signalling box and some is not on a signalling one."""

    def test_product_box_is_ns(self, rng):
        pa = rng.dirichlet(np.ones(2), size=2)
        pb = rng.dirichlet(np.ones(2), size=2)
        box = SingleRoundBox(BINARY, np.einsum("xa,yb->xyab", pa, pb))
        assert _largest_sig_measure(box) <= 1e-12

    def test_bob_echoes_x_is_signalling(self):
        # O(x, y, b=x) = 1/4 against Q(x|y) O_BY(b, y) = 1/8
        assert _largest_sig_measure(bob_echoes_x_box()) == pytest.approx(1 / 8)

    def test_pr_box_is_ns(self):
        assert _largest_sig_measure(pr_box()) <= 1e-12


class TestGames:
    def test_chsh_predicate(self, chsh):
        assert chsh.win[0, 0, 0, 0]
        assert not chsh.win[0, 1, 0, 0]
        assert chsh.win[0, 1, 1, 1]
        for a, b, x, y in itertools.product(range(2), repeat=4):
            assert chsh.win[a, b, x, y] == ((a ^ b) == (x & y))

    def test_extended_chsh_predicate(self, chsh_qkd):
        for a, b in itertools.product(range(2), repeat=2):
            assert chsh_qkd.win[a, b, 1, 2]
            assert chsh_qkd.win[a, b, 0, 2] == (a == b)

    def test_winning_probability_examples(self, chsh):
        assert winning_probability(deterministic_box([0, 0], [0, 0]),
                                   chsh) == pytest.approx(0.75)
        assert winning_probability(pr_box(), chsh) == pytest.approx(1.0)
        uniform = SingleRoundBox(BINARY, np.full((2, 2, 2, 2), 0.25))
        assert winning_probability(uniform, chsh) == pytest.approx(0.5)

    def test_alphabet_mismatch(self, chsh_qkd):
        with pytest.raises(boxes.AlphabetMismatchError):
            winning_probability(pr_box(), chsh_qkd)

    def test_classical_value_chsh(self, chsh):
        assert classical_value(chsh) == pytest.approx(0.75, abs=0)

    def test_classical_value_constant_true(self):
        q = uniform_q()
        game = Game(BINARY, q, np.ones((2, 2, 2, 2), dtype=bool))
        assert classical_value(game) == pytest.approx(1.0)

    def test_classical_value_extended_chsh(self, chsh_qkd):
        # enumerate the 2^2 * 2^3 deterministic pairs independently
        best = 0.0
        for f in itertools.product(range(2), repeat=2):
            for g in itertools.product(range(2), repeat=3):
                val = sum(chsh_qkd.q.q[x, y] * chsh_qkd.win[f[x], g[y], x, y]
                          for x in range(2) for y in range(3))
                best = max(best, val)
        assert classical_value(chsh_qkd) == pytest.approx(best)

    def test_classical_value_cap(self):
        # the cap counts Alice's functions: 4^11 ~ 4.2e6 of them, one
        # output for Bob
        al = Alphabets(4, 1, 11, 1)
        q = InputDistribution(np.full((11, 1), 1 / 11))
        game = Game(al, q, np.ones((4, 1, 11, 1), dtype=bool))
        with pytest.raises(EnumerationLimitError):
            classical_value(game)

    def test_classical_value_matches_pair_enumeration(self, rng,
                                                      monkeypatch):
        """Bob's best response in closed form against every deterministic
        pair (f, g), on random small games, with Alice's functions scored
        in one batch and in batches of 3 (across batch edges)."""
        for _ in range(60):
            a, b, x, y = (int(v) for v in rng.integers(1, 4, size=4))
            q = InputDistribution(rng.dirichlet(np.ones(x * y)).reshape(x, y))
            game = Game(Alphabets(a, b, x, y), q,
                        rng.random((a, b, x, y)) < 0.5)
            best = 0.0
            for f in itertools.product(range(a), repeat=x):
                for g in itertools.product(range(b), repeat=y):
                    best = max(best, sum(
                        q.q[i, j] * game.win[f[i], g[j], i, j]
                        for i in range(x) for j in range(y)))
            assert abs(classical_value(game) - best) <= 1e-12
            with monkeypatch.context() as patch:
                patch.setattr(boxes, "STRATEGY_BATCH", 3)
                assert abs(classical_value(game) - best) <= 1e-12


class TestFrequencyBox:
    def test_missing_pair_rejected(self):
        data = ObservedData(2, np.zeros(2, int), np.zeros(2, int),
                            np.zeros(2, int), np.zeros(2, int), BINARY)
        with pytest.raises(ValueError):
            frequency_box(data, uniform_q())

    def test_single_visit_each_cell(self):
        # four rounds covering the four input pairs once each, uniform q:
        # the occupied entry of each cell is (1/4) / (1/4) = 1
        data = ObservedData(4, np.zeros(4, int), np.zeros(4, int),
                            np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                            BINARY)
        fb = frequency_box(data, uniform_q())
        for x, y in itertools.product(range(2), repeat=2):
            assert fb[x, y, 0, 0] == pytest.approx(1.0)

    def test_unnormalized_output_allowed(self):
        # uneven input usage: entries scale by the input-frequency mismatch
        data = ObservedData(6, np.zeros(6, int), np.zeros(6, int),
                            np.array([0, 0, 0, 0, 1, 1]),
                            np.array([0, 0, 0, 1, 0, 1]), BINARY)
        fb = frequency_box(data, uniform_q())
        assert np.any(np.abs(fb.sum(axis=(2, 3)) - 1.0) > 1e-6)
        assert fb[0, 0, 0, 0] == pytest.approx((3 / 6) / 0.25)

    def test_iid_convergence_and_sanov(self, rng):
        source = random_classical_box(rng)
        q = uniform_q()
        eps = 0.1
        cells = 16
        means = {}
        for n in (10**3, 10**4):
            dists, violations = [], 0
            for _ in range(30):
                xs, ys, a, b = sample_iid_data(source, q, n, rng)
                fb = frequency_box(ObservedData(n, a, b, xs, ys, BINARY), q)
                # l1_distance on a table that need not be normalized
                dist = np.sum(q.q * np.abs(fb - source.p).sum(axis=(2, 3)))
                dists.append(dist)
                violations += dist > eps
            means[n] = np.mean(dists)
            bound = signalling.sanov_delta(n, eps, cells)
            assert violations / 30 <= min(bound, 1.0) + 3 * math.sqrt(
                min(bound, 1.0) * (1 - min(bound, 1.0)) / 30 + 1e-12) + 1e-12
        assert means[10**4] < means[10**3]


class TestL1Distance:
    def test_self_distance_zero(self):
        assert l1_distance(pr_box(), pr_box(), uniform_q()) == 0.0

    def test_opposite_deterministic(self):
        b0 = deterministic_box([0, 0], [0, 0])
        b1 = deterministic_box([1, 1], [0, 0])
        assert l1_distance(b0, b1, uniform_q()) == pytest.approx(2.0)

    def test_triangle_inequality(self, rng):
        q = uniform_q()
        for _ in range(20):
            a, b, c = (random_box(rng) for _ in range(3))
            assert l1_distance(a, c, q) <= (l1_distance(a, b, q)
                                            + l1_distance(b, c, q) + 1e-12)


class TestJsonRoundTrip:
    def test_game_round_trip(self, chsh_qkd, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(chsh_qkd.to_json_dict()))
        loaded = Game.from_json_dict(json.loads(path.read_text()))
        assert np.array_equal(loaded.win, chsh_qkd.win)
        assert np.allclose(loaded.q.q, chsh_qkd.q.q)


    @pytest.mark.parametrize("bad", [0.5, 2, -1, "booleans"])
    def test_game_win_outside_zero_one_rejected(self, chsh_qkd, bad):
        # 0.5 and 2 were once read as wins, and true/false as 1/0
        payload = chsh_qkd.to_json_dict()
        if bad == "booleans":
            payload["win"] = chsh_qkd.win.tolist()
        else:
            payload["win"][0][1][1][0] = bad
        with pytest.raises(ValueError, match="win entries must be 0 or 1"):
            Game.from_json_dict(json.loads(json.dumps(payload)))


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
       st.integers(0, 1))
def test_chsh_predicate_property(a, b, x, y):
    assert chsh_game().win[a, b, x, y] == ((a ^ b) == (x * y))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_classical_never_beats_ns(seed):
    from di_toolkit import nslp

    rng = np.random.default_rng(seed)
    game = _small_game(rng)
    value, _ = nslp.ns_value(game)
    assert classical_value(game) <= value + 1e-8


def _small_game(rng):
    from conftest import random_game

    return random_game(rng)
