import contextlib
import dataclasses
import itertools
import signal

import numpy as np
import pytest

from di_toolkit import nslp
from di_toolkit.boxes import (Alphabets, Game, InputDistribution,
                              chsh_game, classical_value,
                              extended_chsh_game, winning_probability)
from di_toolkit.signalling import signalling_matrix
from conftest import (deterministic_box, is_nonsignalling, pr_box,
                      random_box, random_classical_box, random_game)
import lp_oracle

# the slacks of the programs build_ns_lp makes: None is the = form, the
# primal that checks ns_value's value below (and the benchmark's check of
# the ns-value item); a float is the <= slack program of perturbed_value
# (at 0 the <= 0 form, whose dual ns_value solves)
FORMS = [None, 0.0, 0.01, 0.05]

# games 9, 19 and 45 of random_game(default_rng(5), 4, 3): the <= 0 form
# loses its basis in phase 1 on them (after 498, 552 and 313 pivots), and
# the solve stops there with SolverError
STALLING_GAMES = (9, 19, 45)
# the optimum of stalling game 9's = form
STALLING_9_VALUE = 0.9150155739798812


def stalling_game(index):
    rng = np.random.default_rng(5)
    for _ in range(index + 1):
        game = random_game(rng, 4, 3)
    return game


def winning_pair(game):
    """Oracle: a deterministic pair (f, g) that wins every question (x, y)
    some answer wins, found by trying every pair, or None."""
    al = game.alphabets
    winnable = list(zip(*np.nonzero(game.win.any(axis=(0, 1)))))
    return next(((f, g) for f in itertools.product(range(al.a_size),
                                                   repeat=al.x_size)
                 for g in itertools.product(range(al.b_size),
                                            repeat=al.y_size)
                 if all(game.win[f[x], g[y], x, y] for x, y in winnable)),
                None)


def won_outright_by_pairs(game):
    return winning_pair(game) is not None


def within_enumeration_bound(game):
    """Alice's a_size**x_size functions are no more than the program's
    variables."""
    al = game.alphabets
    return al.a_size**al.x_size <= (al.x_size * al.y_size * al.a_size
                                    * al.b_size)


def trivial_bound(game):
    """T: the sum of Q(x,y) over the questions some answer wins."""
    return np.where(game.win.any(axis=(0, 1)), game.q.q, 0.0).sum()


def _var_index(al, x, y, a, b):
    return ((x * al.y_size + y) * al.a_size + a) * al.b_size + b


def loop_signalling_rows(game):
    """Oracle: the d signalling rows written out term by term, AtoB targets
    (x, y, b) then BtoA targets (x, y, a), with Q(x|y) and Q(y|x) taken
    from the game's Q(x,y) table (complete support)."""
    al = game.alphabets
    q = game.q.q
    qx_given_y = q / q.sum(axis=0)
    qy_given_x = q / q.sum(axis=1, keepdims=True)
    nvar = al.x_size * al.y_size * al.a_size * al.b_size
    rows = []
    for x in range(al.x_size):
        for y in range(al.y_size):
            for b in range(al.b_size):
                row = np.zeros(nvar)
                for a in range(al.a_size):
                    row[_var_index(al, x, y, a, b)] += q[x, y]
                    for xt in range(al.x_size):
                        row[_var_index(al, xt, y, a, b)] -= (
                            qx_given_y[x, y] * q[xt, y])
                rows.append(row)
    for x in range(al.x_size):
        for y in range(al.y_size):
            for a in range(al.a_size):
                row = np.zeros(nvar)
                for b in range(al.b_size):
                    row[_var_index(al, x, y, a, b)] += q[x, y]
                    for yt in range(al.y_size):
                        row[_var_index(al, x, yt, a, b)] -= (
                            qy_given_x[x, y] * q[x, yt])
                rows.append(row)
    return rows


def loop_ns_lp(game, slack):
    """Oracle: objective and rows of the non-signalling program, by loops."""
    sig_relation, sig_rhs = ("=", 0.0) if slack is None else ("<=", slack)
    al = game.alphabets
    nvar = al.x_size * al.y_size * al.a_size * al.b_size
    c = np.zeros(nvar)
    for x, y, a, b in itertools.product(range(al.x_size), range(al.y_size),
                                        range(al.a_size), range(al.b_size)):
        if game.win[a, b, x, y]:
            c[_var_index(al, x, y, a, b)] = game.q.q[x, y]
    rows = [(r, sig_relation, sig_rhs) for r in loop_signalling_rows(game)]
    for x in range(al.x_size):
        for y in range(al.y_size):
            row = np.zeros(nvar)
            for a in range(al.a_size):
                for b in range(al.b_size):
                    row[_var_index(al, x, y, a, b)] = 1.0
            rows.append((row, "=", 1.0))
    for v in range(nvar):
        row = np.zeros(nvar)
        row[v] = 1.0
        rows.append((row, ">=", 0.0))
    return c, rows


def zero_box_start(al):
    """Oracle: the (row, column) pairs that make P(0,0|x,y) basic on the
    normalization row of each (x, y), which follows the d signalling
    rows."""
    d = al.num_signalling_constraints
    return tuple((d + x * al.y_size + y, _var_index(al, x, y, 0, 0))
                 for x in range(al.x_size) for y in range(al.y_size))


def two_phase_lp(game, slack):
    """build_ns_lp's program without its start: solved in two phases."""
    return dataclasses.replace(nslp.build_ns_lp(game, slack), start=())


def same_record(got, want):
    """The two solutions' status, value, primal, basis and pivots agree
    byte for byte."""
    return (got.status == want.status
            and got.value.hex() == want.value.hex()
            and got.primal.tobytes() == want.primal.tobytes()
            and got.basis.tolist() == want.basis.tolist()
            and got.pivots == want.pivots)


def oracle_games():
    rng = np.random.default_rng(606)
    return ([chsh_game(), extended_chsh_game()]
            + [random_game(rng) for _ in range(50)])


def le_route_kappa(game):
    """Oracle: the retired two-solve route to kappa.  Solve the <= 0 form,
    then minimize sum(u) over the duals of that form at its optimum:
    S^T u + N^T v >= c, u >= 0, v free (split as v+ - v-), sum(v) = value."""
    lp = nslp.build_ns_lp(game, 0.0)
    sol = nslp.solve(lp)
    assert sol.status == "optimal"
    al = game.alphabets
    d = al.num_signalling_constraints
    n_norm = al.x_size * al.y_size
    S, N = lp.rows[:d], lp.rows[d:d + n_norm]
    obj = np.concatenate([-np.ones(d), np.zeros(2 * n_norm)])
    rows = np.vstack([np.hstack([S.T, N.T, -N.T]),
                      np.repeat([0.0, 1.0, -1.0], [d, n_norm, n_norm])])
    rels = [">="] * len(lp.c) + ["="]
    kappa_sol = nslp.solve(nslp.LinearProgram(
        obj, rows, rels, np.append(lp.c, sol.value)))
    assert kappa_sol.status == "optimal"
    return -kappa_sol.value


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSolver:
    def test_simple_bounded(self):
        lp = nslp.LinearProgram(np.array([1.0]), [[1.0]], ["<="], [1.0])
        sol = nslp.solve(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0)
        assert sol.primal[0] == pytest.approx(1.0)

    def test_infeasible(self):
        lp = nslp.LinearProgram(np.array([1.0]), [[1.0], [1.0]],
                                ["<=", ">="], [-1.0, 0.0])
        assert nslp.solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = nslp.LinearProgram(np.array([1.0]), [[1.0]], [">="], [1.0])
        assert nslp.solve(lp).status == "unbounded"

    def test_no_rows_optimal_at_origin(self):
        # a program with no rows once raised numpy's broadcast ValueError
        sol = nslp.solve(nslp.LinearProgram(np.array([-1.0, 0.0]), [], [],
                                            []))
        assert (sol.status, sol.value) == ("optimal", 0.0)
        assert sol.primal.tolist() == [0.0, 0.0]

    def test_no_variables_no_rows_optimal(self):
        # once numpy's "attempt to get argmax of an empty sequence"
        sol = nslp.solve(nslp.LinearProgram(np.zeros(0), [], [], []))
        assert (sol.status, sol.value) == ("optimal", 0.0)
        assert sol.primal.tolist() == [] and sol.pivots == (0, 0)

    def test_no_rows_unbounded(self):
        lp = nslp.LinearProgram(np.array([-1.0, 2.0]), [], [], [])
        assert nslp.solve(lp).status == "unbounded"

    def test_equality_and_duals(self):
        # max x + y s.t. x + y = 1, x <= 0.3
        lp = nslp.LinearProgram(np.array([1.0, 1.0]),
                                [[1.0, 1.0], [1.0, 0.0]], ["=", "<="],
                                [1.0, 0.3])
        sol = nslp.solve(lp)
        assert sol.value == pytest.approx(1.0)
        y = lp_oracle.duals(lp, sol.basis)
        assert float(y @ lp.rhs) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_duals_still_strong(self, rng):
        # random small LPs: strong duality within 1e-8 whenever optimal
        for _ in range(25):
            nvar = int(rng.integers(2, 5))
            nrow = int(rng.integers(2, 6))
            c = rng.normal(size=nvar)
            rows, rels, rhs = [], [], []
            for _ in range(nrow):
                rows.append(rng.normal(size=nvar))
                rels.append("<=" if rng.random() < 0.8 else "=")
                rhs.append(float(rng.random()))
            # keep it bounded
            lp = nslp.LinearProgram(c, rows + [np.ones(nvar)], rels + ["<="],
                                    rhs + [5.0])
            sol = nslp.solve(lp)
            if sol.status != "optimal":
                continue
            y = lp_oracle.duals(lp, sol.basis)
            assert float(y @ lp.rhs) == pytest.approx(sol.value, abs=1e-8)

    def _nudged(self, monkeypatch, nudge):
        """Shift every right-hand side by ``nudge`` once phase 2 ends."""
        phase = nslp._simplex_phase

        def nudging(tableau, basis, n_cols, max_iter, which):
            status, pivots = phase(tableau, basis, n_cols, max_iter, which)
            if which == 2:
                tableau[:-1, -1] += nudge
            return status, pivots

        monkeypatch.setattr(nslp, "_simplex_phase", nudging)

    def test_residual_guard_breaks_a_row(self, monkeypatch, chsh):
        """An optimum 1e-6 off its rows raises SolverError; 1e-13 off, well
        under RESIDUAL_TOL, is returned."""
        lp = nslp.build_ns_lp(chsh, 0.01)
        exact = nslp.solve(lp).value
        self._nudged(monkeypatch, 1e-13)
        assert nslp.solve(lp).value == pytest.approx(exact, abs=1e-11)
        self._nudged(monkeypatch, 1e-6)
        with pytest.raises(nslp.SolverError, match="optimum breaks row"):
            nslp.solve(lp)

    def test_residual_guard_breaks_nonnegativity(self, monkeypatch):
        """max x s.t. x <= 1, with x moved to -1: the row holds, x >= 0
        does not."""
        lp = nslp.LinearProgram(np.array([1.0]), [[1.0]], ["<="], [1.0])
        self._nudged(monkeypatch, -2.0)
        with pytest.raises(nslp.SolverError, match="breaks x >= 0"):
            nslp.solve(lp)

    def test_then_picks_among_optima(self):
        """max x0 + x1 on x0 + x1 <= 1 is optimal on a segment: then = x0
        keeps phase 2's end (1, 0), then = x1 pivots once more to (0, 1),
        and the continuation's pivot counts in phase 2."""
        for then, end, pivots in (([1.0, 0.0], [1.0, 0.0], (0, 1)),
                                  ([0.0, 1.0], [0.0, 1.0], (0, 2))):
            sol = nslp.solve(nslp.LinearProgram(np.ones(2), [[1.0, 1.0]],
                                                ["<="], [1.0], then=then))
            assert sol.status == "optimal" and sol.value == 1.0
            assert sol.primal.tolist() == end and sol.pivots == pivots

    def test_then_stays_on_optimal_face(self, monkeypatch):
        """max x0 on x0 + x1 <= 1 has one optimum, (1, 0): then = x1
        cannot move it, since x1's reduced cost is -1.  Priced without the
        face, the continuation leaves the optimum and solve raises."""
        lp = nslp.LinearProgram(np.array([1.0, 0.0]), [[1.0, 1.0]], ["<="],
                                [1.0], then=np.array([0.0, 1.0]))
        sol = nslp.solve(lp)
        assert sol.primal.tolist() == [1.0, 0.0] and sol.pivots == (0, 1)
        monkeypatch.setattr(nslp, "_onto_face", nslp._price)
        with pytest.raises(nslp.SolverError,
                           match="continuation leaves the optimum by 1"):
            nslp.solve(lp)

    def test_then_length_checked(self):
        with pytest.raises(ValueError, match="then length"):
            nslp.LinearProgram(np.ones(2), [], [], [], then=np.ones(3))

    def test_price_matches_every_row_loop(self, rng):
        """_price subtracts c_B times each row whose basic cost is nonzero,
        in row order: bit for bit the loop over every row, on random
        tableaux whose bases hold columns past c (slacks, artificials), c
        entries 0 and -0.0, and on the empty basis of a program with no
        rows."""
        def every_row(tableau, basis, c):
            cost = tableau[-1]
            cost[:] = 0.0
            cost[:len(c)] = c
            for i, j in enumerate(basis):
                c_basic = c[j] if j < len(c) else 0.0
                if c_basic != 0.0:
                    cost -= c_basic * tableau[i]

        for m, n, extra in [(0, 3, 0), (0, 0, 0), (1, 1, 0), (5, 4, 3),
                            (12, 20, 12), (40, 36, 45)]:
            for _ in range(20):
                c = rng.normal(size=n) * (rng.random(n) < 0.6)  # -0.0 too
                basis = rng.permutation(n + extra)[:m].tolist()
                tableau = rng.normal(size=(m + 1, n + extra + 1))
                want = tableau.copy()
                every_row(want, basis, c)
                nslp._price(tableau, basis, c)
                assert tableau.tobytes() == want.tobytes()


class TestGamePrograms:
    @pytest.mark.parametrize("form", FORMS,
                             ids=[f"form{i}" for i in range(len(FORMS))])
    def test_rows_match_loop_oracle(self, form):
        """build_ns_lp is byte-identical to the term-by-term program."""
        for game in oracle_games():
            lp = nslp.build_ns_lp(game, form)
            c, rows = loop_ns_lp(game, form)
            assert lp.c.tobytes() == c.tobytes()
            assert lp.rows.tobytes() == np.array(
                [r for r, _, _ in rows]).tobytes()
            assert lp.rels.tolist() == [rel for _, rel, _ in rows]
            assert lp.rhs.tobytes() == np.array(
                [rhs for _, _, rhs in rows]).tobytes()

    def test_dual_feasibility_certificate(self):
        """A^T y >= c with y >= 0 on <= rows, y <= 0 on >= rows and y free
        on = rows: the duals certify the optimum, not only its value."""
        rng = np.random.default_rng(4242)
        games = [chsh_game()] + [random_game(rng) for _ in range(50)]
        for game in games:
            for form in (None, 0.0):
                lp = nslp.build_ns_lp(game, form)
                sol = nslp.solve(lp)
                assert sol.status == "optimal"
                y = lp_oracle.duals(lp, sol.basis)
                assert np.all(lp.rows.T @ y >= lp.c - 1e-9)
                assert np.all(y[lp.rels == "<="] >= -1e-9)
                assert np.all(y[lp.rels == ">="] <= 1e-9)
                assert float(y @ lp.rhs) == pytest.approx(sol.value,
                                                          abs=1e-8)

    def test_chsh_row_counts(self, chsh):
        lp = nslp.build_ns_lp(chsh)
        assert lp.num_vars == 16
        d = chsh.alphabets.num_signalling_constraints
        assert d == 16
        assert all(lp.rels[:d + 4] == "=")
        assert lp.rhs[d:d + 4].tolist() == [1.0] * 4
        # signalling + normalization + positivity
        assert lp.rows.shape == (d + 4 + 16, 16)

    def test_extended_chsh_row_count(self, chsh_qkd):
        assert chsh_qkd.alphabets.num_signalling_constraints == 24

    def test_degenerate_game(self):
        from di_toolkit.boxes import Alphabets, Game, InputDistribution

        al = Alphabets(1, 1, 1, 1)
        q = InputDistribution(np.ones((1, 1)))
        game_true = Game(al, q, np.ones((1, 1, 1, 1), dtype=bool))
        game_false = Game(al, q, np.zeros((1, 1, 1, 1), dtype=bool))
        assert nslp.ns_value(game_true)[0] == pytest.approx(1.0)
        assert nslp.ns_value(game_false)[0] == pytest.approx(0.0, abs=1e-9)

    def test_chsh_ns_value_is_one(self, chsh):
        value, kappa = nslp.ns_value(chsh)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert kappa == 0.0
        # cross-check: the PR-type box is feasible and achieves the optimum
        assert winning_probability(pr_box(), chsh) == pytest.approx(1.0)
        assert is_nonsignalling(pr_box())

    def test_constant_predicates(self, chsh):
        from di_toolkit.boxes import Game

        game_true = Game(chsh.alphabets, chsh.q,
                         np.ones((2, 2, 2, 2), dtype=bool))
        game_false = Game(chsh.alphabets, chsh.q,
                          np.zeros((2, 2, 2, 2), dtype=bool))
        assert nslp.ns_value(game_true)[0] == pytest.approx(1.0)
        assert nslp.ns_value(game_false)[0] == pytest.approx(0.0, abs=1e-9)

    def test_perturbed_value_zero_slack(self, chsh):
        value, _ = nslp.ns_value(chsh)
        assert nslp.perturbed_value(chsh, 0.0) == pytest.approx(value,
                                                                abs=1e-9)

    def test_perturbed_monotone_and_capped(self, chsh):
        vals = [nslp.perturbed_value(chsh, s) for s in (0.0, 0.01, 0.05)]
        assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9
        assert all(v <= 1.0 + 1e-9 for v in vals)

    def test_chsh_kappa_zero_no_binding(self, chsh):
        # the non-signalling optimum of CHSH is 1, reached on the interior
        # of the signalling polytope face: no signalling constraint binds
        assert nslp.ns_value(chsh)[1] == pytest.approx(0.0, abs=1e-9)


class TestRandomGameProperties:
    def test_suite_on_random_games(self, rng):
        """Strong duality, kappa <= d, sensitivity, classical <= ns, and
        NS-box feasibility across 50 random small games."""
        for trial in range(50):
            game = random_game(rng)
            d = game.alphabets.num_signalling_constraints

            value, kappa = nslp.ns_value(game)
            lp = nslp.build_ns_lp(game)
            sol = nslp.solve(lp)
            y = lp_oracle.duals(lp, sol.basis)
            assert float(y @ lp.rhs) == pytest.approx(sol.value, abs=1e-8)

            assert kappa <= d + 1e-9

            assert classical_value(game) <= value + 1e-8

            for slack in (0.0, 0.01, 0.05):
                assert (nslp.perturbed_value(game, slack)
                        <= value + slack * kappa + 1e-8)

    def test_relaxed_form_same_optimum(self, rng):
        # the <=-0 form of the signalling rows is equivalent to equalities
        for _ in range(10):
            game = random_game(rng)
            eq = nslp.solve(nslp.build_ns_lp(game)).value
            le = nslp.solve(nslp.build_ns_lp(game, 0.0)).value
            assert le == pytest.approx(eq, abs=1e-8)

    def test_ns_boxes_feasible_and_below_optimum(self, rng, chsh):
        value, _ = nslp.ns_value(chsh)
        for _ in range(20):
            box = random_classical_box(rng)
            assert is_nonsignalling(box)
            measures = signalling_matrix(chsh.alphabets, chsh.q) @ box.p.reshape(-1)
            assert np.max(np.abs(measures)) <= 1e-8
            assert winning_probability(box, chsh) <= value + 1e-8

    def test_signalling_row_sums_vanish_under_normalization(self):
        """For each (x, y) the AtoB rows summed over b, and the BtoA rows
        summed over a, are combinations of normalization rows whose
        coefficients sum to 0, so they vanish on every normalized table:
        the = and <= 0 forms have the same feasible set."""
        rng = np.random.default_rng(1977)
        for _ in range(40):
            game = random_game(rng, 4, 3)
            al = game.alphabets
            X, Y, A, B = al.x_size, al.y_size, al.a_size, al.b_size
            d = al.num_signalling_constraints
            S = signalling_matrix(al, game.q)
            N = nslp.build_ns_lp(game).rows[d:d + X * Y]
            sums = []
            for x, y in itertools.product(range(X), range(Y)):
                atob = (x * Y + y) * B
                btoa = X * Y * B + (x * Y + y) * A
                sums += [S[atob:atob + B].sum(axis=0),
                         S[btoa:btoa + A].sum(axis=0)]
            for row_sum in sums:
                coef, *_ = np.linalg.lstsq(N.T, row_sum, rcond=None)
                assert np.max(np.abs(N.T @ coef - row_sum)) <= 1e-14
                assert abs(coef.sum()) <= 1e-14
            for _ in range(5):
                p = random_box(rng, al).p.reshape(-1)
                assert np.max(np.abs(np.array(sums) @ p)) <= 1e-14


class TestSingleSolve:
    def test_matches_le_route_oracle(self):
        """ns_value's value is the = form's primal optimum within 1e-12
        (strong duality), and its kappa is the retired <= 0 route's
        within 1e-9."""
        rng = np.random.default_rng(1812)
        games = ([chsh_game(), extended_chsh_game()]
                 + [random_game(rng) for _ in range(120)])
        for game in games:
            value, kappa = nslp.ns_value(game)
            optimum = nslp.solve(nslp.build_ns_lp(game)).value
            assert value == pytest.approx(optimum, abs=1e-12)
            assert kappa == pytest.approx(le_route_kappa(game), abs=1e-9)
            # a sum of non-negative duals: +0.0 at a zero optimum
            assert kappa >= 0.0 and not np.signbit(kappa)

    @pytest.mark.parametrize("index", STALLING_GAMES)
    def test_stalling_games_finish(self, index):
        game = stalling_game(index)
        with deadline(10):
            value, kappa = nslp.ns_value(game)
        assert kappa <= game.alphabets.num_signalling_constraints
        for slack in (0.01, 0.05):
            with deadline(10):
                perturbed = nslp.perturbed_value(game, slack)
            assert perturbed <= value + slack * kappa + 1e-8

    @pytest.mark.parametrize("seed, index", [(1, 88), (4, 20)])
    def test_kappa_exactly_zero_at_shift(self, seed, index):
        """On these games the value is sum(v0), where u = 0 is optimal:
        kappa is exactly +0.0, not rounding noise (the = form's duals gave
        3.1e-14 and 1.2e-15)."""
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            game = random_game(rng)
        value, kappa = nslp.ns_value(game)
        wins = game.win.any(axis=(0, 1))
        assert value == pytest.approx(game.q.q[wins].sum(), abs=1e-15)
        assert kappa == 0.0 and not np.signbit(kappa)

    def test_value_program_has_no_phase_1(self, monkeypatch):
        """A game won outright within the enumeration bound makes no solve.
        Every other game makes one, and as every dual row's right-hand side
        is >= 0, it starts from its slack basis: no phase-1 pivot."""
        rng = np.random.default_rng(4242)
        games = ([chsh_game(), extended_chsh_game()]
                 + [stalling_game(index) for index in STALLING_GAMES]
                 + [random_game(rng) for _ in range(120)])
        solutions, solve = [], nslp.solve

        def recording(lp):
            solutions.append(solve(lp))
            return solutions[-1]

        monkeypatch.setattr(nslp, "solve", recording)
        outright = 0
        for game in games:
            solutions.clear()
            nslp.ns_value(game)
            if within_enumeration_bound(game) and won_outright_by_pairs(game):
                outright += 1
                assert solutions == []
            else:
                assert len(solutions) == 1
                assert solutions[0].pivots[0] == 0
        assert 0 < outright < len(games)

    def test_incomplete_support_raises(self):
        """The support check comes before the signalling matrix, which
        divides by Q."""
        game = chsh_game()
        q = game.q.q.copy()
        q[0, 1], q[0, 0] = 0.0, q[0, 0] + q[0, 1]
        incomplete = Game(game.alphabets, InputDistribution(q), game.win)
        with pytest.raises(ValueError, match="complete support"):
            nslp.ns_value(incomplete)


class TestStart:
    """build_ns_lp's <= slack program starts at the deterministic box
    (0, 0): phase 2 runs from there when every computed right-hand side is
    >= 0, else the solve is the two-phase one."""

    def games(self):
        rng = np.random.default_rng(3535)
        return ([chsh_game(), extended_chsh_game()]
                + [random_game(rng) for _ in range(120)])

    def test_le_form_carries_zero_box_start(self):
        """The <= slack program's start is the oracle's; the = form has
        none."""
        for game in self.games():
            start = zero_box_start(game.alphabets)
            for form in FORMS:
                assert nslp.build_ns_lp(game, form).start == (
                    () if form is None else start)

    def test_taken_exactly_when_rhs_nonnegative(self):
        """The start's right-hand sides as the reference computes them:
        all >= 0, and the start is taken, with the X*Y start pivots as
        phase 1 and the two-phase optimum within 1e-12; one < 0, and the
        record is the two-phase solve's.  At slack > 0 every start is
        taken."""
        games = self.games()
        taken = {slack: 0 for slack in FORMS[1:]}
        for game in games:
            xy = game.alphabets.x_size * game.alphabets.y_size
            for slack in FORMS[1:]:
                lp = nslp.build_ns_lp(game, slack)
                tableau, basis = lp_oracle.start_tableau(lp)
                assert (basis >= 0).all()
                plain = nslp.solve(two_phase_lp(game, slack))
                got = nslp.solve(lp)
                if (tableau[:, -1] >= 0).all():
                    taken[slack] += 1
                    assert got.pivots[0] == xy != plain.pivots[0]
                    assert got.value == pytest.approx(plain.value, abs=1e-12)
                else:
                    assert same_record(got, plain)
        # at slack 0 the start is degenerate: the rounding of S x decides
        assert 0 < taken[0.0] < len(games)
        assert taken[0.01] == taken[0.05] == len(games)

    def test_refused_start_is_two_phase_solve(self, chsh):
        """A start whose pivot entry is 0, or that leaves a normalization
        row without a basic column, is refused."""
        plain = nslp.solve(two_phase_lp(chsh, 0.01))
        zero_entry, missing = (nslp.build_ns_lp(chsh, 0.01),
                               nslp.build_ns_lp(chsh, 0.01))
        (row, _), (_, column) = zero_entry.start[:2]
        zero_entry.start = ((row, column),) + zero_entry.start[1:]
        missing.start = missing.start[1:]
        for lp in (zero_entry, missing):
            assert same_record(nslp.solve(lp), plain)

    def test_only_perturbed_value_starts(self, monkeypatch):
        """perturbed_value's program carries the deterministic box's start
        and ns_value's one does not; the value is the started solve's."""
        programs, solve = [], nslp.solve

        def recording(lp):
            programs.append(lp)
            return solve(lp)

        monkeypatch.setattr(nslp, "solve", recording)
        games = [game for game in self.games()[:20]
                 if nslp._outright_value(game) is None]
        assert games
        for game in games:
            programs.clear()
            nslp.ns_value(game)
            assert [lp.start for lp in programs] == [()]
            value = nslp.perturbed_value(game, 0.01)
            assert programs[-1].start == zero_box_start(game.alphabets)
            assert value == solve(nslp.build_ns_lp(game, 0.01)).value


class TestWonOutright:
    """A game that a deterministic pair wins outright is worth the trivial
    bound T at every slack, with kappa 0, and solves no program."""

    def test_agrees_with_pair_enumeration(self):
        rng = np.random.default_rng(3312)
        games = ([random_game(rng) for _ in range(120)]
                 + [random_game(rng, 3, 3) for _ in range(120)])
        outcomes = []
        for game in games:
            assert within_enumeration_bound(game)
            outright = nslp._outright_value(game) is not None
            assert outright == won_outright_by_pairs(game)
            outcomes.append(outright)
        assert 0 < sum(outcomes) < len(outcomes)

    def won_games(self):
        rng = np.random.default_rng(3313)
        games = [game for game in (random_game(rng, 3, 3) for _ in range(80))
                 if won_outright_by_pairs(game)]
        binary = Alphabets(2, 2, 2, 2)
        q = InputDistribution(np.full((2, 2), 0.25))
        constant = np.ones((2, 2, 2, 2), dtype=bool)
        agree = np.eye(2, dtype=bool)[:, :, None, None] & constant
        return games + [Game(binary, q, predicate) for predicate in
                        (constant, agree, ~constant)]

    def test_value_is_trivial_bound(self):
        """ns_value returns (T, +0.0) exactly and perturbed_value T at each
        slack.  The winning pair's box is non-signalling and worth T, and
        every form of the program that solves agrees within 1e-12."""
        games = self.won_games()
        assert len(games) == 45
        lost = []
        for i, game in enumerate(games):
            bound = trivial_bound(game)
            value, kappa = nslp.ns_value(game)
            assert value == bound and type(value) is float
            assert kappa == 0.0 and not np.signbit(kappa)
            for slack in FORMS[1:]:
                assert nslp.perturbed_value(game, slack) == bound
            box = deterministic_box(*winning_pair(game), game.alphabets)
            assert is_nonsignalling(box)
            assert winning_probability(box, game) == pytest.approx(
                bound, abs=1e-15)
            for form in FORMS:
                try:
                    sol = nslp.solve(nslp.build_ns_lp(game, form))
                except nslp.SolverError:
                    lost.append((i, form))
                    continue
                assert sol.value == pytest.approx(bound, abs=1e-12)
        # the <= 0 form of one 3x3x3x3 game loses its basis (TestLostBasis):
        # perturbed_value(game, 0.0) raised SolverError on it, and now
        # returns T
        assert lost == [(39, 0.0)]
        assert games[39].alphabets == Alphabets(3, 3, 3, 3)

    @pytest.mark.parametrize("game", [chsh_game(), extended_chsh_game()] + [
        stalling_game(index) for index in STALLING_GAMES],
        ids=["chsh", "extended-chsh"] + [f"stalling-{index}"
                                         for index in STALLING_GAMES])
    def test_not_won_outright(self, game):
        assert not won_outright_by_pairs(game)
        assert nslp._outright_value(game) is None

    def test_past_enumeration_bound_solves(self, monkeypatch):
        """Alice answers x mod 2 and wins every question, but her 2^5
        functions outnumber the 10 variables: the programs are solved,
        one for ns_value and one for perturbed_value."""
        al = Alphabets(2, 1, 5, 1)
        win = np.zeros((2, 1, 5, 1), dtype=bool)
        for x in range(5):
            win[x % 2, 0, x, 0] = True
        game = Game(al, InputDistribution(np.full((5, 1), 0.2)), win)
        assert won_outright_by_pairs(game)
        assert not within_enumeration_bound(game)
        programs, solve = [], nslp.solve

        def counting(lp):
            programs.append(lp)
            return solve(lp)

        monkeypatch.setattr(nslp, "solve", counting)
        value, kappa = nslp.ns_value(game)
        assert len(programs) == 1
        assert value == pytest.approx(1.0, abs=1e-12)
        assert kappa == pytest.approx(0.0, abs=1e-12)
        assert nslp.perturbed_value(game, 0.01) == pytest.approx(1.0,
                                                                 abs=1e-12)
        assert len(programs) == 2

    def test_input_checks_come_first(self):
        """A negative or NaN slack and an incomplete support are errors on
        a game won outright too."""
        game = self.won_games()[-3]  # every answer wins
        for slack in (-0.01, float("nan")):
            with pytest.raises(ValueError, match="slack must be >= 0"):
                nslp.perturbed_value(game, slack)
        q = game.q.q.copy()
        q[0, 1], q[0, 0] = 0.0, q[0, 0] + q[0, 1]
        incomplete = Game(game.alphabets, InputDistribution(q), game.win)
        for call in (nslp.ns_value,
                     lambda g: nslp.perturbed_value(g, 0.01)):
            with pytest.raises(ValueError, match="complete support"):
                call(incomplete)


class TestExactCertificate:
    """The final basis of each solve, rebuilt in Fraction from the
    program's float coefficients (lp_oracle.certificate), is optimal:
    B x_B = b exactly, x_B >= 0, every reduced cost <= 0 and the primal
    and dual objectives equal.  With ``then`` the basis is optimal for c,
    and for ``then`` on the columns of c's optimal face, those whose c
    reduced cost is >= -SOLVER_TOL (the face nslp.solve continues on).

    The float coefficients are not the exact program (Q(x|y) = 1/3 is
    rounded), so a degenerate optimum sits a few ulps off: x_B down to
    -4.2e-16 and reduced costs up to 1.3e-14 were seen.  The bounds are
    X_TOL and COST_TOL, 1e-5 and 1e-4 times SOLVER_TOL, the float
    solver's own stopping threshold."""

    X_TOL = 1e-5 * nslp.SOLVER_TOL
    COST_TOL = 1e-4 * nslp.SOLVER_TOL

    def games(self):
        """CHSH, extended CHSH and four seeded 2x2x2x2 random games that no
        deterministic pair wins outright."""
        rng = np.random.default_rng(2024)
        games = [chsh_game(), extended_chsh_game()]
        while len(games) < 6:
            game = random_game(rng, 2, 2)
            if nslp._outright_value(game) is None:
                games.append(game)
        return games

    def check(self, lp, sol):
        cert = lp_oracle.certificate(lp, sol.basis)
        assert all(r == 0 for r in cert.residual)
        assert min(cert.x) >= -self.X_TOL
        assert max(cert.c.reduced) <= self.COST_TOL
        assert cert.c.primal == cert.c.dual
        assert sol.value == pytest.approx(float(cert.c.primal),
                                          abs=self.X_TOL)
        assert np.allclose(sol.primal, [float(v) for v in
                                        cert.x[:lp.num_vars]],
                           rtol=0.0, atol=self.X_TOL)
        if lp.then is not None:
            face = [j for j, r in enumerate(cert.c.reduced)
                    if r >= -nslp.SOLVER_TOL]
            assert max(cert.then.reduced[j] for j in face) <= self.COST_TOL
            assert cert.then.primal == cert.then.dual
        return cert

    def test_optimal_bases_certified(self, monkeypatch):
        """ns_value's program with its continuation, and perturbed_value's
        at slack 0 and 0.01 (started or two-phase, as solve takes them);
        ns_value's kappa is the continuation's exact optimum."""
        solves, solve = [], nslp.solve

        def recording(lp):
            solves.append((lp, solve(lp)))
            return solves[-1][1]

        monkeypatch.setattr(nslp, "solve", recording)
        for game in self.games():
            solves.clear()
            _, kappa = nslp.ns_value(game)
            for slack in (0.0, 0.01):
                nslp.perturbed_value(game, slack)
            assert [lp.then is not None for lp, _ in solves] == [
                True, False, False]
            certs = [self.check(lp, sol) for lp, sol in solves]
            # then = -sum(u), so kappa = -(its optimum)
            assert kappa == pytest.approx(-float(certs[0].then.primal),
                                          abs=self.X_TOL)

    def test_slack_basis_is_not_certified(self, chsh, monkeypatch):
        """The certificate is not vacuous: ns_value's program at its
        starting slack basis, feasible but not optimal, has a reduced cost
        of 1 (a w- column), far above COST_TOL."""
        programs, solve = [], nslp.solve
        monkeypatch.setattr(nslp, "solve",
                            lambda lp: programs.append(lp) or solve(lp))
        nslp.ns_value(chsh)
        lp, = programs
        n = lp.num_vars
        cert = lp_oracle.certificate(lp, range(n, n + len(lp.rows)))
        assert all(r == 0 for r in cert.residual) and min(cert.x) >= 0
        assert max(cert.c.reduced) == 1


class TestLostBasis:
    """A basic column that enters again is drift if its tableau column is
    within BASIS_TOL of its unit vector, and a lost basis past it."""

    @pytest.mark.parametrize("index", STALLING_GAMES)
    def test_stalling_le_form_fails_fast(self, index):
        """The <= 0 form of a stalling game raises the lost-basis error in
        phase 1 within a second: no false "infeasible" on game 9, whose
        feasible set is the = form's, which is optimal."""
        game = stalling_game(index)
        with deadline(1):
            with pytest.raises(nslp.SolverError,
                               match="lost its basis in phase 1"):
                nslp.solve(nslp.build_ns_lp(game, 0.0))
        if index == 9:
            sol = nslp.solve(nslp.build_ns_lp(game))
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(STALLING_9_VALUE, abs=1e-12)

    # shapes (x, y, a, b) of the random games drawn per pass, and their seed
    MIX_SHAPES = [(2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 2, 3), (2, 3, 3, 3),
                  (3, 2, 3, 2), (3, 2, 3, 3), (3, 3, 2, 3), (3, 3, 3, 2)] * 3
    MIX_SEED = 18121092

    def mix_game(self, pass_index, index):
        """Random game ``index`` of a verify-mix pass: Dirichlet q mixed
        with 10% uniform, fair-coin predicate, drawn in turn."""
        rng = np.random.default_rng([self.MIX_SEED, pass_index])
        for x, y, a, b in self.MIX_SHAPES[:index + 1]:
            q = rng.dirichlet(np.ones(x * y)).reshape(x, y)
            q = 0.9 * q + 0.1 / (x * y)
            win = rng.random((a, b, x, y)) < 0.5
        return Game(Alphabets(a, b, x, y), InputDistribution(q), win)

    def test_drift_reentries_still_solve(self, monkeypatch):
        """The <= 0 form of pass 10's game 14 re-enters 6 basic columns,
        each within 2e-9 of its unit vector: the rule lets every one
        pivot, and the optimum is the = form's."""
        game = self.mix_game(10, 14)
        assert game.alphabets == Alphabets(2, 3, 3, 3)
        offsets, bases = [], []
        phase, pivot = nslp._simplex_phase, nslp._pivot

        def recording_phase(tableau, basis, *args):
            bases.append(basis)
            return phase(tableau, basis, *args)

        def recording_pivot(tableau, leave, enter):
            basis = bases[-1]
            if enter in basis:
                unit = np.zeros(len(basis))
                unit[basis.index(enter)] = 1.0
                offsets.append(np.abs(tableau[:-1, enter] - unit).max())
            pivot(tableau, leave, enter)

        monkeypatch.setattr(nslp, "_simplex_phase", recording_phase)
        monkeypatch.setattr(nslp, "_pivot", recording_pivot)
        sol = nslp.solve(two_phase_lp(game, 0.0))
        assert sol.status == "optimal"
        assert len(offsets) == 6 and max(offsets) <= 2e-9
        optimum = nslp.solve(nslp.build_ns_lp(game)).value
        assert sol.value == pytest.approx(optimum, abs=1e-9)


class _Enough(Exception):
    pass


class TestReferenceSolver:
    """solve against tests/lp_oracle.py, the simplex with a separate cost
    row: the same pivots, so the same bytes, from a start and through a
    second objective too."""

    def test_same_solutions_and_records(self, monkeypatch):
        rng = np.random.default_rng(1812)
        games = ([chsh_game(), extended_chsh_game()]
                 + [random_game(rng) for _ in range(120)])
        programs, solve = [], nslp.solve

        def recording(lp):
            programs.append(lp)
            return solve(lp)

        monkeypatch.setattr(nslp, "solve", recording)
        continued = 0
        for game in games:
            # ns_value's program (none for a game won outright)
            programs.clear()
            nslp.ns_value(game)
            assert all(lp.then is not None for lp in programs)
            continued += len(programs)
            # every form, with and without the <= slack programs' start
            for lp in (programs
                       + [two_phase_lp(game, form) for form in FORMS]
                       + [nslp.build_ns_lp(game, s) for s in FORMS[1:]]):
                got, want = solve(lp), lp_oracle.solve(lp)
                assert got.status == want.status
                assert got.value.hex() == want.value.hex()
                assert got.primal.tobytes() == want.primal.tobytes()
                assert got.basis.tolist() == want.basis.tolist()
                assert got.pivots == want.pivots
        assert 0 < continued < len(games)

    @pytest.mark.parametrize("index", STALLING_GAMES)
    def test_stalling_pivot_sequence(self, index, monkeypatch):
        """The <= 0 form of a stalling game loses its basis in phase 1:
        solve stops there with SolverError, and every (leave, enter) pair
        it made is the reference's."""
        lp = two_phase_lp(stalling_game(index), 0.0)
        made, pivot = [], nslp._pivot

        def recording(tableau, leave, enter):
            made.append((int(leave), int(enter)))
            pivot(tableau, leave, enter)

        monkeypatch.setattr(nslp, "_pivot", recording)
        with pytest.raises(nslp.SolverError,
                           match="lost its basis in phase 1") as exc:
            nslp.solve(lp)
        assert str(exc.value).endswith(f"after {len(made)} pivots")

        reference, reference_pivot = [], lp_oracle._pivot

        def until_made(tableau, leave, enter):
            if len(reference) == len(made):
                raise _Enough
            reference.append((int(leave), int(enter)))
            reference_pivot(tableau, leave, enter)

        monkeypatch.setattr(lp_oracle, "_pivot", until_made)
        with pytest.raises(_Enough):
            lp_oracle.solve(lp)
        assert reference == made

    def test_pivot_counts_are_pivots(self, monkeypatch):
        """The two phase counts add up to the pivots made, from a taken
        start too."""
        made = []
        pivot = nslp._pivot

        def counting(*args):
            made.append(args[1:])
            pivot(*args)

        monkeypatch.setattr(nslp, "_pivot", counting)
        rng = np.random.default_rng(2718)
        for game in [chsh_game()] + [random_game(rng) for _ in range(10)]:
            for form in FORMS:
                made.clear()
                sol = nslp.solve(two_phase_lp(game, form))
                assert sol.pivots[0] > 0  # the = rows start on artificials
                assert sum(sol.pivots) == len(made)
            for slack in (0.01, 0.05):
                made.clear()
                sol = nslp.solve(nslp.build_ns_lp(game, slack))
                assert sol.pivots[0] == len(zero_box_start(game.alphabets))
                assert sum(sol.pivots) == len(made)
