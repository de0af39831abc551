r"""Linear programs over boxes: optimal non-signalling winning probability,
its slack-relaxed (approximately signalling) variant, and the minimal dual
kappa, with which value + slack * kappa bounds the relaxed value.

The non-signalling conditions and the winning probability are both linear in
the table entries P(a,b|x,y), so the optimal non-signalling value of a game
is an LP; its signalling rows are the rows of
:func:`signalling.signalling_matrix`, the same matrix the signalling measure
and the signalling test use.  :func:`ns_value` solves the dual of the
``<= 0`` form once: phase 2 finds the value and continues on its optimal
face to the least kappa.  :func:`perturbed_value` solves the primal with
every signalling row ``<= slack``.
Neither solves anything when a deterministic pair (f, g) wins every
question that some answer wins: the classical value then meets the
trivial bound, the sum of Q over those questions, which is the value at
every slack, and kappa is 0.  The program, the dual and that check read
a game's support, win table and trivial bound from one body, _win_table.

The ``<= 0`` and ``=`` forms have the same feasible set: for each (x, y),
the AtoB rows (x, y, b) summed over b are Q(x,y) N_xy - Q(x|y) sum_x'
Q(x',y) N_x'y, a combination of normalization rows N whose coefficients
sum to 0 (likewise the BtoA rows (x, y, a) summed over a).  On a
normalized table each such sum is 0, so signalling rows that are all
<= 0 are all 0.  The optimum of the ``=`` form (:func:`build_ns_lp`
without a slack) checks :func:`ns_value` from the primal side.

The solver is a dense two-phase simplex with Bland's rule: the programs
here have at most a few hundred variables and we need deterministic,
reproducible solutions.  At this size a pivot's cost is numpy call
overhead, not arithmetic, so the cost row is the tableau's last row and
one row update per pivot clears the entering column from it too.  A
program is a constraint matrix with a relation and a right-hand side per
row ([S; N; I] in :func:`build_ns_lp`).  solve takes a program's start
where its basis is feasible as computed, else flips rows to b >= 0 and
adds artificials on the rows left without a basic column.  An optimum is
checked against every row and x >= 0 before it is returned.

Bland's rule ends only in exact arithmetic.  When a column that is
already basic enters again, its tableau column is compared with its unit
vector.  Within BASIS_TOL the nonzero reduced cost is drift in the cost
row, and the pivot goes ahead.  Past it the tableau has lost its basis,
no later pivot means anything, and the solve raises SolverError.  Over
7,600 programs of random games in all four forms, the re-entries of
solves that end optimal sat at most 2e-9 off unit, and the first broken
column of each lost basis 1.6e-3 to 39 off unit (9 programs, all of the
``<= 0`` form; without the check they ran for seconds into the iteration
cap or ended in a false "infeasible").  BASIS_TOL = 1e-6 sits near the
geometric mean of the two scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import Game, _win_by_question, best_deterministic_score
from .signalling import signalling_matrix

SOLVER_TOL = 1e-9
# how far a re-entering basic column may sit from its unit vector
BASIS_TOL = 1e-6
# how far an optimum may break a row, per unit of the row's scale: past
# the 6e-13 of optimal solves of random games, below the 1e-6 of a false
# optimum (a dual variant of the perturbed program, on a stalling game)
RESIDUAL_TOL = 1e-9

LE, EQ, GE = "<=", "=", ">="


@dataclass
class LinearProgram:
    """max c.x subject to rows @ x (rels) rhs and x >= 0, for an (m, n)
    matrix ``rows``, one relation per row and an (m,) ``rhs``.  ``start``
    holds (row, column) pairs, one per = row: solve pivots on each to
    make that column basic there, and runs phase 2 from the result if it
    is a feasible basis (_start).  ``then``, if given, is a second
    objective, maximized over the optima of c (_onto_face)."""

    c: np.ndarray
    rows: np.ndarray
    rels: np.ndarray
    rhs: np.ndarray
    start: tuple = ()
    then: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        if self.then is not None:
            self.then = np.asarray(self.then, dtype=float)
            if self.then.shape != (n,):
                raise ValueError("then length != variable count")
        self.rows = np.asarray(self.rows, dtype=float)
        if not self.rows.size:  # [] has shape (0,), not (0, n)
            self.rows = self.rows.reshape(len(self.rows), n)
        self.rels = np.asarray(self.rels, dtype=str)
        self.rhs = np.asarray(self.rhs, dtype=float)
        m = len(self.rows)
        if (self.rows.shape, self.rels.shape, self.rhs.shape) != (
                (m, n), (m,), (m,)):
            raise ValueError("rows, rels and rhs must be (m, n), (m,), (m,)")
        unknown = set(self.rels.tolist()) - {LE, EQ, GE}
        if unknown:
            raise ValueError(f"unknown relation {min(unknown)!r}")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class LPSolution:
    """A solve's outcome and its record: the final basis (the basic column
    of each of the program's rows; an artificial left basic has an index
    past its columns) and the pivot counts of phase 1 (an accepted
    start's pivots, else the artificials' phase and the pivots that
    drive them out) and phase 2 (including a ``then`` continuation's,
    whose end is ``primal``; ``value`` is c's optimum).  A refused
    start's pivots were made on a tableau that is dropped, and are not
    counted: the record is the two-phase solve's."""

    status: str  # optimal | infeasible | unbounded
    basis: np.ndarray
    pivots: tuple
    value: float = float("nan")
    primal: np.ndarray = field(default_factory=lambda: np.zeros(0))


class SolverError(RuntimeError):
    pass


def _pivot(tableau, leave, enter):
    """Pivot the tableau on entry (leave, enter): scale the pivot row to 1
    there and clear the column from every other row that holds it, the
    cost row included."""
    row = tableau[leave]
    row /= row[enter]
    col = tableau[:, enter]
    held = np.abs(col) > 1e-14
    held[leave] = False
    rows = held.nonzero()[0]
    block = tableau[rows]
    block -= col[rows][:, None] * row
    tableau[rows] = block


def _simplex_phase(tableau, basis, n_cols, max_iter, phase):
    """Run Bland-rule simplex over the first ``n_cols`` columns of a tableau
    whose last column is the rhs and whose last row is the cost row
    (reduced costs, last entry = -objective).  The entering reduced cost
    is > SOLVER_TOL > 1e-14, so _pivot always updates the cost row.

    A basic column that enters again is checked against its unit vector:
    within BASIS_TOL its reduced cost is drift and the pivot proceeds;
    beyond it the tableau has lost its basis and SolverError names the
    ``phase`` and the pivots made.

    Mutates tableau and the list ``basis`` in place; returns 'optimal' or
    'unbounded' and the number of pivots made.
    """
    body, rhs, cost = tableau[:-1], tableau[:-1, -1], tableau[-1, :n_cols]
    if not n_cols:  # no column can enter
        return "optimal", 0
    basic = set(basis)
    for pivots in range(max_iter):
        enter = int((cost > SOLVER_TOL).argmax())
        if not cost[enter] > SOLVER_TOL:
            return "optimal", pivots
        col = body[:, enter]
        if enter in basic:
            unit = np.zeros(len(basis))
            unit[basis.index(enter)] = 1.0
            if np.abs(col - unit).max() > BASIS_TOL:
                raise SolverError(f"simplex lost its basis in phase {phase} "
                                  f"after {pivots} pivots")
        # ratio test over the rows that bound the entering variable; ties
        # within SOLVER_TOL go to the smallest basic index (Bland)
        cand = (col > SOLVER_TOL).nonzero()[0]
        leave = -1
        if cand.size == 1:  # the least ratio, on a finite tableau
            leave = int(cand[0])
        elif cand.size:
            best = np.inf
            ratios = rhs[cand] / col[cand]
            for i, ratio in zip(cand.tolist(), ratios.tolist()):
                if ratio < best - SOLVER_TOL or (
                        abs(ratio - best) <= SOLVER_TOL
                        and (leave < 0 or basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", pivots
        _pivot(tableau, leave, enter)
        basic.discard(basis[leave])
        basic.add(enter)
        basis[leave] = enter
    raise SolverError("simplex iteration cap reached")


def solve(lp: LinearProgram) -> LPSolution:
    """Dense simplex with Bland's anti-cycling rule: phase 2 from the
    program's start where solve accepts it (_start), else two phases.

    Returns an optimal basic solution, its basis and pivot counts.
    Deterministic given the program.  Raises SolverError if the tableau
    loses its basis or the optimum breaks a row (_certify).
    """
    n, m = lp.num_vars, len(lp.rows)
    le, eq, ge = (lp.rels == rel for rel in (LE, EQ, GE))

    # Equality standard form: A x + S slack = b with slack >= 0 for <= rows
    # (>= rows get -1 slack); rows 0..m-1 are the constraints, row m the
    # cost row, and the last column the rhs.
    slack_rows = np.flatnonzero(~eq)
    n_total = n + len(slack_rows)
    slacks = slack_rows, np.arange(n, n_total)
    form = np.zeros((m + 1, n_total + 1))
    form[:m, :n] = lp.rows
    form[:m, -1] = lp.rhs
    form[slacks] = np.where(le[slack_rows], 1.0, -1.0)

    # the accepted start, else the rows flipped to b >= 0; artificials on
    # the rows left without a basic column (none after an accepted start)
    started = _start(form, ge, slacks, lp.start) if lp.start else None
    tableau, basis = started or _flipped(
        form, np.flatnonzero(form[:m, -1] < 0), slacks)
    phase1 = len(lp.start) if started else 0
    art_rows = [i for i in range(m) if basis[i] < 0]
    n_art = len(art_rows)
    max_iter = 50000 + 200 * (n_total + n_art)
    if n_art:
        for k, i in enumerate(art_rows):
            basis[i] = n_total + k
        tableau = np.insert(tableau, [n_total] * n_art, 0.0, axis=1)
        tableau[art_rows, n_total + np.arange(n_art)] = 1.0
        # auxiliary objective: maximize -(sum of artificials); the cost row
        # starts at the sum of the artificial rows (rhs column = -objective)
        cost = tableau[m]
        for i in art_rows:
            cost += tableau[i]
        cost[n_total:n_total + n_art] = 0.0
        status, pivots = _simplex_phase(tableau, basis, n_total + n_art,
                                        max_iter, 1)
        phase1 += pivots
        if status != "optimal" or cost[-1] > 1e-7:
            return LPSolution(status="infeasible", basis=np.array(basis),
                              pivots=(phase1, 0))
        # pivot artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= n_total:
                nz = np.flatnonzero(np.abs(tableau[i, :n_total]) > SOLVER_TOL)
                if nz.size:
                    _pivot(tableau, i, nz[0])
                    basis[i] = int(nz[0])
                    phase1 += 1
        tableau = np.delete(tableau, np.s_[n_total:n_total + n_art], axis=1)

    # Phase 2, then on to lp.then over the optima of c.
    _price(tableau, basis, lp.c)
    status, phase2 = _simplex_phase(tableau, basis, n_total, max_iter, 2)
    if status == "optimal" and lp.then is not None:
        value = float(lp.c @ _primal(tableau, basis, n_total)[:n])
        _onto_face(tableau, basis, lp.then)
        status, more = _simplex_phase(tableau, basis, n_total, max_iter, 2)
        phase2 += more
    basis = np.array(basis, dtype=int)
    if status == "unbounded":
        return LPSolution(status="unbounded", basis=basis,
                          pivots=(phase1, phase2))

    primal = _primal(tableau, basis, n_total)[:n]
    _certify(lp, primal, eq, ge)
    reached = float(lp.c @ primal)
    if lp.then is None:
        value = reached
    elif value - reached > RESIDUAL_TOL * (
            1.0 + np.abs(lp.c) @ np.abs(primal)):
        raise SolverError(f"simplex continuation leaves the optimum by "
                          f"{value - reached:.3g}")
    return LPSolution(status="optimal", value=value, primal=primal,
                      basis=basis, pivots=(phase1, phase2))


def _price(tableau, basis, c):
    """Write objective c's reduced costs into the cost row: c on its
    columns, less c_B times each row whose basic column is one of them,
    row by row in order (rows whose c_B is 0 change nothing)."""
    cost = tableau[-1]
    cost[:] = 0.0
    cost[:len(c)] = c
    c_basic = np.append(c, 0.0)[np.minimum(basis, len(c)).astype(int)]
    for i in np.flatnonzero(c_basic).tolist():
        cost -= c_basic[i] * tableau[i]


def _onto_face(tableau, basis, then):
    """Restrict an optimal tableau to its objective's optimal face and
    price ``then`` there.  A nonbasic column whose reduced cost is below
    -SOLVER_TOL is 0 at every optimum (Chvatal, *Linear Programming*,
    1983), so it is zeroed, its cost entry too, and never enters; every
    later pivot keeps the objective at its optimum."""
    off_face = np.flatnonzero(tableau[-1, :-1] < -SOLVER_TOL)
    _price(tableau, basis, then)
    tableau[:, off_face] = 0.0


def _primal(tableau, basis, n_total):
    """The basic solution of a tableau: each basic column at its row's
    rhs, the rest 0 (an artificial left basic at zero is dropped)."""
    basis = np.asarray(basis)
    real = basis < n_total
    primal = np.zeros(n_total)
    primal[basis[real]] = tableau[:-1][real, -1]
    return primal


def _flipped(form, rows, slacks):
    """A copy of ``form`` with ``rows`` negated, and its basis: each row's
    slack column (``slacks``: rows, columns) where that entry is then +1,
    else -1."""
    tableau = form.copy()
    tableau[rows] *= -1.0
    basis = np.full(len(tableau) - 1, -1)
    enters = tableau[slacks] == 1.0
    basis[slacks[0][enters]] = slacks[1][enters]
    return tableau, basis.tolist()


def _start(form, ge, slacks, start):
    """The program's start as (tableau, basis), or None where it is refused.

    Each >= row is written as its negated <= row, so every slack enters
    with +1 and starts basic, and the start pivots give the = rows their
    basic columns.  The start is refused if a pivot entry is within
    SOLVER_TOL of 0, a row is left without a basic column, or a
    right-hand side is < 0 as computed: it is taken as it stands, with no
    clean-up of rounding.  ``ge`` marks the >= rows.
    """
    tableau, basis = _flipped(form, np.flatnonzero(ge), slacks)
    for i, j in start:
        if not abs(tableau[i, j]) > SOLVER_TOL:
            return None
        _pivot(tableau, i, j)
        basis[i] = j
    if -1 in basis or not (tableau[:-1, -1] >= 0.0).all():
        return None
    return tableau, basis


def _certify(lp, x, eq, ge):
    """Raise SolverError if x < 0, or if x breaks a row a.x (rel) b of the
    program by more than RESIDUAL_TOL times the row's scale
    1 + |a|.|x| + |b|; ``eq`` and ``ge`` mark the = and >= rows."""
    a, b = lp.rows, lp.rhs
    excess = a @ x - b
    excess = np.select([eq, ge], [abs(excess), -excess], excess)
    scale = 1.0 + np.abs(a) @ np.abs(x) + np.abs(b)
    broken = np.flatnonzero(excess > RESIDUAL_TOL * scale)
    if broken.size:
        i = broken[0]
        raise SolverError(f"simplex optimum breaks row {i} by {excess[i]:.3g}")
    if x.min(initial=0.0) < -RESIDUAL_TOL:
        raise SolverError(f"simplex optimum breaks x >= 0 by {-x.min():.3g}")


# ---------------------------------------------------------------------------
# game programs


def _normalization_matrix(al) -> np.ndarray:
    """One row per input pair (x, y): the sum of P(a,b|x,y) over a, b."""
    return np.repeat(np.eye(al.x_size * al.y_size), al.a_size * al.b_size,
                     axis=1)


def _win_table(game: Game) -> tuple:
    """(wins, v0) of a game with complete support: its win table in
    ``[x][y][a][b]`` order and v0[x,y], Q(x,y) on the questions that some
    answer wins and 0 elsewhere, whose sum is the trivial bound."""
    if not game.q.complete_support:
        raise ValueError("game must have complete support")
    wins = _win_by_question(game)
    return wins, np.where(wins.any(axis=(2, 3)), game.q.q, 0.0)


def build_ns_lp(game: Game, slack: float | None = None,
                table=None) -> LinearProgram:
    """LP for the optimal non-signalling winning probability of a game.

    Variables are the table entries P(a,b|x,y) in ``[x][y][a][b]`` order;
    the objective is the winning probability, Q(x,y) on every winning entry
    (_win_table's v0, which refuses a game without complete support;
    ``table`` is that (wins, v0) where the caller has it).
    The first d rows are the rows of :func:`signalling.signalling_matrix`:
    equalities at 0 for the non-signalling program (``slack=None``), or
    ``<= slack`` for the perturbed one.  They are followed by one
    normalization row per input pair and one positivity row per variable.
    The ``<= slack`` program starts (LinearProgram.start) at the
    deterministic box (0, 0): P(0,0|x,y) basic on each normalization row;
    the ``=`` form has no start.
    """
    wins, v0 = table or _win_table(game)
    al = game.alphabets
    pairs, answers = al.x_size * al.y_size, al.a_size * al.b_size
    c = np.where(wins, v0[:, :, None, None], 0.0).reshape(-1)
    S, N = signalling_matrix(al, game.q), _normalization_matrix(al)
    sig_rel, sig_rhs, start = (EQ, 0.0, ()) if slack is None else (
        LE, slack, tuple((len(S) + k, k * answers) for k in range(pairs)))
    sizes = [len(S), pairs, pairs * answers]
    return LinearProgram(c, np.vstack([S, N, np.eye(pairs * answers)]),
                         np.repeat([sig_rel, EQ, GE], sizes),
                         np.repeat([sig_rhs, 1.0, 0.0], sizes), start)


def _outright_value(game: Game, table=None) -> float | None:
    """The trivial bound T = sum of Q(x,y) over the questions that some
    answer wins, when a deterministic pair (f, g) wins all of them; else
    None.

    Such a pair is a non-signalling box worth T, and no box is worth more,
    so T is the optimum at every slack >= 0; the dual's u = 0,
    v[x,y] = max_ab c[x,y,a,b] is optimal, so the least kappa is 0.  The
    pair's won questions are counted exactly (integer weights).  Alice's
    a_size**x_size functions are enumerated only while they are no more
    than the program's variables; past that: None, and the program runs.
    A game without complete support raises ValueError (_win_table);
    ``table`` is its (wins, v0) where the caller has it.
    """
    wins, v0 = table or _win_table(game)
    al = game.alphabets
    if al.a_size**al.x_size > al.x_size * al.y_size * al.a_size * al.b_size:
        return None
    # Q > 0 on every question, so v0's nonzero entries are the winnable ones
    if best_deterministic_score(wins.astype(np.int64)) < np.count_nonzero(v0):
        return None
    return float(v0.sum())


def ns_value(game: Game) -> tuple:
    """Optimal non-signalling winning probability and its sensitivity kappa.

    A game that a deterministic pair wins outright (_outright_value) is
    worth the trivial bound, with kappa 0.0, and no program is solved.
    Otherwise both come from the dual of
    max{c.x : Sx <= 0, Nx = 1, x >= 0}, the ``<= 0`` form:
    min sum(v) over S^T u + N^T v >= c, u >= 0, v free.
    kappa = sum(u) certifies that relaxing each signalling row by s raises
    the optimum by at most s * kappa.  One solve gives both: phase 2 finds
    the value, then continues on the (possibly degenerate) dual optimal
    face to the least kappa (LinearProgram.then).  kappa is >= 0 and
    never -0.0.  With v = v0 + w+ - w-, v0[x,y] = max over (a,b) of
    c[x,y,a,b] (_win_table's v0), each dual row -(S^T u + N^T w) <=
    N^T v0 - c has rhs >= 0, so the solve starts from the slack basis: no
    phase 1.  Raises SolverError if the program is not solved to
    optimality.
    """
    wins, v0 = table = _win_table(game)
    outright = _outright_value(game, table)
    if outright is not None:
        return outright, 0.0
    S = signalling_matrix(game.alphabets, game.q)
    N = _normalization_matrix(game.alphabets)
    d, n_norm = len(S), len(N)
    rhs = np.where(wins, 0.0, v0[:, :, None, None]).reshape(-1)
    dual_rows = -np.hstack([S.T, N.T, -N.T])
    # maximize -sum(w), then -sum(u) over its optima
    minus_sum_w = np.repeat([0.0, -1.0, 1.0], [d, n_norm, n_norm])
    minus_sum_u = np.repeat([-1.0, 0.0], [d, 2 * n_norm])
    sol = solve(LinearProgram(minus_sum_w, dual_rows, np.full(len(rhs), LE),
                              rhs, then=minus_sum_u))
    if sol.status != "optimal":
        raise SolverError(f"non-signalling program: {sol.status}")
    # sum(u) >= 0; +0.0, not -0.0 or rounding noise, at a zero optimum
    return float(v0.sum() - sol.value), max(0.0, float(sol.primal[:d].sum()))


def perturbed_value(game: Game, slack: float) -> float:
    """Optimum with every signalling constraint relaxed to <= slack: the
    trivial bound, with no program solved, on a game that a deterministic
    pair wins outright (_outright_value), else the primal's optimum.  A
    game without complete support is refused (_win_table).

    The primal starts at build_ns_lp's deterministic box, every slack
    basic.  The box is non-signalling, so the signalling rows' right-hand
    sides are slack - S x = slack, and phase 2 starts there with no phase
    1.  At slack 0 the start is degenerate: S x is 0 only in exact
    arithmetic and is computed a few 1e-17 either side, so solve refuses
    the start on most programs and runs both phases (the stalling games'
    lost basis in phase 1 stands).
    """
    if not slack >= 0:
        raise ValueError("slack must be >= 0")
    table = _win_table(game)
    outright = _outright_value(game, table)
    if outright is not None:
        return outright
    sol = solve(build_ns_lp(game, slack, table))
    if sol.status != "optimal":
        raise SolverError(f"perturbed program: {sol.status}")
    return float(sol.value)
