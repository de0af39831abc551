r"""Linear programs over boxes: optimal non-signalling winning probability,
its slack-relaxed (approximately signalling) variant, dual solutions, and
the sensitivity bound connecting the two.

The non-signalling conditions and the winning probability are both linear in
the table entries P(a,b|x,y), so the optimal non-signalling value of a game
is an LP.  The solver is a dense two-phase simplex with Bland's rule: the
programs here have at most a few hundred variables and we need deterministic,
reproducible dual solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import Game, SingleRoundBox

SOLVER_TOL = 1e-9

LE, EQ, GE = "<=", "=", ">="


@dataclass
class LinearProgram:
    """max c.x subject to rows (coeffs, relation, rhs); variables x >= 0."""

    c: np.ndarray
    rows: list  # list of (np.ndarray, relation, float)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        for coeffs, rel, _ in self.rows:
            if np.asarray(coeffs).shape != (n,):
                raise ValueError("row length != variable count")
            if rel not in (LE, EQ, GE):
                raise ValueError(f"unknown relation {rel!r}")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | unbounded
    value: float = float("nan")
    primal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))


class SolverError(RuntimeError):
    pass


def _simplex_phase(tableau, basis, n_total, cost_row, max_iter):
    """Run Bland-rule simplex on a tableau whose last column is the rhs.

    ``cost_row`` is a working row (reduced costs, last entry = -objective).
    Mutates tableau/basis/cost_row in place; returns 'optimal' or 'unbounded'.
    """
    m = tableau.shape[0]
    for _ in range(max_iter):
        enter = -1
        for j in range(n_total):
            if cost_row[j] > SOLVER_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = np.inf
        for i in range(m):
            a = tableau[i, enter]
            if a > SOLVER_TOL:
                ratio = tableau[i, -1] / a
                if ratio < best - SOLVER_TOL or (
                        abs(ratio - best) <= SOLVER_TOL
                        and (leave < 0 or basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        piv = tableau[leave, enter]
        tableau[leave] /= piv
        for i in range(m):
            if i != leave and abs(tableau[i, enter]) > 1e-14:
                tableau[i] -= tableau[i, enter] * tableau[leave]
        cost_row -= cost_row[enter] * tableau[leave]
        basis[leave] = enter
    raise SolverError("simplex iteration cap reached")


def solve(lp: LinearProgram) -> LPSolution:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    Returns an optimal basic solution together with one dual multiplier per
    constraint row.  Deterministic given the program.
    """
    n = lp.num_vars
    m = len(lp.rows)

    # Equality standard form: A x + S slack = b with slack >= 0 for <= rows
    # (>= rows get -1 slack), then flip rows to make b >= 0.
    A = np.zeros((m, n))
    b = np.zeros(m)
    slack_cols = {}
    n_slack = 0
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        A[i] = coeffs
        b[i] = rhs
        if rel in (LE, GE):
            slack_cols[i] = n_slack
            n_slack += 1
    n_total = n + n_slack
    M = np.zeros((m, n_total))
    M[:, :n] = A
    sign = np.ones(m)
    for i, (_, rel, _) in enumerate(lp.rows):
        if rel == LE:
            M[i, n + slack_cols[i]] = 1.0
        elif rel == GE:
            M[i, n + slack_cols[i]] = -1.0
    for i in range(m):
        if b[i] < 0:
            M[i] *= -1.0
            b[i] *= -1.0
            sign[i] = -1.0

    # Phase 1: artificials where the slack cannot start basic.
    basis = [-1] * m
    art_rows = []
    for i, (_, rel, _) in enumerate(lp.rows):
        j = n + slack_cols[i] if rel in (LE, GE) else None
        if j is not None and M[i, j] == 1.0:
            basis[i] = j
        else:
            art_rows.append(i)
    n_art = len(art_rows)
    tableau = np.zeros((m, n_total + n_art + 1))
    tableau[:, :n_total] = M
    tableau[:, -1] = b
    for k, i in enumerate(art_rows):
        tableau[i, n_total + k] = 1.0
        basis[i] = n_total + k

    max_iter = 50000 + 200 * (n_total + n_art)
    if n_art:
        # auxiliary objective: maximize -(sum of artificials); reduced cost
        # row starts at sum of the artificial rows, rhs column = -objective
        cost = np.zeros(n_total + n_art + 1)
        for i in art_rows:
            cost[:] += tableau[i]
        cost[n_total:n_total + n_art] = 0.0
        status = _simplex_phase(tableau, basis, n_total + n_art, cost, max_iter)
        if status != "optimal" or cost[-1] > 1e-7:
            return LPSolution(status="infeasible")
        # pivot artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= n_total:
                for j in range(n_total):
                    if abs(tableau[i, j]) > SOLVER_TOL:
                        piv = tableau[i, j]
                        tableau[i] /= piv
                        for r in range(m):
                            if r != i and abs(tableau[r, j]) > 1e-14:
                                tableau[r] -= tableau[r, j] * tableau[i]
                        basis[i] = j
                        break
        tableau = np.delete(tableau, np.s_[n_total:n_total + n_art], axis=1)

    # Phase 2.
    cost = np.zeros(n_total + 1)
    cost[:n] = lp.c
    c_basic = [lp.c[basis[i]] if basis[i] < n else 0.0 for i in range(m)]
    for i in range(m):
        if c_basic[i] != 0.0:
            cost -= c_basic[i] * tableau[i]
    status = _simplex_phase(tableau, basis, n_total, cost, max_iter)
    if status == "unbounded":
        return LPSolution(status="unbounded")

    primal = np.zeros(n_total)
    for i in range(m):
        if basis[i] < n_total:
            primal[basis[i]] = tableau[i, -1]
    value = float(lp.c @ primal[:n])

    # Duals: y solves y . column_j = c_j on the basic columns of the final
    # (row-reduced) system; recover via the original equality-form matrix.
    Mfull = np.zeros((m, n_total))
    Mfull[:, :n] = A * sign[:, None]
    for i, (_, rel, _) in enumerate(lp.rows):
        if rel in (LE, GE):
            Mfull[i, n + slack_cols[i]] = (1.0 if rel == LE else -1.0) * sign[i]
    cB = np.zeros(m)
    cols = np.zeros((m, m))
    for i in range(m):
        j = basis[i]
        if j < n:
            cB[i] = lp.c[j]
        cols[:, i] = Mfull[:, j] if j < n_total else 0.0
        if j >= n_total:  # leftover artificial basic at zero level
            cols[i, i] = 1.0
    try:
        y = np.linalg.solve(cols.T, cB)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(cols.T, cB, rcond=None)
    dual = y * sign  # undo the row flips
    return LPSolution(status="optimal", value=value,
                      primal=primal[:n], dual=dual)


# ---------------------------------------------------------------------------
# game programs


def _var_index(al, x, y, a, b) -> int:
    return ((x * al.y_size + y) * al.a_size + a) * al.b_size + b


def signalling_constraint_rows(game: Game) -> list:
    """Coefficient rows of all d = |X||Y|(|A|+|B|) signalling measures.

    Row order: all Alice-to-Bob targets (x, y, b) lexicographically, then all
    Bob-to-Alice targets (x, y, a).
    """
    al = game.alphabets
    q = game.q.q
    qx_given_y = game.q.x_given_y()
    qy_given_x = game.q.y_given_x()
    nvar = al.x_size * al.y_size * al.a_size * al.b_size
    rows = []
    for x in range(al.x_size):
        for y in range(al.y_size):
            for b in range(al.b_size):
                row = np.zeros(nvar)
                for a in range(al.a_size):
                    row[_var_index(al, x, y, a, b)] += q[x, y]
                    for xt in range(al.x_size):
                        row[_var_index(al, xt, y, a, b)] -= qx_given_y[x, y] * q[xt, y]
                rows.append(row)
    for x in range(al.x_size):
        for y in range(al.y_size):
            for a in range(al.a_size):
                row = np.zeros(nvar)
                for b in range(al.b_size):
                    row[_var_index(al, x, y, a, b)] += q[x, y]
                    for yt in range(al.y_size):
                        row[_var_index(al, x, yt, a, b)] -= qy_given_x[x, y] * q[x, yt]
                rows.append(row)
    return rows


def _objective(game: Game) -> np.ndarray:
    al = game.alphabets
    nvar = al.x_size * al.y_size * al.a_size * al.b_size
    c = np.zeros(nvar)
    for x in range(al.x_size):
        for y in range(al.y_size):
            for a in range(al.a_size):
                for b in range(al.b_size):
                    if game.win[a, b, x, y]:
                        c[_var_index(al, x, y, a, b)] = game.q.q[x, y]
    return c


def build_ns_lp(game: Game, sig_relation: str = EQ, sig_rhs: float = 0.0
                ) -> LinearProgram:
    """LP for the optimal non-signalling winning probability of a game.

    Variables are the table entries P(a,b|x,y); the objective is the winning
    probability.  The first d rows are the signalling constraints
    (``sig_relation`` / ``sig_rhs`` select the exact form: equality at 0 for
    the non-signalling program, <= slack for the relaxed one), followed by
    one normalization row per input pair and one positivity row per variable.
    """
    if not game.q.complete_support:
        raise ValueError("game must have complete support")
    al = game.alphabets
    nvar = al.x_size * al.y_size * al.a_size * al.b_size
    rows = [(r, sig_relation, sig_rhs) for r in signalling_constraint_rows(game)]
    for x in range(al.x_size):
        for y in range(al.y_size):
            row = np.zeros(nvar)
            for a in range(al.a_size):
                for b in range(al.b_size):
                    row[_var_index(al, x, y, a, b)] = 1.0
            rows.append((row, EQ, 1.0))
    for v in range(nvar):
        row = np.zeros(nvar)
        row[v] = 1.0
        rows.append((row, GE, 0.0))
    return LinearProgram(_objective(game), rows)


def ns_value(game: Game) -> tuple:
    """Optimal non-signalling winning probability and a dual solution."""
    sol = solve(build_ns_lp(game))
    if sol.status != "optimal":
        raise SolverError(f"non-signalling program: {sol.status}")
    return float(sol.value), sol.dual


def perturbed_value(game: Game, slack: float) -> float:
    """Optimum with every signalling constraint relaxed to <= slack."""
    if slack < 0:
        raise ValueError("slack must be >= 0")
    sol = solve(build_ns_lp(game, sig_relation=LE, sig_rhs=slack))
    if sol.status != "optimal":
        raise SolverError(f"perturbed program: {sol.status}")
    return float(sol.value)


def dual_kappa(game: Game) -> float:
    """kappa = sum of the signalling-row duals of the <=-form program.

    The <=-form (all signalling measures <= 0) has the same optimum as the
    equality form, and its dual is the certificate the sensitivity bound
    uses: relaxing each signalling row by s changes the optimum by at most
    s * kappa.  The dual optimal face can be degenerate, so among the
    optimal dual solutions we return the one minimizing kappa (found by a
    secondary LP); any point of the face is a valid certificate.
    """
    lp = build_ns_lp(game, sig_relation=LE, sig_rhs=0.0)
    sol = solve(lp)
    if sol.status != "optimal":
        raise SolverError(f"non-signalling program: {sol.status}")
    al = game.alphabets
    d = al.num_signalling_constraints
    n_norm = al.x_size * al.y_size
    fallback = float(np.abs(sol.dual[:d]).sum())

    # dual feasibility of max{c.x : Sx <= 0, Nx = 1, x >= 0}:
    #   S^T u + N^T v >= c,  u >= 0,  v free;  optimality: sum(v) = value.
    # minimize sum(u) over that set (v split into v+ - v- for the solver).
    S = np.array([lp.rows[i][0] for i in range(d)])
    N = np.array([lp.rows[d + i][0] for i in range(n_norm)])
    c = lp.c
    nvar2 = d + 2 * n_norm
    obj = np.zeros(nvar2)
    obj[:d] = -1.0  # maximize -sum(u)
    rows2 = []
    for i in range(lp.num_vars):
        coeffs = np.concatenate([S[:, i], N[:, i], -N[:, i]])
        rows2.append((coeffs, GE, float(c[i])))
    ones_v = np.concatenate([np.zeros(d), np.ones(n_norm), -np.ones(n_norm)])
    rows2.append((ones_v, EQ, float(sol.value)))
    sol2 = solve(LinearProgram(obj, rows2))
    if sol2.status != "optimal":
        return fallback
    return float(-sol2.value)


def sensitivity_bound(ns_val: float, slack: float, kappa_or_d: float) -> float:
    """Upper bound ns_val + slack * kappa on the slack-relaxed optimum."""
    if ns_val < 0 or slack < 0 or kappa_or_d < 0:
        raise ValueError("inputs must be >= 0")
    return ns_val + slack * kappa_or_d


def box_winning_probability_feasible(box: SingleRoundBox, game: Game,
                                     tol: float = 1e-8) -> bool:
    """Check that a box is feasible for the non-signalling program."""
    d = game.alphabets.num_signalling_constraints
    flat = box.p.reshape(-1)
    for row in signalling_constraint_rows(game)[:d]:
        if abs(float(row @ flat)) > tol:
            return False
    return True
