"""Reference simplex for the nslp solver tests: the dense two-phase Bland
simplex with a separate cost row, a boolean row mask per pivot and the duals
computed in every solve, as nslp.solve was before the cost row moved into
the tableau.  The only additions are the records the tests compare: the
final basis and the pivot counts of phase 1 (driving artificials out
included) and phase 2, and a program's start, taken by the same rule as
nslp.solve's: start_tableau makes its pivots, and phase 2 runs from there
if every row has a basic column and every right-hand side is >= 0 as
computed; else the solve is the two-phase one.  A program with a second
objective ``then`` continues phase 2 from the first optimum with the
columns off its optimal face zeroed, as nslp.solve does; its value is the
first optimum's and its primal the continuation's end.  duals(lp, basis)
gives the tests the multipliers of any solver's final basis, nslp.solve's
included, and certificate(lp, basis) rebuilds that basis in exact
arithmetic.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from di_toolkit.nslp import EQ, GE, LE, SOLVER_TOL, SolverError


def _pivot(tableau, leave, enter):
    tableau[leave] /= tableau[leave, enter]
    col = tableau[:, enter].copy()
    col[leave] = 0.0
    rows = np.abs(col) > 1e-14
    tableau[rows] -= col[rows, None] * tableau[leave]


def _simplex_phase(tableau, basis, n_total, cost_row, max_iter):
    for pivots in range(max_iter):
        improving = np.flatnonzero(cost_row[:n_total] > SOLVER_TOL)
        if improving.size == 0:
            return "optimal", pivots
        enter = improving[0]
        cand = np.flatnonzero(tableau[:, enter] > SOLVER_TOL)
        ratios = tableau[cand, -1] / tableau[cand, enter]
        leave = -1
        best = np.inf
        for i, ratio in zip(cand.tolist(), ratios.tolist()):
            if ratio < best - SOLVER_TOL or (
                    abs(ratio - best) <= SOLVER_TOL
                    and (leave < 0 or basis[i] < basis[leave])):
                best = ratio
                leave = i
        if leave < 0:
            return "unbounded", pivots
        _pivot(tableau, leave, enter)
        cost_row -= cost_row[enter] * tableau[leave]
        basis[leave] = enter
    raise SolverError("simplex iteration cap reached")


def _result(status, basis, pivots, value=float("nan"), primal=None,
            dual=None):
    return SimpleNamespace(
        status=status, value=value,
        primal=np.zeros(0) if primal is None else primal,
        dual=np.zeros(0) if dual is None else dual,
        basis=basis.copy(), pivots=pivots)


def _equality_form(lp):
    """(M, b, sign, slack_col): A x + S slack = b with a +1 slack on <=
    rows and a -1 slack on >= rows, each row flipped (sign -1) where its
    rhs is negative, and the slack column of each inequality row."""
    n = lp.num_vars
    m = len(lp.rows)
    rels = lp.rels.tolist()

    slack_rows = [i for i, rel in enumerate(rels) if rel != EQ]
    M = np.zeros((m, n + len(slack_rows)))
    M[:, :n] = lp.rows
    b = lp.rhs.copy()
    slack_col = {i: n + k for k, i in enumerate(slack_rows)}
    for i, j in slack_col.items():
        M[i, j] = 1.0 if rels[i] == LE else -1.0
    sign = np.where(b < 0, -1.0, 1.0)
    M[b < 0] *= -1.0
    b *= sign
    return M, b, sign, slack_col


def duals(lp, basis):
    """y solving y . column_j = c_j on the basic columns of the equality
    form (a leftover artificial, index past its columns, has a unit
    column), with the row flips undone: one multiplier per row of lp."""
    M, _, sign, _ = _equality_form(lp)
    m, n_total = M.shape
    basis = np.asarray(basis)
    real = basis < n_total
    structural = basis < lp.num_vars
    cB = np.zeros(m)
    cB[structural] = lp.c[basis[structural]]
    cols = np.zeros((m, m))
    cols[:, real] = M[:, basis[real]]
    art = np.flatnonzero(~real)
    cols[art, art] = 1.0
    try:
        y = np.linalg.solve(cols.T, cB)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(cols.T, cB, rcond=None)
    return y * sign


def start_tableau(lp):
    """(tableau, basis) after the program's start pivots, or None if a
    pivot entry is within SOLVER_TOL of 0: the rows A x + s = b with a +1
    slack on <= rows, >= rows negated so their slack is +1 too, each slack
    basic, then one pivot per (row, column) pair of lp.start.  A row left
    without a basic column has -1."""
    n = lp.num_vars
    m = len(lp.rows)
    rels = lp.rels.tolist()
    slack_rows = [i for i, rel in enumerate(rels) if rel != EQ]
    tableau = np.zeros((m, n + len(slack_rows) + 1))
    tableau[:, :n] = lp.rows
    tableau[:, -1] = lp.rhs
    basis = np.full(m, -1)
    for k, i in enumerate(slack_rows):
        tableau[i, n + k] = 1.0 if rels[i] == LE else -1.0
        if rels[i] == GE:
            tableau[i] *= -1.0
        basis[i] = n + k
    for i, j in lp.start:
        if abs(tableau[i, j]) <= SOLVER_TOL:
            return None
        _pivot(tableau, i, j)
        basis[i] = j
    return tableau, basis


def _started(lp):
    """The start's tableau and basis where solve takes it, else None."""
    started = start_tableau(lp) if lp.start else None
    if started is None:
        return None
    tableau, basis = started
    if (basis < 0).any() or not (tableau[:, -1] >= 0).all():
        return None
    return tableau, basis


def solve(lp):
    m = len(lp.rows)
    started = _started(lp)
    if started is not None:
        tableau, basis = started
        n_total = tableau.shape[1] - 1
        return _phase_2(lp, tableau, basis, n_total, len(lp.start),
                        50000 + 200 * n_total)

    M, b, _, slack_col = _equality_form(lp)
    n_total = M.shape[1]

    basis = np.full(m, -1)
    art_rows = []
    for i in range(m):
        j = slack_col.get(i)
        if j is not None and M[i, j] == 1.0:
            basis[i] = j
        else:
            art_rows.append(i)
    n_art = len(art_rows)
    tableau = np.zeros((m, n_total + n_art + 1))
    tableau[:, :n_total] = M
    tableau[:, -1] = b
    tableau[art_rows, n_total + np.arange(n_art)] = 1.0
    basis[art_rows] = n_total + np.arange(n_art)

    max_iter = 50000 + 200 * (n_total + n_art)
    phase1 = 0
    if n_art:
        cost = np.zeros(n_total + n_art + 1)
        for i in art_rows:
            cost[:] += tableau[i]
        cost[n_total:n_total + n_art] = 0.0
        status, phase1 = _simplex_phase(tableau, basis, n_total + n_art,
                                        cost, max_iter)
        if status != "optimal" or cost[-1] > 1e-7:
            return _result("infeasible", basis, (phase1, 0))
        for i in range(m):
            if basis[i] >= n_total:
                nz = np.flatnonzero(np.abs(tableau[i, :n_total]) > SOLVER_TOL)
                if nz.size:
                    _pivot(tableau, i, nz[0])
                    basis[i] = nz[0]
                    phase1 += 1
        tableau = np.delete(tableau, np.s_[n_total:n_total + n_art], axis=1)
    return _phase_2(lp, tableau, basis, n_total, phase1, max_iter)


def _cost_row(c, tableau, basis, n_total):
    cost = np.zeros(n_total + 1)
    cost[:len(c)] = c
    for i in range(len(basis)):
        c_basic = c[basis[i]] if basis[i] < len(c) else 0.0
        if c_basic != 0.0:
            cost -= c_basic * tableau[i]
    return cost


def _phase_2(lp, tableau, basis, n_total, phase1, max_iter):
    n = lp.num_vars
    cost = _cost_row(lp.c, tableau, basis, n_total)
    status, phase2 = _simplex_phase(tableau, basis, n_total, cost, max_iter)
    value = None
    if status == "optimal" and lp.then is not None:
        value = float(lp.c @ _basic_solution(tableau, basis, n_total)[:n])
        # the optimal face: columns with a reduced cost below -SOLVER_TOL
        # are 0 at every optimum, so they are zeroed and never enter
        off_face = np.flatnonzero(cost[:n_total] < -SOLVER_TOL)
        cost = _cost_row(lp.then, tableau, basis, n_total)
        tableau[:, off_face] = 0.0
        cost[off_face] = 0.0
        status, more = _simplex_phase(tableau, basis, n_total, cost,
                                      max_iter)
        phase2 += more
    if status == "unbounded":
        return _result("unbounded", basis, (phase1, phase2))

    primal = _basic_solution(tableau, basis, n_total)[:n]
    if value is None:
        value = float(lp.c @ primal)
    return _result("optimal", basis, (phase1, phase2), value, primal,
                   duals(lp, basis))


def _basic_solution(tableau, basis, n_total):
    real = basis < n_total
    primal = np.zeros(n_total)
    primal[basis[real]] = tableau[real, -1]
    return primal


def certificate(lp, basis):
    """The basis of a solve, rebuilt in exact arithmetic from the program's
    float coefficients (each read exactly as a Fraction), in the equality
    form that nslp.solve pivots on: A x + S s = b, a +1 slack on <= rows and
    a -1 slack on >= rows, no row flipped.

    Returns x (every column's value: x_B = B^-1 b on the basis, 0 off it),
    the residual b - B x_B (exactly 0 where B x_B = b), and for c, and for
    lp.then where given, the multipliers y = c_B B^-1, the reduced costs
    c_j - y.a_j of every column and the dual objective y.b.  A basis that
    holds an artificial or a singular B raises AssertionError."""
    n, m = lp.num_vars, len(lp.rows)
    columns = [[Fraction(v) for v in coeffs] for coeffs in lp.rows.tolist()]
    slack_rows = [i for i, rel in enumerate(lp.rels) if rel != EQ]
    for k, i in enumerate(slack_rows):
        for row in columns:
            row.append(Fraction(0))
        columns[i][n + k] = Fraction(1 if lp.rels[i] == LE else -1)
    n_total = len(columns[0]) if m else n
    basis = [int(j) for j in basis]
    assert all(j < n_total for j in basis), "an artificial is left basic"
    b = [Fraction(rhs) for rhs in lp.rhs.tolist()]
    inverse = _inverse([[row[j] for j in basis] for row in columns])
    x = [Fraction(0)] * n_total
    for k, j in enumerate(basis):
        x[j] = sum((inverse[k][i] * b[i] for i in range(m)), Fraction(0))
    residual = [b[i] - sum((columns[i][j] * x[j] for j in basis), Fraction(0))
                for i in range(m)]

    def priced(objective):
        c = [Fraction(float(v)) for v in objective] + [Fraction(0)] * (
            n_total - n)
        y = [sum((c[j] * inverse[k][i] for k, j in enumerate(basis)),
                 Fraction(0)) for i in range(m)]
        reduced = [c[j] - sum((y[i] * columns[i][j] for i in range(m)
                               if columns[i][j]), Fraction(0))
                   for j in range(n_total)]
        return SimpleNamespace(y=y, reduced=reduced,
                               primal=sum(c[j] * x[j] for j in basis),
                               dual=sum(y[i] * b[i] for i in range(m)))

    return SimpleNamespace(
        x=x, residual=residual, c=priced(lp.c),
        then=None if lp.then is None else priced(lp.then))


def _inverse(matrix):
    """The inverse of a square Fraction matrix by Gauss-Jordan elimination
    with any nonzero pivot; AssertionError if it is singular."""
    size = len(matrix)
    rows = [row[:] + [Fraction(int(i == k)) for k in range(size)]
            for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col]), None)
        assert pivot is not None, "the basis matrix is singular"
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        scale = head[col]
        head[:] = [v / scale for v in head]
        live = [k for k, v in enumerate(head) if v]
        for i, row in enumerate(rows):
            factor = row[col]
            if i != col and factor:
                for k in live:
                    row[k] -= factor * head[k]
    return [row[size:] for row in rows]
