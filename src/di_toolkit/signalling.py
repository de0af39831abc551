r"""Signalling measure, the L1 signalling test, Sanov bound, the
non-signalling threshold-theorem bound and exact IID binomial tails.

The signalling measure quantifies how much observing one party's output
shifts the posterior over the other party's input relative to the prior; it
vanishes exactly on non-signalling boxes.  All d = |X||Y|(|A|+|B|) measures
are linear in P(a,b|x,y) and live in one matrix, :func:`signalling_matrix`,
which the non-signalling LP in ``nslp`` uses as its signalling rows.  The
test estimates every measure from the second half of observed data and
fires where it reaches zeta - 2*eps; it decides each target from the
integer counts in exact rational arithmetic, so a measure that equals the
threshold is decided the same way whatever the order of the rounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import (AlphabetMismatchError, Alphabets, Game,
                    InputDistribution, ObservedData, SingleRoundBox,
                    _integer, winning_probability)
from .eat import hoeffding

A_TO_B = "AtoB"
B_TO_A = "BtoA"


@dataclass(frozen=True)
class SigTarget:
    """One signalling test target: direction, input pair, receiving output."""

    direction: str
    x: int
    y: int
    outcome: int  # b for AtoB, a for BtoA

    def __post_init__(self):
        if self.direction not in (A_TO_B, B_TO_A):
            raise ValueError("direction must be AtoB or BtoA")
        if min(self.x, self.y, self.outcome) < 0:
            raise ValueError("indices must be non-negative")


@dataclass(frozen=True)
class TestParams:
    """Signalling-test thresholds; requires 7*eps <= zeta < inf, eps > 0
    and an even integer n."""

    zeta: float
    eps: float
    n: int

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not 7 * self.eps <= self.zeta < math.inf:  # NaN fails too
            raise ValueError("zeta must be finite and at least 7*eps")
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n % 2 != 0 or self.n < 2:
            raise ValueError("n must be even and >= 2")


def _conditionals(qq: np.ndarray) -> tuple:
    """(Q(x|y), Q(y|x)) of the Q(x,y) table ``qq`` in the table's own
    arithmetic, float or Fraction; each is 0 where its marginal is 0."""
    qy, qx = qq.sum(axis=0), qq.sum(axis=1, keepdims=True)
    return qq / np.where(qy > 0, qy, 1), qq / np.where(qx > 0, qx, 1)


def signalling_matrix(alphabets: Alphabets, q: InputDistribution
                      ) -> np.ndarray:
    """All d = |X||Y|(|A|+|B|) signalling measures as a d x |X||Y||A||B| array.

    Row r dotted with a table flattened in ``[x][y][a][b]`` order is the
    measure of target r.  Row order: all Alice-to-Bob targets (x, y, b)
    lexicographically, then all Bob-to-Alice targets (x, y, a).  The
    AtoB row (x, y, b) holds Q(x,y) - Q(x|y) Q(x,y) at (x, y, a, b) and
    -Q(x|y) Q(x',y) at (x', y, a, b), x' != x, for every a.
    """
    X, Y, A, B = (alphabets.x_size, alphabets.y_size, alphabets.a_size,
                  alphabets.b_size)
    if q.q.shape != (X, Y):
        raise AlphabetMismatchError("input distribution shape mismatch")
    qq = q.q
    x_given_y, y_given_x = _conditionals(qq)
    out = np.zeros((alphabets.num_signalling_constraints, X * Y * A * B))
    x_eye, y_eye = np.eye(X, dtype=bool), np.eye(Y, dtype=bool)
    # AtoB (x, y, b): coefficient of P(a,b|x',y) for every a
    coef = (x_eye[:, None, :] * qq[:, :, None]
            - x_given_y[:, :, None] * qq.T[None, :, :])  # (x, y, x')
    # written on axes (x, y, b, x', y', a', b') where y' = y and b' = b
    np.copyto(out[:X * Y * B].reshape(X, Y, B, X, Y, A, B),
              coef[:, :, None, :, None, None, None],
              where=(y_eye[:, None, None, :, None, None]
                     & np.eye(B, dtype=bool)[:, None, None, None, :]))
    # BtoA (x, y, a): coefficient of P(a,b|x,y') for every b
    coef = (y_eye[None, :, :] * qq[:, :, None]
            - y_given_x[:, :, None] * qq[:, None, :])  # (x, y, y')
    # written on axes (x, y, a, x', y', a', b) where x' = x and a' = a
    np.copyto(out[X * Y * B:].reshape(X, Y, A, X, Y, A, B),
              coef[:, :, None, None, :, None, None],
              where=(x_eye[:, None, None, :, None, None, None]
                     & np.eye(A, dtype=bool)[:, None, None, :, None]))
    return out


def target_row(alphabets: Alphabets, target: SigTarget) -> int:
    """Row of ``target`` in :func:`signalling_matrix`."""
    X, Y, A, B = (alphabets.x_size, alphabets.y_size, alphabets.a_size,
                  alphabets.b_size)
    outputs = B if target.direction == A_TO_B else A
    if target.x >= X or target.y >= Y or target.outcome >= outputs:
        raise ValueError("target index outside the alphabets")
    if target.direction == A_TO_B:
        return (target.x * Y + target.y) * B + target.outcome
    return X * Y * B + (target.x * Y + target.y) * A + target.outcome


def sig_measure(box: SingleRoundBox, q: InputDistribution,
                target: SigTarget) -> float:
    """O_BY(b,y) * [O_{X|BY}(x|b,y) - Q_{X|Y}(x|y)] (mirrored for BtoA).

    O is the joint distribution Q(x,y) * P(a,b|x,y), so the measure is
    O(x,y,b) - Q(x|y) O_BY(b,y): one row of :func:`signalling_matrix`
    dotted with the table.  It is 0 where the conditioning mass
    O_BY(b,y) is 0.
    """
    if not q.complete_support:
        raise ValueError("q must have complete support")
    row = signalling_matrix(box.alphabets, q)[target_row(box.alphabets, target)]
    return float(row @ box.p.reshape(-1))


def all_sig_targets(alphabets: Alphabets) -> list:
    targets = []
    for x in range(alphabets.x_size):
        for y in range(alphabets.y_size):
            for b in range(alphabets.b_size):
                targets.append(SigTarget(A_TO_B, x, y, b))
            for a in range(alphabets.a_size):
                targets.append(SigTarget(B_TO_A, x, y, a))
    return targets


def sanov_delta(n: int, eps: float, cells: int) -> float:
    """(n+1)^(cells-1) * exp(-n*eps^2/2): Sanov bound on the probability
    that the empirical conditional distribution of n samples is more than
    eps away in (input-averaged) L1; n finite, cells an integer."""
    if not (1 <= n < math.inf and eps > 0 and cells >= 1):  # NaN fails too
        raise ValueError("need 1 <= n < inf, eps > 0, cells >= 1")
    _integer(cells, "cells")
    return (n + 1.0) ** (cells - 1) * math.exp(-n * eps * eps / 2.0)


def signalling_test_flags(data: ObservedData, q: InputDistribution,
                          params: TestParams) -> np.ndarray:
    """Pass flag of every target, in :func:`signalling_matrix` row order.

    A target passes iff the second-half frequency box shows signalling
    >= zeta - 2*eps.  With the n/2 second-half rounds counted as c(x,y,a,b),
    the AtoB measure (x, y, b) is [c(x,y,b) - Q(x|y) C_BY(b,y)] / (n/2) and
    the BtoA measure (x, y, a) is [c(x,y,a) - Q(y|x) C_AX(a,x)] / (n/2), with
    c(x,y,b) = sum_a c, C_BY(b,y) = sum_x c(x,y,b) and likewise for BtoA.
    Each is compared with (zeta - 2*eps) n/2 in Fraction arithmetic, Q, zeta
    and eps entering as the exact rationals of their floats; Q(x|y) and
    Q(y|x) are signalling_matrix's conditionals (_conditionals) taken on
    those Fractions.  If any input pair is missing from either half every
    target rejects by definition (the frequency boxes are not defined for
    all inputs).  ``q`` must have complete support.  Both halves are
    counted in one pass, as c[half, x, y, a, b].
    """
    if data.n != params.n:
        raise ValueError("data length does not match test parameters")
    al = data.alphabets
    if (al.x_size, al.y_size) != (q.x_size, q.y_size):
        raise AlphabetMismatchError("data and q input alphabets differ")
    h = data.n // 2  # params.n is even
    counts = np.zeros((2, al.x_size, al.y_size, al.a_size, al.b_size),
                      dtype=np.int64)
    np.add.at(counts, (np.repeat([0, 1], h), data.x, data.y, data.a,
                       data.b), 1)
    if not counts.any(axis=(3, 4)).all():
        return np.zeros(al.num_signalling_constraints, dtype=bool)
    if not q.complete_support:
        raise ValueError("input distribution must have complete support")
    counts = counts[1]
    qq = np.array([[Fraction(v) for v in row] for row in q.q.tolist()],
                  dtype=object)
    threshold = (Fraction(params.zeta) - 2 * Fraction(params.eps)) * h
    c_xyb = counts.sum(axis=2).astype(object)
    c_xya = counts.sum(axis=3).astype(object)
    x_given_y, y_given_x = _conditionals(qq)
    a_to_b = c_xyb - x_given_y[:, :, None] * c_xyb.sum(axis=0)
    b_to_a = c_xya - y_given_x[:, :, None] * c_xya.sum(axis=1)[:, None, :]
    # AtoB (x, y, b), then BtoA (x, y, a): the signalling_matrix row order
    return np.concatenate([a_to_b.ravel(), b_to_a.ravel()]) >= threshold


def threshold_precondition(n: int, eps: float, a_size: int, b_size: int,
                           x_size: int, y_size: int) -> bool:
    """n / ln(n) > 20 |X||Y||A||B| ln(2/eps) / eps^2; False for any eps
    outside (0, 1), NaN included, and where eps^2 underflows to 0."""
    if n < 2 or not 0 < eps < 1 or eps**2 == 0:
        return False
    lhs = n / math.log(n)
    rhs = 20.0 * a_size * b_size * x_size * y_size * math.log(2.0 / eps) / eps**2
    return lhs > rhs


class ThresholdPreconditionError(ValueError):
    """Raised when n is too small for the threshold bound; carries the
    minimal sufficient n."""

    def __init__(self, required_n: int):
        self.required_n = required_n
        super().__init__(f"threshold bound needs n >= {required_n}")


def _minimal_n(eps: float, a_size, b_size, x_size, y_size) -> int:
    """Least n >= 3 meeting threshold_precondition: n / ln(n) rises for
    n >= 3, so doubling brackets it and bisection finds it."""
    def holds(n):
        return threshold_precondition(n, eps, a_size, b_size, x_size, y_size)

    lo, hi = 2, 3  # holds(hi), and lo = 2 or not holds(lo)
    while not holds(hi):  # ends: the caller checked holds(largest float)
        lo, hi = hi, min(2 * hi, int(sys.float_info.max))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def threshold_bound(game: Game, n: int, beta: float) -> float:
    """exp(-n beta^2 / (30 d)^2): probability bound on non-signalling
    players winning a fraction beta above the optimal single-game value in n
    parallel games.

    Valid once n satisfies the repetition precondition at eps = beta/(10 d)
    and every question pair has probability above beta/(10 d).
    """
    if not 0 <= beta <= 1:
        raise ValueError("beta must be in [0,1]")
    if not abs(n) <= sys.float_info.max:
        raise ValueError("n must be within the float range")
    al = game.alphabets
    d = al.num_signalling_constraints
    if beta == 0.0:
        return 1.0
    eps = beta / (10.0 * d)
    if float(np.min(game.q.q)) <= eps:
        raise ValueError("question distribution too unbalanced: "
                         f"min entry must exceed {eps}")
    sizes = (al.a_size, al.b_size, al.x_size, al.y_size)
    if not threshold_precondition(sys.float_info.max, eps, *sizes):
        raise ValueError("beta too small: the threshold precondition needs "
                         "n beyond the float range")
    if not threshold_precondition(n, eps, *sizes):
        raise ThresholdPreconditionError(_minimal_n(eps, *sizes))
    return math.exp(_log_threshold_bound(n, beta, d))


def _log_threshold_bound(n, beta, d):
    """ln threshold_bound = -n beta^2 / (30 d)^2, which the CLI reports."""
    return -n * beta * beta / (30.0 * d) ** 2


def iid_threshold_probability(single: SingleRoundBox, game: Game, n: int,
                              beta: float) -> tuple:
    """(exact, hoeffding) probabilities that an IID strategy wins at least a
    fraction (omega + beta) of n games, where omega is its own single-game
    winning probability.

    The exact value is the binomial upper tail; the bound is exp(-2 n beta^2).
    """
    n = _integer(n, "n")
    if n < 1 or n > 200000:
        raise ValueError("n must be in [1, 200000]")
    if not 0 <= beta < math.inf:  # NaN fails too
        raise ValueError("beta must be finite and >= 0")
    omega = winning_probability(single, game)
    threshold = (omega + beta) * n
    k0 = math.ceil(threshold - 1e-12)
    exact = _binomial_upper_tail(n, omega, k0)
    return exact, hoeffding(n, beta)


def _binomial_upper_tail(n: int, p: float, k0: int) -> float:
    """Pr[Bin(n,p) >= k0], each term from its logarithm.  From the mode
    up (k0 >= (n+1) p) it sums the terms from k0 up; below it, it is
    1 - Pr[Bin(n,p) <= k0 - 1], summed from k0 - 1 down.  Either way the
    terms fall away from the mode, so once one no longer changes the sum
    neither does any later one: the loop stops there, with the full sum's
    value, after O(sqrt(n)) terms."""
    if k0 <= 0:
        return 1.0
    if k0 > n or p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    logp, log1p = math.log(p), math.log1p(-p)
    below = k0 < (n + 1) * p
    total = 0.0
    for k in range(k0 - 1, -1, -1) if below else range(k0, n + 1):
        term = math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                        - math.lgamma(n - k + 1) + k * logp + (n - k) * log1p)
        if total + term == total:
            break
        total += term
    return 1.0 - total if below else min(total, 1.0)
