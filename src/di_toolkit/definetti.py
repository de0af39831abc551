r"""The explicit de Finetti box tau and the reduction inequality.

tau is a fixed convex mixture of IID boxes (over a sequential "stick
breaking" measure on single-round tables) whose entries depend only on the
type counts of the strings: how often each input pair j occurs (n_j) and how
often each (input pair, output pair) combination (j,k) occurs (n_{j,k}).
Every permutation-invariant n-round box P satisfies, entrywise,

    P <= (n+1)^{l(m-1)} * tau,     l = |X||Y|,  m = |A||B|,

which is what lets tests on arbitrary permutation-invariant boxes be reduced
to tests on IID boxes at polynomial cost.

The type counts of an entry are its joint type (boxes._type_classes): the
multiset of per-round symbols (x, y, a, b), with symbol count row j*m + k
read as n_{j,k}.  A joint type is passed around as that (l, m) count array
alone, one row per input pair j = x*|Y| + y, n_j being the row sum.  tau is
constant on each type class, where it is a unit fraction 1/d, so it is kept
per class: tau_classes builds the class index and each class's d once, a
product of per-input-pair row factors taken once per distinct row, and the
random permutation-invariant tables and the reduction ratio take that
object; tau_table_exact expands it to a full table.

tau and the reduction ratio are computed in exact arithmetic, integers and
Fractions: the inequality is the whole point, so rounding must not be able
to fake a violation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .boxes import Alphabets, EnumerationLimitError, _integer, _type_classes


def _multinomial(row) -> int:
    """sum(row)! / prod(c! for c in row), one binomial per count;
    math.comb raises ValueError on a negative count."""
    out, rest = 1, 0
    for c in row:
        rest += c
        out *= math.comb(rest, c)
    return out


def _row_denominator(row) -> int:
    """Input pair j's factor of tau's denominator:
    multinomial(n_j; n_jk) * prod_{k<m-1} (r_jk + 1), where
    r_jk = n_{j,k} + ... + n_{j,m-1} is the remainder before output k.
    Per input pair the nested stick-breaking integral telescopes into
    1 / this factor, so tau is the inverse of their product."""
    d, rest = _multinomial(row), sum(row)
    for c in row[:-1]:
        d *= rest + 1
        rest -= c
    return d


def reduction_factor(n: int, l: int, m: int) -> int:
    """(n+1)^(l(m-1)), the polynomial cost of the reduction."""
    n, l, m = _integer(n, "n"), _integer(l, "l"), _integer(m, "m")
    if n < 0 or l < 1 or m < 1:
        raise ValueError("need n >= 0, l >= 1, m >= 1")
    return (n + 1) ** (l * (m - 1))


# ---------------------------------------------------------------------------
# full tables


class TauClasses(NamedTuple):
    """The de Finetti box per joint type class: ``index`` (shaped like
    MultiRoundBox.p) gives each entry's class, and tau = 1/denominators[c]
    on class c."""

    n: int
    index: np.ndarray
    denominators: list


def tau_classes(n: int, alphabets: Alphabets) -> TauClasses:
    """tau on every joint type class of an n-round table: d is the product
    of the class's _row_denominator factors, one per distinct row, in exact
    Python integers (d passes 2**63 at n = 4 on |A||B| = 32)."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    l = alphabets.x_size * alphabets.y_size
    m = alphabets.a_size * alphabets.b_size
    size = (l * m) ** n
    if size > 10**7:
        raise EnumerationLimitError(f"table of {size} entries exceeds limit")
    index, counts = _type_classes(n, alphabets)
    rows = counts.reshape(-1, m)
    # one void scalar per row, its bytes: equal rows, equal keys
    _, first, row_of = np.unique(rows.view(f"V{rows.itemsize * m}").ravel(),
                                 return_index=True, return_inverse=True)
    factors = np.array([_row_denominator(row) for row in
                        rows[first].tolist()], dtype=object)
    return TauClasses(n, index, factors[row_of.reshape(-1, l)]
                      .prod(axis=1).tolist())


def tau_table_exact(n: int, alphabets: Alphabets) -> np.ndarray:
    """Exact de Finetti table, object array of Fractions, indexed like
    MultiRoundBox.p."""
    tau = tau_classes(n, alphabets)
    return np.array([Fraction(1, d) for d in tau.denominators],
                    dtype=object)[tau.index]


def verify_reduction_exact(table, tau: TauClasses) -> Fraction:
    """Max entrywise ratio P/tau for an exact table, as a Fraction.

    ``table`` is shaped like MultiRoundBox.p and holds integers (numerators
    over a common denominator, as from random_symmetrized_int_table; divide
    the result by that denominator) or Fractions; ``tau`` is
    tau_classes(n, alphabets).  On a class tau is 1/d, so the largest ratio
    in a class is its largest entry times d: one product per class, an
    integer one for integer tables, and one Fraction at the end.  The
    reduction asserts that the ratio is at most reduction_factor(n, l, m)
    for permutation invariant tables.
    """
    if table.shape != tau.index.shape:
        raise ValueError("table must be shaped like MultiRoundBox.p")
    top = np.zeros(len(tau.denominators), dtype=table.dtype)
    np.maximum.at(top, tau.index, table)
    return Fraction(max(p * d for p, d in zip(top.tolist(), tau.denominators)))


# ---------------------------------------------------------------------------
# random permutation-invariant boxes: integer numerators, exact checks


def random_symmetrized_int_table(tau: TauClasses, rng) -> tuple:
    """Random permutation-invariant box as integer numerators over a common
    denominator, on the joint type classes of ``tau`` (tau_classes).

    Each input-string block is a multinomial draw of 1009 counts (so it
    normalizes exactly), then the table is summed over all n! round
    permutations: an entry of a class of size s receives its class sum n!/s
    times.  Returns (numerators, denominator) with denominator = 1009 * n!.
    The numerators reach the denominator: int64 while it fits, exact
    Python integers (an object array) past that, from n = 19.
    """
    shape = tau.index.shape
    outs = shape[2] * shape[3]
    blocks = rng.multinomial(1009, np.full(outs, 1.0 / outs),
                             size=shape[0] * shape[1])
    sums = np.zeros(len(tau.denominators), dtype=np.int64)
    np.add.at(sums, tau.index, blocks.reshape(shape).astype(np.int64))
    perms = math.factorial(tau.n)
    dtype = np.int64 if 1009 * perms <= np.iinfo(np.int64).max else object
    sizes = np.bincount(tau.index.ravel()).astype(dtype)
    return ((sums.astype(dtype) * (perms // sizes))[tau.index],
            1009 * perms)
