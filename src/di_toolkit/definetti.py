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
constant on each type class, so every exact computation here (tau, the
reduction ratio, the integer thresholds) is done once per class and
gathered back to the entries.

All bounds here are computed in exact rational arithmetic: the inequalities
are the whole point, so rounding must not be able to fake a violation.
Floats appear only when exporting tables.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .boxes import (Alphabets, EnumerationLimitError, MultiRoundBox,
                    _type_classes)


def _multinomial(row) -> int:
    """sum(row)! / prod(c! for c in row), one binomial per count;
    math.comb raises ValueError on a negative count."""
    out, rest = 1, 0
    for c in row:
        rest += c
        out *= math.comb(rest, c)
    return out


def tau_entry_exact(n_jk) -> Fraction:
    """Exact entry of the de Finetti box for the joint type counts n_jk.

    Per input pair j the nested stick-breaking integral telescopes into
    1 / (multinomial(n_j; n_jk) * prod_{k<m-1} (r_jk + 1)), where
    r_jk = n_{j,k} + ... + n_{j,m-1} is the remainder before output k.
    """
    d = 1
    for row in n_jk:
        d *= _multinomial(row)
        rest = sum(row)
        for c in row[:-1]:
            d *= rest + 1
            rest -= c
    return Fraction(1, d)


def tau_lower_bound(n_jk) -> Fraction:
    """Product over j of 1 / (multinomial(n_j; n_jk) * (n_j+1)^(m-1))."""
    return Fraction(1, math.prod(
        _multinomial(row) * (sum(row) + 1) ** (len(row) - 1) for row in n_jk))


def perm_upper_bound(n_jk) -> Fraction:
    """Entry bound for permutation-invariant boxes: inverse orbit size.

    Permutations fixing the input strings permute rounds within each input
    pair, producing multinomial(n_j; n_jk) distinct output strings of equal
    probability.
    """
    return Fraction(1, math.prod(map(_multinomial, n_jk)))


def reduction_factor(n: int, l: int, m: int) -> int:
    """(n+1)^(l(m-1)), the polynomial cost of the reduction."""
    if n < 0 or l < 1 or m < 1:
        raise ValueError("need n >= 0, l >= 1, m >= 1")
    return (n + 1) ** (l * (m - 1))


# ---------------------------------------------------------------------------
# full tables


def _check_table_size(n: int, alphabets: Alphabets):
    size = (alphabets.x_size * alphabets.y_size
            * alphabets.a_size * alphabets.b_size) ** n
    if size > 10**7:
        raise EnumerationLimitError(f"table of {size} entries exceeds limit")


def tau_table_exact(n: int, alphabets: Alphabets) -> np.ndarray:
    """Exact de Finetti table, object array of Fractions, indexed like
    MultiRoundBox.p: one tau_entry_exact per joint type class."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_table_size(n, alphabets)
    l = alphabets.x_size * alphabets.y_size
    m = alphabets.a_size * alphabets.b_size
    index, counts = _type_classes(n, alphabets)
    values = np.empty(len(counts), dtype=object)
    for c, n_jk in enumerate(counts.reshape(-1, l, m).tolist()):
        values[c] = tau_entry_exact(n_jk)
    return values[index]


def _tau_per_class(n: int, alphabets: Alphabets, tau_exact) -> tuple:
    """(index, values): the joint type classes of _type_classes and tau's
    value on each class, which any entry of the class gives."""
    index, counts = _type_classes(n, alphabets)
    if tau_exact.shape != index.shape:
        raise ValueError("tau table must be shaped like MultiRoundBox.p")
    values = np.empty(len(counts), dtype=object)
    values[index] = tau_exact
    return index, values


def tau_box(n: int, alphabets: Alphabets) -> MultiRoundBox:
    """The de Finetti box as a float table."""
    exact = tau_table_exact(n, alphabets)
    table = np.vectorize(float)(exact)
    return MultiRoundBox(n, alphabets, table)


def verify_reduction_exact(table, n: int, alphabets: Alphabets,
                           tau_exact) -> Fraction:
    """Max entrywise ratio P/tau for an exact table, as a Fraction.

    ``table`` is shaped like MultiRoundBox.p and holds integers (numerators
    over a common denominator, as from random_symmetrized_int_table; divide
    the result by that denominator) or Fractions; ``tau_exact`` is
    tau_table_exact(n, alphabets).  tau is constant on every joint type
    class, and there it is a unit fraction 1/d (tau_entry_exact), so the
    largest ratio in a class is its largest entry times d: one product per
    class, an integer one for integer tables, and one Fraction at the end.
    The reduction asserts that the ratio is at most reduction_factor(n, l, m)
    for permutation invariant tables.
    """
    index, tau = _tau_per_class(n, alphabets, tau_exact)
    if table.shape != index.shape:
        raise ValueError("table must be shaped like MultiRoundBox.p")
    if any(t.numerator != 1 for t in tau):
        raise ValueError("tau must be a unit fraction on every class")
    top = np.zeros(len(tau), dtype=table.dtype)
    np.maximum.at(top, index, table)
    return Fraction(max(p * t.denominator for p, t in zip(top.tolist(), tau)))


# ---------------------------------------------------------------------------
# random permutation-invariant boxes: integer numerators, exact checks


def random_symmetrized_int_table(n: int, alphabets: Alphabets, rng) -> tuple:
    """Random permutation-invariant box as integer numerators over a common
    denominator.

    Each input-string block is a multinomial draw of 1009 counts (so it
    normalizes exactly), then the table is summed over all n! round
    permutations: an entry of a class of size s receives its class sum n!/s
    times.  Returns (numerators, denominator) with denominator = 1009 * n!.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_table_size(n, alphabets)
    al = alphabets
    shape = (al.x_size**n, al.y_size**n, al.a_size**n, al.b_size**n)
    outs = shape[2] * shape[3]
    blocks = rng.multinomial(1009, np.full(outs, 1.0 / outs),
                             size=shape[0] * shape[1])
    index, counts = _type_classes(n, al)
    sums = np.zeros(len(counts), dtype=np.int64)
    np.add.at(sums, index, blocks.reshape(shape).astype(np.int64))
    perms = math.factorial(n)
    return (sums * (perms // np.bincount(index.ravel())))[index], 1009 * perms


def reduction_numerator_thresholds(n: int, alphabets: Alphabets, denom: int,
                                   tau_exact) -> np.ndarray:
    """Largest integer numerators compatible with the reduction.

    A table P = nums/denom satisfies P <= factor * tau entrywise iff
    nums[i] <= thresholds[i] for all i (floor of the exact rational bound,
    valid because numerators are integers); one floor per joint type class.
    """
    index, tau = _tau_per_class(n, alphabets, tau_exact)
    factor = reduction_factor(n, alphabets.x_size * alphabets.y_size,
                              alphabets.a_size * alphabets.b_size)
    values = [(factor * f.numerator * denom) // f.denominator for f in tau]
    if max(values) > np.iinfo(np.int64).max:
        raise OverflowError("threshold exceeds int64; use verify_reduction_exact")
    return np.array(values, dtype=np.int64)[index]
