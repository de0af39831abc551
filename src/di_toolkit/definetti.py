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
read as n_{j,k}.  Tables are built once per type class and gathered back to
the entries, as permutation-invariant tables are constant on each class.

All bounds here are computed in exact rational arithmetic: the inequalities
are the whole point, so rounding must not be able to fake a violation.
Floats appear only when exporting tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import (Alphabets, EnumerationLimitError, MultiRoundBox,
                    _type_classes)


@dataclass(frozen=True)
class TypeCounts:
    """Per input-pair occurrence counts of an n-round index tuple.

    ``n_j[j]`` counts rounds with input pair j; ``n_jk[j][k]`` additionally
    fixes the output pair k.  Flattening is canonical: j = x*y_size + y,
    k = a*b_size + b.
    """

    l: int
    m: int
    n_j: tuple
    n_jk: tuple  # tuple of tuples, shape (l, m)

    def __post_init__(self):
        if len(self.n_j) != self.l or len(self.n_jk) != self.l:
            raise ValueError("count tables must have length l")
        for j in range(self.l):
            row = self.n_jk[j]
            if len(row) != self.m:
                raise ValueError("output count rows must have length m")
            if any(c < 0 for c in row) or self.n_j[j] < 0:
                raise ValueError("counts must be non-negative")
            if sum(row) != self.n_j[j]:
                raise ValueError("output counts must sum to the input count")

    @property
    def n(self) -> int:
        return sum(self.n_j)


def tau_entry_exact(counts: TypeCounts) -> Fraction:
    """Exact entry of the de Finetti box for the given type counts.

    Per input pair j the nested stick-breaking integral telescopes into a
    product over k = 1..m-1: with running remainder r = n_j - sum of the
    earlier output counts, each step contributes 1 / (binom(r, n_jk) * (r+1)).
    """
    value = Fraction(1)
    for j in range(counts.l):
        r = counts.n_j[j]
        for k in range(counts.m - 1):
            value /= math.comb(r, counts.n_jk[j][k]) * (r + 1)
            r -= counts.n_jk[j][k]
    return value


def _multinomial(n: int, parts) -> int:
    out = 1
    rest = n
    for c in parts:
        out *= math.comb(rest, c)
        rest -= c
    return out


def tau_lower_bound(counts: TypeCounts) -> Fraction:
    """Product over j of 1 / (multinomial(n_j; n_jk) * (n_j+1)^(m-1))."""
    value = Fraction(1)
    for j in range(counts.l):
        value /= _multinomial(counts.n_j[j], counts.n_jk[j])
        value /= (counts.n_j[j] + 1) ** (counts.m - 1)
    return value


def perm_upper_bound(counts: TypeCounts) -> Fraction:
    """Entry bound for permutation-invariant boxes: inverse orbit size.

    Permutations fixing the input strings permute rounds within each input
    pair, producing multinomial(n_j; n_jk) distinct output strings of equal
    probability.
    """
    value = Fraction(1)
    for j in range(counts.l):
        value /= _multinomial(counts.n_j[j], counts.n_jk[j])
    return value


def reduction_factor(n: int, l: int, m: int) -> int:
    """(n+1)^(l(m-1)), the polynomial cost of the reduction."""
    if n < 0 or l < 1 or m < 1:
        raise ValueError("need n >= 0, l >= 1, m >= 1")
    return (n + 1) ** (l * (m - 1))


# ---------------------------------------------------------------------------
# full tables


def _check_table_size(n: int, alphabets: Alphabets, limit: int = 10**7):
    size = (alphabets.x_size * alphabets.y_size
            * alphabets.a_size * alphabets.b_size) ** n
    if size > limit:
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
        values[c] = tau_entry_exact(TypeCounts(
            l, m, tuple(map(sum, n_jk)), tuple(map(tuple, n_jk))))
    return values[index]


def tau_box(n: int, alphabets: Alphabets) -> MultiRoundBox:
    """The de Finetti box as a float table."""
    exact = tau_table_exact(n, alphabets)
    table = np.vectorize(float)(exact)
    return MultiRoundBox(n, alphabets, table)


def verify_reduction_exact(table, n: int, alphabets: Alphabets,
                           tau_exact=None) -> Fraction:
    """Max entrywise ratio P/tau for an exact table, as a Fraction.

    ``table`` is shaped like MultiRoundBox.p and holds integers (numerators
    over a common denominator, as from random_symmetrized_int_table; divide
    the result by that denominator) or Fractions.  It must be permutation
    invariant (not checked here).  The ratio is exact; the reduction asserts
    that P/tau is at most reduction_factor(n, l, m).
    """
    if tau_exact is None:
        tau_exact = tau_table_exact(n, alphabets)
    best = Fraction(0)
    for p, t in zip(table.reshape(-1).tolist(), tau_exact.reshape(-1)):
        if p == 0:
            continue
        ratio = p / t
        if ratio > best:
            best = ratio
    return best


def verify_reduction(box: MultiRoundBox, tol: float = 1e-9) -> float:
    """Max entrywise ratio P/tau of a permutation-invariant float box."""
    from .boxes import is_permutation_invariant

    if not is_permutation_invariant(box, tol=max(tol, 1e-7)):
        raise ValueError("box is not permutation invariant")
    tau = tau_box(box.n, box.alphabets)
    mask = box.p > 0
    return float(np.max(box.p[mask] / tau.p[mask]))


def partition_feasible(weight: float, element: MultiRoundBox,
                       parent: MultiRoundBox, tol: float = 1e-12) -> bool:
    """True iff weight * element <= parent entrywise (within tol).

    This is the condition for (weight, element) to be one branch of a convex
    decomposition of the parent box, i.e. for the element to be
    post-selectable from a non-signalling extension of the parent.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must be in [0,1]")
    if element.p.shape != parent.p.shape or element.n != parent.n:
        raise ValueError("boxes must share shape")
    return bool(np.all(weight * element.p <= parent.p + tol))


# ---------------------------------------------------------------------------
# random permutation-invariant boxes: integer numerators, exact checks


def random_symmetrized_int_table(n: int, alphabets: Alphabets, rng,
                                 total: int = 1009) -> tuple:
    """Random permutation-invariant box as integer numerators over a common
    denominator.

    Each input-string block is a multinomial(total) draw (so it normalizes
    exactly), then the table is summed over all n! round permutations: an
    entry of a class of size s receives its class sum n!/s times.
    Returns (numerators, denominator) with denominator = total * n!.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_table_size(n, alphabets)
    al = alphabets
    shape = (al.x_size**n, al.y_size**n, al.a_size**n, al.b_size**n)
    outs = shape[2] * shape[3]
    blocks = rng.multinomial(total, np.full(outs, 1.0 / outs),
                             size=shape[0] * shape[1])
    index, counts = _type_classes(n, al)
    sums = np.zeros(len(counts), dtype=np.int64)
    np.add.at(sums, index, blocks.reshape(shape).astype(np.int64))
    perms = math.factorial(n)
    return (sums * (perms // np.bincount(index.ravel())))[index], total * perms


def reduction_numerator_thresholds(n: int, alphabets: Alphabets, denom: int,
                                   tau_exact=None) -> np.ndarray:
    """Largest integer numerators compatible with the reduction.

    A table P = nums/denom satisfies P <= factor * tau entrywise iff
    nums[i] <= thresholds[i] for all i (floor of the exact rational bound,
    valid because numerators are integers).
    """
    if tau_exact is None:
        tau_exact = tau_table_exact(n, alphabets)
    factor = reduction_factor(n, alphabets.x_size * alphabets.y_size,
                              alphabets.a_size * alphabets.b_size)
    flat = tau_exact.reshape(-1)
    values = [(factor * f.numerator * denom) // f.denominator for f in flat]
    if max(values) > np.iinfo(np.int64).max:
        raise OverflowError("threshold exceeds int64; use verify_reduction_exact")
    return np.array(values, dtype=np.int64).reshape(tau_exact.shape)
