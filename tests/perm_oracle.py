"""Reference permutation layer for the type-class code in boxes and
definetti: explicit sweeps over all n! round permutations, a per-entry
tau loop over round-by-round string tuples, tau as running Fraction
divisions, and the reduction ratio entry by entry, as the package computed
them before all of these went through one joint-type map.  Slow by design;
the tests compare the package against these on small n.  Two bounds on
tau's entries live only here: tau_lower_bound, and perm_upper_bound, the
entry bound of every permutation-invariant box.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from di_toolkit.boxes import Alphabets, MultiRoundBox


def _string_permutation(base, n, perm):
    """Index mapping s -> s' with digit i of s' = digit perm^{-1}(i) of s."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    powers = base ** np.arange(n)
    idx = np.arange(base**n)
    digs = (idx[:, None] // powers[None, :]) % base
    return (digs[:, inv] * powers[None, :]).sum(axis=1)


def permutation_index(al: Alphabets, n: int, perm) -> tuple:
    """Open-mesh index into an n-round (x, y, a, b) table that composes it
    with the round permutation ``perm``."""
    perm = np.asarray(perm, dtype=int)
    return np.ix_(*(_string_permutation(size, n, perm) for size in
                    (al.x_size, al.y_size, al.a_size, al.b_size)))


def permute(box: MultiRoundBox, perm) -> np.ndarray:
    return box.p[permutation_index(box.alphabets, box.n, perm)]


def symmetrize(box: MultiRoundBox) -> np.ndarray:
    """The table averaged over all n! round permutations."""
    acc = np.zeros_like(box.p)
    perms = list(itertools.permutations(range(box.n)))
    for perm in perms:
        acc += permute(box, perm)
    return acc / len(perms)


def random_symmetrized_int_table(n, alphabets, rng, total=1009):
    """One multinomial draw per input-string block, summed over all n!
    round permutations: (numerators, total * n!)."""
    al = alphabets
    shape = (al.x_size**n, al.y_size**n, al.a_size**n, al.b_size**n)
    outs = shape[2] * shape[3]
    blocks = rng.multinomial(total, np.full(outs, 1.0 / outs),
                             size=shape[0] * shape[1])
    raw = blocks.reshape(shape).astype(np.int64)
    acc = np.zeros(shape, dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        acc += raw[permutation_index(al, n, perm)]
    return acc, total * math.factorial(n)


def counts_of_strings(xs, ys, out_a, out_b, alphabets: Alphabets) -> tuple:
    """Joint type counts n_jk of explicit round-by-round strings."""
    l = alphabets.x_size * alphabets.y_size
    m = alphabets.a_size * alphabets.b_size
    n_jk = [[0] * m for _ in range(l)]
    for x, y, a, b in zip(xs, ys, out_a, out_b):
        n_jk[x * alphabets.y_size + y][a * alphabets.b_size + b] += 1
    return tuple(tuple(r) for r in n_jk)


def tau_entry_exact(n_jk) -> Fraction:
    """tau as the stick-breaking product, one Fraction division per output
    step: with running remainder r, step k divides by binom(r, n_jk) (r+1)."""
    value = Fraction(1)
    for row in n_jk:
        r = sum(row)
        for k in range(len(row) - 1):
            value /= math.comb(r, row[k]) * (r + 1)
            r -= row[k]
    return value


def _multinomial(n, parts):
    out = 1
    rest = n
    for c in parts:
        out *= math.comb(rest, c)
        rest -= c
    return out


def tau_lower_bound(n_jk) -> Fraction:
    value = Fraction(1)
    for row in n_jk:
        value /= _multinomial(sum(row), row)
        value /= (sum(row) + 1) ** (len(row) - 1)
    return value


def perm_upper_bound(n_jk) -> Fraction:
    value = Fraction(1)
    for row in n_jk:
        value /= _multinomial(sum(row), row)
    return value


def _string_tuples(base, n):
    """All length-n strings as tuples, ordered by their little-endian index."""
    return [tuple((idx // base**i) % base for i in range(n))
            for idx in range(base**n)]


def tau_table_exact(n, alphabets: Alphabets) -> np.ndarray:
    """tau_entry_exact of every entry's own counts, one entry at a time
    (memoized on the counts)."""
    al = alphabets
    strings = [_string_tuples(size, n) for size in
               (al.x_size, al.y_size, al.a_size, al.b_size)]
    table = np.empty(tuple(len(s) for s in strings), dtype=object)
    cache = {}
    for idx in itertools.product(*(range(len(s)) for s in strings)):
        c = counts_of_strings(*(s[i] for s, i in zip(strings, idx)), al)
        if c not in cache:
            cache[c] = tau_entry_exact(c)
        table[idx] = cache[c]
    return table


def verify_reduction_exact(table, tau_exact) -> Fraction:
    """Max entrywise ratio P/tau, one exact division per nonzero entry."""
    best = Fraction(0)
    for p, t in zip(table.reshape(-1).tolist(), tau_exact.reshape(-1)):
        if p == 0:
            continue
        ratio = p / t
        if ratio > best:
            best = ratio
    return best
