"""The joint-type permutation layer against explicit n! sweeps.

definetti treats two entries of an n-round table as related by a round
permutation exactly when they share a joint type (the multiset of
per-round symbols (x, y, a, b), boxes._type_classes).  perm_oracle keeps
the sweeps over all n! permutations, the per-entry tau loop and the
per-entry reduction ratio; each test here checks the package's type-class
code against them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from di_toolkit import boxes
from di_toolkit import definetti as df
from di_toolkit.boxes import Alphabets, MultiRoundBox
from conftest import BINARY
import perm_oracle

CASES = ([(BINARY, n) for n in (1, 2, 3, 4)]
         + [(Alphabets(*sizes), n) for sizes in ((2, 3, 1, 2), (3, 2, 2, 1))
            for n in (1, 2, 3)])
IDS = [f"{al.a_size}{al.b_size}{al.x_size}{al.y_size}-n{n}" for al, n in CASES]

pytestmark = pytest.mark.parametrize("al, n", CASES, ids=IDS)


def test_class_counts(al, n):
    index, counts = boxes._type_classes(n, al)
    width = al.x_size * al.y_size * al.a_size * al.b_size
    assert index.shape == (al.x_size**n, al.y_size**n, al.a_size**n,
                           al.b_size**n)
    # every multiset of n symbols is one class, and its size is the
    # number of distinct orderings
    assert len(counts) == math.comb(width + n - 1, n)
    assert np.all(counts.sum(axis=1) == n)
    orderings = [math.factorial(n) // math.prod(map(math.factorial, row))
                 for row in counts.tolist()]
    assert np.bincount(index.ravel()).tolist() == orderings


def test_tau_table_matches_per_entry_loop(al, n):
    new = df.tau_table_exact(n, al)
    ref = perm_oracle.tau_table_exact(n, al)
    assert new.shape == ref.shape and new.dtype == object
    assert new.ravel().tolist() == ref.ravel().tolist()


def test_random_table_matches_permutation_sum(al, n):
    for seed in (0, 5, 7):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        nums, denom = df.random_symmetrized_int_table(df.tau_classes(n, al),
                                                      rng)
        ref_nums, ref_denom = perm_oracle.random_symmetrized_int_table(
            n, al, ref_rng)
        assert denom == ref_denom
        assert nums.dtype == ref_nums.dtype
        assert nums.tobytes() == ref_nums.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _random_box(al, n, seed):
    rng = np.random.default_rng([seed, n, al.a_size, al.b_size])
    shape = (al.x_size**n, al.y_size**n, al.a_size**n, al.b_size**n)
    p = rng.random(shape)
    return MultiRoundBox(n, al, p / p.sum(axis=(2, 3), keepdims=True))


def test_permute_matches_index_maps(al, n):
    """A round permutation maps every entry into its own class."""
    index, _ = boxes._type_classes(n, al)
    rng = np.random.default_rng([2, n])
    for _ in range(4):
        perm = rng.permutation(n)
        moved = index[perm_oracle.permutation_index(al, n, perm)]
        assert moved.tobytes() == index.tobytes()


def test_symmetrize_matches_permutation_mean(al, n):
    """The mean of a table over each class and input-string block is its
    mean over all n! round permutations, so each class is one orbit."""
    index, _ = boxes._type_classes(n, al)
    box = _random_box(al, n, 3)
    sums = np.bincount(index.ravel(), weights=box.p.ravel())
    sym = (sums / np.bincount(index.ravel()))[index]
    assert np.max(np.abs(sym - perm_oracle.symmetrize(box))) <= 1e-15


def _digits(size, n):
    """digits[s, i] is round i's symbol of string index s."""
    return np.arange(size**n)[:, None] // size ** np.arange(n) % size


def _product_table(al, n, rng, iid):
    """0/1 table of a product of deterministic single-round boxes
    (signalling allowed): one box for all rounds if ``iid``, else one drawn
    per round, which is not permutation invariant in general."""
    draws = 1 if iid else n
    fa = rng.integers(al.a_size, size=(draws, al.x_size, al.y_size))
    fb = rng.integers(al.b_size, size=(draws, al.x_size, al.y_size))
    box = np.arange(n) % draws
    x = _digits(al.x_size, n)[:, None, None, None]
    y = _digits(al.y_size, n)[None, :, None, None]
    a = _digits(al.a_size, n)[None, None, :, None]
    b = _digits(al.b_size, n)[None, None, None, :]
    hit = (a == fa[box, x, y]) & (b == fb[box, x, y])
    return hit.all(axis=-1).astype(np.int64)


def test_reduction_matches_per_entry_loop(al, n):
    """The per-class ratio equals the per-entry one for invariant tables
    (random symmetrized, deterministic IID) and for tables that are not
    (raw random integers, per-round deterministic products), as integer
    numerators and as Fractions."""
    tau = df.tau_table_exact(n, al)
    classes = df.tau_classes(n, al)
    rng = np.random.default_rng([8, n, al.a_size, al.b_size])
    sym, denom = df.random_symmetrized_int_table(classes, rng)
    tables = [sym, rng.integers(0, 10**6, size=tau.shape),
              _product_table(al, n, rng, iid=True),
              _product_table(al, n, rng, iid=False)]
    if n > 1:
        rolled = perm_oracle.permutation_index(al, n, np.roll(np.arange(n), 1))
        assert not np.array_equal(tables[1][rolled], tables[1])
    for table in tables:
        ratio = df.verify_reduction_exact(table, classes)
        assert isinstance(ratio, Fraction)
        assert ratio == perm_oracle.verify_reduction_exact(table, tau)
        exact = np.vectorize(lambda v: Fraction(int(v), denom),
                             otypes=[object])(table)
        assert (df.verify_reduction_exact(exact, classes)
                == perm_oracle.verify_reduction_exact(exact, tau)
                == ratio / denom)
