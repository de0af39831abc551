import itertools

import numpy as np
import pytest

from di_toolkit.boxes import (AlphabetMismatchError, Alphabets, Game,
                              InputDistribution, MultiRoundBox,
                              SingleRoundBox, chsh_game, extended_chsh_game)

BINARY = Alphabets(2, 2, 2, 2)


def uniform_q(x_size=2, y_size=2):
    return InputDistribution(np.full((x_size, y_size), 1.0 / (x_size * y_size)))


def pr_box():
    """a xor b = x*y with uniform marginals; wins CHSH with certainty."""
    p = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        if (a ^ b) == (x & y):
            p[x, y, a, b] = 0.5
    return SingleRoundBox(BINARY, p)


def deterministic_box(f, g, alphabets=BINARY):
    """a = f(x), b = g(y): the classical deterministic strategies."""
    p = np.zeros((alphabets.x_size, alphabets.y_size,
                  alphabets.a_size, alphabets.b_size))
    for x in range(alphabets.x_size):
        for y in range(alphabets.y_size):
            p[x, y, f[x], g[y]] = 1.0
    return SingleRoundBox(alphabets, p)


def bob_echoes_x_box():
    """b = x, a uniform: signalling from Alice to Bob."""
    p = np.zeros((2, 2, 2, 2))
    for x, y, a in itertools.product(range(2), repeat=3):
        p[x, y, a, x] = 0.5
    return SingleRoundBox(BINARY, p)


def is_nonsignalling(box, tol=1e-9):
    """Oracle: Alice's marginal P(a|x,y) does not depend on y and Bob's
    P(b|x,y) not on x, entrywise within ``tol``."""
    pa = box.p.sum(axis=3)  # (x, y, a)
    pb = box.p.sum(axis=2)  # (x, y, b)
    return bool(np.all(np.abs(pa - pa[:, :1, :]) <= tol)
                and np.all(np.abs(pb - pb[:1, :, :]) <= tol))


def iid_box(single, n):
    """n independent copies of a single-round box as an n-round box; the
    factors are identical, so which Kronecker operand holds the low digit
    of each string index does not matter."""
    table = single.p
    for _ in range(n - 1):
        table = np.kron(table, single.p)
    return MultiRoundBox(n, single.alphabets, table)


def random_box(rng, alphabets=BINARY):
    """Arbitrary (possibly signalling) normalized box."""
    shape = (alphabets.x_size, alphabets.y_size,
             alphabets.a_size, alphabets.b_size)
    raw = rng.random(shape) + 1e-3
    raw /= raw.sum(axis=(2, 3), keepdims=True)
    return SingleRoundBox(alphabets, raw)


def random_classical_box(rng, alphabets=BINARY, strategies=6):
    """Random mixture of deterministic local strategies: non-signalling."""
    p = np.zeros((alphabets.x_size, alphabets.y_size,
                  alphabets.a_size, alphabets.b_size))
    weights = rng.dirichlet(np.ones(strategies))
    for w in weights:
        f = rng.integers(0, alphabets.a_size, size=alphabets.x_size)
        g = rng.integers(0, alphabets.b_size, size=alphabets.y_size)
        p += w * deterministic_box(f, g, alphabets).p
    return SingleRoundBox(alphabets, p)


def random_game(rng, max_inputs=3, max_outputs=2):
    a = int(rng.integers(2, max_outputs + 1))
    b = int(rng.integers(2, max_outputs + 1))
    x = int(rng.integers(2, max_inputs + 1))
    y = int(rng.integers(2, max_inputs + 1))
    al = Alphabets(a, b, x, y)
    q = rng.dirichlet(np.ones(x * y)).reshape(x, y)
    q = 0.9 * q + 0.1 / (x * y)  # keep complete support well away from 0
    win = rng.random((a, b, x, y)) < 0.5
    return Game(al, InputDistribution(q), win)


def sample_iid_data(box, q, n, rng):
    """Draw n rounds of (x, y) ~ q and (a, b) ~ box."""
    al = box.alphabets
    cells = al.x_size * al.y_size
    flat_q = q.q.reshape(-1)
    cell = rng.choice(cells, size=n, p=flat_q)
    xs, ys = cell // al.y_size, cell % al.y_size
    outs = al.a_size * al.b_size
    cdf = box.p.reshape(al.x_size, al.y_size, outs).cumsum(axis=2)
    u = rng.random(n)
    out = np.empty(n, dtype=int)
    for (x, y) in itertools.product(range(al.x_size), range(al.y_size)):
        mask = (xs == x) & (ys == y)
        out[mask] = np.searchsorted(cdf[x, y], u[mask], side="right")
    out = np.clip(out, 0, outs - 1)
    return xs, ys, out // al.b_size, out % al.b_size


def frequency_box(data, q):
    """Oracle frequency table estimated from observed data:
    freq(a,b,x,y) / Q(x,y), indexed like SingleRoundBox.p.

    Divides by the declared input distribution, not the empirical input
    frequencies, so entries may exceed 1 and per-(x,y) normalization holds
    only when the empirical input frequencies match Q: the table is not a
    box, so it is returned as an array.
    """
    if not q.complete_support:
        raise ValueError("input distribution must have complete support")
    al = data.alphabets
    if (al.x_size, al.y_size) != (q.x_size, q.y_size):
        raise AlphabetMismatchError("data and q input alphabets differ")
    counts = np.zeros((al.x_size, al.y_size, al.a_size, al.b_size))
    np.add.at(counts, (data.x, data.y, data.a, data.b), 1.0)
    seen = counts.sum(axis=(2, 3)) > 0
    if not np.all(seen):
        missing = np.argwhere(~seen)
        raise ValueError(f"input pairs missing from data: {missing.tolist()}")
    return counts / data.n / q.q[:, :, None, None]


def round_count_law(m, gamma, s_max):
    """Exact law of N, the sum of m iid block lengths (geometric in gamma,
    truncated at s_max): entry k is Pr[N = k], over the support 0..m s_max,
    from m-fold convolution by repeated squaring.  Every term is a sum of
    nonnegative products, so even tails of 1e-16 keep their relative
    accuracy."""
    one = np.array([0.0] + [(1.0 - gamma) ** (k - 1) * (gamma if k < s_max
                                                       else 1.0)
                            for k in range(1, s_max + 1)])
    law = np.ones(1)
    while m:
        if m & 1:
            law = np.convolve(law, one)
        m >>= 1
        if m:
            one = np.convolve(one, one)
    return law


@pytest.fixture
def chsh():
    return chsh_game()


@pytest.fixture
def chsh_qkd():
    return extended_chsh_game()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
