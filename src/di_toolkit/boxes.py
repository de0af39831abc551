r"""Bipartite boxes: conditional distributions P(a,b|x,y) and their algebra.

A *box* is the input-output behaviour of an untrusted two-component device,
stored as a dense table P(a,b|x,y).  Multi-round boxes carry the joint
behaviour over n rounds, with input/output strings flattened to single
indices (mixed radix, round 1 least significant).

Index conventions, fixed throughout the package:

* single-round tables are indexed ``p[x][y][a][b]``,
* game predicates are indexed ``win[a][b][x][y]``, which _win_by_question
  reorders to ``[x][y][a][b]``,
* string flattening is little-endian: round i contributes ``digit * size**(i-1)``,
* the *joint type* of an n-round entry is the multiset of its per-round
  symbols (x, y, a, b); two entries are related by a round permutation
  exactly when their joint types agree, so the de Finetti code works per
  type class (``_type_classes``), never over all n! permutations.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

# the tolerance of every box check: negative entries and normalization
NORMALIZATION_TOL = 1e-9

# classical_value refuses to enumerate more deterministic strategies of Alice
STRATEGY_ENUMERATION_CAP = 10**6
# best_deterministic_score scores this many of Alice's strategies at once,
# so that its memory stays bounded up to the cap
STRATEGY_BATCH = 4096


class AlphabetMismatchError(ValueError):
    """Two objects with incompatible alphabets were combined."""


class EnumerationLimitError(ValueError):
    """A brute-force enumeration would exceed its configured cap."""


def _integer(value, name: str) -> int:
    """``value`` as a Python int; a bool, float or string is refused."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _json_integer(value, name: str) -> int:
    """_integer of a field typed ``integer`` in a file's schema, which JSON
    Schema meets with any integral number: 2.0 reads as 2, 2.5 is refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return _integer(value, name)


def _numbers(value, message: str) -> np.ndarray:
    """np.asarray(value), or ValueError(message) unless every entry is a
    number: the dtype must be numeric with no NaN (which Python's json
    reads), and since numpy reads [0, true] as integers, a list (as read
    from JSON) must hold no bool either."""
    arr = np.asarray(value)
    kind = arr.dtype.kind
    if kind not in "iuf" or kind == "f" and np.isnan(arr).any() or (
            isinstance(value, list) and bool in set(
                map(type, np.asarray(value, dtype=object).flat
                    if arr.ndim > 1 else value))):
        raise ValueError(message)
    return arr


@dataclass(frozen=True)
class Alphabets:
    """Sizes of the output sets (a, b) and input sets (x, y) of a box."""

    a_size: int
    b_size: int
    x_size: int
    y_size: int

    def __post_init__(self):
        for name in ("a_size", "b_size", "x_size", "y_size"):
            value = _integer(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)

    @staticmethod
    def from_json_dict(d: dict) -> "Alphabets":
        """The four sizes of a game or data file (_json_integer)."""
        return Alphabets(*(_json_integer(d[name], name) for name in
                           ("a_size", "b_size", "x_size", "y_size")))

    @property
    def num_signalling_constraints(self) -> int:
        """d = |X||Y|(|A|+|B|), one constraint per signalling target."""
        return self.x_size * self.y_size * (self.a_size + self.b_size)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=float))
    out.flags.writeable = False
    return out


def _box_table(p, expected: tuple) -> np.ndarray:
    """``p`` as a frozen box table: shape ``expected``, entries >= 0 (NaN
    refused) and the outputs of each input summing to 1, both within
    NORMALIZATION_TOL (entries that small below 0 become 0)."""
    p = np.asarray(p, dtype=float)
    if p.shape != expected:
        raise ValueError(f"table shape {p.shape} != {expected}")
    if not np.all(p >= -NORMALIZATION_TOL):  # NaN fails too
        raise ValueError("negative or NaN probability entry")
    p = np.clip(p, 0.0, None)
    if np.any(np.abs(p.sum(axis=(2, 3)) - 1.0) > NORMALIZATION_TOL):
        raise ValueError("per-input normalization violated")
    return _frozen(p)


@dataclass(frozen=True)
class SingleRoundBox:
    """A conditional distribution P(a,b|x,y) over finite alphabets.

    ``p`` has shape ``(x_size, y_size, a_size, b_size)``, nonnegative
    entries and per-(x,y) normalization (see _box_table).
    """

    alphabets: Alphabets
    p: np.ndarray

    def __post_init__(self):
        al = self.alphabets
        object.__setattr__(self, "p", _box_table(
            self.p, (al.x_size, al.y_size, al.a_size, al.b_size)))


@dataclass(frozen=True)
class InputDistribution:
    """A distribution Q(x,y) over the question pairs of a game."""

    q: np.ndarray

    def __post_init__(self):
        q = _numbers(self.q, "q entries must be numbers").astype(
            float, copy=False)
        if q.ndim != 2:
            raise ValueError("q must be a 2-index table")
        if np.any(q < 0):
            raise ValueError("negative input probability")
        if abs(q.sum() - 1.0) > NORMALIZATION_TOL:
            raise ValueError("input distribution must sum to 1")
        object.__setattr__(self, "q", _frozen(q))

    @property
    def complete_support(self) -> bool:
        return bool(np.all(self.q > 0))

    @property
    def x_size(self) -> int:
        return self.q.shape[0]

    @property
    def y_size(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class Game:
    """A two-player game: question distribution plus winning predicate.

    ``win`` is a boolean table indexed ``[a][b][x][y]``.
    """

    alphabets: Alphabets
    q: InputDistribution
    win: np.ndarray

    def __post_init__(self):
        al = self.alphabets
        w = np.asarray(self.win, dtype=bool)
        expected = (al.a_size, al.b_size, al.x_size, al.y_size)
        if w.shape != expected:
            raise ValueError(f"win table shape {w.shape} != {expected}")
        if self.q.q.shape != (al.x_size, al.y_size):
            raise AlphabetMismatchError("input distribution shape mismatch")
        w = np.ascontiguousarray(w)
        w.flags.writeable = False
        object.__setattr__(self, "win", w)

    def to_json_dict(self) -> dict:
        al = self.alphabets
        return {
            "a_size": al.a_size,
            "b_size": al.b_size,
            "x_size": al.x_size,
            "y_size": al.y_size,
            "q": self.q.q.tolist(),
            "win": self.win.astype(int).tolist(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Game":
        al = Alphabets.from_json_dict(d)
        message = "win entries must be 0 or 1"
        win = _numbers(d["win"], message)
        if not ((win == 0) | (win == 1)).all():
            raise ValueError(message)
        return Game(al, InputDistribution(d["q"]), win.astype(bool))


@dataclass(frozen=True)
class MultiRoundBox:
    """An n-round box P(a⃗,b⃗|x⃗,y⃗) with strings flattened to indices.

    ``p`` has shape ``(x_size**n, y_size**n, a_size**n, b_size**n)``; digit i
    of a flattened index (base ``size``, least significant first) is the
    symbol of round i.
    """

    n: int
    alphabets: Alphabets
    p: np.ndarray

    def __post_init__(self):
        al = self.alphabets
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "p", _box_table(
            self.p, (al.x_size**self.n, al.y_size**self.n,
                     al.a_size**self.n, al.b_size**self.n)))


@dataclass(frozen=True)
class ObservedData:
    """Raw per-round records (a⃗, b⃗, x⃗, y⃗) of n played rounds."""

    n: int
    a: np.ndarray
    b: np.ndarray
    x: np.ndarray
    y: np.ndarray
    alphabets: Alphabets

    def __post_init__(self):
        object.__setattr__(self, "n", _json_integer(self.n, "n"))
        arrays = {}
        for name in ("a", "b", "x", "y"):
            message = f"non-integer entry in {name}"
            raw = _numbers(getattr(self, name), message)
            if raw.dtype.kind == "f" and not np.all(np.isfinite(raw)
                                                    & (raw == np.floor(raw))):
                raise ValueError(message)
            v = raw.astype(int, copy=False)
            if v.shape != (self.n,):
                raise ValueError(f"{name} must have length n={self.n}")
            if np.any(v < 0):
                raise ValueError(f"negative entry in {name}")
            arrays[name] = v
        al = self.alphabets
        limits = {"a": al.a_size, "b": al.b_size, "x": al.x_size, "y": al.y_size}
        for name, v in arrays.items():
            if np.any(v >= limits[name]):
                raise ValueError(f"{name} entry out of range")
        for name, v in arrays.items():
            v.flags.writeable = False
            object.__setattr__(self, name, v)


# ---------------------------------------------------------------------------
# single-round operations


def _win_by_question(game: Game) -> np.ndarray:
    """game.win reordered from [a][b][x][y] to the tables' [x][y][a][b]."""
    return np.transpose(game.win, (2, 3, 0, 1))


def winning_probability(box: SingleRoundBox, game: Game) -> float:
    """sum_{abxy} Q(x,y) P(a,b|x,y) R(a,b,x,y)."""
    if box.alphabets != game.alphabets:
        raise AlphabetMismatchError("box and game alphabets differ")
    w = _win_by_question(game).astype(float)
    return float(np.einsum("xy,xyab,xyab->", game.q.q, box.p, w))


def chsh_game() -> Game:
    """CHSH: binary questions/answers, uniform inputs, win iff a xor b == x*y."""
    al = Alphabets(2, 2, 2, 2)
    q = InputDistribution(np.full((2, 2), 0.25))
    win = np.zeros((2, 2, 2, 2), dtype=bool)
    for a, b, x, y in itertools.product(range(2), repeat=4):
        win[a, b, x, y] = (a ^ b) == (x * y)
    return Game(al, q, win)


def extended_chsh_game() -> Game:
    """CHSH variant used for key distribution: Bob gains a third input y=2.

    Inputs are uniform over the six pairs.  For x,y in {0,1} the CHSH
    condition applies; (x,y)=(0,2) wins iff a==b; (x,y)=(1,2) always wins.
    """
    al = Alphabets(2, 2, 2, 3)
    q = InputDistribution(np.full((2, 3), 1.0 / 6.0))
    win = np.zeros((2, 2, 2, 3), dtype=bool)
    for a, b, x in itertools.product(range(2), range(2), range(2)):
        for y in range(2):
            win[a, b, x, y] = (a ^ b) == (x * y)
        win[a, b, x, 2] = (a == b) if x == 0 else True
    return Game(al, q, win)


def best_deterministic_score(weights: np.ndarray):
    """max over the deterministic pairs f: X -> A, g: Y -> B of
    sum_{x,y} weights[x, y, f(x), g(y)], for weights indexed [x][y][a][b].

    Against a fixed f, Bob's best g answers each y with the b maximizing
    t_f[y, b] = sum_x weights[x, y, f(x), b]: only Alice's a_size**x_size
    functions are enumerated, STRATEGY_BATCH at a time (function k has
    f(x) = digit x of k in base a_size).  t_f sums over x, then its maxima
    over y, in index order; integer weights give an exact integer.
    """
    x_size, _, a_size, _ = weights.shape
    n_f = a_size**x_size
    best = None
    for start in range(0, n_f, STRATEGY_BATCH):
        f = np.arange(start, min(start + STRATEGY_BATCH, n_f))
        t = sum(weights[x][:, f // a_size**x % a_size]
                for x in range(x_size))  # [y][f][b]
        score = t.max(axis=2).sum(axis=0).max()
        best = score if best is None else max(best, score)
    return best


def classical_value(game: Game) -> float:
    """Optimal winning probability over all classical (shared-randomness) boxes.

    Shared randomness cannot beat the best deterministic pair (f, g) for a
    linear objective: the value is best_deterministic_score of the weights
    Q(x,y) R(a,b,x,y).
    """
    al = game.alphabets
    n_f = al.a_size**al.x_size
    if n_f > STRATEGY_ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"{n_f} strategies of Alice exceed cap {STRATEGY_ENUMERATION_CAP}")
    w = _win_by_question(game)
    return float(best_deterministic_score(game.q.q[:, :, None, None] * w))


def l1_distance(b1: SingleRoundBox, b2: SingleRoundBox,
                q: InputDistribution) -> float:
    """E_{(x,y)~Q} sum_{a,b} |P1(a,b|x,y) - P2(a,b|x,y)|."""
    if b1.alphabets != b2.alphabets:
        raise AlphabetMismatchError("box alphabets differ")
    diff = np.abs(b1.p - b2.p).sum(axis=(2, 3))
    return float(np.sum(q.q * diff))


# ---------------------------------------------------------------------------
# multi-round operations


def _type_classes(n: int, alphabets: Alphabets) -> tuple:
    """The joint types of an n-round table: (index, counts).

    ``index`` has the shape of MultiRoundBox.p and gives each entry's class;
    row c of ``counts`` counts how often each per-round symbol
    s = ((x*y_size + y)*a_size + a)*b_size + b occurs in class c, so reshaped
    to (|X||Y|, |A||B|) it is the class's joint type counts n_jk, as the
    definetti functions take them.  Two entries are related by a round
    permutation exactly when they have the same class.
    """
    sizes = (alphabets.x_size, alphabets.y_size, alphabets.a_size,
             alphabets.b_size)
    # symbols[ix, iy, ia, ib, i] is the symbol of round i
    symbols = np.zeros((1,) * 4 + (n,), dtype=np.int64)
    for axis, size in enumerate(sizes):
        digits = np.arange(size**n)[:, None] // size ** np.arange(n) % size
        shape = [1] * 4 + [n]
        shape[axis] = size**n
        symbols = symbols * size + digits.reshape(shape)
    width = math.prod(sizes)
    ordered = np.sort(symbols, axis=-1)
    keys = ordered @ width ** np.arange(n)
    _, first, index = np.unique(keys.ravel(), return_index=True,
                                return_inverse=True)
    counts = np.zeros((len(first), width), dtype=np.int64)
    np.add.at(counts, (np.arange(len(first))[:, None],
                       ordered.reshape(keys.size, n)[first]), 1)
    return index.reshape(keys.shape), counts
