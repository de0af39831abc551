#!/usr/bin/env python3
"""Same numbers in two checkouts: SHA-1s of what the key-rate path and the
CLI compute, so that a refactor can show it moved no number.

For each checkout it runs itself once more with that checkout's ``src/``
first on PYTHONPATH, and hashes four groups there:

- optimize: the 288 optimize_rate reports at the caps (soundness,
  completeness, eps_ec) = (1e-5, 1e-2, 1e-10), (1e-7, 1e-3, 1e-12),
  (1e-3, 0.1, 1e-9) and (1e-5, 1 - 1e-13, 1e-15), the last the only kind
  of caps under which eps_ec_complete can pass 1 - 1e-12, n in {1e6, 1e7,
  1e8, 1e10, 1e12, 1e15} and q in {0, 0.005, 0.02, 0.03, 0.05, 0.08},
  both modes: the .hex() of key_length, gamma, delta_est and eps_t, with
  the evals, at_bound and eps_t_index (a raise by its type and message);
- scalar: 6,000 seeded key_length / key_length_block calls (the inputs
  come from this script, not from the checkout): every float field's
  .hex() and the extras, or the raise by its type and message;
- cli: the exit code and stdout of each example of the README's CLI
  section (this script's own README), run in a scratch directory that
  holds the chsh.json and data.json they read; an example that exits
  non-zero counts as raised;
- verify: ns_value (value, kappa) and perturbed_value at the slacks 0,
  0.01 and 0.05 on CHSH, extended CHSH, 24 seeded random games of the
  verify-mix shapes and the three stalling games (whose slack-0 program
  loses its basis: the raise names the pivots made, so a change to the
  pivot path shows); signalling_test_flags on 40 seeded data sets; a
  SHA-1 of the float64 bytes of signalling_matrix on each of
  ZERO_ENTRY_QS, input distributions with zero entries; the
  exact max ratio of definetti-verify's check at n = 1, 2 and 3; the
  class count and a SHA-1 of the tau denominators at n = 4 on
  Alphabets(4, 8, 1, 1), where they pass 2**63;
  exact_abort_probability on a 108-point grid; estimate_abort_probability
  at seed 7 on the per-round configurations of the abort law tests
  (COUNT_ONLY_CASES in tests/test_simulate.py); and round_count_statistics
  at fixed seeds, gamma = 1 and s_max = 1 among them (each a raise by its
  type and message).

It prints one SHA-1 per group and side, and exits 1 if any group differs.
Under a group that differs it says how far it moved: how many lines differ,
the largest absolute difference over their float fields (.hex() or
decimal), taken where both sides' lines hold the same number of them, and
how many differing lines went up and how many down in their first float
field (an optimize line's key length).  A last line, "src:", gives each
side's src/di_toolkit/*.py line total as wc -l counts it and the change's
delta:

    python3 scripts/same_numbers.py --parent ../parent --change .
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROUPS = ("optimize", "scalar", "cli", "verify")

CAPS = [(1e-5, 1e-2, 1e-10), (1e-7, 1e-3, 1e-12), (1e-3, 0.1, 1e-9),
        (1e-5, 1.0 - 1e-13, 1e-15)]
NS = [1e6, 1e7, 1e8, 1e10, 1e12, 1e15]
QS = [0.0, 0.005, 0.02, 0.03, 0.05, 0.08]
SCALAR_CALLS = 6000
SCALAR_SEED = 20261019
# (x, y, a, b) of the random games in perfbench's verify-mix workload
GAME_SHAPES = [(2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 2, 3), (2, 3, 3, 3),
               (3, 2, 3, 2), (3, 2, 3, 3), (3, 3, 2, 3), (3, 3, 3, 2)]
SLACKS = (0.0, 0.01, 0.05)
VERIFY_SEED = 18121092
# games 9, 19 and 45 of tests/conftest.py's random_game(default_rng(5), 4,
# 3): perturbed_value at slack 0 loses its basis in phase 1 on each
STALLING_SEED = 5
STALLING_GAMES = (9, 19, 45)
# (alphabet sizes (a, b, x, y), Q(x,y)) of the signalling_matrix lines: a
# zero entry, an all-zero column (Q(y) = 0), an all-zero row (Q(x) = 0)
# and both at once, so each conditional's zero-marginal rule is hashed
ZERO_ENTRY_QS = [((2, 2, 2, 2), [[0.5, 0.0], [0.25, 0.25]]),
                 ((2, 3, 2, 3), [[0.2, 0.0, 0.1], [0.3, 0.0, 0.4]]),
                 ((3, 2, 3, 2), [[0.3, 0.2], [0.0, 0.0], [0.1, 0.4]]),
                 ((2, 2, 3, 3), [[0.0, 0.0, 0.0], [0.0, 0.6, 0.1],
                                 [0.0, 0.2, 0.1]])]
# (n, gamma, delta_est, trials) of the abort estimator lines
ESTIMATOR_CASES = [(10**4, 0.5, 0.02, 500), (1000, 0.5, 0.001, 200),
                   (2000, 1.0, 0.01, 200), (5, 0.5, 0.001, 300),
                   (777, 1.0, 0.001, 200), (1001, 0.3, 0.001, 200),
                   (40, 0.02, 0.001, 300)]


def readme_examples(readme):
    """The argument lists of the README's CLI examples: the first code
    block after "## CLI", backslash continuations joined, "di-toolkit"
    dropped."""
    with open(readme) as fh:
        text = fh.read()
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", text,
                      re.DOTALL | re.MULTILINE).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip()]


def write_inputs(directory):
    """chsh.json (the CHSH game) and data.json (2,000 seeded rounds in
    which Bob mostly echoes x) for the CLI examples."""
    game = {"a_size": 2, "b_size": 2, "x_size": 2, "y_size": 2,
            "q": [[0.25, 0.25], [0.25, 0.25]],
            "win": [[[[int((a ^ b) == (x & y)) for y in range(2)]
                      for x in range(2)] for b in range(2)]
                    for a in range(2)]}
    rng = random.Random(7)
    n = 2000
    x = [rng.randrange(2) for _ in range(n)]
    y = [rng.randrange(2) for _ in range(n)]
    a = [rng.randrange(2) for _ in range(n)]
    b = [xi if rng.random() < 0.9 else 1 - xi for xi in x]
    data = {"n": n, "a_size": 2, "b_size": 2, "x_size": 2, "y_size": 2,
            "a": a, "b": b, "x": x, "y": y}
    for name, payload in (("chsh.json", game), ("data.json", data)):
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(payload, fh)


def _raised(exc):
    return f"raise {type(exc).__name__}: {exc}"


def _hex(value):
    return value.hex() if isinstance(value, float) else repr(value)


def optimize_lines(kr):
    """One line per optimize_rate report."""
    for soundness, completeness, eps_ec in CAPS:
        caps = kr.RateCaps(soundness=soundness, completeness=completeness,
                           eps_ec=eps_ec)
        for n in NS:
            for q in QS:
                for mode in (kr.PER_ROUND, kr.BLOCK):
                    try:
                        r = kr.optimize_rate(kr.RateTarget(n=n, q=q), caps,
                                             mode)
                    except Exception as exc:
                        yield _raised(exc)
                        continue
                    evals = sorted(r.extras["evals"].items())
                    yield " ".join(map(str, (
                        _hex(r.key_length), _hex(r.params.gamma),
                        _hex(r.params.delta_est), _hex(r.budget.eps_t),
                        evals, r.extras["at_bound"],
                        r.extras.get("eps_t_index"))))


def scalar_inputs():
    """SCALAR_CALLS seeded argument sets: (block, n, gamma, omega_exp,
    delta_est, q, eps_ec, eps_ec_complete, eps_s, eps_ea, eps_pa, eps_t,
    s_max), with some out of range in each field that the checks see."""
    rng = random.Random(SCALAR_SEED)
    for _ in range(SCALAR_CALLS):
        block = rng.random() < 0.5
        q = rng.uniform(0.0, 0.06)
        omega = (2.0 + math.sqrt(2.0) * (1.0 - 2.0 * q)) / 4.0
        gamma = 10.0 ** rng.uniform(-4.0, 0.05)
        s_max = (rng.randint(0, 3 * math.ceil(1.0 / min(gamma, 1.0)) + 2)
                 if block else 1)
        mass = 1.0 - (1.0 - min(gamma, 1.0)) ** max(s_max, 1)
        delta = rng.uniform(1e-9, 1.2) * (omega - 0.75) * mass
        eps = [10.0 ** rng.uniform(-10.0, -0.3) for _ in range(5)]
        eps_t = (eps[2] / 4.0) ** 2 * 10.0 ** rng.uniform(-14.0, 0.3)
        yield (block, 10.0 ** rng.uniform(-0.5, 16.0), gamma, omega, delta,
               q, eps[0], eps[0] + eps[1], eps[2], eps[3], eps[4], eps_t,
               s_max)


def scalar_lines(kr):
    """One line per scalar key length call."""
    for (block, n, gamma, omega, delta, q, eps_ec, eps_ec_complete, eps_s,
         eps_ea, eps_pa, eps_t, s_max) in scalar_inputs():
        try:
            params = kr.ProtocolParams(n, gamma, omega, delta, q)
            budget = kr.EpsilonBudget(eps_ec, eps_ec_complete, eps_s, eps_ea,
                                      eps_pa, eps_t)
            r = (kr.key_length_block(params, budget, s_max) if block
                 else kr.key_length(params, budget))
        except Exception as exc:
            yield _raised(exc)
            continue
        fields = [_hex(v) for v in r[:10]] + [
            r.mode, r.s_max, sorted((k, _hex(v)) for k, v in r.extras.items())]
        yield " ".join(map(str, fields))


def cli_lines(cli, examples):
    """One entry per CLI example: its exit code and stdout, led by "raise "
    where the code is not 0 (cli.main's return, or argparse's exit)."""
    for argv in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        head = "raise " if code else ""
        yield f"{head}{' '.join(argv)}\n{code}\n{out.getvalue()}"


def _call_line(call):
    """_hex of call()'s value, or of each value of a tuple, or the
    raise."""
    try:
        value = call()
    except Exception as exc:
        return _raised(exc)
    return " ".join(map(_hex, value if isinstance(value, tuple) else
                        (value,)))


def stalling_games(boxes):
    """The STALLING_GAMES draws of random_game(default_rng(STALLING_SEED),
    4, 3), drawn as tests/conftest.py draws them."""
    import numpy as np

    rng = np.random.default_rng(STALLING_SEED)
    games = []
    for k in range(max(STALLING_GAMES) + 1):
        a, b, x, y = (int(rng.integers(2, top + 1)) for top in (3, 3, 4, 4))
        q = 0.9 * rng.dirichlet(np.ones(x * y)).reshape(x, y) + 0.1 / (x * y)
        win = rng.random((a, b, x, y)) < 0.5
        if k in STALLING_GAMES:
            games.append(boxes.Game(boxes.Alphabets(a, b, x, y),
                                    boxes.InputDistribution(q), win))
    return games


def verify_lines(lib):
    """One line per non-signalling program, signalling data set,
    signalling matrix, de Finetti check, exact or estimated abort
    probability and round-count statistic."""
    import numpy as np

    boxes, nslp, sig, df, sim = (lib.boxes, lib.nslp, lib.signalling,
                                 lib.definetti, lib.simulate)
    rng = np.random.default_rng(VERIFY_SEED)
    games = [boxes.chsh_game(), boxes.extended_chsh_game()]
    for x, y, a, b in GAME_SHAPES * 3:
        q = 0.9 * rng.dirichlet(np.ones(x * y)).reshape(x, y) + 0.1 / (x * y)
        games.append(boxes.Game(boxes.Alphabets(a, b, x, y),
                                boxes.InputDistribution(q),
                                rng.random((a, b, x, y)) < 0.5))
    for game in games + stalling_games(boxes):
        yield _call_line(lambda: nslp.ns_value(game))
        for slack in SLACKS:
            yield _call_line(lambda: nslp.perturbed_value(game, slack))
    n = 2000
    for k in range(40):
        a_size, b_size, x_size, y_size = (int(v) for v in
                                          rng.integers(1, 4, size=4))
        x, y = rng.integers(0, x_size, n), rng.integers(0, y_size, n)
        a = rng.integers(0, a_size, n)
        b = x % b_size if k % 2 else rng.integers(0, b_size, n)
        q = rng.dirichlet(np.ones(x_size * y_size)).reshape(x_size, y_size)
        data = (n, a, b, x, y, boxes.Alphabets(a_size, b_size, x_size,
                                                y_size))
        yield _call_line(lambda: "".join("01"[bool(f)] for f in (
            sig.signalling_test_flags(
                boxes.ObservedData(*data),
                boxes.InputDistribution(0.9 * q + 0.1 / q.size),
                sig.TestParams(0.06, 0.008, n)))))
    for sizes, q in ZERO_ENTRY_QS:
        yield _call_line(lambda: hashlib.sha1(sig.signalling_matrix(
            boxes.Alphabets(*sizes), boxes.InputDistribution(q))
            .tobytes()).hexdigest())
    binary = boxes.Alphabets(2, 2, 2, 2)
    for n in (1, 2, 3):
        tau, draws = df.tau_classes(n, binary), np.random.default_rng(n)
        yield _call_line(lambda: max(
            df.verify_reduction_exact(nums, tau) / denom
            for nums, denom in (df.random_symmetrized_int_table(tau, draws)
                                for _ in range(10))))
    for n in (100, 1000, 10**4, 10**5):
        for gamma in (0.1, 0.5, 1.0):
            for delta in (0.001, 0.01, 0.05):
                for omega in (0.78, 0.81, 0.85):
                    yield _call_line(lambda: sim.exact_abort_probability(
                        sim.SimulationConfig(n, gamma, 0.81, delta,
                                             sim.HonestDevice(omega, 0.01))))
    for n, gamma, delta, trials in ESTIMATOR_CASES:
        yield _call_line(lambda: sim.estimate_abort_probability(
            sim.SimulationConfig(n, gamma, 0.81, delta,
                                 sim.HonestDevice(0.81, 0.01)), trials, 7))
    tau = df.tau_classes(4, boxes.Alphabets(4, 8, 1, 1))
    yield f"{len(tau.denominators)} " + hashlib.sha1(
        " ".join(map(str, tau.denominators)).encode()).hexdigest()
    for m, gamma, s_max, tail in ((200, 0.1, 10, 60.0), (50, 0.3, 4, 5.0),
                                  (100, 0.2, 6, 10.0), (80, 1.0, 4, 0.0),
                                  (120, 0.3, 1, 0.0)):
        block = lib.eat.BlockSpec(gamma, s_max)
        for seed in (1, 2, 3):
            yield _call_line(lambda: sim.round_count_statistics(
                m, block, sim.HonestDevice(0.81, 0.01), 40, seed, tail))


def digest(lines):
    """SHA-1 over the lines, line count, lines that record a raise, and the
    lines themselves."""
    sha, text = hashlib.sha1(), list(lines)
    for line in text:
        sha.update(line.encode() + b"\0")
    return {"sha1": sha.hexdigest(), "lines": len(text),
            "raised": sum(line.startswith("raise ") for line in text),
            "text": text}


# a float field: float.hex() output or a decimal with a point or exponent,
# standing alone: digits inside a word or a SHA-1 such as "a3e45" are none
FLOAT = re.compile(r"(?<![\w.])(?:-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[+-]\d+"
                   r"|-?\d+(?:\.\d*(?:e[+-]?\d+)?|e[+-]?\d+))(?!\w)")


def _floats(line):
    return [float.fromhex(token) if "x" in token else float(token)
            for token in FLOAT.findall(line)]


def moved(parent, change):
    """(lines that differ, largest |parent - change| over the float fields
    of the differing lines whose float fields pair up; None where no
    differing line's do).  Lines pair up by position; a line only one side
    has counts as differing."""
    differ, largest = abs(len(parent) - len(change)), None
    for a, b in zip(parent, change):
        if a == b:
            continue
        differ += 1
        fa, fb = _floats(a), _floats(b)
        if len(fa) == len(fb):
            delta = max((abs(x - y) for x, y in zip(fa, fb)), default=0.0)
            largest = delta if largest is None else max(largest, delta)
    return differ, largest


def directions(parent, change):
    """(up, down): the differing line pairs, by position, whose first float
    field is higher, and lower, in ``change`` than in ``parent``; a pair in
    which a line has no float field counts in neither."""
    up = down = 0
    for a, b in zip(parent, change):
        fa, fb = _floats(a)[:1], _floats(b)[:1]
        if a != b and fa and fb:
            up += fb > fa
            down += fb < fa
    return up, down


def side(checkout, examples):
    """The four groups' digests in ``checkout``'s package; the working
    directory holds the CLI examples' input files."""
    import di_toolkit
    from di_toolkit import cli, keyrates as kr
    src = os.path.realpath(os.path.join(checkout, "src"))
    if not os.path.realpath(kr.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {kr.__file__}, not {src}")
    return {"optimize": digest(optimize_lines(kr)),
            "scalar": digest(scalar_lines(kr)),
            "cli": digest(cli_lines(cli, examples)),
            "verify": digest(verify_lines(di_toolkit))}


def src_lines(checkout):
    """The line total of checkout/src/di_toolkit/*.py as wc -l counts it:
    newline characters, so a last line without one does not count."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "di_toolkit",
                                       "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def run_side(checkout, examples, workdir):
    """side(checkout) in a fresh interpreter with checkout/src first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.abspath(checkout), "src"),
                    env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--side",
         os.path.abspath(checkout), "--examples", json.dumps(examples)],
        env=env, cwd=workdir, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout before the change")
    p.add_argument("--change", help="checkout with the change")
    p.add_argument("--side", help=argparse.SUPPRESS)
    p.add_argument("--examples", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.side:
        print(json.dumps(side(args.side, json.loads(args.examples))))
        return 0
    if not (args.parent and args.change):
        p.error("--parent and --change are both required")
    examples = readme_examples(os.path.join(ROOT, "README.md"))
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workdir)
        results = {name: run_side(path, examples, workdir)
                   for name, path in (("parent", args.parent),
                                      ("change", args.change))}
    differ = 0
    for group in GROUPS:
        a, b = results["parent"][group], results["change"][group]
        same = a["sha1"] == b["sha1"]
        differ += not same
        print(f"{group}: {b['lines']} lines, {b['raised']} raised; "
              f"parent {a['sha1']} change {b['sha1']} "
              f"{'same' if same else 'DIFFERENT'}")
        if not same:
            lines, largest = moved(a["text"], b["text"])
            size = "-" if largest is None else f"{largest:.2g}"
            up, down = directions(a["text"], b["text"])
            print(f"  {lines} of {b['lines']} lines differ, "
                  f"largest |Δ| {size}; first float up in {up}, "
                  f"down in {down}")
    parent, change = src_lines(args.parent), src_lines(args.change)
    print(f"src: parent {parent} lines, change {change} lines "
          f"({change - parent:+d})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
