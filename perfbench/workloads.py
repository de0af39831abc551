"""The three workloads: inputs generated from the seed, the calls that are
timed, and the checks run on their outputs after the timed loop.

A workload is a list of passes; each pass runs in a fresh worker process
and is a list of items.  The benchmark seed and the pass index seed every
random input, so the same (seed, pass) always gives the same items.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

# verify-mix items past this wall time are stopped and count as failed
DEADLINE_S = 3.0


@dataclass
class Item:
    kind: str
    label: str
    call: Callable  # () -> output, the timed work
    check: Callable  # (output) -> error text or None, run after timing
    deadline: float | None = None
    value: Callable | None = None  # (output) -> number kept in the result


def _rng(seed: int, pass_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index, stream])


def _load(root, relpath, name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(root, relpath))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# rate-opt


def rate_opt(lib, root, seed, pass_index, workdir):
    """The five acceptance-03/04 targets plus one strict-cap target, each an
    optimize_rate call through keyrates.rate_curve, in seeded order."""
    kr = lib.keyrates
    ref = _load(root, "tests/reference_curves.py", "reference_curves")
    caps = kr.RateCaps(soundness=1e-5, completeness=1e-2, eps_ec=1e-10)
    strict = kr.RateCaps(soundness=1e-9, completeness=1e-2, eps_ec=1e-12)
    targets = [(n, q, caps, ("rate", expected, tol))
               for n, q, expected, tol in ref.KEY_RATE_POINTS]
    lo, hi = ref.ZERO_CROSSING_WINDOW
    targets.append((ref.ZERO_CROSSING_N, lo, caps, ("sign", 1.0, 0.0)))
    targets.append((ref.ZERO_CROSSING_N, hi, caps, ("sign", -1.0, 0.0)))
    targets.append((1e10, 0.01, strict, None))

    def make(n, q, rc, expect):
        def call():
            return kr.rate_curve("q", [q], {"n": n}, rc, mode=kr.BLOCK)[0]

        def check(report):
            err = _check_report(report, n)
            if err:
                return err
            if report.soundness_error > rc.soundness * (1 + 1e-12):
                return f"soundness {report.soundness_error} above cap"
            if report.completeness_error > rc.completeness * (1 + 1e-12):
                return f"completeness {report.completeness_error} above cap"
            if expect and expect[0] == "rate" and abs(
                    report.rate - expect[1]) > expect[2]:
                return f"rate {report.rate} != reference {expect[1]}"
            if expect and expect[0] == "sign" and report.rate * expect[1] <= 0:
                return f"rate {report.rate} has the wrong sign"
            return None
        label = f"n={n:g} q={q:g} soundness={rc.soundness:g}"
        rate = (lambda report: report.rate) if expect else None
        return Item("optimize_rate", label, call, check, value=rate)

    order = _rng(seed, pass_index, 0).permutation(len(targets))
    return [make(*targets[i]) for i in order]


def _check_report(report, n):
    if report.key_length != report.breakdown_sum():
        return (f"key_length {report.key_length} != breakdown "
                f"{report.breakdown_sum()}")
    if not _close(report.rate, report.key_length / n):
        return "rate != key_length / n"
    return None


# ---------------------------------------------------------------------------
# rate-scalar

# (n, eps_s = eps_e, delta_est) of scripts/entropy_rate_curves.py, gamma = 1
MU_OPT_SETS = [
    (1e8, 1e-6, 1e-3), (1e7, 1e-5, 1e-3), (1e7, 1e-6, 1e-3),
    (1e6, 1e-3, 1e-3), (1e6, 1e-4, 1e-3), (1e6, 1e-5, 1e-3),
    (1e5, 1e-3, 1e-2),
]
MU_OPT_POINTS = 50
RANDOM_POINTS = 150  # per kind: mu_block_opt, key_length, key_length_block
EPS_DECADES = (-10.0, -5.0)  # epsilons are log-uniform over this range


def _honest_omega(q):
    return (2.0 + math.sqrt(2.0) * (1.0 - 2.0 * q)) / 4.0


def _valid_points(rng, count):
    """Acceptance-10 style protocol points that satisfy every documented
    precondition of key_length (the statistic omega - delta/gamma stays in
    the quantum regime).  eps_s takes the midpoints of ``count`` equal
    log-strata of EPS_DECADES, in seeded order, so every pass holds the same
    eps_s values, and the same number below the log2(0) threshold of
    keyrates._log_correction: the failure count does not depend on the
    seed."""
    lo, hi = EPS_DECADES
    strata = rng.permutation(count)
    points = []
    for k in range(count):
        while True:
            n = float(rng.integers(10**6, 10**10))
            gamma = float(rng.uniform(0.02, 1.0))
            q = float(rng.uniform(0.0, 0.045))
            delta = float(rng.uniform(5e-5, 2e-3))
            omega = _honest_omega(q)
            if omega - delta / gamma >= 0.75 + 1e-6:
                break
        eps_s = 10.0 ** (lo + (hi - lo) * (strata[k] + 0.5) / count)
        eps_ea, eps_pa, eps_e = 10.0 ** rng.uniform(lo, hi, size=3)
        points.append(dict(
            n=n, gamma=gamma, q=q, delta=delta, omega=omega, eps_s=eps_s,
            eps_ea=eps_ea, eps_pa=eps_pa, eps_e=eps_e,
            eps_ec_complete=float(rng.uniform(1e-3, 1e-2)),
            eps_t_decades=float(rng.uniform(1.0, 13.0))))
    return points


def _s_max(gamma):
    return max(int(math.ceil(1.0 / gamma - 1e-9)), 1)


def rate_scalar(lib, root, seed, pass_index, workdir):
    """Independent one-off calls: mu_opt on the entropy_rate_curves.py grid
    (jittered inside each grid cell, so no two passes share a cache key) and
    mu_block_opt, key_length and key_length_block at random valid points."""
    eat, kr = lib.eat, lib.keyrates
    items = []
    rng = _rng(seed, pass_index, 0)
    for n, e, d in MU_OPT_SETS:
        lo = 0.75 + d + 1e-6
        for i in range(MU_OPT_POINTS):
            omega = lo + (oracles.OMEGA_Q - lo) * (i + rng.random()) / MU_OPT_POINTS
            items.append(_mu_opt_item(eat, omega, d, n, e))

    for p in _valid_points(_rng(seed, pass_index, 1), RANDOM_POINTS):
        items.append(_mu_block_item(eat, p))
    for p in _valid_points(_rng(seed, pass_index, 2), RANDOM_POINTS):
        items.append(_key_length_item(kr, p, block=False))
    for p in _valid_points(_rng(seed, pass_index, 3), RANDOM_POINTS):
        items.append(_key_length_item(kr, p, block=True))
    order = _rng(seed, pass_index, 4).permutation(len(items))
    return [items[i] for i in order]


def _mu_opt_item(eat, omega, delta, n, e):
    eps = eat.EatEpsilons(e, e)
    objective = oracles.mu_round_objective(omega, delta, 1.0, n, e, e)
    return Item("mu_opt", f"omega={omega:.9g} n={n:g}",
                lambda: eat.mu_opt(omega, delta, 1.0, n, eps),
                lambda out: oracles.check_cut_optimum(*out, objective, 1.0))


def _mu_block_item(eat, p):
    s_max = _s_max(p["gamma"])
    block = eat.BlockSpec(p["gamma"], s_max)
    mass = 1.0 - (1.0 - p["gamma"]) ** s_max
    m = p["n"] * p["gamma"] / mass
    eps = eat.EatEpsilons(p["eps_s"], p["eps_e"])
    objective = oracles.mu_block_objective(p["omega"], p["delta"], p["gamma"],
                                           s_max, m, p["eps_s"], p["eps_e"])
    return Item("mu_block_opt", json.dumps(p),
                lambda: eat.mu_block_opt(p["omega"], p["delta"], block, m, eps),
                lambda out: oracles.check_cut_optimum(*out, objective, mass))


def _key_length_item(kr, p, block):
    params = kr.ProtocolParams(p["n"], p["gamma"], p["omega"], p["delta"], p["q"])
    eps_t = (p["eps_s"] / 4.0) ** 2 * 10.0 ** -p["eps_t_decades"] if block else 0.0
    budget = kr.EpsilonBudget(eps_ec=1e-10, eps_ec_complete=p["eps_ec_complete"],
                              eps_s=p["eps_s"], eps_ea=p["eps_ea"],
                              eps_pa=p["eps_pa"], eps_t=eps_t)
    s_max = _s_max(p["gamma"])
    es, ee = p["eps_s"] / 4.0, p["eps_ea"] + 1e-10
    if block and s_max > 1:
        mass = 1.0 - (1.0 - p["gamma"]) ** s_max
        count = p["n"] * p["gamma"] / mass
        objective = oracles.mu_block_objective(
            p["omega"], p["delta"], p["gamma"], s_max, count, es, ee)
    else:
        mass, count = p["gamma"], p["n"]
        objective = oracles.mu_round_objective(
            p["omega"], p["delta"], p["gamma"], p["n"], es, ee)

    def call():
        if block:
            return kr.key_length_block(params, budget, s_max)
        return kr.key_length(params, budget)

    def check(report):
        err = _check_report(report, p["n"])
        if err:
            return err
        soundness = 2e-10 + p["eps_pa"] + p["eps_s"] + p["eps_ea"]
        if not _close(report.soundness_error, soundness):
            return f"soundness {report.soundness_error} != {soundness}"
        completeness = (p["eps_ec_complete"] + 1e-10
                        + math.exp(-2.0 * p["n"] * p["delta"] ** 2))
        if not _close(report.completeness_error, completeness):
            return f"completeness {report.completeness_error} != {completeness}"
        return oracles.check_cut_optimum(report.entropy_term / count,
                                         report.best_cut, objective, mass)

    kind = "key_length_block" if block else "key_length"
    return Item(kind, json.dumps(p), call, check)


# ---------------------------------------------------------------------------
# verify-mix

# games 9, 19 and 45 of random_game(default_rng(5), max_inputs=4,
# max_outputs=3): the dense simplex stalls on them (38.7 s and a false
# "infeasible" on game 9, the iteration cap after 56 s and 70 s on 19 and 45)
STALLING_GAMES = (9, 19, 45)
# Shapes (x, y, a, b) of the random games, three of each a pass.  The dense
# simplex also stalls at random on games with 4 inputs on a side (about
# half of 4x4, some 3x4 and 4x3) and on about one 3x3x3x3 game in ten, so
# the random games keep to shapes that had no stall in 40 tries and the
# stall is shown by one STALLING_GAMES entry per pass.  The random games are
# drawn from GAME_SEED and the pass index, not from the benchmark seed: the
# solver also fails fast ("infeasible") on about one of these games in 200,
# and seeded games would make the failure count differ from seed to seed.
GAME_SHAPES = [(2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 2, 3), (2, 3, 3, 3),
               (3, 2, 3, 2), (3, 2, 3, 3), (3, 3, 2, 3), (3, 3, 3, 2)]
GAME_SEED = 18121092
SLACKS = (0.0, 0.01, 0.05)
SIG_ROUNDS = 10000
SIG_ZETA, SIG_EPS = 0.06, 0.008
ACC09 = dict(n=10**4, gamma=0.5, omega_exp=0.81, delta_est=0.02, qber=0.01,
             trials=500)
BLOCK_RUN = dict(m_blocks=200, gamma=0.1, s_max=10, trials=40, eps_t=0.1)


def random_game_arrays(rng, x, y, a, b):
    """Question distribution and predicate drawn like the test suite's
    random_game: Dirichlet q mixed with 10% uniform, fair-coin predicate."""
    q = rng.dirichlet(np.ones(x * y)).reshape(x, y)
    q = 0.9 * q + 0.1 / (x * y)
    return q, rng.random((a, b, x, y)) < 0.5


def _stalling_game(index):
    rng = np.random.default_rng(5)
    for _ in range(index + 1):
        a, b = (int(rng.integers(2, 4)) for _ in range(2))
        x, y = (int(rng.integers(2, 5)) for _ in range(2))
        q, win = random_game_arrays(rng, x, y, a, b)
    return q, win


def verify_mix(lib, root, seed, pass_index, workdir):
    """The verification commands through cli.main, perturbed LP values, and
    the block-protocol round-count statistics."""
    Alphabets, Game = lib.boxes.Alphabets, lib.boxes.Game
    InputDistribution = lib.boxes.InputDistribution
    cli, nslp, sim, eat = lib.cli, lib.nslp, lib.simulate, lib.eat
    rng = _rng(seed, pass_index, 0)
    games = [("chsh", lib.boxes.chsh_game()),
             ("extended-chsh", lib.boxes.extended_chsh_game())]
    stall = STALLING_GAMES[(seed + pass_index) % len(STALLING_GAMES)]
    q, win = _stalling_game(stall)
    games.append((f"stalling-{stall}", Game(
        Alphabets(win.shape[0], win.shape[1], *q.shape),
        InputDistribution(q), win)))
    game_rng = np.random.default_rng([GAME_SEED, pass_index])
    for i, (x, y, a, b) in enumerate(GAME_SHAPES * 3):
        q, win = random_game_arrays(game_rng, x, y, a, b)
        games.append((f"random{i}-{x}x{y}x{a}x{b}",
                      Game(Alphabets(a, b, x, y), InputDistribution(q), win)))

    items = [_game_item(cli, nslp, workdir, label, g) for label, g in games]
    items += _sig_items(cli, workdir, rng)
    for n, trials in ((2, 20), (3, 3)):
        items.append(_definetti_item(cli, workdir, n, trials,
                                     int(rng.integers(2**31))))
    items.append(_simulate_item(cli, workdir, int(rng.integers(2**31))))
    items.append(_block_item(sim, eat, int(rng.integers(2**31))))
    for item in items:
        item.deadline = DEADLINE_S
    order = _rng(seed, pass_index, 1).permutation(len(items))
    return [items[i] for i in order]


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cli_call(cli, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    if code != 0:
        raise RuntimeError(f"di-toolkit {argv[0]} exited with {code}")


def _game_item(cli, nslp, workdir, label, game):
    path = _write_json(os.path.join(workdir, f"game-{label}.json"),
                       game.to_json_dict())
    out = os.path.join(workdir, f"ns-{label}.json")

    def call():
        _cli_call(cli, ["ns-value", "--game", path, "--out", out])
        return [nslp.perturbed_value(game, s) for s in SLACKS]

    def check(perturbed):
        reported = _read_json(out)
        value, kappa, d = reported["value"], reported["kappa"], reported["d"]
        if label == "chsh" and abs(value - 1.0) > 1e-9:
            return f"ns(CHSH) = {value}"
        if kappa > d + 1e-9:
            return f"kappa {kappa} > d {d}"
        for s, v in zip(SLACKS, perturbed):
            if v > value + s * kappa + 1e-8:
                return f"perturbed({s}) = {v} > {value} + {s} * {kappa}"
        if abs(perturbed[0] - value) > 1e-8:
            return f"perturbed(0) = {perturbed[0]} != ns value {value}"
        solution = nslp.solve(nslp.build_ns_lp(game))
        al = game.alphabets
        box = solution.primal.reshape(al.x_size, al.y_size, al.a_size, al.b_size)
        return oracles.check_ns_box(box, game.q.q, game.win, value)
    return Item("ns-value", label, call, check)


def _sample_rounds(rng, p, n):
    """n rounds of uniform (x, y) and (a, b) ~ p[x, y] for a binary box."""
    x, y = rng.integers(0, 2, size=n), rng.integers(0, 2, size=n)
    cdf = p.reshape(2, 2, 4).cumsum(axis=2)[x, y]
    k = np.minimum((rng.random(n)[:, None] >= cdf).sum(axis=1), 3)
    return x, y, k // 2, k % 2


def _sig_items(cli, workdir, rng):
    """Data from a random mixture of deterministic local boxes (no
    signalling) and from a box where Bob outputs Alice's input."""
    local = np.zeros((2, 2, 2, 2))
    for w in rng.dirichlet(np.ones(6)):
        f, g = rng.integers(0, 2, size=2), rng.integers(0, 2, size=2)
        for x, y in itertools.product(range(2), repeat=2):
            local[x, y, f[x], g[y]] += w
    echo = np.zeros((2, 2, 2, 2))
    for x, y, a in itertools.product(range(2), repeat=3):
        echo[x, y, a, x] = 0.5
    q = np.full((2, 2), 0.25)
    items = []
    for label, p in (("local", local), ("echo", echo)):
        x, y, a, b = _sample_rounds(rng, p, SIG_ROUNDS)
        data = _write_json(os.path.join(workdir, f"data-{label}.json"), dict(
            a_size=2, b_size=2, x_size=2, y_size=2, n=SIG_ROUNDS,
            a=a.tolist(), b=b.tolist(), x=x.tolist(), y=y.tolist()))
        out = os.path.join(workdir, f"sig-{label}.json")
        expected = oracles.signalling_flags(x, y, a, b, (2, 2, 2, 2), q,
                                            SIG_ZETA, SIG_EPS)

        def check(_, out=out, expected=expected):
            got = [t["pass"] for t in _read_json(out)["targets"]]
            if len(got) != len(expected) or any(
                    e is not None and g != e for g, e in zip(got, expected)):
                return f"target flags {got} != {expected}"
            return None
        argv = ["sig-test", "--data", data, "--zeta", str(SIG_ZETA),
                "--eps", str(SIG_EPS), "--out", out]
        items.append(Item("sig-test", label,
                          lambda argv=argv: _cli_call(cli, argv), check))
    return items


def _definetti_item(cli, workdir, n, trials, seed):
    out = os.path.join(workdir, f"definetti-{n}.json")
    argv = ["definetti-verify", "--n", str(n), "--trials", str(trials),
            "--seed", str(seed), "--out", out]

    def check(_):
        r = _read_json(out)
        factor = (n + 1) ** (4 * 3)  # (n+1)^(l(m-1)), l = m = 4
        if not r["holds"] or r["factor"] != factor:
            return f"holds={r['holds']} factor={r['factor']} (expected {factor})"
        # P and tau both sum to 1 over the outputs of each input string
        if not 1.0 <= r["max_ratio"] <= factor:
            return f"max_ratio {r['max_ratio']} outside [1, {factor}]"
        return None
    return Item("definetti-verify", f"n={n}",
                lambda: _cli_call(cli, argv), check)


def _simulate_item(cli, workdir, seed):
    out = os.path.join(workdir, "simulate.json")
    argv = ["simulate"] + [f"--{k.replace('_', '-')}={v}" for k, v in
                           ACC09.items()] + [f"--seed={seed}"]

    def check(_):
        first = _read_json(out)
        _cli_call(cli, argv + ["--out", out + ".rerun"])
        if _read_json(out + ".rerun") != first:
            return "seeded rerun differs"
        lo, hi = first["ci"]
        if not lo <= first["abort_freq"] <= hi:
            return f"abort_freq {first['abort_freq']} outside its interval"
        hoeffding = math.exp(-2.0 * ACC09["n"] * ACC09["delta_est"] ** 2)
        if not _close(first["hoeffding_bound"], hoeffding, 1e-8):
            return f"hoeffding_bound {first['hoeffding_bound']} != {hoeffding}"
        # acceptance 09: abort frequency within exp(-8) + 3 sigma
        bound, trials = math.exp(-8.0), ACC09["trials"]
        sigma = math.sqrt(max(bound * (1 - bound), 0.25 / trials) / trials)
        if first["abort_freq"] > bound + 3 * sigma:
            return f"abort_freq {first['abort_freq']} above {bound} + 3 sigma"
        return None
    return Item("simulate", f"seed={seed}",
                lambda: _cli_call(cli, argv + ["--out", out]), check)


def _block_item(sim, eat, seed):
    c = BLOCK_RUN
    block = eat.BlockSpec(c["gamma"], c["s_max"])
    device = sim.HonestDevice(0.81, 0.01)
    m, g = c["m_blocks"], c["gamma"]
    # Pr[N >= m s_bar + t] <= eps_t for t = sqrt(-m (1-g)^2 ln(eps_t) / (2 g^2))
    tail = math.sqrt(-m * (1 - g) ** 2 * math.log(c["eps_t"]) / (2 * g * g))

    def call():
        return sim.round_count_statistics(m, block, device, c["trials"], seed,
                                          tail)

    def check(freq):
        if sim.round_count_statistics(m, block, device, c["trials"], seed,
                                      tail) != freq:
            return "seeded rerun differs"
        sigma = math.sqrt(c["eps_t"] * (1 - c["eps_t"]) / c["trials"])
        if not 0.0 <= freq <= c["eps_t"] + 4 * sigma:
            return f"tail frequency {freq} above eps_t {c['eps_t']} + 4 sigma"
        return None
    return Item("round_count_statistics", f"seed={seed}", call, check)


WORKLOADS = {
    "rate-opt": rate_opt,
    "rate-scalar": rate_scalar,
    "verify-mix": verify_mix,
}
