"""Command-line front end: every computation, machine-readable output.

Numeric output is rounded to 9 significant digits; JSON uses plain doubles,
CSV uses '.' decimals regardless of locale.  Exit codes: 0 success, 2 usage
error, 1 computation error.  Every command line, help and usage errors too,
goes through build_parser's one parser, built on the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import definetti, eat, entropy, keyrates, nslp, signalling, simulate
from .boxes import Alphabets, Game, InputDistribution, ObservedData


def _round_sig(value):
    if isinstance(value, float):
        if math.isfinite(value):
            return float(f"{value:.9g}")
        return value
    if isinstance(value, dict):
        return {k: _round_sig(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_sig(v) for v in value]
    return value


def _load_json(path: str, kind: type):
    """The JSON in file ``path``, whose top level must be a ``kind``: dict
    (an object) or list (an array)."""
    with open(path) as fh:
        value = json.load(fh)
    if not isinstance(value, kind):
        raise ValueError(f"{path}: top level must be a JSON "
                         + ("object" if kind is dict else "array"))
    return value


def csv_text(header, rows) -> str:
    """CSV with floats at 9 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.9g}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def rate_curve_table(grid, reports) -> tuple:
    """(header, rows) of a rate-curve CSV: one row per grid value and its
    RateReport."""
    header = ["axis_value", "rate", "rate_clamped", "key_length", "gamma",
              "delta_est", "cut", "entropy_term", "leak_ec", "log_correction",
              "max_entropy_term", "pa_term", "s_max"]
    rows = [(value, rep.rate, max(rep.rate, 0.0), rep.key_length,
             rep.params.gamma, rep.params.delta_est, rep.best_cut,
             rep.entropy_term, rep.leak_ec, rep.log_correction,
             rep.max_entropy_term, rep.pa_term, rep.s_max)
            for value, rep in zip(grid, reports)]
    return header, rows


def _emit(args, payload, csv_rows=None, csv_header=None):
    if args.format == "csv" and csv_rows is not None:
        text = csv_text(csv_header, csv_rows)
    else:
        text = json.dumps(_round_sig(payload), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_entropy_curve(args):
    lo, hi, k = args.start, args.stop, args.points
    if k < 1:
        raise ValueError("--points must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("--from and --to must be finite")
    rows = []
    for i in range(k):
        w = lo + (hi - lo) * i / (k - 1) if k > 1 else lo
        w_clamped = min(max(w, entropy.OMEGA_CLASSICAL), entropy.OMEGA_QUANTUM)
        rows.append((w, entropy.secrecy_bound(w),
                     entropy.bell_diag_bound(w_clamped)))
    payload = {"points": [{"omega": a, "secrecy_bound": b, "bell_diag_bound": c}
                          for a, b, c in rows]}
    _emit(args, payload, csv_rows=rows,
          csv_header=["omega", "secrecy_bound", "bell_diag_bound"])


def _cmd_mu_opt(args):
    if args.s_max is not None and not args.block:
        raise ValueError("--s-max sets the block length and needs --block")
    eps = eat.EatEpsilons(args.eps_s, args.eps_e)
    # the per-round rate is the block rate of one-round blocks
    s_max = (args.s_max or eat.default_s_max(args.gamma)) if args.block else 1
    block = eat.BlockSpec(args.gamma, s_max)
    sbar = eat.expected_block_length(block)
    m = args.n / sbar
    value, cut = eat.mu_block_opt(args.omega_exp, args.delta_est, block, m,
                                  eps)
    p1 = eat._statistic(args.omega_exp, block.test_mass, args.delta_est)
    f = eat.f_min_block(p1, block, cut)
    payload = {"mode": "block" if args.block else "per-round", "value": value,
               "best_cut": cut, "f_min": f, "second_order": f - value}
    if args.block:
        payload.update(s_max=s_max, expected_block_length=sbar, blocks=m)
    payload["total_entropy"] = m * value
    _emit(args, payload)


def _cmd_rate_curve(args):
    caps = keyrates.RateCaps(soundness=args.soundness,
                             completeness=args.completeness,
                             eps_ec=args.eps_ec)
    grid = [float(v) for v in args.grid.split(",")]
    fixed = {"q": args.q, "n": args.n}
    reports = keyrates.rate_curve(args.axis, grid, fixed, caps, mode=args.mode)
    payload_pts = []
    for value, rep in zip(grid, reports):
        d = rep.to_json_dict()
        d["axis_value"] = value
        payload_pts.append(d)
    header, rows = rate_curve_table(grid, reports)
    _emit(args, {"axis": args.axis, "points": payload_pts}, csv_rows=rows,
          csv_header=header)


def _cmd_ns_value(args):
    game = Game.from_json_dict(_load_json(args.game, dict))
    value, kappa = nslp.ns_value(game)
    payload = {
        "value": value,
        "d": game.alphabets.num_signalling_constraints,
        "kappa": kappa,
    }
    _emit(args, payload)


def _cmd_threshold_bound(args):
    game = Game.from_json_dict(_load_json(args.game, dict))
    try:
        bound = signalling.threshold_bound(game, args.n, args.beta)
    except signalling.ThresholdPreconditionError as exc:
        _emit(args, {"error": "precondition", "required_n": exc.required_n})
        raise SystemExit(1)
    d = game.alphabets.num_signalling_constraints
    # the bound routinely underflows double precision; report its log too
    log10_bound = (signalling._log_threshold_bound(args.n, args.beta, d)
                   / math.log(10.0) if args.beta > 0 else 0.0)
    payload = {
        "bound": bound,
        "log10_bound": log10_bound,
        "n": args.n,
        "beta": args.beta,
        "d": d,
    }
    _emit(args, payload)


def _cmd_definetti_verify(args):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    al = Alphabets(args.a_size, args.b_size, args.x_size, args.y_size)
    rng = np.random.default_rng(args.seed)
    tau = definetti.tau_classes(args.n, al)
    factor = definetti.reduction_factor(
        args.n, al.x_size * al.y_size, al.a_size * al.b_size)
    if factor > sys.float_info.max:
        raise ValueError("the reduction factor (n+1)^(|X||Y|(|A||B|-1)) is "
                         "beyond the float range")
    # exact, so that rounding cannot hide a violation
    worst = Fraction(0)
    for _ in range(args.trials):
        nums, denom = definetti.random_symmetrized_int_table(tau, rng)
        ratio = definetti.verify_reduction_exact(nums, tau) / denom
        worst = max(worst, ratio)
    payload = {
        "n": args.n, "trials": args.trials, "max_ratio": float(worst),
        "factor": float(factor), "holds": worst <= factor,
    }
    _emit(args, payload)
    if not payload["holds"]:
        raise SystemExit(1)


def _cmd_sig_test(args):
    d = _load_json(args.data, dict)
    al = Alphabets.from_json_dict(d)
    data = ObservedData(d["n"], d["a"], d["b"], d["x"], d["y"], al)
    if args.q:
        q = InputDistribution(_load_json(args.q, list))
    else:
        q = InputDistribution(np.full((al.x_size, al.y_size),
                                      1.0 / (al.x_size * al.y_size)))
    params = signalling.TestParams(zeta=args.zeta, eps=args.eps, n=data.n)
    flags = signalling.signalling_test_flags(data, q, params)
    results = []
    for target in signalling.all_sig_targets(al):
        results.append({
            "direction": target.direction, "x": target.x, "y": target.y,
            "outcome": target.outcome,
            "pass": bool(flags[signalling.target_row(al, target)]),
        })
    _emit(args, {"zeta": args.zeta, "eps": args.eps,
                 "any_pass": bool(flags.any()), "targets": results})


def _cmd_simulate(args):
    device = simulate.HonestDevice(omega_exp=args.omega_exp, q=args.qber)
    cfg = simulate.SimulationConfig(n=args.n, gamma=args.gamma,
                                    omega_exp=args.omega_exp,
                                    delta_est=args.delta_est, device=device)
    freq, ci = simulate.estimate_abort_probability(cfg, args.trials, args.seed)
    payload = {
        "abort_freq": freq,
        "ci": list(ci),
        "hoeffding_bound": eat.hoeffding(args.n, args.delta_est),
        "exact_abort": simulate.exact_abort_probability(cfg),
        "trials": args.trials,
        "seed": args.seed,
    }
    _emit(args, payload)


def _subcommand_parser(**kw) -> argparse.ArgumentParser:
    """build_parser's parser class for each subcommand: the flags all of
    them take, in a parser of its own, so set_defaults changes only it."""
    p = argparse.ArgumentParser(allow_abbrev=False, **kw)
    p.add_argument("--config", help="JSON file whose keys mirror the flags; "
                                    "explicit flags win")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every subcommand's, built on the first
    call and shared by later ones (parsing leaves it as it was): callers
    must not change it."""
    parser = argparse.ArgumentParser(
        prog="di-toolkit", allow_abbrev=False,
        description="non-signalling boxes, de Finetti reductions, and "
                    "finite-size device-independent key rates")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_subcommand_parser)

    p = sub.add_parser("entropy-curve", help="secrecy bounds vs winning "
                                             "probability (CSV)")
    p.add_argument("--from", dest="start", type=float, default=0.75)
    p.add_argument("--to", dest="stop", type=float,
                   default=entropy.OMEGA_QUANTUM)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=_cmd_entropy_curve, format="csv")

    p = sub.add_parser("mu-opt", help="optimized finite-size entropy rate")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--omega-exp", dest="omega_exp", type=float, required=True)
    p.add_argument("--delta-est", dest="delta_est", type=float, required=True)
    p.add_argument("--eps-s", dest="eps_s", type=float, required=True)
    p.add_argument("--eps-e", dest="eps_e", type=float, required=True)
    p.add_argument("--block", action="store_true")
    p.add_argument("--s-max", dest="s_max", type=int, default=None,
                   help="block length cap (block mode; 0 or unset: "
                        "ceil(1/gamma))")
    p.set_defaults(func=_cmd_mu_opt)

    p = sub.add_parser("rate-curve", help="optimized key-rate sweep")
    p.add_argument("--mode", choices=[keyrates.PER_ROUND, keyrates.BLOCK],
                   default=keyrates.BLOCK)
    p.add_argument("--axis", choices=["q", "n"], required=True)
    p.add_argument("--grid", required=True,
                   help="comma-separated axis values")
    p.add_argument("--q", type=float, default=0.0,
                   help="QBER when sweeping n")
    p.add_argument("--n", type=float, default=1e10,
                   help="(expected) rounds when sweeping q")
    p.add_argument("--eps-ec", dest="eps_ec", type=float, default=1e-10)
    p.add_argument("--soundness", type=float, default=1e-5)
    p.add_argument("--completeness", type=float, default=1e-2)
    p.set_defaults(func=_cmd_rate_curve, format="csv")

    p = sub.add_parser("ns-value", help="optimal non-signalling winning "
                                        "probability of a game")
    p.add_argument("--game", required=True)
    p.set_defaults(func=_cmd_ns_value)

    p = sub.add_parser("threshold-bound", help="non-signalling threshold "
                                               "theorem bound")
    p.add_argument("--game", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=_cmd_threshold_bound)

    p = sub.add_parser("definetti-verify", help="exact reduction check on "
                                                "random symmetrized boxes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a-size", dest="a_size", type=int, default=2)
    p.add_argument("--b-size", dest="b_size", type=int, default=2)
    p.add_argument("--x-size", dest="x_size", type=int, default=2)
    p.add_argument("--y-size", dest="y_size", type=int, default=2)
    p.set_defaults(func=_cmd_definetti_verify)

    p = sub.add_parser("sig-test", help="signalling tests on observed data")
    p.add_argument("--data", required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--q", help="JSON file with the input distribution "
                               "(default uniform)")
    p.set_defaults(func=_cmd_sig_test)

    p = sub.add_parser("simulate", help="honest-device abort probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--omega-exp", dest="omega_exp", type=float, required=True)
    p.add_argument("--delta-est", dest="delta_est", type=float, required=True)
    p.add_argument("--qber", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)
    return parser


def _inject_config(argv: list) -> list:
    """Expand --config PATH (or --config=PATH) into flags placed before the
    explicit ones, so the command line still wins on conflicts."""
    for i, arg in enumerate(argv):
        if arg.startswith("--config="):
            path = arg[len("--config="):]
            break
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
    else:
        return argv  # no config, or let argparse report the missing value
    values = _load_json(path, dict)
    injected = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if flag in argv:
            continue
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected.extend([flag, str(value)])
    return argv[:1] + injected + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-"):
        try:
            argv = _inject_config(argv)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    args = build_parser().parse_args(argv)
    # allow the documented `--out csv` / `--out json` shorthand for --format
    if args.out in ("csv", "json"):
        args.format = args.out
        args.out = None
    try:
        args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, TypeError, OSError, KeyError,
            nslp.SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
