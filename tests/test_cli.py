import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from di_toolkit import cli, nslp, simulate
from di_toolkit.boxes import Alphabets, Game, InputDistribution, chsh_game


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def schema(name):
    path = resources.files("di_toolkit") / "schemas" / f"{name}.json"
    return json.loads(path.read_text())


@pytest.fixture
def chsh_file(tmp_path):
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(chsh_game().to_json_dict()))
    return str(path)


class TestBasics:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ns-value", "--nope"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_exit_one(self, capsys):
        code, _ = run_cli(["ns-value", "--game", "/nonexistent.json"], capsys)
        assert code == 1

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "di_toolkit.cli", "entropy-curve",
             "--points", "3"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("omega,")


TOP_LEVEL_HELP = """\
usage: di-toolkit [-h]
                  {entropy-curve,mu-opt,rate-curve,ns-value,threshold-bound,definetti-verify,sig-test,simulate}
                  ...

non-signalling boxes, de Finetti reductions, and finite-size device-
independent key rates

positional arguments:
  {entropy-curve,mu-opt,rate-curve,ns-value,threshold-bound,definetti-verify,sig-test,simulate}
    entropy-curve       secrecy bounds vs winning probability (CSV)
    mu-opt              optimized finite-size entropy rate
    rate-curve          optimized key-rate sweep
    ns-value            optimal non-signalling winning probability of a game
    threshold-bound     non-signalling threshold theorem bound
    definetti-verify    exact reduction check on random symmetrized boxes
    sig-test            signalling tests on observed data
    simulate            honest-device abort probability

options:
  -h, --help            show this help message and exit
"""


NS_VALUE_HELP = """\
usage: di-toolkit ns-value [-h] [--config CONFIG] [--format {json,csv}]
                           [--out OUT] --game GAME

options:
  -h, --help           show this help message and exit
  --config CONFIG      JSON file whose keys mirror the flags; explicit flags
                       win
  --format {json,csv}
  --out OUT
  --game GAME
"""

NS_VALUE_NO_GAME = """\
usage: di-toolkit ns-value [-h] [--config CONFIG] [--format {json,csv}]
                           [--out OUT] --game GAME
di-toolkit ns-value: error: the following arguments are required: --game
"""


class TestOneSubcommandParser:
    """main parses every command line with build_parser's one parser: its
    help and usage errors, byte for byte, and the exit code of each kind
    of command line."""

    @staticmethod
    def exit_code(argv):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:
            return exc.code

    def test_top_level_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == TOP_LEVEL_HELP

    def test_subcommand_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert self.exit_code(["ns-value", "--help"]) == 0
        assert capsys.readouterr() == (NS_VALUE_HELP, "")

    def test_subcommand_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert self.exit_code(["ns-value"]) == 2
        assert capsys.readouterr() == ("", NS_VALUE_NO_GAME)

    # exit code of each subcommand's required flags alone: ns-value,
    # threshold-bound and sig-test name files that are not there, and
    # simulate's --delta-est 0 is refused
    REQUIRED_FLAGS_EXIT = {"entropy-curve": 0, "mu-opt": 0, "rate-curve": 0,
                           "ns-value": 1, "threshold-bound": 1,
                           "definetti-verify": 0, "sig-test": 1,
                           "simulate": 1}

    def test_command_line_exit_codes(self, tmp_path, monkeypatch, capsys):
        """Top-level lines, and each subcommand's required flags alone and
        with output flags, a config file that is not there, stray,
        unknown or missing arguments and help: usage errors exit 2, help
        0, an error in the computation or its files 1."""
        monkeypatch.chdir(tmp_path)
        for argv, code in [([], 2), (["--help"], 0), (["-h"], 0),
                           (["frobnicate"], 2),
                           (["frobnicate", "--game", "g.json"], 2),
                           (["--format", "csv"], 2),
                           (["--config", "c.json"], 2)]:
            assert self.exit_code(argv) == code, argv
        for valid, _ in TestConfigAndOut.DEFAULT_FORMATS:
            name = valid[0]
            ran = self.REQUIRED_FLAGS_EXIT[name]
            for argv, code in [
                    (valid, ran),
                    (valid + ["--format", "csv", "--out", "o.json"], ran),
                    (valid + ["--config", "c.json"], 1),
                    (valid + ["extra"], 2), (valid + ["--nope"], 2),
                    (valid + ["--", "x"], 2), ([name, "--help"], 0),
                    ([name, "-h", "--nope"], 0),
                    ([name], ran if valid == [name] else 2),
                    ([name, "--config"], 2), ([name, "--format", "xml"], 2)]:
                assert self.exit_code(argv) == code, argv

    def test_parser_built_once(self, monkeypatch, capsys):
        """Two main calls build the parser once: one subcommand parser for
        each of the eight subcommands, in the order of the top-level
        help."""
        built, make = [], cli._subcommand_parser

        def counting(**kw):
            built.append(kw["prog"])
            return make(**kw)

        monkeypatch.setattr(cli, "_subcommand_parser", counting)
        cli.build_parser.cache_clear()
        try:
            for points in ("3", "4"):
                code, out = run_cli(["entropy-curve", "--points", points],
                                    capsys)
                assert code == 0 and len(out.splitlines()) == 1 + int(points)
        finally:
            cli.build_parser.cache_clear()
        assert built == [f"di-toolkit {name}"
                         for name in self.REQUIRED_FLAGS_EXIT]


class TestGameCommands:
    def test_ns_value_chsh(self, chsh_file, capsys):
        code, out = run_cli(["ns-value", "--game", chsh_file], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("out_ns_value"))
        assert payload["value"] == pytest.approx(1.0, abs=1e-9)
        assert payload["d"] == 16
        assert '"kappa": 0.0' in out  # +0.0: no binding signalling row

    def test_ns_value_one_solve(self, chsh_file, capsys, monkeypatch):
        """One solve gives the value and, continued, the least kappa."""
        programs = []
        solve = nslp.solve

        def counting(lp):
            programs.append(lp)
            return solve(lp)

        monkeypatch.setattr(nslp, "solve", counting)
        code, _ = run_cli(["ns-value", "--game", chsh_file], capsys)
        assert code == 0
        assert len(programs) == 1

    def test_ns_value_continuation_leaves_optimum(self, tmp_path, capsys,
                                                  monkeypatch):
        """Alice guessing Bob's input is worth 1/2 with kappa 4.  Priced
        over every feasible point, not the value's optimal face, the least
        kappa is 0 at value 1: the continuation leaves the optimum, and
        that is an error, not a smaller kappa."""
        win = np.zeros((2, 2, 2, 2), dtype=bool)
        for a in range(2):
            win[a, :, :, a] = True  # a == y
        game = Game(Alphabets(2, 2, 2, 2),
                    InputDistribution(np.full((2, 2), 0.25)), win)
        path = tmp_path / "guess.json"
        path.write_text(json.dumps(game.to_json_dict()))
        code, out = run_cli(["ns-value", "--game", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["value"], payload["kappa"]) == (0.5, 4.0)

        monkeypatch.setattr(nslp, "_onto_face", nslp._price)
        with pytest.raises(nslp.SolverError,
                           match="continuation leaves the optimum by 0.5"):
            nslp.ns_value(game)
        code = cli.main(["ns-value", "--game", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_ns_value_value_program_not_optimal(self, chsh_file, capsys,
                                                monkeypatch):
        """The program not solved to optimality is an error, after one
        solve."""
        programs = []

        def failing(lp):
            programs.append(lp)
            return nslp.LPSolution(status="unbounded", basis=np.zeros(0),
                                   pivots=(0, 0))

        monkeypatch.setattr(nslp, "solve", failing)
        code = cli.main(["ns-value", "--game", chsh_file])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: non-signalling program: unbounded\n"
        assert len(programs) == 1

    def test_ns_value_incomplete_support(self, tmp_path, capsys):
        """A question distribution with a zero entry is an error line and
        exit 1, not a division by zero in the signalling matrix."""
        payload = chsh_game().to_json_dict()
        payload["q"] = [[0.5, 0.0], [0.25, 0.25]]
        path = tmp_path / "game.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["ns-value", "--game", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: game must have complete support\n"

    @pytest.mark.parametrize("bad", [0.5, 2])
    def test_ns_value_win_outside_zero_one(self, tmp_path, capsys, bad):
        # once read as a win, and a value printed
        payload = chsh_game().to_json_dict()
        payload["win"][1][1][0][0] = bad
        path = tmp_path / "game.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["ns-value", "--game", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: win entries must be 0 or 1\n"

    def test_ns_value_won_outright(self, tmp_path, capsys, monkeypatch):
        """Answers that agree win every question but (1, 1), which no answer
        wins: a = b = 0 wins the rest, so the value is the trivial bound
        0.75 and kappa 0.0, with no program solved."""
        def fail(lp):
            raise AssertionError("solve called")

        monkeypatch.setattr(nslp, "solve", fail)
        payload = chsh_game().to_json_dict()
        payload["win"] = [[[[int(a == b and (x, y) != (1, 1))
                             for y in range(2)] for x in range(2)]
                           for b in range(2)] for a in range(2)]
        path = tmp_path / "game.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(["ns-value", "--game", str(path)], capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), schema("out_ns_value"))
        assert json.loads(out) == {"value": 0.75, "d": 16, "kappa": 0.0}
        assert '"kappa": 0.0' in out

    @pytest.mark.parametrize("field, value, message", [
        ("q", [["0.25"] * 2] * 2, "q entries must be numbers"),
        ("q", [[True] * 2] * 2, "q entries must be numbers"),
        ("q", [[0.25, 0.25], [0.25, True]], "q entries must be numbers"),
        # Python's json reads NaN
        ("q", [[float("nan"), 0.25], [0.25, 0.25]],
         "q entries must be numbers"),
        ("win", [[[[True] * 2] * 2] * 2] * 2, "win entries must be 0 or 1"),
        # CHSH's table with one 1 written as true
        ("win", [[[[True, 1], [1, 0]], [[0, 0], [0, 1]]],
                 [[[0, 0], [0, 1]], [[1, 1], [1, 0]]]],
         "win entries must be 0 or 1"),
        ("a_size", True, "a_size must be an integer"),
        ("a_size", 2.5, "a_size must be an integer"),
        ("a_size", "2", "a_size must be an integer")],
        ids=["q-strings", "q-booleans", "q-one-boolean", "q-nan",
             "win-booleans",
             "win-one-boolean", "a-size-true", "a-size-float",
             "a-size-string"])
    def test_ns_value_entry_of_wrong_type(self, tmp_path, capsys, field,
                                          value, message):
        # each was once converted, and a value printed (a float size ended
        # in a TypeError from numpy instead; a q with one true failed as
        # "input distribution must sum to 1", and one NaN as "game must
        # have complete support")
        payload = chsh_game().to_json_dict()
        payload[field] = value
        path = tmp_path / "game.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["ns-value", "--game", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {message}\n"

    def test_integral_float_sizes_accepted(self, tmp_path, capsys):
        """The schema types the sizes ``integer``, which 2.0 meets: such a
        file passes the schema and gives the bytes of the file with 2."""
        outs = []
        for size in (2, 2.0):
            payload = chsh_game().to_json_dict()
            payload.update(a_size=size, x_size=float(size))
            jsonschema.validate(payload, schema("game"))
            path = tmp_path / f"game-{size!r}.json"
            path.write_text(json.dumps(payload))
            code, out = run_cli(["ns-value", "--game", str(path)], capsys)
            assert code == 0
            outs.append(out)
        assert '"a_size": 2.0' in (tmp_path / "game-2.0.json").read_text()
        assert outs[0] == outs[1]

    def test_threshold_bound(self, chsh_file, capsys):
        code, out = run_cli(["threshold-bound", "--game", chsh_file,
                             "--n", "30000000000", "--beta", "0.25"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("out_threshold_bound"))
        assert 0 <= payload["bound"] < 1
        assert payload["log10_bound"] < -100

    def test_threshold_bound_nan_q_named(self, tmp_path, capsys):
        # a q entry NaN (which Python's json reads) once passed the checks,
        # and the answer was a precondition error
        payload = chsh_game().to_json_dict()
        payload["q"][0][0] = float("nan")
        path = tmp_path / "game.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["threshold-bound", "--game", str(path), "--n",
                         "1000", "--beta", "0.25"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: q entries must be numbers\n"

    def test_threshold_bound_small_n(self, chsh_file, capsys):
        code, out = run_cli(["threshold-bound", "--game", chsh_file,
                             "--n", "100", "--beta", "0.25"], capsys)
        assert code == 1
        assert "required_n" in out

    @pytest.mark.parametrize("n, beta, message", [
        # the precondition's bound on n / ln(n) is inf: the search for the
        # least n once doubled past 2^1024 (OverflowError)
        ("100", "1e-155", "error: beta too small: the threshold "
         "precondition needs n beyond the float range\n"),
        # eps^2 underflows to 0: once a ZeroDivisionError
        ("100", "1e-200", "error: beta too small: the threshold "
         "precondition needs n beyond the float range\n"),
        # 401 digits: once an OverflowError converting n to float
        ("1" + "0" * 400, "0.25",
         "error: n must be within the float range\n")],
        ids=["bound-inf", "eps-squared-underflow", "n-401-digits"])
    def test_threshold_bound_past_float_range(self, chsh_file, capsys, n,
                                              beta, message):
        code = cli.main(["threshold-bound", "--game", chsh_file, "--n", n,
                         "--beta", beta])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", message)


class TestEntropyCurve:
    def test_csv_default(self, capsys):
        code, out = run_cli(["entropy-curve", "--points", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "omega,secrecy_bound,bell_diag_bound"
        assert len(lines) == 6

    def test_json_format_and_schema(self, capsys):
        code, out = run_cli(["entropy-curve", "--points", "4",
                             "--format", "json"], capsys)
        payload = json.loads(out)
        jsonschema.validate(payload, schema("out_entropy_curve"))

    def test_endpoint_values(self, capsys):
        _, out = run_cli(["entropy-curve", "--from", "0.75", "--to",
                          "0.853553", "--points", "2"], capsys)
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("bounds", [["--from", "nan"], ["--to", "nan"],
                                        ["--from", "inf"], ["--to=-inf"]])
    def test_non_finite_bounds_rejected(self, bounds, capsys):
        # --from nan once exited 0 with NaN in its JSON, which is not JSON
        code = cli.main(["entropy-curve", "--format", "json"] + bounds)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: --from and --to must be finite\n"

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_no_points_rejected(self, points, capsys):
        # an empty curve with exit 0 would look like a successful run
        code = cli.main(["entropy-curve", "--points", points])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestMuOpt:
    def test_reference_point(self, capsys):
        code, out = run_cli([
            "mu-opt", "--n", "1e8", "--gamma", "1", "--omega-exp",
            "0.820736", "--delta-est", "1e-3", "--eps-s", "1e-6",
            "--eps-e", "1e-6"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("out_mu_opt"))
        assert payload["value"] == pytest.approx(0.502133, abs=2e-3)

    def test_block_mode(self, capsys):
        code, out = run_cli([
            "mu-opt", "--n", "1e8", "--gamma", "0.01", "--omega-exp",
            "0.84", "--delta-est", "1e-4", "--eps-s", "1e-6", "--eps-e",
            "1e-6", "--block"], capsys)
        payload = json.loads(out)
        assert payload["mode"] == "block"
        assert payload["s_max"] == 100

    # 1e-17: in block mode 1 - gamma rounds to 1, the test mass to 0, and a
    # ZeroDivisionError traceback once followed
    @pytest.mark.parametrize("gamma", ["0", "1.5", "-0.2", "1e-17"])
    @pytest.mark.parametrize("mode", [[], ["--block"]])
    def test_gamma_outside_unit_interval_rejected(self, gamma, mode,
                                                  capsys):
        code, out = run_cli([
            "mu-opt", "--n", "1e8", "--gamma", gamma, "--omega-exp", "0.84",
            "--delta-est", "1e-6", "--eps-s", "1e-6", "--eps-e", "1e-6",
            *mode], capsys)
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("n", ["inf", "nan"])
    @pytest.mark.parametrize("mode", [[], ["--block"]])
    def test_non_finite_n_rejected(self, n, mode, capsys):
        # --n inf once printed "total_entropy": Infinity, which is not JSON
        code = cli.main(["mu-opt", "--n", n, "--gamma", "0.1", "--omega-exp",
                         "0.84", "--delta-est", "1e-4", "--eps-s", "1e-6",
                         "--eps-e", "1e-6", *mode])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: round or block count must be finite\n"

    ARGS = ["mu-opt", "--n", "1e8", "--gamma", "0.1", "--omega-exp", "0.84",
            "--delta-est", "1e-4", "--eps-s", "1e-6", "--eps-e", "1e-6"]

    @pytest.mark.parametrize("s_max", ["5", "1", "0"])
    def test_s_max_needs_block(self, s_max, capsys):
        code = cli.main(self.ARGS + ["--s-max", s_max])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--s-max" in captured.err and "--block" in captured.err

    def test_block_s_max(self, capsys):
        # --s-max 0 leaves the default ceil(1/gamma) = 10
        outs = {tuple(s_max): run_cli(self.ARGS + ["--block"] + s_max,
                                      capsys)
                for s_max in ([], ["--s-max", "0"], ["--s-max", "10"],
                              ["--s-max", "5"])}
        assert {code for code, _ in outs.values()} == {0}
        default = outs[()][1]
        assert outs[("--s-max", "0")][1] == default
        assert outs[("--s-max", "10")][1] == default
        assert json.loads(default)["s_max"] == 10
        assert json.loads(outs[("--s-max", "5")][1])["s_max"] == 5


class TestSigTest:
    def test_pass_on_signalling_data(self, tmp_path, capsys, rng):
        from conftest import bob_echoes_x_box, sample_iid_data, uniform_q

        n = 2000
        xs, ys, a, b = sample_iid_data(bob_echoes_x_box(), uniform_q(), n, rng)
        path = tmp_path / "data.json"
        path.write_text(json.dumps({
            "n": n, "a_size": 2, "b_size": 2, "x_size": 2, "y_size": 2,
            "a": a.tolist(), "b": b.tolist(),
            "x": xs.tolist(), "y": ys.tolist()}))
        code, out = run_cli(["sig-test", "--data", str(path),
                             "--zeta", "0.06", "--eps", "0.008"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("out_sig_test"))
        assert payload["any_pass"] is True

    @pytest.mark.parametrize("zeta", ["nan", "inf", "1e400"])
    def test_non_finite_zeta_rejected(self, tmp_path, capsys, zeta):
        # inf once died in an OverflowError from Fraction, and nan exited
        # with "cannot convert NaN to integer ratio", naming no flag
        path = tmp_path / "data.json"
        path.write_text(json.dumps({
            "n": 2, "a_size": 2, "b_size": 2, "x_size": 2, "y_size": 2,
            "a": [0, 1], "b": [0, 1], "x": [0, 1], "y": [1, 0]}))
        code = cli.main(["sig-test", "--data", str(path), "--zeta", zeta,
                         "--eps", "0.008"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: zeta must be finite and at least 7*eps\n"

    def test_non_integer_symbol_rejected(self, tmp_path, capsys):
        # 0.9 was once read as symbol 0
        path = tmp_path / "data.json"
        path.write_text(json.dumps({
            "n": 2, "a_size": 2, "b_size": 2, "x_size": 2, "y_size": 2,
            "a": [0.9, 1], "b": [0, 1], "x": [0, 1], "y": [1, 0]}))
        code = cli.main(["sig-test", "--data", str(path), "--zeta", "0.06",
                         "--eps", "0.008"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: non-integer entry in a\n"

    def test_integral_float_counts_accepted(self, tmp_path, capsys):
        """n and the sizes of a data file as 2.0: the schema's integers,
        and the bytes of the file with 2 (2.5 stays refused)."""
        outs = []
        for n, size in ((2, 2), (2.0, 2.0), (2.5, 2)):
            payload = {"n": n, "a_size": size, "b_size": 2, "x_size": size,
                       "y_size": 2, "a": [0, 1], "b": [0, 1], "x": [0, 1],
                       "y": [1, 0]}
            if n != 2.5:
                jsonschema.validate(payload, schema("observed_data"))
            path = tmp_path / "data.json"
            path.write_text(json.dumps(payload))
            code = cli.main(["sig-test", "--data", str(path), "--zeta",
                             "0.06", "--eps", "0.008"])
            outs.append((code, capsys.readouterr()))
        assert outs[0][1].out == outs[1][1].out != ""
        assert outs[2][0] == 1
        assert outs[2][1].err == "error: n must be an integer\n"

    @pytest.mark.parametrize("field, value, message", [
        ("b", ["1", "0"], "non-integer entry in b"),
        ("b", [True, False], "non-integer entry in b"),
        ("b", [0, True], "non-integer entry in b"),
        ("n", True, "n must be an integer")],
        ids=["b-strings", "b-booleans", "b-one-boolean", "n-true"])
    def test_entry_of_wrong_type_rejected(self, tmp_path, capsys, field,
                                          value, message):
        # each was once read as an integer (n: true with one round as 1)
        payload = {"n": 2, "a_size": 2, "b_size": 2, "x_size": 2,
                   "y_size": 2, "a": [0, 1], "b": [0, 1], "x": [0, 1],
                   "y": [1, 0]}
        if field == "n":
            payload.update(a=[0], b=[1], x=[1], y=[0])
        payload[field] = value
        path = tmp_path / "data.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["sig-test", "--data", str(path), "--zeta", "0.06",
                         "--eps", "0.008"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {message}\n"

    def test_flags_match_single_target_view(self, tmp_path, capsys, rng):
        """The CLI lists targets in all_sig_targets order, each flag equal
        to signalling_test_flags read at that target's row."""
        import numpy as np

        from conftest import (bob_echoes_x_box, random_classical_box,
                              sample_iid_data, uniform_q)
        from di_toolkit import signalling as sig
        from di_toolkit.boxes import Alphabets, ObservedData

        al = Alphabets(2, 2, 2, 2)
        params = sig.TestParams(zeta=0.06, eps=0.008, n=2000)
        for box in (bob_echoes_x_box(), random_classical_box(rng)):
            xs, ys, a, b = sample_iid_data(box, uniform_q(), params.n, rng)
            path = tmp_path / "data.json"
            path.write_text(json.dumps({
                "n": params.n, "a_size": 2, "b_size": 2, "x_size": 2,
                "y_size": 2, "a": a.tolist(), "b": b.tolist(),
                "x": xs.tolist(), "y": ys.tolist()}))
            code, out = run_cli(["sig-test", "--data", str(path),
                                 "--zeta", "0.06", "--eps", "0.008"], capsys)
            assert code == 0
            payload = json.loads(out)
            data = ObservedData(params.n, np.array(a), np.array(b),
                                np.array(xs), np.array(ys), al)
            targets = sig.all_sig_targets(al)
            assert [(t["direction"], t["x"], t["y"], t["outcome"])
                    for t in payload["targets"]] == [
                (t.direction, t.x, t.y, t.outcome) for t in targets]
            flags = sig.signalling_test_flags(data, uniform_q(), params)
            single = [bool(flags[sig.target_row(al, t)]) for t in targets]
            assert [t["pass"] for t in payload["targets"]] == single
            assert payload["any_pass"] is any(single)


class TestSimulateCommand:
    def test_output_schema_and_determinism(self, capsys):
        argv = ["simulate", "--n", "10000", "--gamma", "0.5", "--omega-exp",
                "0.81", "--delta-est", "0.02", "--trials", "100",
                "--seed", "7"]
        code, out1 = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out1)
        jsonschema.validate(payload, schema("out_simulate"))
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2

    def test_exact_abort_key(self, capsys):
        argv = ["simulate", "--n", "2000", "--gamma", "0.5", "--omega-exp",
                "0.81", "--delta-est", "0.012", "--trials", "20"]
        _, out = run_cli(argv, capsys)
        cfg = simulate.SimulationConfig(
            n=2000, gamma=0.5, omega_exp=0.81, delta_est=0.012,
            device=simulate.HonestDevice(0.81, 0.0))
        exact = simulate.exact_abort_probability(cfg)
        assert json.loads(out)["exact_abort"] == float(f"{exact:.9g}")

    @pytest.mark.parametrize("gamma", ["0", "1.5", "-0.2"])
    def test_gamma_outside_unit_interval_rejected(self, gamma, capsys):
        code, out = run_cli(["simulate", "--n", "100", "--gamma", gamma,
                             "--omega-exp", "0.81", "--delta-est", "0.02",
                             "--trials", "10"], capsys)
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("delta_est", ["-0.1", "0", "1", "1.5"])
    def test_delta_est_outside_unit_interval_rejected(self, delta_est,
                                                      capsys):
        # -0.1 once printed a hoeffding_bound of 0.135 under an
        # exact_abort of 0.978
        code = cli.main(["simulate", "--n", "100", "--gamma", "0.5",
                         "--omega-exp", "0.81", "--delta-est", delta_est,
                         "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: delta_est must be in (0,1)\n"


    @pytest.mark.parametrize("n", ["9223372036854775808",
                                   "100000000000000000000"])
    def test_n_past_binomial_range_rejected(self, n, capsys):
        # 10**20 once raised numpy's OverflowError in Generator.binomial
        code = cli.main(["simulate", "--n", n, "--gamma", "0.5",
                         "--omega-exp", "0.81", "--delta-est", "0.02",
                         "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: n must be below 2**63\n"


class TestDefinettiVerify:
    def test_holds(self, capsys):
        code, out = run_cli(["definetti-verify", "--n", "2", "--trials", "20",
                             "--seed", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("out_definetti_verify"))
        assert payload["holds"] is True
        assert payload["max_ratio"] <= payload["factor"]

    def test_violation_below_float_resolution_fails(self, monkeypatch,
                                                     capsys):
        # a ratio 1e-30 above the factor rounds to the factor as a float;
        # "holds" is decided on the exact ratio
        from fractions import Fraction
        from di_toolkit import definetti

        factor = definetti.reduction_factor(2, 4, 4)
        denom = 1009 * 2  # random_symmetrized_int_table's at n = 2
        monkeypatch.setattr(
            definetti, "verify_reduction_exact",
            lambda *args: (factor + Fraction(1, 10**30)) * denom)
        code, out = run_cli(["definetti-verify", "--n", "2", "--trials",
                             "2"], capsys)
        payload = json.loads(out)
        assert code == 1
        assert payload["holds"] is False
        assert payload["max_ratio"] == payload["factor"]

    @pytest.mark.parametrize("n", ["19", "20", "25"])
    def test_one_output_ratio_is_one_past_int64(self, n, capsys):
        # 1009 n! passes int64 from n = 19: the numerators once wrapped
        # (0.0 at n = 19, an OverflowError at n = 21)
        code, out = run_cli(["definetti-verify", "--n", n, "--a-size", "1",
                             "--b-size", "1", "--x-size", "1", "--y-size",
                             "1", "--trials", "1"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert (payload["max_ratio"], payload["holds"]) == (1.0, True)

    @pytest.mark.parametrize("trials", ["1", "3"])
    def test_type_classes_built_once(self, trials, monkeypatch, capsys):
        """The joint type classes are built once per run, whatever the
        number of trials."""
        from di_toolkit import boxes, definetti

        calls = []
        original = boxes._type_classes

        def spy(*args):
            calls.append(args)
            return original(*args)

        for module in (boxes, definetti):
            monkeypatch.setattr(module, "_type_classes", spy)
        code, _ = run_cli(["definetti-verify", "--n", "3", "--trials",
                           trials], capsys)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("flags", [["--n", "-1"], ["--n", "0"],
                                       ["--n", "2", "--trials", "0"],
                                       ["--n", "2", "--trials", "-3"],
                                       ["--n", "1", "--trials", "2",
                                        "--a-size", "1000"]])
    def test_bad_inputs_rejected(self, flags, capsys):
        # n < 1 has no round permutations to symmetrize over, and no
        # trials would report "holds" having checked nothing; at
        # --a-size 1000 the factor 2^7996 is past the float range, which
        # once raised an OverflowError traceback
        code = cli.main(["definetti-verify", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestConfigAndOut:
    def test_config_provides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10000, "gamma": 0.5,
                                   "omega-exp": 0.81, "delta-est": 0.02,
                                   "trials": 50, "seed": 7}))
        code, out = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["trials"] == 50

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10000, "gamma": 0.5,
                                   "omega-exp": 0.81, "delta-est": 0.02,
                                   "trials": 50, "seed": 7}))
        code, out = run_cli(["simulate", "--config", str(cfg),
                             "--trials", "25"], capsys)
        assert json.loads(out)["trials"] == 25

    def test_config_equals_form(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2}))
        code, out = run_cli(["definetti-verify", "--n", "2",
                             f"--config={cfg}"], capsys)
        assert code == 0
        assert json.loads(out)["trials"] == 2
        code, out = run_cli(["definetti-verify", "--n", "2",
                             f"--config={cfg}", "--trials=3"], capsys)
        assert json.loads(out)["trials"] == 3

    @pytest.mark.parametrize("content", ["[1, 2]", "3", "{not json"])
    def test_config_not_an_object(self, content, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code = cli.main(["definetti-verify", "--n", "2", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_abbreviated_flag_rejected(self, tmp_path, capsys):
        """--conf is no prefix of --config: flags are spelled in full, so
        the file is never silently ignored."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["definetti-verify", "--n", "2", "--conf", str(cfg)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --conf" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, argv, content", [
        ("game", ["ns-value", "--game"], "[1, 2]"),
        ("game", ["threshold-bound", "--n", "100", "--beta", "0.1",
                  "--game"], "[1, 2]"),
        ("data", ["sig-test", "--zeta", "0.06", "--eps", "0.008",
                  "--data"], "[1, 2]"),
        ("q", ["sig-test", "--zeta", "0.06", "--eps", "0.008", "--data",
               "DATA", "--q"], '{"a": 1}'),
    ], ids=["game-ns-value", "game-threshold-bound", "data", "q"])
    def test_wrong_top_level_json(self, kind, argv, content, tmp_path,
                                  capsys):
        """Every input file's top level is checked (an object, or an array
        for --q; test_config_not_an_object covers --config): a file of the
        wrong shape is an error line and exit 1."""
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "n": 4, "a_size": 2, "b_size": 2, "x_size": 2, "y_size": 2,
            "a": [0] * 4, "b": [0] * 4, "x": [0, 0, 1, 1], "y": [0, 1] * 2}))
        path = tmp_path / f"{kind}.json"
        path.write_text(content)
        argv = [str(data) if a == "DATA" else a for a in argv] + [str(path)]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: top level must be")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, name, content", [
        (["ns-value", "--game"], "game.json",
         {"a_size": [2], "b_size": 2, "x_size": 2, "y_size": 2,
          "q": [[0.25, 0.25], [0.25, 0.25]], "win": 0}),
        (["sig-test", "--zeta", "0.06", "--eps", "0.008", "--data"],
         "data.json", {"n": 2, "a_size": 2, "b_size": 2, "x_size": 2,
                       "y_size": 2, "a": [0, None], "b": [0, 1],
                       "x": [0, 1], "y": [0, 1]}),
    ], ids=["game-alphabet-list", "data-null-outcome"])
    def test_wrong_element_type(self, argv, name, content, tmp_path, capsys):
        """A file of the right top-level shape with an element of the
        wrong type is an error line and exit 1, not a traceback."""
        path = tmp_path / name
        path.write_text(json.dumps(content))
        code = cli.main(argv + [str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, out = run_cli(["entropy-curve", "--points", "3", "--out",
                             str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("omega,")

    # each subcommand with its required flags, and its default --format
    DEFAULT_FORMATS = [
        (["entropy-curve"], "csv"),
        (["mu-opt", "--n", "1", "--gamma", "1", "--omega-exp", "0.8",
          "--delta-est", "0", "--eps-s", "0.1", "--eps-e", "0.1"], "json"),
        (["rate-curve", "--axis", "q", "--grid", "0.01"], "csv"),
        (["ns-value", "--game", "g.json"], "json"),
        (["threshold-bound", "--game", "g.json", "--n", "1", "--beta", "0"],
         "json"),
        (["definetti-verify", "--n", "1"], "json"),
        (["sig-test", "--data", "d.json", "--zeta", "0", "--eps", "0"],
         "json"),
        (["simulate", "--n", "1", "--gamma", "1", "--omega-exp", "0.8",
          "--delta-est", "0"], "json"),
    ]

    def test_default_format_per_subcommand(self):
        parser = cli.build_parser()
        commands = parser._subparsers._group_actions[0].choices
        assert sorted(commands) == sorted(a[0] for a, _ in
                                          self.DEFAULT_FORMATS)
        for argv, fmt in self.DEFAULT_FORMATS:
            args = parser.parse_args(argv)
            assert (args.format, args.out) == (fmt, None), argv[0]
            for other in ("json", "csv"):
                args = parser.parse_args(argv + ["--format", other])
                assert args.format == other

    def test_out_format_shorthand(self, capsys):
        base = ["entropy-curve", "--points", "3"]
        _, out = run_cli(base + ["--out", "json"], capsys)
        assert len(json.loads(out)["points"]) == 3
        _, out = run_cli(base + ["--format", "json", "--out", "csv"], capsys)
        assert out.startswith("omega,")
        _, out = run_cli(["mu-opt", "--n", "1e8", "--gamma", "1",
                          "--omega-exp", "0.820736", "--delta-est", "1e-3",
                          "--eps-s", "1e-6", "--eps-e", "1e-6", "--out",
                          "json"], capsys)
        assert json.loads(out)["mode"] == "per-round"

    def test_nine_significant_digits(self, capsys):
        _, out = run_cli(["mu-opt", "--n", "1e8", "--gamma", "1",
                          "--omega-exp", "0.820736", "--delta-est", "1e-3",
                          "--eps-s", "1e-6", "--eps-e", "1e-6"], capsys)
        value = json.loads(out)["value"]
        assert value == float(f"{value:.9g}")


class TestRateCurveCommand:
    def test_csv_columns(self, capsys):
        code, out = run_cli([
            "rate-curve", "--mode", "block", "--axis", "n",
            "--grid", "1e8", "--q", "0.02", "--eps-ec", "1e-10",
            "--soundness", "1e-5", "--completeness", "1e-2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:7] == ["axis_value", "rate", "rate_clamped",
                              "key_length", "gamma", "delta_est", "cut"]
        assert len(lines) == 2

    @pytest.mark.parametrize("mode", ["block", "per-round"])
    def test_csv_s_max_is_json_s_max(self, mode, capsys):
        """The CSV's last column is the block length cap each rate was
        found at, the JSON report's s_max (1 per round)."""
        argv = ["rate-curve", "--mode", mode, "--axis", "n", "--grid",
                "1e8,1e9", "--q", "0.02"]
        _, out = run_cli(argv, capsys)
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert header == [
            "axis_value", "rate", "rate_clamped", "key_length", "gamma",
            "delta_est", "cut", "entropy_term", "leak_ec", "log_correction",
            "max_entropy_term", "pa_term", "s_max"]
        _, out = run_cli(argv + ["--format", "json"], capsys)
        s_max = [point["s_max"] for point in json.loads(out)["points"]]
        assert [int(row[-1]) for row in rows] == s_max
        assert (s_max == [1, 1]) == (mode == "per-round")

    def test_json_schema(self, capsys):
        code, out = run_cli([
            "rate-curve", "--mode", "per-round", "--axis", "q",
            "--grid", "0.01", "--n", "1e8", "--format", "json"], capsys)
        payload = json.loads(out)
        jsonschema.validate(payload, schema("out_rate_curve"))

    @pytest.mark.parametrize("flags", [
        ["--axis", "q", "--grid", "0.01", "--n", "inf"],
        ["--axis", "q", "--grid", "0.01", "--n", "nan"],
        ["--axis", "n", "--grid", "inf", "--q", "0.01"]])
    def test_non_finite_n_rejected(self, flags, capsys):
        # --n inf once died in a ZeroDivisionError traceback
        code = cli.main(["rate-curve", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: n must be finite\n"

    @pytest.mark.parametrize("flags", [
        ["--axis", "q", "--grid", "0.01", "--n", "0"],
        ["--axis", "q", "--grid", "0.01", "--n", "-5"],
        ["--axis", "q", "--grid", "0.01", "--n", "0.5"],
        ["--mode", "per-round", "--axis", "q", "--grid", "0.01", "--n", "0"],
        ["--axis", "n", "--grid", "1e8,0", "--q", "0.01"]])
    def test_n_below_one_rejected(self, flags, capsys):
        # --n 0 once died in a ZeroDivisionError traceback, --n -5 printed
        # a math domain error and --n 0.5 found no feasible point
        code = cli.main(["rate-curve", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: n must be >= 1\n"

    @pytest.mark.parametrize("value", ["0", "-1e-3", "nan"])
    def test_eps_ec_not_positive_rejected(self, value, capsys):
        # once "error: no feasible parameter point under the caps", which
        # did not name the flag
        code = cli.main(["rate-curve", "--axis", "q", "--grid", "0.01",
                         f"--eps-ec={value}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: eps_ec must be > 0\n"

    @pytest.mark.parametrize("flag, message", [
        ("--soundness=nan", "soundness cap must exceed 2*eps_ec"),
        ("--completeness=nan", "completeness cap must exceed 2*eps_ec")])
    def test_nan_cap_rejected(self, flag, message, capsys):
        # once "no feasible parameter point under the caps" and "cannot
        # convert float NaN to integer", neither naming the cap
        code = cli.main(["rate-curve", "--axis", "q", "--grid", "0.01", flag])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_soundness_cap_above_one_rejected(self, capsys):
        # once exit 0 with a report at soundness error 2 and eps_s near 1
        code = cli.main(["rate-curve", "--axis", "q", "--grid", "0.005",
                         "--soundness", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: soundness cap must be below 1\n"

    @pytest.mark.parametrize("value", ["0.6", "-0.1", "nan"])
    def test_bad_qber_rejected(self, value, capsys):
        # once "error: nu must be in [0,1]", a name the user never set
        code = cli.main(["rate-curve", "--axis", "q", f"--grid={value}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: q must be in [0, 1/2]\n"
