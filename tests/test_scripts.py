import glob
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from di_toolkit import eat, simulate as sim
from di_toolkit.entropy import OMEGA_QUANTUM

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RATE_CURVE_HEADER = (
    "axis_value,rate,rate_clamped,key_length,gamma,delta_est,cut,"
    "entropy_term,leak_ec,log_correction,max_entropy_term,pa_term,s_max\n")


def run_script(name, *args):
    """Run scripts/<name>.py against this checkout's package; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", f"{name}.py"), *args],
        env=env, capture_output=True, text=True, timeout=120,
        check=True).stdout


def test_key_rate_curves_quick_creates_out_dir(tmp_path):
    out_dir = tmp_path / "new"
    run_script("key_rate_curves", "--quick", "--out-dir", str(out_dir))
    names = sorted(os.listdir(out_dir))
    assert names == ["rate_vs_qber_n1e+07.csv", "rate_vs_qber_n1e+08.csv",
                     "rate_vs_rounds_q0.005.csv"]
    for name in names:
        with open(out_dir / name) as fh:
            assert fh.readline() == RATE_CURVE_HEADER


def test_entropy_rate_curves_match_library():
    blocks = run_script("entropy_rate_curves").split("\n\n")
    assert blocks[-1] == ""
    blocks = blocks[:-1]
    assert len(blocks) == 7
    for text in blocks:
        title, header, *rows = text.splitlines()
        params = dict(kv.split("=") for kv in title[2:].split())
        n, e, delta = (float(params[k]) for k in ("n", "eps", "delta_est"))
        assert header == "omega_exp,mu_opt,best_cut"
        assert len(rows) == 50
        lo, hi = 0.75 + delta + 1e-6, OMEGA_QUANTUM
        for i, row in enumerate(rows):
            omega = lo + (hi - lo) * i / 49
            value, cut = eat.mu_opt(omega, delta, 1.0, n,
                                    eat.EatEpsilons(e, e))
            assert row == f"{omega:.9g},{value:.9g},{cut:.9g}"


def test_exact_abort_against_rational_sum():
    n, gamma, omega, delta = 200, 0.5, 0.81, 0.03
    cfg = sim.SimulationConfig(n=n, gamma=gamma, omega_exp=omega,
                               delta_est=delta,
                               device=sim.HonestDevice(omega, 0.01))
    p = Fraction(gamma * omega)
    want = sum(math.comb(n, k) * p**k * (1 - p)**(n - k) for k in range(n + 1)
               if k < (omega * gamma - delta) * n)
    assert sim.exact_abort_probability(cfg) == pytest.approx(float(want),
                                                             rel=1e-12)


@pytest.mark.parametrize("n, delta, trials, seed",
                         [(2000, 0.012, 400, 7), (10**4, 0.008, 300, 11)])
def test_wilson_interval_covers_exact_abort(n, delta, trials, seed):
    cfg = sim.SimulationConfig(n=n, gamma=0.5, omega_exp=0.81,
                               delta_est=delta,
                               device=sim.HonestDevice(0.81, 0.01))
    exact = sim.exact_abort_probability(cfg)
    _, (lo, hi) = sim.estimate_abort_probability(cfg, trials, seed)
    assert lo <= exact <= hi
    assert exact <= math.exp(-2.0 * n * delta * delta)


def test_abort_script_reports_library_exact_abort():
    n, trials = 2000, 5
    rows = run_script("abort_probability_experiment", "--n", str(n),
                      "--trials", str(trials)).splitlines()
    assert rows[0].endswith(",hoeffding_bound,exact_abort")
    assert len(rows) == 6
    for row in rows[1:]:
        cells = row.split(",")
        delta = float(cells[0])
        cfg = sim.SimulationConfig(n=n, gamma=0.5, omega_exp=0.81,
                                   delta_est=delta,
                                   device=sim.HonestDevice(0.81, 0.01))
        assert cells[-2] == f"{eat.hoeffding(n, delta):.9g}"
        assert cells[-1] == f"{sim.exact_abort_probability(cfg):.9g}"


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_result(goodput, p50, failed=2):
    """A perfbench result line as run.py prints it last."""
    return json.dumps({"correct": True, "attempted": 10, "failed": failed,
                       "metrics": {
                           "goodput_per_s": {"value": goodput, "unit": "1/s"},
                           "item_s_p50": {"value": p50, "unit": "s"},
                           "key_rate_sum": {"value": 1.0,
                                            "unit": "bit/round"}}})


def test_bench_pairs_summary_of_canned_runs():
    bench = load_script("bench_pairs")
    assert bench.parse_seeds("7,3-5") == [7, 3, 4, 5]
    stdout = "env {}\n3 items\n" + canned_result(1.0, 1.0) + "\n"
    assert bench.last_json_line(stdout)["metrics"]["goodput_per_s"] == {
        "value": 1.0, "unit": "1/s"}
    runs = [((100.0, 2e-5), (120.0, 1e-5)), ((90.0, 3e-5), (80.0, 3e-5)),
            ((110.0, 1e-5), (130.0, 2e-5)), ((105.0, 4e-5), (125.0, 1e-5)),
            ((95.0, 5e-5), (115.0, 5e-5))]
    pairs = [{side: bench.last_json_line(canned_result(*run))
              for side, run in zip(bench.SIDES, pair)} for pair in runs]
    summary = bench.summarize(pairs, {"goodput_per_s": "higher",
                                      "item_s_p50": "lower"})
    goodput = summary["metrics"]["goodput_per_s"]
    # parent 90, 95, 100, 105, 110; change 80, 115, 120, 125, 130
    assert goodput["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0,
                                 "best": 110.0}
    assert goodput["change"] == {"q1": 115.0, "median": 120.0, "q3": 125.0,
                                 "best": 130.0}
    assert goodput["median_change"] == pytest.approx(0.2)
    assert goodput["wins"] == 4
    # lower is better, so the best run is the minimum; ties are no win
    p50 = summary["metrics"]["item_s_p50"]
    assert (p50["parent"]["best"], p50["change"]["best"]) == (1e-5, 1e-5)
    assert p50["wins"] == 2
    # no direction: no best run and no wins
    assert summary["metrics"]["key_rate_sum"]["parent"]["best"] is None
    assert summary["metrics"]["key_rate_sum"]["wins"] is None
    assert summary["metrics"]["key_rate_sum"]["median_change"] == 0.0
    assert summary["pairs"] == 5 and summary["correct"]
    assert summary["failed"] == {"parent": [2] * 5, "change": [2] * 5}
    lines = bench.summary_lines(summary)
    assert lines[1] == ("  goodput_per_s: 100 [95, 105] best 110 -> "
                        "120 [115, 125] best 130 (+20.0%), change better "
                        "in 4/5; claim not met")
    assert lines[3] == "  key_rate_sum: 1 [1, 1] -> 1 [1, 1] (+0.0%)"
    # the claim rule: at least 9 in 10 pairs won, and the medians apart by
    # more than the parent's interquartile range (10 here)
    assert goodput["claim"] is False  # 4 of 5 pairs
    assert p50["claim"] is False
    assert summary["metrics"]["key_rate_sum"]["claim"] is None
    for lift, met in ((30.0, True), (10.0, False), (5.0, False)):
        lifted = [{"parent": pair["parent"], "change": json.loads(
            canned_result(pair["parent"]["metrics"]["goodput_per_s"]["value"]
                          + lift, 1e-5))} for pair in pairs]
        row = bench.summarize(lifted, {"goodput_per_s": "higher"})[
            "metrics"]["goodput_per_s"]
        assert row["wins"] == 5 and row["claim"] is met
        assert bench.summary_lines(bench.summarize(
            lifted, {"goodput_per_s": "higher"}))[1].endswith(
            "; claim met" if met else "; claim not met")


def test_bench_pairs_runs_without_bytecode(tmp_path, monkeypatch):
    """Each run of either side gets PYTHONDONTWRITEBYTECODE=1 and its own
    fresh, empty PYTHONPYCACHEPREFIX: no checkout's __pycache__ is read."""
    bench = load_script("bench_pairs")
    runs = []

    def fake_run(cmd, cwd, env, **kwargs):
        cache = env["PYTHONPYCACHEPREFIX"]
        runs.append((cwd, env["PYTHONDONTWRITEBYTECODE"], cache,
                     os.listdir(cache)))
        return subprocess.CompletedProcess(cmd, 0, canned_result(1.0, 1.0))

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    parent = str(tmp_path / "parent")
    bench.main(["--parent", parent, "--change", ROOT, "--workload",
                "verify-mix", "--seeds", "1-2", "--label", "bytecode",
                "--out-dir", str(tmp_path)])
    assert [cwd for cwd, *_ in runs] == [parent, ROOT, ROOT, parent]
    assert all(flag == "1" and listed == [] for _, flag, _, listed in runs)
    caches = [cache for _, _, cache, _ in runs]
    assert len(set(caches)) == 4
    assert not any(os.path.exists(cache) for cache in caches)


def test_lp_pivots_counts(tmp_path):
    """CHSH, extended CHSH and the 27 random games of verify-mix passes
    0-2 that no deterministic pair wins outright: one ns_value solve, with
    no phase-1 pivot, and one perturbed_value solve per slack for each; at
    slack > 0 every start is taken, so phase 1 is the X*Y start pivots of
    each game.  Each caller's seconds in solve split into pivot seconds and
    set-up seconds."""
    out = run_script("lp_pivots", "--label", "smoke",
                     "--out-dir", str(tmp_path))
    assert out.splitlines()[-1].endswith("BENCH_lp-pivots-smoke.json")
    with open(tmp_path / "BENCH_lp-pivots-smoke.json") as fh:
        record = json.load(fh)
    games, counts = record["games"], record["counts"]
    assert list(games)[:2] == ["chsh", "extended-chsh"]
    assert len(games) == 29
    assert counts["ns_value"]["solves"] == len(games)
    assert counts["ns_value"]["phase1"] == 0
    assert counts["perturbed_value"]["solves"] == 3 * len(games)
    start_pivots = sum(x * y for x, y, _, _ in games.values())
    for slack in ("0.01", "0.05"):
        row = counts[f"perturbed_value@{slack}"]
        assert row["solves"] == row["starts_taken"] == len(games)
        assert row["phase1"] == start_pivots
    for row in counts.values():
        assert row["pivots"] == row["phase1"] + row["phase2"]
        assert row["setup_s"] >= 0 and row["pivot_s"] >= 0
        assert row["setup_s"] + row["pivot_s"] == pytest.approx(
            row["solve_s"])


def wc_lines(checkout):
    """wc -l's total over checkout/src/di_toolkit/*.py."""
    paths = sorted(glob.glob(os.path.join(checkout, "src", "di_toolkit",
                                          "*.py")))
    out = subprocess.run(["wc", "-l", *paths], capture_output=True,
                         text=True, check=True).stdout
    return int(out.splitlines()[-1].split()[0])


def test_same_numbers_against_this_checkout():
    """Both sides this checkout: every group identical, exit 0 (run_script
    checks it), with every report, call and README CLI example hashed, and
    a last line with both sides' src line totals as wc -l counts them."""
    lines = run_script("same_numbers", "--parent", ROOT,
                       "--change", ROOT).splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "optimize", "scalar", "cli", "verify", "domains", "src"]
    assert all(line.endswith(" same") for line in lines[:5])
    total = wc_lines(ROOT)
    assert lines[5] == f"src: parent {total} lines, change {total} lines (+0)"
    assert lines[0].startswith("optimize: 288 lines")
    assert lines[1].startswith("scalar: 6000 lines")
    assert lines[2].startswith("cli: 103 lines, 68 raised")
    assert lines[3].startswith("verify: 294 lines, 3 raised")
    assert lines[4].startswith("domains: 300 lines, 275 raised")


def test_same_numbers_sees_a_one_ulp_change(tmp_path):
    """A copy of src/ with LOG2_2SQRT2_PLUS_1 one ulp up: the optimize and
    scalar groups read DIFFERENT, each with a line saying how many of its
    lines moved and how far, and the script exits 1; the CLI's 9-digit
    output and the verify and domains groups, which read no key length,
    do not move.
    The copy's keyrates.py ends in one more newline, and the src line
    counts it."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "src" / "di_toolkit" / "keyrates.py"
    text = path.read_text()
    constant = "LOG2_2SQRT2_PLUS_1 = math.log2(2.0 * math.sqrt(2.0) + 1.0)"
    assert constant in text
    path.write_text(text.replace(constant, (
        "LOG2_2SQRT2_PLUS_1 = math.nextafter("
        "math.log2(2.0 * math.sqrt(2.0) + 1.0), math.inf)")) + "\n")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "same_numbers.py"),
         "--parent", ROOT, "--change", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    verdicts = {line.split(":")[0]: line.rsplit(" ", 1)[1]
                for line in lines[:-1] if not line.startswith(" ")}
    assert verdicts == {"optimize": "DIFFERENT", "scalar": "DIFFERENT",
                        "cli": "same", "verify": "same", "domains": "same"}
    # a moved-lines line under each DIFFERENT group, none under the others
    assert [line.startswith(" ") for line in lines] == [
        False, True, False, True, False, False, False, False]
    total = wc_lines(ROOT)
    assert wc_lines(tmp_path) == total + 1
    assert lines[-1] == (f"src: parent {total} lines, change {total + 1} "
                         "lines (+1)")
    for moved, total in ((lines[1], 288), (lines[3], 6000)):
        match = re.fullmatch(r"  (\d+) of (\d+) lines differ, "
                             r"largest \|Δ\| (\S+); first float up in "
                             r"(\d+), down in (\d+)", moved)
        assert match and int(match[2]) == total
        assert 0 < int(match[1]) <= total and 0 < float(match[3]) < 1e-4
        assert int(match[4]) + int(match[5]) <= int(match[1])

    same_numbers = load_script("same_numbers")
    parent = ["k 0x1.0000000000000p+0 7", "same 0.25", "raise E: x"]
    change = ["k 0x1.0000000000001p+0 7", "same 0.25", "value 0.5",
              "extra"]
    # the third pair has no float fields to pair up; "extra" has no partner
    assert same_numbers.moved(parent, change) == (3, 2.0**-52)
    assert same_numbers.moved(parent[2:], change[2:3]) == (1, None)


def test_same_numbers_src_lines_count_as_wc(tmp_path):
    """src_lines counts newline characters of src/di_toolkit/*.py alone,
    as wc -l does: a last line without one, a file of another suffix and
    a nested module do not count."""
    package = tmp_path / "src" / "di_toolkit"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\nw = 4")
    (package / "notes.txt").write_text("one\ntwo\n")
    (package / "sub" / "c.py").write_text("v = 5\n")
    same_numbers = load_script("same_numbers")
    assert same_numbers.src_lines(str(tmp_path)) == wc_lines(tmp_path) == 4
    assert same_numbers.src_lines(ROOT) == wc_lines(ROOT)


def test_same_numbers_floats_stand_alone():
    """A SHA-1's digit runs are no float fields: "3e45" in "0a3e45cd" once
    read as 3e45 and made a moved digest line report |Δ| 3e47."""
    same_numbers = load_script("same_numbers")
    assert same_numbers._floats("52360 0a3e45cd9f 3e45ab") == []
    assert same_numbers._floats("k [('p', -0x1.8p+1)], 1e-3 (2.5)") == [
        -3.0, 0.001, 2.5]
    assert same_numbers.moved(["52360 0a3e45cd9f"],
                              ["52360 0a3e47cd9f"]) == (1, 0.0)


def test_same_numbers_directions_of_canned_lines():
    """Each differing pair counts up or down by its first float field
    alone; a pair with a line holding no float field, an unmoved first
    field, equal lines and a line without a partner count in neither."""
    same_numbers = load_script("same_numbers")
    parent = ["k 0x1.0000000000000p+0 7", "same 0.25", "raise E: x",
              "v 2.5 1.0", "w 1e-3 0.5", "e 0.5 [('a', 3)] False", "extra"]
    change = ["k 0x1.0000000000001p+0 7", "same 0.25", "value 0.5",
              "v 2.0 9.0", "w 0.001 0.75", "e 0.25 [('a', 4)] True"]
    assert same_numbers.directions(parent, change) == (1, 2)
    assert same_numbers.directions(change, parent) == (2, 1)
    assert same_numbers.directions(parent, parent) == (0, 0)


def test_same_numbers_domain_lines():
    """The domains group has one line per probe, each the probe's raise
    (type and message) or what it returned, then the probe; a bool gamma
    and the subnormal test mass are among them."""
    import di_toolkit

    same_numbers = load_script("same_numbers")
    lines = list(same_numbers.domain_lines(di_toolkit))
    assert len(lines) == sum(len(values) for _, _, domains
                             in same_numbers.DOMAIN_PROBES
                             for values in domains.values())
    assert ("raise ValueError: gamma must be in (0,1] <- "
            "eat.BlockSpec(gamma=True)") in lines
    assert ("raise ValueError: cut outside the open quantum regime <- "
            "eat.mu_opt(gamma=1e-320)") in lines
    assert "returned HonestDevice <- simulate.HonestDevice(omega_exp=0.5)" \
        in lines
