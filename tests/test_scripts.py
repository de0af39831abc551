import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from di_toolkit import simulate as sim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RATE_CURVE_HEADER = (
    "axis_value,rate,rate_clamped,key_length,gamma,delta_est,cut,"
    "entropy_term,leak_ec,log_correction,max_entropy_term,pa_term\n")


def test_key_rate_curves_quick_creates_out_dir(tmp_path):
    out_dir = tmp_path / "new"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "key_rate_curves.py"),
         "--quick", "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    names = sorted(os.listdir(out_dir))
    assert names == ["rate_vs_qber_n1e+07.csv", "rate_vs_qber_n1e+08.csv",
                     "rate_vs_rounds_q0.005.csv"]
    for name in names:
        with open(out_dir / name) as fh:
            assert fh.readline() == RATE_CURVE_HEADER


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_abort_against_rational_sum():
    abort = load_script("abort_probability_experiment")
    n, gamma, omega, delta = 200, 0.5, 0.81, 0.03
    cfg = sim.SimulationConfig(n=n, gamma=gamma, omega_exp=omega,
                               delta_est=delta,
                               device=sim.HonestDevice(omega, 0.01))
    p = Fraction(gamma * omega)
    want = sum(math.comb(n, k) * p**k * (1 - p)**(n - k) for k in range(n + 1)
               if k < (omega * gamma - delta) * n)
    assert abort.exact_abort(cfg) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("n, delta, trials, seed",
                         [(2000, 0.012, 400, 7), (10**4, 0.008, 300, 11)])
def test_wilson_interval_covers_exact_abort(n, delta, trials, seed):
    abort = load_script("abort_probability_experiment")
    cfg = sim.SimulationConfig(n=n, gamma=0.5, omega_exp=0.81,
                               delta_est=delta,
                               device=sim.HonestDevice(0.81, 0.01))
    exact = abort.exact_abort(cfg)
    _, (lo, hi) = sim.estimate_abort_probability(cfg, trials, seed)
    assert lo <= exact <= hi
    assert exact <= math.exp(-2.0 * n * delta * delta)
