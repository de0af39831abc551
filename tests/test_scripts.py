import os
import subprocess
import sys

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
