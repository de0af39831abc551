"""Two traced runs with the same seed report the same work counts.

Runs the benchmark command itself, so it also checks that a traced run
emits every per-layer metric and that its outputs pass their checks.
rate-opt is left out to keep this test short: one traced pass takes
about 40 s.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(BENCH), capture_output=True, text=True,
        timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_count(name):
    return not name.endswith((".self_s", "_per_s"))


@pytest.mark.parametrize("workload", ["rate-scalar", "verify-mix"])
def test_traced_counts_repeat(workload):
    first, second = traced_run(workload, 11), traced_run(workload, 11)
    for result in (first, second):
        assert result["correct"]
        assert list(result["metrics"]) == tracing.metric_names()
    counts = [{k: v["value"] for k, v in r["metrics"].items() if is_count(k)}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert (first["attempted"], first["failed"]) == (
        second["attempted"], second["failed"])
    assert first["failed"] > 0  # the known defects show as failures
