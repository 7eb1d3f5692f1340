"""Smoke test of the benchmark: every workload and every check at reduced size.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--seed", "3", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = bench("--workload", "all", "--smoke", "--seconds", "1", *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def test_untraced_smoke_runs_every_workload_and_check():
    stdout, res = result("--trace", "0")
    assert res["correct"] and res["failed"] == 0, stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            value = res["metrics"][f"{workload['name']}.{metric['name']}"]
            assert value["value"] > 0 and value["unit"] == metric["unit"]
    # The shipped-default correlation run exits 3: one refusal in five.
    assert "fail_ratio      0.2000 (1/5" in stdout
    assert "mc_rel_rms_err" in stdout


def test_traced_smoke_counts_layers():
    stdout, res = result("--trace", "1")
    assert res["correct"] and res["failed"] == 0, stdout
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # Four panels, one overlay seed, one series shared by all four.
    assert m["figure3_overlay.montecarlo.synthesize_quadrature.calls"] == 4
    assert m["figure3_overlay.montecarlo.synthesize_quadrature.unique_ratio"] == 0.25
    # 8192 + 4096 * 15 = 2**12 * 17 samples.
    assert m["figure3_overlay.montecarlo.synthesize_quadrature.fft_max_prime"] == 17
    assert m["montecarlo_sweep.montecarlo.synthesize_quadrature.unique_ratio"] == 1.0
    assert m["montecarlo_sweep.serialize.write_spectral_csv.rows"] == 2 * 8192
    assert m["analytic_lock.montecarlo.synthesize_quadrature.calls"] == 0
    assert m["analytic_lock.locking.closed_loop_simulate.steps"] == 16384
    assert m["analytic_lock.correlation.time_average_reduce.calls"] == 2001
    assert m["analytic_lock.fail_ratio"] == 0.2


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "analytic_lock", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
