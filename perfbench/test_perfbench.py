"""Self-test of the benchmark harness: python3 -m pytest perfbench -q

Runs each workload at its smallest size (one round) and shows that the
oracles count a perturbed reference, a wrong exit code and a changed CSV
byte as failures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

tq = run.import_package()


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_count(ops, mode="call"):
    samples, _ = run.run_timed(ops, 0.0, len(ops), run.executor(mode))
    return sum(1 for s in samples if not s[2]), samples


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smallest_run_is_correct_and_reports_every_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % run.ROUND_OPS[workload] == 0
    assert result["attempted"] >= run.min_samples(run.TAIL_PERCENTILE[workload])
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "pure-monogamy", "--seed", "5", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc)["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["roof.calls"]["value"] == 0  # the roof never runs here
    assert metrics["measures.wootters.calls"]["value"] > 0
    assert 0.95 < metrics["trace.accounted_frac"]["value"] <= 1.0


def test_tracer_restores_every_binding():
    import tracer

    before = {name: getattr(tq, name) for name in ("minimize_roof", "tee_pure", "indicator")}
    t = tracer.Tracer()
    t.install()
    assert tq.tee_pure is not before["tee_pure"]
    t.restore()
    assert {name: getattr(tq, name) for name in before} == before
    assert tq.monogamy.minimize_roof is before["minimize_roof"]


def test_perturbed_reference_is_a_failure():
    roof_ops = workloads.roof_mixed(tq, seed=5, rounds=1)
    cheap = [op for op in roof_ops if op.kind in ("concurrence-r2", "tee-r2-q2")]
    assert failed_count(cheap)[0] == 0
    for op in cheap:
        op.ref += 1e-3  # ten times the criterion-07 tolerance
    failed, samples = failed_count(cheap)
    assert failed == len(cheap)
    assert all("reference" in s[3] for s in samples)

    w_ops = [op for op in workloads.pure_monogamy(tq, seed=5, cases=40) if op.ref is not None]
    assert w_ops and failed_count(w_ops)[0] == 0
    for op in w_ops:
        op.ref *= 1 + 1e-8
    assert failed_count(w_ops)[0] == len(w_ops)


def cli_ops(tmp_path):
    return {op.label: op for op in workloads.cli_scan_verify(tq, 5, str(tmp_path), run.child_env())}


def test_wrong_exit_code_is_a_failure(tmp_path):
    op = cli_ops(tmp_path)["verify-examples"]
    ok, detail, _ = op.execute("subprocess")
    assert ok, detail  # exit 3 with its single known FAIL line is correct
    op.expect_rc = 0
    for mode in ("subprocess", "call"):
        ok, detail, _ = op.execute(mode)
        assert not ok and detail == "exit code 3, expected 0"


@pytest.mark.parametrize("mode", ["subprocess", "call"])
def test_changed_csv_byte_is_a_failure(tmp_path, mode):
    op = cli_ops(tmp_path)["scan-example4"]
    assert op.execute(mode)[0]
    assert op.execute(mode) == (True, "bytes match the first run", None)
    data = bytearray(op.ref_csv)
    data[-3] ^= 1
    op.ref_csv = bytes(data)
    assert failed_count([op], mode)[0] == 1
    assert op.execute(mode)[1] == "CSV bytes differ from the first run"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pure-monogamy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
