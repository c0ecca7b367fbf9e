"""Smoke test of the benchmark's own code, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced for one second, checks that
every metric BENCHMARK.json names is printed with its unit, that a
truncated .vibseq fed to `batch` is counted as a failed op instead of
ending the run, and that the benchmark refuses to run without the
package source next to it.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work_dir():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170, check=False)


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)


def test_truncated_input_counts_as_failed_op(work_dir):
    vb = run.import_vibeline()
    batch = workloads.Batch(vb, workloads.PROFILES["tiny"], 3, work_dir)
    batch.setup()
    broken = batch.files[0][0]
    data = broken.read_bytes()
    broken.write_bytes(data[: len(data) // 2])
    res = batch.run(seconds=0.2)
    assert res.attempted >= 3
    assert 1 <= res.failed < res.attempted
    assert all("op " in f for f in res.notes["failures"])
    assert res.notes["evaluate_batch_hits"] == res.hits


def test_refuses_to_run_without_package_source(work_dir):
    shutil.copy(run.ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(run.HERE, work_dir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "batch", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=work_dir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
