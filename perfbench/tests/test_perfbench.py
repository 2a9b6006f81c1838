"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402
from perfbench.tracing import Recorder, traced as tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, tmp_path, *, traced=False, jobs=None):
    return run.run_workload(
        name, 3, 0.2, traced, str(tmp_path), tiny=True, jobs=jobs
    )


def test_names_and_units_match_benchmark_json():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS) == {
        w["name"] for w in BENCHMARK["workloads"]
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("traced", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(name, traced, tmp_path):
    report = tiny(name, tmp_path, traced=traced)
    assert report["correct"], report["errors"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    expected = run.PER_LAYER if traced else run.END_TO_END
    assert {k: m["unit"] for k, m in report["metrics"].items()} == expected
    for metric in report["metrics"].values():
        assert math.isfinite(metric["value"])
    if not traced:
        assert all(m["value"] > 0 for m in report["metrics"].values())


def _corrupt_rows(encoded: str, pick) -> str:
    rows = json.loads(encoded)
    row = next(r for r in rows if pick(r))
    key = next(k for k in sorted(row) if isinstance(row[k], (int, float, list))
               and not isinstance(row[k], bool) and k not in (
                   "i", "n", "sim_seed", "csp_seed", "x"))
    row[key] = row[key] + [0.5] if isinstance(row[key], list) \
        else row[key] + 1
    return json.dumps(rows, sort_keys=True)


def _corrupt(name: str, outputs: list) -> None:
    if name == "service_mixed":
        outputs[0]["rows"] = _corrupt_rows(outputs[0]["rows"],
                                           lambda r: True)
    elif name == "sweep_networks":
        outputs[0] = _corrupt_rows(outputs[0],
                                   lambda r: "/mmap/" in r["case"])
    elif name == "sweep_csp":
        outputs[0] = _corrupt_rows(outputs[0], lambda r: r["n"] <= 20)
    else:
        job = outputs[0]["jobs"][0]
        job["rows"] = _corrupt_rows(job["rows"], lambda r: True)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_row_fails_the_check(name, tmp_path):
    workload = WORKLOADS[name](3, str(tmp_path), tiny=True)
    state = workload.setup(str(tmp_path / "setup"))
    try:
        outputs = workload.measure(state, units=1).outputs
    finally:
        workload.discard(state)
    assert workload.check(outputs) == []
    _corrupt(name, outputs)
    assert workload.check(outputs)


@pytest.mark.parametrize("name", ["sweep_networks", "sweep_csp"])
def test_worker_spans_merge_inline_and_parallel_alike(name, tmp_path):
    counts = []
    for jobs in (1, 2):
        workdir = tmp_path / f"jobs{jobs}"
        workload = WORKLOADS[name](3, str(workdir), tiny=True, jobs=jobs)
        state = workload.setup(str(workdir / "setup"))
        rec = Recorder()
        with tracing(rec, str(workdir)):
            result = workload.measure(state, units=1, rec=rec)
        metrics = run.per_layer_metrics(rec, result, result, (0.0, 0.0))
        counts.append({
            key: metrics[key]
            for key in ("executor.points", "networks.curves", "csp.compiles")
        })
    assert counts[0] == counts[1]
    assert counts[0]["networks.curves"] + counts[0]["csp.compiles"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_csp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
