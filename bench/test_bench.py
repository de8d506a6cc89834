"""Tests of the benchmark itself, on its smoke-sized inputs.

    python -m pytest bench -q

They run every workload in both modes, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from dbmc.disturbance import DisturbanceSpec  # noqa: E402
from dbmc.errors import DbmcError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_smoke_run_is_correct_and_emits_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_smoke_run_emits_every_layer_metric(workload):
    result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # Every workload judges some nodes at a guaranteed t_s, so the
    # identification check runs, and every one simulates and bounds.
    assert metrics["termination.correct_ratio"]["value"] == 1.0
    assert metrics["dynamics.rhs_per_step"]["value"] == 4.0
    assert metrics["bounds.values"]["value"] > 0
    assert metrics["harness.bracket_slack_min"]["value"] > -1e-6
    writes = metrics["harness.bytes_written"]["value"]
    assert (writes > 0) == (workload == "case-studies")


@pytest.mark.parametrize("workload", ["seed-sweep", "large-graph"])
def test_exact_counts_repeat_between_runs_on_a_held_out_seed(workload):
    first, second = smoke(workload, 1, seed=7), smoke(workload, 1, seed=7)
    for name in tracing.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_smoke_sweep_covers_every_disturbance_kind():
    items = workloads.seed_sweep(ROOT, 1, True, ROOT).items
    assert len(items) == len(workloads.SWEEP_DISTURBANCES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "seed-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_each_output_check_fails_a_bad_item():
    assert workloads.identification_failures(True, False)
    assert not workloads.identification_failures(False, False)

    nonneg = DisturbanceSpec(kind="proportional", alpha_lower=0.0, alpha_upper=0.4)
    assert workloads.nonnegative_failures(nonneg, -1e-3)
    assert not workloads.nonnegative_failures(nonneg, -1e-7)
    assert not workloads.nonnegative_failures(DisturbanceSpec(kind="sinusoid"), -1e-3)

    case = workloads.CASE_3PCT
    assert workloads.case_study_failures(case, 2, None, False, False)
    assert workloads.case_study_failures(case, 0, 3.2, True, True)
    assert workloads.case_study_failures(case, 0, None, False, True)
    assert workloads.case_study_failures(case, 0, 3.1445, True, False)
    assert not workloads.case_study_failures(case, 0, 3.1445, True, True)
    assert not workloads.case_study_failures("case_study_40pct", 0, None, False, True)


def test_a_library_error_fails_the_item_instead_of_skipping_it():
    def broken():
        raise DbmcError("bound curve 'chain' fails to bracket the trajectory")

    item = workloads.attempt("x", broken)
    assert item.failures and "bracket" in item.failures[0]
