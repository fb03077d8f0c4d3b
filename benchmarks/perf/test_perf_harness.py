"""Tests of the perf harness itself.

Run explicitly — they are not part of the tier-1 suite::

    python -m pytest benchmarks/perf -q          (~1.5 min)

They drive ``run.py --smoke`` (every workload at 1/20 size) twice and
check what the benchmark promises about its own output.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import run  # noqa: E402


def run_py(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )


@pytest.fixture(scope="module")
def smoke_files(tmp_path_factory) -> list[Path]:
    """Two full smoke runs of the same seed."""
    files = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp("perf") / f"smoke_{tag}.json"
        done = run_py("--smoke", "--out", str(out))
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        files.append(out)
    return files


@pytest.fixture(scope="module")
def smoke(smoke_files) -> list[dict]:
    return [json.loads(path.read_text(encoding="utf-8")) for path in smoke_files]


def test_spec_is_well_formed():
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(WORKLOADS) == 6
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(PER_LAYER) <= 128
    assert SPEC["paths"] == ["benchmarks/perf"]
    for layer in layers.ALL_LAYERS:
        assert f"{layer}.self_cpu_share" in PER_LAYER


def test_results_are_self_describing(smoke):
    for key in ("commit", "python", "nproc", "seed", "scale", "started", "ended"):
        assert key in smoke[0]
    for name in WORKLOADS:
        for record in smoke[0]["workloads"][name].values():
            assert record["params"] and record["reps"] >= 1
            assert record["started"] <= record["ended"]


def test_every_workload_emits_every_end_to_end_metric(smoke):
    for name in WORKLOADS:
        record = smoke[0]["workloads"][name]["timed"]
        assert record["errors"] == [] and record["failed"] == 0 and record["attempted"] >= 1
        assert set(END_TO_END) <= set(record["metrics"]), name
        for metric in END_TO_END:
            assert record["metrics"][metric]["value"] > 0, (name, metric)


def test_layer_metrics_match_the_spec(smoke):
    emitted = set()
    for name in WORKLOADS:
        record = smoke[0]["workloads"][name]["traced"]
        assert record["errors"] == []
        assert set(record["metrics"]) <= set(PER_LAYER), name
        emitted |= set(record["metrics"])
    assert emitted == set(PER_LAYER)


def test_trace_reconciles_and_shares_sum_to_one(smoke):
    for name in WORKLOADS:
        metrics = smoke[0]["workloads"][name]["traced"]["metrics"]
        assert metrics["trace.reconcile_err"]["value"] < 0.02, name
        shares = sum(metrics[f"{layer}.self_cpu_share"]["value"] for layer in layers.ALL_LAYERS)
        assert shares == pytest.approx(1.0, abs=1e-9), name
        assert metrics["trace.overhead_ratio"]["value"] > 1.0, name


def test_simulated_results_repeat_across_runs(smoke):
    for name in WORKLOADS:
        if name == "rt_tcp":
            continue
        for kind in ("timed", "traced"):
            first, second = (run_["workloads"][name][kind]["info"]["exact"] for run_ in smoke)
            assert first and first == second, (name, kind)


def test_compare_covers_every_pair(smoke_files):
    # Two-repetition smoke runs are too short to resolve host-time metrics,
    # so `unresolved` is allowed here; a file never regresses against itself.
    done = run_py("--compare", str(smoke_files[0]), str(smoke_files[0]))
    assert "regressed=0" in done.stdout and "changed=0" in done.stdout, done.stdout
    for name in WORKLOADS:
        for metric in END_TO_END + ["failed_frac"]:
            assert re.search(rf"^{name}\s+{metric}\s", done.stdout, re.M), (name, metric)


def test_compare_finds_simulated_results_identical(smoke_files):
    done = run_py("--compare", str(smoke_files[0]), str(smoke_files[1]))
    rows = [line for line in done.stdout.splitlines() if " sim_exact " in line]
    assert len(rows) == 5 and all(line.endswith("ok") for line in rows), done.stdout


def test_single_workload_prints_the_contract_line():
    # Seed 42 is one on which `view_change_latency(force_unhappy=True)`
    # raises; the workload must walk past it, not fail.
    for trace, listed in (("0", END_TO_END), ("1", PER_LAYER)):
        done = run_py("--smoke", "--workload", "des_faults", "--seed", "42", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == listed
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_failures_are_named_not_hung():
    assert run_py("--workload", "no_such_workload").returncode == 2
    # A full-size repetition cannot finish inside a one-second timeout.
    record = run.launch(ROOT, "des_f10", 1, 12.0, 0, 1.0, None, False, timeout=1.0)
    assert "hard timeout" in record["failure"]
    assert run.failed_frac(record) == 1.0
