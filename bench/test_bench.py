"""The benchmark's own tests: every workload end to end at smoke size, with checks.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_COUNTS = [
    "enumerate.passes",
    "enumerate.right_maximal_visits",
    "enumerate.right_maximal_peak_frames",
    "enumerate.generalized_visits",
    "enumerate.generalized_peak_frames",
    "wavelet.range_distinct_calls",
    "wavelet.rank_calls",
]


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def results():
    """Two smoke runs of every workload and mode with the same seed."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            for attempt in (0, 1) if trace else (0,):
                proc = run_bench(ROOT, workload, trace)
                assert proc.returncode == 0, proc.stderr
                out[workload, trace, attempt] = json.loads(proc.stdout.splitlines()[-1])
    return out


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (unit, _) in PER_LAYER.items()
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_is_correct(results, workload, trace):
    r = results[workload, trace, 0]
    assert list(r) == ["correct", "attempted", "failed", "metrics"]
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    names = list(PER_LAYER) if trace else list(END_TO_END)
    assert list(r["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in r["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_the_iteration(results, workload):
    metrics = {k: v["value"] for k, v in results[workload, 1, 0]["metrics"].items()}
    assert metrics["trace.coverage_frac"] >= 0.95
    assert metrics["failed_frac"] == 0
    if workload == "dna_single":
        assert metrics["wavelet.rank_calls"] == 0
        assert metrics["enumerate.passes"] == 6
    if workload == "pair_cli":
        assert metrics["enumerate.passes"] == 6
        assert metrics["cli.startup_s"] > 0
    if workload == "index_roundtrip":
        assert metrics["wavelet.range_distinct_calls"] == 0
        assert metrics["wavelet.rank_calls"] > 0
        assert metrics["enumerate.passes"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(results, workload):
    first, second = (results[workload, 1, attempt]["metrics"] for attempt in (0, 1))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "dna_single", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
