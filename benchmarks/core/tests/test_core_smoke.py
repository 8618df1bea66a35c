"""Smoke test of the core benchmark: ``python -m pytest benchmarks/core/tests``.

Runs every workload at ``--smoke`` sizes in both modes through the same
command line the pipeline uses, and checks the contract: every metric
named in ``BENCHMARK.json`` is emitted with its unit, nothing failed, and a
trace file is written per workload. Outside ``testpaths`` on purpose — the
tier-1 suite does not run it.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

CORE = pathlib.Path(__file__).resolve().parents[1]
ROOT = CORE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(CORE))

import compare  # noqa: E402
import spans  # noqa: E402


def run(workload: str, trace: int, out: pathlib.Path) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(CORE / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace),
            "--smoke", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_listed_metric_is_emitted(workload, tmp_path):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = run(workload, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {entry["name"] for entry in listed}
        for entry in listed:
            metric = result["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], float)
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        else:
            assert result["metrics"]["failed_share"]["value"] == 0.0
            trace_file = tmp_path / f"trace_{workload}.json"
            recorded = json.loads(trace_file.read_text())
            assert recorded and all(s["end"] >= s["start"] for s in recorded)


def test_self_time_subtracts_children():
    recorder = spans.Recorder()
    with recorder.span("op", "bench", 1):
        with recorder.span("a", "net", 1):
            pass
        with recorder.span("b", "globalq", 1):
            pass
    op, a, b = recorder.spans
    assert a["parent"] == b["parent"] == 0 and op["parent"] is None
    own = recorder.self_times()
    total = op["end"] - op["start"]
    assert abs(sum(own.values()) - total) < 1e-9
    assert own["net"] == a["end"] - a["start"]


def test_compare_labels():
    steady_a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady_a, steady_a, "lower", 0.1)[0] == "ok"
    worse = [v * 1.3 for v in steady_a]
    assert compare.verdict(steady_a, worse, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady_a, worse, "higher", 0.1)[0] == "ok"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    clearly_better = [v * 0.5 for v in noisy]
    assert compare.verdict(noisy, clearly_better, "lower", 0.1)[0] == "ok"
