"""Tests of the benchmark itself: smoke runs of every workload, the
result contract, the failure exit, the host-speed correction and the
span arithmetic.

    python3 -m pytest e2e_bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DECLARED = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = HERE.parent, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_matches_the_code():
    assert set(DECLARED) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"][1] == "e2e_bench/run.py"


@pytest.mark.parametrize("name", DECLARED)
def test_smoke_traced(name):
    result = _result(_bench("--workload", name, "--seed", "3", "--seconds", "1",
                            "--trace", "1", "--smoke"))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    # wrappers account for the slot wall from outside
    assert metrics["obs.span_coverage_min"]["value"] >= 0.9
    assert metrics["workload.requests"]["value"] > 0
    assert metrics["core.solve_s"]["value"] > 0
    if workloads.WORKLOADS[name].shards > 1:
        assert metrics["runtime.shard_busy_max_s"]["value"] > 0
        assert metrics["runtime.shard_imbalance"]["value"] >= 1.0


@pytest.mark.parametrize("name", DECLARED)
def test_smoke_untraced(name):
    result = _result(_bench("--workload", name, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--smoke"))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", DECLARED[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _run(**kw) -> dict:
    run_ = {"requests": 10, "solves": 2, "failed_requests": 0, "failed_solves": 0,
            "digest": "a", "part": 0, "round": 0, "traced": False, "wall_s": 1.0}
    run_.update(kw)
    return run_


def test_gate_compares_digests_per_part():
    rec = _run()
    assert run.gate([{"runs": [rec, rec]}, {"runs": [_run(traced=True)]}]) == (36, 0)
    assert run.gate([{"runs": [rec]}, {"runs": [_run(traced=True, digest="b")]}]) == (24, 1)
    assert run.gate([{"runs": [rec, _run(part=1, digest="b")]}]) == (24, 0)
    assert run.gate([{"runs": [_run(failed_solves=1)]}]) == (12, 1)


def test_overhead_pairs_runs_of_the_same_round():
    layer_values = {name: 1.0 for name in run.PER_LAYER}
    runs = [
        _run(round=0, wall_s=1.0), _run(round=0, traced=True, wall_s=1.1, layers=layer_values),
        _run(round=1, wall_s=2.0), _run(round=1, traced=True, wall_s=2.2, layers=layer_values),
    ]
    # pairing across rounds would give 2.2 / 1.0 or 1.1 / 2.0
    ratio = run.per_layer([{"runs": runs}])["obs.trace_overhead_ratio"]
    assert ratio == pytest.approx(1.1)


def test_host_correction_scales_by_the_reference():
    runs = [
        _run(slot_walls=[2.0, 4.0], solve_walls=[1.0, 1.0], ref_s=[2 * hostref.NOMINAL_S]),
        _run(slot_walls=[1.0, 2.0], solve_walls=[0.5, 0.5], ref_s=[hostref.NOMINAL_S]),
    ]
    # the same work on a host running at half speed, then at full speed
    assert run._per_position(runs, "slot_walls") == pytest.approx([1.0, 2.0])
    assert run._per_position(runs, "solve_walls") == pytest.approx([0.5, 0.5])
    assert 0 < hostref.sample() < 1.0


def test_self_time_and_threads():
    rec = layers.SpanRecorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = rec.wrap(inner, "core.inner", None)

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    wrapped_outer = rec.wrap(outer, "core.outer", None)
    rec.slot = 0
    workers = [threading.Thread(target=wrapped_outer) for _ in range(4)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in workers)

    spans = rec.spans
    assert len(spans) == 8
    for i, s in enumerate(spans):
        if s.name == "core.inner":
            parent = spans[s.parent]
            assert parent.name == "core.outer" and parent.thread == s.thread
    selfs = layers.self_times(spans)
    for s, own in zip(spans, selfs):
        assert 0.015 < own < s.duration + 1e-9
