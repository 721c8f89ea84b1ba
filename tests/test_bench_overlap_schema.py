"""Schema check for the committed BENCH_overlap.json artifact.

The benchmark itself is too heavy for CI; this validates that the
published document is well-formed, internally consistent, and that its
acceptance criteria hold, so a stale or hand-edited artifact fails fast.
"""

import json
import pathlib

import pytest

DOC_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_overlap.json"
)

MODE_KEYS = {
    "wall_s_median", "wall_s_runs", "peak_rss_mb",
    "solve_s", "replay_s", "digest",
}


@pytest.fixture(scope="module")
def doc():
    if not DOC_PATH.exists():
        pytest.skip("BENCH_overlap.json not present")
    with open(DOC_PATH) as fh:
        return json.load(fh)


def test_schema_header(doc):
    assert doc["schema"] == "bench-overlap/1"
    assert isinstance(doc["description"], str) and doc["description"]
    assert doc["command"].startswith("PYTHONPATH=src python benchmarks/")
    cfg = doc["config"]
    assert cfg["shards"] >= 2
    assert cfg["slots"] >= 2
    assert cfg["repeats"] >= 1
    assert cfg["executor"] in ("serial", "shm")


def test_host_block(doc):
    host = doc["host"]
    assert host["cpu_count"] >= 1
    assert isinstance(host["shared_memory"], bool)
    assert isinstance(host["platform"], str) and host["platform"]


def test_scales_rows(doc):
    scales = doc["scales"]
    assert len(scales) >= 2
    sizes = [row["n_users"] for row in scales]
    assert sizes == sorted(sizes)
    for row in scales:
        for mode in ("serial", "pipelined"):
            m = row[mode]
            assert MODE_KEYS <= set(m)
            assert m["wall_s_median"] > 0
            assert len(m["wall_s_runs"]) == doc["config"]["repeats"]
            assert len(m["digest"]) == 64
        # the overlap meters exist only in pipelined mode
        assert row["pipelined"]["overlap_s"] >= 0
        assert row["pipelined"]["stall_s"] >= 0
        assert row["pipelined"]["slots_overlapped"] >= 1
        assert "overlap_s" not in row["serial"]


def test_bit_identity_claimed_and_consistent(doc):
    for row in doc["scales"]:
        assert row["identical"] is True
        assert row["pipelined"]["digest"] == row["serial"]["digest"]


def test_overlap_bounded_by_replay(doc):
    """Hidden replay time can never exceed the replay time itself."""
    for row in doc["scales"]:
        assert (
            row["pipelined"]["overlap_s"]
            <= row["pipelined"]["replay_s"] + 1e-6
        )


def test_acceptance_criteria(doc):
    crit = doc["criteria"]
    largest = doc["scales"][-1]
    assert crit["speedup_at_largest_scale"] == largest["speedup"]
    assert crit["all_identical"] is True
    assert crit["overlap_s_at_largest"] == largest["pipelined"]["overlap_s"]
    assert crit["stall_s_at_largest"] == largest["pipelined"]["stall_s"]


def test_pipeline_criterion_gating(doc):
    """The >=1.3x criterion is enforced on >=2-core hosts and
    recorded-but-gated on single-core hosts — never silently dropped."""
    crit = doc["criteria"]
    assert crit["pipeline_cores"] == doc["host"]["cpu_count"]
    if crit["pipeline_gated"]:
        assert crit["pipeline_cores"] < 2
        assert crit["pipeline_ge_1_3x"] is None
    else:
        assert crit["pipeline_ge_1_3x"] is True
        assert crit["speedup_at_largest_scale"] >= 1.3


def test_scales_reach_target(doc):
    assert doc["scales"][-1]["n_users"] >= 300_000
