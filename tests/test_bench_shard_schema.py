"""Schema check for the committed BENCH_shard.json artifact.

The benchmark itself is too heavy for CI; this validates that the
published document is well-formed, internally consistent, and that its
acceptance criteria hold, so a stale or hand-edited artifact fails fast.
"""

import json
import pathlib

import pytest

DOC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_shard.json"

ENGINE_KEYS = {"wall_s_median", "wall_s_runs", "peak_rss_mb", "rounds", "digest"}


@pytest.fixture(scope="module")
def doc():
    if not DOC_PATH.exists():
        pytest.skip("BENCH_shard.json not present")
    with open(DOC_PATH) as fh:
        return json.load(fh)


def test_schema_header(doc):
    assert doc["schema"] == "bench-shard/2"
    assert isinstance(doc["description"], str) and doc["description"]
    assert doc["command"].startswith("PYTHONPATH=src python benchmarks/")
    cfg = doc["config"]
    assert cfg["shards"] >= 2
    assert cfg["repeats"] >= 1
    assert cfg["window_size"] > 0
    assert set(cfg["executors"]) <= {"sharded", "shm"}
    assert "sharded" in cfg["executors"]


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
    engines = ["ref", "sharded"] + (
        ["shm"] if "shm" in doc["config"]["executors"] else []
    )
    for row in scales:
        for engine in engines:
            m = row[engine]
            assert ENGINE_KEYS <= set(m)
            assert m["wall_s_median"] > 0
            assert len(m["wall_s_runs"]) == doc["config"]["repeats"]
            assert len(m["digest"]) == 64
        for engine in engines[1:]:
            assert row[engine]["shards"] == doc["config"]["shards"]
            assert row[engine]["boundary_invocations"] >= 0
            assert row[engine]["exchange_rounds"] >= 0
        if "shm" in engines:
            assert row["shm"]["shm_bytes"] > 0
            assert row["shm"]["shm_segments"] >= 1
        gen = row["generation"]
        assert gen["peak_rss_mb"] > 0
        assert gen["window_size"] == doc["config"]["window_size"]


def test_bit_identity_claimed_and_consistent(doc):
    engines = ["sharded"] + (
        ["shm"] if "shm" in doc["config"]["executors"] else []
    )
    for row in doc["scales"]:
        assert row["identical"] is True
        for engine in engines:
            assert row[engine]["digest"] == row["ref"]["digest"]
            assert row[engine]["rounds"] == row["ref"]["rounds"]


def test_acceptance_criteria(doc):
    crit = doc["criteria"]
    largest = doc["scales"][-1]
    assert crit["speedup_ge_3x"] is True
    assert crit["speedup_at_largest_scale"] == largest["speedup"]
    assert largest["speedup"] >= 3.0
    assert crit["all_identical"] is True
    assert crit["gen_rss_within_2x"] is True
    assert (
        crit["gen_rss_largest_mb"]
        <= 2.0 * max(crit["gen_rss_smallest_mb"], 1.0)
    )


def test_shm_parallel_criterion_gating(doc):
    """The multi-core criterion is enforced on >=4-core hosts and
    recorded-but-gated elsewhere — never silently dropped."""
    crit = doc["criteria"]
    assert crit["shm_parallel_cores"] == doc["host"]["cpu_count"]
    if crit["shm_parallel_gated"]:
        assert (
            crit["shm_parallel_cores"] < 4
            or "shm" not in doc["config"]["executors"]
        )
        assert crit["shm_parallel_ge_2x"] is None
    else:
        assert crit["shm_parallel_ge_2x"] is True
        assert crit["shm_speedup_vs_sharded_at_largest"] >= 2.0


def test_million_user_scale_present(doc):
    assert doc["scales"][-1]["n_users"] >= 1_000_000
