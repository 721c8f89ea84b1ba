"""Tests for repro.runtime.pipeline (pipelined slot execution).

The pipelined executor's contract is *bit-identical* equality with the
serial slot loop — same per-slot records, same recorder state, same
counters (minus the ``runtime.pipeline.*`` overlap meters, which only
exist in pipelined mode) — across every combination of executor ×
faults × autoscaler.  Every comparison here is exact, never approx.
"""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.online import OnlineSoCL
from repro.microservices import eshop_application
from repro.model import ProblemConfig
from repro.network import stadium_topology
from repro.obs import NULL_TRACER, Tracer, current_tracer, use_tracer
from repro.runtime.autoscale import AutoscaleConfig, Autoscaler
from repro.runtime.failures import OutageSchedule
from repro.runtime.pipeline import (
    PIPELINE_MODES,
    AsyncSlotReplay,
    resolve_pipeline,
)
from repro.runtime.resilience import FaultConfig, FaultInjector, ResiliencePolicy
from repro.runtime.simulator import OnlineSimulator
from repro.utils.parallel import shared_memory_available
from repro.workload import WorkloadSpec

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this host"
)


def _run_trace(
    pipeline,
    *,
    seed=7,
    n_users=18,
    n_servers=8,
    slots=4,
    shards=1,
    executor="serial",
    autoscale=False,
    faults=False,
    resilience=False,
    fail_prob=0.0,
    volumes=None,
    traced=False,
    solver=None,
):
    """One full online trace; returns (result, tracer, simulator)."""
    net = stadium_topology(n_servers, seed=seed)
    sim = OnlineSimulator(
        net,
        eshop_application(),
        ProblemConfig(weight=0.5, budget=60.0),
        WorkloadSpec(n_users=n_users, data_scale=5.0),
        seed=seed,
        shards=shards,
        shard_executor=executor,
        autoscaler=Autoscaler() if autoscale else None,
        pipeline=pipeline,
    )
    solver = solver if solver is not None else OnlineSoCL()
    inj = (
        FaultInjector(
            FaultConfig(link_fail_prob=0.3, crash_prob=0.3), seed=seed
        )
        if faults
        else None
    )
    pol = ResiliencePolicy() if resilience else None
    outages = (
        OutageSchedule(n_servers, fail_prob=fail_prob, seed=seed)
        if fail_prob
        else None
    )
    tracer = Tracer("pipeline-test") if traced else None
    try:
        if tracer is not None:
            with use_tracer(tracer):
                result = sim.run(
                    solver, n_slots=slots, volumes=volumes,
                    outages=outages, faults=inj, resilience=pol,
                )
        else:
            result = sim.run(
                solver, n_slots=slots, volumes=volumes,
                outages=outages, faults=inj, resilience=pol,
            )
    finally:
        sim.close()
    return result, tracer, sim


def _trace_digest(result, tracer=None) -> str:
    """SHA-256 over every deterministic field of a trace outcome.

    Covers the per-slot records (all decision/outcome fields — the
    wall-clock ``solver_runtime``/``t_*`` fields are excluded), the
    latency recorder's full state, and the counter totals minus
    ``runtime.pipeline.*`` (the overlap meters exist only in pipelined
    mode by design).
    """
    h = hashlib.sha256()
    for r in result.slots:
        h.update(
            repr((
                r.slot, r.n_requests, r.objective, r.cost,
                r.mean_latency, r.max_latency, r.cold_starts, r.churn,
                r.n_down_nodes, r.n_retries, r.n_hedges, r.n_shed,
                r.n_timeouts, r.n_failed, r.n_provisioned, r.n_warm,
                r.n_scale_ups, r.n_scale_downs, r.n_prewarms,
                r.n_pool_evictions,
            )).encode()
        )
    h.update(result.recorder.slot_means().tobytes())
    h.update(repr(sorted(result.recorder.overall().items())).encode())
    if tracer is not None:
        counters = {
            k: v
            for k, v in tracer.counters.items()
            if not k.startswith("runtime.pipeline.")
        }
        h.update(repr(sorted(counters.items())).encode())
    return h.hexdigest()


def _pair_digests(**kwargs) -> tuple:
    """The same trace serial and pipelined; returns both digests."""
    off_res, off_tr, _ = _run_trace("off", **kwargs)
    on_res, on_tr, _ = _run_trace("on", **kwargs)
    return _trace_digest(off_res, off_tr), _trace_digest(on_res, on_tr)


# ---------------------------------------------------------------------------
# AsyncSlotReplay
# ---------------------------------------------------------------------------
class TestAsyncSlotReplay:
    def test_returns_result(self):
        handle = AsyncSlotReplay(lambda: 41 + 1)
        assert handle.join() == 42
        assert handle.done()
        assert handle.elapsed >= 0.0

    def test_join_is_idempotent(self):
        handle = AsyncSlotReplay(lambda: [1, 2])
        assert handle.join() is handle.join()

    def test_error_reraised_at_join(self):
        def boom():
            raise ValueError("replay exploded")

        handle = AsyncSlotReplay(boom)
        with pytest.raises(ValueError, match="replay exploded"):
            handle.join()
        # re-raised again on a second join, not swallowed
        with pytest.raises(ValueError, match="replay exploded"):
            handle.join()

    def test_runs_under_private_tracer(self):
        """The thread must see the handed tracer as ambient — never the
        caller's (whose span stack is not thread-safe)."""
        private = Tracer("private")

        def work():
            t = current_tracer()
            with t.span("inner"):
                pass
            return t

        main = Tracer("main")
        with use_tracer(main):
            handle = AsyncSlotReplay(work, tracer=private)
            assert handle.join() is private
        assert [s.name for s in private.roots] == ["inner"]
        assert main.roots == []

    def test_defaults_to_null_tracer(self):
        handle = AsyncSlotReplay(lambda: current_tracer())
        assert handle.join() is NULL_TRACER


# ---------------------------------------------------------------------------
# resolve_pipeline
# ---------------------------------------------------------------------------
class TestResolvePipeline:
    def test_explicit_modes_pass_through(self):
        assert resolve_pipeline("on", 1, "serial", 10) is True
        assert resolve_pipeline("off", 8, "shm", 10**6) is False

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError, match="pipeline"):
            resolve_pipeline("yes", 2, "serial", 10)

    def test_simulator_validates_mode(self):
        net = stadium_topology(4, seed=0)
        with pytest.raises(ValueError, match="pipeline"):
            OnlineSimulator(
                net, eshop_application(), ProblemConfig(0.5, 60.0),
                WorkloadSpec(n_users=4), pipeline="always",
            )

    def test_simulator_validates_shard_executor(self):
        net = stadium_topology(4, seed=0)
        with pytest.raises(ValueError, match="serial, shm, auto"):
            OnlineSimulator(
                net, eshop_application(), ProblemConfig(0.5, 60.0),
                WorkloadSpec(n_users=4), shards=2, shard_executor="process",
            )

    def test_auto_requires_multiple_regions(self):
        assert resolve_pipeline("auto", 1, "shm", 10**6) is False

    def test_auto_follows_persistent_executor(self):
        # the explicit worker-pool executor pipelines; in-process does not
        assert resolve_pipeline("auto", 2, "shm", 100) is True
        assert resolve_pipeline("auto", 2, "serial", 100) is False

    def test_modes_constant(self):
        assert PIPELINE_MODES == ("on", "off", "auto")


# ---------------------------------------------------------------------------
# Bit-identity: pipelined vs. serial
# ---------------------------------------------------------------------------
class TestPipelinedBitIdentity:
    def test_flat_path(self):
        off, on = _pair_digests(shards=1, traced=True)
        assert off == on

    def test_sharded_serial(self):
        off, on = _pair_digests(shards=2, executor="serial", traced=True)
        assert off == on

    @needs_shm
    def test_sharded_shm(self):
        off, on = _pair_digests(shards=2, executor="shm", traced=True)
        assert off == on

    def test_with_faults_and_resilience(self):
        off, on = _pair_digests(
            shards=2, faults=True, resilience=True, traced=True
        )
        assert off == on

    def test_with_autoscaler(self):
        off, on = _pair_digests(shards=2, autoscale=True, traced=True)
        assert off == on

    def test_with_outages(self):
        off, on = _pair_digests(shards=2, fail_prob=0.4, traced=True)
        assert off == on

    def test_everything_at_once(self):
        off, on = _pair_digests(
            shards=2, autoscale=True, faults=True,
            resilience=True, fail_prob=0.3, traced=True,
        )
        assert off == on

    def test_auto_mode_matches_off(self):
        """``auto`` must be bit-identical whichever way it resolves."""
        off_res, off_tr, off_sim = _run_trace("off", shards=2, traced=True)
        auto_res, auto_tr, auto_sim = _run_trace(
            "auto", shards=2, traced=True
        )
        assert _trace_digest(off_res, off_tr) == _trace_digest(
            auto_res, auto_tr
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shards=st.integers(min_value=1, max_value=3),
        faults=st.booleans(),
        autoscale=st.booleans(),
    )
    def test_property_pipelined_equals_serial(
        self, seed, shards, faults, autoscale
    ):
        """Property: for any seed × shards × faults × autoscaler
        combination, pipelined and serial digests are equal."""
        off, on = _pair_digests(
            seed=seed, n_users=12, n_servers=6, slots=3, shards=shards,
            faults=faults, autoscale=autoscale, traced=True,
        )
        assert off == on

    def test_span_shapes_identical(self):
        """The grafted replay spans must land exactly where serial mode
        nests them (slot → replay → shard<k> → phases)."""
        _, off_tr, _ = _run_trace("off", shards=2, traced=True)
        _, on_tr, _ = _run_trace("on", shards=2, traced=True)

        def shape(span):
            return (span.name, tuple(shape(c) for c in span.children))

        assert [shape(s) for s in off_tr.roots] == [
            shape(s) for s in on_tr.roots
        ]

    @pytest.mark.parametrize("pipeline", ["off", "on"])
    def test_slot_spans_carry_generate_and_provision(self, pipeline):
        """Every slot attributes its prefix to sibling ``generate`` and
        ``provision`` spans, in that order."""
        _, tracer, _ = _run_trace(pipeline, shards=2, traced=True)
        slots = [s for s in tracer.roots if s.name == "slot"]
        assert len(slots) == 4
        for slot in slots:
            names = [c.name for c in slot.children]
            assert names.index("generate") < names.index("provision")

    def test_pipeline_counters_present_only_when_pipelined(self):
        _, off_tr, _ = _run_trace("off", shards=2, traced=True)
        _, on_tr, _ = _run_trace("on", shards=2, traced=True)
        assert not any(
            k.startswith("runtime.pipeline.") for k in off_tr.counters
        )
        assert on_tr.counters["runtime.pipeline.slots_overlapped"] >= 1
        assert "runtime.pipeline.overlap_seconds" in on_tr.counters
        assert "runtime.pipeline.stall_seconds" in on_tr.counters


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------
class TestPipelinedEdgeCases:
    def test_single_slot(self):
        """One slot: nothing to overlap with — the final join must still
        run the suffix exactly once."""
        off, on = _pair_digests(slots=1, shards=2, traced=True)
        assert off == on
        res, _, _ = _run_trace("on", slots=1, shards=2)
        assert len(res.slots) == 1
        # only the dispatch→join bookkeeping gap can overlap here
        assert res.slots[0].t_overlap < res.slots[0].t_replay + 1e-9

    def test_minimal_volume_slots(self):
        """Slots clamped to a single active user (the smallest window
        the driver can produce)."""
        off, on = _pair_digests(
            volumes=[1, 18, 1, 5], shards=2, traced=True
        )
        assert off == on

    def test_varying_volumes(self):
        off, on = _pair_digests(
            volumes=[3, 18, 7], slots=6, shards=2, traced=True
        )
        assert off == on

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_shard_count_matrix(self, shards):
        off, on = _pair_digests(shards=shards, slots=3, traced=True)
        assert off == on

    def test_phase_fields_recorded(self):
        res, _, _ = _run_trace("on", shards=2)
        for r in res.slots:
            assert r.t_generate > 0.0
            assert r.t_solve > 0.0
            assert r.t_replay > 0.0
            assert r.t_observe > 0.0
            # speculative solves are attributed to the slot they serve
            assert r.solver_runtime == r.t_solve
        # every slot but the last overlaps with a successor's prefix
        assert all(r.t_overlap > 0.0 for r in res.slots[:-1])

    def test_serial_mode_has_no_overlap(self):
        res, _, _ = _run_trace("off", shards=2)
        assert all(r.t_overlap == 0.0 for r in res.slots)
        assert all(r.t_replay > 0.0 for r in res.slots)


# ---------------------------------------------------------------------------
# Teardown with work in flight
# ---------------------------------------------------------------------------
class _ExplodingSolver:
    """Delegates to OnlineSoCL, then explodes on the Nth solve."""

    name = "exploding"

    def __init__(self, explode_at: int):
        self.explode_at = explode_at
        self.calls = 0
        self._inner = OnlineSoCL()

    def solve(self, instance):
        self.calls += 1
        if self.calls == self.explode_at:
            raise RuntimeError("speculative solve exploded")
        return self._inner.solve(instance)


class TestInFlightTeardown:
    @pytest.mark.parametrize("executor", ["serial"])
    def test_prefix_exception_joins_replay(self, executor):
        """An exception in the speculative solve while the previous
        slot's replay is in flight must join the replay thread, leak no
        worker processes, and surface the solver's error."""
        import multiprocessing

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="speculative solve exploded"):
            _run_trace(
                "on", shards=2, executor=executor, slots=4,
                solver=_ExplodingSolver(explode_at=3),
            )
        # the replay thread was joined during unwind
        assert not any(
            t.name == "slot-replay" and t.is_alive()
            for t in threading.enumerate()
        )
        assert threading.active_count() <= before + 1
        for proc in multiprocessing.active_children():
            proc.join(timeout=5.0)
            assert not proc.is_alive()

    @needs_shm
    def test_prefix_exception_frees_shm_context(self):
        """Same unwind with the persistent shm executor: close() after
        the failure must free the arena and workers (no leaked shm
        segments — the ShmArena finalizers assert this on gc)."""
        net = stadium_topology(8, seed=7)
        sim = OnlineSimulator(
            net, eshop_application(), ProblemConfig(0.5, 60.0),
            WorkloadSpec(n_users=18, data_scale=5.0), seed=7,
            shards=2, shard_executor="shm", pipeline="on",
        )
        try:
            with pytest.raises(RuntimeError, match="exploded"):
                sim.run(_ExplodingSolver(explode_at=3), n_slots=4)
        finally:
            sim.close()
        assert sim.shard_context is None
