"""Time-slotted online simulation driver (paper Figs. 9-10, §V.C).

Reproduces the 4-hour trace experiment: users move among edge nodes
(random waypoint), issue requests each ~5-minute slot with stochastic
service dependencies, and the provisioning algorithm re-runs every slot
on the *observed* state — SoCL's "one-shot decision-making" with no
knowledge of future arrivals.  Each slot's requests are then replayed
through the :class:`repro.runtime.cluster.SimulatedCluster`; the warm
instance pool carries across slots, so re-provisioning churn shows up as
cold starts exactly as it would on Kubernetes.

Two optional failure layers compose here: slot-level node outages
(:mod:`repro.runtime.failures`, the ``outages`` argument) degrade nodes
out of the solvable state before each provision, while request-level
faults (:mod:`repro.runtime.resilience`, the ``faults`` argument)
degrade links and crash instances *within* a slot, after the solver has
committed.  A :class:`~repro.runtime.resilience.ResiliencePolicy`
(``resilience`` argument) governs how the replayed cluster absorbs
those faults — retries, hedged re-routing, timeouts, and admission-time
shedding.  With both arguments left at ``None`` the simulation is
bit-identical to the fault-free code path.

A third optional layer, the reactive autoscaler
(:mod:`repro.runtime.autoscale`, the ``autoscaler`` constructor
argument), hooks the slot boundary: after the solver commits it applies
feedback-driven replica deltas and warm-pool actions, and after replay
it folds the slot's utilization/queueing telemetry into its signals.
Like the failure layers it is bit-identical when absent or disabled.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.microservices.application import Application
from repro.model.instance import ProblemConfig, ProblemInstance
from repro.network.topology import EdgeNetwork
from repro.obs import NULL_TRACER, Tracer, current_tracer
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.metrics import LatencyRecorder
from repro.runtime.pipeline import (
    PIPELINE_MODES,
    AsyncSlotReplay,
    resolve_pipeline,
)
from repro.runtime.resilience import FaultInjector, ResiliencePolicy, shed_indices
from repro.runtime.serverless import InstancePool, ServerlessConfig
from repro.runtime.shard import check_shard_executor
from repro.utils.rng import SeedLike, as_generator, spawn
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_positive
from repro.workload.mobility import RandomWaypointMobility
from repro.workload.users import WorkloadSpec, generate_requests

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SlotRecord:
    """Per-slot outcome of the online simulation."""

    slot: int
    n_requests: int
    objective: float
    cost: float
    mean_latency: float
    max_latency: float
    cold_starts: int
    solver_runtime: float
    churn: float
    n_down_nodes: int = 0
    n_retries: int = 0
    n_hedges: int = 0
    n_shed: int = 0
    n_timeouts: int = 0
    n_failed: int = 0
    #: Provisioned (service, node) instances during the slot — the
    #: capacity the cost metric ``instance-seconds`` integrates.
    n_provisioned: int = 0
    #: Warm instances at the slot start (after autoscaler prewarms).
    n_warm: int = 0
    #: Autoscaler actions taken at this slot's boundary (all zero when
    #: no autoscaler is attached — purely additive reporting).
    n_scale_ups: int = 0
    n_scale_downs: int = 0
    n_prewarms: int = 0
    n_pool_evictions: int = 0
    #: Per-slot phase breakdown (wall seconds).  ``t_generate`` covers
    #: mobility/churn, window generation and the problem build;
    #: ``t_solve`` is the provisioning solve *for this slot* even when
    #: the pipelined executor ran it speculatively during the previous
    #: slot's replay; ``t_replay`` is the execute stage's own wall time;
    #: ``t_observe`` the sequential suffix (recorder/autoscaler fold-in).
    t_generate: float = 0.0
    t_solve: float = 0.0
    t_replay: float = 0.0
    t_observe: float = 0.0
    #: Replay seconds hidden behind the next slot's prefix (0.0 in
    #: serial mode and for the final slot, which has nothing to overlap
    #: with).  ``t_replay - t_overlap`` is the slot's exposed replay.
    t_overlap: float = 0.0


@dataclass
class OnlineTraceResult:
    """Full trace outcome for one algorithm."""

    solver_name: str
    slots: list[SlotRecord]
    recorder: LatencyRecorder

    @property
    def mean_delay(self) -> float:
        """Trace-average per-request delay (Fig. 10 headline)."""
        return float(self.recorder.overall()["mean"])

    @property
    def max_delay(self) -> float:
        """Worst per-request delay observed across the trace."""
        return float(self.recorder.overall()["max"])

    @property
    def p99_delay(self) -> float:
        """99th-percentile per-request delay (resilience experiment metric)."""
        return float(self.recorder.overall()["p99"])

    @property
    def completion_rate(self) -> float:
        """Fraction of submitted requests that completed end to end.

        Requests lost to crashes, timeouts, or shedding count against
        this; without faults it is 1.0 by construction.
        """
        total = sum(r.n_requests for r in self.slots)
        done = int(self.recorder.total_count)
        return done / total if total else 1.0

    def slot_means(self) -> np.ndarray:
        """Average delay per slot (Fig. 10's trace series)."""
        return self.recorder.slot_means()

    def instance_seconds(self, slot_seconds: float = 300.0) -> float:
        """Provisioned capacity integrated over the trace (cost metric).

        Each slot contributes ``n_provisioned × slot_seconds`` — the
        serverless bill for keeping those instances allocated, whether
        or not they served traffic.  The autoscale sweep compares this
        against completion rate and p99 latency (docs/AUTOSCALING.md).
        """
        return float(
            sum(r.n_provisioned for r in self.slots) * slot_seconds
        )


@dataclass
class _SlotState:
    """Everything one slot carries between its pipeline stages.

    The slot loop is split into *prefix* (window generation + solve),
    *mid* (autoscale/pool/fault commit + dispatch inputs), *execute*
    (replay) and *suffix* (fold-in); pipelined mode runs stages of
    adjacent slots interleaved, so their shared state lives in this
    explicit carrier instead of loop locals.
    """

    slot: int
    span: object = None
    churn: float = 0.0
    down: frozenset = frozenset()
    result: object = None
    instance: object = None
    placement: object = None
    routing: object = None
    cluster: object = None
    offsets: Optional[np.ndarray] = None
    shed_set: frozenset = frozenset()
    cold_before: int = 0
    n_provisioned: int = 0
    n_warm: int = 0
    n_scale_ups: int = 0
    n_scale_downs: int = 0
    n_prewarms: int = 0
    n_pool_evictions: int = 0
    slot_faults: object = None
    replay_cols: object = None
    outcomes: list = field(default_factory=list)
    #: In-flight background replay (pipelined mode only).
    handle: Optional[AsyncSlotReplay] = None
    #: Private tracer the replay thread ran under (merged at join).
    replay_tracer: object = None
    dispatched_at: float = 0.0
    t_generate: float = 0.0
    t_solve: float = 0.0
    t_replay: float = 0.0
    t_observe: float = 0.0
    t_overlap: float = 0.0
    t_stall: float = 0.0


@dataclass
class _RunContext:
    """Mutable cross-slot state of one :meth:`OnlineSimulator.run`."""

    solver: object
    recorder: LatencyRecorder
    tracer: object
    faults: Optional[FaultInjector]
    resilience: Optional[ResiliencePolicy]
    resilient: bool
    pipelined: bool
    prev_homes: np.ndarray
    records: list = field(default_factory=list)
    pool: Optional[InstancePool] = None


def _shift_span(span, delta: float) -> None:
    """Rebase a span subtree's starts by ``delta`` seconds (in place).

    Spans record ``start`` relative to their owning tracer's epoch; a
    replay thread's private tracer has its own epoch, so its spans are
    shifted onto the main tracer's timeline before grafting.
    """
    span.start += delta
    for child in span.children:
        _shift_span(child, delta)


class OnlineSimulator:
    """Drives one algorithm through a mobile, time-varying workload."""

    def __init__(
        self,
        network: EdgeNetwork,
        app: Application,
        problem_config: ProblemConfig,
        workload: WorkloadSpec,
        slot_seconds: float = 300.0,
        move_prob: float = 0.3,
        serverless: ServerlessConfig = ServerlessConfig(),
        seed: SeedLike = None,
        fast_replay: bool = True,
        shards: int = 1,
        shard_executor: str = "serial",
        exact_latencies: bool = False,
        autoscaler=None,
        pipeline: str = "auto",
    ):
        check_positive("slot_seconds", slot_seconds)
        self.network = network
        self.app = app
        self.problem_config = problem_config
        self.workload = workload
        self.slot_seconds = float(slot_seconds)
        self.serverless = serverless
        check_positive("shards", shards)
        #: With ``shards > 1`` every fault-free slot replays through the
        #: region-sharded engine (:mod:`repro.runtime.shard`), nodes
        #: partitioned geographically by k-means over their positions.
        #: Results stay bit-identical to the flat replay; only the
        #: memory/scaling profile changes.  ``shard_executor`` picks
        #: ``"serial"`` (in-process), ``"shm"`` (persistent workers over
        #: a shared-memory arena — the simulator owns one
        #: :class:`repro.runtime.shard.ShmReplayContext` reused across
        #: every slot), or ``"auto"`` (serial below a users-per-shard
        #: threshold, shm above; see
        #: :func:`repro.runtime.shard.resolve_shard_executor`).
        self.shards = int(shards)
        check_shard_executor(shard_executor)
        self.shard_executor = shard_executor
        self.region_map = None
        if self.shards > 1:
            from repro.runtime.shard import RegionMap

            self.region_map = RegionMap.from_positions(
                network.positions, self.shards
            )
        #: Lazily-built persistent shm executor state; created on first
        #: use, freed by :meth:`close` (or on garbage collection via
        #: the pool/arena finalizers).
        self.shard_context = None
        #: Use the vectorized fault-free replay
        #: (:mod:`repro.runtime.replay`) for slots without faults or a
        #: resilience policy; results are bit-identical to the event
        #: loop, so this only changes wall-clock.  Set ``False`` to
        #: force the event loop everywhere (benchmark baseline).
        self.fast_replay = fast_replay
        #: ``True`` keeps every per-request latency in memory
        #: (``mode="exact"`` on the recorder) for golden-result parity
        #: on small runs; the default recorder spills to a streaming
        #: histogram past ~65k samples so trace memory stays flat at
        #: 1M users (see :class:`repro.runtime.metrics.LatencyRecorder`).
        self.exact_latencies = bool(exact_latencies)
        #: Optional :class:`repro.runtime.autoscale.Autoscaler` — the
        #: reactive feedback-control loop over the serverless pools.
        #: Hooked at the slot boundary: ``adjust`` after the solver
        #: commits (replica deltas + warm-pool actions), ``observe``
        #: after replay (utilization/queueing signals).  ``None`` (or a
        #: disabled autoscaler) leaves every slot bit-identical to the
        #: static pipeline (docs/AUTOSCALING.md).
        self.autoscaler = autoscaler
        #: Pipelined slot execution (:mod:`repro.runtime.pipeline`):
        #: ``"on"`` dispatches each slot's replay to a background thread
        #: and runs the next slot's window generation + solve while it
        #: is in flight; ``"off"`` keeps the fully serial loop;
        #: ``"auto"`` (default) pipelines only when the shm shard
        #: executor would carry the replay —
        #: overlapping with an in-process replay just adds GIL
        #: contention.  Either way the trace is bit-identical to the
        #: serial loop (docs/RUNTIME.md, "Pipelined slot execution").
        if pipeline not in PIPELINE_MODES:
            raise ValueError(
                f"pipeline must be one of {PIPELINE_MODES}, got {pipeline!r}"
            )
        self.pipeline = pipeline
        rng = as_generator(seed)
        self._mobility_rng, self._workload_rng, self._arrival_rng = spawn(rng, 3)
        self.mobility = RandomWaypointMobility(
            network,
            workload.n_users,
            move_prob=move_prob,
            seed=self._mobility_rng,
        )

    def close(self) -> None:
        """Release the persistent shm executor state (workers, arena).

        Idempotent; a no-op unless a shm slot actually ran.  The
        simulator is also a context manager for scoped use.
        """
        if self.shard_context is not None:
            self.shard_context.close()
            self.shard_context = None

    def __enter__(self) -> "OnlineSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _record_flight_snapshot(
        self, flight, slot: int, record, latencies, replay_cols, cluster
    ) -> None:
        """Capture one per-slot runtime snapshot into ``flight``.

        Fields beyond the recorder's automatic RSS: request counts,
        replay/fixpoint rounds, and shm arena utilization + worker-pool
        state (when the shm executor is live).  Values are numeric or
        ``None`` per the ``snapshot`` record schema.
        """
        fields: dict = {
            "requests": float(record.n_requests),
            "completed": float(latencies.size),
            "cold_starts": float(record.cold_starts),
            "replay_rounds": (
                float(replay_cols.rounds) if replay_cols is not None else None
            ),
            "t_generate": float(record.t_generate),
            "t_solve": float(record.t_solve),
            "t_replay": float(record.t_replay),
            "t_observe": float(record.t_observe),
            "t_overlap": float(record.t_overlap),
        }
        shard_stats = cluster.last_shard_stats
        if shard_stats is not None:
            fields["shard_rounds"] = float(shard_stats.rounds)
            fields["shard_exchange_rounds"] = float(
                shard_stats.exchange_rounds
            )
        ctx = self.shard_context
        if ctx is not None and ctx.arena is not None:
            fields["arena_used_bytes"] = float(ctx.arena.used)
            fields["arena_capacity_bytes"] = float(ctx.arena.nbytes)
            fields["arena_segments"] = float(ctx.segments_created)
            fields["pool_spawns"] = float(ctx.pool_spawns)
            fields["pool_workers"] = (
                float(ctx.pool.n_workers)
                if ctx.pool is not None and not ctx.pool.closed
                else 0.0
            )
        asc = self.autoscaler
        if asc is not None and asc.enabled:
            fields["autoscale_provisioned"] = float(record.n_provisioned)
            fields["autoscale_warm"] = float(record.n_warm)
            fields["autoscale_scale_ups"] = float(asc.stats.scale_ups)
            fields["autoscale_scale_downs"] = float(asc.stats.scale_downs)
            fields["autoscale_prewarms"] = float(asc.stats.prewarms)
            fields["autoscale_evictions"] = float(asc.stats.evictions)
        flight.snapshot(slot, **fields)

    def run(
        self,
        solver,
        n_slots: int,
        volumes: Optional[Sequence[int]] = None,
        outages=None,
        faults: Optional[FaultInjector] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> OnlineTraceResult:
        """Simulate ``n_slots`` slots with ``solver`` re-provisioning.

        ``volumes`` optionally sets the number of active requests per
        slot (from a :class:`repro.workload.trace.TemporalTrace`); it is
        capped at the user population.  ``outages`` is an optional
        :class:`repro.runtime.failures.OutageSchedule`: each slot its
        down nodes are degraded out of the solvable state before the
        solver runs (failure-injection experiments).

        ``faults`` is an optional
        :class:`repro.runtime.resilience.FaultInjector`: after the
        solver commits a placement, per-slot link degradations and
        instance crashes are drawn (slot-addressable, independent of
        the workload RNG streams) and applied during cluster replay.
        Solvers exposing ``note_failures`` (e.g.
        :class:`repro.core.online.OnlineSoCL`) are told which instances
        crashed so the next slot's warm start can route around them.
        ``resilience`` is an optional
        :class:`repro.runtime.resilience.ResiliencePolicy` governing
        retries, hedging, timeouts, and admission-time shedding; without
        it, a crashed invocation is a hard failure.  Both default to
        ``None``, which leaves every placement, routing, and objective
        bit-identical to the fault-free simulation.

        When the simulator was constructed with an enabled
        ``autoscaler`` (:mod:`repro.runtime.autoscale`), each slot
        additionally runs the feedback loop: replica deltas and
        warm-pool actions after the solver commits, telemetry
        observation after replay (docs/AUTOSCALING.md).  Absent or
        disabled, the same bit-identity contract applies.
        """
        check_positive("n_slots", n_slots)
        tracer = current_tracer()
        n_regions = (
            self.region_map.n_regions if self.region_map is not None else 1
        )
        ctx = _RunContext(
            solver=solver,
            recorder=LatencyRecorder(
                mode="exact" if self.exact_latencies else "auto"
            ),
            tracer=tracer,
            faults=faults,
            resilience=resilience,
            resilient=faults is not None or resilience is not None,
            pipelined=resolve_pipeline(
                self.pipeline,
                n_regions,
                self.shard_executor,
                self.workload.n_users,
            ),
            prev_homes=self.mobility.homes,
        )

        pending: Optional[_SlotState] = None
        try:
            for slot in range(n_slots):
                with tracer.span("slot", index=slot) as slot_span:
                    state = self._slot_prefix(ctx, slot, volumes, outages)
                    state.span = slot_span
                    if pending is not None:
                        # the previous slot's replay overlapped this
                        # slot's prefix; fold it in before committing
                        # this slot (its autoscaler adjust consumes the
                        # signals observed here)
                        done, pending = pending, None
                        self._join_pending(ctx, done)
                    self._slot_mid(ctx, state)
                    if ctx.pipelined:
                        state.replay_tracer = (
                            Tracer(f"replay{slot}")
                            if tracer.enabled
                            else NULL_TRACER
                        )
                        state.dispatched_at = time.perf_counter()
                        state.handle = AsyncSlotReplay(
                            lambda s=state: self._slot_execute(s),
                            tracer=state.replay_tracer,
                        )
                        pending = state
                    else:
                        t0 = time.perf_counter()
                        state.replay_cols, state.outcomes = (
                            self._slot_execute(state)
                        )
                        state.t_replay = time.perf_counter() - t0
                        self._slot_suffix(ctx, state)
            if pending is not None:
                done, pending = pending, None
                self._join_pending(ctx, done)
        finally:
            if pending is not None:
                # An exception is propagating with a replay still in
                # flight: wait it out (the thread owns the worker pool's
                # in-flight batch, so abandoning it would strand the
                # workers mid-batch) and swallow its own outcome so the
                # primary error surfaces.
                try:
                    pending.handle.join()
                except BaseException:
                    logger.exception(
                        "in-flight replay for slot %d failed during unwind",
                        pending.slot,
                    )
        return OnlineTraceResult(
            solver_name=getattr(solver, "name", type(solver).__name__),
            slots=ctx.records,
            recorder=ctx.recorder,
        )

    def _slot_prefix(
        self, ctx: _RunContext, slot: int, volumes, outages
    ) -> _SlotState:
        """Speculative stage: window generation plus the slot's solve.

        Traced as two sibling spans under the slot: ``generate``
        (mobility step, arrivals, request generation, instance build and
        outage degrade) and ``provision`` (the solve).

        Reads only the solver's own state, the workload/mobility RNG
        streams and the outage schedule — never the instance pool, the
        autoscaler, or replay output — so pipelined mode can run it
        while the previous slot's replay is still in flight (the
        speculative-solve contract; see
        :class:`repro.core.online.OnlineSoCL`).
        """
        tracer = ctx.tracer
        state = _SlotState(slot=slot)
        t0 = time.perf_counter()
        with tracer.span("generate"):
            homes = self.mobility.step()
            state.churn = float(np.mean(homes != ctx.prev_homes))
            ctx.prev_homes = homes

            n_active = self.workload.n_users
            if volumes is not None:
                n_active = int(
                    min(self.workload.n_users, volumes[slot % len(volumes)])
                )
                n_active = max(1, n_active)
            active = self._arrival_rng.choice(
                self.workload.n_users, size=n_active, replace=False
            )

            requests = generate_requests(
                self.network,
                self.app,
                replace(self.workload, n_users=n_active),
                rng=self._workload_rng,
                homes=homes[active],
            )
            instance = ProblemInstance(
                self.network, self.app, requests, self.problem_config
            )
            if outages is not None:
                from repro.runtime.failures import degrade_instance

                state.down = outages.step()
                instance = degrade_instance(instance, state.down)
        state.instance = instance
        state.t_generate = time.perf_counter() - t0

        sw = Stopwatch()
        with sw.measure(), tracer.span("provision"):
            state.result = ctx.solver.solve(instance)
        state.t_solve = sw.elapsed
        state.placement = state.result.placement
        state.routing = state.result.routing
        return state

    def _slot_mid(self, ctx: _RunContext, state: _SlotState) -> None:
        """Sequential commit stage: everything between solve and replay.

        Runs strictly after the previous slot's suffix in both modes —
        the autoscaler adjusts from its freshly observed signals and the
        fault draw sees the post-adjust placement — and ends with the
        slot ready to execute (cluster built, arrival offsets drawn,
        shedding applied).
        """
        tracer = ctx.tracer
        slot, instance = state.slot, state.instance
        placement, routing = state.placement, state.routing
        autoscaling = (
            self.autoscaler is not None and self.autoscaler.enabled
        )
        pool_actions: tuple = ()
        if autoscaling:
            with tracer.span("autoscale"):
                placement, routing, pool_actions = (
                    self.autoscaler.adjust(
                        slot, instance, placement, routing
                    )
                )

        if ctx.pool is None:
            ctx.pool = InstancePool(placement, self.serverless)
        else:
            ctx.pool.update_placement(placement)
        pool = ctx.pool
        if autoscaling:
            stats = self.autoscaler.stats
            state.n_scale_ups = sum(
                1 for a in pool_actions if a.kind == "up"
            )
            state.n_scale_downs = sum(
                1 for a in pool_actions if a.kind == "down"
            )
            pw_before, ev_before = stats.prewarms, stats.evictions
            # slot-local clock: 0.0 is the slot start, so the
            # prewarmed instances stay warm for the whole slot
            self.autoscaler.apply_pool(pool, pool_actions, now=0.0)
            state.n_prewarms = stats.prewarms - pw_before
            state.n_pool_evictions = stats.evictions - ev_before
        state.cold_before = pool.cold_starts
        state.n_provisioned = pool.n_provisioned
        state.n_warm = pool.warm_count(0.0)

        if ctx.faults is not None:
            state.slot_faults = ctx.faults.for_slot(
                slot, placement, self.slot_seconds
            )
            if state.slot_faults.crashes:
                note = getattr(ctx.solver, "note_failures", None)
                if note is not None:
                    note(sorted(state.slot_faults.crashes))

        if (
            self.region_map is not None
            and self.shard_context is None
            and self.shard_executor in ("shm", "auto")
        ):
            from repro.runtime.shard import ShmReplayContext

            # persistent arena + workers, reused every slot
            # (cheap until the first slot actually resolves to
            # the shm engine)
            self.shard_context = ShmReplayContext()
        state.cluster = SimulatedCluster(
            instance,
            placement,
            routing,
            pool=pool,
            faults=state.slot_faults,
            policy=ctx.resilience,
            fast_replay=self.fast_replay,
            region_map=self.region_map,
            shard_executor=self.shard_executor,
            shard_context=self.shard_context,
        )
        # arrivals spread uniformly across the slot
        state.offsets = self._arrival_rng.uniform(
            0.0, self.slot_seconds, size=instance.n_requests
        )
        if ctx.resilience is not None and ctx.resilience.shedding:
            capacity = (
                sum(nd.compute * nd.cores for nd in state.cluster.nodes)
                * self.slot_seconds
            )
            state.shed_set = frozenset(
                int(i)
                for i in shed_indices(instance, ctx.resilience, capacity)
            )
            for h in sorted(state.shed_set):
                state.cluster.shed(h, float(state.offsets[h]))
        state.placement, state.routing = placement, routing
    def _slot_execute(self, state: _SlotState) -> tuple:
        """Execute stage: replay the slot's requests through the cluster.

        Reads the *ambient* tracer so the ``replay`` span lands on the
        main tracer when run inline (serial mode) and on the replay
        thread's private tracer when run via :class:`AsyncSlotReplay`
        (pipelined mode — the span stack is not thread-safe, so the
        thread must never touch the main tracer).
        """
        tracer = current_tracer()
        replay_cols = None
        outcomes: list = []
        with tracer.span("replay"):
            if not state.shed_set:
                # Columnar fast path: declines (None) under
                # faults/resilience or event-order ties, in
                # which case the event loop below replays the
                # identical slot.
                replay_cols = state.cluster.replay(state.offsets)
            if replay_cols is None:
                outcomes = state.cluster.run(
                    arrivals=[
                        (h, float(state.offsets[h]))
                        for h in range(state.instance.n_requests)
                        if h not in state.shed_set
                    ]
                )
        return replay_cols, outcomes

    def _join_pending(self, ctx: _RunContext, state: _SlotState) -> None:
        """Join an in-flight replay and run its deferred suffix."""
        join_start = time.perf_counter()
        state.replay_cols, state.outcomes = state.handle.join()
        state.t_stall = time.perf_counter() - join_start
        state.t_replay = state.handle.elapsed
        # replay seconds already hidden when the join began, capped at
        # the replay's own wall time (the prefix may outlast it)
        state.t_overlap = min(
            max(join_start - state.dispatched_at, 0.0), state.t_replay
        )
        self._merge_replay_tracer(ctx.tracer, state)
        self._slot_suffix(ctx, state)

    def _merge_replay_tracer(self, tracer, state: _SlotState) -> None:
        """Fold the replay thread's private tracer into the main one.

        Counters and histograms merge additively — the same totals the
        serial mode accumulates in place, so counter digests stay
        identical.  The thread's span forest (the ``replay`` span plus
        any worker payloads grafted under it) is rebased from the
        private tracer's epoch onto the main tracer's and appended to
        the slot's span — exactly where serial mode nests it.
        """
        ptracer = state.replay_tracer
        if not tracer.enabled or ptracer is None or not ptracer.enabled:
            return
        tracer.metrics.merge(ptracer.metrics)
        delta = ptracer._epoch - tracer._epoch
        for root in ptracer.roots:
            _shift_span(root, delta)
            state.span.children.append(root)

    def _slot_suffix(self, ctx: _RunContext, state: _SlotState) -> None:
        """Sequential fold-in stage: recorder, observe, record, counters.

        Runs on the main thread after the slot's replay has finished —
        immediately in serial mode, at join time in pipelined mode (for
        slot *t* that is inside slot *t+1*'s prefix/mid window, which is
        why everything here keys off ``state``, not ambient loop
        variables).
        """
        tracer = ctx.tracer
        pool = ctx.pool
        slot, instance = state.slot, state.instance
        replay_cols, outcomes = state.replay_cols, state.outcomes
        t0 = time.perf_counter()
        if replay_cols is not None:
            latencies = replay_cols.latency
        else:
            latencies = np.array([o.latency for o in outcomes if o.done])
        ctx.recorder.record_slot(latencies)
        autoscaling = (
            self.autoscaler is not None and self.autoscaler.enabled
        )
        if autoscaling:
            if replay_cols is not None:
                obs_req, obs_queue = (
                    replay_cols.request,
                    replay_cols.queueing,
                )
            else:
                obs_req = np.array(
                    [o.request for o in outcomes if o.done],
                    dtype=np.int64,
                )
                obs_queue = np.array(
                    [o.queueing for o in outcomes if o.done]
                )
            self.autoscaler.observe(
                instance,
                state.routing,
                state.cluster,
                obs_req,
                obs_queue,
                self.slot_seconds,
            )
        n_retries = n_hedges = n_shed = n_timeouts = n_failed = 0
        if ctx.resilient:
            for o in outcomes:
                n_retries += o.retries
                n_hedges += o.hedges
                if o.status == "shed":
                    n_shed += 1
                elif o.status == "timeout":
                    n_timeouts += 1
                elif o.status == "failed":
                    n_failed += 1
        state.t_observe = time.perf_counter() - t0
        record = SlotRecord(
            slot=slot,
            n_requests=instance.n_requests,
            objective=state.result.report.objective,
            cost=state.result.report.cost,
            mean_latency=float(latencies.mean()) if latencies.size else 0.0,
            max_latency=float(latencies.max()) if latencies.size else 0.0,
            cold_starts=pool.cold_starts - state.cold_before,
            solver_runtime=state.t_solve,
            churn=state.churn,
            n_down_nodes=len(state.down),
            n_retries=n_retries,
            n_hedges=n_hedges,
            n_shed=n_shed,
            n_timeouts=n_timeouts,
            n_failed=n_failed,
            n_provisioned=state.n_provisioned,
            n_warm=state.n_warm,
            n_scale_ups=state.n_scale_ups,
            n_scale_downs=state.n_scale_downs,
            n_prewarms=state.n_prewarms,
            n_pool_evictions=state.n_pool_evictions,
            t_generate=state.t_generate,
            t_solve=state.t_solve,
            t_replay=state.t_replay,
            t_observe=state.t_observe,
            t_overlap=state.t_overlap,
        )
        ctx.records.append(record)
        if tracer.enabled:
            slot_span = state.span
            slot_span.set_attr(
                n_requests=record.n_requests,
                completed=int(latencies.size),
                cold_starts=record.cold_starts,
                churn=round(record.churn, 4),
                n_down_nodes=record.n_down_nodes,
                t_solve_ms=round(state.t_solve * 1e3, 3),
                t_replay_ms=round(state.t_replay * 1e3, 3),
                t_overlap_ms=round(state.t_overlap * 1e3, 3),
            )
            tracer.inc("runtime.slots")
            tracer.inc("runtime.requests_total", record.n_requests)
            tracer.inc("runtime.requests_completed", int(latencies.size))
            tracer.inc(
                "runtime.requests_dropped",
                record.n_requests - int(latencies.size),
            )
            tracer.inc("runtime.cold_starts", record.cold_starts)
            tracer.inc("runtime.node_down_slots", int(bool(state.down)))
            # fixed-memory streaming histograms: per-request
            # completion latency / queueing delay and per-slot
            # fixpoint rounds (docs/OBSERVABILITY.md)
            tracer.observe_many(
                "runtime.latency.completion", latencies
            )
            if replay_cols is not None:
                tracer.observe_many(
                    "runtime.latency.queueing", replay_cols.queueing
                )
                tracer.observe(
                    "runtime.replay.rounds", replay_cols.rounds
                )
            if replay_cols is not None:
                tracer.inc("runtime.replay_fast_slots")
                tracer.inc("runtime.replay_rounds", replay_cols.rounds)
                shard_stats = state.cluster.last_shard_stats
                if shard_stats is not None:
                    tracer.inc("runtime.shard.slots")
                    tracer.inc(
                        "runtime.shard.rounds", shard_stats.rounds
                    )
                    tracer.inc(
                        "runtime.shard.exchange_rounds",
                        shard_stats.exchange_rounds,
                    )
                    tracer.inc(
                        "runtime.shard.boundary_invocations",
                        shard_stats.boundary_invocations,
                    )
                    tracer.inc(
                        "runtime.shard.local_invocations",
                        shard_stats.local_invocations,
                    )
                    tracer.inc(
                        "runtime.shard.ready_values_exchanged",
                        shard_stats.ready_values_exchanged,
                    )
                    tracer.inc(
                        "runtime.shard.start_values_exchanged",
                        shard_stats.start_values_exchanged,
                    )
                    if shard_stats.executor == "shm":
                        tracer.inc("runtime.shard.shm_slots")
                        tracer.inc(
                            "runtime.shard.shm_bytes",
                            shard_stats.shm_bytes,
                        )
                        tracer.inc(
                            "runtime.shard.shm_pool_reuses",
                            int(shard_stats.pool_reused),
                        )
            elif not ctx.resilient:
                tracer.inc("runtime.replay_fallback_slots")
            if ctx.resilient:
                slot_span.set_attr(
                    retries=n_retries,
                    hedges=n_hedges,
                    shed=n_shed,
                    timeouts=n_timeouts,
                )
                tracer.inc("runtime.retries", n_retries)
                tracer.inc("runtime.hedges", n_hedges)
                tracer.inc("runtime.shed", n_shed)
                tracer.inc("runtime.timeouts", n_timeouts)
                tracer.inc("runtime.failed", n_failed)
                if state.slot_faults is not None:
                    tracer.inc(
                        "runtime.instance_crashes",
                        state.slot_faults.n_crashes,
                    )
                    tracer.inc(
                        "runtime.degraded_links",
                        state.slot_faults.n_degraded_links,
                    )
            if ctx.pipelined:
                # excluded from the serial-vs-pipelined counter digest
                # (these exist only to measure the pipelining itself)
                tracer.inc(
                    "runtime.pipeline.overlap_seconds", state.t_overlap
                )
                tracer.inc(
                    "runtime.pipeline.stall_seconds", state.t_stall
                )
                if state.t_overlap > 0.0:
                    tracer.inc("runtime.pipeline.slots_overlapped")
            flight = getattr(tracer, "flight", None)
            if flight is not None:
                self._record_flight_snapshot(
                    flight, slot, record, latencies, replay_cols,
                    state.cluster,
                )
        logger.debug(
            "slot %d: %d requests, mean latency %.3fs, %d cold starts",
            slot,
            record.n_requests,
            record.mean_latency,
            record.cold_starts,
        )
