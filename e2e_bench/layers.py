"""Outside-in instrumentation of the SoCL reproduction.

Nothing here edits the program: every hook is a wrapper installed over a
public function or method of the ``repro`` package, after import, and
removed again by :meth:`Patches.restore`.

* :class:`Probe` is installed in *every* measured process, traced or
  not.  It keeps the slot clock (one timestamp per
  ``RandomWaypointMobility.step``, the first call of every online slot),
  takes a host-speed sample (:mod:`hostref`) between slots, and runs
  the correctness gate: solver feasibility, per-slot offered load and
  per-request latency sanity.  Its cost is a few calls per slot.
* :class:`SpanRecorder` is installed only for traced runs.  It
  wraps the public entry points of each layer (:data:`TARGETS`) and
  records one span per call: name, start, end, parent, slot index,
  thread.  Spans are kept in memory and written out when the run ends.

:func:`layer_metrics` turns the recorded spans into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import hostref

#: Layers in report order; a span's layer is the prefix of its name.
LAYERS = ("workload", "model", "core", "runtime")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` at every ``repro`` module binding it.

        ``from m import f`` copies the binding, so the wrapper must be
        set wherever the original object is bound, not only at its home.
        """
        original = getattr(importlib.import_module(module), attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, wrapped)

    def method(self, cls_path: str, attr: str, make: Callable) -> None:
        module, _, cls_name = cls_path.partition(":")
        cls = getattr(importlib.import_module(module), cls_name)
        self.set(cls, attr, make(cls.__dict__[attr]))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Spans


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    slot: int = -1
    thread: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_attrs(args, result) -> dict:
    mode = (getattr(result, "extra", None) or {}).get("mode")
    return {"mode": mode} if mode else {}


def _solve_socl_attrs(args, result) -> dict:
    return {
        "serial_merges": int(result.stats.serial_merges),
        "rollbacks": int(result.stats.rollbacks),
    }


def _replay_attrs(args, result) -> dict:
    if result is None:
        return {"declined": True}
    attrs = {"rounds": int(result.rounds)}
    stats = args[0].last_shard_stats
    if stats is not None:
        attrs.update(
            shard_rounds=int(stats.rounds),
            exchange_rounds=int(stats.exchange_rounds),
            boundary_invocations=int(stats.boundary_invocations),
        )
    return attrs


def _region_attrs(args, result) -> dict:
    return {"region": int(args[0].region)}


#: ``(kind, owner, attribute, span name, attrs-from-(args, result))``.
#: ``kind`` is ``"function"`` (owner is a module) or ``"method"`` (owner
#: is ``module:Class``).
TARGETS = (
    ("function", "repro.workload.users", "generate_requests", "workload.generate", None),
    ("method", "repro.workload.mobility:RandomWaypointMobility", "step", "workload.mobility", None),
    ("method", "repro.model.instance:ProblemInstance", "__init__", "model.instance", None),
    ("function", "repro.model.routing", "optimal_routing", "model.routing", None),
    ("function", "repro.model.routing", "greedy_routing", "model.routing", None),
    ("function", "repro.model.routing", "partial_reroute", "model.routing", None),
    ("function", "repro.model.objective", "evaluate", "model.evaluate", None),
    ("function", "repro.model.constraints", "feasibility_report", "model.evaluate", None),
    ("method", "repro.core.online:OnlineSoCL", "solve", "core.solve", _solve_attrs),
    ("function", "repro.core.socl", "solve_socl", "core.solve_socl", _solve_socl_attrs),
    ("function", "repro.core.partition", "initial_partition", "core.partition", None),
    ("function", "repro.core.preprovision", "preprovision", "core.preprovision", None),
    ("function", "repro.core.combination", "multi_scale_combination", "core.combination", None),
    ("function", "repro.core.storage", "storage_plan", "core.storage_plan", None),
    ("function", "repro.core.storage", "order_factor", "core.order_factor", None),
    ("function", "repro.core.combination", "dependency_conflict_pairs", "core.conflict_pairs", None),
    ("method", "repro.runtime.cluster:SimulatedCluster", "__init__", "runtime.cluster_build", None),
    ("method", "repro.runtime.cluster:SimulatedCluster", "replay", "runtime.replay", _replay_attrs),
    ("method", "repro.runtime.cluster:SimulatedCluster", "run", "runtime.event_loop", None),
    ("method", "repro.runtime.serverless:InstancePool", "__init__", "runtime.pool", None),
    ("method", "repro.runtime.serverless:InstancePool", "update_placement", "runtime.pool", None),
    ("method", "repro.runtime.metrics:LatencyRecorder", "record_slot", "runtime.record", None),
    ("method", "repro.runtime.shard:RegionShard", "begin", "runtime.shard", _region_attrs),
    ("method", "repro.runtime.shard:RegionShard", "step_sim", "runtime.shard", _region_attrs),
    ("method", "repro.runtime.shard:RegionShard", "step_prop", "runtime.shard", _region_attrs),
    ("method", "repro.runtime.shard:RegionShard", "finalize", "runtime.shard", _region_attrs),
)


class SpanRecorder:
    """Thread-safe in-memory span store fed by wrappers from :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.slot = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = Patches()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, attrs: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(
                name,
                time.perf_counter(),
                parent=stack[-1] if stack else -1,
                slot=self.slot,
                thread=threading.current_thread().name,
            )
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

        return wrapper

    def install(self) -> None:
        for kind, owner, attr, name, attrs in TARGETS:
            make = functools.partial(self.wrap, name=name, attrs=attrs)
            if kind == "function":
                self._patches.function(owner, attr, make)
            else:
                self._patches.method(owner, attr, make)

    def restore(self) -> None:
        self._patches.restore()

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps({
                        "id": i, "name": s.name, "start": s.start,
                        "end": s.end, "parent": s.parent, "slot": s.slot,
                        "thread": s.thread, **s.attrs,
                    })
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Probe: slot clock and correctness gate


def offered_load(instance, routing, cores: int, slot_seconds: float) -> np.ndarray:
    """Per-node offered load ρ of one slot from the solver's routing.

    ρ_k = (GFLOP of every invocation routed to node k) ÷ (compute_k ×
    cores × slot length).  Invocations routed to the cloud are left out:
    the cloud executes without queueing.
    """
    chain = instance.chain_matrix
    nodes = routing.assignment
    edge = (chain >= 0) & (nodes >= 0) & (nodes < instance.cloud)
    work = np.bincount(
        nodes[edge],
        weights=instance.service_compute[chain[edge]],
        minlength=instance.n_servers,
    )
    capacity = np.asarray(instance.network.compute, dtype=np.float64)
    return work / (capacity * cores * slot_seconds)


class Probe:
    """Slot clock, host-speed samples and correctness checks, installed
    in every measuring process.

    ``slot_walls`` gets the wall of every closed online slot, from one
    ``RandomWaypointMobility.step`` to the next.  ``ref_s`` gets
    ``samples`` :func:`hostref.sample` times per slot boundary, taken
    between the slots so that no slot wall contains them.  ``feasible``,
    ``rho_max`` and ``bad_latencies`` feed the gate.
    """

    def __init__(self, slot_seconds: float, recorder: Optional[SpanRecorder] = None,
                 samples: int = 1):
        self.slot_seconds = slot_seconds
        self.recorder = recorder
        self.samples = samples
        self.slot_walls: list[float] = []
        self.ref_s: list[float] = []
        self.feasible: list[bool] = []
        self.rho_max: list[float] = []
        self.bad_latencies = 0
        self._opened: Optional[float] = None
        self._patches = Patches()

    def close_slot(self) -> None:
        """End the open slot, if any, and take host-speed samples."""
        if self._opened is not None:
            self.slot_walls.append(time.perf_counter() - self._opened)
            self._opened = None
        self.ref_s.extend(hostref.sample() for _ in range(self.samples))

    def start_slot(self) -> None:
        self.close_slot()
        if self.recorder is not None:
            self.recorder.slot = len(self.slot_walls)
        self._opened = time.perf_counter()

    def check_solve(self, result) -> None:
        self.feasible.append(bool(result.feasibility.feasible))

    def check_latencies(self, latencies) -> None:
        arr = np.asarray(latencies, dtype=np.float64)
        self.bad_latencies += int(np.count_nonzero(~(np.isfinite(arr) & (arr > 0))))

    def note_routing(self, instance, routing, cores: int) -> None:
        rho = offered_load(instance, routing, cores, self.slot_seconds)
        self.rho_max.append(float(rho.max()))

    def install_online(self) -> None:
        """Wrap the simulator's slot entry points (outermost wrappers)."""
        probe = self

        def on_step(fn):
            @functools.wraps(fn)
            def step(self, *a, **kw):
                probe.start_slot()
                return fn(self, *a, **kw)
            return step

        def on_solve(fn):
            @functools.wraps(fn)
            def solve(self, instance):
                result = fn(self, instance)
                probe.check_solve(result)
                return result
            return solve

        def on_cluster(fn):
            @functools.wraps(fn)
            def init(self, *a, **kw):
                fn(self, *a, **kw)
                probe.note_routing(self.instance, self.routing, self.nodes[0].cores)
            return init

        def on_record(fn):
            @functools.wraps(fn)
            def record_slot(self, latencies):
                probe.check_latencies(latencies)
                return fn(self, latencies)
            return record_slot

        p = self._patches
        p.method("repro.workload.mobility:RandomWaypointMobility", "step", on_step)
        p.method("repro.core.online:OnlineSoCL", "solve", on_solve)
        p.method("repro.runtime.cluster:SimulatedCluster", "__init__", on_cluster)
        p.method("repro.runtime.metrics:LatencyRecorder", "record_slot", on_record)

    def restore(self) -> None:
        self._patches.restore()


# ---------------------------------------------------------------------------
# Span analysis


def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    kids = _children(spans)
    return [
        s.duration - sum(spans[k].duration for k in kids[i])
        for i, s in enumerate(spans)
    ]


def _outermost(spans: list[Span], names: tuple) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def slot_table(spans: list[Span], walls: list[float]) -> list[dict]:
    """Per slot: wall, self time per layer, top-level coverage."""
    selfs = self_times(spans)
    rows = [
        {"slot": i, "wall_s": w, "top_s": 0.0, **{layer: 0.0 for layer in LAYERS}}
        for i, w in enumerate(walls)
    ]
    for s, own in zip(spans, selfs):
        if not 0 <= s.slot < len(rows):
            continue
        row = rows[s.slot]
        row[s.name.split(".", 1)[0]] += own
        if s.parent < 0 and s.thread == "MainThread":
            row["top_s"] += s.duration
    for row in rows:
        row["unattributed_s"] = row["wall_s"] - row["top_s"]
        row["coverage"] = row["top_s"] / row["wall_s"] if row["wall_s"] > 0 else 0.0
    return rows


def layer_metrics(
    spans: list[Span], walls: list[float], n_requests: int, rho_max: float
) -> tuple[dict[str, float], list[dict], dict[int, float]]:
    """Per-layer metrics of one traced measurement, plus the per-slot
    table and the per-region busy seconds they were derived from."""

    def total(*names: str) -> float:
        return float(sum(s.duration for s in _outermost(spans, names)))

    def count(name: str, **match) -> int:
        return sum(
            1 for s in spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
        )

    def attr_sum(name: str, key: str) -> int:
        return int(sum(s.attrs.get(key, 0) for s in spans if s.name == name))

    busy: dict[int, float] = {}
    for s in spans:
        if s.name == "runtime.shard":
            busy[s.attrs["region"]] = busy.get(s.attrs["region"], 0.0) + s.duration
    busy_max = max(busy.values(), default=0.0)
    busy_mean = sum(busy.values()) / len(busy) if busy else 0.0

    rows = slot_table(spans, walls)
    generate_s = total("workload.generate")
    return {
        "workload.generate_s": generate_s,
        "workload.generate_us_per_request": generate_s / max(n_requests, 1) * 1e6,
        "workload.mobility_s": total("workload.mobility"),
        "workload.requests": n_requests,
        "model.instance_s": total("model.instance"),
        "model.routing_s": total("model.routing"),
        "model.routing_calls": count("model.routing"),
        "model.evaluate_s": total("model.evaluate"),
        "core.solve_s": total("core.solve", "core.solve_socl"),
        "core.full_solves": count("core.solve_socl"),
        "core.repairs": count("core.solve", mode="incremental"),
        "core.partition_s": total("core.partition"),
        "core.preprovision_s": total("core.preprovision"),
        "core.combination_s": total("core.combination"),
        "core.storage_plan_s": total("core.storage_plan"),
        "core.storage_plan_calls": count("core.storage_plan"),
        "core.order_factor_s": total("core.order_factor"),
        "core.order_factor_calls": count("core.order_factor"),
        "core.conflict_pairs_s": total("core.conflict_pairs"),
        "core.serial_merges": attr_sum("core.solve_socl", "serial_merges"),
        "core.rollbacks": attr_sum("core.solve_socl", "rollbacks"),
        "runtime.replay_s": total("runtime.replay"),
        "runtime.event_loop_slots": count("runtime.event_loop"),
        "runtime.cluster_build_s": total("runtime.cluster_build"),
        "runtime.replay_rounds": attr_sum("runtime.replay", "rounds"),
        "runtime.shard_rounds": attr_sum("runtime.replay", "shard_rounds"),
        "runtime.exchange_rounds": attr_sum("runtime.replay", "exchange_rounds"),
        "runtime.boundary_invocations": attr_sum("runtime.replay", "boundary_invocations"),
        "runtime.shard_busy_max_s": busy_max,
        "runtime.shard_busy_mean_s": busy_mean,
        "runtime.shard_imbalance": busy_max / busy_mean if busy_mean > 0 else 0.0,
        "runtime.offered_load_max": rho_max,
        "unattributed_s": float(sum(r["unattributed_s"] for r in rows)),
        "obs.span_coverage_min": min((r["coverage"] for r in rows), default=0.0),
    }, rows, busy
