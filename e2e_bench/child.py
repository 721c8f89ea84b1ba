"""One measuring process of a benchmark run.

Started by ``run.py`` as a script.  Sets up the workload (the part
``setup_s`` covers), then runs rounds until ``--budget`` seconds have
passed since the first timed call.  A round runs one part of the
workload, the next part after the previous round's.  Every run of a
part is checked and must reproduce the digest of that part's first run.
The process prints one JSON line with the raw measurements: per run of
a part, the slot and solve walls and the host-speed samples
(:mod:`hostref`) taken next to them.

With ``--trace 1`` every round runs its part twice, once untraced and
once with the layer wrappers of :mod:`layers`, alternating which goes
first.  ``--trace-out`` names a JSONL file that receives the spans of
the first traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import itertools
import json
import resource
import time

import numpy as np

import layers
import workloads as W


def _digest_online(result) -> str:
    h = hashlib.sha256()
    for r in result.slots:
        h.update(
            repr((
                r.slot, r.n_requests, r.objective, r.cost, r.mean_latency,
                r.max_latency, r.cold_starts, r.churn, r.n_provisioned,
                r.n_warm,
            )).encode()
        )
    h.update(result.recorder.slot_means().tobytes())
    h.update(repr(sorted(result.recorder.overall().items())).encode())
    return h.hexdigest()


class Online:
    """``OnlineSimulator.run(OnlineSoCL(), ...)`` on one part's seed."""

    def __init__(self, wl, net, app, cfg, spec) -> None:
        from repro.core.online import OnlineSoCL
        from repro.runtime.simulator import OnlineSimulator

        self.wl, self.solver = wl, OnlineSoCL
        self.make = lambda seed: OnlineSimulator(
            net, app, cfg, spec, slot_seconds=W.SLOT_SECONDS, seed=seed,
            shards=wl.shards, shard_executor=wl.executor,
        )

    def prepare(self, seed):
        """Untimed: build the simulator the next run uses."""
        return self.make(seed)

    def run(self, sim, probe: layers.Probe) -> dict:
        wl = self.wl
        try:
            probe.install_online()
            result = sim.run(self.solver(), n_slots=wl.steps)
            probe.close_slot()
        finally:
            probe.restore()
            sim.close()
        overall = result.recorder.overall()
        n_requests = sum(r.n_requests for r in result.slots)
        completed = int(result.recorder.total_count)
        failed_slots = 0 if len(probe.slot_walls) == wl.steps else wl.steps
        # a saturated queue is never a steady-state result
        failed_slots += sum(rho >= 1.0 for rho in probe.rho_max)
        return {
            "slot_walls": probe.slot_walls,
            "solve_walls": [r.t_solve for r in result.slots],
            "requests": n_requests,
            "failed_requests": n_requests - completed + probe.bad_latencies,
            "solves": len(probe.feasible),
            "failed_solves": probe.feasible.count(False) + failed_slots,
            "rho_max": probe.rho_max,
            "objective_mean": float(np.mean([r.objective for r in result.slots])),
            "cold_starts": int(sum(r.cold_starts for r in result.slots)),
            "sim_latency_p50_s": float(overall["median"]),
            "sim_latency_p99_s": float(overall["p99"]),
            "digest": _digest_online(result),
        }


#: Host-speed samples at each online slot boundary, and before and after
#: each offline solve.
SAMPLES = 2


class Offline:
    """``solve_socl`` on one part's columnar request batch.

    The batches are generated in set-up; one run is ``ProblemInstance``
    construction plus one solve.
    """

    def __init__(self, wl, net, app, cfg, spec, seed: int) -> None:
        from repro.core import socl
        from repro.model.instance import ProblemInstance
        from repro.runtime.cluster import SimulatedCluster
        from repro.workload import generate_request_batch

        self.net, self.app, self.cfg = net, app, cfg
        self.socl, self.instance = socl, ProblemInstance
        self.cores = inspect.signature(SimulatedCluster).parameters["cores_per_node"].default
        self.batches = [
            generate_request_batch(net, app, spec, rng=np.random.default_rng([seed, k]))
            for k in range(wl.parts)
        ]

    def prepare(self, seed):
        return self.batches[seed[1]]

    def run(self, batch, probe: layers.Probe) -> dict:
        probe.close_slot()
        if probe.recorder is not None:
            probe.recorder.slot = 0
        t0 = time.perf_counter()
        instance = self.instance(self.net, self.app, batch, self.cfg)
        t1 = time.perf_counter()
        result = self.socl.solve_socl(instance)
        t2 = time.perf_counter()
        probe.close_slot()
        # checks run outside the timed step
        probe.check_latencies(result.report.latencies)
        lat = np.asarray(result.report.latencies, dtype=np.float64)
        rho = layers.offered_load(instance, result.routing, self.cores, W.SLOT_SECONDS)
        h = hashlib.sha256()
        h.update(repr((result.objective, result.report.cost)).encode())
        h.update(result.placement.matrix.tobytes())
        h.update(result.routing.assignment.tobytes())
        return {
            "slot_walls": [t2 - t0],
            "solve_walls": [t2 - t1],
            "requests": int(lat.size),
            "failed_requests": probe.bad_latencies,
            "solves": 1,
            "failed_solves": int(not result.feasibility.feasible),
            "rho_max": [float(rho.max())],
            "objective_mean": float(result.objective),
            "cold_starts": int(result.placement.total_instances),
            "sim_latency_p50_s": float(np.percentile(lat, 50)),
            "sim_latency_p99_s": float(np.percentile(lat, 99)),
            "digest": h.hexdigest(),
        }


def one_run(runner, wl, seed, part: int, traced: bool, trace_out, inputs=None) -> dict:
    """Run one part once; return its timings, checks and outputs."""
    if inputs is None:
        inputs = runner.prepare(seed)
    # the previous run's garbage would otherwise be collected, and
    # counted, inside this one, and would raise its peak memory
    gc.collect()
    recorder = layers.SpanRecorder() if traced else None
    probe = layers.Probe(W.SLOT_SECONDS, recorder, SAMPLES)
    if recorder is not None:
        recorder.install()
    try:
        out = runner.run(inputs, probe)
    finally:
        if recorder is not None:
            recorder.restore()
    out.update(part=part, traced=traced, ref_s=probe.ref_s, wall_s=sum(out["slot_walls"]))
    if recorder is not None:
        metrics, rows, busy = layers.layer_metrics(
            recorder.spans, out["slot_walls"], out["requests"], max(out["rho_max"]),
        )
        out.update(layers=metrics, slot_table=rows,
                   region_busy_s={str(k): v for k, v in sorted(busy.items())})
        if trace_out:
            recorder.write_jsonl(trace_out, {
                "workload": wl.name, "seed": seed[0], "part": part,
                "slot_walls": out["slot_walls"],
            })
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of timed rounds, counted from the first timed call")
    parser.add_argument("--first-part", type=int, default=0,
                        help="the part the first round runs; later rounds take the next")
    parser.add_argument("--min-rounds", type=int, default=1,
                        help="rounds to run even past the budget")
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="time.monotonic() in the parent just before it started this process",
    )
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.microservices import eshop_application
    from repro.model import ProblemConfig
    from repro.network import stadium_topology
    from repro.workload import WorkloadSpec

    wl = W.get(args.workload, args.smoke)
    net = stadium_topology(W.SERVERS, seed=W.TOPOLOGY_SEED)
    app = eshop_application()
    cfg = ProblemConfig(weight=W.WEIGHT, budget=W.BUDGET)
    spec = WorkloadSpec(n_users=wl.users, data_scale=W.DATA_SCALE)
    if wl.kind == "online":
        runner = Online(wl, net, app, cfg, spec)
    else:
        runner = Offline(wl, net, app, cfg, spec, args.seed)

    runs: list[dict] = []
    trace_out = args.trace_out
    pending = runner.prepare([args.seed, args.first_part % wl.parts])
    start = time.monotonic()
    for n in itertools.count():
        round_start = time.monotonic()
        part = (args.first_part + n) % wl.parts
        modes = [False, True] if args.trace else [False]
        if n % 2:
            modes.reverse()
        for traced in modes:
            out = one_run(runner, wl, [args.seed, part], part, traced,
                          trace_out if traced else None, pending)
            pending = None
            if traced:
                trace_out = None
            out["round"] = n
            runs.append(out)
        now = time.monotonic()
        if n + 1 >= args.min_rounds and now + (now - round_start) > start + args.budget:
            break

    first: dict[int, dict] = {}
    for out in runs:
        first.setdefault(out["part"], out)
        # every run of a part must reproduce its first run
        out["failed_solves"] += out["digest"] != first[out["part"]]["digest"]
    print(json.dumps({
        "setup_s": start - args.spawned_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs,
    }))


if __name__ == "__main__":
    main()
