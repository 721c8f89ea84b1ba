"""Paired serial-vs-pipelined online trace benchmark → ``BENCH_overlap.json``.

Run as a script (not under pytest-benchmark — every measurement needs a
*fresh* subprocess, same rationale as ``bench_shard.py``):

    PYTHONPATH=src python benchmarks/bench_overlap.py \
        --scales 100000 300000 --shards 4 --out BENCH_overlap.json

Measures the *end-to-end* online trace (`OnlineSimulator.run` with
``OnlineSoCL``), the unit the pipelined slot runtime actually
accelerates: with ``--pipeline on`` each slot's sharded replay is
dispatched asynchronously and the *next* slot's window generation,
instance build, and solve run while it is in flight.  The serial
reference is the identical trace with ``--pipeline off``.

* **fresh process per measurement** — allocator/page-cache pollution
  otherwise inflates whichever mode runs second by 30-60 %.
* **bit-identity across modes** — every child prints a SHA-256 digest
  over the committed trace (per-slot records, latency recorder state,
  counters minus ``runtime.pipeline.*``); the parent asserts the
  pipelined digest equals the serial one at every scale.
* **overlap accounting** — pipelined children also report the
  ``runtime.pipeline.overlap_seconds`` / ``stall_seconds`` /
  ``slots_overlapped`` meters, so the JSON shows how much replay time
  actually hid behind the next solve.

The headline criterion (``pipeline_ge_1_3x`` at the largest scale) can
only be demonstrated with real parallelism: it is enforced on hosts
with >= 2 cores and recorded-but-gated below that (the replay worker
and the speculative solve time-slice one core, so the measurement
shows dispatch overhead, not the overlap).  Same gating idiom as
``shm_parallel_ge_2x`` in ``bench_shard.py``.

The published JSON is schema ``bench-overlap/1`` and is validated by
``tests/test_bench_overlap_schema.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

SCHEMA = "bench-overlap/1"
SLOTS = 4


def _peak_rss_mb() -> float:
    """Peak RSS of this process in MB (ru_maxrss; tracemalloc fallback)."""
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except ImportError:  # pragma: no cover - non-POSIX
        import tracemalloc

        if not tracemalloc.is_tracing():
            return 0.0
        return tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)


def worker_trace(args) -> None:
    """Child: one full online trace in one pipeline mode; print JSON."""
    from repro.core.online import OnlineSoCL
    from repro.microservices import eshop_application
    from repro.model import ProblemConfig
    from repro.network import stadium_topology
    from repro.obs import Tracer, use_tracer
    from repro.runtime.simulator import OnlineSimulator
    from repro.workload import WorkloadSpec

    net = stadium_topology(16, seed=0)
    sim = OnlineSimulator(
        net,
        eshop_application(),
        ProblemConfig(weight=0.5, budget=6000.0),
        WorkloadSpec(n_users=args.n_users, data_scale=5.0),
        seed=0,
        shards=args.shards,
        shard_executor=args.executor,
        pipeline=args.pipeline,
    )
    tracer = Tracer("bench-overlap")
    t0 = time.perf_counter()
    try:
        with use_tracer(tracer):
            result = sim.run(OnlineSoCL(), n_slots=args.slots)
    finally:
        sim.close()
    wall = time.perf_counter() - t0

    h = hashlib.sha256()
    for r in result.slots:
        h.update(
            repr((
                r.slot, r.n_requests, r.objective, r.cost,
                r.mean_latency, r.max_latency, r.cold_starts, r.churn,
                r.n_provisioned, r.n_warm,
            )).encode()
        )
    h.update(result.recorder.slot_means().tobytes())
    h.update(repr(sorted(result.recorder.overall().items())).encode())
    counters = {
        k: v
        for k, v in tracer.counters.items()
        if not k.startswith("runtime.pipeline.")
    }
    h.update(repr(sorted(counters.items())).encode())

    out = {
        "pipeline": args.pipeline,
        "n_users": args.n_users,
        "slots": args.slots,
        "wall_s": wall,
        "digest": h.hexdigest(),
        "solve_s": sum(r.t_solve for r in result.slots),
        "replay_s": sum(r.t_replay for r in result.slots),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if args.pipeline == "on":
        out["overlap_s"] = tracer.counters.get(
            "runtime.pipeline.overlap_seconds", 0.0
        )
        out["stall_s"] = tracer.counters.get(
            "runtime.pipeline.stall_seconds", 0.0
        )
        out["slots_overlapped"] = tracer.counters.get(
            "runtime.pipeline.slots_overlapped", 0.0
        )
    print(json.dumps(out))


def _spawn(argv: list[str]) -> dict:
    """Run this script in worker mode; parse its JSON line."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + argv,
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {argv} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_publish(args) -> int:
    from repro.utils.parallel import shared_memory_available

    cpu_count = os.cpu_count() or 1
    shm_ok = shared_memory_available()
    executor = args.executor
    if executor == "shm" and not shm_ok:
        print("note: no shared memory on this host; falling back to the "
              "serial executor", flush=True)
        executor = "serial"

    scales = []
    for n_users in args.scales:
        print(f"=== n_users={n_users} ===", flush=True)
        row: dict = {"n_users": n_users}
        for mode in ("off", "on"):
            runs = []
            for rep in range(args.repeats):
                m = _spawn(
                    [
                        "--worker", "trace",
                        "--pipeline", mode,
                        "--n-users", str(n_users),
                        "--shards", str(args.shards),
                        "--slots", str(args.slots),
                        "--executor", executor,
                    ]
                )
                runs.append(m)
                print(
                    f"  pipeline={mode} run {rep}: {m['wall_s']:.2f}s "
                    f"rss={m['peak_rss_mb']:.0f}MB",
                    flush=True,
                )
            walls = sorted(r["wall_s"] for r in runs)
            digests = {r["digest"] for r in runs}
            assert len(digests) == 1, f"pipeline={mode} digests diverged"
            entry = {
                "wall_s_median": walls[len(walls) // 2],
                "wall_s_runs": [r["wall_s"] for r in runs],
                "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
                "solve_s": runs[0]["solve_s"],
                "replay_s": runs[0]["replay_s"],
                "digest": runs[0]["digest"],
            }
            if mode == "on":
                entry["overlap_s"] = runs[0]["overlap_s"]
                entry["stall_s"] = runs[0]["stall_s"]
                entry["slots_overlapped"] = runs[0]["slots_overlapped"]
            row["serial" if mode == "off" else "pipelined"] = entry
        row["identical"] = (
            row["serial"]["digest"] == row["pipelined"]["digest"]
        )
        row["speedup"] = (
            row["serial"]["wall_s_median"]
            / row["pipelined"]["wall_s_median"]
        )
        print(
            f"  speedup {row['speedup']:.2f}x identical="
            f"{row['identical']} overlap="
            f"{row['pipelined']['overlap_s']:.2f}s",
            flush=True,
        )
        scales.append(row)

    largest = scales[-1]
    doc = {
        "schema": SCHEMA,
        "description": (
            "Paired serial-vs-pipelined end-to-end online trace "
            f"(OnlineSimulator.run, OnlineSoCL, {args.slots} slots) on "
            "the fig-10 slot shape (stadium_topology(16), eshop app, "
            "data_scale=5.0). '--pipeline on' dispatches each slot's "
            "sharded replay asynchronously and runs the next slot's "
            "window generation + solve while it is in flight; "
            "'--pipeline off' is the serial reference. Every "
            "measurement runs in a fresh subprocess and reports its "
            "own peak RSS; bit-identity is asserted via SHA-256 "
            "digests over per-slot records, latency recorder state, "
            "and counters minus runtime.pipeline.*. Methodology in "
            "EXPERIMENTS.md."
        ),
        "command": (
            "PYTHONPATH=src python benchmarks/bench_overlap.py --scales "
            + " ".join(str(s) for s in args.scales)
            + f" --shards {args.shards} --repeats {args.repeats}"
            + f" --executor {executor}"
        ),
        "config": {
            "shards": args.shards,
            "slots": args.slots,
            "repeats": args.repeats,
            "executor": executor,
        },
        "host": {
            "cpu_count": cpu_count,
            "shared_memory": shm_ok,
            "platform": sys.platform,
        },
        "scales": scales,
        "criteria": {
            "speedup_at_largest_scale": largest["speedup"],
            "all_identical": all(s["identical"] for s in scales),
            "overlap_s_at_largest": largest["pipelined"]["overlap_s"],
            "stall_s_at_largest": largest["pipelined"]["stall_s"],
            # The overlap criterion (>= 1.3x end-to-end at the largest
            # scale) needs the replay worker and the speculative solve
            # to run on different cores: enforced on hosts with >= 2
            # cores, recorded-but-gated below that (time-slicing one
            # core measures dispatch overhead, not overlap).
            "pipeline_cores": cpu_count,
            "pipeline_gated": cpu_count < 2,
            "pipeline_ge_1_3x": (
                largest["speedup"] >= 1.3 if cpu_count >= 2 else None
            ),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    crit = doc["criteria"]
    ok = crit["all_identical"] and (
        crit["pipeline_gated"] or crit["pipeline_ge_1_3x"]
    )
    print(f"criteria: {json.dumps(crit)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--worker", choices=["trace"])
    parser.add_argument("--pipeline", choices=["on", "off"], default="off")
    parser.add_argument("--n-users", type=int, default=100_000)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--slots", type=int, default=SLOTS)
    parser.add_argument("--executor", choices=["serial", "shm"],
                        default="shm",
                        help="shard executor under both pipeline modes "
                             "(shm falls back to serial without shared "
                             "memory)")
    parser.add_argument(
        "--scales", type=int, nargs="+", default=[100_000, 300_000]
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_overlap.json")
    args = parser.parse_args(argv)
    if args.worker == "trace":
        worker_trace(args)
        return 0
    return run_publish(args)


if __name__ == "__main__":
    sys.exit(main())
