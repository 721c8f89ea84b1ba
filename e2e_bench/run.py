"""End-to-end benchmark of the SoCL reproduction (see README.md here).

    python3 e2e_bench/run.py --workload online-sharded --seed 1 --seconds 55 --trace 0

A run starts :data:`PROCESSES` fresh measuring processes (``child.py``)
one after another and splits ``--seconds`` between them.  A workload
has a few *parts*, independent inputs derived from ``--seed``; each
process runs the parts in turn while its share of the time lasts.
Every time is corrected for the host's speed, measured next to it
(``hostref.py``).  The run prints every metric by name with its unit.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` measures the end-to-end metrics with no layer wrappers.
* ``--trace 1`` runs every part untraced and traced in turn; the traced
  runs wrap each layer's public functions from outside (``layers.py``),
  print self time per layer per slot, write their spans to
  ``.e2e_bench_out/`` and give the per-layer metrics.  Traced outputs
  must equal untraced outputs (same digest).

Any correctness violation (an infeasible solve, a request that did not
complete with a finite positive latency, an online slot at offered load
ρ ≥ 1, a digest mismatch) is counted in ``failed`` and makes the
command exit 1.  ``--smoke`` runs the same workloads at toy sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".e2e_bench_out"
#: Wall-clock budget of one invocation; children are killed past it.
HARD_LIMIT_S = 170.0
#: Fresh measuring processes per run; ``setup_s`` is their median.
PROCESSES = 3

END_TO_END = {
    "setup_s": "s",
    "slot_s_p50": "s",
    "solve_s_p50": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_latency_p50_s": "s",
    "sim_latency_p99_s": "s",
    "objective_mean": "objective",
    "cold_starts": "count",
}

PER_LAYER = {
    "workload.generate_s": "s",
    "workload.generate_us_per_request": "us",
    "workload.mobility_s": "s",
    "workload.requests": "count",
    "model.instance_s": "s",
    "model.routing_s": "s",
    "model.routing_calls": "count",
    "model.evaluate_s": "s",
    "core.solve_s": "s",
    "core.full_solves": "count",
    "core.repairs": "count",
    "core.partition_s": "s",
    "core.preprovision_s": "s",
    "core.combination_s": "s",
    "core.storage_plan_s": "s",
    "core.storage_plan_calls": "count",
    "core.order_factor_s": "s",
    "core.order_factor_calls": "count",
    "core.conflict_pairs_s": "s",
    "core.serial_merges": "count",
    "core.rollbacks": "count",
    "runtime.replay_s": "s",
    "runtime.event_loop_slots": "count",
    "runtime.cluster_build_s": "s",
    "runtime.replay_rounds": "count",
    "runtime.shard_rounds": "count",
    "runtime.exchange_rounds": "count",
    "runtime.boundary_invocations": "count",
    "runtime.shard_busy_max_s": "s",
    "runtime.shard_busy_mean_s": "s",
    "runtime.shard_imbalance": "ratio",
    "runtime.offered_load_max": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "obs.span_coverage_min": "ratio",
    "unattributed_s": "s",
}

WARMUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); import child, layers; "
    "import repro.runtime.simulator, repro.core.online, repro.core.socl"
)


class BenchError(RuntimeError):
    """A measurement could not be taken; no result is printed."""


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # keep the program's own ``auto`` executor threshold
    env.pop("REPRO_SHM_USERS_PER_SHARD", None)
    return env


def spawn(args, budget: float, first_part: int, min_rounds: int,
          deadline: float, trace_out) -> dict:
    """Run one measuring process; return its JSON record."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--budget", repr(max(budget, 0.0)),
        "--first-part", str(first_part), "--min-rounds", str(min_rounds),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a measurement")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"measurement exceeded {HARD_LIMIT_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(
            f"measurement process exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, wl: W.Workload, deadline: float) -> list[dict]:
    """The records of the run's :data:`PROCESSES` measuring processes.

    Each process gets an equal share of what is left of ``--seconds``,
    less the set-up time the previous process took.  A process starts at
    the part after the last one its predecessor ran, so the parts are
    measured about equally often, and runs enough rounds that every part
    is measured at least once.  The first traced process writes its
    spans to :data:`OUT_DIR`.
    """
    trace_out = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_out = OUT_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    records: list[dict] = []
    start = time.monotonic()
    part = 0
    for i in range(PROCESSES):
        left = start + args.seconds - time.monotonic()
        setup = records[-1]["setup_s"] if records else 0.0
        rec = spawn(args, left / (PROCESSES - i) - setup, part,
                    -(-wl.parts // PROCESSES), deadline, trace_out)
        records.append(rec)
        part += rec["runs"][-1]["round"] + 1
        trace_out = None
    return records


def gate(records: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over every run of every process.

    Each process checks that the runs of a part reproduce that part's
    first run; here the first runs of different processes must agree.
    """
    digest: dict[int, str] = {}
    attempted = failed = 0
    for rec in records:
        for run in rec["runs"]:
            attempted += run["requests"] + run["solves"]
            failed += run["failed_requests"] + run["failed_solves"]
            failed += digest.setdefault(run["part"], run["digest"]) != run["digest"]
    return attempted, failed


def _runs(records: list[dict], traced: bool) -> list[dict]:
    return [run for rec in records for run in rec["runs"] if run["traced"] == traced]


def _corrected(run: dict, key: str) -> list[float]:
    """The run's times ``key``, corrected by the median of its host
    samples."""
    ref = statistics.median(run["ref_s"])
    return [hostref.correct(t, ref) for t in run[key]]


def _per_position(runs: list[dict], key: str, fix=_corrected) -> list[float]:
    """Median over a part's runs of each of its slot or solve times, for
    every part and position."""
    by_part: dict[int, list[list[float]]] = {}
    for run in runs:
        by_part.setdefault(run["part"], []).append(fix(run, key))
    return [statistics.median(v) for k in sorted(by_part) for v in zip(*by_part[k])]


def _first_runs(records: list[dict]) -> list[dict]:
    """The first untraced run of each part: its outputs are the run's."""
    seen: dict[int, dict] = {}
    for run in _runs(records, traced=False):
        seen.setdefault(run["part"], run)
    return [seen[k] for k in sorted(seen)]


def setup_s(rec: dict) -> float:
    """A process's set-up time, corrected by the median of its host
    samples."""
    ref = statistics.median(s for run in rec["runs"] for s in run["ref_s"])
    return hostref.correct(rec["setup_s"], ref)


def end_to_end(records: list[dict]) -> dict:
    med, mean = statistics.median, statistics.fmean
    untraced = _runs(records, traced=False)
    parts = _first_runs(records)
    slots = _per_position(untraced, "slot_walls")
    return {
        "setup_s": med(setup_s(rec) for rec in records),
        "slot_s_p50": med(slots),
        "solve_s_p50": med(_per_position(untraced, "solve_walls")),
        "requests_per_s": sum(r["requests"] for r in parts) / sum(slots),
        "peak_rss_mb": med(rec["peak_rss_mb"] for rec in records),
        "sim_latency_p50_s": mean(r["sim_latency_p50_s"] for r in parts),
        "sim_latency_p99_s": mean(r["sim_latency_p99_s"] for r in parts),
        "objective_mean": mean(r["objective_mean"] for r in parts),
        "cold_starts": sum(r["cold_starts"] for r in parts),
    }


def raw_times(records: list[dict]) -> dict:
    """The uncorrected counterparts of the timing metrics, for the log."""
    untraced = _runs(records, traced=False)
    raw = lambda run, key: run[key]  # noqa: E731
    return {
        "setup_s": statistics.median(rec["setup_s"] for rec in records),
        "slot_s_p50": statistics.median(_per_position(untraced, "slot_walls", raw)),
        "solve_s_p50": statistics.median(_per_position(untraced, "solve_walls", raw)),
        "host_ref_s": statistics.median(s for run in untraced for s in run["ref_s"]),
    }


def per_layer(records: list[dict]) -> dict:
    traced = _runs(records, traced=True)
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in PER_LAYER if name != "obs.trace_overhead_ratio"
    }
    # pair each traced run with the untraced run of the same round of
    # the same process
    ratios = []
    for rec in records:
        untraced = {(r["round"], r["part"]): r for r in rec["runs"] if not r["traced"]}
        ratios += [
            r["wall_s"] / untraced[r["round"], r["part"]]["wall_s"]
            for r in rec["runs"] if r["traced"]
        ]
    out["obs.trace_overhead_ratio"] = statistics.median(ratios)
    return out


def print_trace_report(records: list[dict]) -> None:
    rec = _runs(records, traced=True)[0]
    print("self time per layer per slot (s), first traced run:")
    print(f"{'slot':>4} {'wall':>8} {'workload':>9} {'model':>8} {'core':>8} "
          f"{'runtime':>8} {'unattr':>8} {'covered':>8}")
    for row in rec["slot_table"]:
        print(f"{row['slot']:>4} {row['wall_s']:>8.3f} {row['workload']:>9.3f} "
              f"{row['model']:>8.3f} {row['core']:>8.3f} {row['runtime']:>8.3f} "
              f"{row['unattributed_s']:>8.3f} {row['coverage']:>8.2%}")
    if rec["region_busy_s"]:
        busy = ", ".join(f"region {k}: {v:.3f} s" for k, v in rec["region_busy_s"].items())
        print(f"shard busy time: {busy}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size workloads (seconds, not minutes)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    wl = W.get(args.workload, args.smoke)
    deadline = time.monotonic() + HARD_LIMIT_S
    load_before = os.getloadavg()
    try:
        subprocess.run(
            [sys.executable, "-c", WARMUP, str(HERE)], check=True, env=child_env(),
            cwd=ROOT, capture_output=True, timeout=deadline - time.monotonic(),
        )
        records = measure(args, wl, deadline)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    import numpy

    host = {
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": args.seed,
        "workload": wl.name,
        "users": wl.users,
        "steps": wl.steps,
        "parts": wl.parts,
        "processes": len(records),
        "runs": sum(len(rec["runs"]) for rec in records),
    }
    print("host " + json.dumps(host))
    rho = [r for run in _first_runs(records) for r in run["rho_max"]]
    if wl.kind == "offline":
        label = f"offline, stated over one {W.SLOT_SECONDS:.0f} s slot, not gated"
    else:
        label = "online, must stay below 1"
    print(f"offered load, peak per node per slot ({label}): "
          + " ".join(f"{r:.3f}" for r in rho))
    raw = raw_times(records)
    print(f"host reference: {raw.pop('host_ref_s') * 1e3:.3f} ms per sample "
          f"(nominal {hostref.NOMINAL_S * 1e3:.3f} ms); uncorrected: "
          + ", ".join(f"{k} = {v:.6g} s" for k, v in raw.items()))
    if args.trace:
        print_trace_report(records)
        metrics, units = per_layer(records), PER_LAYER
    else:
        metrics, units = end_to_end(records), END_TO_END
    attempted, failed = gate(records)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"correctness: {attempted - failed}/{attempted} operations passed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
