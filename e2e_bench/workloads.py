"""The benchmark's workloads: fixed batches at stated input sizes.

Every workload uses ``ProblemConfig(weight=0.5, budget=6000.0)``, the
eShop application, ``stadium_topology(16, seed=0)`` and request data
volumes scaled by 5 (the ``repro trace`` default).  The workload seed is
a benchmark argument; the program only receives the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

SERVERS = 16
TOPOLOGY_SEED = 0
WEIGHT = 0.5
BUDGET = 6000.0
DATA_SCALE = 5.0
#: Slot length of the online simulator (its default); also the horizon
#: over which the offline workload's offered load is stated.
SLOT_SECONDS = 300.0


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why each exists.

    Online workloads leave the simulator's pipeline mode at its ``auto``
    default, and must stay below offered load 1 in every slot.
    """

    name: str
    #: ``"online"`` drives ``OnlineSimulator.run(OnlineSoCL(), ...)``;
    #: ``"offline"`` drives ``solve_socl`` on columnar request batches.
    kind: str
    users: int
    #: Online: slots per trace.  Offline: 1, one instance per part.
    steps: int
    #: Independent inputs per run, all derived from the workload seed:
    #: part ``k`` uses seed ``[seed, k]``.
    parts: int
    shards: int = 1
    executor: str = "serial"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "online-sharded", "online", users=4_500, steps=6, parts=4,
            shards=2, executor="auto",
        ),
        Workload("offline-solve", "offline", users=20_000, steps=1, parts=12),
    )
}

#: Toy sizes with the same shapes, for the benchmark's own tests.
SMOKE = {
    name: replace(w, users=300 if w.kind == "offline" else 200,
                  steps=min(w.steps, 2), parts=2)
    for name, w in WORKLOADS.items()
}


def get(name: str, smoke: bool = False) -> Workload:
    return (SMOKE if smoke else WORKLOADS)[name]
