"""Pipelined slot execution: overlap replay with the next slot's solve.

The online simulator's slot loop is sequential by default: generate the
workload window, solve placement, dispatch replay, fold results in,
repeat.  Once replay runs on persistent shard workers (or even just a
vectorized flat replay), the main process sits idle while the slot
executes — and the workers sit idle while the main process solves.  The
pipelined executor hides one behind the other: slot *t*'s replay is
dispatched to a background thread, and while it is in flight the main
process runs slot *t+1*'s speculative prefix (window generation,
problem build, outage degrade, ``solver.solve``).  The sequential
suffix — autoscaler ``observe``/``adjust``, pool placement updates,
metrics fold-in — waits until replay *t* joins.

Two primitives live here:

``AsyncSlotReplay``
    A one-shot background execution handle.  The replay callable runs
    on a daemon thread under a *private* tracer (the ambient tracer's
    span stack is not thread-safe, and ``contextvars`` do not propagate
    into manually created threads); the coordinator merges the private
    tracer's metrics and grafts its spans at join time.

``resolve_pipeline``
    Resolves the ``pipeline="auto"`` mode: pipelining pays when replay
    leaves the main process (the persistent ``shm`` shard executor),
    and costs only thread overhead otherwise.

Bit-identity contract: pipelining reorders *wall-clock* work, never
*logical* work.  All RNG draws, solver calls, and state mutations happen
in exactly the serial order — see ``docs/RUNTIME.md`` ("Pipelined slot
execution") for the stage dependency argument.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.obs import NULL_TRACER, Tracer, use_tracer

__all__ = ["AsyncSlotReplay", "resolve_pipeline", "PIPELINE_MODES"]

PIPELINE_MODES = ("on", "off", "auto")


class AsyncSlotReplay:
    """Run a slot's execute stage on a background thread.

    ``fn`` is a zero-argument callable (close over the slot state when
    constructing it).  It runs under ``tracer`` — pass a private
    :class:`~repro.obs.Tracer` (merged by the caller at join) or
    ``NULL_TRACER`` when tracing is disabled; never the ambient tracer,
    whose span stack is not thread-safe.

    :meth:`join` is idempotent, re-raises any exception from ``fn``,
    and returns its result.  ``elapsed`` is the thread's wall time in
    seconds (valid after join).
    """

    def __init__(self, fn: Callable[[], object], tracer: Optional[Tracer] = None):
        self._fn = fn
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._result: object = None
        self._error: Optional[BaseException] = None
        self.elapsed = 0.0
        self._joined = False
        self._thread = threading.Thread(
            target=self._run, name="slot-replay", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        start = time.perf_counter()
        try:
            with use_tracer(self.tracer):
                self._result = self._fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised at join
            self._error = exc
        finally:
            self.elapsed = time.perf_counter() - start

    def done(self) -> bool:
        """Whether the background work has finished (join still required)."""
        return not self._thread.is_alive()

    def join(self) -> object:
        """Wait for completion; re-raise its error or return its result."""
        if not self._joined:
            self._thread.join()
            self._joined = True
        if self._error is not None:
            raise self._error
        return self._result


def resolve_pipeline(
    pipeline: str, n_regions: int, shard_executor: str, n_req: int
) -> bool:
    """Resolve a ``pipeline`` mode to a concrete on/off decision.

    ``"on"`` and ``"off"`` pass through.  ``"auto"`` enables pipelining
    only when the out-of-process shm shard executor would be active —
    at least two regions and a resolved ``shm`` engine
    (:func:`repro.runtime.shard.resolve_shard_executor`) — since
    overlapping with an in-process replay only adds GIL contention.
    """
    if pipeline not in PIPELINE_MODES:
        raise ValueError(
            f"pipeline must be one of {PIPELINE_MODES}, got {pipeline!r}"
        )
    if pipeline != "auto":
        return pipeline == "on"
    if n_regions < 2:
        return False
    from repro.runtime.shard import resolve_shard_executor

    return resolve_shard_executor(shard_executor, n_regions, n_req) == "shm"
