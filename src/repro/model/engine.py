"""Incrementally-cached routing and scoring engine.

The combination stage's serial descent (Alg. 3 lines 6-15) evaluates the
true objective ``Q`` under optimal routing once per merge candidate, and
each candidate placement differs from the placement the descent last
accepted in only the merged service's host set (plus whatever storage
planning migrated).  Re-routing and re-scoring the whole workload from
scratch for every candidate wastes almost all of that work:

* under the *star* model only chain positions of a touched service can
  change their argmin;
* under the *chain* model only requests whose chain contains a touched
  service need their Viterbi re-run;
* under either model only those requests' completion times ``D_h`` can
  change.

:class:`BatchRouter` exploits this.  It keeps a *committed base* — the
per-service host fingerprints, the full assignment matrix and (once
something is scored) the per-request latency vector — and evaluates a
*trial* placement as a delta from it: the requests touching services
whose hosts differ from the base are found through the instance's
service → requests index, re-routed by the batch kernels and re-scored
by the row-subset latency kernel; every other request keeps its base
row.  Trials are kept as touched-row slices, so :meth:`BatchRouter.commit`
of a scored placement adopts them without routing again.

Every routing is identical to a fresh
:func:`~repro.model.routing.optimal_routing` call (same kernels, same
argmin tie-breaking), and every latency sum is bit-identical to
``total_latency(instance, optimal_routing(instance, P)).sum()``: each
row's value comes from the same float operations, and the sum is taken
over the full ``(H,)`` vector.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.model.instance import ProblemInstance
from repro.model.latency import _check_model, _components
from repro.model.placement import Placement, Routing
from repro.model.routing import (
    _chain_assign_batch,
    _host_lists,
    _star_assign,
)


class _Trial(NamedTuple):
    """A placement scored against the committed base, as touched rows."""

    rows: np.ndarray
    assignment: np.ndarray  # (len(rows), L)
    latency: np.ndarray  # (len(rows),)
    total: float


class BatchRouter:
    """Optimal routing with per-service incremental re-evaluation.

    Parameters
    ----------
    instance:
        The frozen problem instance.
    model:
        Latency model override; defaults to the instance's configured
        model (mirrors :func:`~repro.model.routing.optimal_routing`).
    """

    #: Scored trials kept for :meth:`commit` to adopt (oldest dropped
    #: first); the serial descent scores at most three per round.
    _MAX_TRIALS = 4

    def __init__(self, instance: ProblemInstance, model: Optional[str] = None):
        self.instance = instance
        self.model = _check_model(instance, model)
        self._assignment: Optional[np.ndarray] = None
        self._host_keys: list[Optional[bytes]] = [None] * instance.n_services
        self._latency: Optional[np.ndarray] = None
        self._total = 0.0
        self._trials: dict[tuple[bytes, ...], _Trial] = {}
        #: diagnostic counters: services whose routing was recomputed vs
        #: served from the base, per routed placement; requests re-scored,
        #: and the requests a full re-score per :meth:`latency_sum` call
        #: would have taken
        self.rerouted_services = 0
        self.cached_services = 0
        self.rows_scored = 0
        self.rows_total = 0

    def invalidate(self) -> None:
        """Drop all cached state; the next call re-routes everything."""
        self._assignment = None
        self._host_keys = [None] * self.instance.n_services
        self._latency = None
        self._trials.clear()

    # ------------------------------------------------------------------
    def _fingerprint(
        self, placement: Placement
    ) -> tuple[list[np.ndarray], tuple[bytes, ...]]:
        hosts = _host_lists(self.instance, placement)
        return hosts, tuple(h.tobytes() for h in hosts)

    def _delta(self, hosts: list[np.ndarray], keys: tuple[bytes, ...]) -> np.ndarray:
        """Services whose hosts differ from the base (building it if absent)."""
        if self._assignment is None:
            self.rerouted_services += len(keys)
            self._build(hosts, keys)
            return np.zeros(0, dtype=np.int64)
        changed = [i for i, key in enumerate(keys) if self._host_keys[i] != key]
        self.rerouted_services += len(changed)
        self.cached_services += len(keys) - len(changed)
        return np.array(changed, dtype=np.int64)

    def _build(self, hosts: list[np.ndarray], keys: tuple[bytes, ...]) -> None:
        """Route every request against ``hosts`` as the new base."""
        inst = self.instance
        self._assignment = np.full(
            (inst.n_requests, inst.max_chain), -1, dtype=np.int64
        )
        if self.model == "star":
            _star_assign(inst, hosts, inst.compute_ext, self._assignment)
        else:
            _chain_assign_batch(inst, hosts, inst.compute_ext, self._assignment)
        self._host_keys = list(keys)
        self._latency = None

    def _route_rows(
        self, hosts: list[np.ndarray], changed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Touched requests and their re-routed assignment rows."""
        inst = self.instance
        rows = inst.requests_touching(changed)
        if self.model == "star":
            a = self._assignment[rows]
            _star_assign(inst, hosts, inst.compute_ext, a, services=changed, rows=rows)
        else:
            a = np.full((rows.size, inst.max_chain), -1, dtype=np.int64)
            _chain_assign_batch(inst, hosts, inst.compute_ext, a, rows=rows)
        return rows, a

    def _score_rows(self, rows: Optional[np.ndarray], a: np.ndarray) -> np.ndarray:
        """Per-request latency of ``rows`` (all requests when ``None``)."""
        self.rows_scored += self.instance.n_requests if rows is None else rows.size
        return _components(self.instance, a, self.model, rows=rows).total

    def _base_latency(self) -> np.ndarray:
        if self._latency is None:
            self._latency = self._score_rows(None, self._assignment)
            self._total = float(self._latency.sum())
        return self._latency

    # ------------------------------------------------------------------
    def latency_sum(self, placement: Placement) -> float:
        """``Σ_h D_h`` under optimal routing of ``placement``.

        Bit-identical to ``total_latency(instance, optimal_routing(
        instance, placement)).sum()``; only requests touching services
        whose hosts differ from the committed base are re-routed and
        re-scored.  The result is kept as a trial for :meth:`commit`.
        """
        self.rows_total += self.instance.n_requests
        hosts, keys = self._fingerprint(placement)
        trial = self._trials.get(keys)
        if trial is not None:
            return trial.total
        changed = self._delta(hosts, keys)
        base = self._base_latency()
        if not changed.size:
            return self._total
        rows, a = self._route_rows(hosts, changed)
        lat = self._score_rows(rows, a)
        full = base.copy()
        full[rows] = lat
        trial = _Trial(rows, a, lat, float(full.sum()))
        if len(self._trials) >= self._MAX_TRIALS:
            del self._trials[next(iter(self._trials))]
        self._trials[keys] = trial
        return trial.total

    def commit(self, placement: Placement) -> None:
        """Make ``placement`` the committed base.

        A trial scored by :meth:`latency_sum` for the same host sets is
        adopted as is; otherwise the touched requests are re-routed (and
        re-scored, when the base carries latencies).
        """
        hosts, keys = self._fingerprint(placement)
        trial = self._trials.get(keys)
        if trial is not None:
            rows, a, lat = trial.rows, trial.assignment, trial.latency
        else:
            changed = self._delta(hosts, keys)
            if not changed.size:
                return
            rows, a = self._route_rows(hosts, changed)
            lat = None if self._latency is None else self._score_rows(rows, a)
        self._assignment[rows] = a
        if self._latency is not None:
            self._latency[rows] = lat
            self._total = float(self._latency.sum())
        self._host_keys = list(keys)
        self._trials.clear()

    def route(self, placement: Placement) -> Routing:
        """Optimal routing for ``placement``, reusing prior work.

        Commits ``placement`` as the new base and returns its routing.
        O(changed services) after the first call: only requests touching
        a service whose host set differs from the previous base are
        re-routed.
        """
        self.commit(placement)
        return Routing(self.instance, self._assignment)
