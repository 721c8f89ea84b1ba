"""FuzzyAHP storage planning (paper Alg. 5, Def. 9).

Each small-scale combination round may leave some edge server over its
storage capacity (Eq. 6).  The planner then:

1. verifies global feasibility — if total remaining capacity cannot hold
   the current instance population, it signals the combination loop to
   keep merging (Alg. 5 line 17);
2. computes the *local demand factor* ``ρ^{m_i}_{v_k}`` of every instance
   with FuzzyAHP over four criteria: deployment cost ``κ``, storage
   footprint ``φ``, requesting-user count ``|U^{m_i}_{v_k}|`` and the
   chain-order factor ``R^{m_i}_{v_k} = (3·u_f + 2·u_l + u_m) /
   |U^{m_i}_{v_k}|`` (first/last chain positions weigh more since they
   pin the user's entry/exit latency), cached per instance as
   :attr:`~repro.model.instance.ProblemInstance.order_factor`;
3. for every overloaded node, migrates the lowest-ρ instance to the
   nearest node (highest channel speed) that lacks the service and has
   spare storage, repeating until the node fits.

The outcome reports success, the migrations performed, and — on global
or local failure — the signal that more combination is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import SoCLConfig
from repro.core.fuzzy_ahp import (
    DEFAULT_CRITERIA_MATRIX,
    fuzzy_ahp_weights,
    score_alternatives,
)
from repro.model.cost import storage_used
from repro.model.instance import ProblemInstance
from repro.model.placement import Placement


@dataclass(frozen=True)
class StoragePlanOutcome:
    """Result of one storage-planning pass."""

    placement: Placement
    success: bool
    migrations: tuple[tuple[int, int, int], ...]  # (service, from, to)
    overloaded: tuple[int, ...]  # nodes that could not be repaired


def order_factor(instance: ProblemInstance) -> np.ndarray:
    """``(S, N)`` matrix of order factors ``R^{m_i}_{v_k}`` (read-only).

    ``R = (3·u_f + 2·u_l + u_m) / |U^{m_i}_{v_k}|`` with u_f/u_l/u_m the
    counts of requests homed at ``v_k`` in which ``m_i`` appears first /
    last / in the middle of the chain.  Zero where no demand exists.
    The matrix is a pure function of the requests, computed once per
    instance: see :attr:`ProblemInstance.order_factor`.
    """
    return instance.order_factor


def local_demand_factor(
    instance: ProblemInstance,
    placement: Placement,
    node: int,
    order: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> dict[int, float]:
    """FuzzyAHP priority ``ρ^{m_i}_{v_k}`` for every instance on ``node``.

    Higher means more important to keep locally.  Criteria directions:
    cheap-to-redeploy (κ) and small (φ) instances are *less* critical;
    high local demand and high order factor are *more* critical.
    """
    services = placement.services_on(node)
    if services.size == 0:
        return {}
    if order is None:
        order = order_factor(instance)
    if weights is None:
        weights = fuzzy_ahp_weights(DEFAULT_CRITERIA_MATRIX)
    values = np.column_stack(
        [
            instance.service_cost[services],
            instance.service_storage[services],
            instance.demand_counts[services, node].astype(np.float64),
            order[services, node],
        ]
    )
    # κ: benefit (expensive instances are costly to re-create elsewhere);
    # φ: cost (large footprints should move first); |U|, R: benefit.
    scores = score_alternatives(values, benefit=[True, False, True, True], weights=weights)
    return {int(s): float(v) for s, v in zip(services, scores)}


def storage_plan(
    instance: ProblemInstance,
    placement: Placement,
    config: SoCLConfig = SoCLConfig(),
) -> StoragePlanOutcome:
    """Run Alg. 5 on ``placement`` (returns a repaired copy).

    When ``config.storage_planning`` is False, a naive fallback evicts
    the largest-footprint instance instead of the FuzzyAHP ranking — the
    ablation baseline called out in DESIGN.md §5.
    """
    x = placement.copy()
    phi = instance.service_storage
    capacity = instance.server_storage

    # Global feasibility (Alg. 5 line 1).
    need = float(phi @ x.matrix.sum(axis=1))
    if need > float(capacity.sum()):
        return StoragePlanOutcome(
            placement=x,
            success=False,
            migrations=(),
            overloaded=tuple(int(v) for v in np.nonzero(storage_used(instance, x) > capacity)[0]),
        )

    order = order_factor(instance)
    weights = fuzzy_ahp_weights(DEFAULT_CRITERIA_MATRIX)
    inv = instance.network.paths.inv_rate
    migrations: list[tuple[int, int, int]] = []
    stuck: list[int] = []

    overloaded = [
        int(v)
        for v in np.nonzero(storage_used(instance, x) > capacity + 1e-9)[0]
    ]
    for node in overloaded:
        guard = instance.n_services * instance.n_servers
        while float(phi @ x.matrix[:, node]) > capacity[node] + 1e-9:
            guard -= 1
            if guard < 0:  # pragma: no cover - defensive
                raise RuntimeError("storage planning failed to converge")
            if config.storage_planning:
                rho = local_demand_factor(instance, x, node, order, weights)
                if not rho:
                    break
                victim = min(rho, key=rho.get)
            else:
                services = x.services_on(node)
                if services.size == 0:
                    break
                victim = int(services[np.argmax(phi[services])])

            # Targets ordered by channel speed from `node` (Alg. 5 line 11).
            targets = sorted(
                (q for q in range(instance.n_servers) if q != node),
                key=lambda q: inv[node, q],
            )
            moved = False
            for q in targets:
                if x.has(victim, q):
                    continue
                used_q = float(phi @ x.matrix[:, q])
                if used_q + phi[victim] <= capacity[q] + 1e-9:
                    x.remove(victim, node)
                    x.add(victim, q)
                    migrations.append((victim, node, int(q)))
                    moved = True
                    break
            if not moved:
                stuck.append(node)
                break

    still_over = np.nonzero(storage_used(instance, x) > capacity + 1e-9)[0]
    return StoragePlanOutcome(
        placement=x,
        success=still_over.size == 0,
        migrations=tuple(migrations),
        overloaded=tuple(int(v) for v in still_over),
    )
