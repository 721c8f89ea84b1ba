"""Property-based tests for :class:`CombinationState`'s incremental caches.

The combination stage caches reliance rows, ζ rows, hosts, deployment
cost and the batch-routed objective *per service*, invalidating only the
services a mutation touches.  The contract is strict: after **any**
sequence of ``remove`` / ``add`` / ``set_placement`` calls, every
derived quantity must be bit-identical to a state freshly constructed
from the same placement — not approximately equal, since ζ ordering
decides which instances merge.  The descent driver itself is checked
against a full-rescore oracle kept below.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    CombinationState,
    SoCLConfig,
    initial_partition,
    latency_losses,
    multi_scale_combination,
    preprovision,
)
from repro.core.combination import (
    _SERIAL_CANDIDATES,
    CombinationStats,
    _filter_conflicts,
    dependency_conflict_pairs,
    relocation_pass,
)
from repro.core.storage import storage_plan
from repro.microservices import Application, Microservice
from repro.model import BatchRouter, Placement, ProblemConfig, ProblemInstance, Routing
from repro.model.latency import total_latency
from repro.model.objective import evaluate
from repro.model.routing import optimal_routing
from repro.network import grid_topology
from repro.obs import Tracer, use_tracer
from repro.workload import WorkloadSpec, generate_requests


def build_instance(seed: int, n_users: int) -> ProblemInstance:
    app = Application(
        [
            Microservice(0, "a", compute=1.0, storage=1.5, deploy_cost=100.0, data_out=2.0),
            Microservice(1, "b", compute=2.0, storage=2.0, deploy_cost=150.0, data_out=1.0),
            Microservice(2, "c", compute=1.5, storage=1.0, deploy_cost=120.0, data_out=0.5),
        ],
        [(0, 1), (1, 2)],
        entrypoints=[0],
    )
    net = grid_topology(2, 3, seed=seed % 4)
    requests = generate_requests(
        net, app, WorkloadSpec(n_users=n_users, max_chain=3), rng=seed
    )
    return ProblemInstance(net, app, requests, ProblemConfig(budget=3000.0))


def draw_placement(draw, inst, min_hosts=1) -> Placement:
    x = np.zeros((inst.n_services, inst.n_servers), dtype=bool)
    for svc in (int(i) for i in inst.requested_services):
        hosts = draw(
            st.sets(
                st.integers(min_value=0, max_value=inst.n_servers - 1),
                min_size=min_hosts,
                max_size=inst.n_servers,
            )
        )
        for k in hosts:
            x[svc, k] = True
    return Placement(x)


@st.composite
def instances_with_placements(draw):
    seed = draw(st.integers(min_value=0, max_value=20))
    n_users = draw(st.integers(min_value=3, max_value=12))
    inst = build_instance(seed, n_users)
    return inst, draw_placement(draw, inst)


def assert_state_equals_fresh(state: CombinationState) -> None:
    """Every cached quantity must be bitwise equal to a fresh recompute."""
    fresh = CombinationState(state.instance, state.partitions, state.placement)
    assert np.array_equal(state.reliance, fresh.reliance)
    z_inc = latency_losses(state)
    z_fresh = latency_losses(fresh)
    assert list(z_inc) == list(z_fresh)  # same keys in the same order
    for key in z_fresh:
        assert z_inc[key] == z_fresh[key], key  # exact, not approx
    assert state.cost() == fresh.cost()
    # row-incremental reliance scoring ≡ a full re-score of the routing
    full = total_latency(state.instance, fresh.routing())
    assert state.reliance_latency().tobytes() == full.tobytes()
    assert state.objective("reliance") == fresh.objective("reliance")
    assert state.objective("optimal") == fresh.objective("optimal")


@settings(max_examples=20, deadline=None)
@given(pair=instances_with_placements(), data=st.data())
def test_incremental_state_matches_fresh_after_mutations(pair, data):
    inst, placement = pair
    partitions = initial_partition(inst)
    state = CombinationState(inst, partitions, placement)
    # populate all caches before mutating so staleness would be caught
    latency_losses(state)
    state.objective("optimal")
    state.reliance_latency()

    n_steps = data.draw(st.integers(min_value=1, max_value=5), label="steps")
    for _ in range(n_steps):
        op = data.draw(st.sampled_from(["remove", "add", "set"]), label="op")
        if op == "set":
            state.set_placement(draw_placement(data.draw, inst))
        else:
            svc = data.draw(
                st.integers(min_value=0, max_value=inst.n_services - 1),
                label="service",
            )
            node = data.draw(
                st.integers(min_value=0, max_value=inst.n_servers - 1),
                label="node",
            )
            if state.placement.has(svc, node):
                if state.placement.instance_count(svc) > 1:
                    state.remove(svc, node)
            else:
                state.add(svc, node)
        assert_state_equals_fresh(state)


@settings(max_examples=15, deadline=None)
@given(pair=instances_with_placements())
def test_set_placement_only_invalidates_changed_services(pair):
    """An identical placement swap must keep every ζ row cached."""
    inst, placement = pair
    partitions = initial_partition(inst)
    state = CombinationState(inst, partitions, placement)
    latency_losses(state)
    cached = set(state._zeta_rows)
    state.set_placement(placement.copy())
    assert set(state._zeta_rows) == cached


# ----------------------------------------------------------------------
# oracle: the combination driver as it was before incremental scoring.
# Every true objective re-routes and re-scores all requests, and every
# deadline check re-scores the full reliance routing.
# ----------------------------------------------------------------------
def _full_optimal_objective(state: CombinationState) -> float:
    inst = state.instance
    lam = inst.config.weight
    lat = float(total_latency(inst, optimal_routing(inst, state.placement)).sum())
    return lam * state.cost() + (1.0 - lam) * lat


def _full_deadline_violation(state: CombinationState) -> bool:
    inst = state.instance
    a = np.full((inst.n_requests, inst.max_chain), -1, dtype=np.int64)
    mask = inst.chain_mask
    assigned = state.reliance[np.where(mask, inst.chain_matrix, 0), inst.homes[:, None]]
    a[mask] = assigned[mask]
    lat = total_latency(inst, Routing(inst, a))
    return bool(np.any(lat > inst.deadlines + 1e-9))


def full_rescore_combination(instance, partitions, preprovisioned, config=SoCLConfig()):
    state = CombinationState(instance, partitions, preprovisioned, config)
    stats = CombinationStats()
    conflicts = dependency_conflict_pairs(instance)
    budget = instance.config.budget

    while state.cost() > budget and stats.parallel_rounds < config.max_parallel_rounds:
        zetas = latency_losses(state, n_jobs=config.n_jobs)
        if not zetas:
            break
        n_pick = max(1, int(np.floor(config.omega * len(zetas))))
        ranked = sorted(zetas, key=zetas.get)[:n_pick]
        counts = {
            svc: state.placement.instance_count(svc) for svc in {ik[0] for ik in ranked}
        }
        accepted = _filter_conflicts(ranked, zetas, conflicts, counts)
        if not accepted:
            best = min(zetas, key=zetas.get)
            if state.placement.instance_count(best[0]) > 1:
                accepted = [best]
            else:
                break
        for service, node in accepted:
            state.remove(service, node)
            stats.parallel_merges += 1
        stats.parallel_rounds += 1

    plan = storage_plan(instance, state.placement, config)
    state.set_placement(plan.placement)
    stats.migrations += len(plan.migrations)
    storage_ok = plan.success

    tabu: set = set()
    for _ in range(config.max_serial_iterations):
        forced = (not storage_ok) or (state.cost() > budget)
        zetas = latency_losses(state, tabu, n_jobs=config.n_jobs)
        if not zetas:
            break
        q_before = _full_optimal_objective(state)
        snapshot = state.placement.copy()
        best = None
        for service, node in sorted(zetas, key=zetas.get)[:_SERIAL_CANDIDATES]:
            state.set_placement(snapshot)
            state.remove(service, node)
            plan = storage_plan(instance, state.placement, config)
            state.set_placement(plan.placement)
            if _full_deadline_violation(state):
                tabu.add((service, node))
                stats.rollbacks += 1
                continue
            q_after = _full_optimal_objective(state)
            if best is None or q_after < best[0]:
                best = (q_after, (service, node))
        if best is None:
            state.set_placement(snapshot)
            continue
        q_after, (service, node) = best
        state.set_placement(snapshot)
        state.remove(service, node)
        plan = storage_plan(instance, state.placement, config)
        state.set_placement(plan.placement)
        if forced:
            storage_ok = plan.success
            stats.migrations += len(plan.migrations)
            stats.serial_merges += 1
            stats.forced_merges += 1
            continue
        if q_before - q_after + config.theta <= 0:
            state.set_placement(snapshot)
            break
        storage_ok = plan.success
        stats.migrations += len(plan.migrations)
        stats.serial_merges += 1

    if config.relocation:
        snapshot = state.placement.copy()
        stats.relocations = relocation_pass(state, config)
        if stats.relocations and _full_deadline_violation(state):
            state.set_placement(snapshot)
            stats.relocations = 0
    return state.placement, stats


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=20),
    n_users=st.integers(min_value=3, max_value=15),
    budget=st.sampled_from([400.0, 800.0, 1500.0, 3000.0]),
    deadline=st.sampled_from([np.inf, 0.3, 0.5, 0.8, 1.5]),
    model=st.sampled_from(["chain", "star"]),
)
def test_incremental_descent_matches_full_rescore_oracle(
    seed, n_users, budget, deadline, model
):
    """``multi_scale_combination`` (trials scored against a committed
    base, row-incremental deadline checks) makes exactly the decisions
    of the full-rescore driver: same placement, stats and objective."""
    inst = build_instance(seed, n_users).with_config(
        budget=budget, deadline=deadline, latency_model=model
    )
    partitions = initial_partition(inst)
    pre = preprovision(inst, partitions)
    placement, stats = multi_scale_combination(inst, partitions, pre)
    ref_placement, ref_stats = full_rescore_combination(inst, partitions, pre)
    assert placement == ref_placement
    assert stats.as_dict() == ref_stats.as_dict()
    objective = evaluate(inst, placement, optimal_routing(inst, placement)).objective
    assert objective == evaluate(
        inst, ref_placement, optimal_routing(inst, ref_placement)
    ).objective


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=20),
    n_users=st.integers(min_value=3, max_value=15),
    budget=st.sampled_from([400.0, 800.0, 1500.0]),
)
def test_router_counters_cover_every_routed_placement(seed, n_users, budget):
    """Traced ``combination.router_services_rerouted + router_services_cached``
    is ``n_services`` times the placements the router routed against its
    base (a stored trial adopted or re-read is not routed again), and
    ``latency_rows_scored`` never exceeds ``latency_rows_total``."""
    inst = build_instance(seed, n_users).with_config(budget=budget)
    partitions = initial_partition(inst)
    pre = preprovision(inst, partitions)
    routed = []
    delta = BatchRouter._delta

    def counting_delta(self, hosts, keys):
        routed.append(keys)
        return delta(self, hosts, keys)

    tracer = Tracer("counters")
    BatchRouter._delta = counting_delta
    try:
        with use_tracer(tracer):
            multi_scale_combination(inst, partitions, pre)
    finally:
        BatchRouter._delta = delta
    counters = tracer.metrics.counters
    services = counters.get("combination.router_services_rerouted", 0) + counters.get(
        "combination.router_services_cached", 0
    )
    assert services == inst.n_services * len(routed)
    assert (
        counters["combination.latency_rows_scored"]
        <= counters["combination.latency_rows_total"]
    )
