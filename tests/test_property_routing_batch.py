"""Property-based equivalence tests for the batched routing engines.

The vectorized kernels in :mod:`repro.model.routing` (star broadcast,
padded whole-workload Viterbi, greedy argmin table) and the incremental
:class:`~repro.model.engine.BatchRouter` promise results *identical* to
the per-request reference DP :func:`~repro.model.routing._route_one` —
including argmin tie-breaking.  Hypothesis drives random instances and
placements (empty services → cloud fallback, single-host services,
mixed chain lengths) through both paths and asserts exact equality.
The same goes for scoring: the row-subset latency kernel and the
router's trial-against-base sums must be byte-equal to a full re-score.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.microservices import Application, Microservice
from repro.model import BatchRouter, Placement, ProblemConfig, ProblemInstance
from repro.model.latency import _components, total_latency
from repro.model.routing import _host_lists, _route_one, greedy_routing, optimal_routing
from repro.network import grid_topology
from repro.workload import WorkloadSpec, generate_requests


def build_instance(seed: int, n_users: int, max_chain: int) -> ProblemInstance:
    app = Application(
        [
            Microservice(0, "a", compute=1.0, storage=1.5, deploy_cost=100.0, data_out=2.0),
            Microservice(1, "b", compute=2.0, storage=2.0, deploy_cost=150.0, data_out=1.0),
            Microservice(2, "c", compute=1.5, storage=1.0, deploy_cost=120.0, data_out=0.5),
            Microservice(3, "d", compute=0.5, storage=0.5, deploy_cost=80.0, data_out=1.5),
        ],
        [(0, 1), (1, 2), (0, 3)],
        entrypoints=[0],
    )
    net = grid_topology(2, 3, seed=seed % 4)
    requests = generate_requests(
        net,
        app,
        WorkloadSpec(n_users=n_users, min_chain=1, max_chain=max_chain),
        rng=seed,
    )
    return ProblemInstance(net, app, requests, ProblemConfig(budget=3000.0))


@st.composite
def instances_with_placements(draw):
    seed = draw(st.integers(min_value=0, max_value=30))
    n_users = draw(st.integers(min_value=1, max_value=12))
    max_chain = draw(st.integers(min_value=1, max_value=4))
    inst = build_instance(seed, n_users, max_chain)
    x = np.zeros((inst.n_services, inst.n_servers), dtype=bool)
    for svc in range(inst.n_services):
        # min_size=0 exercises the cloud fallback, 1 the single-host DP
        hosts = draw(
            st.sets(
                st.integers(min_value=0, max_value=inst.n_servers - 1),
                min_size=0,
                max_size=inst.n_servers,
            )
        )
        for k in hosts:
            x[svc, k] = True
    return inst, Placement(x)


def reference_assignment(inst, placement, model) -> np.ndarray:
    """Per-request DP loop — the ground truth the batches must match."""
    hosts = _host_lists(inst, placement)
    a = np.full((inst.n_requests, inst.max_chain), -1, dtype=np.int64)
    for h, req in enumerate(inst.requests):
        nodes = _route_one(inst, req, hosts, inst.inv_rate, inst.compute_ext, model)
        a[h, : nodes.size] = nodes
    return a


@settings(max_examples=40, deadline=None)
@given(pair=instances_with_placements(), model=st.sampled_from(["star", "chain"]))
def test_batch_routing_matches_reference(pair, model):
    inst, placement = pair
    batched = optimal_routing(inst, placement, model=model)
    assert np.array_equal(batched.assignment, reference_assignment(inst, placement, model))


@settings(max_examples=25, deadline=None)
@given(pair=instances_with_placements())
def test_greedy_routing_matches_reference(pair):
    inst, placement = pair
    hosts = _host_lists(inst, placement)
    ref = np.full((inst.n_requests, inst.max_chain), -1, dtype=np.int64)
    for h, req in enumerate(inst.requests):
        for j, svc in enumerate(req.chain):
            cand = hosts[svc]
            key = inst.inv_rate[req.home, cand] - 1e-12 * inst.compute_ext[cand]
            ref[h, j] = cand[int(np.argmin(key))]
    assert np.array_equal(greedy_routing(inst, placement).assignment, ref)


@settings(max_examples=25, deadline=None)
@given(
    pair=instances_with_placements(),
    model=st.sampled_from(["star", "chain"]),
    data=st.data(),
)
def test_batch_router_incremental_matches_fresh(pair, model, data):
    """BatchRouter after arbitrary single-service host edits ≡ fresh routing."""
    inst, placement = pair
    router = BatchRouter(inst, model=model)
    assert np.array_equal(
        router.route(placement).assignment,
        reference_assignment(inst, placement, model),
    )
    n_steps = data.draw(st.integers(min_value=1, max_value=4), label="steps")
    for _ in range(n_steps):
        svc = data.draw(
            st.integers(min_value=0, max_value=inst.n_services - 1), label="service"
        )
        node = data.draw(
            st.integers(min_value=0, max_value=inst.n_servers - 1), label="node"
        )
        if placement.has(svc, node):
            placement.remove(svc, node)
        else:
            placement.add(svc, node)
        incremental = router.route(placement).assignment
        fresh = optimal_routing(inst, placement, model=model).assignment
        assert np.array_equal(incremental, fresh)
    # the router must actually be caching: unchanged placements re-route nothing
    before = router.rerouted_services
    router.route(placement)
    assert router.rerouted_services == before


@settings(max_examples=40, deadline=None)
@given(
    pair=instances_with_placements(),
    model=st.sampled_from(["star", "chain"]),
    data=st.data(),
)
def test_row_subset_components_match_full_call(pair, model, data):
    """``_components`` on a row subset is byte-equal, row by row, to the
    full call: empty, single-row, all-row and random subsets."""
    inst, placement = pair
    a = optimal_routing(inst, placement, model=model).assignment
    full = _components(inst, a, model)
    H = inst.n_requests
    kind = data.draw(st.sampled_from(["empty", "single", "all", "random"]), label="kind")
    if kind == "empty":
        rows = np.zeros(0, dtype=np.int64)
    elif kind == "single":
        rows = np.array([data.draw(st.integers(0, H - 1), label="row")])
    elif kind == "all":
        rows = np.arange(H)
    else:
        rows = np.array(
            sorted(data.draw(st.sets(st.integers(0, H - 1)), label="rows")),
            dtype=np.int64,
        )
    sub = _components(inst, a[rows], model, rows=rows)
    for name in ("d_in", "d_compute", "d_link", "d_out", "total"):
        got = getattr(sub, name)
        assert got.shape == (rows.size,)
        assert got.tobytes() == getattr(full, name)[rows].tobytes(), name


@settings(max_examples=30, deadline=None)
@given(
    pair=instances_with_placements(),
    model=st.sampled_from(["star", "chain"]),
    data=st.data(),
)
def test_batch_router_trials_match_fresh_scoring(pair, model, data):
    """Random walk of placements with interleaved trials, commits and
    routes: every trial's latency sum, and the committed base's per-row
    latencies, are byte-equal to scoring a fresh optimal routing."""
    inst, placement = pair
    router = BatchRouter(inst, model=model)

    def fresh(p):
        return total_latency(inst, optimal_routing(inst, p, model=model), model=model)

    base = placement.copy()
    assert router.latency_sum(base) == float(fresh(base).sum())
    n_steps = data.draw(st.integers(min_value=1, max_value=6), label="steps")
    for _ in range(n_steps):
        trial = base.copy()
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            svc = data.draw(st.integers(0, inst.n_services - 1), label="service")
            node = data.draw(st.integers(0, inst.n_servers - 1), label="node")
            if trial.has(svc, node):
                trial.remove(svc, node)
            else:
                trial.add(svc, node)
        assert router.latency_sum(trial) == float(fresh(trial).sum())
        op = data.draw(st.sampled_from(["keep", "commit", "route"]), label="op")
        if op == "commit":
            router.commit(trial)
            base = trial
        elif op == "route":
            routed = router.route(trial).assignment
            assert np.array_equal(
                routed, optimal_routing(inst, trial, model=model).assignment
            )
            base = trial
        # the base the next trial is scored against is the committed one
        assert router.latency_sum(base) == float(fresh(base).sum())
        assert router._latency.tobytes() == fresh(base).tobytes()
    assert np.array_equal(
        router.route(base).assignment,
        optimal_routing(inst, base, model=model).assignment,
    )


@settings(max_examples=30, deadline=None)
@given(pair=instances_with_placements())
def test_service_requests_index_matches_chain_scan(pair):
    """The service → requests CSR index lists, per service, exactly the
    requests whose chain contains it, ascending."""
    inst, _ = pair
    indptr, rows = inst.service_requests
    assert indptr.shape == (inst.n_services + 1,)
    for svc in range(inst.n_services):
        expected = [h for h, req in enumerate(inst.requests) if svc in req.chain]
        assert rows[indptr[svc] : indptr[svc + 1]].tolist() == expected
    both = inst.requests_touching([0, 1])
    assert both.tolist() == [
        h for h, req in enumerate(inst.requests) if {0, 1} & set(req.chain)
    ]
    assert inst.requests_touching([]).size == 0


def test_router_counters_count_services_per_routed_placement():
    """``rerouted_services + cached_services`` grows by ``n_services`` per
    placement routed against the committed base; re-reading or committing
    an already-scored trial counts nothing."""
    inst = build_instance(3, 12, 4)
    S = inst.n_services
    base = Placement(np.ones((S, inst.n_servers), dtype=bool))
    router = BatchRouter(inst)

    def counts():
        return router.rerouted_services, router.cached_services

    router.route(base)
    assert counts() == (S, 0)
    trial = base.copy()
    trial.remove(1, 0)
    router.latency_sum(trial)
    assert counts() == (S + 1, S - 1)
    router.latency_sum(trial)  # stored trial
    router.commit(trial)  # adopted, not routed again
    assert counts() == (S + 1, S - 1)
    router.route(base)  # one service differs from the new base
    assert counts() == (S + 2, 2 * S - 2)
