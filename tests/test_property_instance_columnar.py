"""Property tests for the columnar request-derived arrays of ProblemInstance.

Every request-derived solver input of :class:`ProblemInstance` is computed
once from one columnar :class:`RequestBatch`, whether the caller passed a
batch or a tuple of :class:`UserRequest` objects.  The per-request loops
below are the reference: the cached Def. 9 order factor must match
:func:`order_factor_loop` byte for byte, and the conflict pairs must
match :func:`conflict_pairs_loop` as a set.  Tuple and batch input must
yield byte-identical cached arrays, and the padded matrices must match
:func:`padded_loops`.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.combination import dependency_conflict_pairs
from repro.core.storage import order_factor
from repro.microservices import Application, Microservice
from repro.model import ProblemConfig, ProblemInstance
from repro.network import grid_topology
from repro.workload import UserRequest
from repro.workload.requests import RequestBatch

N_SERVERS = 6  # grid_topology(2, 3)

CACHED_ARRAYS = (
    "homes",
    "chain_lengths",
    "chain_matrix",
    "edge_data_matrix",
    "data_in",
    "data_out",
    "inflow_matrix",
    "demand_counts",
    "demand_data",
    "order_factor",
    "adjacent_service_pairs",
)


def order_factor_loop(instance: ProblemInstance) -> np.ndarray:
    """Per-request Def. 9 order factor: first/alone 3, last 2, middle 1."""
    S, N = instance.n_services, instance.n_servers
    weighted = np.zeros((S, N), dtype=np.float64)
    counts = instance.demand_counts
    for req in instance.requests:
        chain = req.chain
        for pos, svc in enumerate(chain):
            if len(chain) == 1 or pos == 0:
                w = 3.0
            elif pos == len(chain) - 1:
                w = 2.0
            else:
                w = 1.0
            weighted[svc, req.home] += w
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, weighted / np.maximum(counts, 1), 0.0)


def conflict_pairs_loop(instance: ProblemInstance) -> set[frozenset[int]]:
    """Per-request unordered service pairs adjacent in some chain."""
    pairs: set[frozenset[int]] = set()
    for req in instance.requests:
        for a, b in req.edges:
            pairs.add(frozenset((a, b)))
    return pairs


def padded_loops(instance: ProblemInstance) -> dict[str, np.ndarray]:
    """Per-request padded chain, edge-data and inflow matrices."""
    H, L = instance.n_requests, int(max(r.length for r in instance.requests))
    chain = np.full((H, L), -1, dtype=np.int64)
    edge = np.zeros((H, max(L - 1, 1)), dtype=np.float64)
    inflow = np.zeros((H, L), dtype=np.float64)
    for h, req in enumerate(instance.requests):
        chain[h, : req.length] = req.chain
        edge[h, : len(req.edge_data)] = req.edge_data
        inflow[h, : req.length] = (req.data_in, *req.edge_data)
    return {"chain_matrix": chain, "edge_data_matrix": edge, "inflow_matrix": inflow}


def build_app(n_services: int) -> Application:
    return Application(
        [
            Microservice(i, f"s{i}", compute=1.0 + i, storage=1.0,
                         deploy_cost=100.0, data_out=1.0)
            for i in range(n_services)
        ],
        [(i, i + 1) for i in range(n_services - 1)],
        entrypoints=[0],
    )


@st.composite
def workloads(draw, max_len: int = 5):
    """``(n_services, requests)`` with random chains, homes and volumes."""
    S = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=12))
    volume = st.floats(min_value=0.0, max_value=10.0)
    requests = []
    for h in range(n):
        length = draw(st.integers(min_value=1, max_value=min(max_len, S)))
        chain = tuple(draw(st.permutations(range(S)))[:length])
        data = draw(st.lists(volume, min_size=length + 1, max_size=length + 1))
        requests.append(
            UserRequest(
                index=h,
                home=draw(st.integers(min_value=0, max_value=N_SERVERS - 1)),
                chain=chain,
                data_in=data[0],
                data_out=data[1],
                edge_data=tuple(data[2:]),
            )
        )
    return S, requests


def tuple_and_batch_instances(workload):
    S, requests = workload
    net, app = grid_topology(2, 3, seed=0), build_app(S)
    config = ProblemConfig(budget=3000.0)
    return (
        ProblemInstance(net, app, requests, config),
        ProblemInstance(net, app, RequestBatch.from_requests(requests), config),
    )


def check_against_loops(inst: ProblemInstance) -> None:
    got = order_factor(inst)
    want = order_factor_loop(inst)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert dependency_conflict_pairs(inst) == conflict_pairs_loop(inst)


@settings(max_examples=60, deadline=None)
@given(workload=workloads())
def test_cached_solver_inputs_match_loops(workload):
    for inst in tuple_and_batch_instances(workload):
        check_against_loops(inst)


@settings(max_examples=20, deadline=None)
@given(workload=workloads(max_len=1))
def test_single_service_chains_have_no_pairs(workload):
    for inst in tuple_and_batch_instances(workload):
        check_against_loops(inst)
        assert dependency_conflict_pairs(inst) == set()
        assert inst.adjacent_service_pairs.shape == (0, 2)
        # every service in a length-1 chain is "first": weight 3
        assert set(np.unique(inst.order_factor).tolist()) <= {0.0, 3.0}


@settings(max_examples=40, deadline=None)
@given(workload=workloads())
def test_tuple_and_batch_input_give_identical_arrays(workload):
    from_tuple, from_batch = tuple_and_batch_instances(workload)
    assert isinstance(from_tuple.requests, tuple)
    assert isinstance(from_batch.requests, RequestBatch)
    for name in CACHED_ARRAYS:
        a, b = getattr(from_tuple, name), getattr(from_batch, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name, want in padded_loops(from_tuple).items():
        got = getattr(from_tuple, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_cached_order_factor_is_shared_and_read_only(tiny_instance):
    r = order_factor(tiny_instance)
    assert r is tiny_instance.order_factor
    assert not r.flags.writeable
    assert not tiny_instance.adjacent_service_pairs.flags.writeable
