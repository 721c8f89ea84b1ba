"""Property tests for the sequential workload RNG stream.

:func:`generate_requests` and the discrete :class:`RandomWaypointMobility`
step are defined by their draw sequence: every seeded workload, digest
and golden result depends on it.  The per-object loops below are the
reference — the request generator that walked each chain with
``Generator.choice`` over networkx successors and drew every volume with
a scalar ``Generator.uniform``, and the mobility step that hopped with
``Generator.choice``.  The fast paths must match them byte for byte and
leave the generator in the same state.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.microservices import Application, Microservice, eshop_application
from repro.microservices.chains import sample_chain
from repro.network import grid_topology, stadium_topology
from repro.utils.rng import choice_index
from repro.workload import WorkloadSpec, generate_requests, place_users
from repro.workload.mobility import RandomWaypointMobility

NET = grid_topology(2, 3, seed=0)
ESHOP = eshop_application()


def chain_choice_loop(app, gen, length_bias, min_length, limit):
    """Biased walk drawing each pick with ``Generator.choice``."""
    path = [int(gen.choice(app.entrypoints))]
    while len(path) < limit:
        succs = [s for s in app.successors(path[-1]) if s not in path]
        if not succs:
            break
        must_continue = len(path) < min_length
        if not must_continue and gen.random() > length_bias:
            break
        path.append(int(gen.choice(succs)))
    return tuple(path)


def generate_requests_loop(network, app, spec, gen, homes=None):
    """Per-object request generator: walk, edge noise, data_in, data_out."""
    if homes is None:
        homes = place_users(
            network,
            spec.n_users,
            gen,
            hotspot_fraction=spec.hotspot_fraction,
            hotspot_weight=spec.hotspot_weight,
        )
    douts = [app.service(i).data_out for i in range(app.n_services)]
    chains, offsets, edge, data_in, data_out = [], [0], [], [], []
    for _ in range(spec.n_users):
        chain = chain_choice_loop(
            app, gen, spec.length_bias, spec.min_chain, spec.max_chain
        )
        for a in chain[:-1]:
            edge.append(
                float(
                    spec.data_scale
                    * douts[a]
                    * (1.0 + gen.uniform(-spec.edge_noise, spec.edge_noise))
                )
            )
        chains.extend(chain)
        offsets.append(len(chains))
        data_in.append(
            float(spec.data_scale * gen.uniform(*spec.data_in_range))
        )
        data_out.append(
            float(spec.data_scale * gen.uniform(*spec.data_out_range))
        )
    return {
        "homes": np.asarray(homes, dtype=np.int64),
        "chains": np.array(chains, dtype=np.int64),
        "chain_offsets": np.array(offsets, dtype=np.int64),
        "data_in": np.array(data_in, dtype=np.float64),
        "data_out": np.array(data_out, dtype=np.float64),
        "edge_data": np.array(edge, dtype=np.float64),
    }


def mobility_choice_loop(network, n_users, move_prob, seed, n_steps):
    """Discrete random-waypoint homes, each hop drawn with ``choice``."""
    gen = np.random.default_rng(seed)
    homes = gen.integers(0, network.n, size=n_users)
    out = []
    for _ in range(n_steps):
        moving = gen.random(n_users) < move_prob
        for u in np.nonzero(moving)[0]:
            neighbors = network.neighbors(int(homes[u]))
            if neighbors.size:
                homes[u] = int(gen.choice(neighbors))
        out.append(homes.copy())
    return np.array(out), gen


@st.composite
def apps(draw):
    """eShop, or a random branching DAG (edges only go i -> j > i)."""
    if draw(st.booleans()):
        return ESHOP
    n = draw(st.integers(min_value=1, max_value=8))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    services = [
        Microservice(
            i,
            f"s{i}",
            compute=1.0,
            storage=1.0,
            deploy_cost=100.0,
            data_out=draw(st.floats(min_value=0.0, max_value=4.0)),
        )
        for i in range(n)
    ]
    return Application(services, edges, name="toy")


@st.composite
def specs(draw):
    min_chain = draw(st.integers(min_value=1, max_value=10))
    max_chain = draw(st.integers(min_value=min_chain, max_value=12))
    if draw(st.booleans()):
        min_chain = max_chain = 1
    lo_in = draw(st.floats(min_value=0.0, max_value=5.0))
    lo_out = draw(st.floats(min_value=0.0, max_value=5.0))
    return WorkloadSpec(
        n_users=draw(st.integers(min_value=1, max_value=40)),
        length_bias=draw(st.sampled_from([0.0, 1.0, 0.3, 0.7])),
        min_chain=min_chain,
        max_chain=max_chain,
        data_in_range=(lo_in, lo_in + draw(st.floats(0.0, 5.0))),
        data_out_range=(lo_out, lo_out + draw(st.floats(0.0, 5.0))),
        edge_noise=draw(st.sampled_from([0.0, 0.3, 1.0])),
        data_scale=draw(st.sampled_from([1.0, 5.0, 0.37])),
    )


def assert_same_stream(batch, gen, want, want_gen):
    for field, expected in want.items():
        got = getattr(batch, field)
        assert got.dtype == expected.dtype, field
        assert got.tobytes() == expected.tobytes(), field
    assert gen.bit_generator.state == want_gen.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(
    app=apps(),
    spec=specs(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    given_homes=st.booleans(),
)
def test_generate_requests_matches_choice_loop(app, spec, seed, given_homes):
    homes = (
        np.random.default_rng(seed).integers(0, NET.n, size=spec.n_users)
        if given_homes
        else None
    )
    gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = generate_requests(NET, app, spec, rng=gen, homes=homes)
    want = generate_requests_loop(NET, app, spec, want_gen, homes=homes)
    assert_same_stream(batch, gen, want, want_gen)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"length_bias": 0.0},
        {"length_bias": 1.0, "max_chain": 12},
        {"min_chain": 12, "max_chain": 12},  # deeper than any eShop chain
        {"min_chain": 1, "max_chain": 1},
        {"edge_noise": 0.0},
        {"n_users": 1},
    ],
)
def test_eshop_edge_cases_match_choice_loop(kwargs):
    spec = WorkloadSpec(**{"n_users": 300, "data_scale": 5.0, **kwargs})
    for seed in range(3):
        gen = np.random.default_rng(seed)
        want_gen = np.random.default_rng(seed)
        batch = generate_requests(NET, ESHOP, spec, rng=gen)
        want = generate_requests_loop(NET, ESHOP, spec, want_gen)
        assert_same_stream(batch, gen, want, want_gen)


@settings(max_examples=60, deadline=None)
@given(
    app=apps(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length_bias=st.sampled_from([0.0, 1.0, 0.5]),
    min_length=st.integers(min_value=1, max_value=9),
    max_length=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
)
def test_sample_chain_matches_choice_loop(
    app, seed, length_bias, min_length, max_length
):
    gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    limit = max_length if max_length is not None else app.n_services
    for _ in range(5):
        got = sample_chain(app, gen, length_bias, min_length, max_length)
        want = chain_choice_loop(app, want_gen, length_bias, min_length, limit)
        assert got == want
        assert all(type(s) is int for s in got)
    assert gen.bit_generator.state == want_gen.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(
    n_servers=st.integers(min_value=2, max_value=12),
    n_users=st.integers(min_value=1, max_value=60),
    move_prob=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mobility_step_matches_choice_loop(
    n_servers, n_users, move_prob, seed
):
    net = stadium_topology(n_servers, seed=seed % 7)
    gen = np.random.default_rng(seed)
    mob = RandomWaypointMobility(net, n_users, move_prob=move_prob, seed=gen)
    got = mob.run(6)
    want, want_gen = mobility_choice_loop(net, n_users, move_prob, seed, 6)
    assert got.tobytes() == want.astype(np.int64).tobytes()
    assert gen.bit_generator.state == want_gen.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=2**20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    warm=st.integers(min_value=0, max_value=3),
)
@example(k=1, seed=0, warm=1)
@example(k=2, seed=0, warm=1)
def test_choice_index_is_the_choice_draw(k, seed, warm):
    """``seq[choice_index(gen, len(seq))]`` is ``gen.choice(seq)``,
    generator state included; fails loudly if NumPy changes either."""
    seq = list(range(7, 7 + k)) if k <= 64 else np.arange(k) + 7
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    # an odd number of 32-bit draws leaves a buffered half-word behind
    a.integers(0, 3, size=warm)
    b.integers(0, 3, size=warm)
    for _ in range(3):
        assert a.choice(seq) == seq[choice_index(b, len(seq))]
        assert a.bit_generator.state == b.bit_generator.state
        assert a.choice(seq) == seq[b.integers(0, len(seq))]
        assert a.bit_generator.state == b.bit_generator.state
