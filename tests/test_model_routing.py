"""Tests for repro.model.routing (DP-optimal and greedy engines)."""

import itertools

import numpy as np
import pytest

from repro.model import (
    Placement,
    Routing,
    greedy_routing,
    optimal_routing,
)
from repro.model.latency import total_latency
from repro.model.routing import route_request


def brute_force_best(instance, placement, h, model):
    """Enumerate every host combination for request h; return min latency."""
    req = instance.requests[h]
    hosts = []
    for svc in req.chain:
        hh = placement.hosts(svc)
        hosts.append([instance.cloud] if hh.size == 0 else list(hh))
    best = np.inf
    for combo in itertools.product(*hosts):
        a = np.full((instance.n_requests, instance.max_chain), -1, dtype=np.int64)
        for hh, rr in enumerate(instance.requests):
            a[hh, : rr.length] = rr.home if placement.has(rr.chain[0], rr.home) else 0
        # other rows don't matter for request h's latency; fill with any valid node
        for hh, rr in enumerate(instance.requests):
            a[hh, : rr.length] = [
                placement.hosts(s)[0] if placement.hosts(s).size else instance.cloud
                for s in rr.chain
            ]
        a[h, : req.length] = combo
        lat = total_latency(instance, Routing(instance, a), model=model)[h]
        best = min(best, lat)
    return best


class TestOptimalRouting:
    @pytest.mark.parametrize("model", ["chain", "star"])
    def test_matches_brute_force(self, tiny_instance, model):
        p = Placement.from_pairs(
            tiny_instance,
            [(0, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 2)],
        )
        r = optimal_routing(tiny_instance, p, model=model)
        lat = total_latency(tiny_instance, r, model=model)
        for h in range(tiny_instance.n_requests):
            assert lat[h] == pytest.approx(
                brute_force_best(tiny_instance, p, h, model)
            )

    def test_respects_placement(self, tiny_instance):
        p = Placement.from_pairs(tiny_instance, [(0, 1), (1, 1), (2, 1)])
        r = optimal_routing(tiny_instance, p)
        a = r.assignment
        mask = tiny_instance.chain_mask
        assert (a[mask] == 1).all()

    def test_cloud_fallback_when_unplaced(self, tiny_instance):
        p = Placement.from_pairs(tiny_instance, [(0, 0), (2, 0)])  # no service 1
        r = optimal_routing(tiny_instance, p)
        cloud = tiny_instance.cloud
        for h, req in enumerate(tiny_instance.requests):
            for j, svc in enumerate(req.chain):
                if svc == 1:
                    assert r.assignment[h, j] == cloud

    def test_beats_or_ties_greedy(self, medium_instance):
        p = Placement.full(medium_instance)
        opt = total_latency(medium_instance, optimal_routing(medium_instance, p)).sum()
        greedy = total_latency(medium_instance, greedy_routing(medium_instance, p)).sum()
        assert opt <= greedy + 1e-9

    def test_single_host_trivial(self, tiny_instance):
        p = Placement.from_pairs(tiny_instance, [(0, 2), (1, 2), (2, 2)])
        r = optimal_routing(tiny_instance, p)
        mask = tiny_instance.chain_mask
        assert (r.assignment[mask] == 2).all()

    def test_route_request_length(self, tiny_instance):
        p = Placement.full(tiny_instance)
        nodes = route_request(tiny_instance, p, 0)
        assert nodes.shape == (tiny_instance.requests[0].length,)


class TestGreedyRouting:
    def test_prefers_home_node(self, tiny_instance):
        p = Placement.full(tiny_instance)
        r = greedy_routing(tiny_instance, p)
        # with every service everywhere, greedy serves locally (inv=0)
        for h, req in enumerate(tiny_instance.requests):
            assert (r.nodes_for(h) == req.home).all()

    def test_picks_max_channel_speed(self, tiny_instance):
        # service 0 only on nodes 1 and 2; user at home 0: node 1 is closer
        p = Placement.from_pairs(tiny_instance, [(0, 1), (0, 2), (1, 0), (2, 0)])
        r = greedy_routing(tiny_instance, p)
        h = 0  # home 0, chain (0,1,2)
        assert r.nodes_for(h)[0] == 1

    def test_cloud_fallback(self, tiny_instance):
        p = Placement.empty(tiny_instance)
        r = greedy_routing(tiny_instance, p)
        assert r.uses_cloud().all()

    def test_feasible_assignment(self, medium_instance):
        from repro.model import check_assignment

        p = Placement.full(medium_instance)
        r = greedy_routing(medium_instance, p)
        assert check_assignment(medium_instance, p, r)


class TestPartialReroute:
    def test_full_rows_equals_optimal(self, tiny_instance):
        from repro.model.routing import partial_reroute

        placement = Placement.full(tiny_instance)
        base = optimal_routing(tiny_instance, placement)
        stale = np.zeros_like(base.assignment) - 1
        rows = np.arange(tiny_instance.n_requests)
        rerouted = partial_reroute(tiny_instance, placement, rows, stale)
        assert np.array_equal(rerouted.assignment, base.assignment)

    def test_untouched_rows_copied_through(self, tiny_instance):
        from repro.model.routing import partial_reroute

        placement = Placement.full(tiny_instance)
        base = optimal_routing(tiny_instance, placement)
        sentinel = base.assignment.copy()
        # force row 1 through the cloud: suboptimal, must survive verbatim
        sentinel[1, : tiny_instance.requests[1].length] = tiny_instance.cloud
        rerouted = partial_reroute(
            tiny_instance, placement, np.array([0, 2]), sentinel
        )
        assert np.array_equal(rerouted.assignment[1], sentinel[1])
        assert np.array_equal(rerouted.assignment[0], base.assignment[0])
        assert np.array_equal(rerouted.assignment[2], base.assignment[2])

    def test_empty_rows_is_identity(self, tiny_instance):
        from repro.model.routing import partial_reroute

        placement = Placement.full(tiny_instance)
        base = optimal_routing(tiny_instance, placement)
        out = partial_reroute(
            tiny_instance, placement, np.empty(0, dtype=np.int64), base.assignment
        )
        assert np.array_equal(out.assignment, base.assignment)

    def test_reroute_avoids_shrunk_placement(self, tiny_instance):
        from repro.model.routing import partial_reroute

        full = Placement.full(tiny_instance)
        base = optimal_routing(tiny_instance, full)
        # remove request 0's first-hop host from the placement and
        # re-route only that request: the new route avoids the pair
        req = tiny_instance.requests[0]
        dead = (int(req.chain[0]), int(base.nodes_for(0)[0]))
        shrunk = full.copy()
        shrunk.remove(*dead)
        out = partial_reroute(
            tiny_instance, shrunk, np.array([0]), base.assignment
        )
        assert int(out.nodes_for(0)[0]) != dead[1]

    def test_does_not_mutate_input_assignment(self, tiny_instance):
        from repro.model.routing import partial_reroute

        placement = Placement.full(tiny_instance)
        base = optimal_routing(tiny_instance, placement)
        snapshot = base.assignment.copy()
        stale = base.assignment.copy()
        stale[0] = -1
        partial_reroute(tiny_instance, placement, np.array([0]), stale)
        assert np.array_equal(base.assignment, snapshot)
        assert (stale[0] == -1).all()

    @pytest.mark.parametrize("model", ["chain", "star"])
    def test_both_latency_models(self, tiny_instance, model):
        from repro.model.routing import partial_reroute

        placement = Placement.full(tiny_instance)
        base = optimal_routing(tiny_instance, placement, model=model)
        rows = np.arange(tiny_instance.n_requests)
        stale = np.zeros_like(base.assignment) - 1
        out = partial_reroute(
            tiny_instance, placement, rows, stale, model=model
        )
        assert np.array_equal(out.assignment, base.assignment)


class TestUnknownModel:
    """Every routing entry point rejects a latency model it does not know,
    with the same error as :func:`total_latency`, instead of routing it as
    the chain model."""

    def test_optimal_routing_rejects(self, tiny_instance):
        with pytest.raises(ValueError, match="unknown latency model 'bogus'"):
            optimal_routing(tiny_instance, Placement.full(tiny_instance), model="bogus")

    def test_partial_reroute_rejects(self, tiny_instance):
        from repro.model.routing import partial_reroute

        placement = Placement.full(tiny_instance)
        base = optimal_routing(tiny_instance, placement)
        with pytest.raises(ValueError, match="unknown latency model 'bogus'"):
            partial_reroute(
                tiny_instance, placement, np.array([0]), base.assignment, model="bogus"
            )

    def test_batch_router_rejects(self, tiny_instance):
        from repro.model import BatchRouter

        with pytest.raises(ValueError, match="unknown latency model 'bogus'"):
            BatchRouter(tiny_instance, model="bogus")
