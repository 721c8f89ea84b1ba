"""Tests for repro.workload.requests."""

import numpy as np
import pytest

from repro.workload import UserRequest, requests_by_server, services_in_requests
from repro.workload.requests import RequestBatch, data_demand_matrix, demand_matrix


def make_request(**kwargs) -> UserRequest:
    defaults = dict(
        index=0, home=0, chain=(0, 1), data_in=1.0, data_out=0.5, edge_data=(2.0,)
    )
    defaults.update(kwargs)
    return UserRequest(**defaults)


class TestUserRequest:
    def test_valid(self):
        req = make_request()
        assert req.length == 2
        assert req.edges == ((0, 1),)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            make_request(chain=(), edge_data=())

    def test_repeated_services_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            make_request(chain=(0, 1, 0), edge_data=(1.0, 1.0))

    def test_edge_data_length_mismatch(self):
        with pytest.raises(ValueError, match="edge_data length"):
            make_request(chain=(0, 1, 2), edge_data=(1.0,))

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            make_request(data_in=-1.0)
        with pytest.raises(ValueError):
            make_request(edge_data=(-2.0,))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["data_in", "data_out", "edge_data"])
    def test_non_finite_data_rejected_like_batch(self, field, value):
        kwargs = {field: (value,) if field == "edge_data" else value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_request(**kwargs)
        batch = RequestBatch.from_requests([make_request()])
        columns = {
            name: np.array(getattr(batch, name))
            for name in ("data_in", "data_out", "edge_data")
        }
        columns[field][0] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RequestBatch(
                batch.index, batch.homes, batch.chains, batch.chain_offsets,
                columns["data_in"], columns["data_out"], columns["edge_data"],
            )

    def test_single_service_chain(self):
        req = make_request(chain=(3,), edge_data=())
        assert req.length == 1
        assert req.edges == ()

    def test_uses(self):
        req = make_request(chain=(0, 2), edge_data=(1.0,))
        assert req.uses(2)
        assert not req.uses(1)

    def test_position_of(self):
        req = make_request(chain=(4, 2, 7), edge_data=(1.0, 1.0))
        assert req.position_of(7) == 2
        with pytest.raises(ValueError):
            req.position_of(9)

    def test_data_into_first_is_upload(self):
        req = make_request(data_in=3.0)
        assert req.data_into(0) == 3.0

    def test_data_into_later_is_edge_flow(self):
        req = make_request(chain=(0, 1, 2), edge_data=(2.0, 4.0))
        assert req.data_into(1) == 2.0
        assert req.data_into(2) == 4.0


class TestGrouping:
    def test_requests_by_server(self):
        reqs = [make_request(index=i, home=i % 2) for i in range(4)]
        groups = requests_by_server(reqs, 3)
        assert [len(g) for g in groups] == [2, 2, 0]

    def test_out_of_range_home(self):
        with pytest.raises(IndexError):
            requests_by_server([make_request(home=5)], 3)

    def test_services_in_requests(self):
        reqs = [
            make_request(chain=(0, 2), edge_data=(1.0,)),
            make_request(index=1, chain=(1,), edge_data=()),
        ]
        assert services_in_requests(reqs) == [0, 1, 2]


class TestDemandMatrices:
    def test_counts(self):
        reqs = [
            make_request(index=0, home=1, chain=(0, 1), edge_data=(1.0,)),
            make_request(index=1, home=1, chain=(0,), edge_data=()),
        ]
        counts = demand_matrix(reqs, n_services=3, n_servers=2)
        assert counts[0, 1] == 2
        assert counts[1, 1] == 1
        assert counts[2].sum() == 0

    def test_data_demand_uses_inflow(self):
        reqs = [
            make_request(index=0, home=0, chain=(0, 1), data_in=3.0, edge_data=(5.0,))
        ]
        data = data_demand_matrix(reqs, n_services=2, n_servers=1)
        assert data[0, 0] == 3.0  # upload volume into the first service
        assert data[1, 0] == 5.0  # edge flow into the second

    def test_shapes(self):
        counts = demand_matrix([make_request()], 4, 3)
        assert counts.shape == (4, 3)
