"""Problem instances: network + application + requests + model parameters.

A :class:`ProblemInstance` freezes one decision problem (paper Def. 1-4)
and precomputes the dense arrays every solver consumes:

* ``inv_rate`` — all-pairs ``Σ 1/b`` transfer coefficients, extended with
  a virtual **cloud** node (index ``n``) so that cloud-fallback routing
  (paper §IV.C: "rely on the cloud servers as a fallback option") shares
  the same vectorized code path as edge routing;
* padded request-chain matrices (``chain_matrix``, ``edge_data_matrix``)
  enabling whole-workload latency evaluation without Python loops;
* demand matrices ``|U^{m_i}_{v_k}|`` and the data-volume variant used by
  the partitioning stage;
* the combination stage's inputs: Def. 9 order factors (Alg. 5) and the
  service pairs adjacent in some chain (Alg. 3's conflict filter);
* a service → requests CSR index, so incremental routing and scoring
  find the requests a host-set change can affect without a scan.

Every request-derived array is computed once, from one columnar
:class:`~repro.workload.requests.RequestBatch`: tuple input is converted
into a private batch at construction.

:class:`ProblemConfig` carries the model-level parameters: the trade-off
weight ``λ``, budget ``K^max``, per-request deadline ``D^max``, the
latency model (``"chain"`` — physically accurate Eq. 2; ``"star"`` — the
home-anchored approximation SoCL's internal formulas use), and the cloud
fallback rate/compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from repro.microservices.application import Application
from repro.network.topology import EdgeNetwork
from repro.utils.validation import check_positive, check_probability
from repro.workload.requests import RequestBatch, UserRequest, _readonly

#: Sentinel node index meaning "served from the cloud data center".
#: Within an instance the cloud is materialized as node index ``n``.
CLOUD = -2


@dataclass(frozen=True)
class ProblemConfig:
    """Model-level parameters of one problem (paper Eq. 3-6).

    Attributes
    ----------
    weight:
        Trade-off ``λ`` between cost (weight) and latency (1 − weight).
    budget:
        Global deployment budget ``K^max`` (Eq. 5).
    deadline:
        Per-request completion-time cap ``D^max_h`` (Eq. 4); scalar applied
        to all requests, or ``inf`` for uncapped.
    latency_model:
        ``"chain"`` (Eq. 2 consecutive-pair communication, default) or
        ``"star"`` (home-anchored cycles, the form in Eq. 7/ψ/Δ/D).
    cloud_inv_rate:
        Seconds per GB between any edge server and the cloud (WAN).  Large
        relative to edge virtual links so the fallback is costly.
    cloud_compute:
        Cloud computing capability (GFLOP/s); effectively unconstrained.
    """

    weight: float = 0.5
    budget: float = 6000.0
    deadline: float = np.inf
    latency_model: str = "chain"
    cloud_inv_rate: float = 1.0
    cloud_compute: float = 100.0

    def __post_init__(self) -> None:
        check_probability("weight", self.weight)
        check_positive("budget", self.budget)
        if not self.deadline > 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.latency_model not in ("chain", "star"):
            raise ValueError(
                f"latency_model must be 'chain' or 'star', got {self.latency_model!r}"
            )
        check_positive("cloud_inv_rate", self.cloud_inv_rate)
        check_positive("cloud_compute", self.cloud_compute)

    def with_(self, **kwargs) -> "ProblemConfig":
        """Functional update helper."""
        return replace(self, **kwargs)


class ProblemInstance:
    """One frozen joint provisioning/routing problem."""

    def __init__(
        self,
        network: EdgeNetwork,
        app: Application,
        requests: Sequence[UserRequest],
        config: ProblemConfig = ProblemConfig(),
        deadlines: Optional[Sequence[float]] = None,
    ):
        if not len(requests):
            raise ValueError("instance must contain at least one request")
        self.network = network
        self.app = app
        #: The workload: either a columnar
        #: :class:`~repro.workload.requests.RequestBatch` (kept as-is for
        #: vectorized precomputation) or a tuple of
        #: :class:`UserRequest` objects.  Both are immutable sequences of
        #: per-request views, so consumers index/iterate identically.
        self.requests: Union[tuple[UserRequest, ...], RequestBatch]
        if isinstance(requests, RequestBatch):
            self.requests = self._batch = requests
        else:
            self.requests = tuple(requests)
            self._batch = RequestBatch.from_requests(self.requests)
        self.config = config
        if deadlines is not None:
            arr = np.asarray(deadlines, dtype=np.float64)
            if arr.shape != (len(self.requests),):
                raise ValueError(
                    f"deadlines must have shape ({len(self.requests)},), "
                    f"got {arr.shape}"
                )
            if (arr <= 0).any():
                raise ValueError("deadlines must be positive")
            self._deadlines = arr.copy()
            self._deadlines.flags.writeable = False
        else:
            self._deadlines = None

        self._validate_batch(self._batch, network.n, app.n_services)

    @staticmethod
    def _validate_batch(batch: RequestBatch, n: int, n_services: int) -> None:
        """Vectorized home/service range checks.

        Reports the first request (in order) with a bad home or service,
        its home checked before its chain.
        """
        bad_home = (batch.homes < 0) | (batch.homes >= n)
        bad_svc = (batch.chains < 0) | (batch.chains >= n_services)
        if not (bad_home.any() or bad_svc.any()):
            return
        first_home = (
            int(np.argmax(bad_home)) if bad_home.any() else len(batch)
        )
        if bad_svc.any():
            flat = int(np.argmax(bad_svc))
            svc_req = int(
                np.searchsorted(batch.chain_offsets, flat, side="right") - 1
            )
        else:
            flat = -1
            svc_req = len(batch)
        if first_home <= svc_req:
            raise IndexError(
                f"request {int(batch.index[first_home])} home "
                f"{int(batch.homes[first_home])} outside network of size {n}"
            )
        raise IndexError(
            f"request {int(batch.index[svc_req])} references unknown "
            f"service {int(batch.chains[flat])}"
        )

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        return self.network.n

    @property
    def n_services(self) -> int:
        return self.app.n_services

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def cloud(self) -> int:
        """Index of the virtual cloud node in the extended arrays."""
        return self.n_servers

    # ------------------------------------------------------------------
    # precomputed arrays (cached)
    # ------------------------------------------------------------------
    @cached_property
    def inv_rate(self) -> np.ndarray:
        """Extended ``(n+1, n+1)`` transfer coefficients ``Σ 1/b``.

        Row/column ``n`` is the cloud: every edge↔cloud transfer costs
        ``cloud_inv_rate`` seconds per GB; cloud↔cloud is free.
        """
        n = self.n_servers
        base = self.network.paths.inv_rate
        ext = np.full((n + 1, n + 1), self.config.cloud_inv_rate, dtype=np.float64)
        ext[:n, :n] = base
        ext[n, n] = 0.0
        ext.flags.writeable = False
        return ext

    @cached_property
    def compute_ext(self) -> np.ndarray:
        """Server compute vector extended with the cloud node."""
        ext = np.concatenate(
            [self.network.compute, [self.config.cloud_compute]]
        )
        ext.flags.writeable = False
        return ext

    @cached_property
    def service_compute(self) -> np.ndarray:
        """``q(m_i)`` vector."""
        return self.app.compute_vector()

    @cached_property
    def service_storage(self) -> np.ndarray:
        """``φ(m_i)`` vector."""
        return self.app.storage_vector()

    @cached_property
    def service_cost(self) -> np.ndarray:
        """``κ(m_i)`` vector."""
        return self.app.cost_vector()

    @cached_property
    def server_storage(self) -> np.ndarray:
        """``Φ(v_k)`` vector."""
        return self.network.storage

    @cached_property
    def homes(self) -> np.ndarray:
        """``f(u_h)`` home-server vector, shape ``(H,)``."""
        return self._batch.homes.copy()

    @cached_property
    def chain_lengths(self) -> np.ndarray:
        return self._batch.lengths.copy()

    @cached_property
    def max_chain(self) -> int:
        return int(self.chain_lengths.max())

    @cached_property
    def chain_matrix(self) -> np.ndarray:
        """``(H, Lmax)`` padded service-index matrix; −1 = past chain end."""
        return _readonly(self._batch.padded_chain_matrix())

    @cached_property
    def chain_mask(self) -> np.ndarray:
        """``(H, Lmax)`` bool mask of valid positions."""
        return _readonly(self.chain_matrix >= 0)

    @cached_property
    def edge_data_matrix(self) -> np.ndarray:
        """``(H, Lmax−1)`` per-edge data flows (0 past chain end)."""
        return _readonly(self._batch.padded_edge_matrix())

    @cached_property
    def data_in(self) -> np.ndarray:
        return self._batch.data_in.copy()

    @cached_property
    def data_out(self) -> np.ndarray:
        return self._batch.data_out.copy()

    @cached_property
    def inflow_matrix(self) -> np.ndarray:
        """``(H, Lmax)`` data entering each chain position (star model's r)."""
        mat = np.zeros((self.n_requests, self.max_chain), dtype=np.float64)
        mat[self.chain_mask] = self._batch.inflow_flat()
        return _readonly(mat)

    @cached_property
    def demand_counts(self) -> np.ndarray:
        """``(S, N)`` counts ``|U^{m_i}_{v_k}|`` (Alg. 2 lines 1-3)."""
        return self._batch.demand_counts(self.n_services, self.n_servers)

    @cached_property
    def demand_data(self) -> np.ndarray:
        """``(S, N)`` inbound data volumes per service/home pair."""
        return self._batch.demand_data(self.n_services, self.n_servers)

    @cached_property
    def order_factor(self) -> np.ndarray:
        """``(S, N)`` Def. 9 order factors ``R^{m_i}_{v_k}`` (read-only).

        ``R = (3·u_f + 2·u_l + u_m) / |U^{m_i}_{v_k}|`` with u_f/u_l/u_m
        the counts of requests homed at ``v_k`` in which ``m_i`` appears
        first (or alone) / last / in the middle; zero where no demand
        exists.  The weights are integers, so the float64 sums are exact
        in any summation order.
        """
        S, N = self.n_services, self.n_servers
        mask = self.chain_mask
        weight = mask.astype(np.float64)
        weight[np.arange(self.n_requests), self.chain_lengths - 1] = 2.0
        weight[:, 0] = 3.0
        key = self.chain_matrix * N + self.homes[:, None]
        weighted = np.bincount(
            key[mask], weights=weight[mask], minlength=S * N
        ).reshape(S, N)
        counts = self.demand_counts
        return _readonly(
            np.where(counts > 0, weighted / np.maximum(counts, 1), 0.0)
        )

    @cached_property
    def adjacent_service_pairs(self) -> np.ndarray:
        """``(P, 2)`` unordered service pairs ``(lo, hi)`` adjacent in at
        least one chain, sorted and unique (Alg. 3's conflict pairs)."""
        S = self.n_services
        chain = self.chain_matrix
        head, tail = chain[:, :-1], chain[:, 1:]
        edge = tail >= 0
        keys = np.unique(
            np.minimum(head, tail)[edge] * S + np.maximum(head, tail)[edge]
        )
        return _readonly(np.column_stack([keys // S, keys % S]))

    @cached_property
    def service_requests(self) -> tuple[np.ndarray, np.ndarray]:
        """Service → requests index in CSR form ``(indptr, rows)``.

        ``rows[indptr[i]:indptr[i + 1]]`` are the requests whose chain
        contains service ``i``, ascending and unique (read-only).
        """
        S, H = self.n_services, self.n_requests
        mask = self.chain_mask
        keys = np.unique(self.chain_matrix[mask] * H + np.nonzero(mask)[0])
        indptr = np.zeros(S + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // H, minlength=S), out=indptr[1:])
        return _readonly(indptr), _readonly(keys % H)

    def requests_touching(self, services) -> np.ndarray:
        """Ascending unique requests whose chain contains any of ``services``."""
        indptr, rows = self.service_requests
        parts = [rows[indptr[i] : indptr[i + 1]] for i in np.asarray(services).tolist()]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        hit = np.zeros(self.n_requests, dtype=bool)
        for part in parts:
            hit[part] = True
        return np.nonzero(hit)[0]

    @cached_property
    def requested_services(self) -> np.ndarray:
        """Sorted indices of services that appear in at least one chain."""
        return np.unique(self.chain_matrix[self.chain_matrix >= 0])

    @cached_property
    def deadlines(self) -> np.ndarray:
        """Per-request deadline vector ``D^max_h``.

        The explicit per-request vector passed at construction wins;
        otherwise the scalar ``config.deadline`` is broadcast.
        """
        if self._deadlines is not None:
            return self._deadlines
        return np.full(self.n_requests, self.config.deadline, dtype=np.float64)

    # ------------------------------------------------------------------
    def hosting_servers(self, service: int) -> np.ndarray:
        """``V(m_i)``: home servers of requests whose chain contains ``m_i``."""
        return np.nonzero(self.demand_counts[service] > 0)[0]

    def with_config(self, **kwargs) -> "ProblemInstance":
        """Clone with updated :class:`ProblemConfig` fields."""
        return ProblemInstance(
            self.network,
            self.app,
            self.requests,
            self.config.with_(**kwargs),
            deadlines=self._deadlines,
        )

    def with_requests(self, requests: Sequence[UserRequest]) -> "ProblemInstance":
        """Clone with a different request set (online re-provisioning).

        Per-request deadlines are dropped (they are tied to the old
        request set); the scalar config deadline still applies.
        """
        return ProblemInstance(self.network, self.app, requests, self.config)

    def with_deadlines(self, deadlines: Sequence[float]) -> "ProblemInstance":
        """Clone with explicit per-request deadlines (Eq. 4's D^max_h)."""
        return ProblemInstance(
            self.network, self.app, self.requests, self.config, deadlines=deadlines
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProblemInstance(servers={self.n_servers}, services={self.n_services}, "
            f"requests={self.n_requests}, model={self.config.latency_model!r})"
        )
