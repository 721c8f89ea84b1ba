"""Chain extraction and sampling over application dependency DAGs.

User requests in the paper are *directed chains* of microservices
(``u_h = {M_h, E_h}``): a path through the application's dependency DAG
starting at an entrypoint.  This module enumerates all such chains and
samples them with a length bias so workload generators can reproduce the
paper's regimes (short gateway-only calls up to deep, 12+-service chains
in the Alibaba-style analysis of Fig. 3).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.microservices.application import Application
from repro.utils.rng import SeedLike, as_generator, choice_index


def enumerate_chains(
    app: Application,
    max_length: Optional[int] = None,
    min_length: int = 1,
) -> list[tuple[int, ...]]:
    """All root-to-anywhere dependency chains of ``app``.

    A chain starts at an entrypoint and follows dependency edges; every
    prefix of length >= ``min_length`` is itself a valid chain (a request
    may stop at any service).  Results are sorted for determinism.
    """
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    limit = max_length if max_length is not None else app.n_services
    if limit < min_length:
        raise ValueError(
            f"max_length {limit} smaller than min_length {min_length}"
        )
    chains: set[tuple[int, ...]] = set()

    def walk(path: list[int]) -> None:
        if len(path) >= min_length:
            chains.add(tuple(path))
        if len(path) >= limit:
            return
        for succ in app.successors(path[-1]):
            if succ not in path:  # DAG guarantees no cycles; keep paths simple
                path.append(succ)
                walk(path)
                path.pop()

    for entry in app.entrypoints:
        walk([entry])
    return sorted(chains)


def successor_table(app: Application) -> list[tuple[int, ...]]:
    """Each service's sorted successors, indexed by service.

    Resolving the table once lets a sampler walk many chains without
    re-sorting a graph view at every step.
    """
    return [
        tuple(int(s) for s in app.successors(i))
        for i in range(app.n_services)
    ]


def walk_chain(
    gen: np.random.Generator,
    entrypoints: Sequence[int],
    successors: Sequence[Sequence[int]],
    length_bias: float,
    min_length: int,
    limit: int,
) -> list[int]:
    """The biased random walk behind every sequential chain sampler.

    Draws, in order: the entrypoint, then per step one continuation
    uniform (skipped while the path is shorter than ``min_length``) and
    one successor pick — each pick the exact draw ``Generator.choice``
    makes (:func:`repro.utils.rng.choice_index`).  ``successors`` comes
    from :func:`successor_table`; a successor of the path's tail can
    never already be on the path, because :class:`Application` rejects
    cyclic dependency graphs.
    """
    random = gen.random
    path = [entrypoints[choice_index(gen, len(entrypoints))]]
    while len(path) < limit:
        succs = successors[path[-1]]
        if not succs:
            break
        if len(path) >= min_length and random() > length_bias:
            break
        path.append(succs[choice_index(gen, len(succs))])
    return path


def sample_chain(
    app: Application,
    rng: SeedLike = None,
    length_bias: float = 0.7,
    min_length: int = 1,
    max_length: Optional[int] = None,
) -> tuple[int, ...]:
    """Sample one request chain by a biased random walk from an entrypoint.

    At each service the walk continues to a uniformly chosen successor
    with probability ``length_bias`` (if the current length is below
    ``max_length``), otherwise stops — so chains are geometrically
    distributed in length, matching the heavy skew toward short requests
    in production traces.  ``min_length`` forces continuation while
    successors exist.  The walk is :func:`walk_chain`.
    """
    if not (0.0 <= length_bias <= 1.0):
        raise ValueError(f"length_bias must be in [0, 1], got {length_bias}")
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    limit = max_length if max_length is not None else app.n_services
    return tuple(
        walk_chain(
            as_generator(rng),
            app.entrypoints,
            successor_table(app),
            length_bias,
            min_length,
            limit,
        )
    )


def chain_catalog(
    app: Application,
    length_bias: float = 0.7,
    min_length: int = 1,
    max_length: Optional[int] = None,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Exact chain distribution of :func:`sample_chain`.

    Walks the decision tree of the biased random walk once, accumulating
    the probability of every reachable chain: entrypoints are uniform,
    each continuation happens with probability ``length_bias`` (forced
    below ``min_length``, impossible at ``max_length`` or at a dead
    end) and picks a uniformly random unvisited successor.  Returns the
    chains in sorted order with their probabilities (normalized), so
    batched generators can draw whole workloads with a single
    ``Generator.choice`` call instead of one walk per user.
    """
    if not (0.0 <= length_bias <= 1.0):
        raise ValueError(f"length_bias must be in [0, 1], got {length_bias}")
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    limit = max_length if max_length is not None else app.n_services
    if limit < min_length:
        raise ValueError(
            f"max_length {limit} smaller than min_length {min_length}"
        )
    probs: dict[tuple[int, ...], float] = {}

    def walk(path: list[int], p: float) -> None:
        key = tuple(path)
        if len(path) >= limit:
            probs[key] = probs.get(key, 0.0) + p
            return
        succs = [s for s in app.successors(path[-1]) if s not in path]
        if not succs:
            probs[key] = probs.get(key, 0.0) + p
            return
        if len(path) >= min_length:
            stop = p * (1.0 - length_bias)
            if stop > 0.0:
                probs[key] = probs.get(key, 0.0) + stop
            p = p * length_bias
            if p == 0.0:
                return
        each = p / len(succs)
        for s in succs:
            path.append(int(s))
            walk(path, each)
            path.pop()

    entries = [int(e) for e in app.entrypoints]
    if not entries:
        raise ValueError("application has no entrypoints to sample chains from")
    p0 = 1.0 / len(entries)
    for e in entries:
        walk([e], p0)
    chains = sorted(probs)
    weights = np.array([probs[c] for c in chains], dtype=np.float64)
    weights /= weights.sum()
    return chains, weights


def chain_statistics(chains: Sequence[tuple[int, ...]]) -> dict[str, float]:
    """Summary statistics used by tests and the dataset registry."""
    if not chains:
        return {"count": 0, "mean_length": 0.0, "max_length": 0, "unique_services": 0}
    lengths = np.array([len(c) for c in chains], dtype=np.float64)
    services = {s for c in chains for s in c}
    return {
        "count": float(len(chains)),
        "mean_length": float(lengths.mean()),
        "max_length": float(lengths.max()),
        "unique_services": float(len(services)),
    }


def iter_chain_edges(chain: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Yield the dependency edges ``e_{m_i→m_j}`` of a chain in order."""
    for a, b in zip(chain, chain[1:]):
        yield (a, b)
