"""Seeded random-number-generator helpers.

Every stochastic component in this repository accepts either an integer
seed, ``None``, or a ready-made :class:`numpy.random.Generator` and
normalizes it through :func:`as_generator`.  Sub-components derive
independent child generators with :func:`spawn` so that adding a new
consumer of randomness never perturbs the stream seen by existing ones —
a requirement for the experiment harness to be reproducible run-to-run.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (no copy), so a
    caller can thread one generator through a pipeline of components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def choice_index(gen: np.random.Generator, k: int) -> int:
    """Index of a uniform pick among ``k`` items, drawn as ``choice`` does.

    ``seq[choice_index(gen, len(seq))]`` returns the element
    ``gen.choice(seq)`` would and leaves ``gen`` in the same state,
    without converting ``seq`` to an array: ``choice`` draws
    ``gen.integers(0, k)``, and with ``k == 1`` that draw consumes no
    bits, so the call is skipped.
    """
    return int(gen.integers(0, k)) if k > 1 else 0


def spawn(rng: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Children are produced via :class:`numpy.random.SeedSequence` spawning,
    which guarantees non-overlapping streams regardless of how much
    randomness each child consumes.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    gen = as_generator(rng)
    seq = gen.bit_generator.seed_seq
    if seq is None:  # pragma: no cover - only for exotic bit generators
        seq = np.random.SeedSequence(int(gen.integers(0, 2**63)))
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def derive_seed(rng: SeedLike, salt: int = 0) -> int:
    """Draw a stable 63-bit integer seed from ``rng`` offset by ``salt``.

    Used when a component needs a plain integer seed (e.g. to hand to a
    subprocess) rather than a generator object.
    """
    gen = as_generator(rng)
    base = int(gen.integers(0, 2**63))
    return (base ^ (0x9E3779B97F4A7C15 * (salt + 1))) % (2**63)


def maybe_shuffled(
    rng: Optional[np.random.Generator], values: np.ndarray
) -> np.ndarray:
    """Return a shuffled copy of ``values`` (or the input if ``rng is None``)."""
    if rng is None:
        return values
    out = np.array(values, copy=True)
    rng.shuffle(out)
    return out
