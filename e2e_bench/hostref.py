"""Host-speed reference: a fixed piece of work, timed next to the program.

The measuring host is shared.  The speed of its CPUs varies by up to
1.8× in phases that last from a fraction of a second to minutes, with
process CPU time rising just as much as wall time.  No statistic taken
inside one run removes a phase that lasts the whole run.  So every
measuring process also times :func:`sample`, a fixed mix of interpreter
work and small NumPy operations, at every slot boundary; see README.md,
"Host-speed correction".

A time ``t`` measured while the reference took ``ref`` seconds is
reported as ``t * NOMINAL_S / ref``: the time the program would take on
a host where the reference takes :data:`NOMINAL_S`.  The reference
lives in the benchmark's own files, so a change to the program does not
move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds :func:`sample` takes on the host this benchmark was tuned
#: on, in its fast phase.  Fixed, so corrected times from different
#: runs, commits and hosts are comparable.
NOMINAL_S = 0.006

_RNG = np.random.default_rng(20250)
_TABLE = {i: float(i) for i in range(4096)}
_VALUES = _RNG.random(1 << 16)
_INDEX = _RNG.integers(0, _VALUES.size, 1 << 12)


def sample() -> float:
    """Seconds one pass over the reference work takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for j in range(192):
        for i in range(200):
            acc += _TABLE[(i * 7 + j) & 4095]
        acc += float(_VALUES[_INDEX].sum())
        acc += float(np.sort(_VALUES[(j % 128) * 512:(j % 128 + 1) * 512])[0])
    return time.perf_counter() - t0


def correct(seconds: float, ref_s: float) -> float:
    """``seconds`` at the nominal host speed, given the reference time
    ``ref_s`` measured next to it."""
    return seconds * NOMINAL_S / ref_s
