"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of a core changes in phases that last from
seconds to minutes, and CPU time keeps pace with wall time while it
does, so neither a longer run nor CPU time removes the change.  The
benchmark therefore times ``calibrate()``, a fixed piece of work that
does not touch tonefx, right before and right after every timed piece
of work, and scales that work's time by ``REFERENCE_S`` over the mean
of the two calibration times.  A scaled time is the time the work would
take on a machine where ``calibrate()`` takes ``REFERENCE_S`` seconds;
on a 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4 it takes from
0.06 to 0.13 seconds, depending on the phase.

The work mixes what the pipeline does: a pure-Python loop over short
strings with dictionary updates, like tokenizing and counting, and
elementwise numpy passes over an array that fits in the L2 cache, like
the topic-model and regression updates.  It takes no lock, starts no
thread and allocates little.  Changing it or ``REFERENCE_S`` changes
every timing the benchmark reports.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.1
_WORDS = tuple(f"Word{i}" for i in range(1000))
_VALUES = np.random.default_rng(0).random(40_000)


def calibrate() -> float:
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(240):
        for word in _WORDS:
            key = word.lower()
            counts[key] = counts.get(key, 0) + 1
    values = _VALUES
    for _ in range(100):
        values = np.log1p(np.exp(-values) + values.mean())
        values = np.sort(values)[::-1].copy()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
