"""The speed of the core the benchmark runs on, measured beside the ops.

The machine's cores are shared.  Each core switches between a fast and a
slow state, up to twice as slow, for spells of a second to some minutes, and
the two cores do so independently; process CPU time slows as much as wall
time.  A run of half a minute can fall wholly inside a slow spell, so no
statistic of raw op times is steady from run to run.

So the benchmark pins itself to one core and, between ops, times a fixed
calibration loop that does not touch hadperm: tuples composed into a set, as
in the semigroup closures, and batched complex matrix products and singular
values, as in the grid checks.  Each op time is scaled by ``REF_S`` over the
mean of the calibrations timed just before and just after it.  A scaled time
is the time the op would take on a core on which the calibration loop takes
``REF_S`` seconds, about this machine's fast state.  A change to hadperm
moves the op times and not the calibration, so it moves the scaled times.
"""

from __future__ import annotations

import os
import time

REF_S = 1.5e-3  # seconds of one calibration at the reference speed
EVERY_S = 0.05  # calibrate again once the ops since the last one took this long
WARM_UP = 20  # untimed calibrations at start, to load LAPACK and fill caches


def pin_to_one_core() -> int:
    """Run this process, and the processes it starts, on one core only, so
    that the calibrations measure the core the ops ran on."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Meter:
    """Times the calibration loop and scales op times by it."""

    def __init__(self):
        import numpy as np  # here, so that importing this module leaves numpy to bootstrap

        rng = np.random.default_rng(0)
        self._blocks = rng.standard_normal((64, 8, 8)) + 1j * rng.standard_normal((64, 8, 8))
        self._svd = np.linalg.svd
        self._maps = [tuple(int(x) for x in rng.permutation(6)) for _ in range(40)]
        for _ in range(WARM_UP):
            self.calibrate()
        self.samples: list[float] = []
        self._last = self.calibrate()

    def _loop(self) -> int:
        seen = set()
        for s in self._maps:
            for t in self._maps:
                seen.add(tuple(s[x] for x in t))
        grams = self._blocks @ self._blocks.conj().transpose(0, 2, 1)
        self._svd(grams, compute_uv=False)
        return len(seen)

    def calibrate(self) -> float:
        start = time.perf_counter()
        self._loop()
        return time.perf_counter() - start

    def scale(self, times: list[float]) -> list[float]:
        """``times`` at reference speed: they ran after the last calibration,
        and a new one is timed now."""
        now = self.calibrate()
        self.samples.append(now)
        factor = REF_S / (0.5 * (self._last + now))
        self._last = now
        return [t * factor for t in times]
