"""Host speed probe: a fixed slice of work timed between operations.

On a shared host the same computation can take from 1x to 2x its best time
for tens of seconds at a stretch, on both cores at once.  The probe slice is
interpreted float arithmetic plus small numpy least squares: over 170 s of
such swings, log(time) of a dielectric sample and of a vacuum CLI command
each followed the log time of either part with slope 0.91-1.03 (scalar
scipy.special calls, left out, slowed more: slope 0.7).  One slice is timed
for every PROBE_INTERVAL_S of timed work, between samples.  An operation's
time is then scaled by REFERENCE_SLICE_S / (median slice time around it), which
expresses it at a fixed host speed.  The probe shares no code with the
package, so a change to the package moves only the times, not the scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.25
# A typical slice time on the 2-core sandbox the bounds were measured on.
REFERENCE_SLICE_S = 0.0045

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((200, 15))
_B = _RNG.standard_normal(200)


def _slice() -> float:
    s = 0.0
    for i in range(30000):
        s += i * 0.5
    for _ in range(10):
        s += float(np.linalg.lstsq(_A, _B, rcond=None)[0][0])
    return s


class Probe:
    """Times one slice for every PROBE_INTERVAL_S of work since the last
    slices; keeps the slice times and the wall and CPU time spent on them.
    A disabled probe runs nothing and scales by 1."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.slices: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self._last = time.perf_counter()

    def tick(self) -> None:
        """One slice per PROBE_INTERVAL_S since the last slice ended."""
        self.run(int((time.perf_counter() - self._last) / PROBE_INTERVAL_S))

    def run(self, count: int) -> None:
        if not self.enabled or count <= 0:
            return
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(count):
            t = time.perf_counter()
            _slice()
            self.slices.append(time.perf_counter() - t)
        t1 = time.perf_counter()
        self.wall += t1 - t0
        self.cpu += time.process_time() - c0
        self._last = t1

    def scale(self, lo: int = 0, hi: int | None = None) -> float:
        """REFERENCE_SLICE_S over the median of slices[lo:hi]."""
        if not self.enabled:
            return 1.0
        return REFERENCE_SLICE_S / statistics.median(self.slices[lo:hi])
