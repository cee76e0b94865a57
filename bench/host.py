"""Host speed probe: reports a round's times at a fixed reference host speed.

On a shared host a neighbour slows this process in episodes that last from
seconds to minutes, by as much as 1.8x, so two runs of the same code can
differ more than any change worth measuring.  The probe times a fixed
pure-Python loop, which shares no code with the library, between the timed
operations of a round.  The loop slows with the host, so

    time at reference speed = measured time * REFERENCE_PROBE_S / median probe time

A change to the library moves the measured times and not the probe, so it
still shows in full.
"""

from __future__ import annotations

import time
from statistics import median
from typing import List

#: Iterations of the probe loop.
PROBE_LOOPS = 20_000
#: The probe's time at reference speed: its time on a quiet 2-vCPU Xeon VM
#: under CPython 3.11, where it reads 1.3-1.4 ms (2.3 ms in a slow episode).
REFERENCE_PROBE_S = 1.3e-3
#: Least measured time between two probes inside the measured phase, so the
#: probe costs about 3% of a round.
PROBE_EVERY_S = 0.05


def _loop() -> None:
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value & 0xFF


class HostProbe:
    """Probe samples of one round and the time they took."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._last = 0.0

    def sample(self) -> None:
        began = time.perf_counter()
        _loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - began)
        self.spent += self._last - began

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that takes this round's measured times to reference speed."""
        return REFERENCE_PROBE_S / median(self.samples)

    def loops_per_s(self) -> float:
        return PROBE_LOOPS / median(self.samples)
