"""Host-speed calibration: a fixed CPU kernel timed between jobs.

On a shared VM two things move every wall time. The CPU's speed changes by
up to 1.5x over seconds to minutes, and the hypervisor takes the CPU away
from the guest for a share of the time (steal). So the benchmark times jobs
in process CPU time, which does not count steal, and after every job it
times this kernel in CPU time too. Each job's CPU time is scaled by
REF_SECONDS / (the kernel's local CPU time), which gives the job's CPU time
at the reference speed: the speed at which the kernel takes REF_SECONDS.
The kernel is the benchmark's own code, so a change to chainsurg moves the
scaled times as much as its CPU time.

The kernel mixes the two kinds of work chainsurg does: a GF(2) row
elimination on small numpy arrays (`hgp.gf2_rank`) and a pure-Python loop.
The scaling assumes chainsurg works in one thread and leaves nothing
running between jobs.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from hgp import gf2_rank

REF_SECONDS = 0.003  # about the kernel's CPU time on a 2-core Intel Xeon VM
SAMPLES = 2  # kernel runs per calibration; the fastest counts
WINDOW = 3  # a job is scaled by the median calibration of the WINDOW jobs either side


class HostSpeed:
    """Times the calibration kernel and scales CPU times to the reference speed."""

    def __init__(self):
        self.matrix = (np.random.default_rng(0).random((48, 96)) < 0.5).astype(np.uint8)
        self.rank = gf2_rank(self.matrix)

    def _kernel(self) -> float:
        t0 = time.process_time()
        if gf2_rank(self.matrix) != self.rank:
            raise RuntimeError("calibration kernel gave a different rank")
        s = 0
        for i in range(20000):
            s += i * i
        return time.process_time() - t0

    def calibrate(self) -> float:
        """The kernel's CPU time now: the fastest of SAMPLES runs."""
        return min(self._kernel() for _ in range(SAMPLES))

    @staticmethod
    def scale(calibrations: list[float]) -> float:
        """Factor that takes a CPU time measured beside `calibrations` to the reference speed."""
        return REF_SECONDS / statistics.median(calibrations)

    @classmethod
    def scaled(cls, seconds: list[float], calibrations: list[float]) -> list[float]:
        """Scale seconds[i], measured just before calibrations[i], by its local window."""
        n = len(calibrations)
        return [s * cls.scale(calibrations[max(0, i - WINDOW):min(n, i + WINDOW + 1)])
                for i, s in enumerate(seconds)]
