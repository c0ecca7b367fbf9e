"""Host-speed calibration for timings taken on a shared virtual machine.

On a host shared with other guests, every instruction of this process
can run up to 2x slower for tens of seconds, and the guest cannot see
it: process CPU time grows exactly as wall time does.  A fixed numpy
kernel that does not touch vibeline, shaped like its hot loops (a
rounding pass, a neighbour gather and a weighted bincount over an
image-sized array, and a small matrix product), is timed after every op.  Timings are scaled by
REF_MS over the kernel's median time around them, so they read as
milliseconds on a host that runs the kernel in REF_MS.  An op's scale
uses the samples taken after it and its nearest neighbours, so a slow
spell inside a run does not land in op_p90_ms.  Over 10 seeds per
workload on a 2-vCPU x86_64 guest, the spread (IQR / median) of
op_p50_ms was 14-15% raw and about 2% scaled for batch and gen; for
stream, while the host speed barely moved, it was 3% raw and 4% scaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 4.0
_PIXELS = 328 * 335
_WINDOW = 3  # samples either side of an op in its local speed estimate


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random(_PIXELS)
        self._w = rng.random(_PIXELS)
        self._basis = rng.random((10, 10))
        self._seg = rng.random((10, _PIXELS))
        # neighbour indices, as bilinear sampling gathers them
        self._near = np.clip(np.arange(_PIXELS) + rng.integers(-1, 2, _PIXELS),
                             0, _PIXELS - 1)
        self.samples_ms: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            for k in range(4):
                idx = np.floor(self._x * (300.0 + k) + 0.5).astype(np.intp)
                np.bincount(idx, weights=self._w[self._near], minlength=400)
            self._basis @ self._seg
            self.samples_ms.append((time.perf_counter() - t0) * 1e3)

    def factor(self) -> float:
        """Multiply a time by this to express it at reference speed."""
        return REF_MS / statistics.median(self.samples_ms)

    def local_factors(self) -> list[float]:
        """One factor per sample, from the median of its neighbourhood."""
        n = len(self.samples_ms)
        return [REF_MS / statistics.median(
                    self.samples_ms[max(0, i - _WINDOW): i + _WINDOW + 1])
                for i in range(n)]
