"""Host-speed calibration: a fixed kernel timed in short chunks interleaved
with the workload, so that timings can be scaled to a reference host speed.

On a shared host the speed of one core drifts by up to 1.6x over seconds to
minutes while the process keeps its full CPU share (no steal time), so wall
times of the same code differ that much between invocations. The workload is
timed as it runs; every INTERVAL_S a timer signal runs a chunk of this kernel
in between two bytecodes of the workload, whatever code it is in, and times
it. The workload's timings read HostClock.now, which stops while a chunk
runs. Both see the same host speed, so

    scaled time = measured time * REFERENCE_CHUNK_S / mean chunk time

is the time the workload would take on a host where one chunk takes
REFERENCE_CHUNK_S. The kernel never calls afcsim, so any change to afcsim
shows in full in the scaled time. It mixes what an afcsim step does: scalar
math, small numpy vectors, a membership-grid regressor and, every eighth
iteration, a small eigenvalue problem and SVD.
"""
from __future__ import annotations

import gc
import math
import signal
import statistics
import time

import numpy as np

ITERATIONS = 64
INTERVAL_S = 0.02
# one chunk on a host of the reference speed (close to a 2-vCPU cloud host)
REFERENCE_CHUNK_S = 2.0e-3

_CENTERS = np.linspace(-1.0, 1.0, 5)
_P = np.array([[2.0, 0.5], [0.5, 1.0]])
_A = np.array([[-1.0, 2.0, 0.0, 0.3], [-2.0, -1.0, 0.5, 0.0],
               [0.0, 0.1, -3.0, 1.0], [0.2, 0.0, -1.0, -2.0]])


def kernel(n: int) -> float:
    theta = np.zeros(_CENTERS.size ** 2)
    x = np.array([0.1, 0.2])
    acc = 0.0
    for i in range(n):
        t = i * 1e-3
        e = np.array([math.sin(t), math.cos(t)]) - x
        xi = np.outer(np.exp(-(x[0] - _CENTERS) ** 2),
                      np.exp(-(x[1] - _CENTERS) ** 2)).ravel()
        xi /= xi.sum()
        v = float(e @ _P @ e)
        theta += 1e-3 * v * xi
        acc += math.tanh(v) + float(theta @ xi)
        x = x + 1e-3 * np.array([x[1], -x[0] + 0.1 * acc])
        if i % 8 == 0:
            acc += float(np.linalg.eigvals(_A + t * np.eye(4)).real.max())
            acc += float(np.linalg.svd(_A, compute_uv=False)[0])
    return acc


class HostClock:
    """Times calibration chunks and turns them into a speed scale."""

    def __init__(self) -> None:
        self.chunks: list = []
        self._paused_s = 0.0  # time spent in chunks so far
        self._busy = False
        kernel(ITERATIONS)  # warm-up, not recorded
        self.chunk()

    def now(self) -> float:
        """perf_counter that stops while a chunk runs."""
        while True:
            paused = self._paused_s
            t = time.perf_counter()
            if paused == self._paused_s:  # no chunk ran in between
                return t - paused

    def chunk(self) -> None:
        """Run and time one chunk, with the garbage collector held off so
        that its time does not depend on the workload's heap."""
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel(ITERATIONS)
        elapsed = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.chunks.append(elapsed)
        self._paused_s += elapsed
        self._busy = False

    def start(self) -> None:
        """Run a chunk every INTERVAL_S of wall time until stop()."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.chunk())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, since: int = 0) -> float:
        """REFERENCE_CHUNK_S / mean time of the chunks recorded since index
        `since` (or of the last chunk if none was): multiply a measured time
        by it to get the scaled time."""
        return REFERENCE_CHUNK_S / statistics.fmean(self.chunks[since:] or self.chunks[-1:])
