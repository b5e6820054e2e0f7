"""Simulated network channel: constant transport delay, seeded Bernoulli
packet loss, and hold-last-sample compensation on the receiving side.

The random generator is numpy's default PCG64 stream seeded per channel, so
drop sequences are bit-reproducible for a fixed (seed, push sequence).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "DROP_BLOCK",
    "ChannelConfig",
    "Channel",
    "check_step_multiple",
]

# Drop flags are drawn this many at a time; a block of uniform draws equals
# the same number of single draws from the generator, bit for bit.
DROP_BLOCK = 4096


@dataclass(frozen=True)
class ChannelConfig:
    delay: float = 0.0
    drop_prob: float = 0.0
    seed: int = 0
    initial_value: Any = 0.0

    def __post_init__(self):
        if not 0.0 <= self.delay < math.inf:
            raise ValueError("delay must be finite and nonnegative")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must lie in [0, 1)")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def check_step_multiple(value: float, dt: float, name: str) -> int:
    """Validate that value is an exact nonnegative multiple of dt; return the
    multiple."""
    steps = value / dt
    if not math.isfinite(steps):
        raise ValueError(f"{name} ({value!r}) is not a finite number of steps of dt ({dt!r})")
    k = round(steps)
    if k < 0 or abs(value - k * dt) > 1e-9 * dt:
        raise ValueError(f"{name} ({value!r}) must be an exact multiple of dt ({dt!r})")
    return k


class Channel:
    """Sequential delay line owned by one simulation loop.

    push() draws the Bernoulli drop decision for an offered payload and
    enqueues survivors for delivery at send_time + delay; output() returns
    the most recently delivered payload, or the configured initial value
    while the pipeline is still empty. Payloads are passed through as given.
    """

    def __init__(self, config: ChannelConfig):
        self.config = config
        self._rng = np.random.default_rng(int(config.seed))
        self._drops: list = []              # pre-drawn flags, next one last
        self._pending: deque = deque()
        self._held = config.initial_value
        self._last_push = -math.inf
        self._last_query = -math.inf
        # Delivery comparisons tolerate float noise in send_time + delay; the
        # slack stays under half a push interval for delays below 5e5 pushes.
        self._time_eps = 1e-6 * config.delay

    def push(self, t: float, value) -> bool:
        """Offer a payload at send time t (strictly increasing across pushes).

        Returns True when the payload is dropped.
        """
        t = float(t)
        if t <= self._last_push:
            raise ValueError(
                f"push times must be strictly increasing (got {t} after {self._last_push})")
        self._last_push = t
        if not self._drops:
            self._drops = (self._rng.random(DROP_BLOCK) < self.config.drop_prob).tolist()
            self._drops.reverse()
        dropped = self._drops.pop()
        if not dropped:
            self._pending.append((t, value))
        return dropped

    def output(self, t: float):
        """Receiver-side payload at time t (nondecreasing across queries)."""
        t = float(t)
        if t < self._last_query:
            raise ValueError(
                f"output times must be nondecreasing (got {t} after {self._last_query})")
        self._last_query = t
        while self._pending and self._pending[0][0] + self.config.delay <= t + self._time_eps:
            self._held = self._pending.popleft()[1]
        return self._held
