"""Simulated network channel: constant transport delay of whole control
steps, seeded Bernoulli packet loss, and hold-last-sample compensation on the
receiving side. The delay line holds what the receiver holds; a dropped push
repeats the line's last entry.

The random generator is numpy's default PCG64 stream seeded per channel, so
drop sequences are bit-reproducible for a fixed (seed, push sequence). A
lossless channel (drop_prob = 0) builds no generator and draws nothing, so a
run without loss has no use for numpy.random.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "DROP_BLOCK",
    "ChannelConfig",
    "Channel",
]

# A lossy channel draws its drop flags this many at a time; a block of uniform
# draws equals the same number of single draws from the generator, bit for bit.
DROP_BLOCK = 4096

@dataclass(frozen=True)
class ChannelConfig:
    """delay_steps is the transport delay in pushes (control steps)."""

    delay_steps: int = 0
    drop_prob: float = 0.0
    seed: int = 0
    initial_value: Any = 0.0

    def __post_init__(self):
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must lie in [0, 1)")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")


class Channel:
    """Delay line owned by one simulation loop, pushed once per control step.

    The line's head is what the receiver holds, the initial value until the
    first push arrives. Behind it sits one entry per push not yet delivered:
    the value the receiver will hold once that push arrives, its payload or,
    when dropped, the entry before it. push() takes the next Bernoulli drop
    decision, enters that entry and trims the line to delay_steps + 1
    entries, read or not; output() returns the head. Payloads are passed
    through as given. Only a channel with drop_prob > 0 seeds a generator; a
    lossless one never drops.
    """

    def __init__(self, config: ChannelConfig):
        # the endless stream of drop decisions, one per push
        if config.drop_prob == 0:
            self._drops = itertools.repeat(False)
        else:
            rng = np.random.default_rng(int(config.seed))
            self._drops = itertools.chain.from_iterable(
                (rng.random(DROP_BLOCK) < config.drop_prob).tolist()
                for _ in itertools.repeat(None))
        self._line = deque([config.initial_value])
        self._length = config.delay_steps + 1

    def push(self, value) -> bool:
        """Offer the payload of the current step; returns True when it is
        dropped."""
        dropped = next(self._drops)
        line = self._line
        line.append(line[-1] if dropped else value)
        if len(line) > self._length:
            line.popleft()
        return dropped

    def output(self):
        """Receiver-side payload after the pushes made so far."""
        return self._line[0]
