import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afcsim import config, harness, netchan


def make_channel(**kwargs):
    defaults = dict(delay_steps=0, drop_prob=0.0, seed=1)
    defaults.update(kwargs)
    return netchan.Channel(netchan.ChannelConfig(**defaults))


def test_config_validation():
    with pytest.raises(ValueError):
        netchan.ChannelConfig(drop_prob=1.0)
    with pytest.raises(ValueError):
        netchan.ChannelConfig(seed=-1)
    netchan.ChannelConfig(drop_prob=0.9999)  # < 1 allowed


def test_no_drops_when_probability_zero():
    # a lossless channel's flags are an endless run of False, with no
    # generator; the pushes run past two blocks and every payload must come through
    ch = make_channel(drop_prob=0.0)
    values = [float(i) for i in range(2 * netchan.DROP_BLOCK + 200)]
    flags, outputs = [], []
    for v in values:
        flags.append(ch.push(v))
        outputs.append(ch.output())
    assert not any(flags)
    assert outputs == values


def test_seeded_drop_sequence_replays_bit_identically():
    # oracle: the documented generator is numpy's default PCG64 stream
    ch_a = make_channel(drop_prob=0.5, seed=99)
    ch_b = make_channel(drop_prob=0.5, seed=99)
    seq_a = [ch_a.push(0.0) for _ in range(2000)]
    seq_b = [ch_b.push(0.0) for _ in range(2000)]
    oracle = (np.random.default_rng(99).random(2000) < 0.5).tolist()
    assert seq_a == seq_b == oracle


def test_block_drawn_flags_equal_sequential_draws():
    # flags come from blocks of DROP_BLOCK draws; 10,000 pushes cross two
    # block boundaries and must see the generator's single draws
    ch = make_channel(drop_prob=0.3, seed=7)
    flags = [ch.push(0.0) for _ in range(10_000)]
    rng = np.random.default_rng(7)
    assert 10_000 > 2 * netchan.DROP_BLOCK
    assert flags == [rng.random() < 0.3 for _ in range(10_000)]


@pytest.mark.parametrize("prob,seed", [(0.1, 2024), (0.9999, 7)])
def test_empirical_drop_rate_within_three_sigma(prob, seed):
    n = 10_000
    ch = make_channel(drop_prob=prob, seed=seed)
    drops = sum(ch.push(0.0) for _ in range(n))
    sigma = math.sqrt(prob * (1.0 - prob) / n)
    assert abs(drops / n - prob) <= 3.0 * sigma


def test_delay_line_hand_example():
    # push value = send_time every 10 ms through a 100 ms (10-step) delay
    ch = make_channel(delay_steps=10)
    for i in range(26):
        ch.push(i * 0.01)
    assert ch.output() == pytest.approx(0.15, abs=1e-12)


def test_initial_value_before_first_delivery():
    ch = make_channel(delay_steps=5, initial_value=-3.0)
    ch.push(42.0)
    assert ch.output() == -3.0
    for _ in range(4):
        ch.push(0.0)
        assert ch.output() == -3.0
    ch.push(0.0)
    assert ch.output() == 42.0


def test_vector_payload_passes_through_whole():
    ch = make_channel(delay_steps=2, initial_value=(0.5, -0.5))
    outputs = []
    for i in range(5):
        ch.push((float(i), -float(i)))
        outputs.append(ch.output())
    assert outputs[1] == (0.5, -0.5)
    assert outputs[4] == (2.0, -2.0)


def test_zero_delay_channel_is_identity():
    ch = make_channel(delay_steps=0)
    for i in range(20):
        ch.push(float(i) ** 2)
        assert ch.output() == float(i) ** 2


def test_exact_shift_by_k_steps():
    k = 7
    ch = make_channel(delay_steps=k, initial_value=-1.0)
    values = np.arange(100, dtype=float)
    outputs = []
    for v in values:
        ch.push(v)
        outputs.append(ch.output())
    assert outputs[:k] == [-1.0] * k
    assert np.array_equal(outputs[k:], values[:-k])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=25))
def test_exact_shift_for_any_step_delay(k):
    ch = make_channel(delay_steps=k, initial_value=math.nan)
    values = np.linspace(-5.0, 5.0, 60)
    outputs = []
    for v in values:
        ch.push(v)
        outputs.append(ch.output())
    assert all(math.isnan(v) for v in outputs[:k])
    assert np.array_equal(outputs[k:], values[:values.size - k])


def test_first_delivery_at_exactly_the_delay_for_a_long_delay():
    # a delay of 1,000 s at dt = 1 ms; the payload pushed first must come
    # out at push 1,000,000 and not one push early
    k = 1_000_000
    first = object()
    ch = make_channel(delay_steps=k, initial_value=None)
    ch.push(first)
    assert ch.output() is None
    for _ in range(k - 1):
        ch.push(None)
        ch.output()
    assert ch.output() is None
    ch.push(None)
    assert ch.output() is first


def test_line_memory_does_not_grow_with_the_delay():
    # 10**12 steps of delay: a line that reserved a slot per step of delay
    # would need terabytes, so allocation must follow the pushes only
    tracemalloc.start()
    try:
        ch = make_channel(delay_steps=10 ** 12, initial_value=-1.0)
        outputs = []
        for i in range(5):
            ch.push(float(i))
            outputs.append(ch.output())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outputs == [-1.0] * 5
    assert peak < 1_000_000


def test_unread_line_stays_bounded_and_holds_what_a_read_one_holds():
    # pushes with no output() in between: the line keeps delay_steps + 1
    # entries, so its memory follows the delay and not the unread pushes
    cfg = netchan.ChannelConfig(delay_steps=3, drop_prob=0.3, seed=5, initial_value=-1.0)
    unread, read = netchan.Channel(cfg), netchan.Channel(cfg)
    tracemalloc.start()
    try:
        for i in range(100_000):
            unread.push(float(i))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for i in range(100_000):
        read.push(float(i))
        held = read.output()
    assert peak < 200_000
    assert unread.output() == held


def test_run_with_a_delay_past_every_int64_completes():
    # 1e300 s is more than 2**63 steps: no bound on the line may be a C integer
    cfg = config.parse_config("duration = 0.01\nactuator_channel.delay = 1e300")
    trace, _ = harness.run_experiment(cfg)
    assert cfg.actuator_channel.delay_steps > 2 ** 63
    assert trace.abort_reason is None
    assert trace.rows.shape[0] == 10


def test_fifo_order_for_any_seed():
    for seed in (0, 3, 12345):
        ch = make_channel(delay_steps=5, drop_prob=0.4, seed=seed)
        delivered = []
        last = -1.0
        for i in range(400):
            ch.push(float(i))
            out = ch.output()
            if out != last:
                delivered.append(out)
                last = out
        assert delivered == sorted(delivered)


def test_hold_between_deliveries():
    ch = make_channel(delay_steps=0)
    ch.push(5.0)
    for _ in range(50):
        assert ch.output() == 5.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.floats(-100, 100), min_size=1, max_size=60))
def test_determinism_for_seed_and_push_sequence(seed, values):
    def run():
        ch = make_channel(drop_prob=0.3, delay_steps=2, seed=seed)
        flags = []
        outs = []
        for v in values:
            flags.append(ch.push(v))
            outs.append(ch.output())
        return flags, outs

    assert run() == run()
