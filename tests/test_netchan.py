import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afcsim import netchan


def make_channel(**kwargs):
    defaults = dict(delay=0.0, drop_prob=0.0, seed=1)
    defaults.update(kwargs)
    return netchan.Channel(netchan.ChannelConfig(**defaults))


def test_config_validation():
    with pytest.raises(ValueError):
        netchan.ChannelConfig(drop_prob=1.0)
    with pytest.raises(ValueError):
        netchan.ChannelConfig(delay=-0.1)
    for delay in (math.inf, math.nan):
        with pytest.raises(ValueError, match="delay"):
            netchan.ChannelConfig(delay=delay)
    with pytest.raises(ValueError):
        netchan.ChannelConfig(seed=-1)
    netchan.ChannelConfig(drop_prob=0.9999)  # < 1 allowed


def test_check_step_multiple():
    assert netchan.check_step_multiple(0.02, 0.001, "delay") == 20
    with pytest.raises(ValueError, match="delay"):
        netchan.check_step_multiple(0.0205, 0.001, "delay")


def test_push_requires_strictly_increasing_times():
    ch = make_channel()
    ch.push(0.0, 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        ch.push(0.0, 2.0)


def test_output_requires_nondecreasing_times():
    ch = make_channel()
    ch.output(1.0)
    ch.output(1.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        ch.output(0.5)


def test_no_drops_when_probability_zero():
    ch = make_channel(drop_prob=0.0)
    samples = [ch.push(i * 0.01, float(i)) for i in range(200)]
    assert not any(samples)


def test_seeded_drop_sequence_replays_bit_identically():
    # oracle: the documented generator is numpy's default PCG64 stream
    ch_a = make_channel(drop_prob=0.5, seed=99)
    ch_b = make_channel(drop_prob=0.5, seed=99)
    seq_a = [ch_a.push(i * 0.01, 0.0) for i in range(2000)]
    seq_b = [ch_b.push(i * 0.01, 0.0) for i in range(2000)]
    oracle = (np.random.default_rng(99).random(2000) < 0.5).tolist()
    assert seq_a == seq_b == oracle


def test_block_drawn_flags_equal_sequential_draws():
    # flags come from blocks of DROP_BLOCK draws; 10,000 pushes cross two
    # block boundaries and must see the generator's single draws
    ch = make_channel(drop_prob=0.3, seed=7)
    flags = [ch.push(i * 0.01, 0.0) for i in range(10_000)]
    rng = np.random.default_rng(7)
    assert 10_000 > 2 * netchan.DROP_BLOCK
    assert flags == [rng.random() < 0.3 for _ in range(10_000)]


@pytest.mark.parametrize("prob,seed", [(0.1, 2024), (0.9999, 7)])
def test_empirical_drop_rate_within_three_sigma(prob, seed):
    n = 10_000
    ch = make_channel(drop_prob=prob, seed=seed)
    drops = sum(ch.push(i * 0.01, 0.0) for i in range(n))
    sigma = math.sqrt(prob * (1.0 - prob) / n)
    assert abs(drops / n - prob) <= 3.0 * sigma


def test_delay_line_hand_example():
    # push value = send_time every 10 ms through a 100 ms delay
    ch = make_channel(delay=0.1)
    for i in range(26):
        ch.push(i * 0.01, i * 0.01)
    assert ch.output(0.25) == pytest.approx(0.15, abs=1e-12)


def test_initial_value_before_first_delivery():
    ch = make_channel(delay=0.5, initial_value=-3.0)
    ch.push(0.0, 42.0)
    assert ch.output(0.1) == -3.0
    assert ch.output(0.5) == 42.0


def test_vector_payload_passes_through_whole():
    ch = make_channel(delay=0.02, initial_value=(0.5, -0.5))
    for i in range(5):
        ch.push(i * 0.01, (float(i), -float(i)))
    assert ch.output(0.01) == (0.5, -0.5)
    assert ch.output(0.04) == (2.0, -2.0)


def test_zero_delay_channel_is_identity():
    ch = make_channel(delay=0.0)
    for i in range(20):
        ch.push(i * 0.01, float(i) ** 2)
        assert ch.output(i * 0.01) == float(i) ** 2


def test_exact_shift_by_k_steps():
    dt = 0.01
    k = 7
    ch = make_channel(delay=k * dt, initial_value=-1.0)
    values = np.arange(100, dtype=float)
    outputs = []
    for i, v in enumerate(values):
        ch.push(i * dt, v)
        outputs.append(ch.output(i * dt))
    assert outputs[:k] == [-1.0] * k
    assert np.array_equal(outputs[k:], values[:-k])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=25))
def test_exact_shift_for_any_step_delay(k):
    dt = 0.01
    ch = make_channel(delay=k * dt, initial_value=math.nan)
    values = np.linspace(-5.0, 5.0, 60)
    outputs = []
    for i, v in enumerate(values):
        ch.push(i * dt, v)
        outputs.append(ch.output(i * dt))
    assert all(math.isnan(v) for v in outputs[:k])
    assert np.array_equal(outputs[k:], values[:values.size - k])


def test_fifo_order_for_any_seed():
    for seed in (0, 3, 12345):
        ch = make_channel(delay=0.05, drop_prob=0.4, seed=seed)
        for i in range(300):
            ch.push(i * 0.01, float(i))
        delivered = []
        last = -1.0
        for i in range(300, 400):
            out = ch.output(i * 0.01)
            if out != last:
                delivered.append(out)
                last = out
        assert delivered == sorted(delivered)


def test_hold_between_deliveries():
    ch = make_channel(delay=0.0)
    ch.push(0.0, 5.0)
    for t in np.linspace(0.0, 1.0, 50):
        assert ch.output(t) == 5.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.floats(-100, 100), min_size=1, max_size=60))
def test_determinism_for_seed_and_push_sequence(seed, values):
    def run():
        ch = make_channel(drop_prob=0.3, delay=0.02, seed=seed)
        flags = []
        outs = []
        for i, v in enumerate(values):
            flags.append(ch.push(i * 0.01, v))
            outs.append(ch.output(i * 0.01))
        return flags, outs

    assert run() == run()

