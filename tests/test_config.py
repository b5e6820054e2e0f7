import math
import re
import sys

import numpy as np
import pytest

from afcsim import config, harness


def test_empty_document_gives_nominal_defaults():
    cfg = config.parse_config("")
    assert cfg.duration == 30.0
    assert cfg.dt == 0.001
    assert cfg.seed == 12345
    assert cfg.reference.amplitude == pytest.approx(math.pi / 30.0)
    assert cfg.reference.frequency == 1.0
    assert cfg.plant.cart_mass == 1.0 and cfg.plant.pole_mass == 0.1
    assert cfg.disturbance.d0 == 0.1 and cfg.disturbance.omega == 2.0
    assert cfg.sensor_channel.delay_steps == 0 and cfg.actuator_channel.delay_steps == 0
    assert cfg.sensor_channel.drop_prob == 0.0
    assert np.array_equal(cfg.controller.k, [1.0, 2.0])
    assert cfg.controller.q_diag == (1.0, 1.0)
    assert cfg.controller.r == 0.1
    assert cfg.controller.gamma_f == 50.0 and cfg.controller.gamma_g == 50.0
    assert cfg.controller.u_max == 180.0
    assert cfg.controller.filter_alpha == 1.0
    assert not cfg.ideal_model
    assert np.array_equal(cfg.fuzzy.counts, [5, 5])


def test_single_override_keeps_other_defaults():
    cfg = config.parse_config("actuator_channel.delay = 0.02")
    assert cfg.actuator_channel.delay_steps == 20
    assert cfg.sensor_channel.delay_steps == 0
    assert cfg.duration == 30.0


def test_comments_and_blank_lines_ignored():
    cfg = config.parse_config("# a comment\n\nduration = 5.0   # trailing\n")
    assert cfg.duration == 5.0


def test_non_hurwitz_gains_rejected():
    # oracle: roots of s^2 - 2s + 1 are +1, +1
    assert np.allclose(np.roots([1.0, -2.0, 1.0]), [1.0, 1.0])
    with pytest.raises(config.ConfigError, match="Hurwitz"):
        config.parse_config("controller.k = 1, -2")


def test_unknown_key_names_key_and_line():
    with pytest.raises(config.ConfigError, match=r"line 2.*'controller\.zeta'"):
        config.parse_config("duration = 5\ncontroller.zeta = 1.0\n")


def test_malformed_value_names_key_and_line():
    with pytest.raises(config.ConfigError, match=r"line 1.*'dt'"):
        config.parse_config("dt = fast")


def test_missing_equals_rejected():
    with pytest.raises(config.ConfigError, match="key = value"):
        config.parse_config("duration 5")


@pytest.mark.parametrize("text,match", [
    ("dt = 0", "dt"),
    ("duration = -1", "duration"),
    ("duration = 20000\ndt = 1e-6", "exceed"),
    ("actuator_channel.drop_prob = 1.0", "drop_prob"),
    ("actuator_channel.delay = 0.0205", "multiple"),
    ("controller.filter_alpha = 0", "filter_alpha"),
    ("controller.q_diag = 1, -1", "q_diag"),
    ("fuzzy.theta_g_init = 0.01", "g_min"),
    ("fuzzy.lo = 1, 1\nfuzzy.hi = -1, -1", "lo < hi"),
    ("plant.x0 = 1", "x0"),
    ("plant.pole_mass = -0.1", "positive"),
    ("duration = 5\ncontroller.r = -1", r"'controller\.r' \(config line 2\)"),
    ("duration = 5\ncontroller.u_max = -5", r"'controller\.u_max' \(config line 2\)"),
    ("duration = 5\n\nplant.pole_mass = -0.1", r"'plant\.pole_mass' \(config line 3\)"),
    ("duration = 5\nactuator_channel.delay = 0.0205",
     r"'actuator_channel\.delay' \(config line 2\)"),
    ("duration = 5\nactuator_channel.delay = 1e308",
     r"'actuator_channel\.delay' \(config line 2\)"),
    ("duration = 5\nfuzzy.counts = 100000000000000000000, 2",
     r"'fuzzy\.counts' \(config line 2\)"),
    ("duration = 5\nfuzzy.counts = 100000, 100000",
     r"'fuzzy\.counts' \(config line 2\)"),
    ("duration = 5\nreference.amplitude = inf", r"'reference\.amplitude' \(config line 2\)"),
    ("duration = 5\nreference.amplitude = nan", r"'reference\.amplitude' \(config line 2\)"),
    ("duration = 5\nreference.frequency = inf", r"'reference\.frequency' \(config line 2\)"),
    ("duration = 5\nreference.frequency = 1e200", r"'reference\.frequency' \(config line 2\)"),
    ("reference.amplitude = 0\nreference.frequency = 1e200",
     r"'reference\.frequency' \(config line 2\)"),
    ("reference.frequency = 1e160\nreference.amplitude = 1e-300", "overflows"),
    ("reference.frequency = 1e5\nreference.amplitude = 1e300",
     r"'reference\.frequency' \(config line 1\): amplitude \* frequency \*\* 2"),
    ("fuzzy.hi = 1e308, 1\nfuzzy.lo = -1e308, -1", r"'fuzzy\.lo' \(config line 2\)"),
    ("fuzzy.hi = 1e308, 1\nfuzzy.lo = -1e308, -1", r"'fuzzy\.hi' \(config line 1\)"),
    ("controller.k = 1, 2\ncontroller.q_diag = 1e308, 1e308",
     r"'controller\.q_diag' \(config line 2\)"),
    ("duration = 5\nfuzzy.lo = -inf, -1", r"'fuzzy\.lo' \(config line 2\)"),
    ("duration = 5\nfuzzy.hi = inf, 1", r"'fuzzy\.hi' \(config line 2\)"),
    ("fuzzy.lo = -1, -1\nfuzzy.hi = inf, 1", r"'fuzzy\.hi' \(config line 2\)"),
    ("duration = 5\nfuzzy.counts = 0, 100000000000000000000",
     r"'fuzzy\.counts' \(config line 2\)"),
    ("duration = 5\nfuzzy.width_scale = 0", r"'fuzzy\.width_scale' \(config line 2\)"),
    ("duration = 5\ncontroller.q_diag = inf, 1", r"'controller\.q_diag' \(config line 2\)"),
    ("dt = 0.001\nduration = 0.0004", r"'duration' \(config line 2\)"),
    ("duration = 5\ndt = inf", r"'dt' \(config line 2\)"),
    ("duration = 5\ncontroller.k = 1e-300, 1e-320", r"'controller\.k' \(config line 2\)"),
    ("duration = 5\ncontroller.k = 1e154, 1e-300", r"'controller\.k' \(config line 2\)"),
    ("duration = 5\ncontroller.k = 1, 2, 3", r"'controller\.k' \(config line 2\): k must have"),
    ("duration = 5\ncontroller.k = 1, -2",
     r"'controller\.k' \(config line 2\): k must be finite and positive"),
    ("duration = 5\ncontroller.q_diag = 1, 1, 1", r"'controller\.q_diag' \(config line 2\)"),
    ("duration = 5\nactuator_channel.delay = nan", r"'actuator_channel\.delay' \(config line 2\)"),
    ("duration = 5\nsensor_channel.delay = -0.1", r"'sensor_channel\.delay' \(config line 2\)"),
    ("duration = 5\nactuator_channel.delay = inf", r"'actuator_channel\.delay' \(config line 2\)"),
    ("duration = 5\nsensor_channel.delay = 0.0205",
     r"'sensor_channel\.delay' \(config line 2\): delay \(0\.0205\) must be an exact multiple"),
    ("fuzzy.counts = 1, 5\nfuzzy.width_scale = 1e-320",
     r"'fuzzy\.width_scale' \(config line 2\): widths"),
    ("duration = 5\nfuzzy.width_scale = 1e-160", r"'fuzzy\.width_scale' \(config line 2\): widths"),
    ("fuzzy.counts = 1, 1\nfuzzy.width_scale = 1e-160",
     r"'fuzzy\.width_scale' \(config line 2\): widths"),
    # a channel seed derived from the master seed is reported under 'seed'
    ("duration = 5\nseed = 18446744073709551615",
     r"'seed' \(config line 2\): seed \+ 1 \(sensor_channel\.seed\) must be below 2\*\*64"),
    ("duration = 5\nseed = 18446744073709551614",
     r"'seed' \(config line 2\): seed \+ 2 \(actuator_channel\.seed\) must be below 2\*\*64"),
    ("duration = 5\ndisturbance.d0 = inf", r"'disturbance\.d0' \(config line 2\)"),
    ("duration = 5\ndisturbance.d0 = nan", r"'disturbance\.d0' \(config line 2\)"),
    ("duration = 5\ndisturbance.omega = nan", r"'disturbance\.omega' \(config line 2\)"),
    ("duration = 20\ndisturbance.omega = 1e307", r"'disturbance\.omega' \(config line 2\)"),
    ("duration = 5\nplant.gravity = inf", r"'plant\.gravity' \(config line 2\)"),
    ("plant.pole_mass = 1e300\nplant.half_length = 5e-324",
     r"'plant\.half_length' \(config line 2\): half_length is too small"),
    ("duration = 5\ncontroller.gamma_f = inf", r"'controller\.gamma_f' \(config line 2\)"),
    ("duration = 5\ncontroller.gamma_g = inf", r"'controller\.gamma_g' \(config line 2\)"),
    ("duration = 5\ncontroller.g_min = inf", r"'controller\.g_min' \(config line 2\)"),
    ("duration = 5\nfuzzy.theta_g_init = inf", r"'fuzzy\.theta_g_init' \(config line 2\)"),
    ("duration = 5\nfuzzy.theta_g_init = 1.7976931348623157e308",
     r"'fuzzy\.theta_g_init' \(config line 2\)"),
])
def test_invariant_violations_rejected(text, match):
    with pytest.raises(config.ConfigError, match=match) as excinfo:
        config.parse_config(text)
    assert re.search(r"'[\w.]+' \(config line \d+\)", str(excinfo.value))


def test_largest_theta_g_init_runs_without_overflow():
    # at the cap the g estimate, a sum over the rules, stays finite; pytest turns
    # numpy's overflow warning into an error
    cfg = config.parse_config(f"fuzzy.theta_g_init = {sys.float_info.max / 2!r}\nduration = 0.05")
    trace, metrics = harness.run_experiment(cfg)
    assert len(trace) == 50 and np.all(np.isfinite(trace.g_hat)) and not metrics.diverged


@pytest.mark.parametrize("gains", ["1e-6, 5e5", "1e-7, 1e4"])
def test_stiff_hurwitz_gains_accepted(gains):
    # both roots of s^2 + k2 s + k1 are negative, one of them tiny
    cfg = config.parse_config(f"controller.k = {gains}")
    k1, k2 = cfg.controller.k
    disc = math.sqrt(k2 * k2 - 4 * k1)
    assert -(k2 + disc) / 2 < 0 and -2 * k1 / (k2 + disc) < 0
    assert all(math.isfinite(v) for row in cfg.controller.p for v in row)


def test_infinite_r_and_u_max_accepted():
    # r = inf drops the auxiliary term, u_max = inf the saturation
    cfg = config.parse_config("controller.r = inf\ncontroller.u_max = inf")
    assert cfg.controller.r == cfg.controller.u_max == math.inf


def test_filter_alpha_auto_resolution():
    assert config.parse_config("").controller.filter_alpha == 1.0
    assert config.parse_config("actuator_channel.delay = 0.02").controller.filter_alpha == 0.2
    assert config.parse_config("sensor_channel.delay = 0.01").controller.filter_alpha == 0.2
    cfg = config.parse_config("actuator_channel.delay = 0.02\ncontroller.filter_alpha = 0.7")
    assert cfg.controller.filter_alpha == 0.7


def test_channel_seeds_derived_from_master_seed():
    cfg = config.parse_config("seed = 1000")
    assert cfg.sensor_channel.seed == 1001
    assert cfg.actuator_channel.seed == 1002
    cfg = config.parse_config("seed = 1000\nsensor_channel.seed = 7")
    assert cfg.sensor_channel.seed == 7
    # the largest master seed builds once neither channel derives its seed from it
    cfg = config.parse_config("seed = 18446744073709551615\n"
                              "sensor_channel.seed = 1\nactuator_channel.seed = 2")
    assert (cfg.seed, cfg.sensor_channel.seed, cfg.actuator_channel.seed) == (2 ** 64 - 1, 1, 2)


def test_sample_period_key_rejected():
    with pytest.raises(config.ConfigError,
                       match=r"line 2: unknown key 'sensor_channel\.sample_period'"):
        config.parse_config("duration = 5\nsensor_channel.sample_period = 0.001\n")


def test_networked_preset():
    cfg = config.build_config([("preset", config.preset_text("networked"))])
    assert cfg.actuator_channel.delay_steps == 20
    assert cfg.actuator_channel.drop_prob == 0.1
    assert cfg.sensor_channel.delay_steps == 0
    assert cfg.controller.filter_alpha == 0.2


def test_stress_preset():
    cfg = config.build_config([("preset", config.preset_text("stress"))])
    assert cfg.actuator_channel.delay_steps == 50
    assert cfg.actuator_channel.drop_prob == 0.2


def test_unknown_preset_rejected():
    with pytest.raises(config.ConfigError, match="unknown preset"):
        config.preset_text("turbo")


def test_later_sources_override_earlier_ones():
    cfg = config.build_config([
        ("preset", config.preset_text("networked")),
        ("file", "actuator_channel.delay = 0.01\nduration = 7"),
    ])
    assert cfg.actuator_channel.delay_steps == 10
    assert cfg.actuator_channel.drop_prob == 0.1
    assert cfg.duration == 7.0


def test_duplicate_key_last_wins():
    cfg = config.parse_config("duration = 5\nduration = 9")
    assert cfg.duration == 9.0


def test_x0_override():
    cfg = config.parse_config("plant.x0 = -0.1, 0.2")
    assert np.allclose(cfg.x0, [-0.1, 0.2])
