"""A second, plain implementation of the control loop, written from the module
docstrings alone, compared with harness.run_experiment.

The goldens pin the loop's bytes; this test pins what it computes: the step
order, which command adapts, which error vector the V column reads and the
channels' hold. The reference uses numpy vector forms only, P from a
Kronecker solve of the Lyapunov equation, xi as a normalized outer product of
Gaussians, RK4 in vector form and channels that draw one uniform per push
from numpy's default generator seeded with seed + 1 (sensor) and seed + 2
(actuator). Of afcsim, the reference reads only the config records, so its
rounding differs from the loop's by a few ulps per step.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afcsim import config, harness

# a column matches when it is within this fraction of its largest |value|
RELATIVE_TOLERANCE = 1e-12

CONFIGS = {
    "nominal": "duration = 2",
    "networked": config.PRESETS["networked"] + "duration = 2",
    "delay_and_loss_both_ways": (
        "duration = 2\nplant.x0 = 0.2, -0.3\n"
        "sensor_channel.delay = 0.003\nsensor_channel.drop_prob = 0.2\n"
        "actuator_channel.delay = 0.005\nactuator_channel.drop_prob = 0.15"),
    "retuned": ("duration = 2\ncontroller.r = 1\ncontroller.gamma_f = 5\n"
                "controller.k = 3, 4\ncontroller.q_diag = 2, 0.5"),
}


class ReferenceChannel:
    """Whole-step delay, one Bernoulli draw per push, hold of the last
    delivered payload (the initial value before the first)."""

    def __init__(self, channel_cfg, seed):
        self.rng = np.random.default_rng(seed)
        self.drop_prob = channel_cfg.drop_prob
        self.delay = channel_cfg.delay_steps
        self.sent = []
        self.held = channel_cfg.initial_value

    def push(self, value):
        dropped = self.drop_prob > 0 and self.rng.random() < self.drop_prob
        self.sent.append(None if dropped else value)
        return dropped

    def output(self):
        i = len(self.sent) - 1 - self.delay
        if i >= 0 and self.sent[i] is not None:
            self.held = self.sent[i]
        return self.held


def reference_run(cfg):
    """(rows, theta) of cfg's loop, rows in harness.TRACE_HEADER's order."""
    ctl, pp, dt = cfg.controller, cfg.plant, cfg.dt
    k = np.array(ctl.k)
    a_c = np.array([[0.0, 1.0], -k])
    # A_c^T P + P A_c = -Q, vectorized column-major: (I kron A_c^T + A_c^T kron I) vec P
    lyap = np.kron(np.eye(2), a_c.T) + np.kron(a_c.T, np.eye(2))
    p = np.linalg.solve(lyap, -np.diag(ctl.q_diag).ravel(order="F")).reshape(2, 2, order="F")
    b = np.array([0.0, 1.0])
    centers = [np.array(c) for c in cfg.fuzzy.centers]
    widths = cfg.fuzzy.widths
    total = pp.cart_mass + pp.pole_mass

    def fg(x):
        s, c = np.sin(x[0]), np.cos(x[0])
        den = pp.half_length * (4.0 / 3.0 - pp.pole_mass * c ** 2 / total)
        f = (pp.gravity * s - pp.pole_mass * pp.half_length * x[1] ** 2 * c * s / total) / den
        return f, c / total / den

    def xdot(x, u, d):
        f, g = fg(x)
        return np.array([x[1], f + g * u + d])

    def regressor(x):
        mu = [np.exp(-((v - c) / w) ** 2) for v, c, w in zip(x, centers, widths)]
        strengths = np.multiply.outer(*mu).ravel()
        return strengths / strengths.sum()

    amp, w_ref = cfg.reference.amplitude, cfg.reference.frequency
    sensor = ReferenceChannel(cfg.sensor_channel, cfg.seed + 1)
    actuator = ReferenceChannel(cfg.actuator_channel, cfg.seed + 2)
    theta = np.zeros((2, cfg.fuzzy.rule_count))
    theta[1] = cfg.theta_g_init
    x = np.array(cfg.x0)
    e_filt = None
    rows = []
    for i in range(cfg.n_steps):
        t = i * dt
        drop_sensor = sensor.push(x)
        x_meas = sensor.output()
        xd = amp * np.array([np.sin(w_ref * t), w_ref * np.cos(w_ref * t),
                             -w_ref ** 2 * np.sin(w_ref * t)])
        e_raw = xd[:2] - np.asarray(x_meas)
        e_filt = e_raw if e_filt is None else (
            (1.0 - ctl.filter_alpha) * e_filt + ctl.filter_alpha * e_raw)
        xi = regressor(x_meas)
        f_hat, g_hat = theta @ xi
        u_a = b @ p @ e_filt / ctl.r
        u = np.clip((-f_hat + xd[2] + k @ e_filt + u_a) / g_hat, -ctl.u_max, ctl.u_max)
        drop_actuator = actuator.push(u)
        u_applied = actuator.output()
        rows.append([t, x[0], x[1], xd[0], xd[0] - x[0], e_filt[0], u, u_applied,
                     f_hat, g_hat, e_filt @ p @ e_filt, drop_sensor, drop_actuator])
        d = cfg.disturbance.d0 * np.sin(cfg.disturbance.omega * t)
        k1 = xdot(x, u_applied, d)
        k2 = xdot(x + dt / 2 * k1, u_applied, d)
        k3 = xdot(x + dt / 2 * k2, u_applied, d)
        k4 = xdot(x + dt * k3, u_applied, d)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)):
            break
        s = e_filt @ p @ b
        theta += dt * np.outer([-ctl.gamma_f * s, -ctl.gamma_g * s * u], xi)
        theta[1] = np.maximum(theta[1], ctl.g_min)
    return np.array(rows, dtype=float), theta


def assert_within_tolerance(actual, expected, axis):
    # each line along axis is scaled by its own largest |value|
    scale = np.max(np.abs(expected), axis=axis, keepdims=True)
    worst = np.max(np.abs(actual - expected) - RELATIVE_TOLERANCE * scale, axis=axis)
    assert np.all(worst <= 0.0), worst


def check_against_reference(cfg):
    trace, _ = harness.run_experiment(cfg)
    rows, theta = reference_run(cfg)
    # both runs end at the same step, and only an aborted one ends early
    assert trace.rows.shape == rows.shape
    assert (trace.abort_reason is None) == (len(rows) == cfg.n_steps)
    assert_within_tolerance(trace.rows, rows, axis=0)
    assert_within_tolerance(np.stack([trace.theta_f, trace.theta_g]), theta, axis=1)
    return trace


@pytest.mark.parametrize("name", CONFIGS)
def test_run_experiment_matches_plain_reference_loop(name):
    check_against_reference(config.parse_config(CONFIGS[name]))


def channel_text(prefix, steps, drop_prob):
    # steps / 1000 prints as the shortest decimal, a whole number of 1 ms steps
    return f"{prefix}.delay = {steps / 1000}\n{prefix}.drop_prob = {drop_prob!r}\n"


x0_entry = st.floats(-0.3, 0.3)


@settings(max_examples=25, deadline=None)
@given(steps=st.integers(200, 300), seed=st.integers(0, 2 ** 32 - 1),
       sensor=st.tuples(st.integers(0, 30), st.floats(0.0, 0.5)),
       actuator=st.tuples(st.integers(0, 30), st.floats(0.0, 0.5)),
       x0=st.tuples(x0_entry, x0_entry), k=st.tuples(st.floats(1.0, 5.0), st.floats(1.0, 5.0)),
       r=st.floats(0.05, 2.0), gammas=st.tuples(st.floats(1.0, 50.0), st.floats(1.0, 50.0)))
def test_run_experiment_matches_reference_for_drawn_delays_and_losses(
        steps, seed, sensor, actuator, x0, k, r, gammas):
    cfg = config.parse_config(
        f"duration = {steps / 1000}\nseed = {seed}\nplant.x0 = {x0[0]!r}, {x0[1]!r}\n"
        + channel_text("sensor_channel", *sensor) + channel_text("actuator_channel", *actuator)
        + f"controller.k = {k[0]!r}, {k[1]!r}\ncontroller.r = {r!r}\n"
        f"controller.gamma_f = {gammas[0]!r}\ncontroller.gamma_g = {gammas[1]!r}")
    assert cfg.n_steps == steps
    assert check_against_reference(cfg).abort_reason is None
