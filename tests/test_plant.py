import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from afcsim import plant

DEFAULTS = plant.PendulumParams()
NOMINAL = plant.pendulum(DEFAULTS)

angles = st.floats(min_value=-math.pi / 2 + 0.01, max_value=math.pi / 2 - 0.01)
rates = st.floats(min_value=-3.0, max_value=3.0)


def test_params_must_be_positive():
    for field in ("cart_mass", "pole_mass", "half_length", "gravity"):
        with pytest.raises(ValueError, match=field):
            plant.PendulumParams(**{field: 0.0})
    # positive, yet fg's denominator half_length * (4/3 - pole_mass / total) rounds to 0
    with pytest.raises(ValueError, match="^pendulum denominator"):
        plant.PendulumParams(pole_mass=1e300, half_length=5e-324)


# -------------------------------------------------------------------- drift f

def test_pendulum_f_zero_at_origin():
    assert NOMINAL.fg([0.0, 0.0])[0] == 0.0


def test_pendulum_f_hand_value_at_pi_sixth():
    assert NOMINAL.fg([math.pi / 6, 0.0])[0] == pytest.approx(7.7461, abs=1e-3)


@given(angles, rates)
def test_pendulum_f_odd_symmetry(x1, x2):
    f = NOMINAL.fg([x1, x2])[0]
    assert NOMINAL.fg([-x1, -x2])[0] == pytest.approx(-f, abs=1e-12)


# ----------------------------------------------------------------- pendulum_g

def test_pendulum_g_hand_value_at_origin():
    assert plant.pendulum_g(DEFAULTS, [0.0, 0.0]) == pytest.approx(1.4634, abs=1e-3)


@given(angles, rates, rates)
def test_pendulum_g_even_in_angle_and_rate_free(x1, x2, x2b):
    g = plant.pendulum_g(DEFAULTS, [x1, x2])
    assert plant.pendulum_g(DEFAULTS, [-x1, x2]) == pytest.approx(g, abs=1e-14)
    assert plant.pendulum_g(DEFAULTS, [x1, x2b]) == pytest.approx(g, abs=1e-14)


def test_pendulum_g_positive_inside_half_pi():
    for x1 in np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 2000):
        assert plant.pendulum_g(DEFAULTS, [x1, 0.0]) > 0.0


def test_pendulum_f_g_slopes_bounded_on_dense_grid():
    # continuity proxy: finite-difference slope stays bounded on |x1| <= pi/2
    h = 1e-6
    xs = np.linspace(-math.pi / 2, math.pi / 2 - h, 1500)
    for x2 in (0.0, 1.0):
        for i in (0, 1):    # f, then g
            vals = np.array([NOMINAL.fg([x, x2])[i] for x in xs])
            vals_h = np.array([NOMINAL.fg([x + h, x2])[i] for x in xs])
            assert np.max(np.abs(vals_h - vals) / h) < 100.0


def test_feedback_linearization_identity():
    # u = (g(x))^-1 (-f(x) + v) from fg must make the plant's top derivative
    # v + d(t); a step short enough to leave it nearly constant measures it
    pend = plant.pendulum(DEFAULTS, d0=0.3, omega_d=2.0)
    rng = np.random.default_rng(4)
    h = 1e-8
    for _ in range(50):
        x = (rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
        v = rng.uniform(-5.0, 5.0)
        t = rng.uniform(0.0, 10.0)
        f, g = pend.fg(x)
        assert (f, g) == (NOMINAL.fg(x)[0], plant.pendulum_g(DEFAULTS, x))
        u = (-f + v) / g
        assert f + g * u == pytest.approx(v, abs=1e-12)
        out = plant.rk4_step(pend, x, u, t, h)
        assert (out[1] - x[1]) / h == pytest.approx(v + pend.d(t), abs=1e-5)


# ------------------------------------------------------------------- rk4_step

def decay_plant():
    return plant.PlantModel(fg=lambda x: (-x[0], 0.0), d=lambda t: 0.0)


def test_rk4_single_step_against_analytic_decay():
    out = plant.rk4_step(decay_plant(), [1.0], 0.0, 0.0, 0.1)
    assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-7)


def test_rk4_exact_on_double_integrator():
    pl = plant.PlantModel(fg=lambda x: (0.0, 1.0), d=lambda t: 0.0)
    x = np.zeros(2)
    for i in range(10):
        x = plant.rk4_step(pl, x, 1.0, i * 0.1, 0.1)
    assert x[0] == pytest.approx(0.5, abs=1e-13)
    assert x[1] == pytest.approx(1.0, abs=1e-13)


def test_rk4_zero_field_keeps_state():
    pl = plant.PlantModel(fg=lambda x: (0.0, 0.0), d=lambda t: 0.0)
    x = np.array([0.7, 0.0])
    out = plant.rk4_step(pl, x, 5.0, 0.0, 0.01)
    assert np.array_equal(out, [0.7, 0.0])


# ------------------------------------------- bit identity with the vector form

def _vector_chain(pl, x, u_applied, d_value):
    f, g = pl.fg(x)
    out = np.empty(x.size)
    out[:-1] = x[1:]
    out[-1] = f + g * u_applied + d_value
    return out


def vector_rk4(pl, x, u_applied, t, dt):
    """RK4 on numpy state arrays, in the arithmetic order the scalar kernel
    must reproduce: x + 0.5 * dt * k1, ..., x + (dt / 6) (k1 + 2 k2 + 2 k3 + k4)."""
    x = np.array(x, dtype=float)
    d_value = pl.d(t)
    k1 = _vector_chain(pl, x, u_applied, d_value)
    k2 = _vector_chain(pl, x + 0.5 * dt * k1, u_applied, d_value)
    k3 = _vector_chain(pl, x + 0.5 * dt * k2, u_applied, d_value)
    k4 = _vector_chain(pl, x + dt * k3, u_applied, d_value)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def vector_pendulum(params, d0, omega_d):
    """The cart-pole formulas on array states, written out independently."""
    total = params.cart_mass + params.pole_mass

    def denominator(x1):
        cos1 = math.cos(x1)
        return params.half_length * (4.0 / 3.0 - params.pole_mass * cos1 * cos1 / total)

    def f(x):
        x1, x2 = x
        sin1, cos1 = math.sin(x1), math.cos(x1)
        num = (params.gravity * sin1
               - params.pole_mass * params.half_length * x2 * x2 * cos1 * sin1 / total)
        return num / denominator(x1)

    def g(x):
        return math.cos(x[0]) / total / denominator(x[0])

    return plant.PlantModel(fg=lambda x: (f(x), g(x)), d=lambda t: d0 * math.sin(omega_d * t))


def test_rk4_bit_identical_to_vector_form_on_random_states():
    rng = np.random.default_rng(2024)
    n_cases = 5000
    new = np.empty((n_cases, 2))
    old = np.empty((n_cases, 2))
    for i in range(n_cases):
        params = plant.PendulumParams(*rng.uniform(0.05, 2.0, size=3).tolist(), gravity=9.8)
        d0, omega = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 5.0))
        fast = plant.pendulum(params, d0=d0, omega_d=omega)
        x = (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-5.0, 5.0)))
        u, t = float(rng.uniform(-200.0, 200.0)), float(rng.uniform(0.0, 30.0))
        dt = float(10.0 ** rng.uniform(-4.0, -1.5))
        out = plant.rk4_step(fast, x, u, t, dt)
        assert type(out) is tuple and all(type(v) is float for v in out)
        new[i] = out
        old[i] = vector_rk4(vector_pendulum(params, d0, omega), x, u, t, dt)
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rk4_bit_identical_to_vector_form_for_other_orders(n):
    # a hand-built plant: order 2 takes the written-out stages, 1 and 3 the chain
    rng = np.random.default_rng(n)
    pl = plant.PlantModel(fg=lambda x: (-math.sin(x[0]) - 0.3 * x[-1],
                                        1.0 + 0.5 * math.cos(x[0])),
                          d=lambda t: 0.2 * math.sin(3.0 * t))
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, size=n)
        u, t = float(rng.uniform(-10.0, 10.0)), float(rng.uniform(0.0, 10.0))
        out = np.array(plant.rk4_step(pl, tuple(x.tolist()), u, t, 0.01))
        assert out.tobytes() == vector_rk4(pl, x, u, t, 0.01).tobytes()


def test_rk4_non_finite_derivative_aborts():
    bad = plant.PlantModel(fg=lambda x: (math.inf, 1.0), d=lambda t: 0.0)
    with pytest.raises(plant.DynamicsOverflowError, match="non-finite state"):
        plant.rk4_step(bad, (0.0,), 0.0, 0.0, 0.1)


def test_rk4_overflowing_state_aborts():
    # every stage derivative is finite; only the new state overflows
    steep = plant.PlantModel(fg=lambda x: (1e308, 0.0), d=lambda t: 0.0)
    with pytest.raises(plant.DynamicsOverflowError, match="non-finite state"):
        plant.rk4_step(steep, (1.7e308,), 0.0, 0.0, 1.0)


# ------------------------------- the written-out order-2 stages vs the vector form

def test_pendulum_step_bit_identical_to_generic_chain():
    # wide states, gravities and disturbance frequencies of either sign: the
    # order-2 stages must give the vector form's bits
    rng = np.random.default_rng(11)
    for _ in range(6000):
        params = plant.PendulumParams(*rng.uniform(0.05, 2.0, size=3).tolist(),
                                      gravity=float(rng.uniform(1.0, 20.0)))
        d0, omega = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-10.0, 10.0))
        x = (float(rng.uniform(-400.0, 400.0)), float(rng.uniform(-1e3, 1e3)))
        u, t = float(rng.uniform(-180.0, 180.0)), float(rng.uniform(0.0, 30.0))
        dt = float(10.0 ** rng.uniform(-4.0, -1.0))
        out = plant.rk4_step(plant.pendulum(params, d0=d0, omega_d=omega), x, u, t, dt)
        assert type(out) is tuple and all(type(v) is float for v in out)
        expected = vector_rk4(vector_pendulum(params, d0, omega), x, u, t, dt)
        assert np.array(out).tobytes() == expected.tobytes()


# cause names what overflows first; the step's one check reports the new state
@pytest.mark.parametrize("pole, x, cause", [
    ((0.1, 0.5), (0.5, 1e154), "non-finite derivative"),
    ((0.1, 0.5), (1e300, 1e160), "non-finite derivative"),
    ((0.1, 1e-306), (0.5, 0.0), "non-finite derivative"),
    ((1e-200, 1e-200), (0.5, 5e307), "non-finite state"),
    # every derivative stays finite, but the stage angle x1 + dt / 2 * x2
    # overflows to inf, where math.sin raises ValueError
    ((1e-300, 1e-300), (1.7976931348623e308, 1e306), "non-finite stage state"),
])
def test_pendulum_step_overflow_matches_generic_chain(pole, x, cause):
    pole_mass, half_length = pole
    params = plant.PendulumParams(pole_mass=pole_mass, half_length=half_length)
    with pytest.raises(plant.DynamicsOverflowError, match="non-finite state"):
        plant.rk4_step(plant.pendulum(params, d0=0.3, omega_d=2.0), x, 100.0, 1.0, 1e-3)


def test_pendulum_step_matches_generic_chain_near_overflow():
    # parameters and states over hundreds of decades: where rk4_step returns,
    # the vector form gives the same bits; where it raises, the vector form
    # reaches a non-finite value or math.sin's ValueError
    rng = np.random.default_rng(12)
    seen = set()
    for _ in range(2000):
        params = plant.PendulumParams(*(10.0 ** rng.uniform(-250.0, 250.0, size=3)).tolist(),
                                      gravity=float(10.0 ** rng.uniform(-3.0, 3.0)))
        d0, omega = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 5.0))
        signs = rng.choice([-1.0, 1.0], size=2)
        x = (float(signs[0] * 10.0 ** rng.uniform(0.0, 300.0)),
             float(signs[1] * 10.0 ** rng.uniform(0.0, 307.0)))
        u, dt = float(rng.uniform(-180.0, 180.0)), float(10.0 ** rng.uniform(-4.0, 0.0))
        try:
            out = plant.rk4_step(plant.pendulum(params, d0=d0, omega_d=omega), x, u, 0.0, dt)
        except plant.DynamicsOverflowError:
            out = None
        with np.errstate(all="ignore"):     # the vector form runs on past an overflow
            try:
                expected = vector_rk4(vector_pendulum(params, d0, omega), x, u, 0.0, dt)
            except ValueError:
                expected = None
        if out is None:
            assert expected is None or not np.all(np.isfinite(expected))
        else:
            assert np.array(out).tobytes() == expected.tobytes()
        seen.add(out is None)
    assert seen == {False, True}
