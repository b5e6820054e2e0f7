"""Cart-pole plant and a fixed-step RK4 integrator for chain-of-integrators
dynamics.

The state is x = (x1, ..., xn) where x1 is the output and each x_{i+1} is
the derivative of x_i; only the top derivative carries the nonlinear terms:
dx_n/dt = f(x) + g(x) u + d(t). The simulated plant is the order-2
pendulum, whose written-out RK4 step matches rk4_step's generic chain form
bit for bit; rk4_step uses it, and the chain form for any other plant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "DynamicsOverflowError",
    "PendulumParams",
    "PlantModel",
    "pendulum_g",
    "pendulum",
    "rk4_step",
]


class DynamicsOverflowError(RuntimeError):
    """Dynamics produced a non-finite value; the simulation step must abort."""


@dataclass(frozen=True)
class PendulumParams:
    """Cart-pole benchmark parameters, all positive and finite."""

    cart_mass: float = 1.0
    pole_mass: float = 0.1
    half_length: float = 0.5
    gravity: float = 9.8

    def __post_init__(self):
        for name in ("cart_mass", "pole_mass", "half_length", "gravity"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class PlantModel:
    """Chain-of-integrators plant: fg(x) returns the drift and input gain
    (f(x), g(x)) in one call, and d(t) is the disturbance.

    fg receives the state as a tuple of floats. step, if set, is rk4_step
    written out for this plant: the same bits and the same errors.
    """

    fg: Callable[[tuple], tuple]
    d: Callable[[float], float]
    step: Callable[[tuple, float, float, float], tuple] | None = None


def pendulum_g(params: PendulumParams, x) -> float:
    """Input gain from applied force to pole-angle acceleration."""
    return pendulum(params).fg(x)[1]


def pendulum(params: PendulumParams = PendulumParams(),
             d0: float = 0.0, omega_d: float = 0.0) -> PlantModel:
    """Two-state pole-balancing plant with sinusoidal disturbance d0 sin(w t).

    fg takes any indexable state and checks nothing: the integrator checks
    each stage instead. step is rk4_step's chain form with fg and d inlined.
    """
    total = params.cart_mass + params.pole_mass
    m, l, gravity = params.pole_mass, params.half_length, params.gravity
    ml = m * l          # m * l * x2 is (m * l) * x2, so hoisting keeps every bit
    sin, cos, isfinite = math.sin, math.cos, math.isfinite

    def fg(x) -> tuple:
        sn, cs = sin(x[0]), cos(x[0])
        den = l * (4.0 / 3.0 - m * cs * cs / total)
        return (gravity * sn - ml * x[1] * x[1] * cs * sn / total) / den, cs / total / den

    def d(t: float) -> float:
        return d0 * math.sin(omega_d * t)

    def top(p1, p2, u, dv):
        # f + g u + d at (p1, p2), which _stage checks the same way
        sn, cs = sin(p1), cos(p1)
        den = l * (4.0 / 3.0 - m * cs * cs / total)
        k = (gravity * sn - ml * p2 * p2 * cs * sn / total) / den + cs / total / den * u + dv
        if not isfinite(k):
            raise DynamicsOverflowError("dynamics overflow: non-finite derivative")
        return k

    def step(x, u: float, t: float, dt: float) -> tuple:
        # the stage at (p1, p2) has the derivative (p2, top(p1, p2))
        x1, x2 = x
        dv = d0 * sin(omega_d * t)
        half = 0.5 * dt
        k1 = top(x1, x2, u, dv)
        a2 = x2 + half * k1
        k2 = top(x1 + half * x2, a2, u, dv)
        b2 = x2 + half * k2
        k3 = top(x1 + half * a2, b2, u, dv)
        c2 = x2 + dt * k3
        k4 = top(x1 + dt * b2, c2, u, dv)
        sixth = dt / 6.0
        y1 = x1 + sixth * (x2 + 2.0 * a2 + 2.0 * b2 + c2)
        y2 = x2 + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (isfinite(y1) and isfinite(y2)):
            raise DynamicsOverflowError("dynamics overflow: non-finite state")
        return y1, y2

    return PlantModel(fg=fg, d=d, step=step)


def _stage(plant: PlantModel, x: tuple, u_applied: float, d_value: float) -> tuple:
    """(x2, ..., xn, f(x) + g(x) u + d) at the state tuple x."""
    f_value, g_value = plant.fg(x)
    top = f_value + g_value * u_applied + d_value
    if not math.isfinite(top):
        raise DynamicsOverflowError("dynamics overflow: non-finite derivative")
    return x[1:] + (top,)


def rk4_step(plant: PlantModel, x, u_applied: float, t: float,
             dt: float) -> tuple:
    """Classical fourth-order Runge-Kutta advance by dt; returns the new state
    as a tuple of floats.

    x is any sequence of finite floats and dt > 0 (build_config owns that
    rule); neither is re-validated here.
    Both the applied input and the disturbance value d(t) are held constant
    over the step (zero-order hold), matching sampled actuation. The stages
    are evaluated componentwise in the order of the vector form
    x + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), so results are bit-identical to it.
    A plant's own step (pendulum() has one) runs instead, in this same order.
    """
    try:
        if plant.step is not None:
            return plant.step(x, u_applied, t, dt)
        x = tuple(x)
        d_value = plant.d(t)
        half = 0.5 * dt
        k1 = _stage(plant, x, u_applied, d_value)
        k2 = _stage(plant, tuple([a + half * k for a, k in zip(x, k1)]), u_applied, d_value)
        k3 = _stage(plant, tuple([a + half * k for a, k in zip(x, k2)]), u_applied, d_value)
        k4 = _stage(plant, tuple([a + dt * k for a, k in zip(x, k3)]), u_applied, d_value)
    except ValueError:      # math.sin or math.cos of a stage state that overflowed
        raise DynamicsOverflowError("dynamics overflow: non-finite stage state") from None
    sixth = dt / 6.0
    out = tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
    if not all(map(math.isfinite, out)):
        raise DynamicsOverflowError("dynamics overflow: non-finite state")
    return out
