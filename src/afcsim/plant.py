"""Cart-pole plant and a fixed-step RK4 integrator for chain-of-integrators
dynamics.

The state is x = (x1, ..., xn) where x1 is the output and each x_{i+1} is
the derivative of x_i; only the top derivative carries the nonlinear terms:
dx_n/dt = f(x) + g(x) u + d(t). The simulated plant is the order-2
pendulum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "DynamicsOverflowError",
    "PendulumParams",
    "PlantModel",
    "pendulum_f",
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

    fg receives the state as a tuple of floats.
    """

    fg: Callable[[tuple], tuple]
    d: Callable[[float], float]


def _pendulum_fg(params: PendulumParams, x1: float, x2: float) -> tuple:
    """(f, g) of the cart-pole at (x1, x2), sharing sin, cos and the
    denominator between the two."""
    total = params.cart_mass + params.pole_mass
    sin1 = math.sin(x1)
    cos1 = math.cos(x1)
    den = params.half_length * (4.0 / 3.0 - params.pole_mass * cos1 * cos1 / total)
    num = (params.gravity * sin1
           - params.pole_mass * params.half_length * x2 * x2 * cos1 * sin1 / total)
    return num / den, (cos1 / total) / den


def pendulum_f(params: PendulumParams, x) -> float:
    """Drift acceleration of the pole angle for the cart-pole benchmark."""
    x1, x2 = x
    return _pendulum_fg(params, x1, x2)[0]


def pendulum_g(params: PendulumParams, x) -> float:
    """Input gain from applied force to pole-angle acceleration."""
    x1, x2 = x
    return _pendulum_fg(params, x1, x2)[1]


def pendulum(params: PendulumParams = PendulumParams(),
             d0: float = 0.0, omega_d: float = 0.0) -> PlantModel:
    """Two-state pole-balancing plant with sinusoidal disturbance d0 sin(w t).

    fg takes any indexable state and checks nothing: the integrator checks
    each stage instead.
    """

    def fg(x) -> tuple:
        return _pendulum_fg(params, x[0], x[1])

    def d(t: float) -> float:
        return d0 * math.sin(omega_d * t)

    return PlantModel(fg=fg, d=d)


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

    x is any sequence of finite floats; it is not re-validated here.
    Both the applied input and the disturbance value d(t) are held constant
    over the step (zero-order hold), matching sampled actuation. The stages
    are evaluated componentwise in the order of the vector form
    x + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), so results are bit-identical to it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = tuple(x)
    d_value = plant.d(t)
    half = 0.5 * dt
    k1 = _stage(plant, x, u_applied, d_value)
    k2 = _stage(plant, tuple([a + half * k for a, k in zip(x, k1)]), u_applied, d_value)
    k3 = _stage(plant, tuple([a + half * k for a, k in zip(x, k2)]), u_applied, d_value)
    k4 = _stage(plant, tuple([a + dt * k for a, k in zip(x, k3)]), u_applied, d_value)
    sixth = dt / 6.0
    out = tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
    if not all(map(math.isfinite, out)):
        raise DynamicsOverflowError("dynamics overflow: non-finite state")
    return out
