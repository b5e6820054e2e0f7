"""Cart-pole plant and a fixed-step RK4 integrator for chain-of-integrators
dynamics.

The state is x = (x1, ..., xn) where x1 is the output and each x_{i+1} is
the derivative of x_i; only the top derivative carries the nonlinear terms:
dx_n/dt = f(x) + g(x) u + d(t). The simulated plant is the order-2
pendulum; rk4_step writes its stages out for any order-2 plant and uses the
generic chain form for every other order, with the same bits either way.
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
    """An RK4 step gave a non-finite new state; the simulation must abort."""


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
        # fg divides by half_length * (4/3 - pole_mass cos^2 / total), smallest at cos^2 = 1
        total = self.cart_mass + self.pole_mass
        if not self.half_length * (4.0 / 3.0 - self.pole_mass / total) > 0:
            raise ValueError("pendulum denominator half_length * (4/3 - pole_mass / "
                             "(cart_mass + pole_mass)) rounds to 0")


@dataclass(frozen=True)
class PlantModel:
    """Chain-of-integrators plant: fg(x) returns the drift and input gain
    (f(x), g(x)) in one call, and d(t) is the disturbance.

    fg receives the state as a tuple of floats.
    """

    fg: Callable[[tuple], tuple]
    d: Callable[[float], float]


def pendulum_g(params: PendulumParams, x) -> float:
    """Input gain from applied force to pole-angle acceleration."""
    return pendulum(params).fg(x)[1]


def pendulum(params: PendulumParams = PendulumParams(),
             d0: float = 0.0, omega_d: float = 0.0) -> PlantModel:
    """Two-state pole-balancing plant with sinusoidal disturbance d0 sin(w t).

    fg takes any indexable state and checks nothing: rk4_step checks the
    new state once, which every non-finite stage value reaches.
    """
    total = params.cart_mass + params.pole_mass
    m, l, gravity = params.pole_mass, params.half_length, params.gravity
    ml = m * l          # m * l * x2 is (m * l) * x2, so hoisting keeps every bit
    sin, cos = math.sin, math.cos

    def fg(x) -> tuple:
        sn, cs = sin(x[0]), cos(x[0])
        den = l * (4.0 / 3.0 - m * cs * cs / total)
        return (gravity * sn - ml * x[1] * x[1] * cs * sn / total) / den, cs / total / den

    def d(t: float) -> float:
        return d0 * sin(omega_d * t)

    return PlantModel(fg=fg, d=d)


def _top(fg, x: tuple, u_applied: float, d_value: float) -> float:
    """The top derivative f(x) + g(x) u + d at the state tuple x, unchecked."""
    f_value, g_value = fg(x)
    return f_value + g_value * u_applied + d_value


def rk4_step(plant: PlantModel, x, u_applied: float, t: float,
             dt: float) -> tuple:
    """Classical fourth-order Runge-Kutta advance by dt; returns the new state
    as a tuple of floats.

    x is any sequence of finite floats and dt > 0 (build_config owns that
    rule); neither is re-validated here. A non-finite new state raises
    DynamicsOverflowError, the step's one check: every non-finite stage value
    reaches the new state, or makes math.sin or math.cos raise ValueError.
    Both the applied input and the disturbance value d(t) are held constant
    over the step (zero-order hold), matching sampled actuation. The stages
    are evaluated componentwise in the order of the vector form
    x + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), so results are bit-identical to it.
    An order-2 state takes the stages written out; any other order takes the
    chain form.
    """
    fg, half, sixth = plant.fg, 0.5 * dt, dt / 6.0
    try:
        d_value = plant.d(t)
        if len(x) == 2:
            # stage (p1, p2) has derivative (p2, top); k1..k4 are the tops, a2, b2, c2 the p2s
            x1, x2 = x
            k1 = _top(fg, (x1, x2), u_applied, d_value)
            a2 = x2 + half * k1
            k2 = _top(fg, (x1 + half * x2, a2), u_applied, d_value)
            b2 = x2 + half * k2
            k3 = _top(fg, (x1 + half * a2, b2), u_applied, d_value)
            c2 = x2 + dt * k3
            k4 = _top(fg, (x1 + dt * b2, c2), u_applied, d_value)
            out = (x1 + sixth * (x2 + 2.0 * a2 + 2.0 * b2 + c2),
                   x2 + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        else:
            x = tuple(x)
            k1 = x[1:] + (_top(fg, x, u_applied, d_value),)
            s = tuple([a + half * k for a, k in zip(x, k1)])
            k2 = s[1:] + (_top(fg, s, u_applied, d_value),)
            s = tuple([a + half * k for a, k in zip(x, k2)])
            k3 = s[1:] + (_top(fg, s, u_applied, d_value),)
            s = tuple([a + dt * k for a, k in zip(x, k3)])
            k4 = s[1:] + (_top(fg, s, u_applied, d_value),)
            out = tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                         for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
    except ValueError:      # math.sin or math.cos of an overflowed stage state
        out = (math.inf,)   # counts as a non-finite new state
    if not all(map(math.isfinite, out)):
        raise DynamicsOverflowError("dynamics overflow: non-finite state")
    return out
