"""Indirect adaptive fuzzy tracking controller with an H-infinity auxiliary
term.

Setup, for the order-2 tracking error e = x_d - x1 with error vector
E = (e, e'):

* gains k = (k1, k2), both positive, which is exactly when the error
  dynamics A_c = [[0, 1], [-k1, -k2]] (characteristic polynomial
  s^2 + k2 s + k1) are Hurwitz,
* P solving the Lyapunov equation A_c^T P + P A_c = -Q for
  Q = diag(q1, q2), in closed form,
* certainty-equivalence control
      u = (1/g_hat) * (-f_hat + ydn + k.E + u_a),   u_a = (1/r) B^T P E,
  saturated to [-u_max, u_max], with B = (0, 1)^T,
* gradient adaptation of the fuzzy consequents driven by s = E^T P B:
      dtheta_f/dt = -gamma_f * s * xi(x)
      dtheta_g/dt = -gamma_g * s * xi(x) * u   (u commanded, not applied)
  discretized by one explicit Euler step per control period, followed by a
  componentwise projection keeping every theta_g entry at or above g_min so
  that the g estimate stays bounded away from zero.

The adaptation signs make the candidate V = E^T P E decrease along ideal
(model-matched) trajectories; this is verified numerically in the test
suite rather than asserted.

The step functions write the small products k.E and B^T P E out as Python
float expressions in a fixed order, so their rounding does not depend on the
BLAS kernel numpy was built with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fuzzy import FuzzyApproximator

__all__ = [
    "SingularControlError",
    "ControllerConfig",
    "filter_error",
    "h_infinity_term",
    "control_law",
    "adapt_step",
    "project_theta_g",
]


class SingularControlError(RuntimeError):
    """The control law has no usable command: the g estimate fell below its
    floor (a division by ~0), or the command came out non-finite."""


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Tuning for the adaptive loop and the Lyapunov matrix p it implies.

    Validated at construction, the only place these rules are checked: k
    holds two finite, positive gains (the Hurwitz condition at order 2),
    q_diag two finite, positive weights, and p, the closed-form solution of
    A_c^T P + P A_c = -diag(q_diag), must come out finite and positive
    definite. k, q_diag and p, the rows of P, are kept as Python floats,
    which the step functions read.
    """

    k: tuple = (1.0, 2.0)
    q_diag: tuple = (1.0, 1.0)
    r: float = 0.1
    gamma_f: float = 50.0
    gamma_g: float = 50.0
    g_min: float = 0.1
    u_max: float = 180.0
    filter_alpha: float = 1.0
    p: tuple = field(init=False, repr=False)

    def __post_init__(self):
        k = tuple(map(float, self.k))
        if len(k) != 2:
            raise ValueError("k must have exactly 2 gains for the order-2 benchmark")
        if not all(0 < gain < math.inf for gain in k):
            raise ValueError("k must be finite and positive, the Hurwitz condition at order 2")
        q_diag = tuple(map(float, self.q_diag))
        if not (len(q_diag) == 2 and all(0 < weight < math.inf for weight in q_diag)):
            raise ValueError("q_diag must hold exactly 2 finite, positive weights")
        (k1, k2), (q1, q2) = k, q_diag
        # entries (0, 0), (1, 1) and (0, 1) of the equation, solved in turn
        p01 = q1 / (2.0 * k1)
        p11 = (2.0 * p01 + q2) / (2.0 * k2)
        p00 = k2 * p01 + k1 * p11
        p = ((p00, p01), (p01, p11))
        if not all(map(math.isfinite, (p00, p01, p11))):
            raise ValueError("P must be finite")
        if not np.all(np.linalg.eigvalsh(p) > 0):
            raise ValueError("P must be positive definite")
        # r = inf drops the auxiliary term and u_max = inf the saturation
        for name in ("r", "u_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("gamma_f", "gamma_g", "g_min"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.filter_alpha <= 1.0:
            raise ValueError("filter_alpha must lie in (0, 1]")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "q_diag", q_diag)
        object.__setattr__(self, "p", p)


def filter_error(e_prev_filtered, e_raw, filter_alpha: float) -> tuple:
    """One step of componentwise exponential smoothing of the error vector.

    filter_alpha = 1 disables the filter (output equals the raw error). The
    coefficient is checked once, by ControllerConfig; returns a tuple.
    """
    keep = 1.0 - filter_alpha
    return tuple([keep * prev + filter_alpha * raw
                  for prev, raw in zip(e_prev_filtered, e_raw)])


def h_infinity_term(cfg: ControllerConfig, e_vec) -> float:
    """Auxiliary control u_a = (1/r) B^T P E with B the last unit vector."""
    e0, e1 = e_vec
    p10, p11 = cfg.p[1]
    return (p10 * e0 + p11 * e1) / cfg.r


def control_law(cfg: ControllerConfig, f_hat: float, g_hat: float, e_vec,
                ydn: float) -> float:
    """Certainty-equivalence control, saturated to [-u_max, u_max].

    ydn is the second derivative of the reference and e_vec the error
    vector (e, e'). Raises SingularControlError if |g_hat| sits below g_min
    despite projection, or if the saturated command is NaN or, with
    u_max = inf, infinite; such a command is never returned.
    """
    # Slack of a few ulps: theta_g at the floor gives g_hat = g_min only up to
    # rounding in the convex combination, which must not count as singular.
    if abs(g_hat) < cfg.g_min * (1.0 - 1e-9):
        raise SingularControlError(
            f"singular control: |g_hat|={abs(g_hat):.3e} < g_min={cfg.g_min:.3e}")
    e0, e1 = e_vec
    k0, k1 = cfg.k
    u = (-f_hat + ydn + (k0 * e0 + k1 * e1) + h_infinity_term(cfg, e_vec)) / g_hat
    u = min(max(u, -cfg.u_max), cfg.u_max)
    if not math.isfinite(u):
        raise SingularControlError(
            f"non-finite control: u = {u} (f_hat = {f_hat}, g_hat = {g_hat})")
    return u


def project_theta_g(approx_g: FuzzyApproximator, g_min: float) -> None:
    """Clamp every theta_g entry to at least g_min, in place.

    Because the regressor is a convex-combination vector, this keeps the g
    estimate at or above g_min for every input. g_min > 0 is checked once,
    by ControllerConfig.
    """
    np.maximum(approx_g.theta, g_min, out=approx_g.theta)


def adapt_step(approx_f: FuzzyApproximator, approx_g: FuzzyApproximator,
               xi: np.ndarray, e_vec, u: float, cfg: ControllerConfig,
               dt: float) -> None:
    """One explicit-Euler step of the gradient adaptation laws, in place.

    Updates theta_f and theta_g from the adaptation signal s = E^T P B and
    the commanded control u, then projects theta_g onto [g_min, inf). The
    thetas of the two approximators must be the rows of one (2, R) array
    (unchecked), so one update writes both; it raises numpy's broadcast
    ValueError when xi does not fit the rows.
    """
    theta = approx_f.theta.base
    e0, e1 = e_vec
    p10, p11 = cfg.p[1]
    s = p10 * e0 + p11 * e1
    theta += np.multiply.outer((dt * (-cfg.gamma_f * s), dt * (-cfg.gamma_g * s * u)), xi)
    project_theta_g(approx_g, cfg.g_min)
