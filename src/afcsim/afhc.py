"""Indirect adaptive fuzzy tracking controller with an H-infinity auxiliary
term.

Setup, for a chain-of-integrators plant of order n with tracking error
e = x_d - x1 and error vector E = (e, e', ..., e^(n-1)):

* gains k = (k1, ..., kn) whose companion matrix A_c (characteristic
  polynomial s^n + kn s^(n-1) + ... + k1) is Hurwitz,
* P solving the Lyapunov equation A_c^T P + P A_c = -Q,
* certainty-equivalence control
      u = (1/g_hat) * (-f_hat + ydn + k.E + u_a),   u_a = (1/r) B^T P E,
  saturated to [-u_max, u_max], with B = (0, ..., 0, 1)^T,
* gradient adaptation of the fuzzy consequents driven by s = E^T P B:
      dtheta_f/dt = -gamma_f * s * xi(x)
      dtheta_g/dt = -gamma_g * s * xi(x) * u
  discretized by one explicit Euler step per control period, followed by a
  componentwise projection keeping every theta_g entry at or above g_min so
  that the g estimate stays bounded away from zero.

The adaptation signs make the candidate V = E^T P E decrease along ideal
(model-matched) trajectories; this is verified numerically in the test
suite rather than asserted.

The controller runs at order n = 2. Its step functions write the small
products k.E and B^T P E out as Python float expressions in a fixed order,
so their rounding does not depend on the BLAS kernel numpy was built with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fuzzy import FuzzyApproximator

__all__ = [
    "SingularControlError",
    "ControllerConfig",
    "companion",
    "solve_lyapunov",
    "filter_error",
    "h_infinity_term",
    "control_law",
    "adapt_step",
    "project_theta_g",
]


class SingularControlError(RuntimeError):
    """The control law has no usable command: the g estimate fell below its
    floor (a division by ~0), or the command came out non-finite."""


def companion(k) -> np.ndarray:
    """Companion matrix of s^n + k_n s^(n-1) + ... + k_1 in chain form.

    Rows shift the error vector; the last row is -k.
    """
    k = np.asarray(k, dtype=float).reshape(-1)
    n = k.size
    if n < 1:
        raise ValueError("k must have at least one gain")
    a = np.zeros((n, n))
    a[:-1, 1:] = np.eye(n - 1)
    a[-1, :] = -k
    return a


def solve_lyapunov(a_c, q) -> np.ndarray:
    """Solve A_c^T P + P A_c = -Q for symmetric positive-definite P.

    The equation is solved as the dense Kronecker-sum system
    (I (x) A^T + A^T (x) I) vec(P) = -vec(Q), which is plenty for the small
    gain matrices used here. A_c must be finite and Hurwitz and Q finite,
    symmetric and positive definite, otherwise no valid P exists; these
    rules, and that P itself is symmetric and positive definite, are checked
    here and nowhere else. Returns P as a read-only, exactly symmetric array.
    """
    a = np.asarray(a_c, dtype=float)
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("A_c must be a square matrix")
    if q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}")
    if not np.all(np.isfinite(q)):
        raise ValueError("Q must be finite")
    if not np.allclose(q, q.T, rtol=0, atol=1e-12 * (1 + np.abs(q).max())):
        raise ValueError("Q must be symmetric")
    if np.any(np.linalg.eigvalsh(q) <= 0):
        raise ValueError("Q must be positive definite")
    # eigvals raises LinAlgError, not ValueError, on a non-finite entry
    if not (np.all(np.isfinite(a)) and np.all(np.linalg.eigvals(a).real < 0)):
        raise ValueError("A_c must be finite and Hurwitz for a positive-definite solution")

    eye = np.eye(n)
    system = np.kron(eye, a.T) + np.kron(a.T, eye)
    # extreme entries can make the solve singular or overflow in floating
    # point; the residual test rejects any non-finite P that results
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            p = np.linalg.solve(system, -q.reshape(-1, order="F")).reshape(n, n, order="F")
        except np.linalg.LinAlgError:
            raise ValueError("A_c gives a singular Lyapunov system") from None
        residual = np.linalg.norm(a.T @ p + p @ a + q)
        tolerance = 1e-9 * max(1.0, np.linalg.norm(q))
    if not residual <= tolerance:
        raise ValueError(f"P misses the Lyapunov equation: residual {residual:.3e}")
    if not np.allclose(p, p.T, rtol=0, atol=1e-9 * (1 + np.abs(p).max())):
        raise ValueError("P must be symmetric")
    if np.any(np.linalg.eigvalsh(p) <= 0):
        raise ValueError("P must be positive definite")
    # halving each term first cannot overflow; for normal floats it
    # rounds exactly as 0.5 * (p + p.T) does
    p = 0.5 * p + 0.5 * p.T
    p.setflags(write=False)
    return p


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Tuning for the adaptive loop and the Lyapunov matrix p it implies.

    Validated at construction: solve_lyapunov(companion(k), q) owns the
    finite and Hurwitz rules on k and every rule on Q. The control step is
    written out for an order-2 error vector, so k holds exactly two gains;
    k and p, the rows of P, are kept as Python floats, which the step reads.
    """

    k: tuple = (1.0, 2.0)
    q: np.ndarray = None
    r: float = 0.1
    gamma_f: float = 50.0
    gamma_g: float = 50.0
    g_min: float = 0.1
    u_max: float = 180.0
    filter_alpha: float = 1.0
    p: tuple = field(init=False, repr=False)

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float).reshape(-1)
        if k.size != 2:
            raise ValueError("k must have exactly 2 gains for the order-2 benchmark")
        q = np.eye(k.size) if self.q is None else np.atleast_2d(np.asarray(self.q, float))
        p = solve_lyapunov(companion(k), q)
        # r = inf drops the auxiliary term and u_max = inf the saturation
        for name in ("r", "u_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("gamma_f", "gamma_g", "g_min"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.filter_alpha <= 1.0:
            raise ValueError("filter_alpha must lie in (0, 1]")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "k", tuple(k.tolist()))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", tuple(map(tuple, p.tolist())))


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


def project_theta_g(approx_g: FuzzyApproximator, g_min: float) -> np.ndarray:
    """Clamp every theta_g entry to at least g_min, in place.

    Because the regressor is a convex-combination vector, this keeps the g
    estimate at or above g_min for every input. g_min > 0 is checked once,
    by ControllerConfig.
    """
    np.maximum(approx_g.theta, g_min, out=approx_g.theta)
    return approx_g.theta


def adapt_step(approx_f: FuzzyApproximator, approx_g: FuzzyApproximator,
               xi: np.ndarray, e_vec, u: float, cfg: ControllerConfig,
               dt: float) -> tuple:
    """One explicit-Euler step of the gradient adaptation laws, in place.

    Updates theta_f and theta_g from the adaptation signal s = E^T P B and
    the applied control u, then projects theta_g onto [g_min, inf). The
    thetas of the two approximators must be the rows of one (2, R) array
    (unchecked), so one update writes both. Returns (theta_f, theta_g).
    """
    theta = approx_f.theta.base
    e0, e1 = e_vec
    p10, p11 = cfg.p[1]
    s = p10 * e0 + p11 * e1
    theta += np.multiply.outer((dt * (-cfg.gamma_f * s), dt * (-cfg.gamma_g * s * u)), xi)
    project_theta_g(approx_g, cfg.g_min)
    return approx_f.theta, approx_g.theta
