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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lti
from .fuzzy import FuzzyApproximator

__all__ = [
    "SingularControlError",
    "ControllerConfig",
    "LyapunovMatrix",
    "companion",
    "solve_lyapunov",
    "filter_error",
    "h_infinity_term",
    "control_law",
    "adapt_step",
    "project_theta_g",
]


class SingularControlError(RuntimeError):
    """The g estimate fell below its floor; the control law would divide by ~0."""


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


def _is_hurwitz(a: np.ndarray) -> bool:
    n = a.shape[0]
    ss = lti.StateSpaceModel(a, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0)))
    return lti.is_stable(ss)


@dataclass(frozen=True, eq=False)
class LyapunovMatrix:
    """Symmetric positive-definite solution P of a Lyapunov equation."""

    P: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.P, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("P must be a square matrix")
        if not np.allclose(p, p.T, rtol=0, atol=1e-9 * (1 + np.abs(p).max())):
            raise ValueError("P must be symmetric")
        if np.any(np.linalg.eigvalsh(p) <= 0):
            raise ValueError("P must be positive definite")
        p = 0.5 * (p + p.T)
        p.setflags(write=False)
        object.__setattr__(self, "P", p)


def solve_lyapunov(a_c, q) -> LyapunovMatrix:
    """Solve A_c^T P + P A_c = -Q for symmetric positive-definite P.

    The equation is solved as the dense Kronecker-sum system
    (I (x) A^T + A^T (x) I) vec(P) = -vec(Q), which is plenty for the small
    gain matrices used here. A_c must be Hurwitz and Q symmetric positive
    definite, otherwise no valid P exists.
    """
    a = np.asarray(a_c, dtype=float)
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise ValueError("A_c and Q must be square matrices of the same size")
    if not np.allclose(q, q.T, rtol=0, atol=1e-12 * (1 + np.abs(q).max())):
        raise ValueError("Q must be symmetric")
    if not _is_hurwitz(a):
        raise ValueError("A_c must be Hurwitz for a positive-definite solution")

    eye = np.eye(n)
    system = np.kron(eye, a.T) + np.kron(a.T, eye)
    p = np.linalg.solve(system, -q.reshape(-1, order="F")).reshape(n, n, order="F")

    residual = np.linalg.norm(a.T @ p + p @ a + q)
    if residual > 1e-9 * max(1.0, np.linalg.norm(q)):
        raise ValueError(f"Lyapunov solve residual too large: {residual:.3e}")
    return LyapunovMatrix(p)


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Tuning for the adaptive loop; validated at construction."""

    k: np.ndarray = (1.0, 2.0)
    q: np.ndarray = None
    r: float = 0.1
    gamma_f: float = 50.0
    gamma_g: float = 50.0
    g_min: float = 0.1
    u_max: float = 180.0
    filter_alpha: float = 1.0

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float).reshape(-1)
        if k.size < 1 or not np.all(np.isfinite(k)):
            raise ValueError("k must be a finite gain vector")
        if not _is_hurwitz(companion(k)):
            raise ValueError("k gives a companion matrix that is not Hurwitz")
        q = np.eye(k.size) if self.q is None else np.atleast_2d(np.asarray(self.q, float))
        if q.shape != (k.size, k.size):
            raise ValueError(f"Q must be {k.size}x{k.size}")
        if not np.allclose(q, q.T, rtol=0, atol=1e-12 * (1 + np.abs(q).max())):
            raise ValueError("Q must be symmetric")
        if np.any(np.linalg.eigvalsh(q) <= 0):
            raise ValueError("Q must be positive definite")
        for name in ("r", "gamma_f", "gamma_g", "g_min", "u_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 < self.filter_alpha <= 1.0:
            raise ValueError("filter_alpha must lie in (0, 1]")
        k.setflags(write=False)
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "q", q)

    @property
    def order(self) -> int:
        return self.k.size


def filter_error(e_prev_filtered, e_raw, filter_alpha: float) -> tuple:
    """One step of componentwise exponential smoothing of the error vector.

    filter_alpha = 1 disables the filter (output equals the raw error). The
    coefficient is checked once, by ControllerConfig; returns a tuple.
    """
    keep = 1.0 - filter_alpha
    return tuple([keep * prev + filter_alpha * raw
                  for prev, raw in zip(e_prev_filtered, e_raw)])


def h_infinity_term(p: LyapunovMatrix, e_vec, r: float) -> float:
    """Auxiliary control u_a = (1/r) B^T P E with B the last unit vector."""
    return float(p.P[-1, :] @ e_vec) / r


def control_law(cfg: ControllerConfig, p: LyapunovMatrix, f_hat: float,
                g_hat: float, e_vec, ydn: float) -> float:
    """Certainty-equivalence control, saturated to [-u_max, u_max].

    ydn is the n-th derivative of the reference and e_vec an error vector of
    length cfg.order. Raises SingularControlError if |g_hat| sits below g_min
    despite projection.
    """
    # Slack of a few ulps: theta_g at the floor gives g_hat = g_min only up to
    # rounding in the convex combination, which must not count as singular.
    if abs(g_hat) < cfg.g_min * (1.0 - 1e-9):
        raise SingularControlError(
            f"singular control: |g_hat|={abs(g_hat):.3e} < g_min={cfg.g_min:.3e}")
    u_a = h_infinity_term(p, e_vec, cfg.r)
    u = (-f_hat + ydn + float(cfg.k @ e_vec) + u_a) / g_hat
    return min(max(u, -cfg.u_max), cfg.u_max)


def project_theta_g(approx_g: FuzzyApproximator, g_min: float) -> np.ndarray:
    """Clamp every theta_g entry to at least g_min, in place.

    Because the regressor is a convex-combination vector, this keeps the g
    estimate at or above g_min for every input.
    """
    if not g_min > 0:
        raise ValueError("g_min must be positive")
    np.maximum(approx_g.theta, g_min, out=approx_g.theta)
    return approx_g.theta


def adapt_step(approx_f: FuzzyApproximator, approx_g: FuzzyApproximator,
               xi: np.ndarray, e_vec, p: LyapunovMatrix, u: float,
               cfg: ControllerConfig, dt: float) -> tuple:
    """One explicit-Euler step of the gradient adaptation laws, in place.

    Updates theta_f and theta_g from the adaptation signal s = E^T P B and
    the applied control u, then projects theta_g onto [g_min, inf). Returns
    the (theta_f, theta_g) arrays.
    """
    s = float(p.P[-1, :] @ e_vec)
    approx_f.theta += dt * (-cfg.gamma_f * s) * xi
    approx_g.theta += dt * (-cfg.gamma_g * s * u) * xi
    project_theta_g(approx_g, cfg.g_min)
    return approx_f.theta, approx_g.theta
