"""Small dense continuous-time LTI systems: series composition, frequency
response, H-infinity norms, and the loop robustness certificate.

Everything here is sized for controller-analysis work (state dimensions up
to a few tens), so plain dense LAPACK routines via numpy are used throughout.
All objects are immutable after construction and safe to share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateSpaceModel",
    "RobustnessCertificate",
    "FrequencyAtPoleError",
    "UnstableSystemError",
    "IllPosedLoopError",
    "HinfConvergenceError",
    "static_gain",
    "identity",
    "siso",
    "series",
    "freq_response",
    "is_stable",
    "hinf_norm",
    "closed_loop_tzw",
    "robustness_margin",
]

# An eigenvalue counts as imaginary-axis when |Re| < _IMAG_AXIS_RTOL * (1 + |lambda|).
_IMAG_AXIS_RTOL = 1e-8

_MAX_ITERATIONS = 200


class FrequencyAtPoleError(ValueError):
    """Frequency response requested at (or numerically at) a pole."""


class UnstableSystemError(ValueError):
    """Operation requires a stable system."""


class IllPosedLoopError(ValueError):
    """Feedback loop with a singular static loop matrix."""


class HinfConvergenceError(RuntimeError):
    """Norm iteration failed to converge; carries the best bracket."""

    def __init__(self, message: str, lower: float, upper: float):
        super().__init__(f"{message} (best bracket [{lower:.9e}, {upper:.9e}])")
        self.lower = lower
        self.upper = upper


def _matrix(value, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Realization dx/dt = A x + B u, y = C x + D u.

    A zero-state model (A is 0 x 0) encodes the static gain D.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        a = _matrix(self.A, "A") if np.size(self.A) else np.asarray(self.A, float).reshape(0, 0)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"A must be square, got shape {a.shape}")
        b = np.asarray(self.B, dtype=float)
        c = np.asarray(self.C, dtype=float)
        d = _matrix(self.D, "D")
        if b.ndim != 2:
            raise ValueError(f"B must be a 2-D matrix, got ndim={b.ndim}")
        if c.ndim != 2:
            raise ValueError(f"C must be a 2-D matrix, got ndim={c.ndim}")
        p, m = d.shape
        if b.shape != (n, m):
            raise ValueError(f"B must be {n}x{m} to match A and D, got {b.shape}")
        if c.shape != (p, n):
            raise ValueError(f"C must be {p}x{n} to match A and D, got {c.shape}")
        for name, arr in (("A", a), ("B", b), ("C", c), ("D", d)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.D.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.D.shape[0]

    def __repr__(self):
        return (f"StateSpaceModel(n_states={self.n_states}, "
                f"n_inputs={self.n_inputs}, n_outputs={self.n_outputs})")


def static_gain(d) -> StateSpaceModel:
    """Zero-state model realizing the constant gain matrix d."""
    d = _matrix(d, "D")
    p, m = d.shape
    return StateSpaceModel(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), d)


def identity(m: int) -> StateSpaceModel:
    """Static identity on m channels."""
    return static_gain(np.eye(m))


def siso(a: float, b: float, c: float, d: float) -> StateSpaceModel:
    """One-state single-input single-output model."""
    return StateSpaceModel([[a]], [[b]], [[c]], [[d]])


def _cascade(outer: StateSpaceModel, inner: StateSpaceModel) -> StateSpaceModel:
    """Realization of outer*inner (input feeds inner first)."""
    if inner.n_outputs != outer.n_inputs:
        raise ValueError(
            f"series: output dimension of the upstream factor ({inner.n_outputs}) "
            f"does not match input dimension of the downstream factor ({outer.n_inputs})")
    n1, n2 = inner.n_states, outer.n_states
    n = n1 + n2
    a = np.zeros((n, n))
    a[:n1, :n1] = inner.A
    a[n1:, n1:] = outer.A
    a[n1:, :n1] = outer.B @ inner.C
    b = np.vstack([inner.B, outer.B @ inner.D])
    c = np.hstack([outer.D @ inner.C, outer.C])
    d = outer.D @ inner.D
    return StateSpaceModel(a, b, c, d)


def series(post: StateSpaceModel, mid: StateSpaceModel,
           pre: StateSpaceModel) -> StateSpaceModel:
    """Realization of post*mid*pre; the signal flows pre -> mid -> post.

    The state dimension of the result is the sum of the three factors' state
    dimensions, and its frequency response equals the matrix product of the
    factor responses at every frequency.
    """
    return _cascade(post, _cascade(mid, pre))


def _responses(a, b, c, d, omegas: np.ndarray) -> np.ndarray:
    """Stacked responses C (jw I - A)^-1 B + D, one p x m slice per w in omegas."""
    m = 1j * omegas[:, None, None] * np.eye(a.shape[0]) - a
    # B as a one-element stack: numpy 1.x solves a B with one dimension less
    # than the stack of matrices as a stack of vectors.
    return c @ np.linalg.solve(m, b[None]) + d


def freq_response(ss: StateSpaceModel, omega: float) -> np.ndarray:
    """Complex response C (jw I - A)^-1 B + D at the frequency omega (rad/s).

    Raises FrequencyAtPoleError when jw is (numerically) an eigenvalue of A.
    """
    if ss.n_states:
        m = 1j * float(omega) * np.eye(ss.n_states) - ss.A
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            raise FrequencyAtPoleError(f"frequency at pole: omega={omega!r}")
    return _responses(ss.A, ss.B, ss.C, ss.D, np.array([float(omega)]))[0]


def is_stable(ss: StateSpaceModel) -> bool:
    """True iff every eigenvalue of A has a negative real part.

    A zero-state model is stable by convention.
    """
    if ss.n_states == 0:
        return True
    return float(np.max(np.linalg.eigvals(ss.A).real)) < 0.0


def _sigma_max(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _peak_gain(a, b, c, d, omegas: np.ndarray) -> float:
    """Largest sigma_max(G(jw)) over omegas (0.0 when there is nothing to take)."""
    sv = np.linalg.svd(_responses(a, b, c, d, omegas), compute_uv=False)
    return float(sv[:, :1].max(initial=0.0))


def _crossings(a, b, c, d, gamma: float) -> np.ndarray:
    """Sorted frequencies w, of both signs, where a singular value of G(jw) is gamma.

    They are the imaginary parts of the imaginary-axis eigenvalues of the
    bounded-real Hamiltonian. Valid only for gamma > sigma_max(D).
    """
    p, m = d.shape
    r = gamma * gamma * np.eye(m) - d.T @ d
    rinv_dt = np.linalg.solve(r, d.T)
    rinv_bt = np.linalg.solve(r, b.T)
    arc = a + b @ rinv_dt @ c
    h = np.block([[arc, b @ rinv_bt],
                  [-c.T @ (np.eye(p) + d @ rinv_dt) @ c, -arc.T]])
    eigs = np.linalg.eigvals(h)
    on_axis = np.abs(eigs.real) < _IMAG_AXIS_RTOL * (1.0 + np.abs(eigs))
    return np.sort(eigs.imag[on_axis])


def hinf_norm(ss: StateSpaceModel, tol: float = 1e-8) -> float:
    """Peak gain sup_w sigma_max(G(jw)) of a stable system, to relative tol.

    Level-set iteration (Bruinsma & Steinbuch 1990; Boyd, Balakrishnan &
    Kabamba 1989). The lower bound starts as the largest of sigma_max(D) and
    the gains at DC, at 1..n rad/s and at the pole frequencies |lambda| and
    |Im lambda| of A. Each step takes the level gamma = lower * (1 + tol) and
    the frequencies where a singular value of G(jw) crosses it, which are the
    imaginary-axis eigenvalues of the bounded-real Hamiltonian. The largest
    gain at the midpoints of consecutive crossings becomes the new lower
    bound; the convergence is quadratic. The iteration stops when gamma has
    no crossing, or when no midpoint gain exceeds gamma (the crossings are
    then rounding at the peak). The norm lies in [lower, gamma] and the
    midpoint of that bracket is returned, within tol / 2 of the norm
    relative to lower.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_stable(ss):
        raise UnstableSystemError("norm undefined for unstable system")
    if ss.n_states == 0:
        return _sigma_max(ss.D)
    a, b, c, d = ss.A, ss.B, ss.C, ss.D
    lam = np.linalg.eigvals(a)
    # 0..n rad/s are n + 1 distinct frequencies: a nonzero strictly proper
    # n-state response cannot vanish at all of them, so a zero bound is exact.
    omegas = np.unique(np.r_[np.arange(ss.n_states + 1.0), np.abs(lam), np.abs(lam.imag)])
    lower = max(_sigma_max(d), _peak_gain(a, b, c, d, omegas))
    if lower == 0.0:
        return 0.0
    for _ in range(_MAX_ITERATIONS):
        gamma = lower * (1.0 + tol)
        w = _crossings(a, b, c, d, gamma)
        peak = _peak_gain(a, b, c, d, np.abs(0.5 * (w[1:] + w[:-1]))) if w.size else 0.0
        if peak <= gamma:
            return 0.5 * (lower + gamma)
        lower = peak
    raise HinfConvergenceError("level-set iteration did not converge", lower, math.inf)


def closed_loop_tzw(ps: StateSpaceModel, k: StateSpaceModel) -> StateSpaceModel:
    """Stacked closed-loop map [(I + Ps K)^-1 ; K (I + Ps K)^-1].

    Negative feedback with the disturbance w entering at the plant-output
    summing junction: the controller sees v = w - Ps(u), u = K(v), and the
    stacked outputs are (v, u). Rejects loops whose static part I + Dps Dk
    is singular.
    """
    if ps.n_inputs != k.n_outputs or ps.n_outputs != k.n_inputs:
        raise ValueError(
            f"closed loop needs plant {ps.n_outputs}x{ps.n_inputs} against "
            f"controller {k.n_outputs}x{k.n_inputs}")
    loop = _cascade(ps, k)
    static = np.eye(ps.n_outputs) + loop.D
    sv = np.linalg.svd(static, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise IllPosedLoopError("ill-posed loop: I + D_ps D_k is singular")
    # L = Ps K has the states (x_k, x_ps); v = w - L(v) gives v = delta (w - C_L x)
    delta = np.linalg.inv(static)
    dc = delta @ loop.C
    c_k = np.hstack([k.C, np.zeros((k.n_outputs, ps.n_states))])
    return StateSpaceModel(loop.A - loop.B @ dc, loop.B @ delta,
                           np.vstack([-dc, c_k - k.D @ dc]), np.vstack([delta, k.D @ delta]))


@dataclass(frozen=True)
class RobustnessCertificate:
    """Loop robustness summary: peak closed-loop gain and its reciprocal margin."""

    norm_tzw: float
    epsilon: float
    loop_stable: bool


def robustness_margin(ps: StateSpaceModel, k: StateSpaceModel,
                      tol: float = 1e-8) -> RobustnessCertificate:
    """Certificate for the (ps, k) loop: gain of the stacked closed-loop map
    and the supremal margin epsilon = 1/norm.

    An unstable closed loop yields loop_stable=False with the norm reported
    as unbounded (epsilon 0).
    """
    tzw = closed_loop_tzw(ps, k)
    if not is_stable(tzw):
        return RobustnessCertificate(norm_tzw=math.inf, epsilon=0.0, loop_stable=False)
    norm = hinf_norm(tzw, tol)
    epsilon = math.inf if norm == 0.0 else 1.0 / norm
    return RobustnessCertificate(norm_tzw=norm, epsilon=epsilon, loop_stable=True)
