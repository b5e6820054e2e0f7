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
    "UnstableSystemError",
    "HinfConvergenceError",
    "static_gain",
    "identity",
    "series",
    "freq_response",
    "is_stable",
    "hinf_norm",
    "closed_loop_tzw",
    "robustness_margin",
]

# An eigenvalue of the Hamiltonian H counts as imaginary-axis when
# |Re| < _IMAG_AXIS_RTOL * (||H||_1 + |lambda|): its rounding grows with ||H||.
_IMAG_AXIS_RTOL = 1e-8

_MAX_ITERATIONS = 200


class UnstableSystemError(ValueError):
    """Operation requires a stable system."""


class HinfConvergenceError(RuntimeError):
    """Norm iteration failed to converge; carries the best lower bound."""

    def __init__(self, message: str, lower: float):
        super().__init__(f"{message} (best lower bound {lower:.9e})")
        self.lower = lower


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
        for name in ("A", "B", "C", "D"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.A.shape[0]
        p, m = self.D.shape
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.B.shape != (n, m):
            raise ValueError(f"B must be {n}x{m} to match A and D, got {self.B.shape}")
        if self.C.shape != (p, n):
            raise ValueError(f"C must be {p}x{n} to match A and D, got {self.C.shape}")

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
    d = np.asarray(d, dtype=float)
    p, m = d.shape
    return StateSpaceModel(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), d)


def identity(m: int) -> StateSpaceModel:
    """Static identity on m channels."""
    return static_gain(np.eye(m))


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


def _singular(m) -> bool:
    """True when the square matrix m is (numerically) singular."""
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[-1] <= 1e-12 * max(sv[0], 1.0)


def freq_response(ss: StateSpaceModel, omega: float) -> np.ndarray:
    """Complex response C (jw I - A)^-1 B + D at the frequency omega (rad/s).

    Raises ValueError ("frequency at pole") when jw is (numerically) an
    eigenvalue of A.
    """
    if ss.n_states and _singular(1j * float(omega) * np.eye(ss.n_states) - ss.A):
        raise ValueError(f"frequency at pole: omega={omega!r}")
    return _responses(ss.A, ss.B, ss.C, ss.D, np.array([float(omega)]))[0]


def is_stable(ss: StateSpaceModel) -> bool:
    """True iff every eigenvalue of A has a negative real part; a zero-state model is."""
    return bool((np.linalg.eigvals(ss.A).real < 0.0).all())


def _peak_gain(a, b, c, d, omegas: np.ndarray) -> float:
    """Largest sigma_max(G(jw)) over omegas and over w = inf, where G is D,
    from one batched SVD. A gain that is not finite raises ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.concatenate([_responses(a, b, c, d, omegas), d[None]])
    finite = np.isfinite(g).all()
    peak = float(np.linalg.svd(g, compute_uv=False)[:, :1].max(initial=0.0)) if finite else math.inf
    if peak == math.inf:
        raise ValueError("H-infinity norm overflows: a gain of G exceeds the largest float")
    return peak


def _crossings(a, b, c, d, gamma: float) -> np.ndarray:
    """Sorted frequencies w, of both signs, where a singular value of G(jw) is gamma:
    the imaginary parts of the imaginary-axis eigenvalues of the bounded-real
    Hamiltonian. Valid only for gamma > sigma_max(D)."""
    n, p = a.shape[0], d.shape[0]
    r = gamma * gamma * np.eye(d.shape[1]) - d.T @ d
    rinv = np.linalg.solve(r, np.concatenate([d.T, b.T], axis=1))
    rinv_dt_c = rinv[:, :p] @ c
    h = np.empty((2 * n, 2 * n))
    h[:n, :n] = a + b @ rinv_dt_c
    h[:n, n:] = b @ rinv[:, p:]
    h[n:, :n] = -c.T @ (c + d @ rinv_dt_c)
    h[n:, n:] = -h[:n, :n].T
    eigs = np.linalg.eigvals(h)
    on_axis = np.abs(eigs.real) < _IMAG_AXIS_RTOL * (np.abs(h).sum(axis=0).max() + np.abs(eigs))
    return np.sort(eigs.imag[on_axis])


def hinf_norm(ss: StateSpaceModel, tol: float = 1e-8) -> float:
    """Peak gain sup_w sigma_max(G(jw)) of a stable system, to relative tol.

    Level-set iteration (Bruinsma & Steinbuch 1990; Boyd, Balakrishnan &
    Kabamba 1989). The lower bound starts as the largest gain at DC, 1..n
    rad/s, the pole frequencies |lambda| and |Im lambda| of A and w = inf, all
    from one batched SVD. G is then scaled exactly, by a power of two that puts
    the bound in [1, 2) and is split to even out B and C, so that no level and
    no Hamiltonian block overflows. Each level gamma = lower * (1 + tol) is
    crossed at the imaginary-axis eigenvalues of the bounded-real Hamiltonian;
    the largest gain at the midpoints of consecutive crossings is the next
    lower bound (quadratic convergence). With no crossing, or no midpoint gain
    above gamma (rounding at the peak), the midpoint of [lower, gamma] is
    returned, within tol / 2 of the norm relative to lower. A gain or a norm
    that overflows raises ValueError. A zero-state model's norm is
    sigma_max(D); an A with an eigenvalue off the open left half-plane raises
    UnstableSystemError. A tol below 1e-12 raises ValueError: levels that
    close to the bound lose the crossings to rounding and the norm comes
    back low, or the Hamiltonian solve fails.
    """
    if not 1e-12 <= tol < math.inf:
        raise ValueError("tol must be positive and finite, at least 1e-12")
    a, b, c, d = ss.A, ss.B, ss.C, ss.D
    lam = np.linalg.eigvals(a)
    if not (lam.real < 0.0).all():
        raise UnstableSystemError("norm undefined for unstable system")
    # 0..n rad/s are n + 1 distinct frequencies: a nonzero strictly proper
    # n-state response cannot vanish at all of them, so a zero bound is exact.
    omegas = np.concatenate([np.arange(ss.n_states + 1.0), np.abs(lam), np.abs(lam.imag)])
    lower = _peak_gain(a, b, c, d, omegas)
    if lower == 0.0 or ss.n_states == 0:
        return lower
    e = math.frexp(lower)[1] - 1
    kb = (math.frexp(np.abs(c).max())[1] - math.frexp(np.abs(b).max())[1] - e) // 2
    b, c, d = np.ldexp(b, kb), np.ldexp(c, -e - kb), np.ldexp(d, -e)
    lower = math.ldexp(lower, -e)
    for _ in range(_MAX_ITERATIONS):
        gamma = lower * (1.0 + tol)
        w = _crossings(a, b, c, d, gamma)
        peak = _peak_gain(a, b, c, d, np.abs(0.5 * (w[1:] + w[:-1]))) if w.size else 0.0
        if peak <= gamma:
            norm = 0.5 * (lower + gamma) * 2.0 ** e
            if norm < math.inf:
                return norm
            raise ValueError("H-infinity norm overflows the largest float")
        lower = peak
    raise HinfConvergenceError("level-set iteration did not converge", lower * 2.0 ** e)


def closed_loop_tzw(ps: StateSpaceModel, k: StateSpaceModel) -> StateSpaceModel:
    """Stacked closed-loop map [(I + Ps K)^-1 ; K (I + Ps K)^-1].

    Negative feedback with the disturbance w entering at the plant-output
    summing junction: the controller sees v = w - Ps(u), u = K(v), and the
    stacked outputs are (v, u). Raises ValueError ("ill-posed loop") when
    the static part I + Dps Dk is singular.
    """
    if ps.n_inputs != k.n_outputs or ps.n_outputs != k.n_inputs:
        raise ValueError(
            f"closed loop needs plant {ps.n_outputs}x{ps.n_inputs} against "
            f"controller {k.n_outputs}x{k.n_inputs}")
    loop = _cascade(ps, k)
    static = np.eye(ps.n_outputs) + loop.D
    if _singular(static):
        raise ValueError("ill-posed loop: I + D_ps D_k is singular")
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
    as unbounded (epsilon 0). tol is checked by hinf_norm, for either loop.
    """
    tzw = closed_loop_tzw(ps, k)
    try:
        norm = hinf_norm(tzw, tol)
    except UnstableSystemError:
        return RobustnessCertificate(norm_tzw=math.inf, epsilon=0.0, loop_stable=False)
    epsilon = math.inf if norm == 0.0 else 1.0 / norm
    return RobustnessCertificate(norm_tzw=norm, epsilon=epsilon, loop_stable=True)
