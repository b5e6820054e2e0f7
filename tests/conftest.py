"""Shared test helpers: random system generation and independent oracles,
and the Hypothesis profile every property test runs under."""
import numpy as np
from hypothesis import settings

from afcsim import lti

# property tests draw the same examples on every run and keep no database
settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")


def sigma_max(mat):
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def grid_peak_gain(ss, n_points=100_000, w_lo=1e-3, w_hi=1e4):
    """Dense-grid supremum of the largest response singular value.

    Independent of the package's norm path: the response is evaluated from
    the eigendecomposition of A over a log-spaced grid (plus DC). With one
    input or one output the response is a vector and its 2-norm is the
    singular value; otherwise they come from one batched SVD.
    """
    if ss.n_states == 0:
        return sigma_max(ss.D)
    lam, v = np.linalg.eig(ss.A)
    terms = (ss.C @ v).T[:, :, None] * np.linalg.solve(v, ss.B)[:, None, :]
    w = np.concatenate([[0.0], np.logspace(np.log10(w_lo), np.log10(w_hi), n_points - 1)])
    resp = np.tensordot(1.0 / (1j * w[:, None] - lam[None, :]), terms, axes=(1, 0)) + ss.D
    if min(ss.n_inputs, ss.n_outputs) == 1:
        return float(np.linalg.norm(resp, axis=(1, 2)).max())
    return float(np.linalg.svd(resp, compute_uv=False)[:, 0].max())


def estimate(grid, theta, x):
    """theta . xi(x), reduced by np.add.reduce as the control loop does."""
    return float(np.add.reduce(theta * grid.regressor(x)))


def make_stable_system(rng, n=None, m=None, p=None, d_scale=0.2):
    """Random stable system with well-damped poles and a dominant finite-
    frequency gain peak, so a dense frequency grid resolves its norm."""
    n = int(rng.integers(1, 5)) if n is None else n
    m = int(rng.integers(1, 3)) if m is None else m
    p = int(rng.integers(1, 3)) if p is None else p
    while True:
        a = rng.normal(size=(n, n))
        a -= (np.linalg.eigvals(a).real.max() + 1.5) * np.eye(n)
        ev = np.linalg.eigvals(a)
        if np.min(-ev.real / np.abs(ev)) < 0.3:
            continue
        b = rng.normal(size=(n, m))
        c = rng.normal(size=(p, n))
        d = d_scale * rng.normal(size=(p, m))
        ss = lti.StateSpaceModel(a, b, c, d)
        if grid_peak_gain(ss, n_points=2001) < 1.5 * sigma_max(d):
            continue
        return ss
