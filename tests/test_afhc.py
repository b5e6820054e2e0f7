import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afcsim import afhc, fuzzy
from conftest import estimate

# Lyapunov matrix for k = (1, 2) and Q = I, solved by hand
P_DEFAULT = np.array([[1.5, 0.5], [0.5, 0.5]])


def approximator_pair(grid, theta_f, theta_g):
    """Approximators of f and g whose thetas are the rows of one (2, R) array,
    as the control loop builds them."""
    theta = np.empty((2, grid.rule_count))
    theta[0], theta[1] = theta_f, theta_g
    return tuple(fuzzy.FuzzyApproximator(row) for row in theta)


def two_rule_approximators(theta_f=(0.0, 0.0), theta_g=(1.0, 1.0)):
    grid = fuzzy.grid_over_box([-1.0], [1.0], [2], 0.5)
    return approximator_pair(grid, theta_f, theta_g)


# ---------------------------------------------------------- the Lyapunov matrix

def test_lyapunov_companion_residual_and_definiteness():
    a = np.array([[0.0, 1.0], [-1.0, -2.0]])   # s^2 + 2s + 1
    p = np.array(afhc.ControllerConfig(k=(1.0, 2.0), q_diag=(1.0, 1.0)).p)
    assert np.array_equal(a.T @ p + p @ a, -np.eye(2))
    assert np.all(np.linalg.eigvalsh(p) > 0)
    assert np.array_equal(p, P_DEFAULT)


def test_lyapunov_linear_in_q():
    p1 = afhc.ControllerConfig(k=(2.0, 3.0), q_diag=(1.0, 1.0)).p
    p2 = afhc.ControllerConfig(k=(2.0, 3.0), q_diag=(2.0, 2.0)).p
    assert p2 == tuple(tuple(2.0 * v for v in row) for row in p1)


@pytest.mark.parametrize("k, q", [((1.0, 2.0), (1.0, 1.0)), ((1.7, 2.9), (1.3, 0.6))])
def test_lyapunov_solution_read_only_and_exactly_symmetric(k, q):
    rows = afhc.ControllerConfig(k=k, q_diag=q).p
    assert rows[0][1] == rows[1][0]
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(type(v) is float for row in rows for v in row)


def test_lyapunov_rejects_non_hurwitz():
    # s^2 + k2 s + k1 is Hurwitz exactly when k1 > 0 and k2 > 0
    for k in ((-1.0, 2.0), (1.0, 0.0)):
        assert np.max(np.roots([1.0, k[1], k[0]]).real) >= 0
        with pytest.raises(ValueError, match="^k .*Hurwitz"):
            afhc.ControllerConfig(k=k)


def test_lyapunov_rejects_non_finite_a_c():
    for k in ((math.nan, 2.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="^k "):
            afhc.ControllerConfig(k=k)


def scaled_lyapunov_residual(k, q_diag, p):
    """max|A_c'P + P A_c + Q| / (max(1, k1, k2) max|P| + max|Q|), in exact
    rational arithmetic, so that neither overflow nor its own rounding shows."""
    (k1, k2), (q1, q2) = map(Fraction, k), map(Fraction, q_diag)
    (p00, p01), (_, p11) = ((Fraction(v) for v in row) for row in p)
    residual = (q1 - 2 * k1 * p01, p00 - k1 * p11 - k2 * p01, q2 + 2 * p01 - 2 * k2 * p11)
    scale = max(1, k1, k2) * max(p00, p01, p11) + max(q1, q2)
    return max(map(abs, residual)) / scale


@settings(max_examples=500, derandomize=True, database=None)
@given(st.lists(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), min_size=4, max_size=4))
def test_lyapunov_random_hurwitz_systems(draw):
    # any positive gains and weights over 10^(+-300): either a ValueError
    # that names what it rejects, or a positive-definite P that solves the
    # equation to within rounding
    k, q_diag = draw[:2], draw[2:]
    try:
        p = afhc.ControllerConfig(k=k, q_diag=q_diag).p
    except ValueError as exc:
        assert str(exc).split()[0] in ("k", "q_diag", "P")
        return
    assert all(math.isfinite(v) for row in p for v in row)
    assert p[0][1] == p[1][0]
    assert np.all(np.linalg.eigvalsh(p) > 0)
    assert scaled_lyapunov_residual(k, q_diag, p) <= 4 * sys.float_info.epsilon


# ----------------------------------------------------------- ControllerConfig

def test_config_rejects_non_hurwitz_gains():
    with pytest.raises(ValueError, match="Hurwitz"):
        afhc.ControllerConfig(k=[1.0, -2.0])


def test_config_rejects_bad_q():
    for q_diag in ((1.0, -1.0), (0.0, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="^q_diag"):
            afhc.ControllerConfig(q_diag=q_diag)


def test_config_rejects_bad_scalars():
    with pytest.raises(ValueError, match="filter_alpha"):
        afhc.ControllerConfig(filter_alpha=0.0)
    with pytest.raises(ValueError, match="r must"):
        afhc.ControllerConfig(r=-1.0)


# --------------------------------------------------------------- filter_error

def test_filter_identity_when_alpha_one():
    raw = np.array([0.3, -0.7])
    assert np.array_equal(afhc.filter_error([9.0, 9.0], raw, 1.0), raw)


def test_filter_midpoint():
    out = afhc.filter_error([0.0], [1.0], 0.5)
    assert out[0] == 0.5


def test_filter_geometric_convergence():
    alpha = 0.3
    target = np.array([2.0])
    state = np.array([0.0])
    for k in range(1, 40):
        state = afhc.filter_error(state, target, alpha)
        expected = target * (1.0 - (1.0 - alpha) ** k)
        assert state[0] == pytest.approx(expected[0], rel=1e-12)


# ---------------------------------------------------------------- control_law

def test_control_zero_at_equilibrium():
    cfg = afhc.ControllerConfig()
    assert afhc.control_law(cfg, 0.0, 1.0, [0.0, 0.0], 0.0) == 0.0


def test_control_gain_term_dominates_for_huge_r():
    cfg = afhc.ControllerConfig(k=[1.0, 2.0], r=1e12)
    u = afhc.control_law(cfg, 0.0, 1.0, [0.1, 0.0], 0.0)
    assert u == pytest.approx(0.1, abs=1e-10)


def test_control_scales_reciprocally_with_g_hat():
    cfg = afhc.ControllerConfig()
    u1 = afhc.control_law(cfg, 0.3, 1.0, [0.05, -0.02], 0.1)
    u2 = afhc.control_law(cfg, 0.3, 2.0, [0.05, -0.02], 0.1)
    assert u2 == pytest.approx(u1 / 2.0, rel=1e-12)


def test_control_saturates():
    cfg = afhc.ControllerConfig(u_max=0.5)
    assert afhc.control_law(cfg, -100.0, 1.0, [0.0, 0.0], 0.0) == 0.5
    assert afhc.control_law(cfg, 100.0, 1.0, [0.0, 0.0], 0.0) == -0.5


def test_control_rejects_singular_gain_estimate():
    cfg = afhc.ControllerConfig(g_min=0.1)
    # the floor's slack covers rounding, not a relative shortfall of 1e-6
    for g_hat in (0.05, 0.1 * (1 - 1e-6)):
        with pytest.raises(afhc.SingularControlError, match="singular"):
            afhc.control_law(cfg, 0.0, g_hat, [0.0, 0.0], 0.0)


def test_control_tolerates_gain_at_the_floor():
    cfg = afhc.ControllerConfig(g_min=0.1)
    afhc.control_law(cfg, 0.0, 0.1 - 1e-13, [0.0, 0.0], 0.0)


@pytest.mark.parametrize("f_hat, g_hat", [(math.nan, 1.0), (math.inf, math.inf)])
def test_control_rejects_nan_command(f_hat, g_hat):
    # saturation passes NaN through, so it must be caught after the clamp
    cfg = afhc.ControllerConfig()
    message = rf"^non-finite control: u = nan \(f_hat = {f_hat}, g_hat = {g_hat}\)$"
    with pytest.raises(afhc.SingularControlError, match=message):
        afhc.control_law(cfg, f_hat, g_hat, [0.0, 0.0], 0.0)


def test_control_rejects_infinite_command_without_saturation():
    cfg = afhc.ControllerConfig(u_max=math.inf)
    with pytest.raises(afhc.SingularControlError, match=r"non-finite control: u = inf \("):
        afhc.control_law(cfg, -math.inf, 1.0, [0.0, 0.0], 0.0)
    # a finite u_max saturates the same infinite command to a usable one
    assert afhc.control_law(afhc.ControllerConfig(u_max=5.0), -math.inf, 1.0,
                            [0.0, 0.0], 0.0) == 5.0


@settings(max_examples=100)
@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_control_affine_superposition_in_error(a, b, c, d):
    # unsaturated: u(E1+E2) + u(0) == u(E1) + u(E2)
    cfg = afhc.ControllerConfig(u_max=1e9)
    args = dict(cfg=cfg, f_hat=0.7, g_hat=1.3, ydn=0.2)
    e1 = np.array([a, b])
    e2 = np.array([c, d])
    lhs = (afhc.control_law(e_vec=e1 + e2, **args)
           + afhc.control_law(e_vec=np.zeros(2), **args))
    rhs = (afhc.control_law(e_vec=e1, **args)
           + afhc.control_law(e_vec=e2, **args))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_h_infinity_term_formula():
    e = np.array([0.2, -0.1])
    expected = float(P_DEFAULT[-1, :] @ e) / 0.25
    cfg = afhc.ControllerConfig(r=0.25)
    assert afhc.h_infinity_term(cfg, e) == pytest.approx(expected, rel=1e-14)


def test_step_functions_bit_identical_to_array_forms():
    # the step functions must round exactly like their plain-Python forms:
    # IEEE operations on floats in a fixed order, with no BLAS call and no
    # fused multiply-add
    rng = np.random.default_rng(8)
    # gains and weights whose products with E are inexact, so that a fused
    # multiply-add would round differently
    cfg = afhc.ControllerConfig(k=(1.7, 2.9), q_diag=(1.3, 0.6), r=0.13, u_max=50.0)
    (k0, k1), (p10, p11) = cfg.k, cfg.p[1]
    approx_f, approx_g = approximator_pair(
        fuzzy.grid_over_box([-1.0, -1.0], [1.0, 1.0], [3, 4], 1.0), 0.0, 1.0)
    for _ in range(3000):
        prev = tuple(rng.normal(size=2).tolist())
        raw = tuple(rng.normal(size=2).tolist())
        alpha = float(rng.uniform(1e-3, 1.0))
        new = afhc.filter_error(prev, raw, alpha)
        assert new == ((1.0 - alpha) * prev[0] + alpha * raw[0],
                       (1.0 - alpha) * prev[1] + alpha * raw[1])
        e0, e1 = new
        f_hat, g_hat, ydn = rng.normal(scale=30.0, size=3).tolist()
        g_hat = abs(g_hat) + cfg.g_min
        u = afhc.control_law(cfg, f_hat, g_hat, new, ydn)
        s = p10 * e0 + p11 * e1
        unclipped = (-f_hat + ydn + (k0 * e0 + k1 * e1) + s / cfg.r) / g_hat
        expected = -cfg.u_max if unclipped < -cfg.u_max else min(unclipped, cfg.u_max)
        assert type(u) is float and u == expected
        xi = rng.dirichlet(np.ones(12))
        before_f = approx_f.theta.tolist()
        before_g = approx_g.theta.tolist()
        afhc.adapt_step(approx_f, approx_g, xi, new, u, cfg, 1e-3)
        c_f = 1e-3 * (-cfg.gamma_f * s)
        c_g = 1e-3 * (-cfg.gamma_g * s * u)
        assert approx_f.theta.tolist() == [t + c_f * x for t, x in zip(before_f, xi.tolist())]
        assert approx_g.theta.tolist() == [max(t + c_g * x, cfg.g_min)
                                           for t, x in zip(before_g, xi.tolist())]


# ------------------------------------------------------------ adaptation laws

def test_adapt_frozen_at_zero_error():
    approx_f, approx_g = two_rule_approximators(theta_g=(2.0, 3.0))
    cfg = afhc.ControllerConfig()
    before_f = approx_f.theta.copy()
    before_g = approx_g.theta.copy()
    afhc.adapt_step(approx_f, approx_g, np.array([0.5, 0.5]), np.zeros(2), 4.0, cfg, 0.01)
    assert np.array_equal(approx_f.theta, before_f)
    assert np.array_equal(approx_g.theta, before_g)


def test_adapt_single_euler_step_magnitude():
    # gamma_f = 1, E^T P B = 0.5, xi = (1, 0), dt = 0.01: |dtheta_f| = 0.005
    # on the first rule, with the sign that shrinks the Lyapunov candidate.
    approx_f, approx_g = two_rule_approximators()
    cfg = afhc.ControllerConfig(gamma_f=1.0, gamma_g=1.0)
    e = np.array([0.0, 1.0])          # E^T P B = 0.5 with the default P
    afhc.adapt_step(approx_f, approx_g, np.array([1.0, 0.0]), e, 0.0, cfg, 0.01)
    assert np.allclose(approx_f.theta, [-0.005, 0.0], atol=1e-15)


def test_adapt_theta_g_linear_in_u():
    cfg = afhc.ControllerConfig(gamma_g=1.0, g_min=1e-6)
    e = np.array([0.0, 1.0])
    xi = np.array([0.25, 0.75])
    deltas = []
    for u in (1.0, 2.0):
        approx_f, approx_g = two_rule_approximators(theta_g=(5.0, 5.0))
        afhc.adapt_step(approx_f, approx_g, xi, e, u, cfg, 0.01)
        deltas.append(approx_g.theta - 5.0)
    assert np.allclose(deltas[1], 2.0 * np.array(deltas[0]), rtol=1e-12)


def test_projection_leaves_feasible_theta_alone():
    _, approx_g = two_rule_approximators(theta_g=(2.0, 3.0))
    afhc.project_theta_g(approx_g, 0.1)
    assert np.array_equal(approx_g.theta, [2.0, 3.0])


def test_projection_clamps_low_entries():
    _, approx_g = two_rule_approximators(theta_g=(-1.0, 0.5))
    afhc.project_theta_g(approx_g, 0.1)
    assert np.array_equal(approx_g.theta, [0.1, 0.5])


def test_projection_bounds_g_estimate_everywhere():
    grid = fuzzy.grid_over_box([-2.0, -2.0], [2.0, 2.0], [4, 4], 1.0)
    rng = np.random.default_rng(12)
    approx_g = fuzzy.FuzzyApproximator(rng.normal(size=grid.rule_count))
    afhc.project_theta_g(approx_g, 0.1)
    for point in rng.uniform(-3.0, 3.0, size=(1000, 2)):
        assert estimate(grid, approx_g.theta, point) >= 0.1 - 1e-12


def test_adapt_rejects_theta_of_another_length():
    # the rule count is checked by the in-place update, not by the approximator
    approx_f, approx_g = (fuzzy.FuzzyApproximator(row) for row in np.zeros((2, 7)))
    xi = fuzzy.grid_over_box([-1.0, -1.0], [1.0, 1.0], [5, 5], 1.0).regressor([0.1, 0.2])
    with pytest.raises(ValueError, match="broadcast"):
        afhc.adapt_step(approx_f, approx_g, xi, (0.1, 0.2), 1.0, afhc.ControllerConfig(), 1e-3)


def test_adapt_applies_projection():
    cfg = afhc.ControllerConfig(gamma_g=100.0, g_min=0.1)
    approx_f, approx_g = two_rule_approximators(theta_g=(0.1, 0.1))
    # large positive s and u push theta_g down; projection must hold the floor
    afhc.adapt_step(approx_f, approx_g, np.array([1.0, 0.0]),
                    np.array([0.0, 1.0]), 10.0, cfg, 0.1)
    assert np.all(approx_g.theta >= 0.1)
