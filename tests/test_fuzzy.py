import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afcsim import fuzzy

box_points = st.tuples(st.floats(-1.5, 1.5), st.floats(-3.0, 3.0))


def two_rule_grid():
    return fuzzy.MembershipGrid((np.array([-1.0, 1.0]),), (np.array([1.0, 1.0]),))


def benchmark_grid():
    return fuzzy.grid_over_box([-math.pi / 6, -1.0], [math.pi / 6, 1.0], [5, 5], 1.0)


# -------------------------------------------------------------- grid_over_box

def test_uniform_centers():
    g = fuzzy.grid_over_box([-1.0], [1.0], [3], 1.0)
    assert np.allclose(g.centers[0], [-1.0, 0.0, 1.0])


def test_rule_count_is_product_of_counts():
    g = fuzzy.grid_over_box([-1.0, -1.0], [1.0, 1.0], [3, 3], 1.0)
    assert g.rule_count == 9


def test_widths_follow_center_spacing():
    g = fuzzy.grid_over_box([-2.0], [2.0], [5], 1.0)
    assert np.allclose(g.centers[0], [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert np.allclose(g.widths[0], 1.0)


def test_single_membership_uses_box_width():
    g = fuzzy.grid_over_box([-1.0], [3.0], [1], 0.5)
    assert np.allclose(g.centers[0], [1.0])
    assert np.allclose(g.widths[0], 2.0)


def test_invalid_box_rejected():
    with pytest.raises(ValueError):
        fuzzy.grid_over_box([1.0], [-1.0], [3], 1.0)
    with pytest.raises(ValueError):
        fuzzy.grid_over_box([-1.0], [1.0], [0], 1.0)
    with pytest.raises(ValueError):
        fuzzy.grid_over_box([-1.0], [1.0], [3], 0.0)


def test_grid_invariants_enforced():
    with pytest.raises(ValueError, match="increasing"):
        fuzzy.MembershipGrid((np.array([1.0, -1.0]),), (np.array([1.0, 1.0]),))
    with pytest.raises(ValueError, match="positive"):
        fuzzy.MembershipGrid((np.array([-1.0, 1.0]),), (np.array([1.0, 0.0]),))


# ------------------------------------------------------------------ regressor

def test_single_rule_regressor_is_one():
    g = fuzzy.grid_over_box([-1.0], [1.0], [1], 1.0)
    assert np.array_equal(g.regressor([0.3]), [1.0])


def test_symmetric_point_splits_evenly():
    assert np.allclose(two_rule_grid().regressor([0.0]), [0.5, 0.5])


def test_regressor_value_at_right_center():
    # mu(x)=exp(-((x-c)/sigma)^2): at x=1 the strengths are exp(-4) and 1
    xi = two_rule_grid().regressor([1.0])
    expected = np.array([math.exp(-4.0), 1.0])
    expected /= expected.sum()
    assert np.allclose(xi, expected, atol=1e-12)
    assert xi[0] == pytest.approx(0.0179862, abs=1e-6)
    assert xi[1] == pytest.approx(0.9820138, abs=1e-6)


def test_regressor_dimension_checked():
    with pytest.raises(ValueError, match="dimension"):
        benchmark_grid().regressor([0.0])


@settings(max_examples=200)
@given(box_points)
def test_simplex_property(point):
    xi = benchmark_grid().regressor(point)
    assert abs(xi.sum() - 1.0) < 1e-12
    assert np.all(xi > 0.0) and np.all(xi < 1.0)


def test_regressor_robust_far_from_grid():
    # log-domain evaluation keeps the normalizer alive under huge exponents
    xi = benchmark_grid().regressor([250.0, -900.0])
    assert np.isfinite(xi).all()
    assert xi.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100)
@given(box_points, st.floats(-5.0, 5.0))
def test_regressor_translation_consistency(point, shift):
    g = benchmark_grid()
    shifted = fuzzy.MembershipGrid(tuple(c + shift for c in g.centers), g.widths)
    x = np.asarray(point)
    assert np.allclose(g.regressor(x), shifted.regressor(x + shift), atol=1e-12)


def python_regressor(grid, x):
    """The regressor's arithmetic in plain Python: per dimension, squared
    distances, a shift by their minimum, math.exp and a left-to-right sum;
    then the row-major product over dimensions (1.0 * m is exact)."""
    rules = [1.0]
    for v, centers, widths in zip(x, grid.centers, grid.widths):
        sq = []
        for c, w in zip(centers.tolist(), widths.tolist()):
            z = (v - c) / w
            sq.append(z * z)
        low = min(sq)
        mu = [math.exp(low - q) for q in sq]
        total = mu[0]
        for m in mu[1:]:
            total = total + m
        rules = [r * (m / total) for r in rules for m in mu]
    return np.array(rules)


@pytest.mark.parametrize("counts", [[5, 5], [15, 15], [3, 4, 2], [7]])
def test_regressor_bit_identical_to_seeded_loop(counts):
    # the separable regressor must round exactly like its plain-Python form
    rng = np.random.default_rng(len(counts) * 100 + counts[0])
    dim = len(counts)
    grid = fuzzy.grid_over_box([-1.0] * dim, [1.0] * dim, counts, 1.0)
    points = rng.uniform(-3.0, 3.0, size=(2000, dim))
    points[:50] = 0.0                       # exact centers give zero exponents
    points[50:100] *= 300.0                 # far outside the box
    for x in points.tolist():
        assert grid.regressor(x).tobytes() == python_regressor(grid, x).tobytes()


# ------------------------------------------------------------------- evaluate

def test_zero_theta_evaluates_to_zero():
    approx = fuzzy.FuzzyApproximator(benchmark_grid())
    for x in ([0.0, 0.0], [0.2, -0.5], [1.0, 1.0]):
        assert approx.evaluate(x) == 0.0


def test_symmetric_two_rule_average():
    approx = fuzzy.FuzzyApproximator(two_rule_grid(), [3.0, 5.0])
    assert approx.evaluate([0.0]) == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=100)
@given(box_points)
def test_evaluate_linear_in_theta(point):
    g = benchmark_grid()
    rng = np.random.default_rng(0)
    t1 = rng.normal(size=g.rule_count)
    t2 = rng.normal(size=g.rule_count)
    a = fuzzy.FuzzyApproximator(g, t1)
    b = fuzzy.FuzzyApproximator(g, t2)
    both = fuzzy.FuzzyApproximator(g, t1 + t2)
    assert both.evaluate(point) == pytest.approx(a.evaluate(point) + b.evaluate(point),
                                                 abs=1e-10)


@settings(max_examples=100)
@given(box_points)
def test_evaluate_is_convex_combination(point):
    g = benchmark_grid()
    theta = np.linspace(-2.0, 7.0, g.rule_count)
    approx = fuzzy.FuzzyApproximator(g, theta)
    val = approx.evaluate(point)
    assert theta.min() - 1e-12 <= val <= theta.max() + 1e-12


def test_paired_rows_share_one_array():
    g = benchmark_grid()
    approx_f, approx_g = fuzzy.paired(g, 0.0, 2.0)
    theta = approx_f.theta.base
    assert theta.shape == (2, g.rule_count) and approx_g.theta.base is theta
    assert np.all(approx_f.theta == 0.0) and np.all(approx_g.theta == 2.0)
    rng = np.random.default_rng(3)
    theta[:] = rng.normal(size=theta.shape)
    # evaluate reduces each row exactly as the control loop reduces both
    for x in rng.uniform(-1.0, 1.0, size=(200, 2)).tolist():
        f_hat, g_hat = np.add.reduce(theta * g.regressor(x), axis=1).tolist()
        assert (f_hat, g_hat) == (approx_f.evaluate(x), approx_g.evaluate(x))


def test_theta_length_validated():
    with pytest.raises(ValueError, match="rules"):
        fuzzy.FuzzyApproximator(benchmark_grid(), np.zeros(7))


# ------------------------------------------------------- approximation oracle

def test_sine_fit_sup_error_below_bound():
    # independent oracle: normal-equations least squares on a dense grid
    grid = fuzzy.grid_over_box([-math.pi], [math.pi], [15], 1.0)
    xs = np.linspace(-math.pi, math.pi, 1000)
    design = np.array([grid.regressor([x]) for x in xs])
    target = np.sin(xs)
    theta = np.linalg.solve(design.T @ design, design.T @ target)
    sup_error = np.max(np.abs(design @ theta - target))
    assert sup_error < 0.05


# -------------------------------------------------------------- serialization

def test_theta_round_trip(tmp_path):
    g = benchmark_grid()
    theta = np.random.default_rng(8).normal(size=g.rule_count)
    path = tmp_path / "theta.txt"
    fuzzy.write_theta(path, g, theta)
    text = path.read_text()
    assert "rule theta" in text
    assert text.startswith("#")
    back = fuzzy.read_theta(path)
    assert np.allclose(back, theta, rtol=1e-9)
