import numpy as np
import pytest

from afcsim import lti
from conftest import grid_peak_gain, make_stable_system, sigma_max


def lag():
    # 1/(s+1)
    return lti.siso(-1.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------- construction

def test_dimensions_must_be_consistent():
    with pytest.raises(ValueError):
        lti.StateSpaceModel(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])
    with pytest.raises(ValueError):
        lti.StateSpaceModel(np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((1, 2)), [[0.0]])
    with pytest.raises(ValueError):
        lti.StateSpaceModel(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)), [[0.0]])
    with pytest.raises(ValueError):
        lti.StateSpaceModel(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2)))


def test_static_gain_has_zero_states():
    g = lti.static_gain([[2.0, 0.0]])
    assert g.n_states == 0 and g.n_inputs == 2 and g.n_outputs == 1


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        lti.siso(np.nan, 1.0, 1.0, 0.0)


def test_matrices_are_immutable():
    m = lag()
    with pytest.raises(ValueError):
        m.A[0, 0] = 5.0


# --------------------------------------------------------------------- series

def test_series_dc_gain_is_product():
    comp = lti.series(lti.static_gain([[3.0]]), lag(), lti.static_gain([[2.0]]))
    assert comp.n_states == 1
    assert lti.freq_response(comp, 0.0)[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_series_identity_sandwich_preserves_response():
    rng = np.random.default_rng(11)
    mid = make_stable_system(rng, n=3, m=2, p=2)
    comp = lti.series(lti.identity(2), mid, lti.identity(2))
    for w in (0.0, 0.3, 1.0, 7.5):
        assert np.allclose(lti.freq_response(comp, w), lti.freq_response(mid, w),
                           atol=1e-12)


def test_series_of_static_gains():
    comp = lti.series(lti.static_gain([[2.0]]), lti.identity(1), lti.static_gain([[5.0]]))
    assert comp.n_states == 0
    assert comp.D[0, 0] == 10.0


def test_series_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension"):
        lti.series(lti.identity(2), lag(), lti.identity(1))


def test_series_state_dimension_sums():
    rng = np.random.default_rng(5)
    x = make_stable_system(rng, n=2, m=1, p=1)
    y = make_stable_system(rng, n=3, m=1, p=1)
    z = make_stable_system(rng, n=1, m=1, p=1)
    assert lti.series(x, y, z).n_states == 6


def test_series_associative_at_response_level():
    rng = np.random.default_rng(17)
    x = make_stable_system(rng, n=2, m=1, p=1)
    y = make_stable_system(rng, n=2, m=1, p=1)
    z = make_stable_system(rng, n=2, m=1, p=1)
    eye = lti.identity(1)
    left = lti.series(x, lti.series(y, z, eye), eye)
    right = lti.series(lti.series(x, y, eye), z, eye)
    for w in np.logspace(-2, 2, 25):
        assert np.allclose(lti.freq_response(left, w), lti.freq_response(right, w),
                           atol=1e-9)


# ------------------------------------------------------------- freq_response

def test_freq_response_dc_of_lag():
    assert lti.freq_response(lag(), 0.0)[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_freq_response_static_gain_any_frequency():
    g = lti.static_gain([[2.0]])
    for w in (0.0, 1.0, 123.4):
        assert lti.freq_response(g, w)[0, 0] == 2.0


def test_freq_response_lag_at_one():
    val = lti.freq_response(lag(), 1.0)[0, 0]
    assert val == pytest.approx(1.0 / (1.0 + 1.0j), abs=1e-14)
    assert abs(val) == pytest.approx(0.7071, abs=1e-4)


def _solve_numpy1(solve):
    """np.linalg.solve with the numpy 1.x rule: b of one dimension less than a
    is a stack of vectors."""
    def wrapped(a, b):
        a, b = np.asarray(a), np.asarray(b)
        if b.ndim == a.ndim - 1:
            return solve(a, b[..., None])[..., 0]
        return solve(a, b)
    return wrapped


@pytest.mark.parametrize("n,m,p", [(1, 1, 1), (2, 2, 2), (3, 2, 1), (2, 3, 2)])
def test_responses_same_under_numpy1_solve_rule(monkeypatch, n, m, p):
    rng = np.random.default_rng(40 + n + 3 * m + 7 * p)
    ss = make_stable_system(rng, n=n, m=m, p=p)
    omegas = np.array([0.0, 0.3, 2.0, 17.0])
    want = [ss.C @ np.linalg.solve(1j * w * np.eye(n) - ss.A, ss.B) + ss.D for w in omegas]
    norm = lti.hinf_norm(ss)
    monkeypatch.setattr(np.linalg, "solve", _solve_numpy1(np.linalg.solve))
    for w, g in zip(omegas, want):
        got = lti.freq_response(ss, w)
        assert got.shape == (p, m)
        assert np.allclose(got, g, rtol=1e-12, atol=1e-12)
    assert lti.hinf_norm(ss) == pytest.approx(norm, rel=1e-12)


def test_freq_response_at_pole_rejected():
    integrator = lti.siso(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(lti.FrequencyAtPoleError):
        lti.freq_response(integrator, 0.0)


# ------------------------------------------------------------------ is_stable

def test_is_stable_scalar_cases():
    assert lti.is_stable(lti.siso(-1.0, 1.0, 1.0, 0.0))
    assert not lti.is_stable(lti.siso(0.1, 1.0, 1.0, 0.0))
    assert lti.is_stable(lti.static_gain([[4.0]]))


def test_is_stable_companion_of_critically_damped_poly():
    # s^2 + 2s + 1: roots via the polynomial oracle are -1, -1
    a = np.array([[0.0, 1.0], [-1.0, -2.0]])
    assert np.allclose(sorted(np.roots([1.0, 2.0, 1.0])), [-1.0, -1.0])
    assert lti.is_stable(lti.StateSpaceModel(a, np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]]))


def test_is_stable_invariant_under_similarity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        ss = make_stable_system(rng, n=3, m=1, p=1)
        t = rng.normal(size=(3, 3))
        while abs(np.linalg.det(t)) < 1e-2:
            t = rng.normal(size=(3, 3))
        sim = lti.StateSpaceModel(t @ ss.A @ np.linalg.inv(t), t @ ss.B,
                                  ss.C @ np.linalg.inv(t), ss.D)
        assert lti.is_stable(sim) == lti.is_stable(ss) is True


# ------------------------------------------------------------------ hinf_norm

def test_hinf_norm_static_gain_exact():
    assert lti.hinf_norm(lti.static_gain([[2.0]])) == 2.0


def test_hinf_norm_lag_is_one():
    assert lti.hinf_norm(lag(), tol=1e-10) == pytest.approx(1.0, abs=1e-9)


def test_hinf_norm_matches_grid_oracle_on_random_system():
    rng = np.random.default_rng(31)
    ss = make_stable_system(rng, n=3, m=1, p=1)
    oracle = grid_peak_gain(ss)
    assert lti.hinf_norm(ss, tol=1e-8) == pytest.approx(oracle, rel=1e-6)


def test_hinf_norm_rejects_unstable_system():
    with pytest.raises(lti.UnstableSystemError, match="unstable"):
        lti.hinf_norm(lti.siso(1.0, 1.0, 1.0, 0.0))


def test_hinf_norm_of_zero_system():
    assert lti.hinf_norm(lti.siso(-1.0, 1.0, 0.0, 0.0)) == 0.0


def test_hinf_norm_scales_with_output_gain():
    rng = np.random.default_rng(37)
    ss = make_stable_system(rng, n=3, m=1, p=1)
    base = lti.hinf_norm(ss, tol=1e-9)
    for alpha in (-2.5, 0.3):
        scaled = lti.StateSpaceModel(ss.A, ss.B, alpha * ss.C, alpha * ss.D)
        assert lti.hinf_norm(scaled, tol=1e-9) == pytest.approx(abs(alpha) * base, rel=1e-7)


def test_hinf_norm_dominates_sampled_response():
    rng = np.random.default_rng(41)
    ss = make_stable_system(rng, n=4, m=2, p=2)
    norm = lti.hinf_norm(ss, tol=1e-9)
    for w in np.logspace(-3, 3, 50):
        assert norm >= sigma_max(lti.freq_response(ss, w)) - 1e-8 * norm


def test_hinf_norm_lightly_damped_resonance_closed_form():
    # 1/(s^2 + 2 zeta s + 1): a peak of relative width ~zeta near 1 rad/s
    zeta = 1e-3
    ss = lti.StateSpaceModel([[0.0, 1.0], [-1.0, -2.0 * zeta]], [[0.0], [1.0]],
                             [[1.0, 0.0]], [[0.0]])
    want = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta * zeta))
    assert lti.hinf_norm(ss, tol=1e-10) == pytest.approx(want, rel=1e-8)


def test_hinf_norm_high_pass_reaches_feedthrough_only_at_infinity():
    # s/(s+1) = 1 - 1/(s+1): |G(jw)| < 1 at every finite w, sigma_max(D) = 1
    high_pass = lti.siso(-1.0, 1.0, -1.0, 1.0)
    assert lti.hinf_norm(high_pass, tol=1e-10) == pytest.approx(1.0, rel=1e-9)


def test_hinf_norm_peak_at_dc():
    # 1/(s^2 + 1.8 s + 1): damping 0.9 leaves no resonance, the gain falls from 1 at DC
    ss = lti.StateSpaceModel([[0.0, 1.0], [-1.0, -1.8]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    norm = lti.hinf_norm(ss, tol=1e-10)
    assert norm == pytest.approx(1.0, rel=1e-9)
    assert norm == pytest.approx(grid_peak_gain(ss), rel=1e-6)


def test_hinf_norm_nonzero_where_dc_and_pole_frequency_gains_vanish():
    # (s^3 + s)/(s + 1)^4 is zero at DC and at its pole frequency 1 rad/s; with
    # w = tan(t) its gain is |sin(4 t)| / 4, so the norm is 1/4 (at tan(pi/8)).
    # A is a Jordan block, so its eigenvalues come out exactly -1; that also
    # rules out the eigendecomposition grid oracle.
    a = -np.eye(4) + np.eye(4, k=1)
    ss = lti.StateSpaceModel(a, [[0.0], [0.0], [0.0], [1.0]], [[-2.0, 4.0, -3.0, 1.0]], [[0.0]])
    assert np.all(np.linalg.eigvals(a) == -1.0)
    assert lti.hinf_norm(ss, tol=1e-10) == pytest.approx(0.25, rel=1e-8)


def _band_pass(k, p1, p2):
    """A, B, C of k s / ((s + p1)(s + p2)), peak k / (p1 + p2) at sqrt(p1 p2)."""
    return (np.array([[0.0, 1.0], [-p1 * p2, -(p1 + p2)]]), np.array([[0.0], [1.0]]),
            np.array([[0.0, k]]))


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def test_hinf_norm_mimo_with_smaller_singular_value_crossing():
    # G = U diag(g1, g2) V: g1 = 10 s/((s+1.5)(s+3.5)) peaks at 2 and
    # g2 = 21.9 s/((s+0.5)(s+10.5)) at 1.991, both at sqrt(5.25) rad/s. At the
    # level g2 reaches at 2 rad/s, which is also hinf_norm's starting lower
    # bound, g1 crosses it inside the band where g2 is above it, i.e. as the
    # smaller singular value.
    a1, b1, c1 = _band_pass(10.0, 1.5, 3.5)
    a2, b2, c2 = _band_pass(21.9, 0.5, 10.5)
    za, zb, zc = np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2))
    ss = lti.StateSpaceModel(np.block([[a1, za], [za, a2]]),
                             np.block([[b1, zb], [zb, b2]]) @ _rotation(-0.7),
                             _rotation(0.3) @ np.block([[c1, zc], [zc, c2]]), np.zeros((2, 2)))
    gamma = sigma_max(lti.freq_response(ss, 2.0))
    crossings = lti._crossings(ss.A, ss.B, ss.C, ss.D, gamma)
    smaller = [np.linalg.svd(lti.freq_response(ss, w), compute_uv=False)[1]
               for w in crossings[crossings > 0]]
    assert any(s == pytest.approx(gamma, rel=1e-6) for s in smaller)
    norm = lti.hinf_norm(ss, tol=1e-10)
    assert norm == pytest.approx(2.0, rel=1e-9)
    assert norm == pytest.approx(grid_peak_gain(ss), rel=1e-6)


def test_hinf_norm_reports_bracket_when_iterations_exhausted(monkeypatch):
    monkeypatch.setattr(lti, "_MAX_ITERATIONS", 0)
    with pytest.raises(lti.HinfConvergenceError) as err:
        lti.hinf_norm(lag(), tol=1e-12)
    assert err.value.lower <= 1.0 <= err.value.upper


# ------------------------------------------------------------ closed_loop_tzw

def test_closed_loop_zero_plant_zero_controller():
    tzw = lti.closed_loop_tzw(lti.static_gain([[0.0]]), lti.static_gain([[0.0]]))
    assert np.allclose(tzw.D, [[1.0], [0.0]])
    assert lti.hinf_norm(tzw) == 1.0


def test_closed_loop_unit_static_pair():
    tzw = lti.closed_loop_tzw(lti.static_gain([[1.0]]), lti.static_gain([[1.0]]))
    assert np.allclose(tzw.D, [[0.5], [0.5]])
    assert lti.hinf_norm(tzw) == pytest.approx(0.7071, abs=1e-4)


def test_closed_loop_response_matches_defining_formula():
    # (m, p) = (1, 2): a plant with 2 outputs and 1 input against a 1 x 2
    # controller, both with nonzero D, exercises the shapes of [C_k 0] and D_k delta
    rng = np.random.default_rng(43)
    for m, p in [(2, 2)] * 4 + [(1, 2)] * 4:
        ps = make_stable_system(rng, n=3, m=m, p=p)
        k = make_stable_system(rng, n=2, m=p, p=m)
        assert np.all(ps.D != 0) and np.all(k.D != 0)
        tzw = lti.closed_loop_tzw(ps, k)
        assert tzw.n_states == 5
        assert (tzw.n_outputs, tzw.n_inputs) == (p + m, p)
        for w in 10.0 ** rng.uniform(-2.0, 2.0, size=25):
            gp = lti.freq_response(ps, w)
            gk = lti.freq_response(k, w)
            inv = np.linalg.inv(np.eye(p) + gp @ gk)
            want = np.vstack([inv, gk @ inv])
            got = lti.freq_response(tzw, w)
            assert np.max(np.abs(got - want)) < 1e-9 * (1.0 + np.max(np.abs(want)))


def test_closed_loop_ill_posed_rejected():
    with pytest.raises(lti.IllPosedLoopError):
        lti.closed_loop_tzw(lti.static_gain([[1.0]]), lti.static_gain([[-1.0]]))


# ---------------------------------------------------------- robustness_margin

def test_margin_of_trivial_loop():
    cert = lti.robustness_margin(lti.static_gain([[0.0]]), lti.static_gain([[0.0]]))
    assert cert.loop_stable
    assert cert.epsilon == pytest.approx(1.0, rel=1e-9)


def test_margin_scalar_lag_with_unit_feedback():
    # closed-loop pole from the characteristic polynomial s + 2
    tzw = lti.closed_loop_tzw(lag(), lti.static_gain([[1.0]]))
    assert np.allclose(np.linalg.eigvals(tzw.A), [-2.0])
    cert = lti.robustness_margin(lag(), lti.static_gain([[1.0]]), tol=1e-10)
    assert cert.loop_stable
    assert cert.norm_tzw == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_margin_reciprocal_identity():
    rng = np.random.default_rng(47)
    for _ in range(5):
        ps = make_stable_system(rng, n=2, m=1, p=1)
        k = make_stable_system(rng, n=1, m=1, p=1)
        tzw = lti.closed_loop_tzw(ps, k)
        if not lti.is_stable(tzw):
            continue
        cert = lti.robustness_margin(ps, k)
        assert cert.epsilon * cert.norm_tzw == pytest.approx(1.0, rel=1e-12)


def test_margin_flags_unstable_loop():
    unstable_plant = lti.siso(1.0, 1.0, 1.0, 0.0)   # 1/(s-1)
    cert = lti.robustness_margin(unstable_plant, lti.static_gain([[0.5]]))
    assert not cert.loop_stable
    assert cert.norm_tzw == np.inf
    assert cert.epsilon == 0.0
