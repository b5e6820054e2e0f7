"""Acceptance suite: each test runs one exit criterion at its stated
tolerance and prints a PASS line with the measured value (run with -v -s for
one line per criterion)."""
import hashlib
import math

import numpy as np
import pytest

from afcsim import cli, config, fuzzy, harness, lti, netchan, plant
from conftest import grid_peak_gain, make_stable_system


def test_criterion_1_nominal_tracking_bound():
    # nominal preset, 30 s horizon, dt = 1 ms: steady-state error < 10 %
    cfg = config.parse_config("")
    assert cfg.duration == 30.0 and cfg.dt == 0.001
    trace, metrics = harness.run_experiment(cfg)
    assert not metrics.diverged
    assert metrics.steady_state_error_pct < 10.0
    assert np.max(np.abs(trace.x1)) <= math.pi / 6  # stays inside the grid box
    print(f"\n[criterion 1] PASS steady_state_error_pct="
          f"{metrics.steady_state_error_pct:.3f} < 10")


def test_criterion_2_networked_stability():
    # actuator delay 20 ms, 10 % loss, disturbance on, 60 s horizon
    cfg = config.build_config([("preset", config.preset_text("networked")),
                               ("override", "duration = 60")])
    assert cfg.actuator_channel.delay_steps == 20
    assert cfg.actuator_channel.drop_prob == 0.1
    assert cfg.disturbance.d0 > 0
    trace, metrics = harness.run_experiment(cfg)
    assert not metrics.diverged
    peak_angle = float(np.max(np.abs(trace.x1)))
    peak_error = float(np.max(np.abs(trace.e)))
    assert peak_angle <= math.pi / 4
    assert np.all(np.isfinite(trace.e))
    assert peak_error <= math.pi / 4 + cfg.reference.amplitude
    print(f"\n[criterion 2] PASS max|x1|={peak_angle:.4f} <= pi/4, "
          f"max|e|={peak_error:.4f}, diverged=False over 60 s")


def test_criterion_3_lyapunov_decrement():
    # ideal model (true f, g in the law), d = 0, no delays, E(0) = (0.1, 0)
    amp = math.pi / 30.0
    cfg = config.parse_config(
        f"ideal_model = true\ndisturbance.d0 = 0\nplant.x0 = -0.1, {amp}\nduration = 30")
    assert cfg.sensor_channel.delay_steps == 0 and cfg.actuator_channel.delay_steps == 0
    trace, metrics = harness.run_experiment(cfg)
    assert trace.e[0] == pytest.approx(0.1, abs=1e-15)
    assert trace.v[0] == pytest.approx(0.015, rel=1e-9)   # E0' P E0, P=[[1.5,.5],[.5,.5]]
    increments = np.diff(trace.v)
    assert np.all(increments <= 1e-8)
    print(f"\n[criterion 3] PASS V nonincreasing: max increment="
          f"{increments.max():.3e} <= 1e-8 over {len(trace)} steps")


def test_criterion_4_hinf_norm_oracle_equivalence():
    # 50 seeded random stable systems (<= 4 states) vs a 1e5-point grid supremum
    rng = np.random.default_rng(20240400)
    worst = 0.0
    for _ in range(50):
        ss = make_stable_system(rng)
        value = lti.hinf_norm(ss, tol=1e-8)
        oracle = grid_peak_gain(ss, n_points=100_000)
        worst = max(worst, abs(value - oracle) / oracle)
    assert worst < 1e-6
    lag = lti.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert lti.hinf_norm(lag, tol=1e-10) == pytest.approx(1.0, abs=1e-9)
    assert lti.hinf_norm(lti.static_gain([[2.0]])) == 2.0
    print(f"\n[criterion 4] PASS worst relative gap over 50 systems={worst:.3e} < 1e-6; "
          "1/(s+1) -> 1.0; static 2 -> 2.0 exactly")


def test_criterion_5_series_and_certificate():
    rng = np.random.default_rng(55)
    freqs = np.logspace(-2.0, 2.0, 100)
    # series response equals the factor-product response at 100 frequencies
    for _ in range(3):
        post = make_stable_system(rng, n=2, m=2, p=1)
        mid = make_stable_system(rng, n=3, m=2, p=2)
        pre = make_stable_system(rng, n=1, m=1, p=2)
        comp = lti.series(post, mid, pre)
        for w in freqs:
            want = (lti.freq_response(post, w) @ lti.freq_response(mid, w)
                    @ lti.freq_response(pre, w))
            got = lti.freq_response(comp, w)
            assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))
    # the certificate's reciprocal identity at 1e-12, on a stable loop
    ps = make_stable_system(rng, n=3, m=1, p=1)
    k = make_stable_system(rng, n=2, m=1, p=1)
    cert = lti.robustness_margin(ps, k, tol=1e-9)
    assert cert.loop_stable
    assert cert.epsilon * cert.norm_tzw == pytest.approx(1.0, rel=1e-12)
    # instability flagged on a constructed unstable loop: 1/(s-1) with gain 0.5
    unstable_plant = lti.StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    bad = lti.robustness_margin(unstable_plant, lti.static_gain([[0.5]]))
    assert not bad.loop_stable and bad.norm_tzw == math.inf and bad.epsilon == 0.0
    print(f"\n[criterion 5] PASS series product identity at 100 freqs <= 1e-9; "
          f"eps*norm=1 at 1e-12 (eps={cert.epsilon:.4f}); unstable loop flagged")


def test_criterion_6_fuzzy_approximator_quality():
    grid = fuzzy.grid_over_box([-math.pi], [math.pi], [15], 1.0)
    xs = np.linspace(-math.pi, math.pi, 1000)
    design = np.array([grid.regressor([x]) for x in xs])
    theta = np.linalg.solve(design.T @ design, design.T @ np.sin(xs))
    sup_error = float(np.max(np.abs(design @ theta - np.sin(xs))))
    assert sup_error < 0.05
    bench = fuzzy.grid_over_box([-math.pi / 6, -1.0], [math.pi / 6, 1.0], [5, 5], 1.0)
    rng = np.random.default_rng(66)
    worst = 0.0
    for point in rng.uniform(-1.5, 1.5, size=(10_000, 2)):
        xi = bench.regressor(point)
        worst = max(worst, abs(float(xi.sum()) - 1.0))
        assert np.all(xi > 0.0) and np.all(xi < 1.0)
    assert worst < 1e-12
    print(f"\n[criterion 6] PASS sine fit sup error={sup_error:.4f} < 0.05; "
          f"simplex defect at 1e4 points={worst:.2e} < 1e-12")


def test_criterion_7_channel_correctness():
    k = 20
    ch = netchan.Channel(netchan.ChannelConfig(delay_steps=k, drop_prob=0.0,
                                               seed=3, initial_value=0.0))
    values = np.sin(np.arange(500) * 0.1)
    outs = []
    for v in values:
        ch.push(v)
        outs.append(ch.output())
    assert np.array_equal(outs[k:], values[:-k])
    assert np.all(np.asarray(outs[:k]) == 0.0)

    def drop_flags(seed, prob, n):
        ch = netchan.Channel(netchan.ChannelConfig(drop_prob=prob, seed=seed))
        return [ch.push(0.0) for _ in range(n)]

    assert drop_flags(99, 0.5, 5000) == drop_flags(99, 0.5, 5000)
    assert drop_flags(99, 0.5, 5000) == (np.random.default_rng(99).random(5000) < 0.5).tolist()

    n = 10_000
    prob = 0.1
    rate = sum(drop_flags(2024, prob, n)) / n
    sigma = math.sqrt(prob * (1 - prob) / n)
    assert abs(rate - prob) <= 3 * sigma
    print(f"\n[criterion 7] PASS exact {k}-step shift; seeded replay identical; "
          f"|rate-p|={abs(rate - prob):.4f} <= 3sigma={3 * sigma:.4f}")


def test_criterion_8_integrator_order():
    decay = plant.PlantModel(fg=lambda x: (-x[0], 0.0), d=lambda t: 0.0)

    def final_error(dt):
        x = np.array([1.0])
        t = 0.0
        for _ in range(int(round(1.0 / dt))):
            x = plant.rk4_step(decay, x, 0.0, t, dt)
            t += dt
        return abs(x[0] - math.exp(-1.0))

    errors = [final_error(dt) for dt in (0.1, 0.05, 0.025)]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    for ratio in ratios:
        assert 14.0 <= ratio <= 18.0
    print(f"\n[criterion 8] PASS error-reduction ratios per halving: "
          + ", ".join(f"{r:.2f}" for r in ratios) + " (all in [14, 18])")


# SHA-256 of trace.csv for each preset at --seed 2024.
GOLDEN_TRACE_SHA256 = {
    "nominal": "aa56742bfd071091a24c114e8c1425742f32f19332720c6f5c65b0c9ea6436ac",
    "networked": "7f4f1ba4bedb15a11943e92d3ed85d78a0b3127d4c43e238995c29cc5be14dd5",
    "stress": "d741b4edc37b47f539bc325640feaea40f4cb25f6e7f87ca2ac42c892121627c",
}


def test_criterion_9_byte_identical_traces(tmp_path):
    digests = {}
    for preset in sorted(config.PRESETS):
        payloads = []
        for run in range(2):
            out = tmp_path / f"{preset}_{run}"
            code = cli.main(["--preset", preset, "--out", str(out),
                             "--seed", "2024", "--quiet"])
            assert code in (0, 2)
            payloads.append((out / "trace.csv").read_bytes())
        assert payloads[0] == payloads[1]
        assert hashlib.sha256(payloads[0]).hexdigest() == GOLDEN_TRACE_SHA256[preset]
        digests[preset] = len(payloads[0])
    print(f"\n[criterion 9] PASS byte-identical trace.csv per preset, equal to the "
          f"golden SHA-256 "
          f"(sizes: {digests})")
