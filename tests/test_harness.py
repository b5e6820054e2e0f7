import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from afcsim import afhc, cli, config, harness


def run_text(text=""):
    cfg = config.parse_config(text)
    trace, metrics = harness.run_experiment(cfg)
    return cfg, trace, metrics


def synthetic_trace(t, e, u=None, abort_reason=None):
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    z = np.zeros_like(t)
    u = z if u is None else np.asarray(u, dtype=float)
    return harness.SimulationTrace(
        t=t, x1=-e, x2=z, xd=z, e=e, e_filt=e, u=u, u_applied=u,
        f_hat=z, g_hat=z + 1.0, v=z, drop_sensor=np.zeros(t.size, dtype=bool),
        drop_actuator=np.zeros(t.size, dtype=bool), abort_reason=abort_reason)


# -------------------------------------------------------------- run_experiment

def test_equilibrium_regulation_stays_exactly_at_zero():
    cfg, trace, metrics = run_text(
        "reference.amplitude = 0\ndisturbance.d0 = 0\nduration = 2")
    assert np.all(trace.x1 == 0.0)
    assert np.all(trace.u == 0.0)
    assert metrics.rmse == 0.0
    assert metrics.steady_state_error_pct == 0.0
    assert not metrics.diverged


def test_identical_configs_replay_identically():
    _, trace_a, _ = run_text("duration = 2")
    _, trace_b, _ = run_text("duration = 2")
    for name in ("t", "x1", "x2", "u", "u_applied", "v"):
        assert np.array_equal(getattr(trace_a, name), getattr(trace_b, name))
    assert np.array_equal(trace_a.drop_sensor, trace_b.drop_sensor)
    assert np.array_equal(trace_a.theta_f, trace_b.theta_f)


def test_trace_time_grid_is_uniform():
    cfg, trace, _ = run_text("duration = 1.5")
    assert len(trace) == cfg.n_steps
    assert np.allclose(np.diff(trace.t), cfg.dt, rtol=0, atol=1e-15)
    assert trace.t[0] == 0.0


def test_initial_state_override_sets_first_error():
    amp = math.pi / 30.0
    _, trace, _ = run_text(f"plant.x0 = -0.1, {amp}\nduration = 1")
    assert trace.x1[0] == -0.1
    assert trace.e[0] == pytest.approx(0.1, abs=1e-15)


def test_actuator_delay_shifts_applied_input():
    cfg, trace, _ = run_text(
        "actuator_channel.delay = 0.02\ncontroller.filter_alpha = 1.0\nduration = 1")
    k = 20
    assert np.array_equal(trace.u_applied[k:], trace.u[:-k])
    assert np.all(trace.u_applied[:k] == 0.0)


def test_smallest_accepted_width_scale_runs():
    # fuzzy.width_scale = 1e-160 is rejected (its squared scaled distances
    # overflow on the box); 1e-150 does not overflow and must still run
    _, trace, metrics = run_text("fuzzy.width_scale = 1e-150\nduration = 1")
    assert not metrics.diverged and len(trace) == 1000


def test_sensor_drops_hold_last_measurement():
    cfg, trace, _ = run_text("sensor_channel.drop_prob = 0.3\nduration = 2")
    dropped = np.flatnonzero(trace.drop_sensor)
    dropped = dropped[dropped > 0]
    assert dropped.size > 100
    # a dropped measurement must leave the controller's filtered error equal
    # to the previous step's only when the state is frozen; instead verify
    # the drop flags replay the channel's seeded Bernoulli stream
    oracle = np.random.default_rng(cfg.sensor_channel.seed).random(len(trace)) < 0.3
    assert np.array_equal(trace.drop_sensor, oracle)


def test_networked_run_stays_bounded():
    cfg = config.build_config([("preset", config.preset_text("networked")),
                               ("t", "duration = 10")])
    trace, metrics = harness.run_experiment(cfg)
    assert not metrics.diverged
    assert np.max(np.abs(trace.x1)) < math.pi / 4


def test_divergent_run_truncates_and_flags():
    cfg, trace, metrics = run_text("disturbance.d0 = 1e160\nduration = 2")
    assert metrics.diverged
    assert trace.abort_reason is not None
    assert "overflow" in trace.abort_reason
    assert len(trace) < cfg.n_steps
    assert metrics.steady_state_error_pct == math.inf


def test_ideal_model_lyapunov_candidate_nonincreasing():
    amp = math.pi / 30.0
    _, trace, _ = run_text(
        f"ideal_model = true\ndisturbance.d0 = 0\nplant.x0 = -0.1, {amp}\nduration = 6")
    assert trace.v[0] == pytest.approx(0.015, rel=1e-9)
    assert np.all(np.diff(trace.v) <= 1e-8)


def test_ideal_model_decrement_matches_quadratic_rate():
    # with a huge r the auxiliary term vanishes and dV/dt ~ -E^T Q E up to
    # sampling (zero-order hold) error
    amp = math.pi / 30.0
    cfg, trace, _ = run_text(
        f"ideal_model = true\ndisturbance.d0 = 0\nplant.x0 = -0.1, {amp}\n"
        "controller.r = 1e9\nduration = 6")
    p = afhc.solve_lyapunov(afhc.companion(cfg.controller.k), cfg.controller.q)
    xd_dot = cfg.reference.amplitude * np.cos(trace.t)
    e_vecs = np.stack([trace.e_filt, xd_dot - trace.x2], axis=1)
    v = np.einsum("ij,jk,ik->i", e_vecs, p, e_vecs)
    assert np.max(np.abs(v - trace.v)) < 1e-12
    dv = np.diff(trace.v) / cfg.dt
    w = np.einsum("ij,jk,ik->i", e_vecs, cfg.controller.q, e_vecs)
    mid = 0.5 * (w[:-1] + w[1:])
    residual = np.abs(dv + mid)
    assert np.all(residual <= 0.01 * mid + 1e-3 * np.sqrt(mid) + 1e-12)


def test_singular_control_truncates_run():
    # ideal model launched near the input-gain zero crossing: the true g
    # falls under g_min a few steps in
    _, trace, metrics = run_text(
        "ideal_model = true\nplant.x0 = 1.45, 2.0\ndisturbance.d0 = 0\nduration = 1")
    assert metrics.diverged
    assert "singular control" in trace.abort_reason
    assert 0 < len(trace) < 1000


def test_abort_on_first_step_raises():
    with pytest.raises(RuntimeError, match="before completing one step"):
        run_text("ideal_model = true\nplant.x0 = 1.58, 0\ndisturbance.d0 = 0\nduration = 1")


def test_saturation_limit_respected():
    _, trace, metrics = run_text("controller.u_max = 0.4\nduration = 2")
    assert metrics.max_abs_u <= 0.4
    assert np.max(np.abs(trace.u)) <= 0.4


def test_g_estimate_stays_above_floor():
    cfg, trace, _ = run_text("duration = 3")
    assert np.all(trace.g_hat >= cfg.controller.g_min * (1 - 1e-9))


# ------------------------------------------------------------ compute_metrics

def test_metrics_zero_error():
    cfg = config.parse_config("")
    t = np.arange(0, 10.0, 0.001)
    m = harness.compute_metrics(synthetic_trace(t, np.zeros_like(t)), cfg)
    assert m.steady_state_error_pct == 0.0
    assert m.rmse == 0.0


def test_metrics_sine_error_hand_value():
    cfg = config.parse_config("reference.amplitude = 0.5")
    t = np.arange(0, 30.0, 0.001)
    m = harness.compute_metrics(synthetic_trace(t, 0.05 * np.sin(t)), cfg)
    assert m.steady_state_error_pct == pytest.approx(10.0, abs=1e-3)


def test_metrics_constant_error_rmse():
    cfg = config.parse_config("")
    t = np.arange(0, 5.0, 0.001)
    m = harness.compute_metrics(synthetic_trace(t, np.full_like(t, -0.3)), cfg)
    assert m.rmse == pytest.approx(0.3, rel=1e-12)


def test_metrics_empty_trace_rejected():
    cfg = config.parse_config("")
    with pytest.raises(ValueError, match="empty"):
        harness.compute_metrics(synthetic_trace([], []), cfg)


def test_metrics_diverged_trace_reports_unbounded():
    cfg = config.parse_config("")
    t = np.arange(0, 1.0, 0.001)
    m = harness.compute_metrics(
        synthetic_trace(t, np.ones_like(t), abort_reason="dynamics overflow"), cfg)
    assert m.diverged
    assert m.steady_state_error_pct == math.inf


def test_metrics_zero_amplitude_nonzero_error_unbounded():
    cfg = config.parse_config("reference.amplitude = 0")
    t = np.arange(0, 1.0, 0.001)
    m = harness.compute_metrics(synthetic_trace(t, np.full_like(t, 0.2)), cfg)
    assert m.steady_state_error_pct == math.inf


# ---------------------------------------------------------------- write_trace

def test_trace_header_is_exact(tmp_path):
    _, trace, _ = run_text("duration = 0.01")
    path = tmp_path / "trace.csv"
    harness.write_trace(trace, path)
    first = path.read_bytes().split(b"\n", 1)[0]
    assert first == b"t,x1,x2,xd,e,e_filt,u,u_applied,f_hat,g_hat,V,drop_sensor,drop_actuator"


def test_trace_row_count(tmp_path):
    _, trace, _ = run_text("duration = 0.003")
    path = tmp_path / "trace.csv"
    harness.write_trace(trace, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3


def test_trace_round_trip_within_print_precision(tmp_path):
    _, trace, _ = run_text("duration = 0.5\nactuator_channel.drop_prob = 0.2")
    path = tmp_path / "trace.csv"
    harness.write_trace(trace, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.allclose(data["x1"], trace.x1, rtol=1e-8, atol=1e-300)
    assert np.allclose(data["u"], trace.u, rtol=1e-8, atol=1e-300)
    assert np.array_equal(data["drop_actuator"].astype(bool), trace.drop_actuator)
    assert np.array_equal(data["drop_sensor"].astype(bool), trace.drop_sensor)


def test_metrics_from_csv_match_in_memory(tmp_path):
    cfg, trace, metrics = run_text("duration = 3")
    path = tmp_path / "trace.csv"
    harness.write_trace(trace, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    n_tail = max(1, int(round(harness.STEADY_STATE_FRACTION * data["e"].size)))
    pct = 100.0 * np.max(np.abs(data["e"][-n_tail:])) / cfg.reference.amplitude
    assert pct == pytest.approx(metrics.steady_state_error_pct, rel=1e-8)


def test_write_metrics_format(tmp_path):
    path = tmp_path / "metrics.txt"
    harness.write_metrics(harness.Metrics(rmse=0.25, steady_state_error_pct=3.0,
                                          max_abs_u=1.5, diverged=False), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("rmse = 2.5")
    assert lines[-1] == "diverged = false"
    parsed = dict(line.split(" = ") for line in lines)
    assert float(parsed["steady_state_error_pct"]) == 3.0


# ------------------------------------------------------------------------ CLI

def test_cli_writes_outputs_and_returns_zero(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["--out", str(out), "--duration", "0.5", "--quiet"])
    assert code == 0
    for name in ("trace.csv", "metrics.txt", "theta_f.txt", "theta_g.txt"):
        assert (out / name).exists()
    assert "diverged = false" in (out / "metrics.txt").read_text()


def test_cli_config_file_and_seed_override(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("duration = 0.2\nreference.amplitude = 0\ndisturbance.d0 = 0\n")
    out = tmp_path / "run"
    code = cli.main(["--config", str(cfg_file), "--out", str(out),
                     "--seed", "77", "--quiet"])
    assert code == 0
    text = (out / "metrics.txt").read_text()
    assert "rmse = 0.000000000e+00" in text


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("controller.zeta = 1\n")
    code = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "controller.zeta" in capsys.readouterr().err


def test_cli_missing_config_file_is_an_error(tmp_path):
    code = cli.main(["--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert code == 1


def test_cli_divergence_exit_code(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("disturbance.d0 = 1e160\nduration = 1\n")
    out = tmp_path / "run"
    code = cli.main(["--config", str(cfg_file), "--out", str(out), "--quiet"])
    assert code == 2
    assert "diverged = true" in (out / "metrics.txt").read_text()


def test_cli_non_finite_control_aborts_before_it_is_recorded(tmp_path, capsys):
    # a valid P near 1e308 drives f_hat to inf and then u to NaN
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("controller.q_diag = 1e308, 1e154\n")
    out = tmp_path / "run"
    code = cli.main(["--config", str(cfg_file), "--out", str(out)])
    assert code == 2
    assert "abort_reason = non-finite control" in capsys.readouterr().out
    metrics = dict(line.split(" = ") for line in
                   (out / "metrics.txt").read_text().splitlines())
    assert metrics["diverged"] == "true"
    assert math.isfinite(float(metrics["max_abs_u"]))


# no preset drops sensor packets, so pin a run that does
LOSSY_CONFIG = "sensor_channel.delay = 0.01\nsensor_channel.drop_prob = 0.3\nduration = 5\n"
LOSSY_ARGV = ["--preset", "networked", "--seed", "2024", "--quiet"]
LOSSY_SHA256 = "55a77d8751ed26bd93a4f0e43f23b7b374a8c86cf7b5099d1ce4e5b0df48d0ed"


def test_cli_lossy_sensor_golden_trace(tmp_path):
    cfg_file = tmp_path / "lossy.cfg"
    cfg_file.write_text(LOSSY_CONFIG)
    out = tmp_path / "run"
    code = cli.main(LOSSY_ARGV + ["--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    payload = (out / "trace.csv").read_bytes()
    data = np.genfromtxt(out / "trace.csv", delimiter=",", names=True)
    assert int(data["drop_sensor"].sum()) == 1432
    assert int(data["drop_actuator"].sum()) == 469
    assert hashlib.sha256(payload).hexdigest() == LOSSY_SHA256


def child_env(**env):
    """The environment of a child interpreter that imports this checkout's afcsim."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **env)


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
], ids=["openblas-haswell", "numpy-simd-off"])
def test_lossy_sensor_golden_trace_under_other_kernels(tmp_path, env):
    # the trace bytes must not depend on the BLAS kernel or numpy's SIMD loops
    cfg_file = tmp_path / "lossy.cfg"
    cfg_file.write_text(LOSSY_CONFIG)
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "afcsim", *LOSSY_ARGV, "--config", str(cfg_file),
         "--out", str(out)], env=child_env(**env), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == LOSSY_SHA256


def test_import_loads_the_submodules_and_numpy_only():
    # import afcsim binds seven submodules (not cli) and needs no package but numpy
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import afcsim\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    submodules = {f"afcsim.{name}" for name in
                  ("afhc", "config", "fuzzy", "harness", "lti", "netchan", "plant")}
    assert submodules <= loaded
    assert "afcsim.cli" not in loaded
    top_level = {name.partition(".")[0] for name in loaded}
    assert top_level - set(sys.stdlib_module_names) == {"afcsim", "numpy"}


def test_cli_preset_networked(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["--preset", "networked", "--out", str(out),
                     "--duration", "0.5", "--quiet"])
    assert code == 0
