import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from afcsim import cli, config, fuzzy, harness


def run_text(text=""):
    cfg = config.parse_config(text)
    trace, metrics = harness.run_experiment(cfg)
    return cfg, trace, metrics


def synthetic_trace(t, e, u=None, abort_reason=None, u_applied=None):
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    z = np.zeros_like(t)
    u = z if u is None else np.asarray(u, dtype=float)
    u_applied = u if u_applied is None else np.asarray(u_applied, dtype=float)
    columns = dict.fromkeys(harness.TRACE_COLUMNS, z) | dict(
        t=t, x1=-e, e=e, e_filt=e, u=u, u_applied=u_applied, g_hat=z + 1.0)
    rows = np.stack([columns[name] for name in harness.TRACE_COLUMNS], axis=1)
    return harness.SimulationTrace(rows, abort_reason=abort_reason)


# -------------------------------------------------------------- run_experiment

def test_trace_float_columns_are_views_of_one_row_per_step_array():
    _, trace, _ = run_text("duration = 0.05\nactuator_channel.drop_prob = 0.2")
    assert trace.rows.shape == (len(trace), len(harness.TRACE_COLUMNS)) == (50, 13)
    for i, name in enumerate(harness.TRACE_COLUMNS):
        column = getattr(trace, name)
        assert column.base is trace.rows.base
        assert np.array_equal(column, trace.rows[:, i])
    # the drop flags are the rows' floats, as trace.csv prints them
    assert set(trace.drop_actuator.tolist()) == {0.0, 1.0}
    with pytest.raises(AttributeError):
        trace.V


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


def test_ideal_model_decrement_matches_quadratic_rate():
    # with a huge r the auxiliary term vanishes and dV/dt ~ -E^T Q E up to
    # sampling (zero-order hold) error
    amp = math.pi / 30.0
    cfg, trace, _ = run_text(
        f"ideal_model = true\ndisturbance.d0 = 0\nplant.x0 = -0.1, {amp}\n"
        "controller.r = 1e9\nduration = 6")
    # reference P: entries (0, 0), (0, 1) and (1, 1) of A_c'P + P A_c = -Q in
    # the unknowns (p00, p01, p11), with A_c = [[0, 1], [-k1, -k2]]
    (k1, k2), q = cfg.controller.k, np.diag(cfg.controller.q_diag)
    p00, p01, p11 = np.linalg.solve([[0.0, -2 * k1, 0.0], [1.0, -k2, -k1], [0.0, 2.0, -2 * k2]],
                                    [-q[0, 0], 0.0, -q[1, 1]])
    p = np.array([[p00, p01], [p01, p11]])
    xd_dot = cfg.reference.amplitude * np.cos(trace.t)
    e_vecs = np.stack([trace.e_filt, xd_dot - trace.x2], axis=1)
    v = np.einsum("ij,jk,ik->i", e_vecs, p, e_vecs)
    assert np.max(np.abs(v - trace.v)) < 1e-12
    dv = np.diff(trace.v) / cfg.dt
    w = np.einsum("ij,jk,ik->i", e_vecs, q, e_vecs)
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


@pytest.mark.parametrize("ideal, calls_per_step", [("true", 0), ("false", 1)])
def test_regressor_is_evaluated_only_when_the_law_uses_it(monkeypatch, ideal, calls_per_step):
    # ideal_model mode takes f and g from the plant, so it needs no regressor
    calls = []
    regressor = fuzzy.MembershipGrid.regressor

    def counted(grid, x):
        calls.append(x)
        return regressor(grid, x)

    monkeypatch.setattr(fuzzy.MembershipGrid, "regressor", counted)
    _, trace, _ = run_text(f"ideal_model = {ideal}\nduration = 0.05")
    assert len(trace) == 50
    assert len(calls) == calls_per_step * len(trace)


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


def test_metrics_max_abs_u_reads_the_commanded_control():
    # the actuator channel delays or holds the command; the metric is the controller's
    cfg = config.parse_config("")
    t = np.arange(0, 1.0, 0.001)
    m = harness.compute_metrics(synthetic_trace(
        t, np.zeros_like(t), u=np.full_like(t, -2.0), u_applied=np.full_like(t, 7.0)), cfg)
    assert m.max_abs_u == 2.0


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


def test_metrics_finite_for_finite_errors_near_overflow():
    # every e is finite, but e ** 2 and 100 * e overflow
    _, trace, m = run_text("duration = 0.05\nreference.amplitude = 1e308")
    assert np.all(np.isfinite(trace.e))
    assert math.isfinite(m.rmse) and m.rmse > 1e306
    assert math.isfinite(m.steady_state_error_pct)


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


def test_trace_formatting_memory_is_bounded_by_the_block(tmp_path):
    # 30,000 rows, the nominal horizon; formatting in blocks keeps the Python
    # floats and row strings of one block alive, about 0.2 MB at 256 rows
    t = np.arange(30_000) * 1e-3
    trace = synthetic_trace(t, np.sin(t) * 0.01, u=np.cos(t))
    tracemalloc.start()
    try:
        harness.write_trace(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_trace_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    n = 3 * harness.TRACE_BLOCK_ROWS + 17
    _, trace, _ = run_text(f"duration = {n / 1000}\nactuator_channel.drop_prob = 0.2")
    assert len(trace) == n and trace.drop_actuator.any()
    harness.write_trace(trace, tmp_path / "blocks.csv")
    monkeypatch.setattr(harness, "TRACE_BLOCK_ROWS", n)
    harness.write_trace(trace, tmp_path / "whole.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


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


def test_cli_ideal_model_flag_words(tmp_path, capsys):
    for word in ("off", "no"):
        assert config.parse_config(f"ideal_model = {word}").ideal_model is False
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("duration = 1\nideal_model = maybe\n")
    code = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {cfg_file} line 2: malformed value for 'ideal_model': "
        "expected a boolean, got 'maybe'\n")


def test_cli_missing_config_file_is_an_error(tmp_path):
    code = cli.main(["--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert code == 1


def test_cli_unwritable_trace_is_an_error(tmp_path, capsys):
    out = tmp_path / "run"
    (out / "trace.csv").mkdir(parents=True)
    code = cli.main(["--out", str(out), "--duration", "0.01", "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "trace.csv") in err
    assert "Traceback" not in err


def test_cli_divergence_exit_code(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("disturbance.d0 = 1e160\nduration = 1\n")
    out = tmp_path / "run"
    code = cli.main(["--config", str(cfg_file), "--out", str(out), "--quiet"])
    assert code == 2
    assert "diverged = true" in (out / "metrics.txt").read_text()
    # the CSV stops where the run stopped: 2 of the 1000 configured steps
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (2, len(harness.TRACE_COLUMNS))
    assert rows[-1, 0] == 1e-3


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


def test_cli_overflowing_stage_state_diverges(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("plant.pole_mass = 1e-300\nplant.half_length = 1e-300\n"
                        "plant.x0 = 1.7976931348623e308, 1e306\nideal_model = true\n")
    out = tmp_path / "run"
    code = cli.main(["--config", str(cfg_file), "--duration", "0.002", "--out", str(out)])
    assert code == 2
    assert "abort_reason = dynamics overflow: non-finite state" in capsys.readouterr().out
    assert "diverged = true" in (out / "metrics.txt").read_text()


def test_cli_config_file_not_utf8_is_an_error(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_bytes(b"duration = 1\n\xff\xfe\n")
    code = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg_file} line 2: not UTF-8 (invalid start byte)\n"


def test_cli_config_file_with_byte_order_mark_runs(tmp_path):
    cfg_file = tmp_path / "bom.cfg"
    cfg_file.write_bytes(b"\xef\xbb\xbfduration = 0.01\n")
    out = tmp_path / "run"
    assert cli.main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 10


def test_cli_config_file_with_byte_order_mark_reports_the_line(tmp_path, capsys):
    cfg_file = tmp_path / "bom.cfg"
    cfg_file.write_bytes(b"\xef\xbb\xbfduration = 1\n\xff\xfe\n")
    code = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg_file} line 2: not UTF-8 (invalid start byte)\n"


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


# SHA-256 of metrics.txt for each preset at --seed 2024, beside criterion 9's
# trace digests; the trace does not pin how the metrics are taken from it
GOLDEN_METRICS_SHA256 = {
    "nominal": "8959f9124a07d7a74f3d7b662803de32b8a099c25c8a1b04f2470cd82e18c4cb",
    "networked": "c18836f4c31aa22f17d7bf53510be5fb9e24827ea47a6eae5996a5e26204d28f",
    "stress": "e28decae1b1ea3fd51d4df8ece67c42c34c6409d33e5f60ccca4ae5c3eb5b8af",
}


@pytest.mark.parametrize("preset", sorted(config.PRESETS))
def test_cli_metrics_file_golden(tmp_path, preset):
    out = tmp_path / "run"
    assert cli.main(["--preset", preset, "--out", str(out), "--seed", "2024", "--quiet"]) == 0
    digest = hashlib.sha256((out / "metrics.txt").read_bytes()).hexdigest()
    assert digest == GOLDEN_METRICS_SHA256[preset]


# theta files print the grid layout (centers, widths) and the adapted parameters
THETA_ARGV = ["--preset", "networked", "--seed", "2024", "--duration", "5", "--quiet"]
THETA_SHA256 = {
    "theta_f.txt": "7d5f99efb601fc0fbf866de1ef33422a00678ae175a772f18f5c29812bb2974f",
    "theta_g.txt": "583f6b5b95860e7786e9a58604fd91ec87d1393ce9779e796e051c0820008467",
}


def test_cli_theta_files_golden(tmp_path):
    out = tmp_path / "run"
    assert cli.main(THETA_ARGV + ["--out", str(out)]) == 0
    for name, digest in THETA_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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


def test_lossless_run_does_not_load_numpy_random(tmp_path):
    # nominal has no loss, so neither channel builds a generator
    probe = ("import sys\n"
             "import numpy\n"
             "print('numpy.random' in sys.modules)\n"
             "from afcsim import cli\n"
             "code = cli.main(['--preset', 'nominal', '--duration', '0.1', '--quiet',\n"
             "                 '--out', sys.argv[1]])\n"
             "print(code, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "run")],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bare, after_run = proc.stdout.splitlines()
    if bare == "True":
        pytest.skip("a bare import numpy already loads numpy.random (numpy 1.x)")
    assert after_run == "0 False"


def test_cli_preset_networked(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["--preset", "networked", "--out", str(out),
                     "--duration", "0.5", "--quiet"])
    assert code == 0


def test_run_presets_failed_run_shows_no_stale_metrics(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_presets.py"

    def run_presets(duration):
        return subprocess.run(
            [sys.executable, str(script), "--out", str(tmp_path), "--duration", duration],
            env=child_env(), capture_output=True, text=True, timeout=120)

    valid = run_presets("0.05")
    assert valid.returncode == 0, valid.stderr
    assert valid.stdout.count("rmse = ") == len(config.PRESETS)
    # a horizon under half a step is a ConfigError for every preset, while the
    # valid run's metrics.txt files are still in place
    invalid = run_presets("0.0001")
    assert invalid.returncode == 1
    assert "Traceback" not in invalid.stderr
    assert invalid.stderr.count("error: ") == len(config.PRESETS)
    assert "rmse" not in invalid.stdout
    assert all((tmp_path / preset / "metrics.txt").exists() for preset in config.PRESETS)


def test_certificate_demo_prints_three_stable_loops_and_one_unstable():
    script = Path(__file__).resolve().parents[1] / "scripts" / "certificate_demo.py"
    proc = subprocess.run([sys.executable, str(script)], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the gentle lead fails to stabilize the shaped plant
    assert proc.stdout.count(" stable  norm=") == 3
    assert proc.stdout.count("UNSTABLE") == 1


def test_plot_trace_saves_a_figure_or_asks_for_matplotlib(tmp_path):
    assert cli.main(["--out", str(tmp_path), "--duration", "0.05", "--quiet"]) == 0
    script = Path(__file__).resolve().parents[1] / "scripts" / "plot_trace.py"
    png = tmp_path / "out.png"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path / "trace.csv"),
                           "--save", str(png)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr
    if importlib.util.find_spec("matplotlib") is None:
        assert proc.returncode == 1
        assert "pip install matplotlib" in proc.stderr
        assert not png.exists()
    else:
        assert proc.returncode == 0, proc.stderr
        assert png.stat().st_size > 0


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer, workloads
from afcsim import cli
spans = tracer.Tracer()
spans.install()
code = cli.main(["--preset", "networked", "--seed", "2024", "--duration", "0.05",
                 "--out", sys.argv[2], "--quiet"])
workloads.build("hinf", workloads.draw("hinf", 0, quick=True))
print(json.dumps([code, tracer.layer_metrics(spans.summary(), spans.counts, 1)]))
"""


def test_traced_benchmark_reaches_every_layer(tmp_path):
    # bench/tracer.py wraps afcsim functions by name, for the rest of its
    # process; a renamed layer would read absent in the benchmark
    bench = Path(__file__).resolve().parents[1] / "bench"
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(bench), str(tmp_path)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, metrics = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    for name in ("plant.rk4_step.self_us", "fuzzy.regressor.self_us", "afhc.adapt_step.self_us",
                 "afhc.control_law.self_us", "netchan.push.self_us", "harness.write_trace.s"):
        assert metrics[name] is not None, name
