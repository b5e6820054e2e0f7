"""Closed-loop simulation of plant + network channels + adaptive controller,
with metrics and CSV trace output.

Per-step loop order: sense (through the sensor channel) -> build the
reference and error vector -> filter the error -> evaluate the fuzzy
estimates -> control law -> push the command through the actuator channel
-> integrate the plant with the delivered input -> adapt. Runs are fully
deterministic for a fixed configuration, including the channel seeds.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import afhc, fuzzy, netchan, plant
from .config import ExperimentConfig

__all__ = [
    "TRACE_HEADER",
    "SimulationTrace",
    "Metrics",
    "reference_derivatives",
    "run_experiment",
    "compute_metrics",
    "write_trace",
    "write_metrics",
]

TRACE_HEADER = "t,x1,x2,xd,e,e_filt,u,u_applied,f_hat,g_hat,V,drop_sensor,drop_actuator"

# Fraction of the horizon treated as steady state for the error metric.
STEADY_STATE_FRACTION = 0.2

TRACE_BLOCK_ROWS = 4096


@dataclass(eq=False)
class SimulationTrace:
    """Per-step record of one run, plus the final adapted parameters.

    All columns share the same length; t is uniformly spaced by dt. When a
    run aborts (non-finite dynamics, a singular or a non-finite control),
    the arrays are truncated at the failing step and abort_reason says why.
    """

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    xd: np.ndarray
    e: np.ndarray
    e_filt: np.ndarray
    u: np.ndarray
    u_applied: np.ndarray
    f_hat: np.ndarray
    g_hat: np.ndarray
    v: np.ndarray
    drop_sensor: np.ndarray
    drop_actuator: np.ndarray
    abort_reason: str | None = None
    theta_f: np.ndarray | None = None
    theta_g: np.ndarray | None = None
    grid: fuzzy.MembershipGrid | None = None

    def __len__(self) -> int:
        return self.t.size


# The per-step columns are the fields without a default, in TRACE_HEADER's order.
TRACE_COLUMNS = tuple(f.name for f in fields(SimulationTrace) if f.default is MISSING)


@dataclass(frozen=True)
class Metrics:
    rmse: float
    steady_state_error_pct: float
    max_abs_u: float
    diverged: bool


def reference_derivatives(amplitude: float, frequency: float, t: float,
                          n: int) -> tuple:
    """Reference A sin(w t) and its first n derivatives, a tuple of n + 1."""
    return tuple([amplitude * (frequency ** k) * math.sin(frequency * t + k * (math.pi / 2.0))
                  for k in range(n + 1)])


def run_experiment(cfg: ExperimentConfig) -> tuple:
    """Simulate the configured loop; returns (SimulationTrace, Metrics).

    The state travels to the controller as one sensor packet per step, so a
    drop stalls the whole measurement. In ideal_model mode the control law
    uses the true plant f and g and adaptation is frozen (diagnostic
    configuration for checking the Lyapunov decrement).
    """
    n_steps = cfg.n_steps
    dyn = plant.pendulum(cfg.plant, d0=cfg.disturbance.d0, omega_d=cfg.disturbance.omega)
    grid = cfg.fuzzy
    approx_f, approx_g = fuzzy.paired(grid, 0.0, cfg.theta_g_init)
    theta = approx_f.theta.base             # rows theta_f and theta_g
    (p00, p01), (p10, p11) = cfg.controller.p

    sensor = netchan.Channel(cfg.sensor_channel)
    actuator = netchan.Channel(cfg.actuator_channel)

    cols = {name: np.empty(n_steps, dtype=bool if name.startswith("drop_") else float)
            for name in TRACE_COLUMNS}

    x = tuple(cfg.x0.tolist())
    alpha = cfg.controller.filter_alpha
    e_filtered = None
    abort_reason = None
    steps_done = 0

    for i in range(n_steps):
        t = i * cfg.dt

        drop_sense = sensor.push(x)
        x_meas = sensor.output()

        ref = reference_derivatives(cfg.reference.amplitude, cfg.reference.frequency, t, 2)
        e_raw = tuple([r - m for r, m in zip(ref, x_meas)])
        e_filtered = e_raw if e_filtered is None else afhc.filter_error(
            e_filtered, e_raw, alpha)
        e0, e1 = e_filtered

        xi = grid.regressor(x_meas)
        if cfg.ideal_model:
            f_hat, g_hat = dyn.fg(x_meas)
        else:
            f_hat, g_hat = np.add.reduce(theta * xi, axis=1).tolist()

        try:
            u = afhc.control_law(cfg.controller, f_hat, g_hat, e_filtered, ref[2])
        except afhc.SingularControlError as exc:
            abort_reason = str(exc)
            break
        if not math.isfinite(u):
            abort_reason = f"non-finite control: u = {u} (f_hat = {f_hat}, g_hat = {g_hat})"
            break

        drop_act = actuator.push(u)
        u_applied = actuator.output()

        cols["t"][i] = t
        cols["x1"][i] = x[0]
        cols["x2"][i] = x[1]
        cols["xd"][i] = ref[0]
        cols["e"][i] = ref[0] - x[0]
        cols["e_filt"][i] = e0
        cols["u"][i] = u
        cols["u_applied"][i] = u_applied
        cols["f_hat"][i] = f_hat
        cols["g_hat"][i] = g_hat
        cols["v"][i] = e0 * (p00 * e0 + p01 * e1) + e1 * (p10 * e0 + p11 * e1)
        cols["drop_sensor"][i] = drop_sense
        cols["drop_actuator"][i] = drop_act
        steps_done = i + 1

        try:
            x = plant.rk4_step(dyn, x, u_applied, t, cfg.dt)
        except plant.DynamicsOverflowError as exc:
            abort_reason = str(exc)
            break

        if not cfg.ideal_model:
            afhc.adapt_step(approx_f, approx_g, xi, e_filtered, u, cfg.controller, cfg.dt)

    if steps_done == 0:
        raise RuntimeError(f"run aborted before completing one step: {abort_reason}")
    trace = SimulationTrace(
        **{name: col[:steps_done] for name, col in cols.items()},
        abort_reason=abort_reason,
        theta_f=approx_f.theta.copy(),
        theta_g=approx_g.theta.copy(),
        grid=grid,
    )
    return trace, compute_metrics(trace, cfg)


def compute_metrics(trace: SimulationTrace, cfg: ExperimentConfig) -> Metrics:
    """Tracking metrics over a trace.

    steady_state_error_pct is the peak |e| over the final fifth of the
    horizon as a percentage of the reference amplitude; a diverged run
    reports it as unbounded.
    """
    if len(trace) == 0:
        raise ValueError("cannot compute metrics for an empty trace")
    diverged = trace.abort_reason is not None
    rmse = float(np.sqrt(np.mean(trace.e ** 2)))
    max_abs_u = float(np.max(np.abs(trace.u)))
    if diverged:
        pct = math.inf
    else:
        n_tail = max(1, int(round(STEADY_STATE_FRACTION * len(trace))))
        tail_peak = float(np.max(np.abs(trace.e[-n_tail:])))
        if cfg.reference.amplitude > 0:
            pct = 100.0 * tail_peak / cfg.reference.amplitude
        else:
            pct = 0.0 if tail_peak == 0.0 else math.inf
    return Metrics(rmse=rmse, steady_state_error_pct=pct,
                   max_abs_u=max_abs_u, diverged=diverged)


def write_trace(trace: SimulationTrace, path) -> None:
    """Write the trace as CSV with a fixed header and 0/1 drop flags.

    Values are formatted in scientific notation with 10 significant digits.
    Rows are formatted in blocks of TRACE_BLOCK_ROWS, so the Python objects
    alive at once do not grow with the trace length.
    """
    columns = [getattr(trace, name) for name in TRACE_COLUMNS]
    row = ",".join(["%d" if name.startswith("drop_") else "%.9e"
                    for name in TRACE_COLUMNS]) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRACE_HEADER + "\n")
            for start in range(0, len(trace), TRACE_BLOCK_ROWS):
                block = [c[start:start + TRACE_BLOCK_ROWS].tolist() for c in columns]
                fh.write("".join([row % values for values in zip(*block)]))
    except OSError as exc:
        raise OSError(f"failed to write trace to {path}: {exc}") from exc


def write_metrics(metrics: Metrics, path) -> None:
    """Write metrics as one 'key = value' line each."""
    lines = [
        f"rmse = {metrics.rmse:.9e}",
        f"steady_state_error_pct = {metrics.steady_state_error_pct:.9e}",
        f"max_abs_u = {metrics.max_abs_u:.9e}",
        f"diverged = {'true' if metrics.diverged else 'false'}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
