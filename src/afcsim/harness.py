"""Closed-loop simulation of plant + network channels + adaptive controller,
with metrics and CSV trace output.

Per-step loop order: sense (through the sensor channel) -> build the
reference and error vector -> filter the error -> evaluate the fuzzy
estimates -> control law -> push the command through the actuator channel
-> integrate the plant with the delivered input -> adapt. Each step is
recorded as one row of a single float array, in TRACE_HEADER's column order;
that array is the trace. Runs are fully deterministic for a fixed
configuration, including the channel seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
# the header's names as SimulationTrace attributes: V is trace.v
TRACE_COLUMNS = tuple(TRACE_HEADER.lower().split(","))

# Fraction of the horizon treated as steady state for the error metric.
STEADY_STATE_FRACTION = 0.2

TRACE_BLOCK_ROWS = 256


@dataclass(eq=False)
class SimulationTrace:
    """Per-step record of one run, plus the final adapted parameters.

    rows holds one float row per step, in TRACE_HEADER's column order; t is
    uniformly spaced by dt and the drop flags read 0.0 or 1.0. trace.<name>
    is the column of rows for each name in TRACE_COLUMNS, as a view. When a
    run aborts (non-finite dynamics, a singular or a non-finite control), the
    rows end at the failing step and abort_reason says why.
    """

    rows: np.ndarray
    abort_reason: str | None = None
    theta_f: np.ndarray | None = None
    theta_g: np.ndarray | None = None
    grid: fuzzy.MembershipGrid | None = None

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise AttributeError(f"'SimulationTrace' object has no attribute {name!r}")
        return self.rows[:, TRACE_COLUMNS.index(name)]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Metrics:
    rmse: float
    steady_state_error_pct: float
    max_abs_u: float
    diverged: bool


def reference_derivatives(amplitude: float, frequency: float, t: float) -> tuple:
    """Reference A sin(w t) and its first two derivatives, each written as
    A w^k sin(w t + k pi / 2)."""
    wt = frequency * t
    # + 0.0 keeps the phase of k = 0 a +0.0 where w t is -0.0
    return (amplitude * math.sin(wt + 0.0),
            amplitude * frequency * math.sin(wt + math.pi / 2.0),
            amplitude * frequency ** 2 * math.sin(wt + math.pi))


def run_experiment(cfg: ExperimentConfig) -> tuple:
    """Simulate the configured loop; returns (SimulationTrace, Metrics).

    The state travels to the controller as one sensor packet per step, so a
    drop stalls the whole measurement. In ideal_model mode the control law
    uses the true plant f and g and adaptation is frozen (diagnostic
    configuration for checking the Lyapunov decrement).
    """
    dyn = plant.pendulum(cfg.plant, d0=cfg.disturbance.d0, omega_d=cfg.disturbance.omega)
    grid = cfg.fuzzy
    theta = np.empty((2, grid.rule_count))  # rows theta_f and theta_g
    theta[0] = 0.0
    theta[1] = cfg.theta_g_init
    approx_f, approx_g = (fuzzy.FuzzyApproximator(grid, row) for row in theta)
    (p00, p01), (p10, p11) = cfg.controller.p

    sensor = netchan.Channel(cfg.sensor_channel)
    actuator = netchan.Channel(cfg.actuator_channel)
    rows = np.empty((cfg.n_steps, len(TRACE_COLUMNS)))

    x = cfg.x0
    alpha = cfg.controller.filter_alpha
    e_filtered = None
    abort_reason = None
    steps_done = 0

    for i in range(cfg.n_steps):
        t = i * cfg.dt

        drop_sense = sensor.push(x)
        x_meas = sensor.output()

        ref = reference_derivatives(cfg.reference.amplitude, cfg.reference.frequency, t)
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
            drop_act = actuator.push(u)
            u_applied = actuator.output()
            rows[i] = (t, x[0], x[1], ref[0], ref[0] - x[0], e0, u, u_applied, f_hat, g_hat,
                       e0 * (p00 * e0 + p01 * e1) + e1 * (p10 * e0 + p11 * e1),
                       drop_sense, drop_act)
            steps_done = i + 1
            x = plant.rk4_step(dyn, x, u_applied, t, cfg.dt)
        except (afhc.SingularControlError, plant.DynamicsOverflowError) as exc:
            abort_reason = str(exc)
            break

        if not cfg.ideal_model:
            afhc.adapt_step(approx_f, approx_g, xi, e_filtered, u, cfg.controller, cfg.dt)

    if steps_done == 0:
        raise RuntimeError(f"run aborted before completing one step: {abort_reason}")
    theta_f, theta_g = theta.copy()
    trace = SimulationTrace(rows[:steps_done], abort_reason, theta_f, theta_g, grid)
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
    # e / s for a power of two s <= max|e| is exact, and its square cannot
    # overflow; 2 ** (exponent - 1) itself stays finite for every float
    s = math.ldexp(1.0, math.frexp(float(np.max(np.abs(trace.e))))[1] - 1)
    rmse = float(np.sqrt(np.mean((trace.e / s) ** 2))) * s
    max_abs_u = float(np.max(np.abs(trace.u)))
    if diverged:
        pct = math.inf
    else:
        n_tail = max(1, int(round(STEADY_STATE_FRACTION * len(trace))))
        tail_peak = float(np.max(np.abs(trace.e[-n_tail:])))
        if cfg.reference.amplitude > 0:
            pct = 100.0 * (tail_peak / cfg.reference.amplitude)
        else:
            pct = 0.0 if tail_peak == 0.0 else math.inf
    return Metrics(rmse=rmse, steady_state_error_pct=pct,
                   max_abs_u=max_abs_u, diverged=diverged)


def write_trace(trace: SimulationTrace, path) -> None:
    """Write trace.rows as CSV under TRACE_HEADER, with 0/1 drop flags.

    Values are formatted in scientific notation with 10 significant digits.
    Rows are formatted and written in blocks of TRACE_BLOCK_ROWS, so the
    Python floats and row strings alive at once are bounded by one block
    (about 0.2 MB), not by the trace length; the bytes do not depend on the
    block size.
    """
    row = ",".join(["%d" if name.startswith("drop_") else "%.9e"
                    for name in TRACE_COLUMNS]) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRACE_HEADER + "\n")
            for start in range(0, len(trace), TRACE_BLOCK_ROWS):
                block = trace.rows[start:start + TRACE_BLOCK_ROWS].tolist()
                fh.write("".join([row % tuple(values) for values in block]))
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
