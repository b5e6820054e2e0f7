"""Experiment configuration: flat ``key = value`` text with ``#`` comments.

Every key is optional; omitted keys take the defaults below, which together
form the "nominal" preset. Later assignments of the same key win, which is
how presets and command-line overrides compose.

Schema (defaults in parentheses):

    duration (30.0)                 simulation horizon, s
    dt (0.001)                      integrator step, s
    seed (12345)                    master seed; channels derive seed+1, seed+2
    ideal_model (false)             use the true plant f, g in the control law
                                    and freeze adaptation (diagnostic mode)
    reference.amplitude (0.10471975511965977 = pi/30)   sine amplitude, rad
    reference.frequency (1.0)       sine frequency, rad/s
    plant.cart_mass (1.0)           kg
    plant.pole_mass (0.1)           kg
    plant.half_length (0.5)         m
    plant.gravity (9.8)             m/s^2
    plant.x0 (0, 0)                 initial state (angle rad, rate rad/s)
    disturbance.d0 (0.1)            disturbance amplitude
    disturbance.omega (2.0)         disturbance frequency, rad/s
    sensor_channel.delay (0.0)      s, a whole number of steps of dt
    sensor_channel.drop_prob (0.0)  in [0, 1)
    sensor_channel.seed (seed + 1)
    actuator_channel.delay (0.0)    s, as sensor_channel.delay
    actuator_channel.drop_prob (0.0)
    actuator_channel.seed (seed + 2)
    controller.k (1, 2)             feedback gains, companion form must be Hurwitz
    controller.q_diag (1, 1)        diagonal of the Lyapunov weight Q
    controller.r (0.1)              auxiliary-term weight
    controller.gamma_f (50.0)       adaptation rate for theta_f
    controller.gamma_g (50.0)       adaptation rate for theta_g
    controller.g_min (0.1)          floor kept under the g estimate
    controller.u_max (180.0)        saturation, N
    controller.filter_alpha (auto)  error filter coefficient in (0, 1];
                                    auto = 0.2 if any channel delay > 0 else 1.0
    fuzzy.lo (-pi/6, -1)            grid box lower corner
    fuzzy.hi (pi/6, 1)              grid box upper corner
    fuzzy.counts (5, 5)             memberships per dimension; at most
                                    MAX_RULES rules in all
    fuzzy.width_scale (1.0)         width = scale * center spacing
    fuzzy.theta_g_init (1.0)        initial theta_g entries (finite, >= g_min)

build_config also builds what the run derives from these keys: the fuzzy
MembershipGrid (cfg.fuzzy) and the controller's Lyapunov matrix P
(cfg.controller.p). The fuzzy.lo/hi/counts/width_scale keys are validated
by the grid's constructors, the controller keys by ControllerConfig and
afhc.solve_lyapunov, the plant parameters by PendulumParams; a ValueError
from any of them becomes a ConfigError naming the key and its line. config
itself checks only what no constructor owns: list lengths, the step and
rule budgets, the reference and disturbance bounds, the channel delays as
whole steps of dt and g_min <= theta_g_init < inf.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .afhc import ControllerConfig
from .fuzzy import MembershipGrid, grid_over_box
from .netchan import ChannelConfig
from .plant import PendulumParams

__all__ = [
    "ConfigError",
    "ReferenceConfig",
    "DisturbanceConfig",
    "ExperimentConfig",
    "parse_config",
    "build_config",
    "preset_text",
    "PRESETS",
]

MAX_STEPS = 10_000_000
# Largest fuzzy grid (the product of fuzzy.counts). Every control step
# evaluates and adapts every rule, so the bound keeps a typo from allocating
# gigabytes.
MAX_RULES = 1_000_000

PRESETS = {
    "nominal": "",
    "networked": ("actuator_channel.delay = 0.02\n"
                  "actuator_channel.drop_prob = 0.1\n"),
    "stress": ("actuator_channel.delay = 0.05\n"
               "actuator_channel.drop_prob = 0.2\n"),
}


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key and line."""


@dataclass(frozen=True)
class ReferenceConfig:
    amplitude: float
    frequency: float


@dataclass(frozen=True)
class DisturbanceConfig:
    d0: float
    omega: float


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    duration: float
    dt: float
    seed: int
    ideal_model: bool
    reference: ReferenceConfig
    plant: PendulumParams
    x0: np.ndarray
    disturbance: DisturbanceConfig
    sensor_channel: ChannelConfig
    actuator_channel: ChannelConfig
    controller: ControllerConfig
    fuzzy: MembershipGrid
    theta_g_init: float

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float_list(raw: str) -> list:
    return [float(part) for part in raw.split(",")]


def _parse_int_list(raw: str) -> list:
    return [int(part) for part in raw.split(",")]


# key: (parser, default); the defaults form the nominal preset
_KEYS = {
    "duration": (float, 30.0),
    "dt": (float, 0.001),
    "seed": (int, 12345),
    "ideal_model": (_parse_bool, False),
    "reference.amplitude": (float, math.pi / 30.0),
    "reference.frequency": (float, 1.0),
    "plant.cart_mass": (float, 1.0),
    "plant.pole_mass": (float, 0.1),
    "plant.half_length": (float, 0.5),
    "plant.gravity": (float, 9.8),
    "plant.x0": (_parse_float_list, [0.0, 0.0]),
    "disturbance.d0": (float, 0.1),
    "disturbance.omega": (float, 2.0),
    "sensor_channel.delay": (float, 0.0),
    "sensor_channel.drop_prob": (float, 0.0),
    "sensor_channel.seed": (int, None),
    "actuator_channel.delay": (float, 0.0),
    "actuator_channel.drop_prob": (float, 0.0),
    "actuator_channel.seed": (int, None),
    "controller.k": (_parse_float_list, [1.0, 2.0]),
    "controller.q_diag": (_parse_float_list, [1.0, 1.0]),
    "controller.r": (float, 0.1),
    "controller.gamma_f": (float, 50.0),
    "controller.gamma_g": (float, 50.0),
    "controller.g_min": (float, 0.1),
    "controller.u_max": (float, 180.0),
    "controller.filter_alpha": (float, None),
    "fuzzy.lo": (_parse_float_list, [-math.pi / 6.0, -1.0]),
    "fuzzy.hi": (_parse_float_list, [math.pi / 6.0, 1.0]),
    "fuzzy.counts": (_parse_int_list, [5, 5]),
    "fuzzy.width_scale": (float, 1.0),
    "fuzzy.theta_g_init": (float, 1.0),
}


def _read_entries(text: str, source: str, entries: dict) -> None:
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source} line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{source} line {lineno}: unknown key '{key}'")
        try:
            value = _KEYS[key][0](raw)
        except ValueError as exc:
            raise ConfigError(
                f"{source} line {lineno}: malformed value for '{key}': {exc}") from None
        entries[key] = (value, f"{source} line {lineno}")


def _require(condition: bool, key: str, where: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"invalid '{key}' ({where}): {message}")


@contextmanager
def _reported(prefix: str, where: dict, keys: dict | None = None):
    """Re-raise a ValueError from the block as a ConfigError for one key.

    The validators start their messages with the field they reject; the
    key is prefix.field unless keys maps the field to candidate keys, of
    which the first one a source set is named (a derived value such as the
    grid's centers comes from several keys).
    """
    try:
        yield
    except ValueError as exc:
        field = str(exc).split()[0].lower()
        candidates = (keys or {}).get(field, (f"{prefix}.{field}",))
        key = next((k for k in candidates if where[k] != "default"), candidates[0])
        raise ConfigError(f"invalid '{key}' ({where[key]}): {exc}") from None


def check_step_multiple(delay: float, dt: float) -> int:
    """Validate that a channel delay is a finite, nonnegative, exact multiple
    of dt; return the multiple."""
    steps = delay / dt
    if not 0 <= steps < math.inf:
        raise ValueError(f"delay ({delay!r}) must be a finite, nonnegative number of steps")
    k = round(steps)
    if abs(delay - k * dt) > 1e-9 * dt:
        raise ValueError(f"delay ({delay!r}) must be an exact multiple of dt ({dt!r})")
    return k


def _channel_config(values, where, prefix: str, dt: float, master_seed: int,
                    default_seed_offset: int, initial_value) -> ChannelConfig:
    seed = values[f"{prefix}.seed"]
    if seed is None:
        seed = master_seed + default_seed_offset
    # a derived seed is reported under the master seed that a source set
    with _reported(prefix, where, {"seed": (f"{prefix}.seed", "seed")}):
        delay_steps = check_step_multiple(values[f"{prefix}.delay"], dt)
        return ChannelConfig(delay_steps=delay_steps, drop_prob=values[f"{prefix}.drop_prob"],
                             seed=seed, initial_value=initial_value)


def build_config(sources: list) -> ExperimentConfig:
    """Assemble a validated ExperimentConfig from (name, text) pairs.

    Sources are applied in order; later assignments of a key override
    earlier ones.
    """
    entries: dict = {}
    for name, text in sources:
        _read_entries(text, name, entries)
    values = {key: default for key, (_, default) in _KEYS.items()}
    where = dict.fromkeys(_KEYS, "default")
    for key, (value, location) in entries.items():
        values[key] = value
        where[key] = location

    dt = values["dt"]
    duration = values["duration"]
    _require(0 < dt < math.inf, "dt", where["dt"], "must be positive and finite")
    # n_steps rounds duration/dt half to even, so at most half a step gives none
    _require(duration / dt > 0.5, "duration", where["duration"],
             "must cover at least one step of dt")
    _require(duration / dt <= MAX_STEPS, "duration", where["duration"],
             f"duration/dt must not exceed {MAX_STEPS}")
    seed = values["seed"]
    _require(0 <= seed < 2 ** 64, "seed", where["seed"],
             "must be a 64-bit unsigned integer")
    amplitude, frequency = values["reference.amplitude"], values["reference.frequency"]
    for key, value in (("reference.amplitude", amplitude), ("reference.frequency", frequency)):
        _require(0 <= value < math.inf, key, where[key], "must be finite and nonnegative")
    # harness.reference_derivatives computes amplitude * frequency ** k for k <= 2; the
    # product is inf, or NaN for amplitude 0, once frequency ** 2 alone overflows
    _require(amplitude * (frequency * frequency) < math.inf, "reference.frequency",
             where["reference.frequency"], "amplitude * frequency ** 2 overflows")

    with _reported("plant", where):
        params = PendulumParams(cart_mass=values["plant.cart_mass"],
                                pole_mass=values["plant.pole_mass"],
                                half_length=values["plant.half_length"],
                                gravity=values["plant.gravity"])

    _require(math.isfinite(values["disturbance.d0"]), "disturbance.d0",
             where["disturbance.d0"], "must be finite")
    # the plant evaluates sin(omega * t) for t up to duration
    _require(abs(values["disturbance.omega"]) * duration < math.inf, "disturbance.omega",
             where["disturbance.omega"], "omega * duration must be finite")

    x0 = np.asarray(values["plant.x0"], dtype=float)
    _require(x0.size == 2, "plant.x0", where["plant.x0"], "must have exactly 2 entries")
    _require(bool(np.all(np.isfinite(x0))), "plant.x0", where["plant.x0"],
             "entries must be finite")

    alpha = values["controller.filter_alpha"]
    if alpha is None:
        any_delay = values["sensor_channel.delay"] > 0 or values["actuator_channel.delay"] > 0
        alpha = 0.2 if any_delay else 1.0
    # solve_lyapunov reports A_c (from k), Q (from q_diag) and P (from both)
    with _reported("controller", where, {"a_c": ("controller.k",),
                                         "q": ("controller.q_diag",),
                                         "p": ("controller.k", "controller.q_diag")}):
        controller = ControllerConfig(k=values["controller.k"],
                                      q=np.diag(values["controller.q_diag"]),
                                      r=values["controller.r"],
                                      gamma_f=values["controller.gamma_f"],
                                      gamma_g=values["controller.gamma_g"],
                                      g_min=values["controller.g_min"],
                                      u_max=values["controller.u_max"],
                                      filter_alpha=alpha)

    for key in ("fuzzy.lo", "fuzzy.hi", "fuzzy.counts"):
        _require(len(values[key]) == 2, key, where[key],
                 "must have exactly 2 entries for the order-2 benchmark")
    counts = values["fuzzy.counts"]
    _require(math.prod(counts) <= MAX_RULES, "fuzzy.counts", where["fuzzy.counts"],
             f"the rule count (their product) must not exceed {MAX_RULES}")
    # the grid reports its centers and widths, which it derives from all four keys
    with _reported("fuzzy", where, {
            "centers": ("fuzzy.lo", "fuzzy.hi", "fuzzy.counts"),
            "widths": ("fuzzy.width_scale", "fuzzy.lo", "fuzzy.hi")}):
        grid = grid_over_box(values["fuzzy.lo"], values["fuzzy.hi"], counts,
                             values["fuzzy.width_scale"])
    _require(controller.g_min <= values["fuzzy.theta_g_init"] < math.inf, "fuzzy.theta_g_init",
             where["fuzzy.theta_g_init"],
             "must be finite and at least controller.g_min (the control law divides by g_hat)")

    sensor = _channel_config(values, where, "sensor_channel", dt, seed, 1,
                             initial_value=tuple(x0.tolist()))
    actuator = _channel_config(values, where, "actuator_channel", dt, seed, 2,
                               initial_value=0.0)

    return ExperimentConfig(
        duration=duration,
        dt=dt,
        seed=seed,
        ideal_model=values["ideal_model"],
        reference=ReferenceConfig(amplitude=values["reference.amplitude"],
                                  frequency=values["reference.frequency"]),
        plant=params,
        x0=x0,
        disturbance=DisturbanceConfig(d0=values["disturbance.d0"],
                                      omega=values["disturbance.omega"]),
        sensor_channel=sensor,
        actuator_channel=actuator,
        controller=controller,
        fuzzy=grid,
        theta_g_init=values["fuzzy.theta_g_init"],
    )


def parse_config(text: str) -> ExperimentConfig:
    """Parse one configuration document; missing keys take nominal defaults."""
    return build_config([("config", text)])


def preset_text(name: str) -> str:
    """Configuration snippet for a named preset."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset '{name}' (choose from {', '.join(sorted(PRESETS))})") from None
