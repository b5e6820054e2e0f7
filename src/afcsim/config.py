"""Experiment configuration: flat ``key = value`` text with ``#`` comments.

Every key is optional; omitted keys take the defaults in _KEYS, which
together form the "nominal" preset. Later assignments of the same key win,
which is how presets and command-line overrides compose. A plant or
controller default is the one PendulumParams or ControllerConfig declares.

build_config also derives what no key states: the fuzzy MembershipGrid
(cfg.fuzzy), the controller's Lyapunov matrix P (cfg.controller.p), an
unset controller.filter_alpha (0.2 if either channel has a delay, else 1.0)
and the channel seeds (seed + 1 for the sensor, seed + 2 for the actuator).
The fuzzy.lo/hi/counts/width_scale keys are validated by grid_over_box, the
controller keys and P by ControllerConfig, the plant parameters by
PendulumParams and each channel's drop_prob by ChannelConfig. config itself
checks, one _require call per rule, only what no constructor owns: the
master seed's range, list lengths, the step and rule budgets, the reference
and disturbance bounds, the channel delays as finite, nonnegative, whole
steps of dt and g_min <= theta_g_init <= sys.float_info.max / 2. Every
rejection names each key its rule reads that a source set, with that
source's line, or the rule's first key when no source set any.
"""
from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields

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
    x0: tuple
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


def _list_of(element):
    """The parser of a comma-separated list of element values."""
    return lambda raw: [element(part) for part in raw.split(",")]


# key: (parser, default), with its unit or rule; the defaults form the nominal preset
_KEYS = {
    "duration": (float, 30.0),                                          # horizon, s
    "dt": (float, 0.001),                                               # integrator step, s
    "seed": (int, 12345),                                               # master seed
    "ideal_model": (_parse_bool, False),                                # true f, g; no adaptation
    "reference.amplitude": (float, math.pi / 30.0),                     # sine amplitude, rad
    "reference.frequency": (float, 1.0),                                # rad/s
    "plant.cart_mass": (float, PendulumParams.cart_mass),               # kg
    "plant.pole_mass": (float, PendulumParams.pole_mass),               # kg
    "plant.half_length": (float, PendulumParams.half_length),           # m
    "plant.gravity": (float, PendulumParams.gravity),                   # m/s^2
    "plant.x0": (_list_of(float), [0.0, 0.0]),                          # angle rad, rate rad/s
    "disturbance.d0": (float, 0.1),                                     # d(t) = d0 sin(omega t)
    "disturbance.omega": (float, 2.0),                                  # rad/s
    "sensor_channel.delay": (float, 0.0),                               # s, whole steps of dt
    "sensor_channel.drop_prob": (float, 0.0),                           # in [0, 1)
    "actuator_channel.delay": (float, 0.0),                             # as sensor_channel.delay
    "actuator_channel.drop_prob": (float, 0.0),                         # in [0, 1)
    "controller.k": (_list_of(float), ControllerConfig.k),              # k1, k2 > 0 (Hurwitz)
    "controller.q_diag": (_list_of(float), ControllerConfig.q_diag),    # diagonal of Q
    "controller.r": (float, ControllerConfig.r),                        # auxiliary-term weight
    "controller.gamma_f": (float, ControllerConfig.gamma_f),            # theta_f adaptation rate
    "controller.gamma_g": (float, ControllerConfig.gamma_g),            # theta_g adaptation rate
    "controller.g_min": (float, ControllerConfig.g_min),                # floor under g_hat
    "controller.u_max": (float, ControllerConfig.u_max),                # saturation, N
    "controller.filter_alpha": (float, None),                           # in (0, 1]; None: auto
    "fuzzy.lo": (_list_of(float), [-math.pi / 6.0, -1.0]),              # grid box lower corner
    "fuzzy.hi": (_list_of(float), [math.pi / 6.0, 1.0]),                # grid box upper corner
    "fuzzy.counts": (_list_of(int), [5, 5]),                            # memberships per dimension
    "fuzzy.width_scale": (float, 1.0),                                  # width / center spacing
    "fuzzy.theta_g_init": (float, 1.0),                                 # g_min to max float / 2
}


def _read_entries(text: str, source: str, values: dict, where: dict) -> None:
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
            values[key] = _KEYS[key][0](raw)
        except ValueError as exc:
            raise ConfigError(
                f"{source} line {lineno}: malformed value for '{key}': {exc}") from None
        where[key] = f"{source} line {lineno}"


def _require(condition: bool, keys: tuple, where: dict, message: str) -> None:
    """Raise the ConfigError of a rule over keys unless condition holds.

    Every key of the rule that a source set is named with its line, or the
    first key when no source set any.
    """
    if not condition:
        named = [k for k in keys if where[k] != "default"] or keys[:1]
        blamed = ", ".join(f"'{k}' ({where[k]})" for k in named)
        raise ConfigError(f"invalid {blamed}: {message}")


@contextmanager
def _reported(prefix: str, where: dict, keys: dict | None = None):
    """Re-raise a ValueError from the block through _require.

    The validators start their messages with the field they reject; the
    rule's key is prefix.field unless keys maps the field to the keys it
    reads (a derived value such as the grid's centers comes from several).
    """
    try:
        yield
    except ValueError as exc:
        field = str(exc).split()[0].lower()
        _require(False, (keys or {}).get(field, (f"{prefix}.{field}",)), where, str(exc))


def _record(cls, prefix: str, values: dict, **resolved):
    """cls with each init field read from the key prefix.field, the rule _reported
    names keys by; resolved gives the fields build_config derives instead."""
    named = {f.name: values[f"{prefix}.{f.name}"] for f in fields(cls) if f.init}
    return cls(**(named | resolved))


def build_config(sources: list) -> ExperimentConfig:
    """Assemble a validated ExperimentConfig from (name, text) pairs.

    Sources are applied in order; later assignments of a key override
    earlier ones.
    """
    values = {key: default for key, (_, default) in _KEYS.items()}
    where = dict.fromkeys(_KEYS, "default")
    for name, text in sources:
        _read_entries(text, name, values, where)

    dt = values["dt"]
    duration = values["duration"]
    _require(0 < dt < math.inf, ("dt",), where, "must be positive and finite")
    # n_steps rounds duration/dt half to even, so at most half a step gives none
    _require(duration / dt > 0.5, ("duration", "dt"), where, "must cover at least one step of dt")
    _require(duration / dt <= MAX_STEPS, ("duration", "dt"), where,
             f"duration/dt must not exceed {MAX_STEPS}")
    seed = values["seed"]
    _require(0 <= seed < 2 ** 64 - 2, ("seed",), where,
             "must be in [0, 2**64 - 2): the channels draw from seed + 1 and seed + 2")
    reference = _record(ReferenceConfig, "reference", values)
    for key in ("reference.amplitude", "reference.frequency"):
        _require(0 <= values[key] < math.inf, (key,), where, "must be finite and nonnegative")
    # harness.reference_derivatives computes amplitude * frequency ** 2; the product
    # is inf, or NaN for amplitude 0, once frequency ** 2 alone overflows
    _require(reference.amplitude * (reference.frequency * reference.frequency) < math.inf,
             ("reference.amplitude", "reference.frequency"), where,
             "amplitude * frequency ** 2 overflows")

    # the pendulum denominator reads three of the plant keys
    with _reported("plant", where, {
            "pendulum": ("plant.half_length", "plant.pole_mass", "plant.cart_mass")}):
        params = _record(PendulumParams, "plant", values)

    disturbance = _record(DisturbanceConfig, "disturbance", values)
    _require(math.isfinite(disturbance.d0), ("disturbance.d0",), where, "must be finite")
    # the plant evaluates sin(omega * t) for t up to duration
    _require(abs(disturbance.omega) * duration < math.inf, ("disturbance.omega", "duration"),
             where, "omega * duration must be finite")

    x0 = tuple(values["plant.x0"])
    _require(len(x0) == 2, ("plant.x0",), where, "must have exactly 2 entries")
    _require(all(map(math.isfinite, x0)), ("plant.x0",), where, "entries must be finite")

    alpha = values["controller.filter_alpha"]
    if alpha is None:
        any_delay = values["sensor_channel.delay"] > 0 or values["actuator_channel.delay"] > 0
        alpha = 0.2 if any_delay else 1.0
    # P is derived from both k and q_diag
    with _reported("controller", where, {"p": ("controller.k", "controller.q_diag")}):
        controller = _record(ControllerConfig, "controller", values, filter_alpha=alpha)

    for key in ("fuzzy.lo", "fuzzy.hi", "fuzzy.counts"):
        _require(len(values[key]) == 2, (key,), where,
                 "must have exactly 2 entries for the order-2 benchmark")
    counts = values["fuzzy.counts"]
    _require(math.prod(counts) <= MAX_RULES, ("fuzzy.counts",), where,
             f"the rule count (their product) must not exceed {MAX_RULES}")
    # the grid reports its box, centers and widths, which it derives from the four keys
    with _reported("fuzzy", where, {
            "box": ("fuzzy.lo", "fuzzy.hi"),
            "centers": ("fuzzy.lo", "fuzzy.hi", "fuzzy.counts"),
            "widths": ("fuzzy.counts", "fuzzy.lo", "fuzzy.hi", "fuzzy.width_scale")}):
        grid = grid_over_box(values["fuzzy.lo"], values["fuzzy.hi"], counts,
                             values["fuzzy.width_scale"])
    _require(controller.g_min <= values["fuzzy.theta_g_init"] <= sys.float_info.max / 2,
             ("fuzzy.theta_g_init", "controller.g_min"), where,
             "theta_g_init must lie in [g_min, sys.float_info.max / 2] (the law divides by g_hat)")

    # each channel delays by whole steps of dt, up to rounding, and draws from its own seed
    channels = {}
    for prefix, offset, initial_value in (("sensor_channel", 1, x0), ("actuator_channel", 2, 0.0)):
        delay, keys = values[f"{prefix}.delay"], (f"{prefix}.delay", "dt")
        steps = delay / dt
        _require(0 <= steps < math.inf, keys, where,
                 f"delay ({delay!r}) must be a finite, nonnegative number of steps")
        _require(abs(delay - round(steps) * dt) <= 1e-9 * dt + 4 * math.ulp(delay), keys, where,
                 f"delay ({delay!r}) must be an exact multiple of dt ({dt!r})")
        with _reported(prefix, where):
            channels[prefix] = ChannelConfig(
                delay_steps=round(steps), drop_prob=values[f"{prefix}.drop_prob"],
                seed=seed + offset, initial_value=initial_value)

    return ExperimentConfig(
        duration=duration,
        dt=dt,
        seed=seed,
        ideal_model=values["ideal_model"],
        reference=reference,
        plant=params,
        x0=x0,
        disturbance=disturbance,
        sensor_channel=channels["sensor_channel"],
        actuator_channel=channels["actuator_channel"],
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
