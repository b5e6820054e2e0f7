"""The three benchmark workloads: seeded inputs, the calls into afcsim that
one workload run makes, and the per-operation correctness checks.

Inputs are split in two steps. ``draw`` makes plain data (config text, numpy
matrices) from the benchmark seed with the benchmark's own code; ``build``
turns that data into afcsim objects and is what ``setup_s`` times, together
with ``import afcsim``. Everything here is imported after ``sys.path`` points
at the checkout's ``src``.
"""
from __future__ import annotations

import hashlib
import math
import shutil
import time
from pathlib import Path

import numpy as np

from afcsim import cli, config, harness, lti, plant

# nominal: the shipped preset at the seed the CLI examples use. The seed is
# pinned so that the trace digest can be compared with a plain
# `simulate --preset nominal --seed 2024` run and across commits.
NOMINAL_SEED = 2024
NOMINAL_SSE_LIMIT_PCT = 10.0

# networked-sweep: a parameter study over consecutive seeds of the
# networked preset with a 15 x 15 rule grid, in memory.
SWEEP_SEEDS = 6
SWEEP_DURATION = 5.0
SWEEP_OVERRIDES = "fuzzy.counts = 15, 15\n"
SWEEP_ANGLE_LIMIT = math.pi / 4

# hinf: random stable systems drawn like acceptance criterion 4, plus the
# lead-compensated loops of scripts/certificate_demo.py.
HINF_SYSTEMS = 50
HINF_TOL = 1e-8
LOOP_TOL = 1e-9
ORACLE_RTOL = 1e-6

# Every timing of a run reads this clock. bench/worker.py replaces it with
# one that stops while a calibration chunk runs (bench/calibrate.py).
clock = time.perf_counter

QUICK_DURATION = 0.3
QUICK_SWEEP_SEEDS = 2
QUICK_HINF_SYSTEMS = 6


def seed_base(seed: int, span: int) -> int:
    """A deterministic nonnegative integer below 2**31 - span from any int."""
    digest = hashlib.sha256(str(int(seed)).encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2 ** 31 - span)


# ------------------------------------------------------------------ oracle

def _responses(a, b, c, d, w):
    """C (jw I - A)^-1 B + D at every frequency of w, shape (len(w), p, m)."""
    n = a.shape[0]
    if n == 0:
        return np.broadcast_to(d.astype(complex), (w.size,) + d.shape)
    mats = 1j * w[:, None, None] * np.eye(n) - a
    rhs = np.broadcast_to(b.astype(complex), (w.size,) + b.shape)
    return c @ np.linalg.solve(mats, rhs) + d


def _sigma(resp):
    return np.linalg.svd(resp, compute_uv=False)[:, 0]


def grid_peak(response, d_limit, n_points=4001, rounds=5, candidates=4):
    """Dense-grid supremum over w >= 0 of sigma_max(response(w)).

    response maps a frequency array to stacked response matrices; d_limit is
    the w -> infinity gain. A log grid over 1e-4..1e6 rad/s (plus DC) is
    zoomed in around its largest local maxima. This is the benchmark's own
    oracle: it never calls afcsim.lti.
    """
    w = np.concatenate([[0.0], np.logspace(-4.0, 6.0, n_points - 1)])
    g = _sigma(response(w))
    best = max(float(g.max()), d_limit)
    inner = np.flatnonzero((g[1:-1] >= g[:-2]) & (g[1:-1] >= g[2:])) + 1
    for i in inner[np.argsort(g[inner])[::-1][:candidates]]:
        lo, hi = w[i - 1], w[i + 1]
        for _ in range(rounds):
            zw = np.linspace(lo, hi, 101)
            zg = _sigma(response(zw))
            k = int(np.argmax(zg))
            best = max(best, float(zg[k]))
            lo, hi = zw[max(k - 2, 0)], zw[min(k + 2, 100)]
    return best


def system_peak(a, b, c, d):
    return grid_peak(lambda w: _responses(a, b, c, d, w),
                     float(np.linalg.svd(d, compute_uv=False)[0]) if d.size else 0.0)


def _siso_tf(a, b, c, d):
    """Numerator and denominator polynomials of a SISO realization."""
    den = np.poly(a) if a.size else np.array([1.0])
    num = np.polysub(np.poly(a - b @ c), den) if a.size else np.array([0.0])
    return np.polyadd(num, d[0, 0] * den), den


def loop_oracle(ps, k):
    """(stable, peak gain of [S; K S]) for a SISO negative-feedback loop.

    Stability comes from the roots of d_p d_k + n_p n_k, the gain from the
    plant and controller responses, independently of lti.closed_loop_tzw.
    """
    np_, dp = _siso_tf(*ps)
    nk, dk = _siso_tf(*k)
    poles = np.roots(np.polyadd(np.polymul(dp, dk), np.polymul(np_, nk)))
    if poles.size and poles.real.max() >= 0.0:
        return False, math.inf

    def response(w):
        p = _responses(*ps, w)
        kk = _responses(*k, w)
        s = 1.0 / (1.0 + p * kk)
        return np.concatenate([s, kk * s], axis=1)

    dk_inf = k[3][0, 0] / (1.0 + ps[3][0, 0] * k[3][0, 0])
    s_inf = 1.0 / (1.0 + ps[3][0, 0] * k[3][0, 0])
    return True, grid_peak(response, math.hypot(s_inf, dk_inf))


# ------------------------------------------------------------------ inputs

def _random_stable(rng):
    """Matrices of a stable system with well-damped poles and a finite-
    frequency peak well above the feedthrough gain (criterion 4's recipe)."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    while True:
        a = rng.normal(size=(n, n))
        a -= (np.linalg.eigvals(a).real.max() + 1.5) * np.eye(n)
        ev = np.linalg.eigvals(a)
        if np.min(-ev.real / np.abs(ev)) < 0.3:
            continue
        b = rng.normal(size=(n, m))
        c = rng.normal(size=(p, n))
        d = 0.2 * rng.normal(size=(p, m))
        w = np.concatenate([[0.0], np.logspace(-3.0, 4.0, 400)])
        peak = float(_sigma(_responses(a, b, c, d, w)).max())
        if peak < 1.5 * float(np.linalg.svd(d, compute_uv=False)[0]):
            continue
        return a, b, c, d


def _linearized_pendulum():
    """x1'' = a x1 + b u around upright, default cart-pole parameters."""
    params = plant.PendulumParams()
    total = params.cart_mass + params.pole_mass
    denom = params.half_length * (4.0 / 3.0 - params.pole_mass / total)
    b = plant.pendulum_g(params, [0.0, 0.0])
    return (np.array([[0.0, 1.0], [params.gravity / denom, 0.0]]),
            np.array([[0.0], [b]]), np.array([[1.0, 0.0]]), np.array([[0.0]]))


def _lead(kc, zero, pole):
    """kc (s + zero) / (s + pole)"""
    return (np.array([[-pole]]), np.array([[1.0]]),
            np.array([[kc * (zero - pole)]]), np.array([[kc]]))


# low-frequency boost W1 = (s + 2)/(s + 0.1) of the shaped plant P * W1
_W1 = (np.array([[-0.1]]), np.array([[1.0]]), np.array([[1.9]]), np.array([[1.0]]))


def _shaped(plant_abcd):
    """Matrices of P * W1 (W1 first), for the oracle."""
    a, b, c, d = plant_abcd
    wa, wb, wc, wd = _W1
    a2 = np.block([[wa, np.zeros((1, a.shape[0]))], [b @ wc, a]])
    return a2, np.vstack([wb, b @ wd]), np.hstack([d @ wc, c]), d @ wd


def draw(name: str, seed: int, quick: bool) -> dict:
    """Plain-data inputs of one workload; the same seed gives the same inputs."""
    if name == "nominal":
        argv = ["--preset", "nominal", "--seed", str(NOMINAL_SEED), "--quiet"]
        overrides = f"seed = {NOMINAL_SEED}"
        if quick:
            argv += ["--duration", str(QUICK_DURATION)]
            overrides += f"\nduration = {QUICK_DURATION}"
        return {"argv": argv, "overrides": overrides}
    if name == "networked-sweep":
        count = QUICK_SWEEP_SEEDS if quick else SWEEP_SEEDS
        duration = QUICK_DURATION if quick else SWEEP_DURATION
        base = seed_base(seed, count)
        return {"configs": [(base + i, f"{SWEEP_OVERRIDES}duration = {duration}\n"
                                       f"seed = {base + i}\n") for i in range(count)]}
    if name == "hinf":
        rng = np.random.default_rng(seed_base(seed, 0))
        systems = [_random_stable(rng)
                   for _ in range(QUICK_HINF_SYSTEMS if quick else HINF_SYSTEMS)]
        leads = [_lead(40.0, 5.0, 12.0), _lead(120.0, 3.0, 20.0)]
        return {"systems": systems, "plant": _linearized_pendulum(),
                "loops": [(shaped, k) for shaped in (False, True) for k in leads]}
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, raw: dict) -> dict:
    """afcsim objects for one workload (timed as part of setup_s)."""
    if name == "nominal":
        # the same call cli.main makes for this argv
        return {"config": config.build_config([
            ("preset", config.preset_text("nominal")), ("command line", raw["overrides"])])}
    if name == "networked-sweep":
        preset = ("preset", config.preset_text("networked"))
        return {"configs": [(s, config.build_config([preset, ("benchmark", text)]))
                            for s, text in raw["configs"]]}
    systems = [lti.StateSpaceModel(*abcd) for abcd in raw["systems"]]
    p_nom = lti.StateSpaceModel(*raw["plant"])
    plants = {False: p_nom,
              True: lti.series(lti.identity(1), p_nom, lti.StateSpaceModel(*_W1))}
    loops = [(plants[shaped], lti.StateSpaceModel(*k)) for shaped, k in raw["loops"]]
    return {"systems": systems, "loops": loops}


def expected(name: str, raw: dict) -> dict:
    """Oracle values computed outside the timed region (hinf only)."""
    if name != "hinf":
        return {}
    plants = {False: raw["plant"], True: _shaped(raw["plant"])}
    return {"systems": [system_peak(*abcd) for abcd in raw["systems"]],
            "loops": [loop_oracle(plants[shaped], k) for shaped, k in raw["loops"]]}


# ------------------------------------------------------------- one run

def _op(key, ok, why="", fingerprint=None):
    return {"key": key, "ok": bool(ok), "why": why, "fingerprint": fingerprint}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_nominal(code, out_dir: Path) -> dict:
    if code != 0:
        return _op("nominal", False, f"exit code {code}")
    metrics = dict(line.split(" = ", 1) for line in
                   (out_dir / "metrics.txt").read_text(encoding="utf-8").splitlines())
    digest = sha256_file(out_dir / "trace.csv")
    if metrics["diverged"] != "false":
        return _op("nominal", False, "diverged", digest)
    sse = float(metrics["steady_state_error_pct"])
    if not sse < NOMINAL_SSE_LIMIT_PCT:
        return _op("nominal", False, f"steady_state_error_pct {sse}", digest)
    return _op("nominal", True, "", digest)


def check_sweep(seed, trace, metrics) -> dict:
    drops = [int(trace.drop_sensor.sum()), int(trace.drop_actuator.sum())]
    if metrics.diverged:
        return _op(seed, False, f"seed {seed} diverged", drops)
    peak = float(np.max(np.abs(trace.x1)))
    if not peak <= SWEEP_ANGLE_LIMIT:
        return _op(seed, False, f"seed {seed} max|x1| {peak:.4f} > pi/4", drops)
    return _op(seed, True, "", drops)


def check_norm(key, value, want) -> dict:
    gap = abs(value - want) / want
    if not gap <= ORACLE_RTOL:
        return _op(key, False, f"{key}: {value!r} vs oracle {want!r} (rel {gap:.2e})")
    return _op(key, True)


def check_loop(key, cert, want) -> dict:
    stable, peak = want
    if cert.loop_stable != stable:
        return _op(key, False, f"{key}: loop_stable {cert.loop_stable}, oracle {stable}")
    if not stable:
        ok = cert.norm_tzw == math.inf and cert.epsilon == 0.0
        return _op(key, ok, "" if ok else f"{key}: unstable loop with finite norm")
    return check_norm(key, cert.norm_tzw, peak)


def _call(fn, *args):
    """(seconds, result, None), or (seconds, None, exception) if fn raised."""
    t0 = clock()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed operation, not a benchmark error
        return clock() - t0, None, exc
    return clock() - t0, result, None


def _run_nominal(raw, built, want, out_dir: Path) -> dict:
    sim = [0.0, 0]
    inner = harness.run_experiment

    def timed(cfg):
        t0 = clock()
        result = inner(cfg)
        sim[0] += clock() - t0
        sim[1] += len(result[0])
        return result

    if out_dir.exists():
        shutil.rmtree(out_dir)
    harness.run_experiment = timed
    try:
        run_s, code, exc = _call(cli.main, raw["argv"] + ["--out", str(out_dir)])
    finally:
        harness.run_experiment = inner
    if exc is not None:
        op = _op("nominal", False, f"nominal: {exc!r}")
    else:
        try:
            op = check_nominal(code, out_dir)
        except (OSError, KeyError, ValueError) as err:
            op = _op("nominal", False, f"nominal: unreadable output: {err}")
    return {"run_s": run_s, "sim_s": sim[0], "steps": sim[1], "calls": [], "ops": [op]}


def _run_sweep(raw, built, want, out_dir: Path) -> dict:
    out = {"run_s": 0.0, "sim_s": 0.0, "steps": 0, "calls": [], "ops": []}
    for seed, cfg in built["configs"]:
        elapsed, result, exc = _call(harness.run_experiment, cfg)
        out["run_s"] += elapsed
        out["calls"].append(elapsed)
        if exc is not None:
            out["ops"].append(_op(seed, False, f"seed {seed}: {exc!r}"))
            continue
        out["sim_s"] += elapsed
        out["steps"] += len(result[0])
        out["ops"].append(check_sweep(seed, *result))
    return out


def _run_hinf(raw, built, want, out_dir: Path) -> dict:
    out = {"run_s": 0.0, "sim_s": 0.0, "steps": 0, "calls": [], "ops": []}
    work = ([(f"system{i}", lti.hinf_norm, (ss, HINF_TOL), check_norm, w)
             for i, (ss, w) in enumerate(zip(built["systems"], want["systems"]))]
            + [(f"loop{i}", lti.robustness_margin, (*pair, LOOP_TOL), check_loop, w)
               for i, (pair, w) in enumerate(zip(built["loops"], want["loops"]))])
    for key, fn, args, check, w in work:
        elapsed, value, exc = _call(fn, *args)
        out["run_s"] += elapsed
        out["calls"].append(elapsed)
        out["ops"].append(_op(key, False, f"{key}: {exc!r}") if exc is not None
                          else check(key, value, w))
    return out


_RUNS = {"nominal": _run_nominal, "networked-sweep": _run_sweep, "hinf": _run_hinf}


def run_once(name: str, raw: dict, built: dict, want: dict, out_dir: Path) -> dict:
    """One workload run: its time (run_s), the simulated steps and the host
    time spent in harness.run_experiment (sim_s), the time of every
    operation (calls; none for nominal), and one checked record per
    operation (ops)."""
    return _RUNS[name](raw, built, want, out_dir)
