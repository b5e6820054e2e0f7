#!/usr/bin/env python3
"""afcsim benchmark: one workload per invocation, measured from outside.

    python3 bench/run.py --workload {nominal,networked-sweep,hinf} \\
        --seed N --seconds S --trace {0,1} [--quick]

Run it from anywhere inside a checkout; it imports afcsim from the
checkout's ``src`` and writes only to ``.bench_out/`` there. Every workload
runs in child processes (bench/worker.py), one at a time:

* ``--trace 0``: several fresh interpreters time ``import afcsim`` plus
  building the inputs (``setup_s``, their median), then one child runs the
  workload back to back for S seconds, untraced, and reports every run.
  Every end-to-end time is scaled to a reference host speed with
  calibration chunks timed alongside it (bench/calibrate.py); the report
  also prints the unscaled wall times.
* ``--trace 1``: one untraced child and one traced child share the S
  seconds; the traced child gives the per-layer metrics, the pair gives the
  tracing overhead.

The output is a human-readable report, a ``report {json}`` line with every
detail, and, last, the result line ``{"correct", "attempted", "failed",
"metrics"}`` whose metric names and units are those of BENCHMARK.json.
bench/README.md explains the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "afcsim"
WORKER = BENCH / "worker.py"
WORKLOADS = ("nominal", "networked-sweep", "hinf")

# numpy's import time varies by ~50 % between launches, so setup_s is the
# median of this many fresh interpreters (after one unmeasured launch that
# fills the bytecode and file caches).
SETUP_LAUNCHES = 15
SETUP_TIMEOUT_S = 60
# a child may overrun its budget by one workload run plus its set-up
MEASURE_GRACE_S = 60

ISOLATION_NOTE = ("CPUs are not pinned and the machine is shared and not isolated; "
                  "read every timing with its run-to-run spread")


class ChildError(RuntimeError):
    pass


def child(args: list, timeout: float) -> dict:
    """Run bench/worker.py to completion and return its JSON result."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise ChildError(f"worker {args[0]} exited with {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def environment() -> dict:
    model, load = "unknown", None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        pass
    lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_start": load,
        "src_afcsim_lines": lines,
        "isolation": ISOLATION_NOTE,
    }


def cross_check(ops: list) -> None:
    """Fail operations whose output differs between runs of the same input.

    Operations sharing a key (the nominal run, one sweep seed) must carry the
    same fingerprint (trace digest, drop counts). When outputs disagree, the
    ones outside the most common fingerprint fail, or all of them on a tie.
    """
    groups: dict = {}
    for op in ops:
        if op["fingerprint"] is not None:
            groups.setdefault(str(op["key"]), []).append(op)
    for key, group in groups.items():
        seen = Counter(json.dumps(op["fingerprint"]) for op in group)
        if len(seen) < 2:
            continue
        (top, n), = seen.most_common(1)
        tie = sum(1 for c in seen.values() if c == n) > 1
        for op in group:
            if tie or json.dumps(op["fingerprint"]) != top:
                op["ok"] = False
                op["why"] = f"{key}: output differs between runs of the same input"


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny simulation horizons and system sets (self-test only)")
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no afcsim package at {PACKAGE.relative_to(ROOT)}; "
              "run the benchmark inside an afcsim checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    quick = ["--quick"] if args.quick else []
    name, seed = args.workload, args.seed

    env = environment()
    print(f"afcsim benchmark: workload={name} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    errors, setups, measured = [], [], {}
    try:
        if args.trace == 0:
            for i in range(SETUP_LAUNCHES + 1):
                result = child(["setup", name, seed, *quick], SETUP_TIMEOUT_S)
                if i:
                    setups.append(result)
            measured["untraced"] = child(["measure", name, seed, args.seconds, 0, *quick],
                                         args.seconds + MEASURE_GRACE_S)
        else:
            budget = args.seconds / 2.0
            for label, flag in (("untraced", 0), ("traced", 1)):
                measured[label] = child(["measure", name, seed, budget, flag, *quick],
                                        budget + MEASURE_GRACE_S)
    except ChildError as exc:
        errors.append(str(exc))

    # a child that failed counts as one failed operation
    ops = [op for m in measured.values() for op in m["ops"]]
    cross_check(ops)
    attempted = len(ops) + len(errors)
    failed = sum(1 for op in ops if not op["ok"]) + len(errors)
    reasons = [op["why"] for op in ops if not op["ok"]] + errors

    base = measured.get("untraced")
    values = {}
    notes = {}  # printed and kept in the report line: name -> (value, unit)
    if base:
        env["numpy"] = base["numpy"]
    if args.trace == 0 and base:
        values["setup_s"] = statistics.median(r["setup_wall_s"] * r["scale"] for r in setups)
        values["run_s"] = statistics.median(r["run_s"] for r in base["runs"])
        values["step_us"] = statistics.median(r["step_us"] for r in base["runs"])
        values["peak_rss_mb"] = base["peak_rss_mb"]
        notes["setup_wall_s"] = (statistics.median(r["setup_wall_s"] for r in setups), "s")
        notes["run_wall_s"] = (statistics.median(r["run_wall_s"] for r in base["runs"]), "s")
        notes["host_scale"] = (statistics.median(r["scale"] for r in base["runs"]), "ratio")
        notes["calibration_chunks"] = (sum(r["chunks"] for r in base["runs"]), "count")
        notes["runs"] = (len(base["runs"]), "count")
        notes["setup_launches"] = (len(setups), "count")
        if name == "hinf":
            # p80 is the highest percentile that leaves 10 of the 54 calls of
            # one pass beyond it
            calls = base["calls"]
            notes["norm_ms_p50"] = (percentile(calls, 50) * 1e3, "ms")
            notes["norm_ms_p80"] = (percentile(calls, 80) * 1e3, "ms")
            notes["norm_calls"] = (len(calls), "count")
    if args.trace == 1 and base and "traced" in measured:
        traced = measured["traced"]
        values.update(traced["layers"])
        wall = sum(r["wall_s"] for r in base["runs"])
        cpu = sum(r["cpu_s"] for r in base["runs"])
        values["host.wait_frac"] = 1.0 - cpu / wall
        traced_run_s = statistics.median(r["run_s"] for r in traced["runs"])
        values["trace.overhead_frac"] = (
            traced_run_s / statistics.median(r["run_s"] for r in base["runs"]) - 1.0)
        root = traced["spans"]["bench.run"]
        notes["traced_run_s_total"] = (root["total_s"], "s")
        notes["traced_self_sum_s"] = (root["sum_self_s"], "s")
        notes["spans_file"] = (traced["spans_file"], "")
    notes["failed_frac"] = (failed / attempted, "ratio")
    digests = sorted({op["fingerprint"] for op in ops if op["key"] == "nominal"
                      and op["fingerprint"]})
    if digests:
        notes["trace_sha256"] = (digests[0] if len(digests) == 1 else digests, "")
    if name == "networked-sweep":
        notes["drops_per_seed"] = ({str(op["key"]): op["fingerprint"] for op in ops
                                    if op["fingerprint"] is not None}, "[sensor, actuator]")

    # A per-layer metric of a layer the workload never entered is absent; the
    # result line carries it as 0 so that every run reports every metric.
    section = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = {}
    for m in spec[section]:
        if m["name"] in values:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": 0 if value is None else value, "unit": m["unit"]}
    spans = measured.get("traced", {}).get("spans", {})
    for key, value in env.items():
        print(f"env.{key} = {value}")
    for m in spec[section]:
        entry = metrics.get(m["name"])
        if entry is None:
            print(f"{m['name']:<42} missing")
        elif values[m["name"]] is None:
            print(f"{m['name']:<42} absent (layer not entered)")
        else:
            print(f"{m['name']:<42} {entry['value']:.6g} {m['unit']}")
    for key, (value, unit) in notes.items():
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"{key:<42} {shown} {unit}".rstrip())
    if args.trace == 1 and spans:
        print(f"{'span':<36} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for span, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{span:<36} {s['calls']:>9} {s['total_s']:>10.4f} {s['self_s']:>10.4f}")
    for why in reasons[:10]:
        print(f"FAILED: {why}")
    report = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "metrics": metrics, "failures": reasons, "spans": spans,
              "notes": {key: value for key, (value, _) in notes.items()}}
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
