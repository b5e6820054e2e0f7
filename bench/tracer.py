"""Span tracer for the traced benchmark run.

The tracer wraps afcsim's public functions from outside, by replacing module
and class attributes for the rest of the child process; no code under
``src/`` changes. Every wrapped call records a span (name, start, end,
parent span, run id) in flat in-memory arrays, and a few wrappers also count
events. Self time is a span's duration minus the durations of its child
spans. A parent's self time includes the tracer's own bookkeeping for its
children; ``trace.overhead_frac`` states how large that is.
"""
from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np

from afcsim import afhc, cli, config, fuzzy, harness, lti, netchan, plant

ROOT_RUN = "bench.run"
ROOT_SETUP = "bench.setup"


class Tracer:
    """Flat span store plus named event counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.run_id = -1
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def traced(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs once the span closed."""
        nid = self._id(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, stack = self.start, self.end, self.stack

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.traced(name, getattr(owner, attr), after))

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return any(self.name[i] == nid for i in self.stack)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are read from."""
        def after_run(args, result):
            trace = result[0]
            self.count("steps", len(trace))
            self.count("drops.sensor", trace.drop_sensor.sum())
            self.count("drops.actuator", trace.drop_actuator.sum())
            self.counts["rules"] = trace.grid.rule_count

        def after_control(args, u):
            if abs(u) >= args[0].u_max:
                self.count("saturated")

        def after_write(args, result):
            self.count("write_trace.bytes", os.path.getsize(args[1]))

        build = self.traced("config.build_config", config.build_config)
        config.build_config = build
        cli.build_config = build
        self.wrap(cli, "main", "cli.main")
        self.wrap(harness, "run_experiment", "harness.run_experiment", after_run)
        self.wrap(harness, "reference_derivatives", "harness.reference_derivatives")
        self.wrap(harness, "write_trace", "harness.write_trace", after_write)
        self.wrap(harness, "write_metrics", "harness.write_metrics")
        self.wrap(fuzzy, "write_theta", "fuzzy.write_theta")
        self.wrap(netchan.Channel, "push", "netchan.push")
        self.wrap(netchan.Channel, "output", "netchan.output")
        self.wrap(plant, "rk4_step", "plant.rk4_step")
        self.wrap(fuzzy.MembershipGrid, "regressor", "fuzzy.regressor")
        self.wrap(afhc, "filter_error", "afhc.filter_error")
        self.wrap(afhc, "control_law", "afhc.control_law", after_control)
        self.wrap(afhc, "h_infinity_term", "afhc.h_infinity_term")
        self.wrap(afhc, "adapt_step", "afhc.adapt_step")
        self.wrap(lti, "hinf_norm", "lti.hinf_norm")
        self.wrap(lti, "is_stable", "lti.is_stable")
        self.wrap(lti, "closed_loop_tzw", "lti.closed_loop_tzw")
        self.wrap(lti, "robustness_margin", "lti.robustness_margin")

        project = afhc.project_theta_g

        def counted_projection(approx_g, g_min):
            if np.any(approx_g.theta < g_min):
                self.count("projection")
            return project(approx_g, g_min)

        afhc.project_theta_g = counted_projection
        np.linalg.eigvals = self._norm_counter("eigvals")
        np.linalg.svd = self._norm_counter("svd")

    def _norm_counter(self, fn_name: str):
        fn = getattr(np.linalg, fn_name)
        key = f"hinf_norm.{fn_name}"

        def counted(*args, **kwargs):
            if self.inside("lti.hinf_norm"):
                self.count(key)
            return fn(*args, **kwargs)

        return counted

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds. The entry for
        ROOT_RUN also carries the self seconds of every span inside the
        workload runs, which must add up to the runs' total."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_s, minlength=k)
        out = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                      "self_s": float(own[i])}
               for i, name in enumerate(self.names) if calls[i]}
        if ROOT_RUN in out:
            out[ROOT_RUN]["sum_self_s"] = float(self_s[a["run"] >= 0].sum())
        return out


def layer_metrics(spans: dict, counts: dict, runs: int) -> dict:
    """Per-layer metric values from a traced child's span summary and counts.

    Units are listed in BENCHMARK.json. "self_us" values are self time per
    simulated control step; ".us", ".s" and ".self_ms" values are per call;
    drops, saturated and projection steps are counts per workload run;
    eig_calls and svd_calls are numpy.linalg calls per hinf_norm call.

    A layer the workload never entered reads None (absent).
    host.wait_frac and trace.overhead_frac need the untraced runs and are
    filled in by bench/run.py.
    """
    steps = counts.get("steps", 0)

    def self_per_step(name):
        return spans[name]["self_s"] * 1e6 / steps if name in spans and steps else None

    def per_call(name, scale, key="total_s"):
        s = spans.get(name)
        return s[key] * scale / s["calls"] if s else None

    def ratio(key, span, base):
        return counts.get(key, 0) / base if span in spans else None

    norms = spans.get("lti.hinf_norm", {}).get("calls", 0)
    writes = spans.get("harness.write_trace", {}).get("calls", 0)
    pushes = spans.get("netchan.push", {}).get("calls", 0)
    return {
        "config.build_config.us": per_call("config.build_config", 1e6),
        "netchan.push.self_us": self_per_step("netchan.push"),
        "netchan.output.self_us": self_per_step("netchan.output"),
        "netchan.push.calls_per_step": pushes / steps if pushes else None,
        "netchan.drops.sensor": ratio("drops.sensor", "netchan.push", runs),
        "netchan.drops.actuator": ratio("drops.actuator", "netchan.push", runs),
        "plant.rk4_step.self_us": self_per_step("plant.rk4_step"),
        "fuzzy.regressor.self_us": self_per_step("fuzzy.regressor"),
        "fuzzy.rules": counts.get("rules"),
        "afhc.filter_error.self_us": self_per_step("afhc.filter_error"),
        "afhc.control_law.self_us": self_per_step("afhc.control_law"),
        "afhc.h_infinity_term.self_us": self_per_step("afhc.h_infinity_term"),
        "afhc.adapt_step.self_us": self_per_step("afhc.adapt_step"),
        "afhc.saturated_steps": ratio("saturated", "afhc.control_law", runs),
        "afhc.projection_steps": ratio("projection", "afhc.adapt_step", runs),
        "harness.reference_derivatives.self_us":
            self_per_step("harness.reference_derivatives"),
        "harness.run_experiment.self_us_per_step": self_per_step("harness.run_experiment"),
        "harness.write_trace.s": per_call("harness.write_trace", 1.0),
        "harness.write_trace.bytes": ratio("write_trace.bytes", "harness.write_trace",
                                           max(writes, 1)),
        "lti.hinf_norm.self_ms": per_call("lti.hinf_norm", 1e3, "self_s"),
        "lti.is_stable.us": per_call("lti.is_stable", 1e6),
        "lti.closed_loop_tzw.us": per_call("lti.closed_loop_tzw", 1e6),
        "lti.hinf_norm.eig_calls": ratio("hinf_norm.eigvals", "lti.hinf_norm", max(norms, 1)),
        "lti.hinf_norm.svd_calls": ratio("hinf_norm.svd", "lti.hinf_norm", max(norms, 1)),
    }
