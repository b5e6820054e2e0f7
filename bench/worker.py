#!/usr/bin/env python3
"""One child process of the benchmark; bench/run.py starts it.

    worker.py setup   WORKLOAD SEED [--quick]
        Times ``import afcsim`` plus building the workload's configs or
        systems in this fresh interpreter, then times calibration chunks
        for the host-speed scale.
    worker.py measure WORKLOAD SEED BUDGET_S TRACE [--quick]
        Runs the workload back to back until BUDGET_S is spent (at least
        twice untraced, once traced) and reports every run. Untraced runs
        interleave calibration chunks (bench/calibrate.py) with the work;
        their time is left out of the run's timings and gives the run's
        scale. Traced runs time their chunks just before and after each run,
        outside every span.

Either mode prints one JSON object as its last line of standard output.
"""
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(SRC), str(BENCH)]

SETUP_CHUNKS = 40
TRACED_CHUNKS = 40


def _import_afcsim():
    t0 = time.perf_counter()
    import afcsim
    elapsed = time.perf_counter() - t0
    if Path(afcsim.__file__).resolve().parent != SRC / "afcsim":
        raise SystemExit(f"afcsim imported from {afcsim.__file__}, not from {SRC}")
    return elapsed


def setup(name: str, seed: int, quick: bool) -> dict:
    import_s = _import_afcsim()
    import workloads
    raw = workloads.draw(name, seed, quick)
    t0 = time.perf_counter()
    workloads.build(name, raw)
    setup_s = import_s + time.perf_counter() - t0
    import calibrate
    clock = calibrate.HostClock()
    for _ in range(SETUP_CHUNKS):
        clock.chunk()
    return {"setup_wall_s": setup_s, "scale": clock.scale()}


def measure(name: str, seed: int, budget: float, trace: bool, quick: bool) -> dict:
    _import_afcsim()
    import numpy as np
    import calibrate
    import workloads

    raw = workloads.draw(name, seed, quick)
    clock = calibrate.HostClock()
    tracer = None
    build, one = workloads.build, workloads.run_once
    if not trace:
        workloads.clock = clock.now
    else:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        build = tracer.traced(tracing.ROOT_SETUP, build)
        one = tracer.traced(tracing.ROOT_RUN, one)
    built = build(name, raw)
    want = workloads.expected(name, raw)
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"{name}-{'traced' if trace else 'untraced'}"

    runs, ops, calls = [], [], []
    min_runs = 1 if trace else 2
    t_begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = len(runs)
        mark = len(clock.chunks)
        for _ in range(TRACED_CHUNKS if trace else 0):
            clock.chunk()
        if not trace:
            clock.start()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            result = one(name, raw, built, want, out_dir)
        finally:
            clock.stop()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        for _ in range(TRACED_CHUNKS if trace else 0):
            clock.chunk()
        run_s, sim_s = result["run_s"], result["sim_s"]
        scale = clock.scale(mark)
        ops.extend(result["ops"])
        calls.extend(c * scale for c in result["calls"])
        unit_s = (sim_s / result["steps"] if result["steps"]
                  else run_s / max(len(result["calls"]), 1))
        runs.append({"run_s": run_s * scale, "step_us": unit_s * scale * 1e6,
                     "run_wall_s": run_s, "scale": scale, "chunks": len(clock.chunks) - mark,
                     "steps": result["steps"], "wall_s": wall, "cpu_s": cpu})
        if len(runs) == 1:
            # later runs grow the heap a little, so the peak is read here to
            # keep it independent of how many runs fit the budget
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spent = time.perf_counter() - t_begin
        if len(runs) >= min_runs and spent + spent / len(runs) > budget:
            break

    report = {
        "runs": runs,
        "calls": calls,
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "numpy": np.__version__,
    }
    if tracer is not None:
        spans = tracer.summary()
        report["spans"] = spans
        report["layers"] = tracing.layer_metrics(spans, tracer.counts, len(runs))
        spans_path = OUT / f"spans-{name}.npz"
        tracer.save(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    quick = "--quick" in argv
    if mode == "setup":
        result = setup(name, seed, quick)
    else:
        result = measure(name, seed, float(argv[3]), argv[4] == "1", quick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
