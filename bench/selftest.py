#!/usr/bin/env python3
"""Fast self-test of the benchmark: python3 bench/selftest.py

With tiny horizons (--quick) it checks that every workload reports every
BENCHMARK.json metric with its unit, that the traced run's self times add up
to its run time, that tracing does not change the nominal trace, that a
corrupted output counts as a failed operation, and that the benchmark
refuses to run without the afcsim sources. Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple:
    """(exit code, report dict or None, result dict or None) of a quick run."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(line[len("report "):]) for line in lines
                   if line.startswith("report ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, report, result


def test_every_metric_reported_with_its_unit():
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, report, result = bench(workload, trace)
            assert code == 0, (workload, trace, code)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(want) ^ set(got))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)
                assert math.isfinite(metric["value"]), (workload, name)
            if trace == 0:
                assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC[section])
            else:
                notes = report["notes"]
                assert math.isclose(notes["traced_self_sum_s"], notes["traced_run_s_total"],
                                    rel_tol=1e-9), (workload, notes)
            for key in ("python", "numpy", "nproc", "cpu_model", "loadavg_start",
                        "src_afcsim_lines", "isolation"):
                assert key in report["env"], (workload, key)


def test_absent_layers():
    _, _, nominal = bench("nominal", 1)
    _, _, sweep = bench("networked-sweep", 1)
    _, report, hinf = bench("hinf", 1)
    for result in (nominal, sweep):
        assert result["metrics"]["lti.hinf_norm.self_ms"]["value"] == 0
        assert result["metrics"]["plant.rk4_step.self_us"]["value"] > 0
    assert sweep["metrics"]["harness.write_trace.s"]["value"] == 0
    assert nominal["metrics"]["harness.write_trace.bytes"]["value"] > 0
    assert hinf["metrics"]["plant.rk4_step.self_us"]["value"] == 0
    assert hinf["metrics"]["lti.hinf_norm.svd_calls"]["value"] > 0
    assert "harness.run_experiment" not in report["spans"]


def test_tracing_keeps_the_nominal_trace():
    _, untraced, _ = bench("nominal", 0)
    _, traced, _ = bench("nominal", 1)
    out = SCRATCH / "cli"
    shutil.rmtree(out, ignore_errors=True)
    raw = workloads.draw("nominal", 0, quick=True)
    subprocess.run([sys.executable, "-m", "afcsim", *raw["argv"], "--out", str(out)],
                   cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, check=True, timeout=120)
    plain = workloads.sha256_file(out / "trace.csv")
    assert untraced["notes"]["trace_sha256"] == plain
    assert traced["notes"]["trace_sha256"] == plain


def test_corrupted_outputs_fail():
    from afcsim import cli, harness, lti
    # nominal: a flipped byte in trace.csv, and a metrics file claiming divergence
    out = SCRATCH / "nominal"
    shutil.rmtree(out, ignore_errors=True)
    raw = workloads.draw("nominal", 0, quick=True)
    code = cli.main(raw["argv"] + ["--out", str(out)])
    good = workloads.check_nominal(code, out)
    assert good["ok"]
    data = bytearray((out / "trace.csv").read_bytes())
    data[-3] ^= 1
    (out / "trace.csv").write_bytes(bytes(data))
    flipped = workloads.check_nominal(code, out)
    ops = [dict(good), dict(good), flipped]
    run.cross_check(ops)
    assert [op["ok"] for op in ops] == [True, True, False]
    metrics = out / "metrics.txt"
    metrics.write_text(metrics.read_text().replace("diverged = false", "diverged = true"))
    assert not workloads.check_nominal(code, out)["ok"]
    assert not workloads.check_nominal(2, out)["ok"]

    # networked-sweep: a run past pi/4, and drop counts that differ between runs
    seed, cfg = workloads.build("networked-sweep",
                                workloads.draw("networked-sweep", 0, quick=True))["configs"][0]
    trace, metrics_ = harness.run_experiment(cfg)
    good = workloads.check_sweep(seed, trace, metrics_)
    assert good["ok"]
    trace.x1[-1] = 1.0
    assert not workloads.check_sweep(seed, trace, metrics_)["ok"]
    other = dict(good, fingerprint=[good["fingerprint"][0], good["fingerprint"][1] + 1])
    ops = [dict(good), other]
    run.cross_check(ops)
    assert not any(op["ok"] for op in ops)

    # hinf: a norm off by 1e-5 relative, and a wrong stability verdict
    raw = workloads.draw("hinf", 0, quick=True)
    built = workloads.build("hinf", raw)
    want = workloads.expected("hinf", raw)
    value = lti.hinf_norm(built["systems"][0], tol=workloads.HINF_TOL)
    assert workloads.check_norm("system0", value, want["systems"][0])["ok"]
    assert not workloads.check_norm("system0", value * (1 + 1e-5), want["systems"][0])["ok"]
    unstable = [i for i, (stable, _) in enumerate(want["loops"]) if not stable]
    assert unstable, "the certificate loops include an unstable one"
    cert = lti.robustness_margin(*built["loops"][unstable[0]], tol=workloads.LOOP_TOL)
    assert workloads.check_loop("loop", cert, want["loops"][unstable[0]])["ok"]
    assert not workloads.check_loop("loop", cert, (True, 1.0))["ok"]


def test_refuses_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, report, result = bench("nominal", 0, cwd=bare)
    assert code != 0 and report is None and result is None


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tests = [obj for name, obj in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc!r}")
            return 1
        print(f"PASS {test.__name__}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
