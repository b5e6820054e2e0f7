"""Command-line entry point: run one experiment and write its outputs.

Exit codes: 0 for a completed run, 2 when the run diverged, 1 for
configuration or I/O errors.
"""
from __future__ import annotations

import argparse
import codecs
import sys
from pathlib import Path

from . import fuzzy, harness
from .config import ConfigError, PRESETS, build_config, preset_text

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Simulate the networked adaptive fuzzy control loop.")
    parser.add_argument("--config", metavar="PATH",
                        help="configuration file (flat key = value lines)")
    parser.add_argument("--out", metavar="DIR", required=True,
                        help="output directory for trace.csv, metrics.txt, theta files")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="nominal",
                        help="base settings applied before the config file")
    parser.add_argument("--seed", type=int, metavar="N", help="override the master seed")
    parser.add_argument("--duration", type=float, metavar="S",
                        help="override the horizon in seconds")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sources = [("preset", preset_text(args.preset))]
        if args.config is not None:
            raw = Path(args.config).read_bytes()
            # strip the mark here: utf-8-sig would count the error offset after it
            raw = raw.removeprefix(codecs.BOM_UTF8)
            try:
                sources.append((args.config, raw.decode("utf-8")))
            except UnicodeDecodeError as exc:
                line = raw.count(b"\n", 0, exc.start) + 1
                raise ConfigError(f"{args.config} line {line}: not UTF-8 ({exc.reason})") from None
        overrides = []
        if args.seed is not None:
            overrides.append(f"seed = {args.seed}")
        if args.duration is not None:
            overrides.append(f"duration = {args.duration}")
        if overrides:
            sources.append(("command line", "\n".join(overrides)))
        cfg = build_config(sources)
        trace, metrics = harness.run_experiment(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        harness.write_trace(trace, out / "trace.csv")
        harness.write_metrics(metrics, out / "metrics.txt")
        fuzzy.write_theta(out / "theta_f.txt", trace.grid, trace.theta_f)
        fuzzy.write_theta(out / "theta_g.txt", trace.grid, trace.theta_g)
    except (ConfigError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        print(f"preset={args.preset} seed={cfg.seed} steps={len(trace)}")
        print(f"rmse = {metrics.rmse:.6e}")
        print(f"steady_state_error_pct = {metrics.steady_state_error_pct:.6e}")
        print(f"max_abs_u = {metrics.max_abs_u:.6e}")
        print(f"diverged = {'true' if metrics.diverged else 'false'}")
        if trace.abort_reason:
            print(f"abort_reason = {trace.abort_reason}")
    return 2 if metrics.diverged else 0
