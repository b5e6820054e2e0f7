#!/usr/bin/env python3
"""Run every shipped preset and print a metrics table.

Outputs land in results/<preset>/ (trace.csv, metrics.txt, theta files).
A preset whose run fails (exit 1) gets no metrics in the table, and the
script then exits 1.
"""
import argparse
from pathlib import Path

from afcsim import cli
from afcsim.config import PRESETS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--duration", type=float, default=None)
    args = parser.parse_args()

    print(f"{'preset':<12} {'exit':<5} metrics")
    failed = False
    for preset in sorted(PRESETS):
        out = Path(args.out) / preset
        argv = ["--preset", preset, "--out", str(out),
                "--seed", str(args.seed), "--quiet"]
        if args.duration is not None:
            argv += ["--duration", str(args.duration)]
        code = cli.main(argv)
        if code == 1:
            # metrics.txt, if there, may be from an earlier run: show none
            failed = True
            print(f"{preset:<12} {code}")
            continue
        summary = (out / "metrics.txt").read_text().strip().replace("\n", "  ")
        print(f"{preset:<12} {code:<5} {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
