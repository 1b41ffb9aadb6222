#!/usr/bin/env python3
"""Run every packaged verification config and summarize the exit codes.

Usage: python3 scripts/run_full_suite.py [outdir] [--seed N]
"""

import argparse
import pathlib
import sys

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"

RUNS = [
    ("testfn-check", "testfn_check.json"),
    ("ode-verify", "ode_verify.json"),
    ("torus-run", "torus_rate_check.json"),
    ("euclid-run", "euclid_suite.json"),
    ("scaling-study", "scaling_torus.json"),
    ("scaling-study", "scaling_euclid.json"),
]


def run(outdir: pathlib.Path, seed: int) -> int:
    from cgl_blowup.cli import main as cli_main

    worst = 0
    for command, config in RUNS:
        name = config.removesuffix(".json")
        target = outdir / name
        code = cli_main([
            command,
            "--config", str(CONFIG_DIR / config),
            "--out", str(target),
            "--seed", str(seed),
        ])
        print(f"{command:14s} {name:22s} exit={code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir", nargs="?", default="suite_out")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    sys.exit(run(out, args.seed))
