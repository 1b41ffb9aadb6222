#!/usr/bin/env python3
"""Write every output of the benchmark workloads and the packaged runs of one
source tree, so that two trees compare with one ``diff -r``.

Usage: python3 scripts/compare_outputs.py TREE OUTDIR

TREE is the root of a checkout (its ``src`` and ``perfbench`` are used).
The script runs every invocation of the four workloads in
``TREE/perfbench/workloads.py`` at bench seeds 3 and 12, and the six
packaged configs of ``TREE/scripts/configs`` at seed 2024, each in a fresh
``python -m cgl_blowup`` process with ``--workers 1``.  OUTDIR gets, per run,
its config, its ``--out`` directory and a ``.status`` file with the exit
code and standard error.  Paths are given relative to OUTDIR, so that the
messages of two trees compare too.

    python3 scripts/compare_outputs.py PARENT a
    python3 scripts/compare_outputs.py . b
    diff -r a b
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from run_full_suite import RUNS

WORKLOADS = ("ode_sweep", "torus_1d", "euclid_1d", "grid_2d")
BENCH_SEEDS = (3, 12)
PACKAGED_SEED = 2024


def _jobs(tree: str):
    """(name, command, config, cli seed) of every run, name a relative path."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import workloads

    for workload in WORKLOADS:
        for seed in BENCH_SEEDS:
            for inv in workloads.invocations(workload, seed):
                yield (f"{workload}/seed{seed}/{inv.label}", inv.command,
                       inv.config, inv.cli_seed)
    for command, config in RUNS:
        with open(os.path.join(tree, "scripts", "configs", config),
                  encoding="utf-8") as fh:
            cfg = json.load(fh)
        yield (f"packaged/{config.removesuffix('.json')}", command, cfg,
               PACKAGED_SEED)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("tree")
    parser.add_argument("outdir")
    args = parser.parse_args()
    tree = os.path.abspath(args.tree)
    if os.path.exists(args.outdir):
        shutil.rmtree(args.outdir)
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    for name, command, config, cli_seed in _jobs(tree):
        os.makedirs(os.path.join(args.outdir, os.path.dirname(name)), exist_ok=True)
        with open(os.path.join(args.outdir, f"{name}.config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
        proc = subprocess.run(
            [sys.executable, "-m", "cgl_blowup", command,
             "--config", f"{name}.config.json", "--out", name,
             "--seed", str(cli_seed), "--workers", "1"],
            cwd=args.outdir, env=env, capture_output=True, text=True)
        with open(os.path.join(args.outdir, f"{name}.status"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"exit {proc.returncode}\n{proc.stderr}")
        print(f"{name:40s} exit={proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
