#!/usr/bin/env python3
"""Write every output of the benchmark workloads and the packaged runs of one
source tree, so that two trees compare with one ``diff -r``.

Usage: python3 scripts/compare_outputs.py TREE OUTDIR

TREE is the root of a checkout (its ``src`` and ``perfbench`` are used).
The script runs every invocation of the four workloads in
``TREE/perfbench/workloads.py`` at bench seeds 3 and 12, the six packaged
configs of ``TREE/scripts/configs`` at seed 2024, the ``euclid-run``
configs of ``OFF_UNIT``, the ``torus-run`` configs of ``TORUS_OFF_UNIT``
and the ``scaling-study`` configs of ``TORUS_LADDERS`` below, each in a
fresh ``python -m cgl_blowup`` process with ``--workers 1``.  The workloads
and packaged configs all have unit alpha and beta.  ``OFF_UNIT`` covers
complex beta, unequal alpha, n = 1 and 2 and both schemes;
``TORUS_OFF_UNIT`` covers complex alpha and beta, n = 1 and 2, padded and
unpadded, ``constant_plus_mode`` and ``fourier_mode`` data, with the final
fields written as snapshots.  ``TORUS_LADDERS`` are ``torus_homogeneous``
ladders with complex alpha and beta at n = 1 and 2, one with a time budget
short enough that its rungs stop with different statuses (``completed``
and ``blow_up_threshold_reached``).  OUTDIR gets, per run,
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


def _off_unit(n, alpha, beta, scheme, epsilon, t_end):
    return {
        "schema_version": 1,
        "params": {"n": n, "p": 2, "q": 1.5,
                   "alpha1": [alpha[0], 0], "alpha2": [alpha[1], 0],
                   "beta1": [beta[0].real, beta[0].imag],
                   "beta2": [beta[1].real, beta[1].imag]},
        "R": 4.0, "box_half_width": 8.0, "h": 4.0 / 64,
        "data": {"epsilon": epsilon, "r_data": 2.0, "amp_u": 1.0, "amp_v": 0.7,
                 "shape": "gaussian"},
        "scheme": scheme,
        "dt": {"dt_max": 0.01, "safety": 0.1},
        "t_end": t_end, "functional_threshold": 1e6, "field_threshold": 1e10,
        "odi_cap": 1e5,
    }


# euclid-run off the unit coefficients of the workloads and packaged configs
OFF_UNIT = {
    "complex_beta_1d": _off_unit(1, (-1, -1), (0.6 + 0.8j, -2j), "imex", 2.0, 30.0),
    "unequal_alpha_1d": _off_unit(1, (-0.7, -1.3), (1.7, 0.6), "imex", 2.0, 30.0),
    "both_1d_explicit": _off_unit(1, (-0.7, -1.3), (0.6 + 0.8j, -2j), "explicit", 2.0, 30.0),
    "both_2d": _off_unit(2, (-0.7, -1.3), (0.6 + 0.8j, -2j), "imex", 5.0, 30.0),
    "complex_beta_2d_explicit": _off_unit(2, (-1, -1), (-0.6 + 0.8j, 1j), "explicit", 5.0, 0.05),
}


def _pair(z):
    return [z.real, z.imag]


def _torus_off_unit(n, pad, data, t_end):
    return {
        "schema_version": 1,
        "params": {"n": n, "p": 2, "q": 1.5,
                   "alpha1": _pair(-1 + 0.5j), "alpha2": _pair(-0.7 - 0.2j),
                   "beta1": _pair(0.6 + 0.8j), "beta2": _pair(-2j)},
        "grid": {"modes": 64 if n == 1 else 32},
        "data": data,
        "dt": {"dt_max": 0.002, "safety": 0.05},
        "pad": pad, "snapshots": True,
        "t_end": t_end, "field_threshold": 1e4,
    }


_BUMPED = {"kind": "constant_plus_mode", "u": _pair(0.6 + 0.8j), "v": _pair(-0.7j),
           "perturbation": _pair(0.2 + 0.1j)}
_MODE = {"kind": "fourier_mode", "amplitude": _pair(0.5 + 0.5j), "mode": 2}

# torus-run off the unit coefficients: complex alpha and beta, final fields
# written as snapshots
TORUS_OFF_UNIT = {
    f"{kind}_{n}d{'_padded' if pad else ''}": _torus_off_unit(n, pad, data, t_end)
    for kind, data, t_end in (("bumped", _BUMPED, 5.0), ("mode", _MODE, 0.5))
    for n in (1, 2) for pad in (False, True)
}


def _torus_ladder(n, time_budget):
    return {
        "schema_version": 1, "mode": "torus_homogeneous",
        "params": {"n": n, "p": 2, "q": 1.5,
                   "alpha1": _pair(-1 + 0.5j), "alpha2": _pair(-0.7 - 0.2j),
                   "beta1": _pair(0.6 + 0.8j), "beta2": _pair(-2j)},
        "epsilon": {"start": 0.5, "factor": 1.3, "count": 6},
        "modes": 32 if n == 1 else 16, "dt_max": 0.002,
        "time_budget": time_budget, "field_threshold": 1e5,
    }


# scaling-study torus ladders off the unit coefficients; at a budget of 1.5
# the two smallest rungs end completed and the others blow up
TORUS_LADDERS = {
    "complex_1d": _torus_ladder(1, 30.0),
    "complex_2d": _torus_ladder(2, 30.0),
    "short_budget_1d": _torus_ladder(1, 1.5),
}


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
    for label, cfg in OFF_UNIT.items():
        yield f"off_unit/{label}", "euclid-run", cfg, PACKAGED_SEED
    for label, cfg in TORUS_OFF_UNIT.items():
        yield f"off_unit/torus_{label}", "torus-run", cfg, PACKAGED_SEED
    for label, cfg in TORUS_LADDERS.items():
        yield f"off_unit/ladder_{label}", "scaling-study", cfg, PACKAGED_SEED


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
