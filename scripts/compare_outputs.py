#!/usr/bin/env python3
"""Write every output of the benchmark workloads and the packaged runs of one
source tree, so that two trees compare with one ``diff -r``.

Usage: python3 scripts/compare_outputs.py TREE OUTDIR

TREE is the root of a checkout (its ``src`` and ``perfbench`` are used).
The script runs every invocation of the four workloads in
``TREE/perfbench/workloads.py`` at bench seeds 3 and 12, the six packaged
configs of ``TREE/scripts/configs`` at seed 2024, the ``euclid-run``
configs of ``OFF_UNIT``, the ``torus-run`` configs of ``TORUS_OFF_UNIT``
and the ``scaling-study`` configs of ``TORUS_LADDERS`` and
``EUCLID_LADDERS`` below, each in a fresh ``python -m cgl_blowup`` process
with ``--workers 1``.  The workloads and packaged configs all have unit
alpha and beta.  ``OFF_UNIT`` covers
complex beta, unequal alpha, n = 1 and 2 and both schemes;
``TORUS_OFF_UNIT`` covers complex alpha and beta, n = 1 and 2, padded and
unpadded, ``constant_plus_mode`` and ``fourier_mode`` data, with the final
fields written as snapshots.  ``TORUS_LADDERS`` are ``torus_homogeneous``
ladders with complex alpha and beta at n = 1 and 2, one with a time budget
short enough that its rungs stop with different statuses (``completed``
and ``blow_up_threshold_reached``).  ``EUCLID_LADDERS`` are ``euclid``
ladders with complex beta, real alpha with |alpha1| != |alpha2| and
q = 1.5: two at n = 1, one of them with a rung that completes at the
budget, and a short one at n = 2 whose smallest rung completes too.  They
cover the lockstep step's grouping of tridiagonal solves by
r = dt |alpha| / h^2, which unit coefficients never split.  OUTDIR gets,
per run, its config, its ``--out`` directory and a ``.status`` file with
the exit code and standard error.  Paths are given relative to OUTDIR, so that the
messages of two trees compare too.

    python3 scripts/compare_outputs.py PARENT a
    python3 scripts/compare_outputs.py . b
    diff -r a b

Usage: python3 scripts/compare_outputs.py --drift A B

lists how two such output trees differ.  Each file is missing on one side,
byte-identical, or compared by value: ``.csv`` cell by cell under the same
header and shape, ``.json`` walked in parallel with the same keys, lengths
and non-numeric leaves, ``.bin`` snapshots as complex128 arrays; any other
file must be identical.  One line is printed per differing file, with its
largest relative drift |a-b|/max(|a|,|b|), then a summary line.  The exit
code is 1 when a file is missing or structurally different, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np

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


def _euclid_ladder(n, start, time_budget, **thresholds):
    return {
        "schema_version": 1, "mode": "euclid",
        "params": {"n": n, "p": 2, "q": 1.5,
                   "alpha1": _pair(-0.7), "alpha2": _pair(-1.3),
                   "beta1": _pair(0.6 + 0.8j), "beta2": _pair(-2j)},
        "epsilon": {"start": start, "factor": 1.3, "count": 6 if n == 1 else 5},
        "R": 4.0, "box_half_width": 8.0, "h": 4.0 / 64,
        "r_data": 1.5, "amp_u": 1.0, "amp_v": 0.7,
        "dt_max": 0.01 if n == 1 else 0.02, "time_budget": time_budget,
        "functional_threshold": 1e5, "field_threshold": 1e8, **thresholds,
    }


# scaling-study Euclidean ladders off the unit coefficients: |alpha1| !=
# |alpha2| (the backend takes real alpha only), so the two fields of a rung
# never share a tridiagonal solve while rungs at one dt share it field by
# field; at a budget of 2 the smallest 1-d rung ends completed, and at 0.2
# the smallest 2-d one does
EUCLID_LADDERS = {
    "unequal_alpha_1d": _euclid_ladder(1, 1.0, 8.0),
    "short_budget_1d": _euclid_ladder(1, 1.0, 2.0),
    "short_2d": _euclid_ladder(2, 14.0, 0.2, functional_threshold=300.0,
                               field_threshold=1e5),
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
    for label, cfg in EUCLID_LADDERS.items():
        yield f"off_unit/euclid_ladder_{label}", "scaling-study", cfg, PACKAGED_SEED


class Structure(Exception):
    """Two files that cannot be compared by value."""


def _rel_drift(a, b) -> float:
    """The largest |a-b|/max(|a|,|b|) of two arrays of one shape; values
    that differ and cannot be scaled so (a NaN or an infinity) count as inf."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        drift = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    drift = np.where(same, 0.0, np.where(np.isnan(drift), np.inf, drift))
    return float(drift.max(initial=0.0))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_numbers(a: str, b: str) -> list:
    """The pairs of numeric cells at the same place of two CSV texts."""
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if rows_a[:1] != rows_b[:1]:
        raise Structure("headers differ")
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        raise Structure("shapes differ")
    pairs = []
    cells_a = (cell for row in rows_a[1:] for cell in row)
    cells_b = (cell for row in rows_b[1:] for cell in row)
    for cell_a, cell_b in zip(cells_a, cells_b):
        x, y = _number(cell_a), _number(cell_b)
        if x is not None and y is not None:
            pairs.append((x, y))
        elif cell_a != cell_b:
            raise Structure(f"cells {cell_a!r} and {cell_b!r} differ")
    return pairs


def _json_numbers(a, b, where="", pairs=None) -> list:
    """The pairs of numbers at the same place of two JSON values."""
    pairs = [] if pairs is None else pairs
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise Structure(f"keys differ at {where or '/'}")
        for key in a:
            _json_numbers(a[key], b[key], f"{where}/{key}", pairs)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Structure(f"lengths differ at {where or '/'}")
        for i, (x, y) in enumerate(zip(a, b)):
            _json_numbers(x, y, f"{where}/{i}", pairs)
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        pairs.append((a, b))
    elif a != b or type(a) is not type(b):
        raise Structure(f"values differ at {where or '/'}")
    return pairs


def _file_drift(name: str, a: bytes, b: bytes) -> float:
    """The largest relative drift between the differing contents ``a`` and
    ``b`` of file ``name``; raises Structure (or ValueError on a file that
    does not parse) when they do not compare by value."""
    if name.endswith(".bin"):
        x, y = np.frombuffer(a, dtype=np.complex128), np.frombuffer(b, dtype=np.complex128)
        if x.shape != y.shape:
            raise Structure("snapshot sizes differ")
        return _rel_drift(x, y)
    if name.endswith(".csv"):
        pairs = _csv_numbers(a.decode(), b.decode())
    elif name.endswith(".json"):
        pairs = _json_numbers(json.loads(a), json.loads(b))
    else:
        raise Structure("contents differ")
    return _rel_drift(*zip(*pairs)) if pairs else 0.0


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def drift(tree_a: str, tree_b: str) -> int:
    """Print how the output trees ``tree_a`` and ``tree_b`` differ; 1 when a
    file is missing or structurally different, else 0."""
    files_a, files_b = _files(tree_a), _files(tree_b)
    identical, drifted, broken = 0, [], 0
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            print(f"{name}: missing in {tree_b if name in files_a else tree_a}")
            broken += 1
            continue
        a, b = _read(os.path.join(tree_a, name)), _read(os.path.join(tree_b, name))
        if a == b:
            identical += 1
            continue
        try:
            value = _file_drift(name, a, b)
        except (Structure, ValueError) as exc:  # a parse error is a ValueError
            print(f"{name}: structurally different: {exc}")
            broken += 1
            continue
        print(f"{name}: max relative drift {value:.3g}")
        drifted.append((value, name))
    largest = " (largest {:.3g} in {})".format(*max(drifted)) if drifted else ""
    print(f"{len(files_a | files_b)} files: {identical} identical, "
          f"{len(drifted)} drifted{largest}, {broken} missing or structurally different")
    return 1 if broken else 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("tree", nargs="?")
    parser.add_argument("outdir", nargs="?")
    parser.add_argument("--drift", nargs=2, metavar=("A", "B"),
                        help="list how two output trees differ, instead of writing one")
    args = parser.parse_args()
    if args.drift:
        return drift(*args.drift)
    if args.outdir is None:
        parser.error("need TREE and OUTDIR, or --drift A B")
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
