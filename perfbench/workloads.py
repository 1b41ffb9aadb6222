"""The four benchmark workloads: which CLI invocations each runs, and the
configs handed to the CLI, generated from the bench seed.

A seed selects one of ``VARIANTS`` input variants per workload, so that every
variant has a stored reference outcome in ``reference.json``.  Variation stays
small and inside each packaged family, so every variant costs about the same
and run-to-run spread measures the program, not the inputs.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
from dataclasses import dataclass

VARIANTS = 8

_UNIT_PARAMS = {
    "alpha1": [-1, 0], "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0],
}

# Copies of the packaged configs in scripts/configs, frozen here so that the
# benchmark's inputs do not change when the packaged ones do.
TESTFN_CHECK = {
    "schema_version": 1, "dimensions": [1, 2, 3], "resolution": 4096,
    "profile_csv": True,
}
ODE_VERIFY = {
    "schema_version": 1, "n_specs": 50, "tol": 1e-10, "blowup_threshold": 1e6,
    "t_end": 4.0, "n_comparison_pairs": 20, "residual_tolerance": 1e-7,
}
TORUS_RATE_CHECK = {
    "schema_version": 1,
    "params": {"n": 1, "p": 2, "q": 2, **_UNIT_PARAMS},
    "grid": {"modes": 256},
    "data": {"kind": "constant", "u": [1, 0], "v": [1, 0]},
    "dt": {"dt_max": 0.001, "safety": 0.05},
    "t_end": 5.0,
    "field_threshold": 168000.0,
}
SCALING_TORUS = {
    "schema_version": 1, "mode": "torus_homogeneous",
    "params": {"n": 1, "p": 2, "q": 2, **_UNIT_PARAMS},
    "epsilon": {"start": 0.5, "factor": 1.3, "count": 6},
    "modes": 32, "dt_max": 0.001, "time_budget": 30.0,
    "field_threshold": 1e6, "slope_tolerance": 0.10,
}
EUCLID_SUITE = {
    "schema_version": 1,
    "params": {"n": 1, "p": 2, "q": 1.5, **_UNIT_PARAMS},
    "R": 8.0, "box_half_width": 16.0, "points_per_R": 128,
    "data": {"epsilon": 0.55, "r_data": 2.0, "amp_u": 1.0, "amp_v": 0.5,
             "shape": "weight"},
    "scheme": "imex",
    "dt": {"dt_max": 0.002, "safety": 0.05},
    "t_end": 30.0, "functional_threshold": 1e9, "field_threshold": 1e13,
    "odi_cap": 1e5,
}
SCALING_EUCLID = {
    "schema_version": 1, "mode": "euclid",
    "params": {"n": 1, "p": 2, "q": 2, **_UNIT_PARAMS},
    "epsilon": {"start": 0.30, "factor": 1.2, "count": 6},
    "R": 6.0, "box_half_width": 40.0, "h": 0.09375, "r_data": 1.0,
    "dt_max": 0.005, "time_budget": 120.0, "functional_threshold": 1e6,
    "field_threshold": 1e10, "slope_tolerance": 0.15,
}

# ode-verify samples this many specs instead of the packaged 50, so that one
# pass runs for a few seconds.
ODE_SPECS = 300

# The packaged Euclidean ladder takes about 20 s; shortened within its family
# (five rungs from a larger epsilon on a 16-wide box) it takes about 2.5 s, so a
# run times several passes.  Its slope still matches the prediction (-1.80
# against -2, tolerance 0.15).
EUCLID_LADDER = {"epsilon": {"start": 0.80, "factor": 1.2, "count": 5},
                 "box_half_width": 16.0}


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload pass."""

    label: str
    command: str
    config: dict
    cli_seed: int

    def config_digest(self) -> str:
        text = json.dumps(self.config, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _jitter(rng: random.Random, value: float) -> float:
    # 0.5% keeps the variants' cost within about 2% of each other; a ladder's
    # time to blow-up grows like a power of 1/epsilon
    return value * (1.0 + rng.uniform(-0.005, 0.005))


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of ``workload`` for bench seed ``seed``."""
    variant = variant_of(seed)
    rng = random.Random(f"{workload}/{variant}")
    cli_seed = rng.randrange(1, 2 ** 31)
    if workload == "ode_sweep":
        ode = {**ODE_VERIFY, "n_specs": ODE_SPECS}
        return [
            Invocation("testfn_check", "testfn-check", TESTFN_CHECK, cli_seed),
            Invocation("ode_verify", "ode-verify", ode, cli_seed),
        ]
    if workload == "torus_1d":
        ladder = copy.deepcopy(SCALING_TORUS)
        ladder["epsilon"]["start"] = _jitter(rng, ladder["epsilon"]["start"])
        return [
            Invocation("torus_run", "torus-run", TORUS_RATE_CHECK, cli_seed),
            Invocation("torus_ladder", "scaling-study", ladder, cli_seed),
        ]
    if workload == "euclid_1d":
        ladder = {**copy.deepcopy(SCALING_EUCLID), **copy.deepcopy(EUCLID_LADDER)}
        ladder["epsilon"]["start"] = _jitter(rng, ladder["epsilon"]["start"])
        return [
            Invocation("euclid_run", "euclid-run", EUCLID_SUITE, cli_seed),
            Invocation("euclid_ladder", "scaling-study", ladder, cli_seed),
        ]
    if workload == "grid_2d":
        return [
            Invocation("torus_2d", "torus-run", _torus_2d(rng), cli_seed),
            Invocation("euclid_2d", "euclid-run", _euclid_2d(rng), cli_seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _torus_2d(rng: random.Random) -> dict:
    # constant state plus a cos(x) mode, so the fields are not constant; the
    # amplitude is large enough that blow-up comes within about 500 steps
    return {
        "schema_version": 1,
        "params": {"n": 2, "p": 2, "q": 2, **_UNIT_PARAMS},
        "grid": {"modes": 64},
        "pad": True,
        "data": {
            "kind": "constant_plus_mode",
            "u": [_jitter(rng, 3.0), 0],
            "v": [_jitter(rng, 2.9), 0],
            "perturbation": [_jitter(rng, 0.3), 0],
        },
        "dt": {"dt_max": 0.001, "safety": 0.05},
        "t_end": 5.0,
        "field_threshold": 1e6,
    }


def _euclid_2d(rng: random.Random) -> dict:
    # the smallest grid the spec allows: h = R/64 on a box of half-width 2R;
    # a large epsilon and a loose step safety keep the run to a few seconds
    R = 4.0
    return {
        "schema_version": 1,
        "params": {"n": 2, "p": 2, "q": 1.5, **_UNIT_PARAMS},
        "R": R, "box_half_width": 2.0 * R, "h": R / 64.0,
        "data": {"epsilon": _jitter(rng, 5.0), "r_data": _jitter(rng, 2.0),
                 "amp_u": 1.0, "amp_v": _jitter(rng, 0.8), "shape": "gaussian"},
        "scheme": "imex",
        "dt": {"dt_max": 0.01, "safety": 0.3},
        "t_end": 30.0, "functional_threshold": 1e6, "field_threshold": 1e10,
        "odi_cap": 1e5,
    }


def write_configs(invs: list[Invocation], directory: str) -> list[str]:
    """Write each invocation's config as JSON; returns the paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for inv in invs:
        path = os.path.join(directory, f"{inv.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh, indent=1, sort_keys=True)
        paths.append(path)
    return paths
