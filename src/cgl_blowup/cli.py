"""Configuration-driven batch runner.

Subcommands: ode-verify, torus-run, euclid-run, scaling-study, testfn-check.
Every run takes a JSON config (schema_version 1), an output directory and a
seed for parameter sampling, and runs in the calling process.  Outputs are
flat CSV/JSON files written with 17 significant digits; identical config and
seed reproduce them byte for byte.

Exit codes: 0 all checks pass, 1 verification failure, 2 config error,
3 runtime/overflow error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import euclid, ode_core, ratefit, testfn, torus
from .errors import IntegrationError, ValidationError
from .sampling import sample_coupled_spec, sample_coupled_specs
from .serialize import write_csv, write_json
from .system import FunctionalSeries, SystemParams

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing

def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if _get(cfg, "schema_version", int) != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    return cfg


REQUIRED = object()


def _get(block, key, kind=float, default=REQUIRED):
    """``block[key]`` checked as ``kind``, or ``default`` if it is absent.

    float: a finite number (an int is accepted), returned as a float;
    complex: such a number or an [re, im] pair of them; int: an integer;
    bool, str, dict, list: that JSON type.  A bool is never a number.
    """
    try:
        value = block[key]
    except (KeyError, IndexError):
        if default is REQUIRED:
            raise ConfigError(f"config key {key!r} is required") from None
        return default
    if kind is complex and isinstance(value, list) and len(value) == 2:
        return complex(_get(value, 0), _get(value, 1))
    if isinstance(value, bool) == (kind is bool):
        if kind in (float, complex):
            if isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
                return kind(value)
        elif isinstance(value, kind):
            return value
    raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}")


def _parse_params(cfg) -> SystemParams:
    block = _get(cfg, "params", dict)
    return SystemParams(
        n=_get(block, "n", int),
        p=_get(block, "p"),
        q=_get(block, "q"),
        alpha1=_get(block, "alpha1", complex),
        alpha2=_get(block, "alpha2", complex),
        beta1=_get(block, "beta1", complex),
        beta2=_get(block, "beta2", complex),
    )


def _write_report(out_dir, report):
    """report.json: the schema version and the build info, then ``report``."""
    from . import __version__

    write_json(os.path.join(out_dir, "report.json"), {
        "schema_version": SCHEMA_VERSION,
        "build_info": {"package": "cgl-blowup", "version": __version__},
        **report,
    })


# ---------------------------------------------------------------------------
# ode-verify

def _ode_case(spec, traj):
    if spec.omega > 0:
        report = ode_core.damped_bounds(spec)
    else:
        report = ode_core.undamped_bounds(spec)
    row = {
        "p": spec.p, "q": spec.q, "C_p": spec.C_p, "C_q": spec.C_q,
        "omega": spec.omega, "f0": spec.f0, "g0": spec.g0,
        "status": traj.status,
        "escape_time": traj.escape_time(),
        "hypothesis_satisfied": report.hypothesis_satisfied,
        "lifespan_bound": report.lifespan_bound,
        "residual_literal": ode_core.conserved_residual(traj, spec),
        "residual_scaled": ode_core.conserved_residual_scaled(traj, spec),
        "monotone": bool(
            spec.omega > 0
            or (np.all(np.diff(traj.f) >= 0) and np.all(np.diff(traj.g) >= 0))
        ),
        "bound_respected": True,
        "curve_dominated": True,
    }
    if report.hypothesis_satisfied:
        # step collapse near blow-up still certifies the time ordering
        if traj.status in (ode_core.BLOWUP, ode_core.STEP_COLLAPSE):
            row["bound_respected"] = bool(traj.times[-1] <= report.lifespan_bound)
        curve = np.array([report.lower_bound_curve(t) for t in traj.times])
        row["curve_dominated"] = bool(
            np.all(traj.g >= curve - 1e-9 * (1 + traj.g))
        )
    return row


def cmd_ode_verify(cfg, out_dir, seed):
    n_specs = _get(cfg, "n_specs", int, 50)
    tol = _get(cfg, "tol", float, 1e-10)
    threshold = _get(cfg, "blowup_threshold", float, 1e6)
    t_end = _get(cfg, "t_end", float, 4.0)
    n_pairs = _get(cfg, "n_comparison_pairs", int, 20)
    residual_tolerance = _get(cfg, "residual_tolerance", float, 1e-7)
    if n_specs < 1 or n_pairs < 0 or residual_tolerance <= 0:
        raise ConfigError("need n_specs >= 1, n_comparison_pairs >= 0 "
                          "and residual_tolerance > 0")

    # one lockstep march; each trajectory becomes its row as it finishes
    specs = sample_coupled_specs(seed, n_specs)
    rows = [None] * n_specs
    for i, traj in ode_core.integrate_lockstep(specs, t_end, tol, threshold):
        rows[i] = _ode_case(specs[i], traj)

    # worked symmetric case: exact blow-up 1/3 against bound 2^(4/3)/3
    worked_spec = ode_core.CoupledODESpec(
        p=2, q=2, C_p=1, C_q=1, omega=0, f0=1, g0=1
    )
    worked_traj = ode_core.integrate_coupled(
        worked_spec, t_end=4.0, tol=tol, blowup_threshold=threshold
    )
    worked_lifespan = ode_core.tail_corrected_lifespan(worked_traj, worked_spec)
    worked_bound = ode_core.undamped_bounds(worked_spec).lifespan_bound
    worked = {
        "lifespan": worked_lifespan,
        "bound": worked_bound,
        "exact": 1.0 / 3.0,
        "within_tolerance": bool(abs(worked_lifespan - 1.0 / 3.0) <= 1e-4),
        "bound_respected": bool(worked_lifespan <= worked_bound),
    }

    # ordered-data comparison pairs; the shrinks continue the specs' stream,
    # so that none repeats a spec's draws
    comparison_failures = []
    rng = np.random.default_rng(seed + 1)
    pair_specs = [sample_coupled_spec(rng) for _ in range(n_pairs)]
    shrinks = [float(rng.uniform(0.9, 0.99)) for _ in range(n_pairs)]
    # run 2i is pair i's upper run and run 2i + 1 its shrunk lower run
    runs = dict(ode_core.integrate_lockstep(
        [run for spec, shrink in zip(pair_specs, shrinks)
         for run in (spec, replace(spec, f0=spec.f0 * shrink, g0=spec.g0 * shrink))],
        t_end, tol, 1e5))
    for i, spec in enumerate(pair_specs):
        verdict = ode_core.check_comparison(runs[2 * i + 1], runs[2 * i], spec)
        if not verdict.passed:
            comparison_failures.append(
                {"index": i, "time": verdict.first_violation_time,
                 "component": verdict.component}
            )

    checks = [
        {
            "name": f"conserved_identity_{kind}",
            "passed": bool(all(r[f"residual_{kind}"] < residual_tolerance
                               for r in rows)),
            "max_value": max(r[f"residual_{kind}"] for r in rows),
            "tolerance": residual_tolerance,
        }
        for kind in ("literal", "scaled")
    ]
    checks.append({
        "name": "worked_symmetric_case",
        "passed": bool(worked["within_tolerance"] and worked["bound_respected"]),
    })
    checks += [{"name": name, "passed": bool(all(r[key] for r in rows))}
               for name, key in (("lifespan_bounds_dominate", "bound_respected"),
                                 ("lower_bound_curves_dominated", "curve_dominated"),
                                 ("undamped_monotonicity", "monotone"))]
    checks.append({
        "name": "ordered_data_comparison",
        "passed": not comparison_failures,
        "failures": comparison_failures,
    })
    all_passed = all(c["passed"] for c in checks)

    failing = [
        {k: r[k] for k in ("p", "q", "C_p", "C_q", "omega", "f0", "g0",
                           "residual_literal", "residual_scaled",
                           "bound_respected", "curve_dominated", "monotone")}
        for r in rows
        if (r["residual_literal"] >= residual_tolerance
            or not r["bound_respected"] or not r["curve_dominated"]
            or not r["monotone"])
    ]
    report = {
        "seed": seed,
        "n_specs": n_specs,
        "checks": checks,
        "worked_case": worked,
        "failing_cases": failing[:10],
        "all_passed": bool(all_passed),
    }
    _write_report(out_dir, report)

    cols = ["p", "q", "C_p", "C_q", "omega", "f0", "g0", "escape_time",
            "lifespan_bound", "residual_literal", "residual_scaled"]
    data = [[(r[c] if r[c] is not None else math.nan) for r in rows] for c in cols]
    write_csv(os.path.join(out_dir, "specs.csv"), ",".join(cols), data)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# torus-run

def _torus_state_from_config(cfg, grid):
    block = _get(cfg, "data", dict)
    kind = _get(block, "kind", str)
    x = grid.axes()[0]
    if grid.n > 1:
        x, _ = np.meshgrid(x, x, indexing="ij")  # first coordinate, whole grid
    if kind == "constant":
        cu = _get(block, "u", complex)
        cv = _get(block, "v", complex)
        return torus.constant_state(grid, cu, cv)
    if kind == "fourier_mode":
        amp = _get(block, "amplitude", complex)
        mode = _get(block, "mode", int, 1)
        field = amp * np.exp(1j * mode * x)
        return torus.state_from_arrays(grid, field, field)
    if kind == "constant_plus_mode":
        cu = _get(block, "u", complex)
        cv = _get(block, "v", complex)
        bump = _get(block, "perturbation", complex, 0j) * np.cos(x)
        return torus.state_from_arrays(grid, cu + bump, cv + bump)
    raise ConfigError(f"unknown torus data kind {kind!r}")


def cmd_torus_run(cfg, out_dir, seed):
    params = _parse_params(cfg)
    grid_cfg = _get(cfg, "grid", dict, {})
    grid = torus.make_grid(params.n, _get(grid_cfg, "modes", int, None))
    state = _torus_state_from_config(cfg, grid)
    dt_cfg = _get(cfg, "dt", dict, {})
    snapshots = _get(cfg, "snapshots", bool, False)
    run = torus.run_torus(
        params, state,
        t_end=_get(cfg, "t_end"),
        dt_max=_get(dt_cfg, "dt_max", float, 1e-3),
        field_threshold=_get(cfg, "field_threshold", float, 1e6),
        dt_safety=_get(dt_cfg, "safety", float, 0.05),
        pad=_get(cfg, "pad", bool, False),
    )
    series = run.series
    series.to_csv(os.path.join(out_dir, "functionals.csv"))

    odi = torus.check_growth_inequality(series, params)
    bounds = torus.blowup_bounds(params, float(series.U[0]), float(series.V[0]))
    bound_samples = _bound_sample_times(bounds)
    fit = None
    if run.status == ode_core.BLOWUP:
        fit = ratefit.fit_trailing_decade(series.times, series.U)

    escape = run.escape_time()
    bound_ok = True
    if bounds.hypothesis_satisfied and escape is not None:
        bound_ok = bool(escape <= bounds.lifespan_bound)
    zero_mode_ok = bool(run.lap_zero_mode_max < 1e-12)

    report = {
        "status": run.status,
        "escape_time": escape,
        "lap_zero_mode_max": run.lap_zero_mode_max,
        "bounds": bounds.to_json_dict(bound_samples),
        "odi": odi.to_json_dict(),
        "fit_U": fit.to_json_dict() if fit else None,
        "exponent_caveat": bool(params.exponent_caveat),
        "checks": {
            "odi_clean": odi.passed,
            "bound_respected": bound_ok,
            "zero_mode_exact": zero_mode_ok,
        },
    }
    _write_report(out_dir, report)
    _write_plots(out_dir, "functionals.csv", "t", ["U", "V"], [
        {"gamma": params.rates[0], "label": "U rate"},
        {"gamma": params.rates[1], "label": "V rate"},
    ], yscale="log")
    if snapshots:
        _write_snapshot(out_dir, "final_state", run.final_state.u,
                        run.final_state.v, run.final_state.t)
    ok = odi.passed and bound_ok and zero_mode_ok
    return EXIT_OK if ok else EXIT_VERIFICATION


def _write_plots(out_dir, csv, x, series, reference_slopes, **scales):
    """The plots.json sidecar: one plot of ``series`` against ``x`` from
    ``csv``, with axis scales given as ``xscale=``/``yscale=``."""
    write_json(os.path.join(out_dir, "plots.json"), {
        "schema_version": SCHEMA_VERSION,
        "plots": [{"csv": csv, "x": x, "series": series, **scales,
                   "reference_slopes": reference_slopes}],
    })


def _bound_sample_times(bounds, count: int = 33):
    """Sample grid for the lower-bound curve, stopping short of its pole."""
    if not (bounds.hypothesis_satisfied and math.isfinite(bounds.lifespan_bound)):
        return None
    return np.linspace(0.0, 0.99 * bounds.lifespan_bound, count)


def _write_snapshot(out_dir, name, u, v, t):
    path_u = os.path.join(out_dir, f"{name}_u.bin")
    path_v = os.path.join(out_dir, f"{name}_v.bin")
    np.ascontiguousarray(u).tofile(path_u)
    np.ascontiguousarray(v).tofile(path_v)
    write_json(os.path.join(out_dir, f"{name}.json"), {
        "schema_version": SCHEMA_VERSION,
        "time": float(t),
        "dtype": "complex128",
        "layout": "C",
        "shape": list(u.shape),
        "files": {"u": f"{name}_u.bin", "v": f"{name}_v.bin"},
    })


# ---------------------------------------------------------------------------
# euclid-run

def _parse_euclid_spec(cfg, params, data_cfg, epsilon, r_data=REQUIRED,
                       h=REQUIRED, shape="weight", scheme="imex"):
    """The validated run spec: R, box_half_width and h read from ``cfg``,
    r_data and the amplitudes from ``data_cfg``.  ``r_data`` and ``h`` are
    the defaults for absent keys; h None means R / points_per_R."""
    R = _get(cfg, "R")
    h = _get(cfg, "h", float, h)
    if h is None:
        points = _get(cfg, "points_per_R", float, 128)
        if points <= 0:
            raise ConfigError("points_per_R must be positive")
        h = R / points
    return euclid.EuclidRunSpec(
        params=params,
        R=R,
        box_half_width=_get(cfg, "box_half_width"),
        h=h,
        data=euclid.DataSpec(
            epsilon=epsilon,
            r_data=_get(data_cfg, "r_data", float, r_data),
            amp_u=_get(data_cfg, "amp_u", float, 1.0),
            amp_v=_get(data_cfg, "amp_v", float, 1.0),
            shape=shape,
        ),
        scheme=scheme,
    )


def cmd_euclid_run(cfg, out_dir, seed):
    data_cfg = _get(cfg, "data", dict)
    spec = _parse_euclid_spec(
        cfg, _parse_params(cfg), data_cfg, _get(data_cfg, "epsilon"), h=None,
        shape=_get(data_cfg, "shape", str, "weight"),
        scheme=_get(cfg, "scheme", str, "imex"),
    )
    dt_cfg = _get(cfg, "dt", dict, {})
    odi_cap = _get(cfg, "odi_cap", float, 1e5)
    run = euclid.run_euclid(
        spec,
        t_end=_get(cfg, "t_end"),
        dt_max=_get(dt_cfg, "dt_max", float, 2e-3),
        functional_threshold=_get(cfg, "functional_threshold", float, 1e5),
        field_threshold=_get(cfg, "field_threshold", float, 1e7),
        dt_safety=_get(dt_cfg, "safety", float, 0.05),
    )
    series = run.series
    series.to_csv(os.path.join(out_dir, "functionals.csv"))
    U0, V0 = float(series.U[0]), float(series.V[0])

    bounds = euclid.blowup_bounds(spec, U0, V0)
    write_json(os.path.join(out_dir, "thresholds.json"), {
        "schema_version": SCHEMA_VERSION,
        **bounds.thresholds.to_json_dict(),
        "T1": bounds.T1,
    })

    cap_mask = (series.U <= odi_cap) & (series.V <= odi_cap)
    capped = _mask_series(series, cap_mask)
    odi = euclid.check_weighted_growth_inequality(capped, spec)
    # a cap below the initial functionals leaves no node to check
    odi_ok = odi.passed and odi.n_checked > 0

    gamma_u, gamma_v = spec.params.rates
    escape, escape_corrected = _functional_escape(series, odi_cap, gamma_u, gamma_v)
    bound_ok = True
    if bounds.hypothesis_satisfied and escape_corrected is not None:
        bound_ok = bool(escape_corrected <= bounds.lifespan_bound)

    fits = {}
    for label, column, target in (
        ("U", series.U, gamma_u),
        ("V", series.V, gamma_v),
    ):
        # a rate is only measured on a run that blew up
        fit = (ratefit.fit_trailing_decade(series.times, column)
               if run.status == ode_core.BLOWUP else None)
        fits[label] = {**fit.to_json_dict(), "target_gamma": target} if fit else None

    report = {
        "status": run.status,
        "U0": U0,
        "V0": V0,
        "escape_time": escape,
        "escape_time_tail_corrected": escape_corrected,
        "bounds": bounds.to_json_dict(_bound_sample_times(bounds)),
        "odi": odi.to_json_dict(),
        "odi_cap": odi_cap,
        "fits": fits,
        "exponent_caveat": bool(spec.params.exponent_caveat),
        "checks": {
            "odi_clean": odi_ok,
            "bound_respected": bound_ok,
        },
    }
    _write_report(out_dir, report)
    _write_plots(out_dir, "functionals.csv", "t", ["U", "V"],
                 [{"gamma": gamma_u, "label": "U rate"}], yscale="log")
    return EXIT_OK if odi_ok and bound_ok else EXIT_VERIFICATION


def _mask_series(series, mask):
    if mask.all():
        return series
    cut = np.nonzero(~mask)[0][0]
    return FunctionalSeries(
        times=series.times[:cut], U=series.U[:cut], V=series.V[:cut],
        dU=series.dU[:cut], dV=series.dV[:cut],
    )


def _functional_escape(series, threshold, gamma_u, gamma_v):
    """First crossing of the threshold by max(U, V), plus the power-law tail
    correction gamma * w / w' of the crossing functional, making the estimate
    threshold-insensitive."""
    above = np.nonzero(np.maximum(series.U, series.V) >= threshold)[0]
    if above.size == 0:
        return None, None
    i = int(above[0])
    t = float(series.times[i])
    if series.U[i] >= series.V[i]:
        w, dw, gamma = float(series.U[i]), float(series.dU[i]), gamma_u
    else:
        w, dw, gamma = float(series.V[i]), float(series.dV[i]), gamma_v
    corrected = t + gamma * w / dw if dw > 0 else t
    return t, corrected


# ---------------------------------------------------------------------------
# scaling-study

def _scaling_epsilons(cfg):
    block = _get(cfg, "epsilon", dict)
    start = _get(block, "start")
    factor = _get(block, "factor")
    count = _get(block, "count", int)
    if count < 5:
        raise ConfigError("epsilon ladder needs at least 5 points")
    if not start > 0:
        raise ConfigError("epsilon start must be positive")
    if not (0 < factor != 1.0):
        raise ConfigError("epsilon factor must be positive and != 1")
    return [start * factor ** k for k in range(count)]


def _ladder_point(eps, run):
    """One rung of the epsilon ladder: the blow-up time fitted on the
    trailing decade of U, or the last time when the fit fails."""
    if run.status != ode_core.BLOWUP:
        return {"epsilon": eps, "complete": False, "T": math.nan}
    fit = ratefit.fit_trailing_decade(run.series.times, run.series.U)
    t_star = fit.t_star if fit else float(run.series.times[-1])
    return {"epsilon": eps, "complete": True, "T": t_star}


def _slope_tolerance(cfg, default):
    tolerance = _get(cfg, "slope_tolerance", float, default)
    if tolerance <= 0:
        raise ConfigError("slope_tolerance must be positive")
    return tolerance


def cmd_scaling_study(cfg, out_dir, seed):
    mode = _get(cfg, "mode", str)
    if mode not in ("euclid", "torus_homogeneous"):
        raise ConfigError(f"unknown scaling mode {mode!r}")
    params = _parse_params(cfg)
    if params.alpha1.real >= 0 or params.alpha2.real >= 0:
        raise ConfigError("scaling study requires dissipative alpha")
    n, p, q = params.n, params.p, params.q
    gap = params.rates[0] - n / 2.0
    epsilons = _scaling_epsilons(cfg)
    t_end = _get(cfg, "time_budget", float, 200.0)
    # the rungs march in lockstep, as one batch
    if mode == "euclid":
        if gap <= 0:
            raise ConfigError(
                "critical or supercritical exponents: (p+1)/(pq-1) must exceed n/2"
            )
        predicted = -1.0 / gap
        tolerance = _slope_tolerance(cfg, 0.15)
        spec = _parse_euclid_spec(cfg, params, cfg, epsilons[0], r_data=1.0)
        rungs = [replace(spec, data=replace(spec.data, epsilon=eps)) for eps in epsilons]
        runs = euclid.run_euclid(
            spec, t_end, dt_max=_get(cfg, "dt_max", float, 2e-3),
            functional_threshold=_get(cfg, "functional_threshold", float, 1e6),
            field_threshold=_get(cfg, "field_threshold", float, 1e10),
            state=euclid.stack_states([euclid.make_initial_state(s) for s in rungs]))
    else:
        predicted = -(p * q - 1.0) / (p + 1.0)
        tolerance = _slope_tolerance(cfg, 0.10)
        grid = torus.make_grid(n, _get(cfg, "modes", int, 32))
        runs = torus.run_torus(
            params, t_end=t_end, dt_max=_get(cfg, "dt_max", float, 1e-3),
            field_threshold=_get(cfg, "field_threshold", float, 1e6), check_zero_mode=False,
            state=torus.stack_states([torus.constant_state(grid, eps, eps)
                                      for eps in epsilons]))
    results = [_ladder_point(eps, r) for eps, r in zip(epsilons, runs)]

    complete = [r for r in results if r["complete"]]
    write_csv(
        os.path.join(out_dir, "runs.csv"),
        "epsilon,T,complete",
        [
            [r["epsilon"] for r in results],
            [r["T"] for r in results],
            [1.0 if r["complete"] else 0.0 for r in results],
        ],
    )
    if len(complete) < 4:
        _write_report(out_dir, {
            "mode": mode,
            "error": "fewer than 4 complete runs",
            "n_complete": len(complete),
        })
        return EXIT_VERIFICATION

    log_eps = np.log([r["epsilon"] for r in complete])
    log_t = np.log([r["T"] for r in complete])
    slope, _, ss, sxx = ratefit.least_squares(log_eps, log_t)
    dof = max(len(complete) - 2, 1)
    stderr = float(np.sqrt(ss / dof / sxx))
    from scipy.special import stdtrit  # imported by the runs that fit a slope

    half_width = float(stdtrit(dof, 0.975)) * stderr
    rel_err = abs(slope - predicted) / abs(predicted)
    matches = bool(rel_err <= tolerance)

    report = {
        "mode": mode,
        "n_complete": len(complete),
        "slope": slope,
        "slope_stderr": stderr,
        "slope_ci95": [slope - half_width, slope + half_width],
        "predicted_slope": predicted,
        "relative_error": rel_err,
        "tolerance": tolerance,
        "matches_prediction": matches,
    }
    _write_report(out_dir, report)
    _write_plots(out_dir, "runs.csv", "epsilon", ["T"],
                 [{"slope": predicted, "label": "predicted"}],
                 xscale="log", yscale="log")
    return EXIT_OK if matches else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# testfn-check

def cmd_testfn_check(cfg, out_dir, seed):
    dims = _get(cfg, "dimensions", list, [1, 2])
    if not dims:
        raise ConfigError("dimensions must be a non-empty list of integers")
    resolution = _get(cfg, "resolution", int, 4096)
    profile_csv = _get(cfg, "profile_csv", bool, True)
    # every weight is built, so every dimension checked, before any output
    tfs = [testfn.build_test_function(_get(dims, i, int)) for i in range(len(dims))]
    entries = []
    ok = True
    for n, tf in zip(dims, tfs):
        violation = testfn.verify_phi_inequality(tf, resolution)
        tol = 1e-10 if n == 1 else 1e-8
        passed = bool(violation <= tol)
        ok = ok and passed
        entries.append({
            "n": n,
            "lambda": tf.lam,
            "lambda_eff": tf.lambda_eff,
            "l1_norm": tf.l1_norm,
            "bessel_zero": tf.bessel_zero,
            "max_violation": violation,
            "tolerance": tol,
            "passed": passed,
        })
        if profile_csv:
            tf.to_csv(os.path.join(out_dir, f"profile_n{n}.csv"),
                      resolution=min(resolution, 4096))
    _write_report(out_dir, {
        "dimensions": entries,
        "all_passed": bool(ok),
    })
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "ode-verify": cmd_ode_verify,
    "torus-run": cmd_torus_run,
    "euclid-run": cmd_euclid_run,
    "scaling-study": cmd_scaling_study,
    "testfn-check": cmd_testfn_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cgl-blowup",
        description="Blow-up verification runs for weakly coupled systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workers", type=int, default=1,
                        help="ignored: every run uses this process")

    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    created = not os.path.exists(args.out)
    try:
        cfg = _load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # e.g. --out names a file or lies below one
            raise ConfigError(f"cannot create --out {args.out}: {exc.strerror}") from None
        code = _COMMANDS[args.command](cfg, args.out, args.seed)
    except (ConfigError, ValidationError, MemoryError) as exc:
        # MemoryError: the config asks for arrays too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except IntegrationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        code = EXIT_RUNTIME
    # a run that failed before writing anything leaves no empty --out behind
    if created and os.path.isdir(args.out) and not os.listdir(args.out):
        os.rmdir(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
