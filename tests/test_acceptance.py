"""End-to-end acceptance suite.

Each test prints one `[criterion N] PASS/FAIL` line (run pytest with -s to
see them) and enforces the stated tolerance and runtime budget.

Criterion 1 checks the conserved identity (C_q f^{q+1} - C_p g^{p+1})e^{wt}
up to amplitude 1e6.  Its drift is DP5 truncation error, about 100 x tol
in the scale-normalized residual (normalized by the size of the terms
being differenced).  The residual normalized by the initial constant alone
is only reported: at amplitude 1e6 the float64 storage floor of the
trajectory nodes, eps*((q+1)F+(p+1)G)e^{wt}, is already above 1e-7 in that
normalization, and the truncation error lies 1e2-1e7 times above that
floor.  So the test asserts the scale-normalized residual < 1e-7 at tol
1e-10 and that it shrinks at least 10-fold at tol 1e-12, which a wrong
right-hand side would not allow.  See the acceptance-status section of the
README.
"""

import math
import time

import numpy as np
import pytest

from cgl_blowup import euclid, ode_core, ratefit, testfn, torus
from cgl_blowup.cli import main as cli_main
from cgl_blowup.sampling import sample_coupled_specs, sample_hypothesis_specs
from cgl_blowup.serialize import write_json
from cgl_blowup.system import FunctionalSeries, SystemParams

SEED = 20240809


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_1_conserved_identity_suite():
    t0 = time.monotonic()
    specs = sample_coupled_specs(SEED, 50)
    literal = []
    scaled = []
    scaled_fine = []
    for spec in specs:
        traj = ode_core.integrate_coupled(
            spec, t_end=4.0, tol=1e-10, blowup_threshold=1e6
        )
        literal.append(ode_core.conserved_residual(traj, spec))
        scaled.append(ode_core.conserved_residual_scaled(traj, spec))
        fine = ode_core.integrate_coupled(
            spec, t_end=4.0, tol=1e-12, blowup_threshold=1e6
        )
        scaled_fine.append(ode_core.conserved_residual_scaled(fine, spec))
    elapsed = time.monotonic() - t0
    max_lit = max(literal)
    max_sca = max(scaled)
    reduction = max_sca / max(scaled_fine)
    ok = max_sca < 1e-7 and reduction >= 10.0 and elapsed < 10.0
    _report(
        1, ok,
        f"max scale-normalized residual {max_sca:.3e} at tol 1e-10, "
        f"{reduction:.1f}-fold smaller at tol 1e-12 "
        f"(fixed-normalization {max_lit:.3e}), runtime {elapsed:.2f}s",
    )
    assert elapsed < 10.0
    # the drift is small against the terms being differenced
    assert max_sca < 1e-7
    # and it is integration error: a 100-fold tighter tolerance shrinks it
    # (about 40-fold), which a wrong right-hand side would not allow
    assert reduction >= 10.0


def test_criterion_2_worked_symmetric_case():
    t0 = time.monotonic()
    spec = ode_core.CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=0, f0=1, g0=1)
    traj = ode_core.integrate_coupled(spec, t_end=4.0, tol=1e-10,
                                      blowup_threshold=1e6)
    lifespan = ode_core.tail_corrected_lifespan(traj, spec)
    bound = ode_core.undamped_bounds(spec).lifespan_bound
    elapsed = time.monotonic() - t0
    ok = (
        abs(lifespan - 1.0 / 3.0) <= 1e-4
        and lifespan <= bound
        and bound == pytest.approx(2 ** (4 / 3) / 3, rel=1e-12)
        and elapsed < 1.0
    )
    _report(2, ok, f"lifespan {lifespan:.9f} (exact 1/3), bound {bound:.6f}, "
                   f"runtime {elapsed:.2f}s")
    assert ok


def test_criterion_3_bound_dominance_sweep():
    t0 = time.monotonic()
    specs = sample_hypothesis_specs(SEED, 20)
    assert any(s.omega == 0 for s in specs)
    assert any(s.omega > 0 for s in specs)
    worst_gap = math.inf
    n_collapsed = 0
    for spec in specs:
        report = (ode_core.damped_bounds(spec) if spec.omega > 0
                  else ode_core.undamped_bounds(spec))
        traj = ode_core.integrate_coupled(
            spec, t_end=4.0 * report.lifespan_bound, tol=1e-12,
            blowup_threshold=1e6,
        )
        # for large exponents the step toward amplitude 1e6 falls below
        # double time resolution; the run then ends by step collapse deep
        # in the escape regime, with the same time ordering to verify
        if traj.status == ode_core.STEP_COLLAPSE:
            n_collapsed += 1
            assert traj.values[-1].max() >= 1e3
        else:
            assert traj.status == ode_core.BLOWUP
            lifespan = ode_core.tail_corrected_lifespan(traj, spec)
            assert lifespan <= report.lifespan_bound * (1 + 1e-9)
        assert traj.times[-1] <= report.lifespan_bound
        curve = report.lower_bound_curve(traj.times)
        margin = traj.g - (curve - 1e-9)
        assert np.all(margin >= 0)
        worst_gap = min(worst_gap, report.lifespan_bound - traj.times[-1])
    elapsed = time.monotonic() - t0
    ok = elapsed < 30.0
    _report(3, ok, f"20 hypothesis-satisfying runs dominated "
                   f"({n_collapsed} ended by step collapse); smallest "
                   f"bound gap {worst_gap:.3e}, runtime {elapsed:.2f}s")
    assert ok


def test_criterion_4_comparison_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    specs = sample_coupled_specs(SEED + 4, 20)
    for spec in specs:
        shrink = float(rng.uniform(0.9, 0.99))
        sub_spec = ode_core.CoupledODESpec(
            p=spec.p, q=spec.q, C_p=spec.C_p, C_q=spec.C_q, omega=spec.omega,
            f0=spec.f0 * shrink, g0=spec.g0 * shrink,
        )
        sup = ode_core.integrate_coupled(spec, t_end=3.0, tol=1e-11,
                                         blowup_threshold=1e5)
        sub = ode_core.integrate_coupled(sub_spec, t_end=3.0, tol=1e-11,
                                         blowup_threshold=1e5)
        verdict = ode_core.check_comparison(sub, sup, spec)
        assert verdict.passed, f"ordering broke at t={verdict.first_violation_time}"
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    _report(4, ok, f"20 ordered pairs stayed strictly ordered, "
                   f"runtime {elapsed:.2f}s")
    assert ok


def test_criterion_5_test_function():
    t0 = time.monotonic()
    tf1 = testfn.build_test_function(1)
    tf2 = testfn.build_test_function(2)
    v1 = testfn.verify_phi_inequality(tf1, 4096)
    v2 = testfn.verify_phi_inequality(tf2, 4096)
    elapsed = time.monotonic() - t0
    ok = (
        abs(tf1.lam - math.pi ** 2 / 4) <= 1e-10
        and abs(tf1.l1_norm - 1.0) <= 1e-10
        and v1 <= 1e-8
        and v2 <= 1e-8
        and elapsed < 1.0
    )
    _report(5, ok, f"lambda {tf1.lam:.12f}, l1 {tf1.l1_norm:.12f}, "
                   f"violations ({v1:.2e}, {v2:.2e}), runtime {elapsed:.2f}s")
    assert ok


def test_criterion_6_torus_rate_check():
    t0 = time.monotonic()
    params = SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-1,
                          beta1=1, beta2=1)
    state = torus.constant_state(torus.make_grid(1, 256), 1.0, 1.0)
    run = torus.run_torus(params, state, t_end=5.0, dt_max=1e-3,
                          field_threshold=1.68e5)
    assert run.status == ode_core.BLOWUP
    odi = torus.check_growth_inequality(run.series, params)
    bounds = torus.blowup_bounds(params, float(run.series.U[0]),
                                 float(run.series.V[0]))
    window = ratefit.trailing_decade_window(run.series.times, run.series.U)
    fit = ratefit.fit_power_law(run.series.times, run.series.U, window=window)

    # resolution-doubling convergence on spatially structured data
    def bumped_run(modes):
        grid = torus.make_grid(1, modes)
        x = grid.axes()[0]
        u = 0.8 + 0.2 * np.cos(x) + 0j
        st = torus.state_from_arrays(grid, u, u.copy())
        return torus.run_torus(params, st, t_end=0.4, dt_max=5e-4,
                               field_threshold=1e6, check_zero_mode=False)

    lo = bumped_run(128)
    hi = bumped_run(256)
    doubling_dev = abs(lo.series.U[-1] - hi.series.U[-1]) / abs(hi.series.U[-1])

    elapsed = time.monotonic() - t0
    gamma_target = (params.p + 1) / (params.p * params.q - 1)
    ok = (
        run.lap_zero_mode_max < 1e-12
        and odi.passed
        and abs(fit.gamma - gamma_target) / gamma_target <= 0.10
        and run.escape_time() <= bounds.lifespan_bound
        and doubling_dev < 1e-8
        and elapsed < 60.0
    )
    _report(6, ok, f"zero-mode {run.lap_zero_mode_max:.2e}, "
                   f"odi violations {len(odi.violations)}, "
                   f"gamma {fit.gamma:.4f} (target {gamma_target}), "
                   f"escape {run.escape_time():.6f} <= T3 "
                   f"{bounds.lifespan_bound:.6f}, resolution-doubling dev "
                   f"{doubling_dev:.2e}, runtime {elapsed:.1f}s")
    assert ok


EUCLID_PARAMS = SystemParams(n=1, p=2, q=1.5, alpha1=-1, alpha2=-1,
                             beta1=1, beta2=1)
EUCLID_DATA = euclid.DataSpec(epsilon=0.55, r_data=2.0, amp_u=1.0, amp_v=0.5)


def _euclid_spec(box_half_width=16.0):
    return euclid.EuclidRunSpec(
        params=EUCLID_PARAMS, R=8.0, box_half_width=box_half_width,
        h=8.0 / 128, data=EUCLID_DATA,
    )


def test_criterion_7_euclid_suite():
    t0 = time.monotonic()
    spec = _euclid_spec()
    state = euclid.make_initial_state(spec)
    U0, V0 = euclid.weighted_functionals(state, spec)
    bounds = euclid.blowup_bounds(spec, U0, V0)
    assert bounds.thresholds.r_exceeds_r0
    assert bounds.hypothesis_satisfied

    run = euclid.run_euclid(spec, t_end=30.0, dt_max=2e-3,
                            functional_threshold=1e9, field_threshold=1e13,
                            state=state)
    assert run.status == ode_core.BLOWUP
    s = run.series

    # growth inequality on the window where both functionals are in [0, 1e5]
    cap = np.nonzero(np.maximum(s.U, s.V) > 1e5)[0]
    cut = int(cap[0]) if cap.size else s.times.size
    capped = FunctionalSeries(times=s.times[:cut], U=s.U[:cut], V=s.V[:cut],
                              dU=s.dU[:cut], dV=s.dV[:cut])
    odi = euclid.check_weighted_growth_inequality(capped, spec)

    # escape through 1e5 with the power-law tail correction
    gamma_u = 1.5
    i = int(np.nonzero(s.U >= 1e5)[0][0])
    escape = float(s.times[i]) + gamma_u * float(s.U[i]) / float(s.dU[i])

    fit_u = ratefit.fit_power_law(
        s.times, s.U, window=ratefit.trailing_decade_window(s.times, s.U)
    )
    fit_v = ratefit.fit_power_law(
        s.times, s.V, window=ratefit.trailing_decade_window(s.times, s.V)
    )

    # box doubling on a fixed time grid (identical dt sequence by design)
    def fixed_dt_series(box):
        sp = _euclid_spec(box_half_width=box)
        st = euclid.make_initial_state(sp)
        out = []
        for _ in range(500):
            st = euclid.euclid_step(st, sp, 2e-3)
            out.append(euclid.weighted_functionals(st, sp))
        return np.array(out)

    base = fixed_dt_series(16.0)
    doubled = fixed_dt_series(32.0)
    box_dev = float(np.max(np.abs(base - doubled) / (1.0 + np.abs(base))))

    elapsed = time.monotonic() - t0
    ok = (
        odi.passed
        and escape <= bounds.lifespan_bound
        and abs(fit_u.gamma - 1.5) / 1.5 <= 0.15
        and abs(fit_v.gamma - 1.25) / 1.25 <= 0.15
        and box_dev <= 1e-6
        and elapsed < 300.0
    )
    _report(7, ok, f"odi violations {len(odi.violations)} "
                   f"({odi.n_checked} nodes <= 1e5), escape {escape:.4f} <= "
                   f"bound {bounds.lifespan_bound:.4f}, gammas "
                   f"({fit_u.gamma:.4f}, {fit_v.gamma:.4f}) targets (1.5, 1.25), "
                   f"box dev {box_dev:.2e}, runtime {elapsed:.1f}s")
    assert ok


def test_criterion_8_scaling_studies(tmp_path):
    t0 = time.monotonic()
    torus_cfg = {
        "schema_version": 1,
        "mode": "torus_homogeneous",
        "params": {"n": 1, "p": 2, "q": 2, "alpha1": [-1, 0],
                   "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
        "epsilon": {"start": 0.5, "factor": 1.3, "count": 6},
        "modes": 32,
        "dt_max": 0.001,
        "time_budget": 30.0,
        "field_threshold": 1e6,
        "slope_tolerance": 0.10,
    }
    euclid_cfg = {
        "schema_version": 1,
        "mode": "euclid",
        "params": {"n": 1, "p": 2, "q": 2, "alpha1": [-1, 0],
                   "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
        "epsilon": {"start": 0.30, "factor": 1.2, "count": 6},
        "R": 6.0,
        "box_half_width": 40.0,
        "h": 0.09375,
        "r_data": 1.0,
        "dt_max": 0.005,
        "time_budget": 120.0,
        "functional_threshold": 1e6,
        "field_threshold": 1e10,
        "slope_tolerance": 0.15,
    }
    import json

    t_path = tmp_path / "torus.json"
    e_path = tmp_path / "euclid.json"
    write_json(t_path, torus_cfg)
    write_json(e_path, euclid_cfg)
    code_t = cli_main(["scaling-study", "--config", str(t_path),
                       "--out", str(tmp_path / "t"), "--seed", str(SEED)])
    code_e = cli_main(["scaling-study", "--config", str(e_path),
                       "--out", str(tmp_path / "e"), "--seed", str(SEED)])
    rep_t = json.loads((tmp_path / "t" / "report.json").read_text())
    rep_e = json.loads((tmp_path / "e" / "report.json").read_text())
    elapsed = time.monotonic() - t0
    ok = (
        code_t == 0 and code_e == 0
        and rep_t["relative_error"] <= 0.10
        and rep_e["relative_error"] <= 0.15
        and elapsed < 600.0
    )
    _report(8, ok, f"torus slope {rep_t['slope']:.4f} (predicted -1), "
                   f"euclid slope {rep_e['slope']:.4f} (predicted -2), "
                   f"runtime {elapsed:.1f}s")
    assert ok


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    jobs = [
        ("testfn-check", {
            "schema_version": 1, "dimensions": [1, 2], "resolution": 2048,
        }),
        ("ode-verify", {
            "schema_version": 1, "n_specs": 50, "t_end": 4.0,
            "n_comparison_pairs": 20,
        }),
        ("torus-run", {
            "schema_version": 1,
            "params": {"n": 1, "p": 2, "q": 2, "alpha1": [-1, 0],
                       "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
            "grid": {"modes": 64},
            "data": {"kind": "constant", "u": [1, 0], "v": [1, 0]},
            "t_end": 5.0,
            "field_threshold": 1e5,
        }),
        ("euclid-run", {
            "schema_version": 1,
            "params": {"n": 1, "p": 2, "q": 1.5, "alpha1": [-1, 0],
                       "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
            "R": 8.0, "box_half_width": 16.0, "points_per_R": 64,
            "data": {"epsilon": 0.55, "r_data": 2.0, "amp_u": 1.0,
                     "amp_v": 0.5},
            "t_end": 30.0,
            "functional_threshold": 1e5,
        }),
        ("scaling-study", {
            "schema_version": 1,
            "mode": "torus_homogeneous",
            "params": {"n": 1, "p": 2, "q": 2, "alpha1": [-1, 0],
                       "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
            "epsilon": {"start": 0.5, "factor": 1.3, "count": 5},
            "modes": 32,
            "time_budget": 30.0,
        }),
    ]
    n_files = 0
    for k, (command, cfg) in enumerate(jobs):
        cfg_path = tmp_path / f"cfg{k}.json"
        write_json(cfg_path, cfg)
        out_a = tmp_path / f"a{k}"
        out_b = tmp_path / f"b{k}"
        code_a = cli_main([command, "--config", str(cfg_path),
                           "--out", str(out_a), "--seed", str(SEED)])
        code_b = cli_main([command, "--config", str(cfg_path),
                           "--out", str(out_b), "--seed", str(SEED)])
        assert code_a == code_b
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                f"{command}/{name} differs between reruns"
            n_files += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 120.0
    _report(9, ok, f"{n_files} files byte-identical across reruns of all "
                   f"five subcommands, runtime {elapsed:.1f}s")
    assert ok
