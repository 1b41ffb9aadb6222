import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgl_blowup.errors import DomainError, ValidationError
from cgl_blowup.ode_core import (
    BLOWUP,
    COMPLETED,
    CoupledODESpec,
    SingleODESpec,
    Trajectory,
    check_comparison,
    conserved_residual,
    conserved_residual_scaled,
    damped_bounds,
    damped_hypothesis_terms,
    integrate_coupled,
    single_blowup_solution,
    single_blowup_time,
    tail_corrected_lifespan,
    undamped_bounds,
)
from cgl_blowup.sampling import sample_coupled_specs, sample_hypothesis_specs

WORKED = CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=0, f0=1, g0=1)
WORKED_DAMPED = CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=1, f0=2, g0=1)


# ---------------------------------------------------------------------------
# closed-form single solution

def test_single_solution_worked_values():
    spec = SingleODESpec(rho=2, mu=1, f0=1)
    assert single_blowup_time(spec) == pytest.approx(1.0, abs=0)
    assert single_blowup_solution(spec, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert single_blowup_solution(spec, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_single_solution_cubic_case_against_adaptive_integration():
    spec = SingleODESpec(rho=3, mu=2, f0=1)
    assert single_blowup_time(spec) == pytest.approx(0.25, rel=1e-14)
    assert single_blowup_solution(spec, 0.1875) == pytest.approx(2.0, rel=1e-12)
    # symmetric reduction of the coupled system gives f' = 2 f^3
    coupled = CoupledODESpec(p=3, q=3, C_p=0.5, C_q=0.5, omega=0, f0=1, g0=1)
    traj = integrate_coupled(coupled, t_end=0.1875, tol=1e-12, blowup_threshold=1e6)
    assert traj.status == COMPLETED
    assert traj.f[-1] == pytest.approx(2.0, abs=1e-9)


def test_single_solution_domain_error_carries_blowup_time():
    spec = SingleODESpec(rho=2, mu=1, f0=1)
    with pytest.raises(DomainError) as exc:
        single_blowup_solution(spec, 1.0)
    assert exc.value.blow_up_time == pytest.approx(1.0)


@pytest.mark.parametrize(
    "kwargs",
    [dict(rho=1.0, mu=1, f0=1), dict(rho=2, mu=0, f0=1), dict(rho=2, mu=1, f0=0)],
)
def test_single_spec_validation(kwargs):
    with pytest.raises(ValidationError):
        SingleODESpec(**kwargs)


# ---------------------------------------------------------------------------
# coupled integration

def test_worked_symmetric_blowup_time():
    traj = integrate_coupled(WORKED, t_end=10.0, tol=1e-10, blowup_threshold=1e6)
    assert traj.status == BLOWUP
    # f = g reduces to f' = 3 f^2, exact blow-up at 1/3
    assert traj.times[-1] == pytest.approx(1 / 3, abs=1e-4)
    assert tail_corrected_lifespan(traj, WORKED) == pytest.approx(1 / 3, abs=1e-8)


def test_vanishing_nonlinearity_stays_constant():
    with pytest.raises(ValidationError):
        CoupledODESpec(p=2, q=2, C_p=0, C_q=0, omega=0, f0=1, g0=1)
    tiny = CoupledODESpec(p=2, q=2, C_p=1e-12, C_q=1e-12, omega=0, f0=1, g0=1)
    traj = integrate_coupled(tiny, t_end=1.0, tol=1e-10, blowup_threshold=1e6)
    assert traj.status == COMPLETED
    assert np.max(np.abs(traj.values - 1.0)) < 1e-9


def test_damped_run_terminates_before_its_lifespan_bound():
    bound = damped_bounds(WORKED_DAMPED).lifespan_bound
    assert bound == pytest.approx(-3 * math.log(1 - 2 ** (4 / 3) / 18), rel=1e-14)
    traj = integrate_coupled(WORKED_DAMPED, t_end=10.0, tol=1e-10, blowup_threshold=1e6)
    assert traj.status == BLOWUP
    assert traj.times[-1] <= bound


def test_integrate_validates_inputs():
    with pytest.raises(ValidationError):
        integrate_coupled(WORKED, t_end=1.0, tol=1e-2)
    with pytest.raises(ValidationError):
        integrate_coupled(WORKED, t_end=1.0, blowup_threshold=0.5)
    with pytest.raises(ValidationError):
        integrate_coupled(WORKED, t_end=-1.0)


def test_trajectory_records_are_clean():
    traj = integrate_coupled(WORKED, t_end=10.0, tol=1e-10, blowup_threshold=1e4)
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(traj.values >= 0)
    assert traj.values[-1].max() >= 1e4 * (1 - 1e-12)
    assert traj.escape_time() == traj.times[-1]


# ---------------------------------------------------------------------------
# conserved quantity

def test_residual_zero_for_symmetric_spec():
    for omega in (0.0, 0.7):
        spec = CoupledODESpec(p=2, q=2, C_p=1.3, C_q=1.3, omega=omega, f0=2, g0=2)
        traj = integrate_coupled(spec, t_end=5.0, tol=1e-10, blowup_threshold=1e6)
        # identical arithmetic on both components: F and G never separate
        assert conserved_residual(traj, spec) == 0.0


def test_residual_on_asymmetric_run_sits_at_float64_floor():
    spec = CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=0, f0=2, g0=1)
    traj = integrate_coupled(spec, t_end=10.0, tol=1e-12, blowup_threshold=1e4)
    # The f0=2 g0=1 cubic case conserves f^3 - g^3 = 7.  Rounding the exact
    # solution to float64 at f = 1e4 already perturbs f^3 by ~3 f^2 ulp(f)
    # ~ 2e-4, so the fixed-normalization residual is floored there; the
    # identity itself holds to rounding once normalized by the magnitude of
    # the quantities being differenced.
    assert conserved_residual(traj, spec) < 5e-3
    assert conserved_residual_scaled(traj, spec) < 1e-12
    small = integrate_coupled(spec, t_end=10.0, tol=1e-12, blowup_threshold=1e2)
    assert conserved_residual(small, spec) < 1e-8


def test_residual_scaled_damped_asymmetric():
    spec = CoupledODESpec(p=2, q=1.5, C_p=0.5, C_q=2, omega=1, f0=2, g0=1)
    traj = integrate_coupled(spec, t_end=10.0, tol=1e-12, blowup_threshold=1e4)
    assert conserved_residual_scaled(traj, spec) < 1e-10


def test_identity_splits_into_single_odes():
    # C_p = 1/(p+1), C_q = 1/(q+1) makes f^{q+1}/(q+1) - g^{p+1}/(p+1) constant
    p, q = 2.0, 3.0
    spec = CoupledODESpec(p=p, q=q, C_p=1 / (p + 1), C_q=1 / (q + 1),
                          omega=0, f0=1.5, g0=1.0)
    probe = integrate_coupled(spec, t_end=10.0, tol=1e-12, blowup_threshold=1e2)
    traj = integrate_coupled(spec, t_end=0.8 * probe.times[-1], tol=1e-12,
                             blowup_threshold=1e6)
    assert traj.status == COMPLETED
    quantity = traj.f ** (q + 1) / (q + 1) - traj.g ** (p + 1) / (p + 1)
    assert quantity[0] == pytest.approx(1.5 ** 4 / 4 - 1 / 3, rel=1e-14)
    assert np.max(np.abs(quantity - quantity[0])) < 1e-9
    assert conserved_residual_scaled(probe, spec) < 1e-10


# ---------------------------------------------------------------------------
# explicit bounds, undamped

def test_undamped_worked_lifespan_bound():
    report = undamped_bounds(WORKED)
    assert report.hypothesis_satisfied
    assert report.lifespan_bound == pytest.approx(2 ** (4 / 3) / 3, rel=1e-14)
    traj = integrate_coupled(WORKED, t_end=10.0, tol=1e-10, blowup_threshold=1e6)
    assert tail_corrected_lifespan(traj, WORKED) <= report.lifespan_bound


def test_undamped_hypothesis_gate():
    report = undamped_bounds(
        CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=0, f0=1, g0=2)
    )
    assert not report.hypothesis_satisfied
    assert report.lifespan_bound is None
    assert report.lower_bound_curve is None


def test_undamped_curve_starts_at_g0_when_balanced():
    report = undamped_bounds(WORKED)
    assert report.lower_bound_curve(0.0) == pytest.approx(1.0, abs=1e-12)
    # curve diverges exactly at the lifespan bound
    eps = 1e-9
    assert report.lower_bound_curve(report.lifespan_bound - eps) > 1e3
    assert math.isinf(report.lower_bound_curve(report.lifespan_bound + eps))


def test_undamped_rejects_damped_spec():
    with pytest.raises(ValidationError):
        undamped_bounds(WORKED_DAMPED)


def test_exponents_below_one_are_flagged_not_rejected():
    spec = CoupledODESpec(p=2.0, q=0.8, C_p=1, C_q=1, omega=0, f0=2, g0=1)
    assert spec.exponent_caveat
    report = undamped_bounds(spec)
    assert report.hypothesis_satisfied
    assert report.exponent_caveat
    traj = integrate_coupled(spec, t_end=4.0, tol=1e-10, blowup_threshold=1e5)
    assert traj.status == BLOWUP
    assert traj.times[-1] <= report.lifespan_bound


def test_undamped_curve_dominated_by_trajectory():
    spec = CoupledODESpec(p=2.5, q=1.5, C_p=0.8, C_q=1.7, omega=0, f0=2.0, g0=0.9)
    report = undamped_bounds(spec)
    assert report.hypothesis_satisfied
    traj = integrate_coupled(spec, t_end=50.0, tol=1e-12, blowup_threshold=1e6)
    curve = np.array([report.lower_bound_curve(t) for t in traj.times])
    assert np.all(traj.g >= curve - 1e-9 * (1 + traj.g))
    fcurve = np.array([report.f_lower_bound_curve(t) for t in traj.times])
    assert np.all(traj.f >= fcurve - 1e-9 * (1 + traj.f))


# ---------------------------------------------------------------------------
# explicit bounds, damped

def test_damped_worked_hypothesis_and_bound():
    report = damped_bounds(WORKED_DAMPED)
    term1, term2 = damped_hypothesis_terms(WORKED_DAMPED)
    assert term1 == pytest.approx(2 ** (4 / 3) / 9, rel=1e-14)
    assert term2 == pytest.approx(1.0, rel=1e-14)
    assert report.hypothesis_satisfied
    assert report.lifespan_bound == pytest.approx(
        -3 * math.log1p(-(2 ** (4 / 3)) / 18), rel=1e-14
    )
    assert report.lifespan_bound == pytest.approx(0.452438, abs=1e-6)


def test_damped_strict_boundary_fails():
    spec = CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=1, f0=1, g0=1)
    # ordering term equals f0 exactly; the condition is strict
    assert not damped_bounds(spec).hypothesis_satisfied


def test_damped_bounds_just_above_the_ordering_term_are_real():
    # f0 one ulp above term_ordering: the curve's shift base is 0 up to
    # rounding and must not come out of a rounded negative base as complex
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 300:
        q = rng.uniform(0.8, 3.0)
        p = rng.uniform(q, 4.0)
        if p * q <= 1.05:
            continue
        kw = dict(p=p, q=q, C_p=rng.uniform(0.1, 2), C_q=rng.uniform(0.1, 2),
                  omega=rng.uniform(0.01, 0.5), g0=rng.uniform(0.5, 5))
        damping, ordering = damped_hypothesis_terms(CoupledODESpec(f0=1.0, **kw))
        if not damping < ordering:
            continue
        report = damped_bounds(CoupledODESpec(f0=np.nextafter(ordering, np.inf), **kw))
        assert report.hypothesis_satisfied
        times = np.linspace(0.0, 0.9 * report.lifespan_bound, 5)
        assert np.all(np.isfinite(report.to_json_dict(times)["lower_bound"]))
        checked += 1


def test_damped_rejects_undamped_spec():
    with pytest.raises(ValidationError):
        damped_bounds(WORKED)


def test_damped_bound_has_undamped_limit():
    undamped = undamped_bounds(
        CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=0, f0=2, g0=1)
    ).lifespan_bound
    assert undamped == pytest.approx(2 ** (4 / 3) / 3 / 2, rel=1e-14)
    nearly = damped_bounds(
        CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=1e-6, f0=2, g0=1)
    ).lifespan_bound
    assert nearly == pytest.approx(undamped, rel=1e-4)


def test_damped_curve_dominated_by_trajectory():
    report = damped_bounds(WORKED_DAMPED)
    traj = integrate_coupled(WORKED_DAMPED, t_end=10.0, tol=1e-12, blowup_threshold=1e6)
    curve = np.array([report.lower_bound_curve(t) for t in traj.times])
    assert np.all(traj.g >= curve - 1e-9 * (1 + traj.g))


def test_damped_curve_converges_to_undamped_curve():
    base_spec = CoupledODESpec(p=2, q=1.5, C_p=1, C_q=1.5, omega=0, f0=2, g0=1)
    base = undamped_bounds(base_spec)
    eps_spec = CoupledODESpec(p=2, q=1.5, C_p=1, C_q=1.5, omega=1e-8, f0=2, g0=1)
    nearly = damped_bounds(eps_spec)
    for t in np.linspace(0.0, 0.9 * base.lifespan_bound, 7):
        assert nearly.lower_bound_curve(t) == pytest.approx(
            base.lower_bound_curve(t), rel=1e-6
        )


# ---------------------------------------------------------------------------
# comparison checks

def test_comparison_scaled_initial_data_stays_ordered():
    spec = CoupledODESpec(p=2, q=1.5, C_p=1, C_q=1, omega=0, f0=1, g0=1)
    sub_spec = CoupledODESpec(p=2, q=1.5, C_p=1, C_q=1, omega=0, f0=0.99, g0=0.99)
    super_traj = integrate_coupled(spec, t_end=10.0, tol=1e-12, blowup_threshold=1e5)
    sub_traj = integrate_coupled(sub_spec, t_end=10.0, tol=1e-12, blowup_threshold=1e5)
    verdict = check_comparison(sub_traj, super_traj)
    assert verdict.passed


def test_comparison_equal_trajectories_violate_strictness():
    traj = integrate_coupled(WORKED, t_end=10.0, tol=1e-10, blowup_threshold=1e3)
    verdict = check_comparison(traj, traj)
    assert not verdict.passed
    assert verdict.first_violation_index == 0
    assert verdict.first_violation_time == traj.times[0]


def test_comparison_bound_curves_are_sub_solutions():
    spec = CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=0, f0=2, g0=1)
    report = undamped_bounds(spec)
    traj = integrate_coupled(spec, t_end=10.0, tol=1e-12, blowup_threshold=1e6)
    sub = Trajectory(
        times=traj.times,
        values=np.column_stack(
            [
                [max(report.f_lower_bound_curve(t), 0.0) for t in traj.times],
                [max(report.lower_bound_curve(t), 0.0) for t in traj.times],
            ]
        ),
        status=COMPLETED,
    )
    assert check_comparison(sub, traj).passed


def test_comparison_incompatible_ranges():
    a = Trajectory(times=np.array([0.0, 1.0]), values=np.ones((2, 2)),
                   status=COMPLETED)
    b = Trajectory(times=np.array([2.0, 3.0]), values=np.ones((2, 2)) * 2,
                   status=COMPLETED)
    with pytest.raises(ValidationError):
        check_comparison(a, b)


# ---------------------------------------------------------------------------
# properties

spec_strategy = st.builds(
    CoupledODESpec,
    p=st.floats(1.0, 4.0),
    q=st.floats(1.05, 4.0),
    C_p=st.floats(0.2, 3.0),
    C_q=st.floats(0.2, 3.0),
    omega=st.sampled_from([0.0, 0.3, 1.5]),
    f0=st.floats(0.5, 3.0),
    g0=st.floats(0.5, 3.0),
)


@settings(max_examples=20, deadline=None)
@given(spec_strategy)
def test_property_scaled_residual_below_suite_tolerance(spec):
    traj = integrate_coupled(spec, t_end=4.0, tol=1e-10, blowup_threshold=1e6)
    assert conserved_residual_scaled(traj, spec) < 1e-7


@settings(max_examples=20, deadline=None)
@given(spec_strategy.filter(lambda s: s.omega == 0.0))
def test_property_undamped_runs_are_monotone(spec):
    traj = integrate_coupled(spec, t_end=4.0, tol=1e-10, blowup_threshold=1e6)
    assert np.all(np.diff(traj.f) >= 0)
    assert np.all(np.diff(traj.g) >= 0)


@settings(max_examples=15, deadline=None)
@given(spec_strategy, st.floats(0.85, 0.99))
def test_property_ordered_data_stays_ordered(spec, shrink):
    sub_spec = CoupledODESpec(
        p=spec.p, q=spec.q, C_p=spec.C_p, C_q=spec.C_q, omega=spec.omega,
        f0=spec.f0 * shrink, g0=spec.g0 * shrink,
    )
    super_traj = integrate_coupled(spec, t_end=3.0, tol=1e-11, blowup_threshold=1e5)
    sub_traj = integrate_coupled(sub_spec, t_end=3.0, tol=1e-11, blowup_threshold=1e5)
    assert check_comparison(sub_traj, super_traj).passed


@settings(max_examples=15, deadline=None)
@given(spec_strategy.filter(lambda s: s.omega == 0.0))
def test_property_damped_bound_converges_to_undamped(spec):
    base = undamped_bounds(spec)
    if not base.hypothesis_satisfied:
        return
    eps_spec = CoupledODESpec(
        p=spec.p, q=spec.q, C_p=spec.C_p, C_q=spec.C_q, omega=1e-6,
        f0=spec.f0, g0=spec.g0,
    )
    report = damped_bounds(eps_spec)
    if not report.hypothesis_satisfied:
        # strict damped ordering can exclude the undamped equality case
        assert spec.C_q * spec.f0 ** (spec.q + 1) <= spec.C_p * spec.g0 ** (spec.p + 1) * (1 + 1e-9)
        return
    assert report.lifespan_bound == pytest.approx(base.lifespan_bound, rel=1e-3)


def test_sampled_bound_dominance_sweep():
    specs = sample_hypothesis_specs(seed=1234, n=8)
    for spec in specs:
        report = damped_bounds(spec) if spec.omega > 0 else undamped_bounds(spec)
        traj = integrate_coupled(spec, t_end=4 * report.lifespan_bound,
                                 tol=1e-12, blowup_threshold=1e6)
        assert traj.status == BLOWUP
        assert traj.times[-1] <= report.lifespan_bound
        curve = np.array([report.lower_bound_curve(t) for t in traj.times])
        assert np.all(traj.g >= curve - 1e-9 * (1 + traj.g))


def test_sampler_is_deterministic():
    a = sample_coupled_specs(seed=7, n=5)
    b = sample_coupled_specs(seed=7, n=5)
    assert a == b


def test_trajectory_csv_roundtrip(tmp_path):
    traj = integrate_coupled(WORKED, t_end=0.1, tol=1e-10, blowup_threshold=1e6)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,f,g"
    assert len(lines) == traj.times.size + 1
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == traj.times[-1]
    assert last[1] == traj.f[-1]


def test_bound_report_json_shape():
    report = undamped_bounds(WORKED)
    times = np.linspace(0.0, 0.9 * report.lifespan_bound, 9)
    d = report.to_json_dict(times)
    assert d["hypothesis_satisfied"] is True
    assert d["lifespan_bound"] == report.lifespan_bound
    assert len(d["lower_bound"]) == 9
    assert d["lower_bound"][0] == pytest.approx(1.0, abs=1e-12)
    assert d["lower_bound"][-1] > d["lower_bound"][0]


def test_mirrored_spec_swaps_components():
    from cgl_blowup.ode_core import mirrored_spec

    spec = CoupledODESpec(p=2, q=1.5, C_p=0.5, C_q=2, omega=0.3, f0=2, g0=1)
    twin = mirrored_spec(spec)
    assert (twin.p, twin.q, twin.C_p, twin.C_q) == (1.5, 2, 2, 0.5)
    assert (twin.f0, twin.g0) == (1, 2)
    assert mirrored_spec(twin) == spec
    # the swapped system integrates to the swapped trajectory
    a = integrate_coupled(spec, t_end=0.2, tol=1e-12, blowup_threshold=1e6)
    b = integrate_coupled(twin, t_end=0.2, tol=1e-12, blowup_threshold=1e6)
    assert b.f[-1] == pytest.approx(a.g[-1], rel=1e-12)
    assert b.g[-1] == pytest.approx(a.f[-1], rel=1e-12)
