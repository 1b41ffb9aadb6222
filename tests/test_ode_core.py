import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgl_blowup import ode_core
from cgl_blowup.errors import DomainError, IntegrationError, ValidationError
from cgl_blowup.ode_core import (
    BLOWUP,
    COMPLETED,
    STEP_COLLAPSE,
    CoupledODESpec,
    SingleODESpec,
    Trajectory,
    check_comparison,
    conserved_residual,
    conserved_residual_scaled,
    damped_bounds,
    damped_hypothesis_terms,
    integrate_coupled,
    integrate_lockstep,
    mirrored_spec,
    power_product,
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


def test_crossing_node_passes_the_last_nodes_time():
    # the threshold falls within half an ulp of t past the last accepted node,
    # so t + theta * h rounds back to that node's time
    spec = CoupledODESpec(p=3.1983282033417213, q=3.0, C_p=1.6875, C_q=2.0,
                          omega=0.0, f0=1.0537600937714449, g0=0.6500167397223429)
    traj = integrate_coupled(spec, t_end=4.0, tol=1e-10, blowup_threshold=1e6)
    assert traj.status == BLOWUP
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == math.nextafter(traj.times[-2], math.inf)
    assert traj.f[-1] == pytest.approx(1e6, rel=1e-12)


def test_t_end_that_collapses_the_first_step_is_rejected():
    # The collapse floor is 1e-14 * max(t, 1e-3 t_end): at t_end = 1e16 the
    # first step 1/300 is already below it, so the run would end at t = 0.
    with pytest.raises(ValidationError, match="t_end"):
        integrate_coupled(WORKED, t_end=1e16)
    # a long but usable t_end still integrates (and ends early by collapse)
    traj = integrate_coupled(WORKED, t_end=1e13)
    assert traj.status == STEP_COLLAPSE
    assert traj.times.size > 1


def _profiled(fn, *args, **kwargs):
    """Run ``fn`` under ``sys.setprofile``; return its result and one entry
    per Python-level call: the code object of a ``call`` event, or the
    builtin of a ``c_call`` event."""
    events = []

    def hook(frame, event, arg):
        if event == "call":
            events.append(frame.f_code)
        elif event == "c_call":
            events.append(arg)

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        return fn(*args, **kwargs), events
    finally:
        sys.setprofile(old)


_F_LEADS = CoupledODESpec(p=3, q=1.5, C_p=0.7, C_q=1.3, omega=0, f0=2.0, g0=0.5)
# digests of times.tobytes() + values.tobytes() from the closure-based DP5
# loop the kernel replaced: its arithmetic must be reproduced bit for bit
_KERNEL_CASES = {
    "crossing_in_f": (_F_LEADS, dict(t_end=10.0), BLOWUP, 591, 0,
                      "53c6fbf85201351f"),
    "crossing_in_g": (mirrored_spec(_F_LEADS), dict(t_end=10.0), BLOWUP, 591, 0,
                      "6d7587fa4f85704e"),
    "damped_crossing": (WORKED_DAMPED, dict(t_end=4.0), BLOWUP, 709, 0,
                        "3f534249a9e5ce4c"),
    "decay_to_clipped_t_end": (
        CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=3, f0=0.1, g0=0.2),
        dict(t_end=2.5), COMPLETED, 92, 0, "e6628b7439a337f4"),
    # sample_coupled_specs(20240809, 50)[43] and [48]
    "collapse_undamped": (
        CoupledODESpec(p=3.7964884632011446, q=3.892533335397247,
                       C_p=2.7930146939912985, C_q=0.2920594947733829,
                       omega=0.0, f0=1.1118427784116345, g0=0.7081880646655199),
        dict(t_end=4.0), STEP_COLLAPSE, 821, 0, "7d5b2a28f9720307"),
    "collapse_damped": (
        CoupledODESpec(p=2.997862429674765, q=3.675032207457368,
                       C_p=1.2559115464589394, C_q=0.945463931906599,
                       omega=1.305908203468597, f0=0.9455989185531339,
                       g0=0.9420181087878156),
        dict(t_end=4.0), STEP_COLLAPSE, 908, 0, "2d60baca4b141260"),
    "rejected_steps": (WORKED, dict(t_end=4.0, tol=1e-3), BLOWUP, 31, 22,
                       "e7494b3f735366c3"),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_CASES))
def test_dp5_kernel_reproduces_recorded_trajectories(name):
    spec, kwargs, status, nodes, rejected, digest = _KERNEL_CASES[name]
    traj, events = _profiled(integrate_coupled, spec, **kwargs)
    assert traj.status == status
    assert traj.times.size == nodes
    raw = traj.times.tobytes() + traj.values.tobytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == digest
    # every attempted step takes one sqrt; every accepted one adds a node
    assert sum(e is math.sqrt for e in events) - (nodes - 1) == rejected
    if name == "crossing_in_f":
        assert traj.f[-1] >= 1e6 > traj.g[-1]
    elif name == "crossing_in_g":
        assert traj.g[-1] >= 1e6 > traj.f[-1]
    elif status == COMPLETED:
        assert traj.times[-1] == kwargs["t_end"]


def test_dp5_kernel_call_budget_per_node():
    # The step loop calls isfinite twice, sqrt once and three appends per
    # accepted step; a per-stage closure or max/min/abs call would add 6+.
    traj, events = _profiled(integrate_coupled, WORKED, t_end=4.0)
    assert traj.times.size == 724
    assert len(events) <= 8 * traj.times.size


# ---------------------------------------------------------------------------
# the lockstep kernel against the scalar one

# sampled specs, and cases the sample need not hold: a damped decay that
# completes, a vanishing nonlinearity whose error estimate is exactly 0, a
# damped crossing, a crossing in each component, and spec 19 of
# ode-verify --seed 28, whose crossing lies within half an ulp of its last node
_SUB_ULP = sample_coupled_specs(28, 20)[19]
_LOCKSTEP_SPECS = sample_coupled_specs(2024, 24) + [
    CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=3, f0=0.1, g0=0.2),
    CoupledODESpec(p=2, q=2, C_p=1e-300, C_q=1e-300, omega=0, f0=1, g0=1),
    WORKED_DAMPED, _F_LEADS, mirrored_spec(_F_LEADS), _SUB_ULP,
]


def _lockstep_against_scalar(specs, tol):
    """The statuses of the scalar kernel's runs of ``specs`` to t = 4, and
    the indices of the specs whose lockstep trajectory differs from it in
    any bit of its times or values or in its status."""
    lockstep = dict(ode_core.integrate_lockstep(specs, 4.0, tol, 1e6))
    assert sorted(lockstep) == list(range(len(specs)))
    statuses, differ = [], []
    for i, spec in enumerate(specs):
        ref, got = integrate_coupled(spec, 4.0, tol, 1e6), lockstep[i]
        statuses.append(ref.status)
        if (got.status, got.times.tobytes(), got.values.tobytes()) != (
                ref.status, ref.times.tobytes(), ref.values.tobytes()):
            differ.append(i)
    return statuses, differ


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
def test_lockstep_kernel_equals_the_scalar_kernel_bit_for_bit(tol):
    statuses, differ = _lockstep_against_scalar(_LOCKSTEP_SPECS, tol)
    assert differ == []
    assert set(statuses) == {COMPLETED, BLOWUP, STEP_COLLAPSE}


def test_lockstep_kernel_with_np_power_in_one_stage_is_caught(mutate):
    # np.power differs from Python's ** in the last bit on about 5% of inputs
    mutate(ode_core, "integrate_lockstep", "k3 = facs * power(z[::-1], exps)",
           "k3 = facs * z[::-1] ** exps")
    _, differ = _lockstep_against_scalar(_LOCKSTEP_SPECS, 1e-10)
    assert differ


@pytest.mark.parametrize("kwargs", [dict(tol=1e-2), dict(blowup_threshold=1.5),
                                    dict(t_end=-1.0), dict(t_end=1e16)])
def test_lockstep_kernel_validates_every_spec_before_any_step(kwargs):
    # the first spec refused is the one a loop of scalar runs refuses
    specs, kwargs = [WORKED, _F_LEADS], {"t_end": 4.0, **kwargs}
    with pytest.raises(ValidationError) as scalar:
        for spec in specs:
            integrate_coupled(spec, **kwargs)
    steps = integrate_lockstep(specs, **kwargs)
    with pytest.raises(ValidationError) as lockstep:
        next(steps)
    assert str(lockstep.value) == str(scalar.value)


# p = q = 1000 from 2.0: a stage power overflows, which Python's ** raises;
# from 2.02: a stage product overflows to a non-finite state
@pytest.mark.parametrize("f0, error", [(2.0, OverflowError), (2.02, IntegrationError)])
def test_lockstep_kernel_raises_what_the_scalar_kernel_raises_past_the_floats(f0, error):
    spec = CoupledODESpec(p=1000, q=1000, C_p=1, C_q=1, omega=0, f0=f0, g0=f0)
    kwargs = dict(t_end=1e-300, tol=1e-6, blowup_threshold=1e300)
    with pytest.raises(error) as scalar:
        integrate_coupled(spec, **kwargs)
    with pytest.raises(error) as lockstep:
        list(integrate_lockstep([WORKED, spec], **kwargs))
    assert str(lockstep.value) == str(scalar.value)
    assert getattr(lockstep.value, "last_node", None) == getattr(scalar.value, "last_node", None)


def test_lockstep_kernel_keeps_the_step_budget(monkeypatch):
    monkeypatch.setattr(ode_core, "_MAX_STEPS", 40)
    with pytest.raises(IntegrationError, match="step budget") as scalar:
        integrate_coupled(WORKED_DAMPED, t_end=4.0)
    with pytest.raises(IntegrationError, match="step budget") as lockstep:
        list(integrate_lockstep([WORKED_DAMPED, WORKED], t_end=4.0))
    assert lockstep.value.last_node == scalar.value.last_node


def test_a_lockstep_trajectory_refusing_its_own_nodes_raises_integration_error(monkeypatch):
    def refusing(**kwargs):
        raise ValidationError("times must be finite and strictly increasing")

    monkeypatch.setattr(ode_core, "Trajectory", refusing)
    with pytest.raises(IntegrationError, match="trajectory refused") as scalar:
        integrate_coupled(WORKED, t_end=4.0)
    with pytest.raises(IntegrationError, match="trajectory refused") as lockstep:
        list(integrate_lockstep([WORKED], t_end=4.0))
    assert lockstep.value.last_node == scalar.value.last_node


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


def test_power_product_is_inf_or_0_only_where_the_product_is():
    # multiplied as written, where every power is in range
    assert power_product((3.0, 0.7), (5.0, -1.3), (7.0, 1.0), (11.0, 1.0, "/"),
                         outer=0.3) == (3.0 ** 0.7 * 5.0 ** -1.3 * 7.0 / 11.0) ** 0.3
    assert power_product((((2.0, 3.0), (5.0, 2.0, "/")), 0.5)) == (
        2.0 ** 3.0 / 5.0 ** 2.0) ** 0.5
    # from the logs, where one power or a partial product leaves the range
    assert power_product((2.0, 5000.0), (2.0, -5000.5)) == pytest.approx(
        2.0 ** -0.5, rel=1e-12)
    assert power_product((10.0, 200.0), (10.0, 200.0), (10.0, -300.0)) == (
        pytest.approx(1e100, rel=1e-12))
    assert power_product((2.0, 5000.0), (2.0, 1.0, "/"), outer=0.001) == (
        pytest.approx(2.0 ** 4.999, rel=1e-12))
    # 2^-1070.3 alone rounds to a subnormal with 4 significant bits
    assert power_product((2.0, -1070.3), (2.0, 1000.0)) == pytest.approx(
        2.0 ** -70.3, rel=1e-12)
    assert power_product((2.0, 5000.0), (2.0, -3000.0)) == math.inf
    assert power_product((2.0, -5000.0), (2.0, 3000.0)) == 0.0
    assert power_product((10.0, 200.0), (10.0, 200.0)) == math.inf


def test_damped_bounds_near_pq_1_take_their_true_values():
    # near pq = 1 the exponents 1/(pq-1) send single powers past the float
    # range where the values are not: the damping term is about 2^-150001
    # (0, not inf), and the curve grows smoothly past t = 503, where
    # (a - b(1 - e^(-decay t)))^(-(q+1)/(pq-1)) alone overflows
    kw = dict(p=1.00001, q=1.00001, C_p=1, C_q=1, omega=1, g0=1)
    assert damped_hypothesis_terms(CoupledODESpec(f0=1, **kw)) == (0.0, 1.0)
    # f0 equals the ordering term, and the hypothesis is strict
    assert not damped_bounds(CoupledODESpec(f0=1, **kw)).hypothesis_satisfied
    report = damped_bounds(CoupledODESpec(f0=2, **kw))
    assert report.hypothesis_satisfied and report.lifespan_bound < math.inf
    log_curve = np.log([report.lower_bound_curve(t) for t in range(400, 701)])
    assert np.all(np.isfinite(log_curve))
    assert np.all((0.0 < np.diff(log_curve)) & (np.diff(log_curve) < 1.0))


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


@pytest.mark.parametrize("bounds", [undamped_bounds, damped_bounds])
def test_bounds_of_data_whose_powers_leave_the_float_range(bounds):
    # f0^(q+1) and g0^(p+1) overflow while the bounds do not: the shift comes
    # from their logs.  With p = q and C_p = C_q the curve starts at
    # f0 - (f0^(p+1) - g0^(p+1))^(1/(p+1)), here g0 (2 - (2^(p+1) - 1)^(1/(p+1)))
    p = 1.02
    spec = CoupledODESpec(p=p, q=p, C_p=1.0, C_q=1.0,
                          omega=1.0 if bounds is damped_bounds else 0.0,
                          f0=1e300, g0=0.5e300)
    report = bounds(spec)
    assert report.hypothesis_satisfied
    assert 0.0 < report.lifespan_bound < 1e-3
    start = spec.g0 * (2.0 - (2.0 ** (p + 1) - 1.0) ** (1.0 / (p + 1)))
    assert report.lower_bound_curve(0.0) == pytest.approx(start, rel=1e-10)


def test_bounds_of_data_below_the_float_range_report_no_lifespan():
    # f0^(-(pq-1)/(p+1)) = 1e600: the lifespan bound is past the float range
    # and reported as inf (JSON null), not raised
    spec = CoupledODESpec(p=3.0, q=3.0, C_p=1.0, C_q=1.0, omega=0.0,
                          f0=1e-300, g0=1e-300)
    report = undamped_bounds(spec)
    assert report.hypothesis_satisfied and report.lifespan_bound == math.inf
    assert report.to_json_dict()["lifespan_bound"] == math.inf
    assert report.lower_bound_curve(1.0) == 0.0


@pytest.mark.parametrize("bounds", [undamped_bounds, damped_bounds], ids=["undamped", "damped"])
def test_bounds_of_tiny_f0_and_moderate_g0_fail_the_hypothesis(bounds):
    # F0 = f0^4 underflows while G0 = 1: G0/F0 is far past the float range,
    # so the hypothesis F0 >= G0 fails without forming it
    spec = CoupledODESpec(p=3.0, q=3.0, C_p=1.0, C_q=1.0,
                          omega=0.5 if bounds is damped_bounds else 0.0,
                          f0=1e-300, g0=1.0)
    assert not bounds(spec).hypothesis_satisfied


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
    verdict = check_comparison(sub_traj, super_traj, spec)
    assert verdict.passed


def test_comparison_equal_trajectories_violate_strictness():
    traj = integrate_coupled(WORKED, t_end=10.0, tol=1e-10, blowup_threshold=1e3)
    verdict = check_comparison(traj, traj, WORKED)
    assert not verdict.passed
    assert verdict.first_violation_index == 0
    assert verdict.first_violation_time == traj.times[0]


@pytest.mark.parametrize("spec", [
    CoupledODESpec(p=2, q=2, C_p=1, C_q=1, omega=0, f0=2, g0=1),
    WORKED_DAMPED,
    CoupledODESpec(p=2.5, q=1.5, C_p=0.8, C_q=1.7, omega=0.3, f0=2, g0=0.9),
], ids=["undamped", "worked_damped", "damped"])
def test_comparison_bound_curves_are_sub_solutions(spec):
    report = damped_bounds(spec) if spec.omega > 0 else undamped_bounds(spec)
    assert report.hypothesis_satisfied
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
    assert check_comparison(sub, traj, spec).passed


@pytest.mark.parametrize("scale,ordered", [(1 - 1e-7, True), (1 + 1e-7, False)])
def test_comparison_resampling_resolves_a_relative_gap_of_1e_7(scale, ordered):
    # WORKED has the exact solution f = g = 1/(1-3t); the sub-solution is it,
    # scaled, at the midpoints of the super-solution's steps
    sup = integrate_coupled(WORKED, t_end=1.0, tol=1e-10, blowup_threshold=1e3)
    mid = 0.5 * (sup.times[:-1] + sup.times[1:])
    exact = scale / (1.0 - 3.0 * mid)
    sub = Trajectory(times=mid, values=np.column_stack([exact, exact]),
                     status=COMPLETED)
    assert check_comparison(sub, sup, WORKED).passed is ordered


def test_comparison_incompatible_ranges():
    a = Trajectory(times=np.array([0.0, 1.0]), values=np.ones((2, 2)),
                   status=COMPLETED)
    b = Trajectory(times=np.array([2.0, 3.0]), values=np.ones((2, 2)) * 2,
                   status=COMPLETED)
    with pytest.raises(ValidationError):
        check_comparison(a, b, WORKED)


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [-np.inf] * 3, [0.0, np.inf]])
def test_a_trajectory_refuses_times_that_are_not_finite(times):
    with pytest.raises(ValidationError, match="finite and strictly increasing"):
        Trajectory(times=times, values=np.ones((len(times), 2)), status=COMPLETED)


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
    assert check_comparison(sub_traj, super_traj, spec).passed


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
