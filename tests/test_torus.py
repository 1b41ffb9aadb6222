import itertools
import pickle
from dataclasses import replace

import numpy as np
import pytest

from cgl_blowup import torus
from cgl_blowup.errors import IntegrationError, ValidationError
from cgl_blowup.ode_core import (BLOWUP, COMPLETED, STEP_COLLAPSE, SingleODESpec,
                                 single_blowup_solution)
from cgl_blowup.system import PAIR_INDEX, FunctionalSeries, SystemParams
from cgl_blowup.torus import (
    TorusGrid,
    TorusStepper,
    blowup_bounds,
    check_growth_inequality,
    constant_state,
    coupling_coefficients,
    functional_derivatives,
    functionals,
    laplacian_zero_mode,
    make_grid,
    run_torus,
    stack_states,
    state_from_arrays,
    torus_step,
)

HEAT = SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-1, beta1=1, beta2=1)


def test_single_mode_heat_decay():
    params = SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-1,
                          beta1=1e-14, beta2=1e-14)
    grid = make_grid(1, 64)
    x = grid.axes()[0]
    state = state_from_arrays(grid, np.exp(1j * x), np.exp(1j * x))
    stepper = TorusStepper(grid, params)
    for _ in range(100):
        state = torus_step(state, stepper, 0.01)
    amp = abs(np.fft.fft(state.u, norm="forward")[1])
    assert amp == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_constant_data_matches_closed_form():
    # spatially constant fields reduce to f' = f^p
    params = SystemParams(n=1, p=2, q=2, alpha1=-1 + 0.5j, alpha2=-2,
                          beta1=1, beta2=1)
    state = constant_state(make_grid(1, 64), 1.0, 1.0)
    run = run_torus(params, state, t_end=0.9, dt_max=1e-3,
                    field_threshold=1e6)
    assert run.status == COMPLETED
    exact = single_blowup_solution(
        SingleODESpec(rho=2, mu=1, f0=1), run.series.times[-1]
    )
    field = run.final_state.u.real.max()
    assert field == pytest.approx(exact, rel=1e-8)
    # fields stay spatially constant
    assert np.ptp(run.final_state.u.real) < 1e-9 * exact


def test_zero_data_is_fixed_point():
    grid = make_grid(1, 32)
    state = constant_state(grid, 0.0, 0.0)
    out = torus_step(state, TorusStepper(grid, HEAT), 0.01)
    assert np.all(out.u == 0) and np.all(out.v == 0)


def test_functionals_constant_field_with_imaginary_coupling():
    params = SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-1,
                          beta1=1j, beta2=1)
    c = 0.7 + 0.2j
    state = constant_state(make_grid(1, 32), c, 1.0)
    U, V = functionals(state, params)
    assert U == pytest.approx((np.conj(1j) * c).real * 2 * np.pi, rel=1e-13)
    assert U == pytest.approx(2 * np.pi * c.imag, rel=1e-13)


def test_functionals_mean_zero_mode_vanishes():
    grid = make_grid(1, 64)
    x = grid.axes()[0]
    state = state_from_arrays(grid, np.exp(1j * x), np.exp(2j * x))
    U, V = functionals(state, HEAT)
    assert abs(U) < 1e-14
    assert abs(V) < 1e-14


def test_functionals_match_direct_quadrature():
    rng = np.random.default_rng(3)
    grid = make_grid(1, 128)
    u = rng.normal(size=128) + 1j * rng.normal(size=128)
    v = rng.normal(size=128) + 1j * rng.normal(size=128)
    params = SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-1,
                          beta1=0.3 - 1.1j, beta2=2.0 + 0.4j)
    state = state_from_arrays(grid, u, v)
    U, V = functionals(state, params)
    hx = 2 * np.pi / 128
    direct_U = float(np.sum((np.conj(params.beta1) * u).real) * hx)
    direct_V = float(np.sum((np.conj(params.beta2) * v).real) * hx)
    assert U == pytest.approx(direct_U, abs=1e-12 * (1 + abs(direct_U)))
    assert V == pytest.approx(direct_V, abs=1e-12 * (1 + abs(direct_V)))


def test_zero_mode_has_no_laplacian_contribution():
    rng = np.random.default_rng(11)
    grid = make_grid(2, 32)
    shape = grid.shape
    u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    state = state_from_arrays(grid, u, v)
    params = SystemParams(n=2, p=2, q=1.5, alpha1=-1 - 0.3j, alpha2=-0.5,
                          beta1=1, beta2=1)
    assert laplacian_zero_mode(state, TorusStepper(grid, params)) < 1e-12


def test_growth_inequality_equality_for_constant_fields():
    state = constant_state(make_grid(1, 64), 1.3, 1.3)
    U, V = functionals(state, HEAT)
    dU, dV = functional_derivatives(state, HEAT)
    # constant fields realize equality in the mean-power comparison
    rhs = (2 * np.pi) ** (-1.0) * V ** 2
    assert dU == pytest.approx(rhs, rel=1e-8)
    series = FunctionalSeries(times=[0.0], U=[U], V=[V], dU=[dU], dV=[dV])
    assert check_growth_inequality(series, HEAT).passed


def test_growth_inequality_strict_for_nonconstant_fields():
    grid = make_grid(1, 128)
    x = grid.axes()[0]
    u = 1.0 + 0.4 * np.cos(x) + 0j
    state = state_from_arrays(grid, u, u)
    U, V = functionals(state, HEAT)
    dU, dV = functional_derivatives(state, HEAT)
    # brute-force quadrature of both sides
    hx = 2 * np.pi / 128
    lhs = float(np.sum(np.abs(u) ** 2) * hx)
    rhs = (2 * np.pi) ** (-1.0) * V ** 2
    assert dU == pytest.approx(lhs, rel=1e-12)
    assert lhs > rhs * (1.0 + 1e-3)


def test_growth_inequality_equality_with_complex_couplings():
    params = SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-1,
                          beta1=0.8 + 0.6j, beta2=-2j)
    s_u, s_v = 1.2, 0.7
    state = constant_state(
        make_grid(1, 64),
        s_u * params.beta1 / abs(params.beta1),
        s_v * params.beta2 / abs(params.beta2),
    )
    U, V = functionals(state, params)
    assert U == pytest.approx(abs(params.beta1) * 2 * np.pi * s_u, rel=1e-13)
    dU, dV = functional_derivatives(state, params)
    rhs = (abs(params.beta1) ** 2 * abs(params.beta2) ** (-2.0)
           * (2 * np.pi) ** (-1.0) * V ** 2)
    assert dU == pytest.approx(rhs, rel=1e-12)
    series = FunctionalSeries(times=[0.0], U=[U], V=[V], dU=[dU], dV=[dV])
    assert check_growth_inequality(series, params).passed


def test_growth_inequality_gates_on_positivity():
    series = FunctionalSeries(
        times=[0.0, 1.0, 2.0],
        U=[1.0, 1.0, 1.0],
        V=[1.0, -0.5, 1.0],
        dU=[1.0, 0.0, 1.0],
        dV=[1.0, 0.0, 1.0],
    )
    report = check_growth_inequality(series, HEAT)
    assert report.unchecked == (1,)
    assert report.n_checked == 2


def test_bounds_constant_data_worked_case():
    c = 1.0
    U0 = V0 = 2 * np.pi * c
    C_p, C_q = coupling_coefficients(HEAT)
    assert C_p == pytest.approx(1 / (3 * 2 * np.pi), rel=1e-14)
    report = blowup_bounds(HEAT, U0, V0)
    assert report.hypothesis_satisfied
    assert report.lifespan_bound == pytest.approx(2 ** (4 / 3) / c, rel=1e-12)


def test_check_and_bound_share_the_jensen_coefficients():
    params = SystemParams(n=2, p=2, q=1.5, alpha1=-0.7, alpha2=-1.3,
                          beta1=1.7, beta2=0.6)
    series = FunctionalSeries(times=[0.0], U=[1.0], V=[1.0], dU=[-1e6], dV=[-1e6])
    rhs = {c: r for (_, _, c, _, r) in check_growth_inequality(series, params).violations}
    C_p, C_q = coupling_coefficients(params)
    assert rhs["U"] / 3.0 == C_p
    assert rhs["V"] / 2.5 == C_q


def test_bounds_sign_gate():
    report = blowup_bounds(HEAT, -1.0, 1.0)
    assert not report.hypothesis_satisfied


def test_bounds_of_symmetric_data_are_real():
    # U0 == V0 and p == q give F0 == G0: the lower-bound curve's shift is 0,
    # and must not come out of a rounded negative base as a complex number
    for p in np.linspace(1.1, 4.0, 30):
        params = SystemParams(n=1, p=float(p), q=float(p), alpha1=-1, alpha2=-1,
                              beta1=1, beta2=1)
        for eps in (0.1, 0.3, 1.0, 3.0, 10.0):
            report = blowup_bounds(params, eps, eps)
            assert report.hypothesis_satisfied
            times = np.linspace(0.0, 0.99 * report.lifespan_bound, 33)
            curve = report.to_json_dict(times)["lower_bound"]
            assert all(np.isfinite(curve))
            assert curve[0] == pytest.approx(eps, rel=1e-12)


def test_simulated_blowup_before_bound():
    state = constant_state(make_grid(1, 64), 1.0, 1.0)
    run = run_torus(HEAT, state, t_end=5.0, dt_max=1e-3, field_threshold=1e5)
    assert run.status == BLOWUP
    report = blowup_bounds(HEAT, run.series.U[0], run.series.V[0])
    assert run.escape_time() <= report.lifespan_bound
    assert run.escape_time() == pytest.approx(1.0, abs=1e-3)


def test_homogeneous_run_tracks_ode_to_high_amplitude():
    state = constant_state(make_grid(1, 64), 1.0, 1.0)
    run = run_torus(HEAT, state, t_end=5.0, dt_max=1e-3, field_threshold=1e4,
                    dt_safety=0.01)
    # u(t) = (1 - t)^(-1) exactly for this reduction
    exact = (1.0 - run.series.times) ** -1.0 * 2 * np.pi
    rel = np.abs(run.series.U - exact) / exact
    assert np.max(rel) < 1e-6


def test_resolution_doubling_agrees():
    x_lo = make_grid(1, 128)
    x_hi = make_grid(1, 256)
    params = SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-1, beta1=1, beta2=1)

    def bumped(grid):
        x = grid.axes()[0]
        u = 0.8 + 0.2 * np.cos(x) + 0j
        return state_from_arrays(grid, u, u.copy())

    run_lo = run_torus(params, bumped(x_lo), t_end=0.4, dt_max=5e-4,
                       field_threshold=1e6)
    run_hi = run_torus(params, bumped(x_hi), t_end=0.4, dt_max=5e-4,
                       field_threshold=1e6)
    assert run_lo.series.U[-1] == pytest.approx(run_hi.series.U[-1], rel=1e-8)
    assert run_lo.series.V[-1] == pytest.approx(run_hi.series.V[-1], rel=1e-8)


def test_padded_nonlinearity_matches_on_smooth_data():
    grid = make_grid(1, 64)
    x = grid.axes()[0]
    u = 1.0 + 0.1 * np.cos(x) + 0j
    state = state_from_arrays(grid, u, u.copy())
    plain = torus_step(state, TorusStepper(grid, HEAT, pad=False), 1e-3)
    padded = torus_step(state, TorusStepper(grid, HEAT, pad=True), 1e-3)
    assert np.max(np.abs(plain.u - padded.u)) < 1e-10


def _resize_spectrum(ah, modes, size, n):
    """The ``modes`` retained coefficients per axis of the last n axes of
    ``ah`` copied into zeros of ``size`` points per axis."""
    half = modes // 2
    out = np.zeros(ah.shape[:-n] + (size,) * n, dtype=complex)
    for corner in itertools.product((slice(None, half), slice(-half, None)), repeat=n):
        out[(..., *corner)] = ah[(..., *corner)]
    return out


def _padded_nonlinearity_by_whole_transforms(stepper, yh):
    """The padded nonlinearity through whole padded transforms: the spectra
    zero-padded, ``ifftn``, one power per field, ``fftn``, truncated."""
    n, modes = stepper.grid.n, stepper.grid.modes
    padded = _resize_spectrum(yh, modes, 3 * modes // 2, n)
    y = (np.fft.ifftn(padded, axes=(-2, -1), norm="forward") if n == 2
         else np.fft.ifft(padded, norm="forward"))
    u, v, _ = PAIR_INDEX[n]
    powers = np.empty_like(y)
    powers[u] = np.abs(y[v]) ** stepper.p
    powers[v] = np.abs(y[u]) ** stepper.q
    nh = (np.fft.fftn(powers, axes=(-2, -1), norm="forward") if n == 2
          else np.fft.fft(powers, norm="forward"))
    return stepper.beta * _resize_spectrum(nh, modes, modes, n)


def _padded_nonlinearity_matches(n, modes, p, q):
    """Whether one padded stepper's nonlinearity gives, as bytes, the
    spectra of the whole padded transforms, for two single states and then
    two batches of 3, each spectrum drawn at random."""
    params = SystemParams(n=n, p=p, q=q, alpha1=-1 - 0.3j, alpha2=-0.5,
                          beta1=0.8 + 0.6j, beta2=-0.6 + 0.8j)
    stepper = TorusStepper(make_grid(n, modes), params, pad=True)
    rng = np.random.default_rng(modes + n)
    for batch in ((), (), (3,), (3,)):
        yh = rng.standard_normal(batch + (2,) + (modes,) * n + (2,)).view(complex)[..., 0]
        expected = _padded_nonlinearity_by_whole_transforms(stepper, yh)
        if stepper.nonlinearity(yh).tobytes() != expected.tobytes():
            return False
    return True


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("modes", [16, 64])
@pytest.mark.parametrize("p, q", [(2, 2), (3, 3), (2.5, 1.5)])
def test_padded_nonlinearity_gives_the_bits_of_the_whole_padded_transforms(n, modes, p, q):
    assert _padded_nonlinearity_matches(n, modes, p, q)


@pytest.mark.parametrize("function, old, new", [
    # the first band of rows transformed along axis -1, the second left stale
    ("_padded_ifft", 'np.fft.ifft(spread, norm="forward", out=_bands(y, -2))',
     'np.fft.ifft(spread[..., :1, :, :], norm="forward", out=_bands(y, -2)[..., :1, :, :])'),
    # the rows between the bands left as the last transform wrote them
    ("_padded_ifft", "_bands(y, -2, 1)[...] = 0.0", "pass"),
    # the first band of columns transformed along axis -2, the second not
    ("_truncated_fft", 'np.fft.fft(retained, axis=-3, norm="forward", out=retained)',
     'np.fft.fft(retained[..., :1, :], axis=-3, norm="forward", out=retained[..., :1, :])'),
])
def test_a_padded_transform_that_misses_a_band_is_caught(function, old, new, mutate):
    mutate(torus, function, old, new)
    assert not _padded_nonlinearity_matches(2, 16, 2, 2)


# The observed order of the IF-RK4 step on 64 modes, p = q = 2, with data
# 1 + 0.5 cos x + 0.2 sin 3x and 0.8 + 0.3 cos 2x: fixed steps of 0.02, 0.01
# and 0.005 to t = 0.2 against a run at dt 1e-4.  Measured 4.00 with real
# alpha (errors 7.0e-8, 4.4e-9, 2.7e-10) and with complex coefficients.
_ORDER_PARAMS = {
    "real": SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-0.5, beta1=1, beta2=1),
    "complex": SystemParams(n=1, p=2, q=2, alpha1=-1 + 0.5j, alpha2=-0.5 - 0.3j,
                            beta1=1 + 0.2j, beta2=0.8 - 0.4j),
}


def _observed_order(params):
    """The smaller of the two orders log2(error(dt) / error(dt / 2)) of
    ``torus.torus_step`` over the three steps."""
    grid = make_grid(1, 64)
    x = grid.axes()[0]
    stepper = TorusStepper(grid, params)

    def final_fields(dt):
        state = state_from_arrays(grid, 1 + 0.5 * np.cos(x) + 0.2 * np.sin(3 * x),
                                  0.8 + 0.3 * np.cos(2 * x))
        for _ in range(round(0.2 / dt)):
            state = torus.torus_step(state, stepper, dt)
        return state.fields

    reference = final_fields(1e-4)
    errors = [np.abs(final_fields(dt) - reference).max() for dt in (0.02, 0.01, 0.005)]
    return min(np.log2(errors[0] / errors[1]), np.log2(errors[1] / errors[2]))


@pytest.mark.parametrize("coefficients", _ORDER_PARAMS)
def test_step_converges_at_fourth_order(coefficients):
    assert _observed_order(_ORDER_PARAMS[coefficients]) >= 3.5


@pytest.mark.parametrize("old, new", [
    ("2.0 * e * (n2 + n3)", "2.0 * (n2 + n3)"),  # order 1.02
    ("e * yh + 0.5 * h * n2", "e * (yh + 0.5 * h * n2)"),  # order 1.99
])
def test_step_with_a_wrong_stage_propagator_is_caught(old, new, mutate):
    mutate(torus, "torus_step", old, new)
    assert _observed_order(_ORDER_PARAMS["real"]) < 3.5


def _largest_derivative_gaps():
    """The largest gap, relative to the increment, between the trapezoid of
    the reported U' (and V') over an interval of a run's series and the
    interval's increment of U (and V).  The run: 64 modes, p = 2, q = 1.5,
    data 1.2 + 0.3 cos x and 1.0 + 0.2 cos x, to field 1e3 (1207 nodes)."""
    grid = make_grid(1, 64)
    x = grid.axes()[0]
    params = SystemParams(n=1, p=2, q=1.5, alpha1=-1, alpha2=-1, beta1=1, beta2=1)
    state = state_from_arrays(grid, 1.2 + 0.3 * np.cos(x), 1.0 + 0.2 * np.cos(x))
    series = run_torus(params, state, t_end=10.0, dt_max=1e-3, field_threshold=1e3).series
    dt = np.diff(series.times)
    return [np.max(np.abs(0.5 * (dw[1:] + dw[:-1]) * dt - np.diff(w)) / np.abs(np.diff(w)))
            for w, dw in ((series.U, series.dU), (series.V, series.dV))]


# Near blow-up the step safety 0.05 sets each step's share of the time scale,
# so the trapezoid's relative error per interval stays near 5e-4 at any dt_max
def test_reported_derivatives_integrate_to_the_functionals():
    gap_u, gap_v = _largest_derivative_gaps()
    assert gap_u < 2e-3 and gap_v < 2e-3  # 5.7e-4 and 4.6e-4


def test_a_derivative_of_the_wrong_power_is_caught(mutate):
    mutate(torus, "functional_derivatives", "np.abs(state.u) ** params.q",
           "np.abs(state.u) ** params.p")
    assert _largest_derivative_gaps()[1] > 2e-3  # 25


def test_step_rejects_growing_linear_part():
    params = SystemParams(n=1, p=2, q=2, alpha1=1.0, alpha2=-1, beta1=1, beta2=1)
    with pytest.raises(ValidationError, match="Re\\(alpha\\)"):
        TorusStepper(make_grid(1, 32), params)


def test_step_overflow_carries_last_state():
    grid = make_grid(1, 32)
    state = constant_state(grid, 1e200, 1e200)
    with pytest.raises(IntegrationError) as exc:
        torus_step(state, TorusStepper(grid, HEAT), 1.0)
    assert exc.value.last_node is state


def _bumped_state(grid, amplitude=1.0):
    x = grid.axes()[0]
    if grid.n == 2:
        x = x[:, None] + 0.5 * x[None, :]
    return state_from_arrays(grid, amplitude * (1.0 + 0.2 * np.cos(x)) + 0j,
                             amplitude * (0.9 + 0.1j * np.sin(x)))


@pytest.mark.parametrize("other_grid", [pytest.param(make_grid(1, 64), id="grid"),
                                        pytest.param(make_grid(2, 32), id="dimension")])
def test_step_refuses_a_stepper_built_for_another_run(other_grid):
    params = SystemParams(n=1, p=2, q=1.5, alpha1=-1, alpha2=-0.5, beta1=1, beta2=1)
    grid = make_grid(1, 32)
    state = _bumped_state(grid)
    stepper = TorusStepper(other_grid, replace(params, n=other_grid.n))
    with pytest.raises(ValidationError, match="another grid"):
        torus_step(state, stepper, 1e-3)
    with pytest.raises(ValidationError, match="another grid"):
        laplacian_zero_mode(state, stepper)
    # grids are compared by shape: an equal grid object is the same grid
    equal = TorusStepper(make_grid(1, 32), params)
    assert equal.grid is not grid
    assert torus_step(state, equal, 1e-3).t == 1e-3


def test_a_stepper_or_run_refuses_params_of_another_dimension():
    # params of n = 1 on a 2-d grid would give a 2-d run the functionals and
    # the lifespan bound of n = 1
    grid = make_grid(2, 16)
    state = constant_state(grid, 1, 1)
    with pytest.raises(ValidationError, match="dimension 2 for n = 1"):
        TorusStepper(grid, HEAT)
    with pytest.raises(ValidationError, match="another grid"):
        run_torus(HEAT, state, t_end=0.5, dt_max=1e-3)
    for evaluate in (functionals, functional_derivatives):
        with pytest.raises(ValidationError, match="not on a grid of dimension n = 1"):
            evaluate(state, HEAT)


def _recorded_steps(monkeypatch):
    """Record the (state, dt, stepper) of every torus_step a run makes."""
    calls = []
    step = torus.torus_step

    def recorded(state, stepper, dt):
        calls.append((state, dt, stepper))
        return step(state, stepper, dt)

    monkeypatch.setattr(torus, "torus_step", recorded)
    return calls


@pytest.mark.parametrize("n,modes", [(1, 32), (2, 16)])
@pytest.mark.parametrize("pad", [False, True])
def test_run_stepper_gives_the_standalone_steps_bits(n, modes, pad, monkeypatch):
    params = SystemParams(n=n, p=2, q=1.5, alpha1=-1 - 0.3j, alpha2=-0.5,
                          beta1=0.8 + 0.6j, beta2=1)
    grid = make_grid(n, modes)
    start = _bumped_state(grid)
    calls = _recorded_steps(monkeypatch)
    run = run_torus(params, start, t_end=3.0, dt_max=1e-2, field_threshold=1e3,
                    pad=pad)
    assert run.status == BLOWUP
    dts = [dt for _, dt, _ in calls]
    assert len(set(dts)) > 10  # dt shrinks near blow-up
    # every standalone step and check builds its own stepper
    state, rows, lap = start, [], []
    for dt in [None] + dts:
        if dt is not None:
            state = torus_step(state, TorusStepper(grid, params, pad), dt)
        rows.append((state.t, *functionals(state, params),
                     *functional_derivatives(state, params)))
        lap.append(laplacian_zero_mode(state, TorusStepper(grid, params)))
    series = run.series
    assert np.array(rows).T.tobytes() == np.array(
        [series.times, series.U, series.V, series.dU, series.dV]).tobytes()
    assert state.u.tobytes() == run.final_state.u.tobytes()
    assert state.v.tobytes() == run.final_state.v.tobytes()
    assert run.lap_zero_mode_max == max(lap)
    stepper = calls[0][2]
    for node, _, _ in calls[::20]:
        assert laplacian_zero_mode(node, stepper) == laplacian_zero_mode(
            node, TorusStepper(grid, params))


def test_run_sets_up_once_and_transforms_both_fields_together(monkeypatch):
    counts = {"fft": 0, "k2": 0, "exp": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted("fft", getattr(np.fft, name)))
    monkeypatch.setattr(TorusGrid, "wavenumbers_squared",
                        counted("k2", TorusGrid.wavenumbers_squared))
    monkeypatch.setattr(np, "exp", counted("exp", np.exp))
    calls = _recorded_steps(monkeypatch)
    run = run_torus(HEAT, _bumped_state(make_grid(1, 32), 0.5), t_end=3.0,
                    dt_max=1e-2, field_threshold=1e3, check_zero_mode=False)
    assert run.status == BLOWUP
    dts = [dt for _, dt, _ in calls]
    dt_changes = sum(a != b for a, b in zip(dts, dts[1:]))
    assert dt_changes < len(dts) // 2  # most steps run at dt_max
    assert counts == {"fft": 10 * len(dts), "k2": 1, "exp": 1 + dt_changes}


def test_a_checked_run_transforms_each_node_once_for_its_check_and_its_step(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        function = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, f=function, **k: calls.append(1) or f(*a, **k))
    steps = _recorded_steps(monkeypatch)
    run = run_torus(HEAT, _bumped_state(make_grid(1, 32), 0.5), t_end=3.0,
                    dt_max=1e-2, field_threshold=1e3)
    assert run.status == BLOWUP
    # the step's 10 and the check's inverse transform; the last node is
    # checked and not stepped from
    assert len(calls) == 11 * len(steps) + 2
    for node, _, _ in steps:
        assert node.held[0] is node.fields and not node.held[1].flags.writeable


def test_a_pickled_node_holds_no_stepper_and_its_copy_recomputes_the_spectrum():
    grid = make_grid(1, 32)
    run = run_torus(HEAT, _bumped_state(grid, 0.5), t_end=3.0, dt_max=1e-2,
                    field_threshold=1e3)
    final = run.final_state
    assert final.held is not None  # kept by the check of the last node
    data = pickle.dumps(final)
    assert b"TorusStepper" not in data
    copy = pickle.loads(data)
    assert copy.held[0] is not copy.fields  # the copy's fields are a new view
    stepper = TorusStepper(grid, HEAT)
    spectrum = stepper.spectrum(copy)
    assert copy.held[0] is copy.fields
    assert spectrum.tobytes() == stepper.spectrum(final).tobytes()
    assert torus_step(copy, stepper, 1e-3).fields.tobytes() == torus_step(
        final, stepper, 1e-3).fields.tobytes()


@pytest.mark.parametrize("n,modes,pad", [(1, 32, True), (2, 16, False)])
def test_a_checked_batch_gives_each_rung_its_unchecked_runs_bits(n, modes, pad):
    # rungs leave the batch mid-way, as in the lockstep test; a checked node
    # lends its spectrum to the step from it, an unchecked one takes its own
    params = SystemParams(n=n, p=2, q=1.5, alpha1=-1 - 0.3j, alpha2=-0.5,
                          beta1=0.8 + 0.6j, beta2=-0.6 + 0.8j)
    rungs = [_bumped_state(make_grid(n, modes), a) for a in (1.2, 0.5, 2.0, 0.8)]
    run = dict(t_end=2.0, dt_max=1e-2, field_threshold=1e3, pad=pad)
    batch = run_torus(params, stack_states(rungs), **run)
    alone = [run_torus(params, rung, check_zero_mode=False, **run) for rung in rungs]
    assert [r.status for r in batch] == [BLOWUP, COMPLETED, BLOWUP, COMPLETED]
    for together, single in zip(batch, alone):
        assert np.array_equal(_bits(together), _bits(single))
        assert together.final_state.fields.tobytes() == single.final_state.fields.tobytes()
        assert together.lap_zero_mode_max < 1e-12 and single.lap_zero_mode_max == 0.0


def test_a_step_transforms_the_state_itself(monkeypatch):
    # a step's first forward transform is of the node's own stacked fields,
    # and its last inverse transform is the next node's fields, unsplit
    forward, inverse = [], []
    fft, ifft = np.fft.fft, np.fft.ifft

    def recorded_fft(a, *args, **kwargs):
        forward.append(a)
        return fft(a, *args, **kwargs)

    def recorded_ifft(*args, **kwargs):
        inverse.append(ifft(*args, **kwargs))
        return inverse[-1]

    monkeypatch.setattr(np.fft, "fft", recorded_fft)
    monkeypatch.setattr(np.fft, "ifft", recorded_ifft)
    calls = _recorded_steps(monkeypatch)
    run = run_torus(HEAT, _bumped_state(make_grid(1, 32), 0.5), t_end=3.0,
                    dt_max=1e-2, field_threshold=1e3, check_zero_mode=False)
    assert run.status == BLOWUP
    nodes = [state for state, _, _ in calls] + [run.final_state]
    assert len(forward) == len(inverse) == 5 * len(calls)
    assert all(forward[5 * i] is node.fields for i, node in enumerate(nodes[:-1]))
    assert all(inverse[5 * i + 4] is node.fields.base for i, node in enumerate(nodes[1:]))
    final = run.final_state
    assert np.shares_memory(final.u, final.fields) and np.shares_memory(final.v, final.fields)


def _bits(run):
    series = run.series
    return np.array([series.times, series.U, series.V, series.dU, series.dV]).view(np.int64)


@pytest.mark.parametrize("n,modes,pad", [(1, 32, False), (2, 16, True)])
def test_a_lockstep_batch_gives_each_rung_its_own_runs_bits(n, modes, pad):
    # complex beta: the functionals multiply each rung's means by
    # conj(beta) * vol one scalar at a time, as a run of the rung alone does;
    # at t_end 2 the rungs of amplitude 0.5 and 0.8 end completed and the
    # others blow up, each at its own step, so rungs leave the batch mid-way
    params = SystemParams(n=n, p=2, q=1.5, alpha1=-1 - 0.3j, alpha2=-0.5,
                          beta1=0.8 + 0.6j, beta2=-0.6 + 0.8j)
    rungs = [_bumped_state(make_grid(n, modes), a) for a in (1.2, 0.5, 2.0, 0.8)]
    run = dict(t_end=2.0, dt_max=1e-2, field_threshold=1e3, pad=pad)
    batch = run_torus(params, stack_states(rungs), **run)
    alone = [run_torus(params, rung, **run) for rung in rungs]
    assert [r.status for r in batch] == [BLOWUP, COMPLETED, BLOWUP, COMPLETED]
    # the blow-ups and the completed pair leave at three different steps
    assert len({r.series.times.size for r in batch}) == 3
    for together, single in zip(batch, alone):
        assert together.status == single.status
        assert np.array_equal(_bits(together), _bits(single))
        assert isinstance(together.final_state, torus.PairState)
        assert together.final_state.t == single.final_state.t
        assert together.final_state.fields.tobytes() == single.final_state.fields.tobytes()
        assert together.lap_zero_mode_max == single.lap_zero_mode_max


@pytest.mark.parametrize("n,modes", [(1, 32), (2, 16)])
def test_a_batch_recomputes_the_propagators_of_the_rungs_whose_dt_changed(
        n, modes, monkeypatch):
    params = SystemParams(n=n, p=2, q=1.5, alpha1=-1 - 0.3j, alpha2=-0.5, beta1=1, beta2=1)
    grid = make_grid(n, modes)
    stepper = TorusStepper(grid, params)
    stepper.propagators(np.array([1e-2, 3e-3, 7e-3]))
    rows, exp = [], np.exp  # rows: the propagators computed, one per dt
    monkeypatch.setattr(np, "exp", lambda a: rows.append(a.size // stepper.lin.size) or exp(a))
    # one rung's dt changes, none, two, a rung leaves, a single state, a batch
    for dts, recomputed in (([1e-2, 2.5e-3, 7e-3], 3), ([1e-2, 2.5e-3, 7e-3], 0),
                            ([9e-3, 2.5e-3, 6e-3], 3), ([9e-3, 6e-3], 2),
                            (6e-3, 1), ([6e-3, 6e-3], 2)):
        dt = np.array(dts) if isinstance(dts, list) else dts
        rows.clear()
        got = stepper.propagators(dt)
        assert sum(rows) == recomputed
        fresh = TorusStepper(grid, params).propagators(dt)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in fresh]


def test_a_batch_needs_one_time_and_one_dt_per_state_on_one_grid():
    grid = make_grid(1, 16)
    with pytest.raises(ValidationError, match="one time per state"):
        torus_step(torus.PairState(np.ones((3, 2, 16)), t=[0.0, 0.0]),
                   TorusStepper(grid, HEAT), 1e-3)
    with pytest.raises(ValidationError, match="one grid"):
        stack_states([constant_state(grid, 1, 1), constant_state(make_grid(1, 32), 1, 1)])
    batch = stack_states([constant_state(grid, 1, 1), constant_state(grid, 2, 2)])
    assert batch.u.shape == batch.v.shape == (2, 16) and batch.t.tolist() == [0.0, 0.0]
    assert batch.v[1, 0] == 2
    stepper = TorusStepper(grid, HEAT)
    for state, dt in ((batch, np.array([1e-3, 1e-3, 1e-3])), (batch, 1e-3),
                      (constant_state(grid, 1, 1), np.array([1e-3, 1e-3]))):
        with pytest.raises(ValidationError, match="one dt per state"):
            torus_step(state, stepper, dt)
    with pytest.raises(ValidationError, match="dt must be positive"):
        torus_step(batch, stepper, np.array([1e-3, 0.0]))


@pytest.mark.parametrize("t", [[0.0], (0.0,), np.zeros(1), np.zeros((1, 1))])
def test_a_single_state_refuses_an_array_time(t):
    # a time that is an array makes a state a batch, which one pair is not
    grid = make_grid(1, 16)
    stepper = TorusStepper(grid, HEAT)
    with pytest.raises(ValidationError, match="a single state needs a single time"):
        torus_step(torus.PairState(np.ones((2, 16)), t=t), stepper, 1e-3)
    with pytest.raises(ValidationError, match="a single state needs a single time"):
        state_from_arrays(grid, np.ones(16), np.ones(16), t=t)
    assert torus.PairState(np.ones((2, 16)), t=np.float64(0.5)).batch_shape == ()


@pytest.mark.parametrize("layout", ["reversed", "strided", "fortran_2d"])
def test_a_non_contiguous_field_steps_to_the_bits_of_its_contiguous_copy(layout):
    n = 2 if layout == "fortran_2d" else 1
    params = SystemParams(n=n, p=2, q=1.5, alpha1=-1 - 0.3j, alpha2=-0.5,
                          beta1=0.8 + 0.6j, beta2=1)
    if n == 2:
        grid = make_grid(2, 16)
        x, y = np.meshgrid(*grid.axes(), indexing="ij")
        u = np.asfortranarray(1.0 + 0.2 * np.cos(x + 0.5 * y) + 0j)
        v = np.asfortranarray(0.9 + 0.1j * np.sin(x) * np.cos(y))
    else:
        grid = make_grid(1, 32)
        x = make_grid(1, 64 if layout == "strided" else 32).axes()[0]
        u, v = 1.0 + 0.2 * np.cos(x) + 0.1j * np.sin(2 * x), 0.9 + 0.1j * np.sin(x)
        u, v = (u[::2], v[::2]) if layout == "strided" else (u[::-1], v[::-1])
    assert not (u.flags.c_contiguous or v.flags.c_contiguous)
    state = state_from_arrays(grid, u, v)
    copied = state_from_arrays(grid, np.ascontiguousarray(u), np.ascontiguousarray(v))
    assert state.fields.tobytes() == copied.fields.tobytes()
    for pad in (False, True):
        stepper = TorusStepper(grid, params, pad)
        a, b = torus_step(state, stepper, 1e-3), torus_step(copied, stepper, 1e-3)
        assert a.fields.tobytes() == b.fields.tobytes()
        assert functionals(a, params) == functionals(b, params)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_run_past_the_float_range_raises_with_the_last_good_node():
    state = constant_state(make_grid(1, 32), 1e200, 1e200)
    with pytest.raises(IntegrationError) as exc:
        run_torus(HEAT, state, t_end=1.0, dt_max=1e-3)
    assert exc.value.last_node is state


def test_a_run_whose_time_cannot_advance_collapses_at_its_data_node():
    # at t = -1e13 a step of dt_max leaves t as it is; the collapse floor
    # scales with |t|, so the run stops at once instead of marching in place
    state = state_from_arrays(make_grid(1, 16), np.ones(16), np.ones(16), t=-1e13)
    run = run_torus(HEAT, state, t_end=1.0, dt_max=1e-3)
    assert run.status == STEP_COLLAPSE
    assert run.series.times.tolist() == [-1e13]
    assert run.final_state is state


def test_a_batch_with_a_time_that_is_not_finite_is_refused():
    grid = make_grid(1, 16)
    batch = stack_states([constant_state(grid, 1, 1),
                          state_from_arrays(grid, np.ones(16), np.ones(16), t=-np.inf)])
    with pytest.raises(ValidationError, match="finite"):
        run_torus(HEAT, batch, t_end=0.5, dt_max=1e-3)


def test_a_nan_dt_is_refused_not_reported_as_overflow():
    grid = make_grid(1, 16)
    stepper = TorusStepper(grid, HEAT)
    batch = stack_states([constant_state(grid, 1, 1), constant_state(grid, 2, 2)])
    for state, dt in ((constant_state(grid, 1, 1), float("nan")),
                      (batch, np.array([np.nan, 1e-3]))):
        with pytest.raises(ValidationError, match="dt must be positive"):
            torus_step(state, stepper, dt)


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [-np.inf] * 3, [0.0, np.inf]])
def test_a_series_refuses_times_that_are_not_finite(times):
    columns = [np.ones(len(times))] * 4
    with pytest.raises(ValidationError, match="finite and strictly increasing"):
        FunctionalSeries(times, *columns)


LOCKSTEP_PARAMS = SystemParams(n=1, p=2, q=1.5, alpha1=-1 - 0.3j, alpha2=-0.5,
                               beta1=0.8 + 0.6j, beta2=-0.6 + 0.8j)


def test_a_rung_that_collapses_at_its_data_node_leaves_a_batch_mid_way():
    # the rung of amplitude 1e16 needs a dt below the collapse floor at its
    # data node; the others blow up and complete as they do alone
    rungs = [constant_state(make_grid(1, 16), a, a) for a in (1.2, 1e16, 0.6)]
    run = dict(t_end=2.0, dt_max=1e-2, field_threshold=1e3)
    batch = run_torus(LOCKSTEP_PARAMS, stack_states(rungs), **run)
    alone = [run_torus(LOCKSTEP_PARAMS, rung, **run) for rung in rungs]
    assert [r.status for r in batch] == [BLOWUP, STEP_COLLAPSE, COMPLETED]
    assert batch[1].series.times.size == 1
    for together, single in zip(batch, alone):
        assert together.status == single.status
        assert np.array_equal(_bits(together), _bits(single))
        assert together.final_state.t == single.final_state.t
        assert together.final_state.fields.tobytes() == single.final_state.fields.tobytes()
        assert together.lap_zero_mode_max == single.lap_zero_mode_max


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_step_rate_overflow_in_a_batch_raises_with_that_rungs_node():
    rungs = [constant_state(make_grid(1, 16), a, a) for a in (0.9, 0.7, 1e200)]
    with pytest.raises(IntegrationError, match="step rate overflow") as exc:
        run_torus(LOCKSTEP_PARAMS, stack_states(rungs), t_end=2.0, dt_max=1e-2,
                  field_threshold=1e3)
    node = exc.value.last_node
    assert isinstance(node, torus.PairState)
    assert node.fields.shape == (2, 16)
    assert np.abs(node.fields).max() == 1e200 and node.t == 0.0


def test_bound_ordering_across_sampled_configurations():
    # homogeneous runs over >= 20 random hypothesis-satisfying configs:
    # measured escape must stay below the lifespan bound
    rng = np.random.default_rng(515)
    grid = make_grid(1, 16)
    checked = 0
    while checked < 20:
        q = float(rng.uniform(1.0, 2.5))
        p = float(rng.uniform(q, 3.0))
        if p * q <= 1.01:
            continue
        b1 = complex(*rng.normal(size=2))
        b2 = complex(*rng.normal(size=2))
        if abs(b1) < 0.2 or abs(b2) < 0.2:
            continue
        params = SystemParams(n=1, p=p, q=q, alpha1=-1, alpha2=-0.5,
                              beta1=b1, beta2=b2)
        cu = float(rng.uniform(0.5, 2.0)) * b1 / abs(b1)
        cv = float(rng.uniform(0.5, 2.0)) * b2 / abs(b2)
        state = constant_state(grid, cu, cv)
        U0, V0 = functionals(state, params)
        report = blowup_bounds(params, U0, V0)
        if not report.hypothesis_satisfied:
            continue
        run = run_torus(params, state, t_end=1.05 * report.lifespan_bound,
                        dt_max=report.lifespan_bound / 2000,
                        field_threshold=1e4, check_zero_mode=False)
        assert run.status == BLOWUP
        assert run.escape_time() <= report.lifespan_bound
        checked += 1


def test_two_dimensional_constant_run_matches_ode():
    params = SystemParams(n=2, p=2, q=2, alpha1=-1, alpha2=-1, beta1=1, beta2=1)
    state = constant_state(make_grid(2, 32), 1.0, 1.0)
    run = run_torus(params, state, t_end=0.5, dt_max=5e-4, field_threshold=1e6)
    exact = (1.0 - run.series.times[-1]) ** -1.0
    assert run.final_state.u.real.max() == pytest.approx(exact, rel=1e-8)
    U0 = run.series.U[0]
    assert U0 == pytest.approx((2 * np.pi) ** 2, rel=1e-12)
    bounds = blowup_bounds(params, U0, U0)
    assert bounds.hypothesis_satisfied
    # equality case of the mean-power comparison, now with the n=2 volume
    assert check_growth_inequality(run.series, params).passed
    rhs = (2 * np.pi) ** (-2.0) * run.series.V[0] ** 2
    assert run.series.dU[0] == pytest.approx(rhs, rel=1e-12)


def test_functionals_csv_header(tmp_path):
    state = constant_state(make_grid(1, 32), 1.0, 1.0)
    run = run_torus(HEAT, state, t_end=0.05, dt_max=1e-3, field_threshold=1e6)
    path = tmp_path / "f.csv"
    run.series.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,U,V,dUdt,dVdt"
    assert len(lines) == run.series.times.size + 1


def test_params_validation():
    with pytest.raises(ValidationError):
        SystemParams(n=1, p=1.0, q=1.0, alpha1=-1, alpha2=-1, beta1=1, beta2=1)
    with pytest.raises(ValidationError):
        SystemParams(n=1, p=1.5, q=2.0, alpha1=-1, alpha2=-1, beta1=1, beta2=1)
    with pytest.raises(ValidationError):
        SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-1, beta1=0, beta2=1)
