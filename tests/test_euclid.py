import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from cgl_blowup import euclid, testfn
from cgl_blowup.errors import IntegrationError, ValidationError
from cgl_blowup.euclid import (
    DataSpec,
    EuclidRunSpec,
    EuclidState,
    blowup_bounds,
    cfl_limit,
    check_weighted_growth_inequality,
    coupling_spec,
    discrete_laplacian,
    euclid_step,
    evaluate_thresholds,
    functional_derivatives,
    make_initial_state,
    run_euclid,
    solve_banded,
    stack_states,
    weighted_functionals,
)
from cgl_blowup.ode_core import (BLOWUP, COMPLETED, STEP_COLLAPSE, damped_bounds,
                                  damped_hypothesis_terms)
from cgl_blowup.system import FunctionalSeries, SystemParams
from cgl_blowup.testfn import build_test_function


@pytest.fixture(scope="module")
def tf1():
    return build_test_function(1)


def heat_params(n=1, p=2.0, q=1.5, beta1=1.0, beta2=1.0):
    return SystemParams(n=n, p=p, q=q, alpha1=-1, alpha2=-1,
                        beta1=beta1, beta2=beta2)


def small_spec(**kw):
    defaults = dict(
        params=heat_params(),
        R=4.0,
        box_half_width=8.0,
        h=4.0 / 64,
        data=DataSpec(epsilon=0.5, r_data=2.0, amp_u=1.0, amp_v=0.5),
    )
    defaults.update(kw)
    return EuclidRunSpec(**defaults)


# ---------------------------------------------------------------------------
# stepper oracles

def test_heat_kernel_oracle():
    params = SystemParams(n=1, p=2, q=1.5, alpha1=-1, alpha2=-1,
                          beta1=1e-14, beta2=1e-14)
    spec = EuclidRunSpec(params=params, R=4.0, box_half_width=12.0, h=1 / 32,
                         data=DataSpec(epsilon=1.0, r_data=1.0, shape="gaussian"))
    state = make_initial_state(spec)
    while state.t < 0.5 - 1e-12:
        state = euclid_step(state, spec, min(2e-3, 0.5 - state.t))
    x = spec.grid.axis
    s = 0.5  # exp(-x^2/(2 r^2)) = exp(-x^2/(4 s)), s = r^2/2
    exact = np.sqrt(s / (s + state.t)) * np.exp(-(x ** 2) / (4 * (s + state.t)))
    err = np.max(np.abs(state.u.real - exact))
    assert err < 10 * spec.grid.h ** 2


def test_heat_kernel_oracle_2d():
    params = SystemParams(n=2, p=2, q=1.5, alpha1=-1, alpha2=-1,
                          beta1=1e-14, beta2=1e-14)
    spec = EuclidRunSpec(params=params, R=3.0, box_half_width=6.0, h=3 / 64,
                         data=DataSpec(epsilon=1.0, r_data=0.7, shape="gaussian"))
    state = make_initial_state(spec)
    while state.t < 0.2 - 1e-12:
        state = euclid_step(state, spec, min(2e-3, 0.2 - state.t))
    r = spec.grid.radii()
    s = 0.7 ** 2 / 2
    factor = s / (s + state.t)  # 2-d gaussian: amplitude decays like s/(s+t)
    exact = factor * np.exp(-(r ** 2) / (4 * (s + state.t)))
    assert np.max(np.abs(state.u.real - exact)) < 50 * spec.grid.h ** 2


def test_symmetric_case_preserved():
    params = SystemParams(n=1, p=2, q=2, alpha1=-1.5, alpha2=-1.5,
                          beta1=2, beta2=2)
    spec = small_spec(params=params,
                      data=DataSpec(epsilon=0.5, r_data=2.0))
    state = make_initial_state(spec)
    for _ in range(200):
        state = euclid_step(state, spec, 1e-3)
    assert np.max(np.abs(state.u - state.v)) < 1e-12


def test_zero_data_fixed_point():
    spec = small_spec()
    state = EuclidState(fields=np.zeros((2, *spec.grid.shape)), t=0.0)
    out = euclid_step(state, spec, 1e-3)
    assert np.all(out.u == 0) and np.all(out.v == 0)


def test_explicit_scheme_cross_checks_imex():
    params = SystemParams(n=1, p=2, q=2, alpha1=-1.5, alpha2=-1.5,
                          beta1=2, beta2=2)
    imex = small_spec(params=params, data=DataSpec(epsilon=0.5, r_data=2.0))
    expl = small_spec(params=params, data=DataSpec(epsilon=0.5, r_data=2.0),
                      scheme="explicit")
    s_imex = make_initial_state(imex)
    for _ in range(400):
        s_imex = euclid_step(s_imex, imex, 0.2 / 400)
    s_expl = make_initial_state(expl)
    cfl = cfl_limit(expl)
    n_steps = int(0.2 / (0.9 * cfl)) + 1
    for _ in range(n_steps):
        s_expl = euclid_step(s_expl, expl, 0.2 / n_steps)
    assert np.max(np.abs(s_imex.u - s_expl.u)) < 1e-3


def test_explicit_scheme_rejects_large_dt():
    spec = small_spec(scheme="explicit")
    state = make_initial_state(spec)
    with pytest.raises(ValidationError):
        euclid_step(state, spec, 10 * cfl_limit(spec))


def test_explicit_run_caps_dt_below_the_diffusion_limit():
    spec = small_spec(scheme="explicit")
    cfl = cfl_limit(spec)
    # dt_max far above the limit, so the cap is what bounds the step
    run = run_euclid(spec, t_end=50 * cfl, dt_max=1.0)
    steps = np.diff(run.series.times)
    assert steps.size >= 50
    assert np.all(steps <= 0.9 * cfl * (1 + 1e-12))
    assert steps.max() == pytest.approx(0.9 * cfl, rel=1e-12)


def test_overflow_carries_last_state():
    spec = small_spec()
    state = EuclidState(fields=np.full((2, *spec.grid.shape), 1e200), t=0.0)
    with pytest.raises(IntegrationError) as exc:
        euclid_step(state, spec, 1e-3)
    assert exc.value.last_node is state


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_run_past_the_float_range_raises_with_the_last_good_node():
    spec = small_spec()
    state = EuclidState(fields=np.full((2, *spec.grid.shape), 1e200), t=0.0)
    with pytest.raises(IntegrationError) as exc:
        run_euclid(spec, t_end=1.0, dt_max=1e-3, state=state)
    assert exc.value.last_node is state


def test_a_run_whose_time_cannot_advance_collapses_at_its_data_node():
    # at t = -1e13 a step leaves t as it is; the collapse floor scales with |t|
    spec = small_spec()
    state = EuclidState(fields=make_initial_state(spec).fields, t=-1e13)
    run = run_euclid(spec, t_end=1.0, dt_max=1e-3, state=state)
    assert run.status == STEP_COLLAPSE
    assert run.series.times.tolist() == [-1e13]
    assert run.final_state is state


def test_a_nan_dt_is_refused_not_reported_as_overflow():
    spec = small_spec()
    with pytest.raises(ValidationError, match="dt must be positive"):
        euclid_step(make_initial_state(spec), spec, float("nan"))


@pytest.mark.parametrize("r", [0.02, 0.73, 40.0])
@pytest.mark.parametrize("shape,transposed", [((37,), False), ((37, 5), False),
                                              ((5, 37), True), ((2, 37), True)])
def test_solve_banded_matches_scipy_bit_for_bit(r, shape, transposed):
    # real right-hand sides; (2, 37) transposed is the 1-d step's stacked pair
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=shape)
    if transposed:  # the ADI's second half step solves along a transpose
        rhs = rhs.T
    m = rhs.shape[0]
    ab = np.zeros((3, m))
    ab[0, 1:] = -0.5 * r
    ab[1, :] = 1.0 + r
    ab[2, :-1] = -0.5 * r
    expected = scipy.linalg.solve_banded((1, 1), ab, rhs)
    got = solve_banded(rhs, r)
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape == rhs.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()


def test_singular_solve_carries_the_state():
    # r = -2 on two nodes gives [[-1, 1], [1, -1]]
    state = EuclidState(fields=np.zeros((2, 4)), t=0.5)
    with pytest.raises(IntegrationError) as exc:
        solve_banded(np.ones(2), -2.0, state)
    assert exc.value.last_node is state


def test_run_sets_up_the_weight_once_and_the_nonlinearity_once_per_node(monkeypatch):
    calls = {"phi": 0, "nonlinearity": 0}
    phi, nonlinearity = testfn.TestFunctionData.phi, euclid._nonlinearity

    def counted_phi(self, r):
        calls["phi"] += 1
        return phi(self, r)

    def counted_nonlinearity(state, params):
        calls["nonlinearity"] += 1
        return nonlinearity(state, params)

    monkeypatch.setattr(testfn.TestFunctionData, "phi", counted_phi)
    monkeypatch.setattr(euclid, "_nonlinearity", counted_nonlinearity)
    run = run_euclid(small_spec(), t_end=0.2, dt_max=2e-3)
    assert run.series.times.size > 100
    assert calls["phi"] <= 2  # the initial data and the weight
    assert calls["nonlinearity"] == run.series.times.size


def test_a_node_computes_its_nonlinearity_once_for_its_derivative_and_step(monkeypatch):
    # outside a run too: a state keeps its nonlinearity; a state asked for
    # other params computes theirs
    nodes = []
    nonlinearity = euclid._nonlinearity

    def counted_nonlinearity(node, params):
        nodes.append((node, params))
        return nonlinearity(node, params)

    monkeypatch.setattr(euclid, "_nonlinearity", counted_nonlinearity)
    spec = small_spec()
    state = make_initial_state(spec)
    for _ in range(3):
        functional_derivatives(state, spec)
        state = euclid_step(state, spec, 1e-3)
    assert len(nodes) == 3
    stronger = small_spec(params=heat_params(beta1=2.0))
    assert functional_derivatives(state, stronger) != functional_derivatives(state, spec)
    assert [(node is state, params) for node, params in nodes[3:]] == [
        (True, stronger.params), (True, spec.params)]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_run_to_nonlinearity_overflow_raises_with_the_last_good_node(monkeypatch):
    # the step from a node reuses the nonlinearity its observation computed,
    # and must still refuse one that overflowed
    nodes = []
    nonlinearity = euclid._nonlinearity

    def overflowing(node, params):
        nodes.append(node)
        out = nonlinearity(node, params)
        if len(nodes) == 5:
            out = np.where(np.arange(2)[:, None] == 0, np.where(out != 0, np.inf, out), out)
        return out

    monkeypatch.setattr(euclid, "_nonlinearity", overflowing)
    with pytest.raises(IntegrationError, match="nonlinearity overflow") as exc:
        run_euclid(small_spec(), t_end=0.2, dt_max=2e-3)
    last = exc.value.last_node
    assert isinstance(last, EuclidState)
    assert last.t == nodes[4].t and last.t > 0
    assert np.array_equal(last.u, nodes[4].u) and np.array_equal(last.v, nodes[4].v)
    assert np.all(np.isfinite(last.u)) and np.all(np.isfinite(last.v))


def test_a_state_off_the_spec_grid_is_refused():
    spec = small_spec()
    shape = spec.grid.shape
    for rho in (np.ones((2, 10)),  # another grid
                np.ones(shape),  # one amplitude
                np.ones((2, *shape), dtype=complex),
                np.ones((2, *shape), dtype=np.float32)):
        state = EuclidState(fields=rho, t=0.0)
        with pytest.raises(ValidationError, match="amplitudes"):
            euclid_step(state, spec, 1e-3)
        with pytest.raises(ValidationError, match="amplitudes"):
            weighted_functionals(state, spec)
        with pytest.raises(ValidationError, match="amplitudes"):
            functional_derivatives(state, spec)
        with pytest.raises(ValidationError, match="amplitudes"):
            run_euclid(spec, t_end=0.1, dt_max=1e-3, state=state)
    for bad in (np.nan, np.inf):
        rho = make_initial_state(spec).fields.copy()
        rho[1, 100] = bad
        with pytest.raises(ValidationError, match="finite"):
            run_euclid(spec, t_end=0.1, dt_max=1e-3, state=EuclidState(fields=rho, t=0.0))


@pytest.mark.parametrize("n", [1, 2])
def test_standalone_steps_give_the_runs_bits(n, monkeypatch):
    # alpha1 != alpha2 takes the 1-d step's two solves
    params = SystemParams(n=n, p=2, q=1.5, alpha1=-0.7, alpha2=-1.3,
                          beta1=0.6 + 0.8j, beta2=-2j)
    spec = EuclidRunSpec(params=params, R=4.0, box_half_width=8.0, h=4.0 / 64,
                         data=DataSpec(epsilon=6.0, r_data=2.0, amp_v=0.7,
                                       shape="gaussian"))
    dts = []
    step = euclid.euclid_step

    def recorded(state, spec, dt):
        dts.append(dt)
        return step(state, spec, dt)

    monkeypatch.setattr(euclid, "euclid_step", recorded)
    kw = dict(t_end=1.0, dt_max=5e-3, dt_safety=0.1, field_threshold=1e3)
    run = run_euclid(spec, **kw)
    assert run.status == BLOWUP
    assert len(dts) == run.series.times.size - 1
    assert len(set(dts)) > 10  # dt shrinks near blow-up
    state = make_initial_state(spec)
    rows = [(state.t, *weighted_functionals(state, spec), *functional_derivatives(state, spec))]
    for dt in dts:
        state = euclid_step(state, spec, dt)
        rows.append((state.t, *weighted_functionals(state, spec),
                     *functional_derivatives(state, spec)))
    def series_bytes(r):
        s = r.series
        return np.array([s.times, s.U, s.V, s.dU, s.dV]).tobytes()

    assert np.array(rows).T.tobytes() == series_bytes(run)
    assert state.fields.tobytes() == run.final_state.fields.tobytes()
    monkeypatch.undo()
    given = run_euclid(spec, state=make_initial_state(spec), **kw)
    assert given.status == run.status
    assert series_bytes(given) == series_bytes(run)
    assert given.final_state.fields.tobytes() == run.final_state.fields.tobytes()


def _unequal_alpha_spec(n):
    params = SystemParams(n=n, p=2, q=1.5, alpha1=-0.7, alpha2=-1.3,
                          beta1=0.6 + 0.8j, beta2=-2j)
    return EuclidRunSpec(params=params, R=4.0, box_half_width=8.0, h=4.0 / 64,
                         data=DataSpec(epsilon=1.0, r_data=2.0, amp_v=0.7,
                                       shape="gaussian"))


def _rung_states(spec, epsilons):
    return [make_initial_state(replace(spec, data=replace(spec.data, epsilon=eps)))
            for eps in epsilons]


def _bits(run):
    series = run.series
    return np.array([series.times, series.U, series.V, series.dU, series.dV]).view(np.int64)


@pytest.mark.parametrize("n,epsilons,t_end,statuses", [
    (1, (6.0, 1.0, 8.0, 2.0), 1.0, [BLOWUP, COMPLETED, BLOWUP, BLOWUP]),
    (2, (40.0, 6.0, 60.0), 0.06, [COMPLETED, COMPLETED, BLOWUP]),
])
def test_a_lockstep_batch_gives_each_rung_its_own_runs_bits(n, epsilons, t_end, statuses):
    # |alpha1| != |alpha2|, so a 1-d step's fields never share r, while
    # rungs at the same dt share it field by field; the rungs leave the
    # batch at different steps
    spec = _unequal_alpha_spec(n)
    rungs = _rung_states(spec, epsilons)
    run = dict(t_end=t_end, dt_max=5e-3, dt_safety=0.1, field_threshold=1e3)
    batch = run_euclid(spec, state=stack_states(rungs), **run)
    alone = [run_euclid(spec, state=rung, **run) for rung in rungs]
    assert [r.status for r in batch] == statuses
    assert len({r.series.times.size for r in batch}) == len(epsilons)
    for together, single in zip(batch, alone):
        assert together.status == single.status
        assert np.array_equal(_bits(together), _bits(single))
        assert isinstance(together.final_state, EuclidState)
        assert together.final_state.t == single.final_state.t
        assert isinstance(together.final_state.t, float)
        assert together.final_state.fields.tobytes() == single.final_state.fields.tobytes()


def test_a_batch_needs_one_time_and_one_dt_per_state_on_one_grid():
    spec = small_spec()
    rho = make_initial_state(spec).fields
    with pytest.raises(ValidationError, match="one or more states on one grid"):
        stack_states([EuclidState(rho, 0.0), EuclidState(np.ones((2, 10)), 0.0)])
    with pytest.raises(ValidationError, match="one or more states on one grid"):
        stack_states([])
    for fields, t in ((np.stack([rho, rho, rho]), [0.0, 0.0]),  # a time short
                      (np.stack([rho, rho]), 0.0),  # a batch with one time
                      (rho[np.newaxis, :0], np.zeros(0))):  # an empty batch
        with pytest.raises(ValidationError, match="amplitudes"):
            euclid_step(EuclidState(fields, t), spec, 1e-3)
    batch = stack_states([EuclidState(rho, 0.0), EuclidState(2.0 * rho, 0.5)])
    assert batch.t.tolist() == [0.0, 0.5]
    assert batch.u.shape == batch.v.shape == (2, rho.shape[1])
    assert np.array_equal(batch.v[1], 2.0 * rho[1])
    for state, dt in ((batch, np.array([1e-3, 1e-3, 1e-3])), (batch, 1e-3),
                      (EuclidState(rho, 0.0), np.array([1e-3, 1e-3]))):
        with pytest.raises(ValidationError, match="one dt per state"):
            euclid_step(state, spec, dt)
    for dt in (np.array([1e-3, 0.0]), np.array([np.nan, 1e-3])):
        with pytest.raises(ValidationError, match="dt must be positive"):
            euclid_step(batch, spec, dt)
    stepped = euclid_step(batch, spec, np.array([1e-3, 2e-3]))
    assert stepped.t.tolist() == [1e-3, 0.5 + 2e-3]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_batch_with_an_overflowing_rung_raises_carrying_the_batch():
    spec = small_spec()
    rho = make_initial_state(spec).fields
    batch = stack_states([EuclidState(rho, 0.0), EuclidState(np.full(rho.shape, 1e200), 0.0)])
    with pytest.raises(IntegrationError, match="nonlinearity overflow") as exc:
        euclid_step(batch, spec, np.array([1e-3, 1e-3]))
    assert exc.value.last_node is batch
    # in a run, the step rate of the rung overflows first, before any step
    with pytest.raises(IntegrationError, match="step rate overflow") as exc:
        run_euclid(spec, t_end=1.0, dt_max=1e-3, state=batch)
    node = exc.value.last_node
    assert node.fields.shape == rho.shape and node.fields.max() == 1e200 and node.t == 0.0


# ---------------------------------------------------------------------------
# functionals

def test_initial_data_phase_alignment():
    # complex couplings: the data lie on the phases of beta, so conj(beta) *
    # data is |beta| rho, positive on the support
    params = SystemParams(n=1, p=2, q=1.5, alpha1=-1, alpha2=-1,
                          beta1=0.6 - 0.8j, beta2=-1j)
    spec = small_spec(params=params)
    state = make_initial_state(spec)
    inside = np.abs(spec.grid.axis) < spec.data.r_data * 0.99
    assert np.all(state.fields[:, inside] > 0)
    U, V = weighted_functionals(state, spec)
    assert U > 0 and V > 0


def test_a_state_pickles_and_its_copy_steps_to_the_same_bits():
    spec = small_spec()
    state = make_initial_state(spec)
    functional_derivatives(state, spec)
    copy = pickle.loads(pickle.dumps(state))
    assert copy.t == state.t and copy.fields.tobytes() == state.fields.tobytes()
    assert functional_derivatives(copy, spec) == functional_derivatives(state, spec)
    stepped, from_copy = euclid_step(state, spec, 1e-3), euclid_step(copy, spec, 1e-3)
    assert from_copy.t == stepped.t and from_copy.fields.tobytes() == stepped.fields.tobytes()


def test_an_unpickled_states_amplitudes_are_read_only():
    # the copy keeps the original's nonlinearity and second differences, so
    # its amplitudes must not change under them either
    spec = small_spec()
    state = make_initial_state(spec)
    functional_derivatives(state, spec)
    copy = pickle.loads(pickle.dumps(state))
    with pytest.raises(ValueError, match="read-only"):
        copy.fields *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        copy.u[100] = 1.0


def test_an_unpickled_batchs_amplitudes_are_read_only():
    spec = small_spec()
    rho = make_initial_state(spec).fields
    batch = stack_states([EuclidState(rho, 0.0), EuclidState(2.0 * rho, 0.5)])
    functional_derivatives(batch, spec)
    copy = pickle.loads(pickle.dumps(batch))
    assert copy.t.tolist() == [0.0, 0.5] and copy.fields.tobytes() == batch.fields.tobytes()
    assert functional_derivatives(copy, spec) == functional_derivatives(batch, spec)
    with pytest.raises(ValueError, match="read-only"):
        copy.fields *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        copy.v[1, 100] = 1.0


def test_a_states_amplitudes_are_read_only():
    # the state keeps values computed from rho, so rho must not change under
    # them
    spec = small_spec()
    rho = make_initial_state(spec).fields.copy()
    state = EuclidState(fields=rho, t=0.0)
    functional_derivatives(state, spec)
    with pytest.raises(ValueError, match="read-only"):
        state.fields *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        state.u[100] = 1.0
    rho[1, 100] = 2.0  # the caller's array stays writable, viewed, not copied
    assert state.fields[1, 100] == 2.0


@pytest.mark.parametrize("alpha", [(-1.0, -1.0), (-0.7, -1.3)])
@pytest.mark.parametrize("n", [1, 2])
def test_a_run_sees_beta_through_its_modulus_only(n, alpha):
    # from data on the phases of beta the fields keep them, so rotating beta
    # leaves the weighted means unchanged; alpha1 != alpha2 takes the 1-d
    # step's two solves
    def run(beta1, beta2):
        params = SystemParams(n=n, p=2, q=1.5, alpha1=alpha[0], alpha2=alpha[1],
                              beta1=beta1, beta2=beta2)
        spec = EuclidRunSpec(params=params, R=4.0, box_half_width=8.0, h=4.0 / 64,
                             data=DataSpec(epsilon=2.0, r_data=2.0, amp_v=0.7,
                                           shape="gaussian"))
        return run_euclid(spec, t_end=0.2 if n == 1 else 0.04, dt_max=5e-3,
                          dt_safety=0.1)

    rotated, aligned = run(0.6 + 0.8j, -2j), run(abs(0.6 + 0.8j), 2.0)
    assert rotated.series.times.size == aligned.series.times.size > 5
    assert np.array_equal(rotated.series.times, aligned.series.times)
    for column in ("U", "V", "dU", "dV"):
        np.testing.assert_allclose(getattr(rotated.series, column),
                                   getattr(aligned.series, column), rtol=1e-13, atol=0)


def test_weighted_functional_of_unit_field():
    spec = small_spec()
    state = EuclidState(fields=np.ones((2, *spec.grid.shape)), t=0.0)
    U, V = weighted_functionals(state, spec)
    # n=1 norm of the weight is exactly 1, so the integral is R
    assert U == pytest.approx(spec.R, rel=1e-6)
    assert V == pytest.approx(spec.R, rel=1e-6)


def test_weighted_functional_support():
    spec = small_spec()
    x = spec.grid.axis
    u = np.where(np.abs(x) > spec.R, 1.0, 0.0)
    state = EuclidState(fields=np.stack([u, u]), t=0.0)
    U, V = weighted_functionals(state, spec)
    assert U == 0.0 and V == 0.0


def test_weighted_functional_signed(tf1):
    spec = small_spec()
    x = spec.grid.axis
    u = np.sign(x) * tf1.phi(np.abs(x) / spec.R)
    state = EuclidState(fields=np.stack([u, u]), t=0.0)
    U, _ = weighted_functionals(state, spec)
    # odd field: signed quadrature cancels, no positive part is taken
    assert abs(U) < 1e-12


def test_weight_support_must_fit_box():
    # the spec itself refuses a weight support B(R) past the box, so no spec
    # reaches the weight with one
    with pytest.raises(ValidationError):
        small_spec(R=10.0, h=10.0 / 64)


def test_laplacian_contribution_matches_weight_laplacian(tf1):
    # summation by parts: weight supported data, discrete flux consistency
    spec = small_spec(box_half_width=12.0)
    grid = spec.grid
    x = grid.axis
    u = tf1.phi(np.abs(x) / (spec.R / 2))  # supported in B(R/2)
    h = grid.h
    w = tf1.phi(np.abs(x) / spec.R)
    lap_term = float(np.sum(discrete_laplacian(u, h) * w) * h)
    weight_side = float(
        np.sum(u * tf1.lap_phi(np.abs(x) / spec.R)) * h / spec.R ** 2
    )
    assert lap_term == pytest.approx(weight_side, abs=30 * h ** 2)


# ---------------------------------------------------------------------------
# growth inequality and bounds

def test_growth_inequality_on_small_amplitude_run():
    spec = small_spec()
    run = run_euclid(spec, t_end=0.5, dt_max=1e-3,
                     functional_threshold=None)
    report = check_weighted_growth_inequality(run.series, spec)
    assert report.passed
    assert report.n_checked == run.series.times.size


def test_growth_inequality_two_dimensional():
    # subcritical in n=2 needs (p+1)/(pq-1) > 1
    params = SystemParams(n=2, p=1.5, q=1.5, alpha1=-1, alpha2=-1,
                          beta1=1, beta2=1)
    spec = EuclidRunSpec(params=params, R=2.0, box_half_width=4.0, h=2 / 64,
                         data=DataSpec(epsilon=0.8, r_data=1.0, amp_v=0.6))
    run = run_euclid(spec, t_end=0.3, dt_max=1e-3,
                     functional_threshold=None)
    report = check_weighted_growth_inequality(run.series, spec)
    assert report.n_checked == run.series.times.size
    assert report.passed


def test_growth_inequality_at_weight_shaped_data(tf1):
    # u0 = phi(x/R) itself: direct two-sided evaluation at t = 0
    spec = small_spec(data=DataSpec(epsilon=1.0, r_data=4.0))
    state = make_initial_state(spec)
    U, V = weighted_functionals(state, spec)
    dU, dV = functional_derivatives(state, spec)
    lam = tf1.lambda_eff
    lhs = dU + lam / spec.R ** 2 * U
    rhs = spec.R ** (-1 * (2.0 - 1.0)) * 1.0 * V ** 2.0
    assert lhs >= rhs - 1e-9 * (1 + abs(dU))


def test_blowup_run_stays_under_bounds():
    params = heat_params()
    R = 8.0
    spec = EuclidRunSpec(params=params, R=R, box_half_width=16.0, h=R / 128,
                         data=DataSpec(epsilon=0.55, r_data=2.0,
                                       amp_u=1.0, amp_v=0.5))
    state = make_initial_state(spec)
    U0, V0 = weighted_functionals(state, spec)
    bounds = blowup_bounds(spec, U0, V0)
    assert bounds.hypothesis_satisfied
    assert bounds.thresholds.r_exceeds_r0
    run = run_euclid(spec, t_end=30.0, dt_max=2e-3,
                     functional_threshold=1e5)
    assert run.status == BLOWUP
    assert run.escape_time() <= bounds.lifespan_bound
    report = check_weighted_growth_inequality(run.series, spec)
    assert report.passed


def test_bounds_reduce_to_damped_ode_bounds():
    spec = small_spec(R=4.0, box_half_width=16.0)
    U0, V0 = 1.2, 0.4
    ode = coupling_spec(spec, U0, V0)
    direct = damped_bounds(ode)
    wrapped = blowup_bounds(spec, U0, V0)
    if wrapped.hypothesis_satisfied:
        assert wrapped.lifespan_bound == direct.lifespan_bound
    else:
        assert not direct.hypothesis_satisfied or not wrapped.thresholds.r_exceeds_r0


def test_bounds_unsatisfied_when_radius_too_small(tf1):
    spec = small_spec()  # R = 4
    U0, V0 = 0.05, 0.02  # small data pushes R1 above 4
    tc = evaluate_thresholds(spec.params, tf1, U0, V0, spec.R)
    assert tc.R0 > spec.R
    bounds = blowup_bounds(spec, U0, V0)
    assert not bounds.hypothesis_satisfied


def _non_unit_spec(n):
    """alpha and beta away from 1, so that the order of the operations forming
    a constant shows in its last bits."""
    params = SystemParams(n=n, p=2, q=1.5, alpha1=-0.7, alpha2=-1.3,
                          beta1=1.7, beta2=0.6)
    return EuclidRunSpec(params=params, R=5.0, box_half_width=10.0, h=5.0 / 64,
                         data=DataSpec(epsilon=0.5, r_data=2.0))


@pytest.mark.parametrize("n", [1, 2])
def test_check_and_bound_share_the_jensen_coefficients(n):
    spec = _non_unit_spec(n)
    # one node at U = V = 1 that fails both inequalities, so the report
    # carries each right-hand side: the bare coefficient
    series = FunctionalSeries(times=[0.0], U=[1.0], V=[1.0], dU=[-1e6], dV=[-1e6])
    report = check_weighted_growth_inequality(series, spec)
    rhs = {c: r for (_, _, c, _, r) in report.violations}
    ode = coupling_spec(spec, 1.0, 1.0)
    assert rhs["U"] / 3.0 == ode.C_p
    assert rhs["V"] / 2.5 == ode.C_q


@pytest.mark.parametrize("n", [1, 2])
def test_thresholds_and_bound_share_omega(n):
    spec = _non_unit_spec(n)
    tc = evaluate_thresholds(spec.params, spec.tf, 1.0, 0.5, spec.R)
    assert tc.omega == coupling_spec(spec, 1.0, 0.5).omega
    bounds = blowup_bounds(spec, 1.0, 0.5)
    assert bounds.report.omega == bounds.thresholds.omega
    psi = evaluate_thresholds(spec.params, spec.tf, 1.0, 0.5, spec.R,
                              lam_override=spec.tf.lam)
    assert bounds.lambda_psi_variant["omega"] == psi.omega


def test_thresholds_refuse_a_test_function_of_another_dimension(tf1):
    params = heat_params(n=2)
    with pytest.raises(ValidationError):
        evaluate_thresholds(params, tf1, 1.0, 0.5, R=8.0)


def test_threshold_scaling_and_monotonicity(tf1):
    params = heat_params()
    U0, V0 = 1.0, 0.5
    tc1 = evaluate_thresholds(params, tf1, U0, V0, R=8.0)
    tc4 = evaluate_thresholds(params, tf1, 4 * U0, V0, R=8.0)
    n, p, q = 1, 2.0, 1.5
    expo = -1.0 / (2 * (p + 1) / (p * q - 1) - n)
    assert tc4.R1 / tc1.R1 == pytest.approx(4.0 ** expo, rel=1e-12)
    assert tc4.R1 < tc1.R1  # strictly decreasing in U0
    assert tc1.R0 == max(tc1.R1, tc1.R2)


def test_threshold_p_equals_q_marker(tf1):
    params = SystemParams(n=1, p=2, q=2, alpha1=-1, alpha2=-1, beta1=2, beta2=0.5)
    tc = evaluate_thresholds(params, tf1, 1.0, 0.5, R=8.0)
    assert tc.p_equals_q
    assert tc.R2 == 0.0
    d = 3.0
    pred = ((2.0 ** 4) / (0.5 ** 4)) ** (d / 9.0)
    assert tc.C1 == pytest.approx(pred, rel=1e-12)


def test_r1_is_continuous_where_a_factor_leaves_the_float_range(tf1):
    # at p = q = sqrt(1024/1023) the factor 2^((p+1)/(q+1) pq/(pq-1)) of R1
    # crosses 2^1024, where R1 itself is about 0.26
    def thresholds(p):
        params = SystemParams(n=1, p=p, q=p, alpha1=-0.01, alpha2=-0.01,
                              beta1=1, beta2=1)
        return evaluate_thresholds(params, tf1, 0.5, 0.5, R=8.0)

    crossing = (1024.0 / 1023.0) ** 0.5
    below, above = thresholds(crossing * (1 - 1e-9)), thresholds(crossing * (1 + 1e-9))
    assert below.R1 == pytest.approx(above.R1, rel=1e-7)
    assert below.r_exceeds_r0 and above.r_exceeds_r0


def test_t1_is_finite_where_c3_is_past_the_float_range():
    # near the critical line T1 grows like max|alpha|^(sigma/2), through C3,
    # and falls like U0^-sigma: at max|alpha| = 100 C3 is past the float
    # range, and with 100 times the data T1 is not
    p = 2.99
    sigma = 1.0 / ((p + 1) / (p * p - 1) - 0.5)

    def bounds(alpha, U0):
        params = SystemParams(n=1, p=p, q=p, alpha1=-alpha, alpha2=-alpha,
                              beta1=1, beta2=1)
        return blowup_bounds(small_spec(params=params), U0, U0)

    unit, scaled = bounds(1.0, 1.0), bounds(100.0, 100.0)
    assert scaled.thresholds.C3 == np.inf
    assert scaled.minimizer == unit.minimizer
    assert scaled.T1 / unit.T1 == pytest.approx(10.0 ** -sigma, rel=1e-10)


def test_hypothesis_crosses_at_r1(tf1):
    # the damping side of the strict hypothesis equals U0 exactly at R = R1
    params = heat_params()
    U0, V0 = 1.0, 0.5
    tc = evaluate_thresholds(params, tf1, U0, V0, R=8.0)

    def damping_term(R):
        spec = EuclidRunSpec(params=params, R=R, box_half_width=2 * R, h=R / 128,
                             data=DataSpec(epsilon=1.0, r_data=2.0))
        return damped_hypothesis_terms(coupling_spec(spec, U0, V0))[0]

    assert damping_term(tc.R1 * 0.999) > U0
    assert damping_term(tc.R1 * 1.001) < U0


def test_amplitude_scaling_of_lifespan_bound():
    params = heat_params()
    spec = EuclidRunSpec(params=params, R=8.0, box_half_width=16.0, h=8 / 128,
                         data=DataSpec(epsilon=1.0, r_data=2.0))
    U0, V0 = 1.0, 0.5
    eps = 0.5
    b1 = blowup_bounds(spec, U0, V0)
    b2 = blowup_bounds(spec, eps * U0, eps * V0)
    n, p, q = 1, 2.0, 1.5
    sigma = 1.0 / ((p + 1) / (p * q - 1) - n / 2)
    assert b2.T1 / b1.T1 == pytest.approx(eps ** (-sigma), rel=1e-9)


def test_radius_factor_minimization_against_scan():
    # brute-force oracle for the inner 1-d minimization of the T1 bound
    from cgl_blowup.euclid import _minimize_radius_factor

    for theta, lo in ((1.0, 1.0 + 1e-9), (4 / 3, 1.0 + 1e-9), (0.5, 2.5)):
        x_min, m_min = _minimize_radius_factor(theta, lo)
        xs = np.linspace(lo, max(10.0, 3 * x_min), 200001)
        with np.errstate(divide="ignore"):
            ms = -xs ** 2 * np.log1p(-(xs ** (-theta)))
        k = int(np.argmin(ms))
        assert m_min <= ms[k] + 1e-9
        assert abs(m_min - ms[k]) <= 1e-6 * (1 + abs(ms[k]))


def test_lower_bound_constants_rewrite_the_ode_constants(tf1):
    # C1 and C2 are defined so that the damped-system quantities
    #   (C_p/C_q)^{(pq-1)/((p+1)(q+1))} U0^{-(pq-1)/(p+1)}   and
    #   2^{-pq/(q+1)} (q+1)(p+1) w^{-1} C_q^{1/(q+1)} C_p^{q/(q+1)}
    # collapse to C1 R^{-n(pq-1)(p-q)/((p+1)(q+1))} U0^{-(pq-1)/(p+1)} and
    # C2 lam_tilde^{-1} R^{2-n(pq-1)/(q+1)}
    params = SystemParams(n=1, p=2.5, q=1.5, alpha1=-0.7, alpha2=-1.2,
                          beta1=1.4 - 0.3j, beta2=0.5j)
    U0, V0 = 1.3, 0.4
    R = 9.0
    spec = EuclidRunSpec(params=params, R=R, box_half_width=2 * R, h=R / 128,
                         data=DataSpec(epsilon=1.0, r_data=2.0))
    tc = evaluate_thresholds(params, tf1, U0, V0, R)
    ode = coupling_spec(spec, U0, V0)
    p, q, n = params.p, params.q, params.n
    pp, qq, D = p + 1, q + 1, p * q - 1

    lhs1 = (ode.C_p / ode.C_q) ** (D / (pp * qq)) * U0 ** (-D / pp)
    rhs1 = tc.C1 * R ** (-n * D * (p - q) / (pp * qq)) * U0 ** (-D / pp)
    assert lhs1 == pytest.approx(rhs1, rel=1e-12)

    lhs2 = (2.0 ** (-p * q / qq) * qq * pp / ode.omega
            * ode.C_q ** (1 / qq) * ode.C_p ** (q / qq))
    rhs2 = tc.C2 / tc.lam_tilde * R ** (2 - n * D / qq)
    assert lhs2 == pytest.approx(rhs2, rel=1e-12)


def test_radius_optimized_bound_equals_direct_scan():
    # T1 from the closed-form constants must match minimizing the damped
    # lifespan bound of the instantiated system over the weight radius
    params = SystemParams(n=1, p=2, q=1.5, alpha1=-1, alpha2=-1,
                          beta1=1, beta2=1)
    U0, V0 = 1.0, 0.4
    spec0 = EuclidRunSpec(params=params, R=8.0, box_half_width=16.0, h=8 / 128,
                          data=DataSpec(epsilon=1.0, r_data=2.0))
    bounds = blowup_bounds(spec0, U0, V0)
    tc = bounds.thresholds

    radii = np.linspace(max(tc.R0, tc.R1) * (1 + 1e-6),
                        max(tc.R0, tc.R1) * 12.0, 4000)
    direct = []
    for R in radii:
        spec = EuclidRunSpec(params=params, R=R, box_half_width=2 * R,
                             h=R / 128, data=DataSpec(epsilon=1.0, r_data=2.0))
        report = damped_bounds(coupling_spec(spec, U0, V0))
        if report.hypothesis_satisfied:
            direct.append(report.lifespan_bound)
    best = min(direct)
    assert bounds.T1 == pytest.approx(best, rel=1e-5)
    assert bounds.T1 <= best * (1 + 1e-9)


def test_r1_strictly_decreasing_in_amplitude(tf1):
    rng = np.random.default_rng(99)
    for _ in range(25):
        q = float(rng.uniform(1.0, 2.0))
        p = float(rng.uniform(q, 2.5))
        if p * q <= 1.02:
            continue
        params = SystemParams(n=1, p=p, q=q, alpha1=-1, alpha2=-1,
                              beta1=1, beta2=1)
        u = float(rng.uniform(0.2, 3.0))
        factor = float(rng.uniform(1.1, 5.0))
        a = evaluate_thresholds(params, tf1, u, 0.1, R=8.0)
        b = evaluate_thresholds(params, tf1, u * factor, 0.1, R=8.0)
        assert b.R1 < a.R1


def test_box_doubling_insensitivity():
    params = heat_params()

    def fixed_dt_functionals(box):
        spec = EuclidRunSpec(params=params, R=8.0, box_half_width=box,
                             h=8 / 128,
                             data=DataSpec(epsilon=0.55, r_data=2.0,
                                           amp_u=1.0, amp_v=0.5))
        state = make_initial_state(spec)
        out = []
        for _ in range(500):
            state = euclid_step(state, spec, 2e-3)
            out.append(weighted_functionals(state, spec))
        return np.array(out)

    base = fixed_dt_functionals(16.0)
    doubled = fixed_dt_functionals(32.0)
    rel = np.max(np.abs(base - doubled) / (1.0 + np.abs(base)))
    assert rel < 1e-6


def test_spec_validation():
    params = heat_params()
    good = dict(params=params, R=4.0, box_half_width=8.0, h=4 / 64,
                data=DataSpec(epsilon=1.0, r_data=2.0))
    EuclidRunSpec(**good)
    with pytest.raises(ValidationError):
        EuclidRunSpec(**{**good, "box_half_width": 6.0})
    with pytest.raises(ValidationError):
        EuclidRunSpec(**{**good, "h": 4.0 / 32})
    with pytest.raises(ValidationError):
        EuclidRunSpec(**{**good, "params": SystemParams(
            n=1, p=2, q=1.5, alpha1=-1j, alpha2=-1, beta1=1, beta2=1)})
    with pytest.raises(ValidationError):
        EuclidRunSpec(**{**good, "params": SystemParams(
            n=1, p=2, q=0.6, alpha1=-1, alpha2=-1, beta1=1, beta2=1)})
    with pytest.raises(ValidationError):
        # supercritical: (p+1)/(pq-1) <= n/2
        EuclidRunSpec(**{**good, "params": SystemParams(
            n=2, p=4, q=4, alpha1=-1, alpha2=-1, beta1=1, beta2=1)})
