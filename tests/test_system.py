"""The stacked-pair state that both PDE backends share, and the backends
checked against each other."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from cgl_blowup import euclid, system, torus
from cgl_blowup.errors import IntegrationError, ValidationError


def _single_state(backend):
    if backend == "torus":
        return torus.constant_state(torus.make_grid(1, 16), 1.0, 2.0)
    return euclid.PairState(np.arange(18.0).reshape(2, 9), 0.25)


PARAMS = system.SystemParams(n=1, p=2, q=1.5, alpha1=-1, alpha2=-1, beta1=1, beta2=1)


def _run(backend):
    """Writable fields on the grid of a run of ``backend``, and that run's
    step of 1e-3 and functional derivatives."""
    if backend == "torus":
        grid = torus.make_grid(1, 16)
        x = grid.axes()[0]
        fields = np.array([0.5 + 0.1 * np.cos(x), 0.7 + 0.05j * np.sin(x)])
        stepper = torus.TorusStepper(grid, PARAMS)
        return (fields, lambda s: torus.torus_step(s, stepper, 1e-3),
                lambda s: torus.functional_derivatives(s, PARAMS))
    spec = euclid.EuclidRunSpec(params=PARAMS, R=4.0, box_half_width=8.0, h=4.0 / 64,
                                data=euclid.DataSpec(epsilon=0.5, r_data=2.0))
    return (euclid.make_initial_state(spec).fields.copy(),
            lambda s: euclid.euclid_step(s, spec, 1e-3),
            lambda s: euclid.functional_derivatives(s, spec))


def test_both_backends_stack_states_with_the_shared_function():
    assert torus.stack_states is euclid.stack_states is system.stack_states


def test_both_backends_share_one_state_type():
    assert torus.PairState is euclid.PairState is system.PairState
    for backend in ("torus", "euclid"):
        fields, step, _ = _run(backend)
        assert type(step(system.PairState(fields, 0.0))) is system.PairState


@pytest.mark.parametrize("backend", ["torus", "euclid"])
def test_a_states_fields_are_read_only_also_when_unpickled(backend):
    # a backend keeps values computed from the fields on the state, so the
    # fields must not change under them, in an unpickled copy either
    fields, step, derivatives = _run(backend)
    state = system.PairState(fields, 0.0)
    derivatives(state)
    for node in (state, step(state), pickle.loads(pickle.dumps(state))):
        with pytest.raises(ValueError, match="read-only"):
            node.fields *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            node.u[3] = 1.0
    fields[1, 3] = 2.0  # the caller's array stays writable, viewed, not copied
    assert state.fields[1, 3] == 2.0


@pytest.mark.parametrize("backend", ["torus", "euclid"])
def test_an_unpickled_state_steps_to_the_same_bits(backend):
    fields, step, derivatives = _run(backend)
    state = system.PairState(fields, 0.0)
    derivatives(state)  # a Euclidean copy keeps the nonlinearity held on the state
    copy = pickle.loads(pickle.dumps(state))
    assert copy.t == state.t and copy.fields.tobytes() == state.fields.tobytes()
    assert derivatives(copy) == derivatives(state)
    stepped, from_copy = step(state), step(copy)
    assert from_copy.t == stepped.t and from_copy.fields.tobytes() == stepped.fields.tobytes()


@pytest.mark.parametrize("backend", ["torus", "euclid"])
def test_stack_states_refuses_a_batch_among_its_states(backend):
    single = _single_state(backend)
    batch = system.stack_states([single, single])
    assert batch.batch_shape == (2,) and type(batch) is type(single)
    for states in ([batch, batch], [batch], [single, batch], [batch, single]):
        with pytest.raises(ValidationError, match="a batch stacks single states, not batches"):
            system.stack_states(states)


@pytest.mark.parametrize("backend", ["torus", "euclid"])
def test_a_batch_views_and_scales_its_rungs_like_single_states(backend):
    single = _single_state(backend)
    batch = system.stack_states([single, single, single])
    assert single.batch_shape == () and batch.batch_shape == (3,)
    assert np.shares_memory(batch.u, batch.fields) and np.shares_memory(batch.v, batch.fields)
    for i in range(3):
        assert np.array_equal(batch.u[i], single.u) and np.array_equal(batch.v[i], single.v)
    assert single.per_rung(1e-3) == 1e-3
    dt = batch.per_rung([1e-3, 2e-3, 3e-3])
    assert dt.shape == (3,) + (1,) * (single.fields.ndim)
    assert (dt * batch.fields).shape == batch.fields.shape



@pytest.mark.parametrize("backend", ["torus", "euclid"])
def test_a_series_refused_by_its_record_raises_with_the_runs_last_node(backend, monkeypatch):
    # the inputs are valid: a record that refuses the nodes the run made is a
    # run-time failure, not a bad input
    def refusing(*columns):
        raise ValidationError("times must be finite and strictly increasing")

    monkeypatch.setattr(system, "FunctionalSeries", refusing)
    params = system.SystemParams(n=1, p=2, q=1.5, alpha1=-1, alpha2=-1, beta1=1, beta2=1)
    with pytest.raises(IntegrationError, match="strictly increasing") as exc:
        if backend == "torus":
            torus.run_torus(params, torus.constant_state(torus.make_grid(1, 16), 0.5, 0.5),
                            t_end=0.01, dt_max=1e-3)
        else:
            spec = euclid.EuclidRunSpec(params=params, R=4.0, box_half_width=8.0, h=4.0 / 64,
                                        data=euclid.DataSpec(epsilon=0.5, r_data=2.0))
            euclid.run_euclid(spec, t_end=0.01, dt_max=1e-3)
    assert type(exc.value.last_node) is type(_single_state(backend))
    assert exc.value.last_node.t == pytest.approx(0.01)


# The box [-L, L] maps onto the torus [0, 2 pi) by x -> (x + L) pi / L: the
# torus run solves the same system with alpha (pi / L)^2 on the box's grid
# points but the last (the image of the first), and its fields are the
# Euclidean amplitudes on the phases of beta.  The Gaussian data stay below
# 1e-13 at the box's edge, so up to t = 1 the runs differ by their
# discretizations alone: centered differences with Crank-Nicolson steps
# against integrating-factor RK4 on the spectral Laplacian.
# Each tolerance lies between the case's gap and its gap with the Euclidean
# nonlinearity times 1.1 (both in the comment), and below its gap with the
# torus diffusion times 0.99 (6.5e-3, 4.6e-3 and 1.4e-2).
_CROSS_CHECK_CASES = {
    "unit": ((-1.0, -1.0), (1.0, 1.0), 2e-3),  # 6.9e-4, 0.135
    "alpha_beta_real": ((-0.7, -1.3), (1.0, 0.6), 1e-3),  # 2.3e-4, 0.073
    # grows to max |u| 2.7 by t = 1
    "beta_complex": ((-0.7, -1.3), (0.6 + 0.8j, -2j), 1e-2),  # 5.7e-3, 0.42
}


def _backend_gap(alpha, beta):
    """The largest gap between the fields at t = 1 of a Euclidean run on
    [-8, 8] and of the torus run that box maps onto, relative to the largest
    modulus of the torus fields."""
    half_width = 8.0
    params = system.SystemParams(n=1, p=2, q=1.5, alpha1=alpha[0], alpha2=alpha[1],
                                 beta1=beta[0], beta2=beta[1])
    spec = euclid.EuclidRunSpec(params=params, R=4.0, box_half_width=half_width, h=1 / 16,
                                data=euclid.DataSpec(epsilon=1.0, r_data=1.0, amp_v=0.7,
                                                     shape="gaussian"))
    phases = np.array([b / abs(b) for b in beta])[:, None]
    rho = euclid.make_initial_state(spec).fields
    state = torus.state_from_arrays(torus.make_grid(1, rho.shape[-1] - 1),
                                    *(phases * rho[:, :-1]))
    scale = (np.pi / half_width) ** 2
    torus_params = replace(params, alpha1=alpha[0] * scale, alpha2=alpha[1] * scale)
    box = euclid.run_euclid(spec, t_end=1.0, dt_max=2e-3).final_state
    periodic = torus.run_torus(torus_params, state, t_end=1.0, dt_max=2e-3,
                               check_zero_mode=False).final_state
    assert box.t == periodic.t == 1.0
    gap = np.abs(phases * box.fields[:, :-1] - periodic.fields)
    return np.max(gap) / np.max(np.abs(periodic.fields))


@pytest.mark.parametrize("case", _CROSS_CHECK_CASES)
def test_the_backends_agree_on_a_box_mapped_onto_the_torus(case):
    alpha, beta, tolerance = _CROSS_CHECK_CASES[case]
    assert _backend_gap(alpha, beta) < tolerance


@pytest.mark.parametrize("case", _CROSS_CHECK_CASES)
def test_the_backends_disagree_where_the_euclidean_nonlinearity_is_wrong(case, monkeypatch):
    alpha, beta, tolerance = _CROSS_CHECK_CASES[case]
    nonlinearity = euclid._nonlinearity
    monkeypatch.setattr(euclid, "_nonlinearity",
                        lambda node, params: 1.1 * nonlinearity(node, params))
    assert _backend_gap(alpha, beta) > tolerance
