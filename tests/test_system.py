"""The stacked-pair state format that both PDE backends share."""

import numpy as np
import pytest

from cgl_blowup import euclid, system, torus
from cgl_blowup.errors import IntegrationError, ValidationError


def _single_state(backend):
    if backend == "torus":
        return torus.constant_state(torus.make_grid(1, 16), 1.0, 2.0)
    return euclid.EuclidState(np.arange(18.0).reshape(2, 9), 0.25)


def test_both_backends_stack_states_with_the_shared_function():
    assert torus.stack_states is euclid.stack_states is system.stack_states


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
