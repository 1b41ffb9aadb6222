"""The benchmark's trace points (perfbench/tracing.py) must name functions
that exist where their callers look them up, and ``restore`` must put every
original back."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_restore_puts_every_original_back():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        # an AttributeError here means a traced function was renamed or removed
        tracing.install(tracer)
        patched = [(owner, attr, original, getattr(owner, attr))
                   for owner, attr, original in tracer._patched]
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original, wrapper in patched:
        assert wrapper.__wrapped__ is original, attr
        assert getattr(owner, attr) is original, attr


def test_runs_call_every_traced_step_name():
    # a run that bypassed these module-level names would zero the per-layer
    # metrics without failing anything else
    from cgl_blowup import euclid, torus
    from cgl_blowup.system import SystemParams

    params = SystemParams(n=1, p=2, q=1.5, alpha1=-1, alpha2=-1, beta1=1, beta2=1)
    spec = euclid.EuclidRunSpec(params=params, R=4.0, box_half_width=8.0, h=4.0 / 64,
                                data=euclid.DataSpec(epsilon=0.3, r_data=1.5))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        torus_run = torus.run_torus(params, torus.constant_state(torus.make_grid(1, 16),
                                                                 0.5, 0.5),
                                    t_end=0.05, dt_max=1e-2)
        euclid_run = euclid.run_euclid(spec, t_end=0.05, dt_max=1e-2)
    finally:
        tracer.restore()
    calls = {name: entry["calls"] for name, entry in tracer.totals().items()}
    torus_nodes = torus_run.series.times.size
    euclid_nodes = euclid_run.series.times.size
    assert torus_nodes > 2 and euclid_nodes > 2
    assert calls["torus.torus_step"] == torus_nodes - 1
    assert calls["torus.laplacian_zero_mode"] == torus_nodes
    assert calls["euclid.euclid_step"] == euclid_nodes - 1
    assert calls["euclid.functional_derivatives"] == euclid_nodes
    # one solve a step: alpha1 == alpha2, so u and v share the 1-d solve
    assert calls["euclid.solve_banded"] == euclid_nodes - 1


def test_a_torus_ladder_steps_its_rungs_together_under_the_traced_names(tmp_path):
    # the ladder's rungs march as one batch, and a lockstep step of the live
    # rungs is one torus_step call: as many calls as its longest rung's steps
    import json

    from cgl_blowup import cli, torus
    from cgl_blowup.system import SystemParams

    unit = {"alpha1": -1, "alpha2": -1, "beta1": 1, "beta2": 1}
    ladder = {"start": 0.5, "factor": 1.3, "count": 5}
    run = {"time_budget": 30.0, "dt_max": 1e-2, "field_threshold": 1e4}
    config = tmp_path / "ladder.json"
    config.write_text(json.dumps({
        "schema_version": 1, "mode": "torus_homogeneous", "modes": 16,
        "params": {"n": 1, "p": 2, "q": 2, **unit}, "epsilon": ladder, **run}))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        code = cli.main(["scaling-study", "--config", str(config),
                         "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert code == 0
    params = SystemParams(n=1, p=2, q=2, **unit)
    grid = torus.make_grid(1, 16)
    longest = max(
        torus.run_torus(params, torus.constant_state(grid, eps, eps), t_end=30.0,
                        dt_max=1e-2, field_threshold=1e4).series.times.size
        for eps in (ladder["start"] * ladder["factor"] ** k for k in range(5)))
    calls = {name: entry["calls"] for name, entry in tracer.totals().items()}
    assert calls["torus.torus_step"] == longest - 1
    assert calls["torus.functionals"] >= longest - 1


def test_a_euclidean_ladder_steps_its_rungs_together_under_the_traced_names(tmp_path):
    # the Euclidean ladder marches as one batch too: a lockstep step of the
    # live rungs is one euclid_step call, with one solve per distinct r
    import json
    from dataclasses import replace

    from cgl_blowup import cli, euclid
    from cgl_blowup.system import SystemParams

    unit = {"alpha1": -1, "alpha2": -1, "beta1": 1, "beta2": 1}
    ladder = {"start": 2.0, "factor": 1.3, "count": 5}
    box = {"R": 4.0, "box_half_width": 8.0, "h": 4.0 / 64, "r_data": 1.0}
    # a slope of -1.56 against -2: so short a ladder needs a loose tolerance
    run = {"time_budget": 5.0, "dt_max": 1e-2, "functional_threshold": 1e4,
           "field_threshold": 1e8, "slope_tolerance": 0.5}
    config = tmp_path / "ladder.json"
    config.write_text(json.dumps({
        "schema_version": 1, "mode": "euclid",
        "params": {"n": 1, "p": 2, "q": 2, **unit}, "epsilon": ladder, **box, **run}))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        code = cli.main(["scaling-study", "--config", str(config),
                         "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert code == 0
    spec = euclid.EuclidRunSpec(params=SystemParams(n=1, p=2, q=2, **unit), R=4.0,
                                box_half_width=8.0, h=4.0 / 64,
                                data=euclid.DataSpec(epsilon=1.0, r_data=1.0))
    sizes = [
        euclid.run_euclid(replace(spec, data=replace(spec.data, epsilon=eps)), t_end=5.0,
                          dt_max=1e-2, functional_threshold=1e4,
                          field_threshold=1e8).series.times.size
        for eps in (ladder["start"] * ladder["factor"] ** k for k in range(5))]
    assert len(set(sizes)) > 1  # rungs leave the batch at different steps
    calls = {name: entry["calls"] for name, entry in tracer.totals().items()}
    assert calls["euclid.euclid_step"] == max(sizes) - 1
    assert calls["euclid.functional_derivatives"] == max(sizes)
    # unit alpha: every live rung at one dt shares one solve
    assert max(sizes) - 1 <= calls["euclid.solve_banded"] < sum(sizes) - 5
