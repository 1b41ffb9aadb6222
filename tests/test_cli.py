import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import stdtrit

import cgl_blowup
from cgl_blowup import ode_core, testfn
from cgl_blowup.cli import main
from cgl_blowup.errors import ValidationError
from cgl_blowup.sampling import sample_coupled_spec
from cgl_blowup.serialize import write_json

CONFIGS = Path(__file__).parents[1] / "scripts" / "configs"


def run_cli(args):
    return main([str(a) for a in args])


def write_config(path, payload):
    write_json(path, payload)
    return path


def torus_config(**overrides):
    cfg = {
        "schema_version": 1,
        "params": {"n": 1, "p": 2, "q": 2, "alpha1": [-1, 0], "alpha2": [-1, 0],
                   "beta1": [1, 0], "beta2": [1, 0]},
        "grid": {"modes": 64},
        "data": {"kind": "constant", "u": [1, 0], "v": [1, 0]},
        "dt": {"dt_max": 0.001, "safety": 0.05},
        "t_end": 5.0,
        "field_threshold": 1e5,
    }
    cfg.update(overrides)
    return cfg


def euclid_config(**overrides):
    cfg = {
        "schema_version": 1,
        "params": {"n": 1, "p": 2, "q": 1.5, "alpha1": [-1, 0],
                   "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
        "R": 6.4,
        "box_half_width": 12.8,
        "points_per_R": 64,
        "data": {"epsilon": 0.3, "r_data": 1.5},
        "t_end": 0.5,
    }
    cfg.update(overrides)
    return cfg


def scaling_torus_config(**overrides):
    cfg = {
        "schema_version": 1,
        "mode": "torus_homogeneous",
        "params": {"n": 1, "p": 2, "q": 2, "alpha1": [-1, 0],
                   "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
        "epsilon": {"start": 0.5, "factor": 1.3, "count": 5},
        "modes": 32,
        "dt_max": 0.001,
        "time_budget": 30.0,
        "field_threshold": 1e6,
    }
    cfg.update(overrides)
    return cfg


def weight_config(**overrides):
    cfg = {"schema_version": 1, "dimensions": [1, 2], "resolution": 1024}
    cfg.update(overrides)
    return cfg


_BASE_CONFIGS = {"torus-run": torus_config, "euclid-run": euclid_config,
                 "scaling-study": scaling_torus_config,
                 "testfn-check": weight_config}


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert run_cli(["ode-verify", "--config", bad, "--out", out]) == 2
    assert not out.exists() or not list(out.iterdir())


def test_non_utf8_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"schema_version": 1}')
    out = tmp_path / "out"
    assert run_cli(["testfn-check", "--config", bad, "--out", out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


# sizes numpy refuses outright (hundreds of PiB), never ones it could allocate;
# the last three are past numpy's largest array, so they never reach numpy
@pytest.mark.parametrize("command,config", [
    ("euclid-run", euclid_config(box_half_width=1e15)),
    ("testfn-check", weight_config(resolution=10 ** 17)),
    ("euclid-run", euclid_config(box_half_width=1e300)),
    ("testfn-check", weight_config(resolution=10 ** 30)),
    ("torus-run", torus_config(grid={"modes": 10 ** 30})),
])
def test_unallocatable_sizes_exit_2(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path / "c.json", config)
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "allocate" in err
    assert not out.exists()


def test_wrong_schema_version_exits_2(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"schema_version": 99})
    assert run_cli(["testfn-check", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_missing_required_key_exits_2(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"schema_version": 1, "t_end": 1.0})
    assert run_cli(["torus-run", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert not (tmp_path / "o").exists()


_BAD_RUN_INPUTS = {
    "t_end_nan": {"t_end": math.nan},
    "dt_max_negative": {"dt": {"dt_max": -1, "safety": 0.05}},
    "safety_zero": {"dt": {"dt_max": 0.001, "safety": 0}},
    "field_threshold_zero": {"field_threshold": 0},
}


@pytest.mark.parametrize("command,overrides", [
    *[pytest.param(command, bad, id=f"{command}-{name}")
      for command in ("torus-run", "euclid-run")
      for name, bad in _BAD_RUN_INPUTS.items()],
    pytest.param("euclid-run", {"functional_threshold": -1},
                 id="euclid-run-functional_threshold_negative"),
    pytest.param("torus-run", {"grid": {"modes": "x"}},
                 id="torus-run-modes_not_int"),
    pytest.param("torus-run", {"pad": "no"}, id="torus-run-pad_not_bool"),
    pytest.param("scaling-study", {"modes": "x"},
                 id="scaling-study-modes_not_int"),
    pytest.param("scaling-study",
                 {"epsilon": {"start": -0.5, "factor": 1.3, "count": 5}},
                 id="scaling-study-start_negative"),
    pytest.param("scaling-study",
                 {"epsilon": {"start": 0, "factor": 1.3, "count": 5}},
                 id="scaling-study-start_zero"),
    # dimension 1 is valid, so its profile must not be written before 4 fails
    pytest.param("testfn-check", {"dimensions": [1, 4]},
                 id="testfn-check-dimension_out_of_range"),
])
def test_bad_run_inputs_exit_2(tmp_path, command, overrides):
    cfg = tmp_path / "c.json"
    # json.dumps, unlike write_json, keeps NaN as NaN
    cfg.write_text(json.dumps(_BASE_CONFIGS[command](**overrides)))
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", out]) == 2
    assert not out.exists()


def test_euclid_data_past_the_float_range_exits_2(tmp_path, capsys):
    # epsilon * amp_u overflows: refused with the data, before arrays of inf
    # (and NaN where the profile is 0) are built and stepped
    cfg = json.loads((CONFIGS / "euclid_suite.json").read_text())
    cfg["data"].update(epsilon=1e300, amp_u=1e10)
    path = write_config(tmp_path / "c.json", cfg)
    out = tmp_path / "out"
    assert run_cli(["euclid-run", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


def test_ode_verify_t_end_beyond_the_collapse_floor_exits_2(tmp_path, capsys):
    # at t_end = 1e16 every run's first step lies below the step-collapse
    # floor 1e-17 * t_end, so no run would integrate past t = 0
    cfg = write_config(tmp_path / "c.json",
                       {"schema_version": 1, "n_specs": 20, "t_end": 1e16})
    out = tmp_path / "out"
    assert run_cli(["ode-verify", "--config", cfg, "--out", out,
                    "--seed", 1]) == 2
    assert "t_end" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exits_2(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"schema_version": 1, "n_specs": 1})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(["ode-verify", "--config", cfg, "--out", out, "--seed", -1])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True],
                         ids=["out_is_a_file", "out_below_a_file"])
def test_unusable_out_exits_2_and_keeps_the_file(tmp_path, capsys, below):
    cfg = write_config(tmp_path / "c.json", weight_config())
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    out = taken / "sub" if below else taken
    assert run_cli(["testfn-check", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert taken.read_text() == "not a directory"


def _json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _config_mutations():
    """(config, path, value) for every leaf and block of every packaged
    config and every replacement of another JSON type; NaN also replaces
    numbers."""
    mutations = []
    for config in sorted(CONFIGS.glob("*.json")):
        stack = [((), json.loads(config.read_text()))]
        while stack:
            path, node = stack.pop()
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                for new in ("x", None, {}, True, math.nan):
                    if _json_type(new) != _json_type(value) or new is math.nan:
                        mutations.append((config.name, path + (key,), new))
                if isinstance(value, (dict, list)):
                    stack.append((path + (key,), value))
    return mutations


_COMMAND_OF = {
    "euclid_suite.json": "euclid-run", "ode_verify.json": "ode-verify",
    "scaling_euclid.json": "scaling-study", "scaling_torus.json": "scaling-study",
    "testfn_check.json": "testfn-check", "torus_rate_check.json": "torus-run",
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(_config_mutations()))
def test_mutated_packaged_config_exits_2(mutation):
    name, path, new = mutation
    cfg = json.loads((CONFIGS / name).read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "c.json", Path(tmp) / "out"
        config.write_text(json.dumps(cfg))
        assert run_cli([_COMMAND_OF[name], "--config", config, "--out", out]) == 2
        assert not out.exists()


def test_testfn_check_passes(tmp_path):
    cfg = write_config(tmp_path / "c.json", weight_config())
    out = tmp_path / "out"
    assert run_cli(["testfn-check", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"]
    entry = report["dimensions"][0]
    assert entry["lambda"] == pytest.approx(2.4674011002723395, rel=1e-12)
    assert entry["l1_norm"] == pytest.approx(1.0, abs=1e-10)
    assert (out / "profile_n1.csv").exists()
    assert (out / "profile_n2.csv").exists()


def test_torus_run_constant_data(tmp_path):
    cfg = write_config(tmp_path / "c.json", torus_config())
    out = tmp_path / "out"
    assert run_cli(["torus-run", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "blow_up_threshold_reached"
    assert report["checks"]["odi_clean"]
    assert report["checks"]["zero_mode_exact"]
    assert report["checks"]["bound_respected"]
    assert report["fit_U"]["gamma"] == pytest.approx(1.0, rel=0.1)
    assert (out / "functionals.csv").exists()
    assert (out / "plots.json").exists()


@pytest.mark.parametrize("amplitude,p", [(1e-300, 3.0), (1e300, 1.02)])
def test_torus_run_bounds_data_past_the_float_range(tmp_path, capsys, amplitude, p):
    # (p+1)-th powers of the data leave the float range in the bound
    # constants; at 1e300 the step rate |v|^p / |u| stays finite only for p
    # near 1
    cfg = write_config(tmp_path / "c.json", torus_config(
        params={**torus_config()["params"], "p": p, "q": p}, grid={"modes": 16},
        data={"kind": "constant", "u": [amplitude, 0], "v": [amplitude, 0]},
        t_end=0.5))
    out = tmp_path / "out"
    assert run_cli(["torus-run", "--config", cfg, "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
    bounds = json.loads((out / "report.json").read_text())["bounds"]
    assert bounds["hypothesis_satisfied"]
    if amplitude < 1.0:  # about amplitude^(-(pq-1)/(p+1)) = 1e600
        assert bounds["lifespan_bound"] is None
    else:
        assert 0.0 < bounds["lifespan_bound"] < 1e-3


def test_torus_run_snapshot_sidecar(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       torus_config(snapshots=True, t_end=0.01,
                                    field_threshold=1e6))
    out = tmp_path / "out"
    assert run_cli(["torus-run", "--config", cfg, "--out", out]) == 0
    sidecar = json.loads((out / "final_state.json").read_text())
    assert sidecar["dtype"] == "complex128"
    assert sidecar["shape"] == [64]
    assert (out / "final_state_u.bin").stat().st_size == 64 * 16


def test_torus_run_mode_data_decays(tmp_path):
    cfg = write_config(tmp_path / "c.json", torus_config(
        data={"kind": "fourier_mode", "mode": 1, "amplitude": [1e-10, 0]},
        t_end=0.5,
    ))
    out = tmp_path / "out"
    assert run_cli(["torus-run", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "completed"
    assert not report["bounds"]["hypothesis_satisfied"]


def test_torus_run_perturbed_constant_data(tmp_path):
    cfg = write_config(tmp_path / "c.json", torus_config(
        data={"kind": "constant_plus_mode", "u": [1, 0], "v": [1, 0],
              "perturbation": [0.05, 0]},
        t_end=0.2,
    ))
    out = tmp_path / "out"
    assert run_cli(["torus-run", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["odi_clean"]
    assert report["bounds"]["hypothesis_satisfied"]
    assert len(report["bounds"]["lower_bound"]) == 33


@pytest.mark.parametrize("odi_cap", [-1, 0])
def test_euclid_run_fails_when_odi_cap_leaves_no_node(tmp_path, odi_cap):
    # a cap at or below U0, V0 cuts the series to no node: nothing is checked
    cfg = write_config(tmp_path / "c.json", euclid_config(odi_cap=odi_cap))
    out = tmp_path / "out"
    assert run_cli(["euclid-run", "--config", cfg, "--out", out]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["odi"]["n_checked"] == 0
    assert not report["checks"]["odi_clean"]


def test_euclid_run_gaussian_data(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema_version": 1,
        "params": {"n": 1, "p": 2, "q": 1.5, "alpha1": [-1, 0],
                   "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
        "R": 6.4,
        "box_half_width": 12.8,
        "points_per_R": 64,
        "data": {"epsilon": 0.3, "r_data": 1.5, "shape": "gaussian"},
        "t_end": 0.5,
        "functional_threshold": 1e5,
    })
    out = tmp_path / "out"
    assert run_cli(["euclid-run", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["odi_clean"]
    assert report["U0"] > 0


def test_euclid_run_small(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema_version": 1,
        "params": {"n": 1, "p": 2, "q": 1.5, "alpha1": [-1, 0],
                   "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
        "R": 8.0,
        "box_half_width": 16.0,
        "points_per_R": 64,
        "data": {"epsilon": 0.55, "r_data": 2.0, "amp_u": 1.0, "amp_v": 0.5},
        "dt": {"dt_max": 0.002},
        "t_end": 30.0,
        "functional_threshold": 1e5,
        "odi_cap": 1e5,
    })
    out = tmp_path / "out"
    assert run_cli(["euclid-run", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "blow_up_threshold_reached"
    assert report["checks"]["odi_clean"]
    assert report["checks"]["bound_respected"]
    thresholds = json.loads((out / "thresholds.json").read_text())
    for key in ("R0", "R1", "R2", "C1", "C2", "C3", "omega", "T1"):
        assert key in thresholds
    assert thresholds["r_exceeds_r0"]


def test_euclid_run_fits_no_rate_to_a_run_that_did_not_blow_up(tmp_path):
    cfg = write_config(tmp_path / "c.json", euclid_config())
    out = tmp_path / "out"
    assert run_cli(["euclid-run", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "completed"
    assert report["fits"] == {"U": None, "V": None}


def test_euclid_run_naming_the_imex_scheme_writes_the_bits_of_one_naming_none(tmp_path):
    outputs = []
    for name, cfg in (("named", euclid_config(scheme="imex")), ("unnamed", euclid_config())):
        out = tmp_path / name
        path = write_config(tmp_path / f"{name}.json", cfg)
        assert run_cli(["euclid-run", "--config", path, "--out", out]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("scheme", ["explicit", "bogus"])
def test_euclid_run_refuses_any_scheme_but_imex(tmp_path, capsys, scheme):
    cfg = write_config(tmp_path / "c.json", euclid_config(scheme=scheme))
    out = tmp_path / "out"
    assert run_cli(["euclid-run", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "scheme" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", [0.01, 1000.0])
def test_euclid_run_reports_thresholds_past_the_float_range_as_null(tmp_path, capsys,
                                                                     epsilon):
    # near the critical line (p+1)/(pq-1) = n/2 the exponent of R1 grows
    # without bound: R1 leaves the float range above for small data and
    # below (to 0) for large data
    params = {**euclid_config()["params"], "p": 2.99, "q": 2.99}
    cfg = write_config(tmp_path / "c.json", euclid_config(
        params=params, data={"epsilon": epsilon, "r_data": 1.5}, t_end=0.05))
    out = tmp_path / "out"
    assert run_cli(["euclid-run", "--config", cfg, "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
    thresholds = json.loads((out / "thresholds.json").read_text())
    if epsilon < 1.0:
        assert thresholds["R1"] is None and thresholds["R0"] is None
        assert not thresholds["r_exceeds_r0"]
    else:
        assert thresholds["R1"] == 0
    bounds = json.loads((out / "report.json").read_text())["bounds"]
    assert not bounds["hypothesis_satisfied"]
    assert thresholds["T1"] is None
    assert bounds["T1"] is None and bounds["minimizer"] is None


def test_euclid_run_near_pq_1_certifies_its_finite_bound(tmp_path):
    # near pq = 1 single factors of R1 and of the damping term leave the
    # float range in opposite directions, while R1 and the term do not
    params = {**euclid_config()["params"], "p": 1.0001, "q": 1.0001}
    cfg = write_config(tmp_path / "c.json", euclid_config(
        params=params, data={"epsilon": 0.3, "r_data": 1.5, "amp_v": 0.5},
        t_end=0.05))
    out = tmp_path / "out"
    assert run_cli(["euclid-run", "--config", cfg, "--out", out]) == 0
    thresholds = json.loads((out / "thresholds.json").read_text())
    assert thresholds["R1"] < 6.4 and thresholds["r_exceeds_r0"]
    bounds = json.loads((out / "report.json").read_text())["bounds"]
    assert bounds["hypothesis_satisfied"] and bounds["lifespan_bound"] > 0
    assert bounds["T1"] > 0


def test_torus_run_reports_a_bound_curve_past_the_float_range_as_null(tmp_path):
    # near pq = 1 the lower-bound curve grows like exp(t) up to a lifespan
    # bound past 1e5, so its later samples leave the float range
    params = {**torus_config()["params"], "p": 1.00001, "q": 1.00001}
    cfg = write_config(tmp_path / "c.json", torus_config(
        params=params, grid={"modes": 16}, t_end=0.5))
    out = tmp_path / "out"
    assert run_cli(["torus-run", "--config", cfg, "--out", out]) == 0
    bounds = json.loads((out / "report.json").read_text())["bounds"]
    assert bounds["hypothesis_satisfied"] and bounds["lifespan_bound"] > 1e5
    assert bounds["lower_bound"][0] > 0 and bounds["lower_bound"][-1] is None


def test_euclid_run_evaluates_phi_for_the_data_and_the_weight_only(
        tmp_path, monkeypatch):
    calls = []
    phi = testfn.TestFunctionData.phi

    def counted_phi(self, r):
        calls.append(r)
        return phi(self, r)

    monkeypatch.setattr(testfn.TestFunctionData, "phi", counted_phi)
    cfg = json.loads((CONFIGS / "euclid_suite.json").read_text())
    cfg["t_end"] = 0.2
    path = write_config(tmp_path / "c.json", cfg)
    assert run_cli(["euclid-run", "--config", path, "--out", tmp_path / "out"]) == 0
    assert len(calls) <= 2  # the initial data and the weight


def test_ode_verify_reports_residual_defect(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema_version": 1, "n_specs": 8, "t_end": 3.0,
        "n_comparison_pairs": 4,
    })
    out = tmp_path / "out"
    code = run_cli(["ode-verify", "--config", cfg, "--out", out, "--seed", 7])
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    # the fixed-normalization identity check divides by the initial
    # constant only, so on blow-up runs the DP5 truncation error (about
    # 100 x tol of F and G, themselves huge) fails it; the scale-aware one
    # passes
    assert not checks["conserved_identity_literal"]["passed"]
    assert checks["conserved_identity_scaled"]["passed"]
    assert checks["worked_symmetric_case"]["passed"]
    assert checks["lifespan_bounds_dominate"]["passed"]
    assert checks["ordered_data_comparison"]["passed"]
    assert report["failing_cases"]
    assert code == 1
    assert (out / "specs.csv").exists()
    # the checks' names, order and keys are the report's format
    identity = ["name", "passed", "max_value", "tolerance"]
    assert [(c["name"], list(c)) for c in report["checks"]] == [
        ("conserved_identity_literal", identity),
        ("conserved_identity_scaled", identity),
        ("worked_symmetric_case", ["name", "passed"]),
        ("lifespan_bounds_dominate", ["name", "passed"]),
        ("lower_bound_curves_dominated", ["name", "passed"]),
        ("undamped_monotonicity", ["name", "passed"]),
        ("ordered_data_comparison", ["name", "passed", "failures"]),
    ]


def test_ode_verify_draws_the_shrinks_after_the_pair_specs(tmp_path, monkeypatch):
    ratios = []
    check = ode_core.check_comparison

    def recording(sub, sup, spec):
        ratios.append(sub.f[0] / sup.f[0])
        return check(sub, sup, spec)

    monkeypatch.setattr(ode_core, "check_comparison", recording)
    cfg = write_config(tmp_path / "c.json", {
        "schema_version": 1, "n_specs": 1, "t_end": 1.0, "n_comparison_pairs": 3,
    })
    run_cli(["ode-verify", "--config", cfg, "--out", tmp_path / "out", "--seed", 2024])
    rng = np.random.default_rng(2025)
    specs = [sample_coupled_spec(rng) for _ in range(3)]
    assert ratios == pytest.approx([rng.uniform(0.9, 0.99) for _ in specs], rel=1e-15)
    # a second copy of the specs' stream would give 0.9 + 0.03 (p - 1) of the first
    assert ratios[0] != pytest.approx(0.9 + 0.03 * (specs[0].p - 1), rel=1e-12)


def test_ode_verify_writes_its_report_when_a_crossing_falls_within_an_ulp(tmp_path):
    # spec 19 of seed 28 crosses its threshold within half an ulp of t past
    # its last node; the literal residual check fails, as for every seed
    out = tmp_path / "out"
    assert run_cli(["ode-verify", "--config", CONFIGS / "ode_verify.json",
                    "--out", out, "--seed", 28]) == 1
    assert json.loads((out / "report.json").read_text())["seed"] == 28
    assert (out / "specs.csv").exists()


def test_a_trajectory_refusing_its_own_nodes_exits_3_not_as_a_config_error(
        tmp_path, capsys, monkeypatch):
    # the config is valid: a run whose record refuses the nodes the run made
    # is a run-time failure
    def refusing(**kwargs):
        raise ValidationError("times must be finite and strictly increasing")

    monkeypatch.setattr(ode_core, "Trajectory", refusing)
    cfg = write_config(tmp_path / "c.json", {"schema_version": 1, "n_specs": 2, "t_end": 1.0})
    out = tmp_path / "out"
    assert run_cli(["ode-verify", "--config", cfg, "--out", out, "--seed", 1]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "strictly increasing" in err
    assert "config error" not in err
    assert not out.exists()  # the run wrote nothing, so its --out is gone


def test_ode_verify_checks_its_pairs_in_order_after_drawing_every_shrink(tmp_path, monkeypatch):
    # the pairs' runs march in one lockstep batch and finish in any order
    checked = []
    check = ode_core.check_comparison

    def recording(sub, sup, spec):
        checked.append((spec, sub.f[0] / sup.f[0]))
        return check(sub, sup, spec)

    monkeypatch.setattr(ode_core, "check_comparison", recording)
    cfg = write_config(tmp_path / "c.json", {"schema_version": 1, "n_specs": 2, "t_end": 1.0,
                                             "n_comparison_pairs": 6})
    assert run_cli(["ode-verify", "--config", cfg, "--out", tmp_path / "out", "--seed", 4]) in (0, 1)
    rng = np.random.default_rng(5)
    specs = [sample_coupled_spec(rng) for _ in range(6)]
    shrinks = [rng.uniform(0.9, 0.99) for _ in range(6)]
    assert [spec for spec, _ in checked] == specs
    assert [ratio for _, ratio in checked] == pytest.approx(shrinks, rel=1e-15)


def test_scaling_study_torus(tmp_path):
    cfg = write_config(tmp_path / "c.json", scaling_torus_config())
    out = tmp_path / "out"
    assert run_cli(["scaling-study", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["predicted_slope"] == pytest.approx(-1.0)
    assert report["slope"] == pytest.approx(-1.0, rel=0.05)
    assert report["matches_prediction"]
    assert (out / "runs.csv").exists()
    # the interval is the Student-t one on n_complete - 2 degrees of freedom;
    # the stderr is about 1e-9 here, so the bounds' difference keeps ~7 digits
    low, high = report["slope_ci95"]
    ratio = 0.5 * (high - low) / report["slope_stderr"]
    assert report["n_complete"] == 5
    assert ratio == pytest.approx(stdtrit(3, 0.975), rel=1e-5)
    assert ratio == pytest.approx(3.182, abs=1e-3)


def test_scaling_study_rejects_short_ladder(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema_version": 1,
        "mode": "torus_homogeneous",
        "params": {"n": 1, "p": 2, "q": 2, "alpha1": [-1, 0],
                   "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
        "epsilon": {"start": 0.5, "factor": 1.3, "count": 3},
    })
    assert run_cli(["scaling-study", "--config", cfg,
                    "--out", tmp_path / "o"]) == 2


def test_scaling_study_rejects_critical_exponents(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema_version": 1,
        "mode": "euclid",
        "params": {"n": 2, "p": 2, "q": 2, "alpha1": [-1, 0],
                   "alpha2": [-1, 0], "beta1": [1, 0], "beta2": [1, 0]},
        "epsilon": {"start": 0.5, "factor": 1.3, "count": 5},
        "R": 4.0, "box_half_width": 8.0, "h": 0.0625,
    })
    # (p+1)/(pq-1) = 1 = n/2 exactly: the scaling exponent is undefined
    assert run_cli(["scaling-study", "--config", cfg,
                    "--out", tmp_path / "o"]) == 2


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.json", torus_config(t_end=0.3))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(["torus-run", "--config", cfg, "--out", out1, "--seed", 5]) == 0
    assert run_cli(["torus-run", "--config", cfg, "--out", out2, "--seed", 5]) == 0
    for name in ("report.json", "functionals.csv", "plots.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema_version": 1, "dimensions": [1], "resolution": 256,
        "profile_csv": False,
    })
    # the child imports the package these tests import, installed or not
    src = str(Path(cgl_blowup.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cgl_blowup", "testfn-check",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0


def _fresh_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports the package these
    tests import, installed or not; these tests import scipy themselves."""
    src = str(Path(cgl_blowup.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_SCIPY = ["scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.optimize",
          "scipy.special"]


def test_cli_import_leaves_scipy_subpackages_unloaded():
    loaded = _fresh_python(
        f"import json, sys, cgl_blowup, cgl_blowup.cli\n"
        f"print(json.dumps([m for m in {_SCIPY!r} if m in sys.modules]))")
    assert loaded == []


def test_cli_import_loads_no_process_pool():
    loaded = _fresh_python(
        "import json, sys, cgl_blowup, cgl_blowup.cli\n"
        "print(json.dumps('multiprocessing' in sys.modules))")
    assert loaded is False


# runs main(argv) in a fresh interpreter, after importing the scipy
# subpackages the run may use when the first argument is "scipy-first";
# prints the exit code and the scipy subpackages loaded
_RUN_FRESH = f"""\
import json, sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg, scipy.special
from cgl_blowup.cli import main
code = main(sys.argv[2:])
print(json.dumps([code, [m for m in {_SCIPY!r} if m in sys.modules]]))
"""


# ode-verify exits 1 here on its literal conserved-identity check, which
# float64 cannot meet at these amplitudes (ROADMAP aim 3); the scaled one passes
@pytest.mark.parametrize("command,config,exit_code", [
    ("torus-run", torus_config(t_end=0.3), 0),
    ("ode-verify", {"schema_version": 1, "n_specs": 2, "t_end": 2.0,
                    "n_comparison_pairs": 1}, 1),
])
def test_a_run_that_calls_no_scipy_routine_loads_no_scipy(tmp_path, command, config,
                                                         exit_code):
    cfg = write_config(tmp_path / "c.json", config)
    code, loaded = _fresh_python(_RUN_FRESH, "lazy", command, "--config", cfg,
                                 "--out", tmp_path / "o", "--workers", 1)
    assert code == exit_code
    assert loaded == []


def test_a_euclid_run_loads_its_solver_and_writes_the_bits_of_a_scipy_first_run(
        tmp_path):
    cfg = write_config(tmp_path / "c.json", euclid_config(t_end=0.2))
    outs = {}
    for order in ("lazy", "scipy-first"):
        outs[order] = tmp_path / order
        code, loaded = _fresh_python(_RUN_FRESH, order, "euclid-run", "--config", cfg,
                                     "--out", outs[order])
        assert code == 0
        assert "scipy.linalg" in loaded
        if order == "lazy":  # the weight of dimension 1 needs no Bessel function
            assert "scipy.special" not in loaded
    names = sorted(p.name for p in outs["lazy"].iterdir())
    assert "report.json" in names
    assert names == sorted(p.name for p in outs["scipy-first"].iterdir())
    for name in names:
        assert (outs["lazy"] / name).read_bytes() == (outs["scipy-first"] / name).read_bytes()


def test_workers_do_not_change_results(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema_version": 1, "n_specs": 4, "t_end": 2.0,
        "n_comparison_pairs": 2,
    })
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    run_cli(["ode-verify", "--config", cfg, "--out", out1, "--seed", 3])
    run_cli(["ode-verify", "--config", cfg, "--out", out2, "--seed", 3,
             "--workers", "2"])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "specs.csv").read_bytes() == (out2 / "specs.csv").read_bytes()
