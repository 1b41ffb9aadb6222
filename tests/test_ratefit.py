import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgl_blowup.errors import ValidationError
from cgl_blowup.ratefit import (
    RateFit, fit_power_law, fit_trailing_decade, trailing_decade_window,
)


def synthetic(gamma=1.5, t_star=1.0, amplitude=1.0, t_max=0.9, n=200):
    t = np.linspace(0.0, t_max, n)
    return t, amplitude * (t_star - t) ** (-gamma)


def test_exact_power_law_recovered():
    t, y = synthetic()
    fit = fit_power_law(t, y)
    assert fit.t_star == pytest.approx(1.0, abs=1e-6)
    assert fit.gamma == pytest.approx(1.5, abs=1e-6)
    assert fit.amplitude == pytest.approx(1.0, abs=1e-6)
    assert fit.residual < 1e-10


def test_multiplicative_noise_tolerated():
    t, y = synthetic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        noisy = y * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=y.size))
        fit = fit_power_law(t, noisy)
        worst = max(worst, abs(fit.gamma - 1.5) / 1.5)
    assert worst < 0.01


def test_additive_constant_negligible_deep_in_growth():
    # nodes dense toward the singularity, as adaptive simulation series are
    s = np.geomspace(1 / 45.0, 1e-4, 400)
    t = np.sort(1.0 - s)
    y = (1.0 - t) ** -1.0 + 5.0
    assert y.min() >= 50.0 * (1 - 1e-12)
    fit = fit_power_law(t, y)
    assert fit.gamma == pytest.approx(1.0, rel=0.05)


def test_window_shift_stability():
    # additive constant at 1% of the window minimum
    t = np.linspace(0.0, 0.9999, 20000)
    y = (1.0 - t) ** -1.0 + 5.0
    lo = t[y >= 500.0][0]
    base = fit_power_law(t, y, window=(lo, t[-1]))
    shifted = fit_power_law(
        t, y, window=(lo + 0.1 * (t[-1] - lo), t[-1])
    )
    assert abs(shifted.gamma - base.gamma) / base.gamma < 0.02
    assert base.gamma == pytest.approx(1.0, rel=0.01)


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(0.5, 3.0),
    t_star=st.floats(0.5, 4.0),
    amplitude=st.floats(0.1, 10.0),
)
def test_property_exactness(gamma, t_star, amplitude):
    t = np.linspace(0.0, 0.9 * t_star, 120)
    y = amplitude * (t_star - t) ** (-gamma)
    fit = fit_power_law(t, y)
    assert fit.t_star == pytest.approx(t_star, rel=1e-6)
    assert fit.gamma == pytest.approx(gamma, rel=1e-6)
    assert fit.residual < 1e-10


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 20.0))
def test_property_time_rescaling(scale):
    t, y = synthetic()
    base = fit_power_law(t, y)
    rescaled = fit_power_law(scale * t, y)
    assert rescaled.t_star == pytest.approx(scale * base.t_star, rel=1e-8)
    assert rescaled.gamma == pytest.approx(base.gamma, rel=1e-8)


def test_trailing_decade_window():
    t, y = synthetic(t_max=0.99, n=4000)
    lo, hi = trailing_decade_window(t, y)
    assert hi == t[-1]
    assert y[t >= lo][0] >= y[-1] / 10.0
    # window start sits at the first node inside the decade
    before = t[t < lo]
    if before.size:
        assert y[t < lo][-1] < y[-1] / 10.0


def test_fit_trailing_decade():
    t, y = synthetic(t_max=0.99, n=4000)
    fit = fit_trailing_decade(t, y)
    assert fit == fit_power_law(t, y, window=trailing_decade_window(t, y))
    # a decaying series has no trailing decade of growth
    assert fit_trailing_decade(t, y[::-1]) is None


def test_validation_gates():
    t, y = synthetic()
    with pytest.raises(ValidationError):
        fit_power_law(t[:10], y[:10])
    with pytest.raises(ValidationError):
        fit_power_law(t, -y)
    with pytest.raises(ValidationError):
        fit_power_law(t, y[::-1])
    with pytest.raises(ValidationError):
        fit_power_law(t, y, window=(0.5, 0.5))


def test_ratefit_invariants_enforced():
    with pytest.raises(ValidationError):
        RateFit(t_star=0.5, gamma=1.0, amplitude=1.0, residual=0.0, window=(0.0, 0.9))
    with pytest.raises(ValidationError):
        RateFit(t_star=1.0, gamma=-1.0, amplitude=1.0, residual=0.0, window=(0.0, 0.9))


def test_fit_json_roundtrip_fields():
    t, y = synthetic()
    d = fit_power_law(t, y).to_json_dict()
    assert set(d) == {"t_star", "gamma", "amplitude", "residual", "window"}
