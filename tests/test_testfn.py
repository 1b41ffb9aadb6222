import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import j0, j1

from cgl_blowup import testfn
from cgl_blowup.errors import ValidationError
from cgl_blowup.testfn import build_test_function, verify_phi_inequality


@pytest.fixture(scope="module", params=[1, 2, 3])
def tf(request):
    return build_test_function(request.param)


def fd_second(f, x, h):
    # 4th-order central stencil
    return (
        -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
    ) / (12 * h * h)


def fd_first(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def test_one_dimensional_closed_forms():
    tf1 = build_test_function(1)
    assert tf1.lam == pytest.approx(np.pi ** 2 / 4, rel=1e-14)
    assert tf1.lambda_eff == pytest.approx(np.pi ** 2 / 2, rel=1e-14)
    assert tf1.l1_norm == pytest.approx(1.0, abs=1e-12)
    x = np.array([0.0, 0.3, 0.9])
    assert tf1.psi(x) == pytest.approx(np.cos(np.pi * x / 2), rel=1e-14)


@pytest.mark.parametrize("f, cut, at_zero, signs", [
    (testfn._sinc, 1e-4, 1.0, (1, -1)),
    (testfn._dsinc, 1e-4, 0.0, (1, -1)),
    (testfn._dsinc_over_x, 1e-4, -1.0 / 3.0, (1, -1)),
    (testfn._j1_over_x, 1e-8, 0.5, (1, -1)),
    (build_test_function(1)._dpsi_over_r, 1e-8, -((0.5 * np.pi) ** 2), (1,)),  # radii
], ids=["sinc", "dsinc", "dsinc_over_x", "j1_over_x", "dpsi_over_r_1d"])
def test_removable_singularities_join_their_series_at_the_cut(f, cut, at_zero, signs):
    # the Taylor polynomial just inside the cut against the closed form just
    # outside it; _dsinc and _dsinc_over_x lose about 8 digits to
    # cancellation there, so 1e-6 is as tight as the closed forms allow
    for sign in signs:
        inside, outside = f(sign * cut * (1 - 1e-9)), f(sign * cut * (1 + 1e-9))
        assert inside == pytest.approx(outside, rel=1e-6)
    assert f(0.0) == at_zero


def test_two_dimensional_bessel_eigenpair():
    tf2 = build_test_function(2)
    # the literal is the root search's result, bit for bit
    assert tf2.bessel_zero == brentq(j0, 2.0, 3.0, xtol=1e-14, rtol=8.9e-16)
    assert tf2.lam == pytest.approx(tf2.bessel_zero ** 2, rel=1e-15)
    # closed-form disk norm: 2 pi * int J0(kr)^2 r dr = pi J1(k)^2 at a zero of J0
    assert tf2.l1_norm == pytest.approx(np.pi * j1(tf2.bessel_zero) ** 2, rel=1e-12)


def test_three_dimensional_closed_forms():
    tf3 = build_test_function(3)
    assert tf3.lam == pytest.approx(np.pi ** 2, rel=1e-14)
    assert tf3.l1_norm == pytest.approx(2 / np.pi, rel=1e-12)


def test_dirichlet_and_neumann_compatibility(tf):
    assert tf.phi(1.0) == 0.0
    assert tf.phi(1.7) == 0.0
    assert abs(tf.dphi(1.0 - 1e-12)) < 1e-9
    assert tf.psi(0.0) == pytest.approx(1.0, rel=1e-14)  # max normalization
    r = np.linspace(0, 2, 512)
    assert np.all(tf.phi(r) >= 0.0)
    assert np.all(tf.phi(r) <= 1.0 + 1e-15)


def test_inequality_violation_bounds(tf):
    v = verify_phi_inequality(tf, 4096)
    assert v <= (1e-10 if tf.n == 1 else 1e-8)


def test_verify_requires_minimum_resolution(tf):
    with pytest.raises(ValidationError):
        verify_phi_inequality(tf, 32)


def test_unsupported_dimension():
    with pytest.raises(ValidationError):
        build_test_function(4)


def test_eigen_residual_against_finite_differences(tf):
    # independent of the analytic second-derivative algebra
    h = 1e-3
    radii = np.array([0.05, 0.2, 0.41, 0.63, 0.85, 0.97])
    lap = fd_second(tf.psi, radii, h)
    if tf.n > 1:
        lap = lap + (tf.n - 1) * fd_first(tf.psi, radii, h) / radii
    assert np.max(np.abs(-lap - tf.lam * tf.psi(radii))) < 1e-6


def test_phi_laplacian_against_finite_differences(tf):
    h = 1e-3
    radii = np.array([2e-3, 0.1, 0.33, 0.52, 0.77, 0.93])
    lap = fd_second(tf.phi, radii, h)
    if tf.n > 1:
        lap = lap + (tf.n - 1) * fd_first(tf.phi, radii, h) / radii
    assert np.max(np.abs(lap - tf.lap_phi(radii))) < 1e-5


def test_scaling_law_of_laplacian(tf):
    # Laplacian of phi(x/R) must equal R^-2 (lap phi)(x/R)
    R = 3.7
    h = 2e-3
    radii = np.array([0.2, 0.8, 1.9, 3.1])

    def phi_scaled(r):
        return tf.phi(r / R)

    lap = fd_second(phi_scaled, radii, h)
    if tf.n > 1:
        lap = lap + (tf.n - 1) * fd_first(phi_scaled, radii, h) / radii
    expected = tf.lap_phi(radii / R) / R ** 2
    scale = np.max(np.abs(expected)) + 1.0
    assert np.max(np.abs(lap - expected)) / scale < 1e-8


def test_l1_norm_scaling(tf):
    R = 2.9
    surface = {1: 2.0, 2: 2 * np.pi, 3: 4 * np.pi}[tf.n]
    val, _ = quad(
        lambda r: float(tf.phi(r / R)) * r ** (tf.n - 1), 0.0, R,
        epsabs=1e-13, epsrel=1e-12, limit=200,
    )
    assert surface * val == pytest.approx(R ** tf.n * tf.l1_norm, rel=1e-10)


def test_profile_csv_export(tf, tmp_path):
    path = tmp_path / "profile.csv"
    tf.to_csv(path, resolution=256)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "r,phi,lap_phi"
    assert len(lines) == 257
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0)
