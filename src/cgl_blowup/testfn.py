"""Compactly supported weight phi = psi^2 built from the first Dirichlet
eigenfunction psi of -Laplace on the unit ball (n = 1, 2, 3).

psi is normalized by max psi = psi(0) = 1 and extended by zero outside B(1),
so phi is C^1 on R^n (phi and its radial derivative vanish at r = 1) and
satisfies -Laplace(phi) = 2*lam*phi - 2|grad psi|^2 <= lambda_eff * phi with
lambda_eff = 2*lam.  Its L^1 norm is a closed form: 1, pi J1(j01)^2 and 2/pi
for n = 1, 2, 3.  All evaluators are radial, vectorized and total on R^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["TestFunctionData", "build_test_function", "verify_phi_inequality"]

_J01 = 2.404825557695773  # first zero of J_0, correctly rounded


# scipy's Bessel functions, imported on the first call: only the weight of
# dimension 2 needs them, so other runs never load scipy.special
def _j0(x):
    from scipy.special import j0

    return j0(x)


def _j1(x):
    from scipy.special import j1

    return j1(x)


def _removable(x, cut, series, closed):
    """A function with a removable singularity at 0: its Taylor polynomial
    ``series`` where |x| < cut, else its ``closed`` form, which is never
    evaluated there."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < cut
    return np.where(small, series(x), closed(np.where(small, 1.0, x)))


def _sinc(x):
    return _removable(x, 1e-4, lambda x: 1.0 - x * x / 6.0 + x ** 4 / 120.0,
                      lambda x: np.sin(x) / x)


def _dsinc(x):
    return _removable(x, 1e-4, lambda x: -x / 3.0 + x ** 3 / 30.0,
                      lambda x: (np.cos(x) - np.sin(x) / x) / x)


def _dsinc_over_x(x):
    return _removable(x, 1e-4, lambda x: -1.0 / 3.0 + x * x / 10.0,
                      lambda x: (np.cos(x) - np.sin(x) / x) / (x * x))


def _j1_over_x(x):
    return _removable(x, 1e-8, lambda x: 0.5, lambda x: _j1(x) / x)


@dataclass(frozen=True)
class TestFunctionData:
    """Radial weight phi = psi^2 with its eigenvalue and L^1 norm."""

    n: int
    lam: float          # Dirichlet eigenvalue of psi
    lambda_eff: float   # effective constant in -Laplace(phi) <= lambda_eff*phi
    l1_norm: float      # integral of phi over B(1)
    bessel_zero: float  # first zero of J_0 (n = 2 only, else 0)

    # -- psi and radial derivatives -----------------------------------------

    def psi(self, r):
        r = np.asarray(r, dtype=float)
        inside = r < 1.0
        if self.n == 1:
            val = np.cos(0.5 * np.pi * r)
        elif self.n == 2:
            val = _j0(self.bessel_zero * r)
        else:
            val = _sinc(np.pi * r)
        return np.where(inside, val, 0.0)

    def dpsi(self, r):
        r = np.asarray(r, dtype=float)
        inside = r < 1.0
        if self.n == 1:
            val = -0.5 * np.pi * np.sin(0.5 * np.pi * r)
        elif self.n == 2:
            k = self.bessel_zero
            val = -k * _j1(k * r)
        else:
            val = np.pi * _dsinc(np.pi * r)
        return np.where(inside, val, 0.0)

    def _ddpsi(self, r):
        r = np.asarray(r, dtype=float)
        if self.n == 1:
            return -((0.5 * np.pi) ** 2) * np.cos(0.5 * np.pi * r)
        if self.n == 2:
            k = self.bessel_zero
            return -k * k * (_j0(k * r) - _j1_over_x(k * r))
        # spherical: sinc'' = -sinc - 2 sinc'/x
        x = np.pi * r
        return np.pi ** 2 * (-_sinc(x) - 2.0 * _dsinc_over_x(x))

    def _dpsi_over_r(self, r):
        r = np.asarray(r, dtype=float)
        if self.n == 1:
            return _removable(r, 1e-8, lambda r: -((0.5 * np.pi) ** 2),
                              lambda r: -0.5 * np.pi * np.sin(0.5 * np.pi * r) / r)
        if self.n == 2:
            k = self.bessel_zero
            return -k * k * _j1_over_x(k * r)
        return np.pi ** 2 * _dsinc_over_x(np.pi * r)

    # -- phi = psi^2 ---------------------------------------------------------

    def phi(self, r):
        return self.psi(r) ** 2

    def dphi(self, r):
        return 2.0 * self.psi(r) * self.dpsi(r)

    def lap_phi(self, r):
        """Radial Laplacian of phi, evaluated from the closed forms of psi
        (zero outside the support)."""
        r = np.asarray(r, dtype=float)
        inside = r < 1.0
        val = 2.0 * self.dpsi(r) ** 2 + 2.0 * self.psi(r) * self._ddpsi(r)
        if self.n > 1:
            val = val + (self.n - 1) * 2.0 * self.psi(r) * self._dpsi_over_r(r)
        return np.where(inside, val, 0.0)

    def profile(self, resolution: int):
        """Radial samples (r, phi, lap_phi) on [0, 1]."""
        r = np.linspace(0.0, 1.0, resolution)
        return r, self.phi(r), self.lap_phi(r)

    def to_csv(self, path, resolution: int = 1024) -> None:
        from .serialize import write_csv

        r, phi, lap = self.profile(resolution)
        write_csv(path, "r,phi,lap_phi", [r, phi, lap])


def build_test_function(n: int) -> TestFunctionData:
    """First Dirichlet eigenpair of the unit ball, squared.

    n=1: psi = cos(pi x / 2), lam = pi^2/4, ||phi||_1 = 1.  n=2:
    psi = J0(j01 r), lam = j01^2, ||phi||_1 = pi J1(j01)^2, with j01 the
    first zero of J0 as a double.  n=3: psi = sin(pi r)/(pi r), lam = pi^2,
    ||phi||_1 = 2/pi.
    """
    if n not in (1, 2, 3):
        raise ValidationError(f"dimension must be 1, 2 or 3, got {n}")
    if n == 1:
        lam, zero, l1 = 0.25 * np.pi ** 2, 0.0, 1.0
    elif n == 2:
        lam, zero, l1 = _J01 * _J01, _J01, np.pi * _j1(_J01) ** 2
    else:
        lam, zero, l1 = np.pi ** 2, 0.0, 2.0 / np.pi
    return TestFunctionData(n=n, lam=float(lam), lambda_eff=float(2 * lam),
                            l1_norm=float(l1), bessel_zero=float(zero))


def verify_phi_inequality(tf: TestFunctionData, grid_resolution: int) -> float:
    """Max over radial samples of -Laplace(phi) - lambda_eff * phi.

    Non-positive (to rounding) for a valid construction; the slack is
    -2 |grad psi|^2.
    """
    if grid_resolution < 64:
        raise ValidationError("grid_resolution must be at least 64")
    if grid_resolution * 8 > np.iinfo(np.intp).max:  # bytes of the radii
        raise ValidationError(f"cannot allocate {grid_resolution} radial samples")
    r = np.linspace(0.0, 1.0, grid_resolution)
    violation = -tf.lap_phi(r) - tf.lambda_eff * tf.phi(r)
    return float(np.max(violation))
