"""Pseudospectral simulation of the weakly coupled system on the torus
[0, 2pi)^n (n = 1 or 2).

Time stepping is integrating-factor RK4: the diagonal linear part
alpha_i |k|^2 is propagated exactly per Fourier mode, the nonlinearity
|.|^p is evaluated pointwise in physical space (optionally on a 3/2-padded
grid).  The mean-field functionals U, V depend only on the zero mode, whose
evolution carries no Laplacian contribution; that exactness is exposed as a
per-state machine check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import IntegrationError, ValidationError
from .ode_core import BoundReport, undamped_bounds, CoupledODESpec
from .system import FunctionalSeries, OdiReport, Run, SystemParams, check_growth_pair, march

__all__ = [
    "TorusGrid",
    "FieldState",
    "TorusRun",
    "make_grid",
    "constant_state",
    "state_from_arrays",
    "torus_step",
    "functionals",
    "functional_derivatives",
    "laplacian_zero_mode",
    "run_torus",
    "check_growth_inequality",
    "blowup_bounds",
    "coupling_coefficients",
]

VOLUME_FACTOR = 2.0 * np.pi  # per axis


@dataclass(frozen=True)
class TorusGrid:
    n: int
    modes: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValidationError("torus simulation supports n = 1 or 2")
        if not isinstance(self.modes, Integral) or isinstance(self.modes, bool):
            raise ValidationError("modes must be an integer")
        if self.modes < 8 or self.modes % 2:
            raise ValidationError("modes must be even and at least 8")

    @property
    def shape(self):
        return (self.modes,) * self.n

    @property
    def volume(self) -> float:
        return VOLUME_FACTOR ** self.n

    def axes(self):
        x = VOLUME_FACTOR * np.arange(self.modes) / self.modes
        return (x,) * self.n

    def wavenumbers_squared(self) -> np.ndarray:
        k = np.fft.fftfreq(self.modes, d=1.0 / self.modes)
        if self.n == 1:
            return k * k
        kx, ky = np.meshgrid(k, k, indexing="ij")
        return kx * kx + ky * ky


def make_grid(n: int, modes: int | None = None) -> TorusGrid:
    if modes is None:
        modes = 256 if n == 1 else 128
    return TorusGrid(n=n, modes=modes)


@dataclass(frozen=True)
class FieldState:
    grid: TorusGrid
    u: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.shape != self.grid.shape or v.shape != self.grid.shape:
            raise ValidationError("field shapes must match the grid")
        if not (np.all(np.isfinite(u.view(float))) and np.all(np.isfinite(v.view(float)))):
            raise ValidationError("fields must be finite")


def constant_state(grid: TorusGrid, cu: complex, cv: complex) -> FieldState:
    return FieldState(
        grid=grid,
        u=np.full(grid.shape, cu, dtype=complex),
        v=np.full(grid.shape, cv, dtype=complex),
        t=0.0,
    )


def state_from_arrays(grid: TorusGrid, u, v, t: float = 0.0) -> FieldState:
    return FieldState(grid=grid, u=u, v=v, t=t)


def _fft(a, n):
    return np.fft.fftn(a, norm="forward") if n == 2 else np.fft.fft(a, norm="forward")


def _ifft(a, n):
    return np.fft.ifftn(a, norm="forward") if n == 2 else np.fft.ifft(a, norm="forward")


def _resize_spectrum(ah: np.ndarray, modes: int, size: int, n: int) -> np.ndarray:
    """Copy the ``modes`` retained coefficients per axis of ``ah`` into a
    zero spectrum of ``size`` points per axis: zero padding or truncation.
    norm="forward" coefficients need no rescaling either way."""
    half = modes // 2
    out = np.zeros((size,) * n, dtype=complex)
    for corner in itertools.product((slice(None, half), slice(-half, None)), repeat=n):
        out[corner] = ah[corner]
    return out


def _make_nonlinearity(params: SystemParams, grid: TorusGrid, pad: bool):
    n, p, q = grid.n, params.p, params.q
    b1, b2 = params.beta1, params.beta2
    if not pad:
        def nonlin(uh, vh):
            u = _ifft(uh, n)
            v = _ifft(vh, n)
            return b1 * _fft(np.abs(v) ** p, n), b2 * _fft(np.abs(u) ** q, n)
        return nonlin

    padded = 3 * grid.modes // 2

    def nonlin_padded(uh, vh):
        up = _ifft(_resize_spectrum(uh, grid.modes, padded, n), n)
        vp = _ifft(_resize_spectrum(vh, grid.modes, padded, n), n)
        nu = _fft(np.abs(vp) ** p, n)
        nv = _fft(np.abs(up) ** q, n)
        return (
            b1 * _resize_spectrum(nu, grid.modes, grid.modes, n),
            b2 * _resize_spectrum(nv, grid.modes, grid.modes, n),
        )

    return nonlin_padded


def torus_step(
    state: FieldState, params: SystemParams, dt: float, pad: bool = False
) -> FieldState:
    """One integrating-factor RK4 step (linear part exact per mode)."""
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    if params.alpha1.real > 0.0 or params.alpha2.real > 0.0:
        raise ValidationError(
            "simulation requires Re(alpha) <= 0 (growing linear modes)"
        )
    grid = state.grid
    n = grid.n
    k2 = grid.wavenumbers_squared()
    lin_u = params.alpha1 * k2
    lin_v = params.alpha2 * k2
    eu = np.exp(0.5 * dt * lin_u)
    ev = np.exp(0.5 * dt * lin_v)
    eu2 = eu * eu
    ev2 = ev * ev
    nonlin = _make_nonlinearity(params, grid, pad)

    with np.errstate(over="ignore", invalid="ignore"):
        uh = _fft(state.u, n)
        vh = _fft(state.v, n)
        n1u, n1v = nonlin(uh, vh)
        au = eu * (uh + 0.5 * dt * n1u)
        av = ev * (vh + 0.5 * dt * n1v)
        n2u, n2v = nonlin(au, av)
        bu = eu * uh + 0.5 * dt * n2u
        bv = ev * vh + 0.5 * dt * n2v
        n3u, n3v = nonlin(bu, bv)
        cu = eu2 * uh + dt * eu * n3u
        cv = ev2 * vh + dt * ev * n3v
        n4u, n4v = nonlin(cu, cv)
        uh_new = eu2 * uh + dt / 6.0 * (eu2 * n1u + 2.0 * eu * (n2u + n3u) + n4u)
        vh_new = ev2 * vh + dt / 6.0 * (ev2 * n1v + 2.0 * ev * (n2v + n3v) + n4v)

        u_new = _ifft(uh_new, n)
        v_new = _ifft(vh_new, n)
    if not (np.all(np.isfinite(u_new.view(float))) and np.all(np.isfinite(v_new.view(float)))):
        raise IntegrationError(
            f"field overflow at t={state.t}", last_node=state
        )
    return FieldState(grid=grid, u=u_new, v=v_new, t=state.t + dt)


def functionals(state: FieldState, params: SystemParams) -> tuple[float, float]:
    """U = Re(conj(beta1) * volume * mean(u)) and likewise V: the zero
    Fourier mode times the domain volume."""
    vol = state.grid.volume
    U = (np.conj(params.beta1) * vol * np.mean(state.u)).real
    V = (np.conj(params.beta2) * vol * np.mean(state.v)).real
    return float(U), float(V)


def functional_derivatives(state: FieldState, params: SystemParams) -> tuple[float, float]:
    """d/dt of the functionals from the spectral right-hand side.  The
    Laplacian term has exactly zero mean; only the nonlinearity remains."""
    vol = state.grid.volume
    du = (np.conj(params.beta1) * params.beta1 * vol
          * np.mean(np.abs(state.v) ** params.p)).real
    dv = (np.conj(params.beta2) * params.beta2 * vol
          * np.mean(np.abs(state.u) ** params.q)).real
    return float(du), float(dv)


def laplacian_zero_mode(state: FieldState, params: SystemParams) -> float:
    """Physical-space mean of the Laplacian terms; machine-zero check of
    the exactness that drives the mean-field growth inequality."""
    grid = state.grid
    n = grid.n
    k2 = grid.wavenumbers_squared()
    lap_u = _ifft(params.alpha1 * k2 * _fft(state.u, n), n)
    lap_v = _ifft(params.alpha2 * k2 * _fft(state.v, n), n)
    vol = grid.volume
    cu = (np.conj(params.beta1) * vol * np.mean(lap_u)).real
    cv = (np.conj(params.beta2) * vol * np.mean(lap_v)).real
    return float(max(abs(cu), abs(cv)))


@dataclass(frozen=True)
class TorusRun(Run):
    lap_zero_mode_max: float


def run_torus(
    params: SystemParams,
    state: FieldState,
    t_end: float,
    dt_max: float,
    field_threshold: float = 1e6,
    dt_safety: float = 0.05,
    pad: bool = False,
    check_zero_mode: bool = True,
) -> TorusRun:
    """Advance to t_end or to the first state with max |field| above the
    threshold, shrinking dt with the nonlinear amplitude near blow-up."""
    lap = []

    def observe(s):
        if check_zero_mode:
            lap.append(laplacian_zero_mode(s, params))
        return (*functionals(s, params), *functional_derivatives(s, params))

    run = march(
        params, state, t_end, dt_max, dt_safety,
        lambda s, dt: torus_step(s, params, dt, pad=pad), observe,
        field_threshold,
    )
    return TorusRun(run.series, run.final_state, run.status,
                    lap_zero_mode_max=max(lap, default=0.0))


def check_growth_inequality(series: FunctionalSeries, params: SystemParams) -> OdiReport:
    """Verify dU/dt >= |b1|^2 |b2|^-p (2pi)^(-n(p-1)) V^p and the symmetric
    inequality for dV/dt wherever U, V >= 0."""
    n, p, q = params.n, params.p, params.q
    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    coef_u = ab1 ** 2 * ab2 ** (-p) * VOLUME_FACTOR ** (-n * (p - 1.0))
    coef_v = ab2 ** 2 * ab1 ** (-q) * VOLUME_FACTOR ** (-n * (q - 1.0))
    return check_growth_pair(series, coef_u, p, coef_v, q, rel_tol=1e-8)


def coupling_coefficients(params: SystemParams) -> tuple[float, float]:
    """The (C_p, C_q) pair the mean-field functionals obey."""
    n, p, q = params.n, params.p, params.q
    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    C_p = ab1 ** 2 * ab2 ** (-p) * VOLUME_FACTOR ** (-n * (p - 1.0)) / (p + 1.0)
    C_q = ab2 ** 2 * ab1 ** (-q) * VOLUME_FACTOR ** (-n * (q - 1.0)) / (q + 1.0)
    return C_p, C_q


def blowup_bounds(params: SystemParams, U0: float, V0: float) -> BoundReport:
    """Lifespan bound and lower-bound curves for the mean-field functionals.

    The bound does not involve alpha; any non-zero alpha is accepted here
    even though simulation requires Re(alpha) <= 0.
    """
    if U0 <= 0.0 or V0 <= 0.0:
        return BoundReport(False, exponent_caveat=params.exponent_caveat)
    C_p, C_q = coupling_coefficients(params)
    spec = CoupledODESpec(
        p=params.p, q=params.q, C_p=C_p, C_q=C_q, omega=0.0, f0=U0, g0=V0
    )
    return undamped_bounds(spec)
