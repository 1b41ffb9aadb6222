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
    "TorusStepper",
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


def _resize_spectrum(ah: np.ndarray, modes: int, size: int, n: int) -> np.ndarray:
    """Copy the ``modes`` retained coefficients per axis of the last ``n`` axes
    of ``ah`` into zeros of ``size`` points per axis: zero padding or
    truncation.  norm="forward" coefficients need no rescaling either way."""
    half = modes // 2
    out = np.zeros(ah.shape[:-n] + (size,) * n, dtype=complex)
    for corner in itertools.product((slice(None, half), slice(-half, None)), repeat=n):
        out[(..., *corner)] = ah[(..., *corner)]
    return out


class TorusStepper:
    """What the steps of one run share: ``k^2``, the linear symbols
    ``alpha_i k^2`` and ``beta_i`` of both fields stacked on a leading axis,
    and the propagators of the last dt.  u and v travel as one
    ``(2, *grid.shape)`` array, so each transform of the pair is one FFT
    call."""

    def __init__(self, grid: TorusGrid, params: SystemParams, pad: bool = False):
        self.grid, self.pad = grid, pad
        self.p, self.q = params.p, params.q
        k2 = grid.wavenumbers_squared()
        self.lin = np.stack((params.alpha1 * k2, params.alpha2 * k2))
        self.beta = np.array((params.beta1, params.beta2)).reshape((2,) + (1,) * grid.n)
        self._dt = self._propagators = None
        # the nonlinearity's fields, powers and their spectra: held, as fresh
        # stacked 2-d arrays cost page faults on every transform
        size = 3 * grid.modes // 2 if pad else grid.modes
        self._work = np.empty((3, 2) + (size,) * grid.n, dtype=complex)

    def propagators(self, dt: float):
        """exp(dt/2 lin) and its square, rebuilt only when dt changes."""
        if dt != self._dt:
            e = np.exp(0.5 * dt * self.lin)
            self._dt, self._propagators = dt, (e, e * e)
        return self._propagators

    def fft(self, a, out=None):
        return (np.fft.fftn(a, axes=(-2, -1), norm="forward", out=out) if self.grid.n == 2
                else np.fft.fft(a, norm="forward", out=out))

    def ifft(self, a, out=None):
        return (np.fft.ifftn(a, axes=(-2, -1), norm="forward", out=out) if self.grid.n == 2
                else np.fft.ifft(a, norm="forward", out=out))

    def nonlinearity(self, yh):
        """Spectra of beta1 |v|^p and beta2 |u|^q from the stacked spectra of
        u and v, evaluated on the 3/2-padded grid when ``pad``."""
        n, modes = self.grid.n, self.grid.modes
        y, powers, nh = self._work
        if self.pad:
            yh = _resize_spectrum(yh, modes, 3 * modes // 2, n)
        self.ifft(yh, y)
        powers[0] = np.abs(y[1]) ** self.p
        powers[1] = np.abs(y[0]) ** self.q
        self.fft(powers, nh)
        if self.pad:
            nh = _resize_spectrum(nh, modes, modes, n)
        return self.beta * nh


def torus_step(
    state: FieldState, params: SystemParams, dt: float, pad: bool = False,
    stepper: TorusStepper | None = None,
) -> FieldState:
    """One integrating-factor RK4 step (linear part exact per mode).
    ``stepper``: the run's ``TorusStepper(state.grid, params, pad)``, if at
    hand."""
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    if params.alpha1.real > 0.0 or params.alpha2.real > 0.0:
        raise ValidationError(
            "simulation requires Re(alpha) <= 0 (growing linear modes)"
        )
    if stepper is None:
        stepper = TorusStepper(state.grid, params, pad)
    e, e2 = stepper.propagators(dt)

    with np.errstate(over="ignore", invalid="ignore"):
        yh = stepper.fft(np.stack((state.u, state.v)))
        n1 = stepper.nonlinearity(yh)
        n2 = stepper.nonlinearity(e * (yh + 0.5 * dt * n1))
        n3 = stepper.nonlinearity(e * yh + 0.5 * dt * n2)
        n4 = stepper.nonlinearity(e2 * yh + dt * e * n3)
        y = stepper.ifft(e2 * yh + dt / 6.0 * (e2 * n1 + 2.0 * e * (n2 + n3) + n4))
    if not np.all(np.isfinite(y.view(float))):
        raise IntegrationError(
            f"field overflow at t={state.t}", last_node=state
        )
    return FieldState(grid=state.grid, u=y[0], v=y[1], t=state.t + dt)


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


def laplacian_zero_mode(state: FieldState, params: SystemParams,
                        stepper: TorusStepper | None = None) -> float:
    """Physical-space mean of the Laplacian terms; machine-zero check of
    the exactness that drives the mean-field growth inequality.
    ``stepper``: the run's ``TorusStepper``, if at hand."""
    if stepper is None:
        stepper = TorusStepper(state.grid, params)
    lap = stepper.ifft(stepper.lin * stepper.fft(np.stack((state.u, state.v))))
    vol = state.grid.volume
    cu = (np.conj(params.beta1) * vol * np.mean(lap[0])).real
    cv = (np.conj(params.beta2) * vol * np.mean(lap[1])).real
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
    stepper = TorusStepper(state.grid, params, pad)
    lap = []

    def observe(s):
        if check_zero_mode:
            lap.append(laplacian_zero_mode(s, params, stepper))
        return (*functionals(s, params), *functional_derivatives(s, params))

    run = march(
        params, state, t_end, dt_max, dt_safety,
        lambda s, dt: torus_step(s, params, dt, pad, stepper), observe,
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
