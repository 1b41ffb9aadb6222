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
from .system import (FunctionalSeries, OdiReport, Run, SystemParams, check_growth_pair,
                     jensen_coefficients, march)

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
        if self.modes ** self.n * 16 > np.iinfo(np.intp).max:  # bytes of a complex field
            raise ValidationError(f"cannot allocate a grid of {self.modes}^{self.n} modes")

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
    """u and v at time t, stacked as one C-ordered complex array ``fields``
    of shape (2, *grid.shape): the pair that a step transforms in one FFT
    call.  ``u`` and ``v`` are the views ``fields[0]`` and ``fields[1]``."""

    grid: TorusGrid
    fields: np.ndarray
    t: float

    def __post_init__(self):
        fields = np.ascontiguousarray(self.fields, dtype=complex)
        object.__setattr__(self, "fields", fields)
        if fields.shape != (2, *self.grid.shape):
            raise ValidationError("field shapes must match the grid")
        if not np.isfinite(fields.view(float)).all():
            raise ValidationError("fields must be finite")

    @property
    def u(self) -> np.ndarray:
        return self.fields[0]

    @property
    def v(self) -> np.ndarray:
        return self.fields[1]


def constant_state(grid: TorusGrid, cu: complex, cv: complex) -> FieldState:
    return state_from_arrays(grid, np.full(grid.shape, cu, dtype=complex),
                             np.full(grid.shape, cv, dtype=complex))


def state_from_arrays(grid: TorusGrid, u, v, t: float = 0.0) -> FieldState:
    """The state of fields u and v, stacked into a new array."""
    try:
        fields = np.stack((u, v))
    except ValueError:  # u and v of different shapes
        raise ValidationError("field shapes must match the grid") from None
    return FieldState(grid=grid, fields=fields, t=t)


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
    """What the steps of one run share: its params and pad, ``k^2``, the
    linear symbols ``alpha_i k^2`` and ``beta_i`` of both fields stacked on a
    leading axis, and the propagators of the last dt.  The state is the
    stacked pair ``FieldState.fields``, so a step transforms the state itself
    and each transform of the pair is one FFT call."""

    def __init__(self, grid: TorusGrid, params: SystemParams, pad: bool = False):
        if params.alpha1.real > 0.0 or params.alpha2.real > 0.0:
            raise ValidationError(
                "simulation requires Re(alpha) <= 0 (growing linear modes)"
            )
        self.grid, self.params, self.pad = grid, params, pad
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


def torus_step(state: FieldState, stepper: TorusStepper, dt: float) -> FieldState:
    """One integrating-factor RK4 step (linear part exact per mode) with the
    run's ``stepper``, which holds the params and pad."""
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    if stepper.grid is not state.grid and stepper.grid != state.grid:  # by value
        raise ValidationError("the stepper was built for another grid")
    e, e2 = stepper.propagators(dt)

    with np.errstate(over="ignore", invalid="ignore"):
        yh = stepper.fft(state.fields)
        n1 = stepper.nonlinearity(yh)
        n2 = stepper.nonlinearity(e * (yh + 0.5 * dt * n1))
        n3 = stepper.nonlinearity(e * yh + 0.5 * dt * n2)
        n4 = stepper.nonlinearity(e2 * yh + dt * e * n3)
        y = stepper.ifft(e2 * yh + dt / 6.0 * (e2 * n1 + 2.0 * e * (n2 + n3) + n4))
    try:  # FieldState checks finiteness, once per step
        return FieldState(grid=state.grid, fields=y, t=state.t + dt)
    except ValidationError:
        raise IntegrationError(
            f"field overflow at t={state.t}", last_node=state
        ) from None


def _zero_modes(pair: np.ndarray, params: SystemParams, vol: float) -> tuple[float, float]:
    """Re(conj(beta_i) * vol * mean(pair[i])) for each of the stacked fields
    ``pair``: the zero Fourier modes times the domain volume."""
    return tuple(float((np.conj(beta) * vol * np.mean(a)).real)
                 for beta, a in zip((params.beta1, params.beta2), pair))


def functionals(state: FieldState, params: SystemParams) -> tuple[float, float]:
    """U = Re(conj(beta1) * volume * mean(u)) and likewise V: the zero
    Fourier mode times the domain volume."""
    return _zero_modes(state.fields, params, state.grid.volume)


def functional_derivatives(state: FieldState, params: SystemParams) -> tuple[float, float]:
    """d/dt of the functionals from the spectral right-hand side.  The
    Laplacian term has exactly zero mean; only the nonlinearity remains."""
    vol = state.grid.volume
    du = (np.conj(params.beta1) * params.beta1 * vol
          * np.mean(np.abs(state.v) ** params.p)).real
    dv = (np.conj(params.beta2) * params.beta2 * vol
          * np.mean(np.abs(state.u) ** params.q)).real
    return float(du), float(dv)


def laplacian_zero_mode(state: FieldState, stepper: TorusStepper) -> float:
    """Physical-space mean of the Laplacian terms; machine-zero check of
    the exactness that drives the mean-field growth inequality."""
    if stepper.grid is not state.grid and stepper.grid != state.grid:  # by value
        raise ValidationError("the stepper was built for another grid")
    lap = stepper.ifft(stepper.lin * stepper.fft(state.fields))
    return max(map(abs, _zero_modes(lap, stepper.params, state.grid.volume)))


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
            lap.append(laplacian_zero_mode(s, stepper))
        return (*functionals(s, params), *functional_derivatives(s, params))

    run = march(
        params, state, t_end, dt_max, dt_safety,
        lambda s, dt: torus_step(s, stepper, dt), observe,
        field_threshold,
    )
    return TorusRun(run.series, run.final_state, run.status,
                    lap_zero_mode_max=max(lap, default=0.0))


def check_growth_inequality(series: FunctionalSeries, params: SystemParams) -> OdiReport:
    """Verify dU/dt >= |b1|^2 |b2|^-p (2pi)^(-n(p-1)) V^p and the symmetric
    inequality for dV/dt wherever U, V >= 0."""
    return check_growth_pair(series, params, VOLUME_FACTOR, rel_tol=1e-8)


def coupling_coefficients(params: SystemParams) -> tuple[float, float]:
    """The (C_p, C_q) pair the mean-field functionals obey."""
    coef_u, coef_v = jensen_coefficients(params, VOLUME_FACTOR)
    return coef_u / (params.p + 1.0), coef_v / (params.q + 1.0)


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
