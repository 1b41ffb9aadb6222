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
from numbers import Integral, Real

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
    "stack_states",
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
    call.  ``u`` and ``v`` are views of the pair's first and second field.

    A batch of k states stacks their pairs on a leading axis, fields of
    shape (k, 2, *grid.shape), and holds their times as an array ``t`` of k
    floats; its rungs step, and are observed, together, and its ``u`` and
    ``v`` have the batch axis too."""

    grid: TorusGrid
    fields: np.ndarray
    t: float

    def __post_init__(self):
        fields = np.ascontiguousarray(self.fields, dtype=complex)
        object.__setattr__(self, "fields", fields)
        pair = (2, *self.grid.shape)
        if fields.shape[-len(pair):] != pair or fields.ndim > len(pair) + 1:
            raise ValidationError("field shapes must match the grid")
        if fields.ndim > len(pair):  # a batch: one time per state
            t = np.asarray(self.t, dtype=float)
            if t.shape != fields.shape[:1]:
                raise ValidationError("a batch needs one time per state")
            if not t.size:
                raise ValidationError("a batch needs at least one state")
            object.__setattr__(self, "t", t)
        if not np.isfinite(fields.view(float)).all():
            raise ValidationError("fields must be finite")

    @property
    def u(self) -> np.ndarray:
        return self.fields[_field(0, self.fields.ndim - self.grid.n - 1)]

    @property
    def v(self) -> np.ndarray:
        return self.fields[_field(1, self.fields.ndim - self.grid.n - 1)]


def _field(i: int, batch_axes: int) -> tuple:
    """The index of field i of every pair of stacked fields with
    ``batch_axes`` leading batch axes (0 or 1)."""
    return (slice(None),) * batch_axes + (i,)


def _batched(state: FieldState) -> bool:
    return state.fields.ndim > state.grid.n + 1


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


def stack_states(states) -> FieldState:
    """The batch of ``states``, single states on one grid, stacked in order."""
    grids = {s.grid for s in states}
    if len(grids) != 1:
        raise ValidationError("a batch needs states on one grid")
    return FieldState(grid=grids.pop(), fields=np.stack([s.fields for s in states]),
                      t=[s.t for s in states])


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
    and each transform of the pair is one FFT call.  A batch of states is
    transformed the same way, all its rungs in one call."""

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
        # stacked 2-d arrays cost page faults on every transform; sized to
        # the batch it is given
        self._size = (3 * grid.modes // 2 if pad else grid.modes,) * grid.n
        self._work = self._pair = None

    def per_rung(self, dt):
        """dt, a float, or an array of one per rung of a batch shaped here to
        broadcast over each rung's pair; refused unless positive."""
        if isinstance(dt, Real):
            if not dt > 0.0:
                raise ValidationError("dt must be positive")
            return dt
        dt = np.asarray(dt, dtype=float)
        if not (dt > 0.0).all():
            raise ValidationError("dt must be positive")
        return dt.reshape(dt.shape + (1,) * (self.grid.n + 1))

    def propagators(self, dt):
        """exp(dt/2 lin) and its square for ``per_rung(dt)``, rebuilt only
        when some rung's dt changes."""
        key = dt if isinstance(dt, Real) else np.asarray(dt, dtype=float).tobytes()
        if key != self._dt:
            e = np.exp(0.5 * self.per_rung(dt) * self.lin)
            self._dt, self._propagators = key, (e, e * e)
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
        shape = yh.shape[:-n] + self._size
        if self._work is None or self._work.shape[1:] != shape:
            self._work = np.empty((3,) + shape, dtype=complex)
            self._pair = _field(0, yh.ndim - n - 1), _field(1, yh.ndim - n - 1)
        y, powers, nh = self._work
        if self.pad:
            yh = _resize_spectrum(yh, modes, 3 * modes // 2, n)
        self.ifft(yh, y)
        u, v = self._pair
        powers[u] = np.abs(y[v]) ** self.p
        powers[v] = np.abs(y[u]) ** self.q
        self.fft(powers, nh)
        if self.pad:
            nh = _resize_spectrum(nh, modes, modes, n)
        return self.beta * nh


def torus_step(state: FieldState, stepper: TorusStepper, dt) -> FieldState:
    """One integrating-factor RK4 step (linear part exact per mode) with the
    run's ``stepper``, which holds the params and pad.  A batch steps each
    rung by its own dt, given as an array of one per rung."""
    h = stepper.per_rung(dt)
    if getattr(h, "shape", ())[:1] != state.fields.shape[:-state.grid.n - 1]:
        raise ValidationError("a batch steps with one dt per state, a state with one")
    if stepper.grid is not state.grid and stepper.grid != state.grid:  # by value
        raise ValidationError("the stepper was built for another grid")
    e, e2 = stepper.propagators(dt)

    with np.errstate(over="ignore", invalid="ignore"):
        yh = stepper.fft(state.fields)
        n1 = stepper.nonlinearity(yh)
        n2 = stepper.nonlinearity(e * (yh + 0.5 * h * n1))
        n3 = stepper.nonlinearity(e * yh + 0.5 * h * n2)
        n4 = stepper.nonlinearity(e2 * yh + h * e * n3)
        y = stepper.ifft(e2 * yh + h / 6.0 * (e2 * n1 + 2.0 * e * (n2 + n3) + n4))
    try:  # FieldState checks finiteness, once per step
        return FieldState(grid=state.grid, fields=y, t=state.t + dt)
    except ValidationError:
        raise IntegrationError(
            f"field overflow at t={state.t}", last_node=state
        ) from None


def _grid_means(a: np.ndarray, n: int) -> np.ndarray:
    """The means of ``a`` over its last n (grid) axes, all rungs in one call."""
    return a.reshape(a.shape[:a.ndim - n] + (-1,)).mean(axis=-1)


def _real_parts(coefs, means, batched: bool) -> tuple:
    """Re(coefs[i] * means[i]) for both fields i: two floats, or for a batch
    two lists of per-rung floats.  Each product is a scalar multiply, which
    an array-wide complex multiply need not round alike."""
    if not batched:
        return tuple(float((c * m).real) for c, m in zip(coefs, means))
    return tuple([float((c * m).real) for m in column] for c, column in zip(coefs, means))


def _zero_modes(pair: np.ndarray, params: SystemParams, grid: TorusGrid) -> tuple:
    """Re(conj(beta_i) * vol * mean(field i)) for each of the stacked fields
    ``pair``: the zero Fourier modes times the domain volume."""
    vol = grid.volume
    means = _grid_means(pair, grid.n)  # (*batch, 2)
    return _real_parts((np.conj(params.beta1) * vol, np.conj(params.beta2) * vol),
                       means.T, means.ndim > 1)


def functionals(state: FieldState, params: SystemParams) -> tuple:
    """U = Re(conj(beta1) * volume * mean(u)) and likewise V: the zero
    Fourier mode times the domain volume; per-rung lists for a batch."""
    return _zero_modes(state.fields, params, state.grid)


def functional_derivatives(state: FieldState, params: SystemParams) -> tuple:
    """d/dt of the functionals from the spectral right-hand side.  The
    Laplacian term has exactly zero mean; only the nonlinearity remains.
    Per-rung lists for a batch."""
    n, vol = state.grid.n, state.grid.volume
    return _real_parts((np.conj(params.beta1) * params.beta1 * vol,
                        np.conj(params.beta2) * params.beta2 * vol),
                       (_grid_means(np.abs(state.v) ** params.p, n),
                        _grid_means(np.abs(state.u) ** params.q, n)), _batched(state))


def laplacian_zero_mode(state: FieldState, stepper: TorusStepper):
    """Physical-space mean of the Laplacian terms; machine-zero check of
    the exactness that drives the mean-field growth inequality.  A list of
    one per rung for a batch."""
    if stepper.grid is not state.grid and stepper.grid != state.grid:  # by value
        raise ValidationError("the stepper was built for another grid")
    lap = stepper.ifft(stepper.lin * stepper.fft(state.fields))
    U, V = _zero_modes(lap, stepper.params, state.grid)
    if not _batched(state):
        return max(abs(U), abs(V))
    return [max(abs(a), abs(b)) for a, b in zip(U, V)]


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
    threshold, shrinking dt with the nonlinear amplitude near blow-up.

    For a batch ``state`` (see :class:`FieldState`) the rungs march in
    lockstep, each with its own dt and stop, and a list of one TorusRun per
    rung is returned."""
    stepper = TorusStepper(state.grid, params, pad)
    single = not _batched(state)
    lap = [0.0] * np.size(state.t)  # each rung's largest zero-mode residual

    def observe(s, rungs):
        if check_zero_mode:
            values = np.atleast_1d(laplacian_zero_mode(s, stepper)).tolist()
            for i, value in zip(rungs, values):
                lap[i] = max(lap[i], value)
        return (*functionals(s, params), *functional_derivatives(s, params))

    runs = march(
        params, state, t_end, dt_max, dt_safety,
        lambda s, dt: torus_step(s, stepper, dt), observe,
        field_threshold,
    )
    runs = [TorusRun(run.series, run.final_state, run.status, lap_zero_mode_max=m)
            for run, m in zip([runs] if single else runs, lap)]
    return runs[0] if single else runs


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
