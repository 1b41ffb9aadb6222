"""Finite-difference simulation of the heat-type system (alpha_1, alpha_2 < 0
real) on a Dirichlet box truncating R^n (n = 1 or 2), with functionals
weighted by the compactly supported profile phi(x/R).

From data on the phases of beta the fields stay on them, so the one state
type, :class:`EuclidState`, holds the real amplitudes rho of the fields
u = (beta1/|beta1|) rho[0] and v = (beta2/|beta2|) rho[1] as its ``fields``,
and the steppers march rho in float64.

The weighted means obey a damped growth inequality with damping
|alpha_i| * lambda_eff / R^2; instantiating the damped ODE bounds with
omega = (p+1) * max|alpha| * lambda_eff / R^2 yields a lifespan bound, and
scanning the weight radius produces the amplitude-scaling bound T1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from numbers import Real
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import testfn
from .errors import IntegrationError, ValidationError
from .ode_core import (
    BoundReport,
    CoupledODESpec,
    damped_bounds,
    power_product,
)
from .ratefit import golden_section
from .system import (FunctionalSeries, OdiReport, Run, SystemParams, check_growth_pair,
                     jensen_coefficients, march)
from .testfn import TestFunctionData

__all__ = [
    "DataSpec",
    "EuclidRunSpec",
    "EuclidGrid",
    "EuclidState",
    "ThresholdConstants",
    "EuclidBounds",
    "make_initial_state",
    "stack_states",
    "euclid_step",
    "cfl_limit",
    "discrete_laplacian",
    "weighted_functionals",
    "functional_derivatives",
    "run_euclid",
    "check_weighted_growth_inequality",
    "evaluate_thresholds",
    "blowup_bounds",
    "coupling_spec",
]


@dataclass(frozen=True)
class DataSpec:
    """Initial data family: amplitude eps times the weight profile (or a
    gaussian), on the phases of beta so the weighted means start positive."""

    epsilon: float
    r_data: float
    amp_u: float = 1.0
    amp_v: float = 1.0
    shape: str = "weight"  # "weight" or "gaussian"

    def __post_init__(self):
        if self.epsilon <= 0 or self.r_data <= 0:
            raise ValidationError("epsilon and r_data must be positive")
        if self.amp_u <= 0 or self.amp_v <= 0:
            raise ValidationError("amplitudes must be positive")
        if self.shape not in ("weight", "gaussian"):
            raise ValidationError(f"unknown data shape {self.shape!r}")


@dataclass(frozen=True)
class EuclidRunSpec:
    params: SystemParams
    R: float
    box_half_width: float
    h: float
    data: DataSpec
    scheme: str = "imex"  # "imex" or "explicit"

    def __post_init__(self):
        pr = self.params
        if pr.n not in (1, 2):
            raise ValidationError("euclidean simulation supports n = 1 or 2")
        if pr.alpha1.imag != 0 or pr.alpha2.imag != 0:
            raise ValidationError("alpha coefficients must be real here")
        if pr.alpha1.real >= 0 or pr.alpha2.real >= 0:
            raise ValidationError("alpha coefficients must be negative")
        if not (pr.p >= pr.q >= 1.0):
            raise ValidationError("need p >= q >= 1")
        if not (pr.rates[0] > pr.n / 2.0):
            raise ValidationError("need (p+1)/(pq-1) > n/2")
        if not (self.box_half_width >= 2.0 * self.R):
            raise ValidationError("box_half_width must be at least 2R")
        if not (0 < self.h <= self.R / 64.0):
            raise ValidationError("grid spacing must satisfy h <= R/64")
        points = 2.0 * self.box_half_width / self.h + 2.0  # at least the grid's, per axis
        if points > (np.iinfo(np.intp).max / 16.0) ** (1.0 / pr.n):  # bytes of the stacked real pair
            raise ValidationError(f"cannot allocate a grid of {points:.3g} points per axis")
        if self.data.r_data > self.box_half_width:
            raise ValidationError("data support exceeds the box")
        if self.scheme not in ("imex", "explicit"):
            raise ValidationError(f"unknown scheme {self.scheme!r}")

    @cached_property
    def grid(self) -> "EuclidGrid":
        return EuclidGrid(self.params.n, self.box_half_width, self.h)

    @cached_property
    def tf(self) -> TestFunctionData:
        """The test function of dimension n, phi = psi^2."""
        return testfn.build_test_function(self.params.n)

    @cached_property
    def weight(self) -> np.ndarray:
        """phi(x/R) on the grid, the weight of the functionals."""
        return self.tf.phi(self.grid.radii() / self.R)

    @cached_property
    def diffusion(self) -> np.ndarray:
        """|alpha1| and |alpha2|, a column of the stacked amplitudes."""
        return self._column(-self.params.alpha1.real, -self.params.alpha2.real)

    @cached_property
    def beta_abs(self) -> np.ndarray:
        """|beta1| and |beta2|, a column of the stacked amplitudes."""
        return self._column(abs(self.params.beta1), abs(self.params.beta2))

    def _column(self, first: float, second: float) -> np.ndarray:
        return np.reshape((first, second), (2,) + (1,) * self.params.n)


@dataclass(frozen=True)
class EuclidGrid:
    n: int
    half_width: float
    h_nominal: float

    @cached_property
    def npoints(self) -> int:
        return int(math.ceil(2.0 * self.half_width / self.h_nominal)) + 1

    @cached_property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.npoints - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.npoints)

    def radii(self) -> np.ndarray:
        x = self.axis
        if self.n == 1:
            return np.abs(x)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        return np.sqrt(xx * xx + yy * yy)

    @property
    def shape(self):
        return (self.npoints,) * self.n

    @cached_property
    def cell_volume(self) -> float:
        return self.h ** self.n


@dataclass(eq=False)
class EuclidState:
    """The amplitudes rho of the fields u = (beta1/|beta1|) rho[0] and
    v = (beta2/|beta2|) rho[1] at time t, held as ``fields``, rho real of
    shape (2, *grid shape): the stacked pair, named as in the torus state.

    A batch of k states stacks their pairs on a leading axis, ``fields`` of
    shape (k, 2, *grid shape), and holds their times as an array ``t`` of k
    floats; a time that is an array is what makes a state a batch.  Its
    rungs step, and are observed, together, and its ``u`` and ``v`` have
    the batch axis too.

    From data on these phases the system keeps its fields on them, with
    rho_u' = |alpha1| Lap rho_u + |beta1| |rho_v|^p and likewise rho_v', so
    a run marches rho in real arithmetic; Re(conj(beta1) u) = |beta1| rho_u.
    fields and t are not changed once the state is made; it keeps its
    nonlinearity and second differences once computed.  So ``fields`` is a
    read-only view of the given array, in unpickled copies too; the
    caller's array stays writable.
    """

    fields: np.ndarray
    t: float
    # (params, its nonlinearity) once _node_nonlinearity has computed it
    held: Optional[tuple] = field(default=None, init=False, repr=False)
    _second: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.t, (list, tuple)):  # a batch: one time per state
            self.t = np.array(self.t, dtype=float)
        if isinstance(self.fields, np.ndarray):  # _on_grid refuses anything else
            self.fields = self.fields.view()
            self.fields.flags.writeable = False

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def u(self) -> np.ndarray:
        """The real amplitude rho[0] of u, so |u| = |field u|."""
        return self.fields[_field(self, 0)]

    @property
    def v(self) -> np.ndarray:
        """The real amplitude rho[1] of v, so |v| = |field v|."""
        return self.fields[_field(self, 1)]

    def second_difference(self, n: int) -> np.ndarray:
        """h^2 Lap_h rho on the interior of a grid of dimension n, computed
        once and shared by the state's derivative and, in 1-d, the step
        from it."""
        if self._second is None:
            self._second = _second_difference(self.fields, n)
        return self._second


def stack_states(states) -> EuclidState:
    """The batch of ``states``, single states on one grid, stacked in order."""
    try:
        fields = np.stack([s.fields for s in states])
    except ValueError:  # no states, or states on different grids
        raise ValidationError("a batch needs one or more states on one grid") from None
    return EuclidState(fields, [s.t for s in states])


def _batch_shape(state: EuclidState) -> tuple:
    """(k,) for a batch of k states, () for a single state."""
    return getattr(state.t, "shape", ())


def _field(state: EuclidState, i: int) -> tuple:
    """The index of field i of every pair of ``state.fields``."""
    return (slice(None),) * len(_batch_shape(state)) + (i,)


# indices into the stacked fields of one state or a batch on a grid of
# dimension n: their interior; and, of every pair, field u, field v and
# both reversed
_INTERIOR = {n: (Ellipsis,) + (slice(1, -1),) * n for n in (1, 2)}
_PAIR = {n: [(Ellipsis, i) + (slice(None),) * n for i in (0, 1, slice(None, None, -1))]
         for n in (1, 2)}


def _second_difference(a: np.ndarray, n: int) -> np.ndarray:
    """The centered second differences, summed over the last n (grid) axes,
    of each of the stacked fields ``a`` on its interior."""
    # summed left to right, in place where the order allows
    if n == 1:
        out = a[..., :-2] - 2.0 * a[..., 1:-1]
        out += a[..., 2:]
        return out
    out = a[..., :-2, 1:-1] + a[..., 2:, 1:-1]
    out += a[..., 1:-1, :-2]
    out += a[..., 1:-1, 2:]
    out -= 4.0 * a[..., 1:-1, 1:-1]
    return out


def _on_grid(state: EuclidState, spec: EuclidRunSpec) -> EuclidState:
    """``state``, refused unless its fields are a float64 pair on the spec's
    grid, or a batch of k such pairs with k times."""
    rho, batch = state.fields, _batch_shape(state)
    pair = (2, *spec.grid.shape)
    if not (isinstance(rho, np.ndarray) and rho.dtype == np.float64
            and len(batch) <= 1 and rho.shape == (*batch, *pair) and rho.size):
        raise ValidationError(f"the amplitudes must be a float64 array of shape {pair}, "
                              "or for a batch of k > 0 times that shape behind k")
    return state


def make_initial_state(spec: EuclidRunSpec) -> EuclidState:
    """The amplitudes eps * amp * profile(|x| / r_data), zero on the
    boundary, of the data on the phases of beta: conj(beta1) u0 and
    conj(beta2) v0 are positive reals on the support."""
    r = spec.grid.radii()
    d = spec.data
    if d.shape == "weight":
        profile = spec.tf.phi(r / d.r_data)
    else:
        profile = np.exp(-(r * r) / (2.0 * d.r_data ** 2))
    inner = _INTERIOR[spec.params.n][1:]
    rho = np.zeros((2, *spec.grid.shape))
    rho[0][inner] = d.epsilon * d.amp_u * profile[inner]
    rho[1][inner] = d.epsilon * d.amp_v * profile[inner]
    return EuclidState(rho, 0.0)


def discrete_laplacian(a: np.ndarray, h: float) -> np.ndarray:
    """Second-order centered Laplacian with homogeneous Dirichlet boundary."""
    out = np.zeros_like(a)
    out[(slice(1, -1),) * a.ndim] = _second_difference(a, a.ndim) / (h * h)
    return out


def _nonlinearity(node: EuclidState, params: SystemParams) -> np.ndarray:
    """|beta1| |v|^p and |beta2| |u|^q, stacked as rho; non-finite where
    they overflow."""
    u, v, reversed_pair = _PAIR[params.n]
    power = np.abs(node.fields[reversed_pair])
    v_p, u_q = power[u], power[v]
    with np.errstate(over="ignore", invalid="ignore"):
        v_p **= params.p
        u_q **= params.q
        v_p *= abs(params.beta1)
        u_q *= abs(params.beta2)
    return power


def _node_nonlinearity(node: EuclidState, params: SystemParams) -> np.ndarray:
    """``_nonlinearity(node, params)``, computed once per node and kept on
    it, so a node's derivative and the step from it share one computation."""
    if node.held is None or node.held[0] is not params:
        node.held = (params, _nonlinearity(node, params))
    return node.held[1]


def solve_banded(rhs: np.ndarray, r: float, state=None) -> np.ndarray:
    """Solve (I - r/2 * T) x = rhs on the interior, T = tridiag(1, -2, 1).

    rhs is real of shape (m,) or (m, k) with m interior nodes; solves along
    axis 0 with LAPACK's tridiagonal LU, the routine scipy's ``solve_banded``
    calls for one band each side, without building its band matrix.  A
    singular system raises IntegrationError carrying ``state``.
    """
    m = rhs.shape[0]
    off = np.full(m - 1, -0.5 * r)
    x, info = dgtsv(off, np.full(m, 1.0 + r), off, rhs)[3:]
    if info != 0:
        raise IntegrationError(f"tridiagonal solve failed (info {info})", last_node=state)
    return x


def _per_rung(state: EuclidState, dt, n: int):
    """dt as a factor of the stacked fields of ``state`` on a grid of
    dimension n: the float of a single state, or the array of one dt per
    rung of a batch, shaped to broadcast over each rung's pair; refused
    unless positive."""
    batch = _batch_shape(state)
    if isinstance(dt, Real) and not batch:
        if not dt > 0.0:
            raise ValidationError("dt must be positive")
        return dt
    dt = np.asarray(dt, dtype=float)
    if dt.shape != batch:
        raise ValidationError("a batch steps with one dt per state, a state with one")
    if not (dt > 0.0).all():
        raise ValidationError("dt must be positive")
    return dt.reshape(batch + (1,) * (n + 1))


def _imex_step_1d(node, spec, dt, force):
    # Crank-Nicolson diffusion, explicit forcing: one solve for all the
    # (rung, field) columns that share r = dt |alpha| / h^2
    h = spec.grid.h
    r = dt * spec.diffusion / (h * h)
    rhs = 0.5 * r * node.second_difference(1)
    rhs += node.fields[..., 1:-1]
    rhs += dt * force[..., 1:-1]
    columns = rhs.reshape(-1, rhs.shape[-1])
    out = np.zeros(node.fields.shape)
    solved = out.reshape(columns.shape[0], -1)[:, 1:-1]
    rs = r.ravel().tolist()
    for value in dict.fromkeys(rs):
        which = [i for i, x in enumerate(rs) if x == value]
        if len(which) == len(rs):  # every column: no fancy-indexed copies
            which = slice(None)
        solved[which] = solve_banded(columns[which].T, value, node).T
    return out


def _imex_step_2d(node, spec, dt, force):
    # Peaceman-Rachford ADI with the nonlinearity split over the half steps,
    # one amplitude of one rung at a time (both in one array solved slower)
    h = spec.grid.h
    grid = spec.grid.shape
    out = np.zeros(node.fields.shape)
    half = np.zeros(grid)
    columns = zip(node.fields.reshape(-1, *grid), force.reshape(-1, *grid),
                  out.reshape(-1, *grid), np.repeat(np.ravel(dt), 2).tolist(),
                  itertools.cycle(spec.diffusion.flat))
    for a, f, new, step, d in columns:
        r = step * d / (h * h)
        forcing = 0.5 * step * f[1:-1, 1:-1]
        # x-implicit half step
        rhs = a[1:-1, :-2] - 2.0 * a[1:-1, 1:-1]
        rhs += a[1:-1, 2:]
        rhs *= 0.5 * r
        rhs += a[1:-1, 1:-1]
        rhs += forcing
        half[1:-1, 1:-1] = solve_banded(rhs, r, node)
        # y-implicit half step (solve along axis 1 via transpose)
        rhs = half[:-2, 1:-1] - 2.0 * half[1:-1, 1:-1]
        rhs += half[2:, 1:-1]
        rhs *= 0.5 * r
        rhs += half[1:-1, 1:-1]
        rhs += forcing
        new[1:-1, 1:-1] = solve_banded(rhs.T, r, node).T
    return out


def _rhs(node: EuclidState, spec: EuclidRunSpec) -> np.ndarray:
    """Discrete right-hand side |alpha| Lap_h rho + nonlinearity of both
    amplitudes, zero on the boundary."""
    h, n = spec.grid.h, spec.params.n
    inner = _INTERIOR[n]
    lap = node.second_difference(n) / (h * h)
    lap *= spec.diffusion
    lap += _node_nonlinearity(node, spec.params)[inner]
    out = np.zeros(node.fields.shape)
    out[inner] = lap
    return out


def _explicit_step(node, spec, dt):
    # Heun's method on the full right-hand side
    k1 = _rhs(node, spec)
    k2 = _rhs(EuclidState(node.fields + dt * k1, node.t), spec)
    return node.fields + 0.5 * dt * (k1 + k2)


def cfl_limit(spec: EuclidRunSpec) -> float:
    return spec.grid.h ** 2 / (2.0 * spec.params.n * float(spec.diffusion.max()))


def euclid_step(state: EuclidState, spec: EuclidRunSpec, dt) -> EuclidState:
    """One IMEX (default) or explicit step; raises on field overflow, the
    IntegrationError carrying ``state`` as the last good node.  A batch
    steps each rung by its own dt, given as an array of one per rung; the
    1-d step solves all its columns that share r = dt |alpha| / h^2 in one
    call."""
    step = _per_rung(_on_grid(state, spec), dt, spec.params.n)
    if spec.scheme == "explicit":
        if np.max(step) > cfl_limit(spec) * (1 + 1e-12):
            raise ValidationError(
                f"explicit step dt={dt} exceeds the diffusion limit {cfl_limit(spec)}"
            )
        fields = _explicit_step(state, spec, step)
    else:
        nonlinearity = _node_nonlinearity(state, spec.params)
        if not np.isfinite(nonlinearity).all():
            raise IntegrationError(f"nonlinearity overflow at t={state.t}", last_node=state)
        imex = _imex_step_1d if spec.params.n == 1 else _imex_step_2d
        fields = imex(state, spec, step, nonlinearity)
    if not np.isfinite(fields).all():
        raise IntegrationError(f"field overflow at t={state.t}", last_node=state)
    return EuclidState(fields, state.t + dt)


def _weighted_means(a: np.ndarray, spec: EuclidRunSpec) -> tuple:
    """The grid quadrature of |beta| a * phi(x/R), for both stacked
    amplitudes ``a``: two floats, or for a batch two lists of per-rung
    floats."""
    # |beta| a first, which for real beta is Re(conj(beta) field) to the bit
    terms = spec.beta_abs * a
    terms *= spec.weight
    sums = terms.reshape(*a.shape[:-spec.params.n], -1).sum(axis=-1) * spec.grid.cell_volume
    U, V = sums.T.tolist()
    return U, V


def weighted_functionals(state: EuclidState, spec: EuclidRunSpec) -> tuple:
    """Grid quadrature of Re(conj(beta) field) * phi(x/R), that is of
    |beta| rho * phi(x/R); per-rung lists for a batch."""
    return _weighted_means(_on_grid(state, spec).fields, spec)


def functional_derivatives(state: EuclidState, spec: EuclidRunSpec) -> tuple:
    """d/dt of the weighted functionals from the discrete right-hand side,
    |alpha| Lap_h rho + |beta| |other amplitude|^p; per-rung lists for a
    batch."""
    return _weighted_means(_rhs(_on_grid(state, spec), spec), spec)


def run_euclid(
    spec: EuclidRunSpec,
    t_end: float,
    dt_max: float,
    functional_threshold: Optional[float] = 1e5,
    field_threshold: float = 1e7,
    dt_safety: float = 0.05,
    state: Optional[EuclidState] = None,
) -> Run:
    """Advance until t_end, until U or V crosses functional_threshold, or
    until max |field| crosses field_threshold (status blow_up...).

    The run marches from the data profile, or from ``state``, which must be
    finite and on the spec's grid.  For a batch ``state`` (see
    :class:`EuclidState`) the rungs march in lockstep, each with its own dt
    and stop, and a list of one Run per rung is returned.  The weight is
    evaluated once per run (``spec.weight``), and the nonlinearity once per
    node (``_node_nonlinearity``).
    """
    if state is not None and not np.isfinite(_on_grid(state, spec).fields).all():
        raise ValidationError("the amplitudes must be finite")

    def observe(s, rungs):
        return (*weighted_functionals(s, spec), *functional_derivatives(s, spec))

    # no local name holds the initial data, so march frees each node, and the
    # nonlinearity it keeps, once the step from it is done
    return march(
        spec.params,
        make_initial_state(spec) if state is None else state,
        t_end, dt_max, dt_safety, lambda s, dt: euclid_step(s, spec, dt), observe,
        field_threshold, functional_threshold,
        dt_cap=0.9 * cfl_limit(spec) if spec.scheme == "explicit" else math.inf,
    )


def check_weighted_growth_inequality(
    series: FunctionalSeries, spec: EuclidRunSpec
) -> OdiReport:
    """Verify U' + |alpha1| lambda_eff R^-2 U >= |b1|^2 |b2|^-p
    (R^n ||phi||_1)^(1-p) V^p (and symmetrically) wherever U, V >= 0."""
    tf, R = spec.tf, spec.R
    alpha_u, alpha_v = map(float, spec.diffusion.flat)
    damp_u = alpha_u * tf.lambda_eff / (R * R)
    damp_v = alpha_v * tf.lambda_eff / (R * R)
    return check_growth_pair(series, spec.params, R, tf.l1_norm,
                             damping_u=damp_u, damping_v=damp_v, rel_tol=1e-6)


def _damping(params: SystemParams, lam: float, R: float) -> tuple[float, float]:
    """lam_tilde = max|alpha| lam and the damping rate omega = (p+1) lam_tilde / R^2."""
    lam_tilde = max(abs(params.alpha1), abs(params.alpha2)) * lam
    return lam_tilde, (params.p + 1.0) * lam_tilde / (R * R)


# ---------------------------------------------------------------------------
# thresholds and bounds

@dataclass(frozen=True)
class ThresholdConstants:
    """Radii above which the damped-bound hypothesis holds and the constants
    entering the lower bound and the amplitude-scaling lifespan bound."""

    R0: float
    R1: float
    R2: float
    C1: float
    C2: float
    C3: float
    omega: float          # (p+1) * lam_tilde / R^2 at the evaluation radius
    lam_tilde: float      # max|alpha| * lambda_eff
    lambda_eff: float
    p_equals_q: bool
    radius: float         # the R the constants were evaluated at
    r_exceeds_r0: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _c3_factors(params: SystemParams) -> tuple:
    """The factors of C3, for power_product: T1 = C3 times further powers."""
    n, p, q = params.n, params.p, params.q
    pp, qq, D = p + 1.0, q + 1.0, p * q - 1.0
    sigma = 1.0 / (pp / D - n / 2.0)
    k3 = 1.0 / (1.0 - 0.5 * n * D / pp)
    return (
        (2.0, (p * q / qq) * k3),
        (qq / D, 1.0),
        (pp / qq, k3 / pp),
        (max(abs(params.alpha1), abs(params.alpha2)), 0.5 * n * sigma),
        (abs(params.beta1), -2.0 * (2.0 - p * q) / (2.0 * pp - n * D)),
        (abs(params.beta2), -2.0 * p / (2.0 * pp - n * D)),
    )


def evaluate_thresholds(
    params: SystemParams,
    tf: TestFunctionData,
    U0: float,
    V0: float,
    R: float,
    lam_override: Optional[float] = None,
) -> ThresholdConstants:
    """Evaluate R1, R2, R0 = max(R1, R2) and C1, C2, C3 for given data sizes.

    R2's closed form is singular at p = q; there it is reported as 0 with the
    p_equals_q marker (the ordering hypothesis must then be checked directly).
    A radius or constant whose value lies past the float range is reported
    as inf (then R > R0 fails) or, below it, as 0.
    ``lam_override`` substitutes a different inequality constant for
    lambda_eff (used to report the single-eigenvalue variant).
    """
    if U0 <= 0 or V0 <= 0:
        raise ValidationError("U0 and V0 must be positive")
    if tf.n != params.n:
        raise ValidationError(f"test function of dimension {tf.n} for n = {params.n}")
    n = params.n
    p, q = params.p, params.q
    pp, qq, D = p + 1.0, q + 1.0, p * q - 1.0
    if not (pp / D > n / 2.0):
        raise ValidationError("need (p+1)/(pq-1) > n/2")
    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    lam_eff = tf.lambda_eff if lam_override is None else lam_override
    lam_tilde, omega = _damping(params, lam_eff, R)
    phi_l1 = tf.l1_norm

    # mu1 / U0 raised to D / (2(p+1) - nD)
    R1 = power_product(
        (2.0, (pp / qq) * (p * q / D)),
        (pp / qq, 1.0 / D),
        (lam_tilde, pp / D),
        (ab1, 1.0 - 1.0 / D),
        (ab2, -p / D),
        (phi_l1, 1.0),
        (U0, 1.0, "/"),
        outer=D / (2.0 * pp - n * D),
    )

    p_equals_q = p == q
    if p_equals_q:
        R2 = 0.0
    else:  # mu2 V0^((p+1)/(q+1)) / U0 raised to (q+1) / (n(p-q))
        R2 = power_product(
            (qq / pp, 1.0 / qq),
            (ab1, 1.0 + 1.0 / qq),
            (ab2, -(2.0 + p) / qq),
            (phi_l1, -(p - q) / qq),
            (V0, pp / qq),
            (U0, 1.0, "/"),
            outer=qq / (n * (p - q)),
        )
    R0 = max(R1, R2)

    C1 = power_product(
        (qq / pp, D / (pp * qq)),
        (((ab1, 2.0 + q), (ab2, 2.0 + p, "/")), D / (pp * qq)),
        (phi_l1, -D * (p - q) / (pp * qq)),
    )
    C2 = power_product(
        (2.0, -p * q / qq),
        (qq / pp, q / qq),
        (ab1, q / qq),
        (ab2, (2.0 - p * q) / qq),
        (phi_l1, -D / qq),
    )
    C3 = power_product(*_c3_factors(params))

    return ThresholdConstants(
        R0=R0, R1=R1, R2=R2, C1=C1, C2=C2, C3=C3,
        omega=omega,
        lam_tilde=lam_tilde,
        lambda_eff=lam_eff,
        p_equals_q=p_equals_q,
        radius=R,
        r_exceeds_r0=R > R0,
    )


def coupling_spec(
    spec: EuclidRunSpec, U0: float, V0: float, lam_override: Optional[float] = None,
) -> CoupledODESpec:
    """The damped comparison system the weighted functionals obey."""
    params, tf, R = spec.params, spec.tf, spec.R
    p, q = params.p, params.q
    lam = tf.lambda_eff if lam_override is None else lam_override
    coef_u, coef_v = jensen_coefficients(params, R, tf.l1_norm)
    return CoupledODESpec(p=p, q=q, C_p=coef_u / (p + 1.0), C_q=coef_v / (q + 1.0),
                          omega=_damping(params, lam, R)[1], f0=U0, g0=V0)


def _minimize_radius_factor(theta: float, lo: float) -> tuple[float, float]:
    """Minimize m(x) = -x^2 log(1 - x^-theta) over [lo, inf), lo > 1."""
    def m(x: float) -> float:
        return -x * x * math.log1p(-(x ** (-theta)))

    hi = max(4.0, 2.0 * lo)
    while m(hi) <= m(0.5 * (lo + hi)):
        hi *= 2.0
        if hi > 1e12:
            break
    x = golden_section(m, lo, hi, lambda a, b: b - a <= 1e-10 * max(1.0, abs(b)))
    return x, m(x)


@dataclass(frozen=True)
class EuclidBounds:
    """Damped lower-bound/lifespan report at the run radius, plus the
    radius-optimized amplitude-scaling bound T1 and the threshold constants."""

    report: BoundReport
    thresholds: ThresholdConstants
    T1: Optional[float]
    minimizer: Optional[float]
    lambda_psi_variant: dict

    @property
    def hypothesis_satisfied(self) -> bool:
        return self.report.hypothesis_satisfied

    @property
    def lifespan_bound(self):
        return self.report.lifespan_bound

    def to_json_dict(self, sample_times=None) -> dict:
        out = self.report.to_json_dict(sample_times)
        out["T1"] = self.T1
        out["minimizer"] = self.minimizer
        out["thresholds"] = self.thresholds.to_json_dict()
        out["lambda_psi_variant"] = self.lambda_psi_variant
        return out


def _amplitude_scaling_bound(
    spec: EuclidRunSpec, tc: ThresholdConstants, U0: float,
) -> tuple[Optional[float], Optional[float]]:
    """T1 and its radius factor for the inequality constant tc.lambda_eff,
    both None where R0, R1 or R0 / R1 is past the float range (R1 also
    below it)."""
    if not (math.isfinite(tc.R0) and tc.R1 > 0.0 and math.isfinite(tc.R0 / tc.R1)):
        return None, None
    n, p, q = spec.params.n, spec.params.p, spec.params.q
    pp, D = p + 1.0, p * q - 1.0
    theta = 2.0 - n * D / pp
    sigma = 1.0 / (pp / D - n / 2.0)
    lo = max(tc.R0 / tc.R1, 1.0) + 1e-9
    x_min, m_min = _minimize_radius_factor(theta, lo)
    T1 = power_product(
        *_c3_factors(spec.params),
        (tc.lambda_eff, 0.5 * n * sigma),
        (spec.tf.l1_norm, sigma),
        (U0, -sigma),
        (m_min, 1.0),
    )
    return T1, x_min


def _bounds_for(spec: EuclidRunSpec, U0: float, V0: float, lam: float):
    """Threshold constants, T1 with its radius factor, and the damped bound
    report at the run radius, all for the inequality constant ``lam``."""
    tc = evaluate_thresholds(spec.params, spec.tf, U0, V0, spec.R, lam_override=lam)
    T1, x_min = _amplitude_scaling_bound(spec, tc, U0)
    report = damped_bounds(coupling_spec(spec, U0, V0, lam_override=lam))
    return tc, T1, x_min, report


def blowup_bounds(spec: EuclidRunSpec, U0: float, V0: float) -> EuclidBounds:
    """Bounds for the weighted functionals at the run radius R.

    Requires R > R0; the lower-bound curve and lifespan come from the damped
    comparison system, T1 from optimizing the radius.  Values computed with
    lambda_eff = 2 * lam; the single-eigenvalue variant is reported alongside.
    """
    if U0 <= 0.0 or V0 <= 0.0:
        raise ValidationError("U0 and V0 must be positive")
    tf = spec.tf
    tc, T1, x_min, report = _bounds_for(spec, U0, V0, tf.lambda_eff)
    if not tc.r_exceeds_r0:
        report = BoundReport(False, omega=tc.omega,
                             exponent_caveat=spec.params.exponent_caveat)
    _, T1_psi, _, psi_report = _bounds_for(spec, U0, V0, tf.lam)
    psi_variant = {
        "lambda": tf.lam,
        "omega": psi_report.omega,
        "T1": T1_psi,
        "lifespan_bound": psi_report.lifespan_bound,
        "hypothesis_satisfied": psi_report.hypothesis_satisfied,
    }
    return EuclidBounds(report=report, thresholds=tc, T1=T1, minimizer=x_min,
                        lambda_psi_variant=psi_variant)
