"""Finite-difference simulation of the heat-type system (alpha_1, alpha_2 < 0
real) on a Dirichlet box truncating R^n (n = 1 or 2), with functionals
weighted by the compactly supported profile phi(x/R).

The weighted means obey a damped growth inequality with damping
|alpha_i| * lambda_eff / R^2; instantiating the damped ODE bounds with
omega = (p+1) * max|alpha| * lambda_eff / R^2 yields a lifespan bound, and
scanning the weight radius produces the amplitude-scaling bound T1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg.lapack import zgtsv

from .errors import IntegrationError, ValidationError
from .ode_core import (
    BoundReport,
    CoupledODESpec,
    damped_bounds,
)
from .ratefit import golden_section
from .system import FunctionalSeries, OdiReport, Run, SystemParams, check_growth_pair, march
from .testfn import TestFunctionData

__all__ = [
    "DataSpec",
    "EuclidRunSpec",
    "EuclidGrid",
    "EuclidState",
    "ThresholdConstants",
    "EuclidBounds",
    "make_initial_state",
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
    gaussian), with complex phases aligned to beta so the weighted means
    start positive."""

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
        if self.data.r_data > self.box_half_width:
            raise ValidationError("data support exceeds the box")
        if self.scheme not in ("imex", "explicit"):
            raise ValidationError(f"unknown scheme {self.scheme!r}")

    @cached_property
    def grid(self) -> "EuclidGrid":
        return EuclidGrid(self.params.n, self.box_half_width, self.h)


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


@dataclass(frozen=True)
class EuclidState:
    u: np.ndarray
    v: np.ndarray
    t: float


def make_initial_state(spec: EuclidRunSpec, tf: TestFunctionData) -> EuclidState:
    """Data eps * amp * phase(beta) * profile(|x| / r_data); the phases make
    conj(beta1) u0 and conj(beta2) v0 positive reals on the support."""
    grid = spec.grid
    r = grid.radii()
    d = spec.data
    if d.shape == "weight":
        profile = tf.phi(r / d.r_data)
    else:
        profile = np.exp(-(r * r) / (2.0 * d.r_data ** 2))
    b1, b2 = spec.params.beta1, spec.params.beta2
    u = d.epsilon * d.amp_u * (b1 / abs(b1)) * profile.astype(complex)
    v = d.epsilon * d.amp_v * (b2 / abs(b2)) * profile.astype(complex)
    _zero_boundary(u)
    _zero_boundary(v)
    return EuclidState(u=u, v=v, t=0.0)


def _zero_boundary(a: np.ndarray) -> None:
    if a.ndim == 1:
        a[0] = 0.0
        a[-1] = 0.0
    else:
        a[0, :] = 0.0
        a[-1, :] = 0.0
        a[:, 0] = 0.0
        a[:, -1] = 0.0


def discrete_laplacian(a: np.ndarray, h: float) -> np.ndarray:
    """Second-order centered Laplacian with homogeneous Dirichlet boundary."""
    out = np.zeros_like(a)
    if a.ndim == 1:
        out[1:-1] = (a[:-2] - 2.0 * a[1:-1] + a[2:]) / (h * h)
    else:
        out[1:-1, 1:-1] = (
            a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]
            - 4.0 * a[1:-1, 1:-1]
        ) / (h * h)
    return out


def _nonlinearity(state: EuclidState, params: SystemParams):
    """beta1 |v|^p and beta2 |u|^q, non-finite where they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        nu = params.beta1 * np.abs(state.v) ** params.p
        nv = params.beta2 * np.abs(state.u) ** params.q
    return nu, nv


def _all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a.view(float))) for a in arrays)


def solve_banded(rhs: np.ndarray, r: float, state: Optional[EuclidState] = None) -> np.ndarray:
    """Solve (I - r/2 * T) x = rhs on the interior, T = tridiag(1, -2, 1).

    rhs has shape (m,) or (m, k) with m interior nodes; solves along axis 0
    with LAPACK's tridiagonal LU, the routine scipy's ``solve_banded`` calls
    for one band each side, without building its band matrix.  A singular
    system raises IntegrationError carrying ``state``.
    """
    m = rhs.shape[0]
    off = np.full(m - 1, -0.5 * r, dtype=complex)
    x, info = zgtsv(off, np.full(m, 1.0 + r, dtype=complex), off, rhs)[3:]
    if info != 0:
        raise IntegrationError(f"tridiagonal solve failed (info {info})", last_node=state)
    return x


def _imex_step_1d(state, params, dt, h, nu, nv):
    d1 = -params.alpha1.real
    d2 = -params.alpha2.real

    def advance(a, d, force):
        r = dt * d / (h * h)
        interior = a[1:-1]
        # Crank-Nicolson diffusion, explicit forcing
        lap = a[:-2] - 2.0 * interior + a[2:]
        rhs = interior + 0.5 * r * lap + dt * force[1:-1]
        out = np.zeros_like(a)
        out[1:-1] = solve_banded(rhs, r, state)
        return out

    return EuclidState(
        u=advance(state.u, d1, nu),
        v=advance(state.v, d2, nv),
        t=state.t + dt,
    )


def _imex_step_2d(state, params, dt, h, nu, nv):
    # Peaceman-Rachford ADI with the nonlinearity split over the half steps
    d1 = -params.alpha1.real
    d2 = -params.alpha2.real

    def along_x(a):
        return a[:-2, 1:-1] - 2.0 * a[1:-1, 1:-1] + a[2:, 1:-1]

    def along_y(a):
        return a[1:-1, :-2] - 2.0 * a[1:-1, 1:-1] + a[1:-1, 2:]

    def advance(a, d, force):
        r = dt * d / (h * h)
        f = force[1:-1, 1:-1]
        # x-implicit half step
        rhs = a[1:-1, 1:-1] + 0.5 * r * along_y(a) + 0.5 * dt * f
        half = np.zeros_like(a)
        half[1:-1, 1:-1] = solve_banded(rhs, r, state)
        # y-implicit half step (solve along axis 1 via transpose)
        rhs2 = half[1:-1, 1:-1] + 0.5 * r * along_x(half) + 0.5 * dt * f
        out = np.zeros_like(a)
        out[1:-1, 1:-1] = solve_banded(rhs2.T, r, state).T
        return out

    return EuclidState(
        u=advance(state.u, d1, nu),
        v=advance(state.v, d2, nv),
        t=state.t + dt,
    )


def _rhs(state, params, h, nonlinearity=None):
    """Discrete right-hand side -alpha Lap_h + beta |.|^p of both components,
    zero on the boundary."""
    nu, nv = nonlinearity or _nonlinearity(state, params)
    du = -params.alpha1.real * discrete_laplacian(state.u, h) + nu
    dv = -params.alpha2.real * discrete_laplacian(state.v, h) + nv
    _zero_boundary(du)
    _zero_boundary(dv)
    return du, dv


def _explicit_step(state, params, dt, h, nonlinearity):
    # Heun's method on the full right-hand side
    du1, dv1 = _rhs(state, params, h, nonlinearity)
    mid = EuclidState(u=state.u + dt * du1, v=state.v + dt * dv1, t=state.t)
    du2, dv2 = _rhs(mid, params, h)
    return EuclidState(
        u=state.u + 0.5 * dt * (du1 + du2),
        v=state.v + 0.5 * dt * (dv1 + dv2),
        t=state.t + dt,
    )


def cfl_limit(spec: EuclidRunSpec) -> float:
    dmax = max(-spec.params.alpha1.real, -spec.params.alpha2.real)
    return spec.grid.h ** 2 / (2.0 * spec.params.n * dmax)


def euclid_step(state: EuclidState, spec: EuclidRunSpec, dt: float,
                nonlinearity=None) -> EuclidState:
    """One IMEX (default) or explicit step; raises on field overflow.
    ``nonlinearity``: ``_nonlinearity(state, spec.params)``, if at hand."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    h = spec.grid.h
    nonlinearity = nonlinearity or _nonlinearity(state, spec.params)
    if spec.scheme == "explicit":
        if dt > cfl_limit(spec) * (1 + 1e-12):
            raise ValidationError(
                f"explicit step dt={dt} exceeds the diffusion limit {cfl_limit(spec)}"
            )
        new = _explicit_step(state, spec.params, dt, h, nonlinearity)
    else:
        if not _all_finite(*nonlinearity):
            raise IntegrationError(f"nonlinearity overflow at t={state.t}", last_node=state)
        imex = _imex_step_1d if spec.params.n == 1 else _imex_step_2d
        new = imex(state, spec.params, dt, h, *nonlinearity)
    if not _all_finite(new.u, new.v):
        raise IntegrationError(f"field overflow at t={state.t}", last_node=state)
    return new


def _weight_values(spec: EuclidRunSpec, tf: TestFunctionData) -> np.ndarray:
    grid = spec.grid
    if spec.R > grid.half_width:
        raise ValidationError("weight support B(R) must lie inside the box")
    return tf.phi(grid.radii() / spec.R)


def weighted_functionals(
    state: EuclidState, spec: EuclidRunSpec, tf: TestFunctionData, weight=None
) -> tuple[float, float]:
    """Grid quadrature of Re(conj(beta) field) * phi(x/R) (``weight``, if
    at hand)."""
    w = _weight_values(spec, tf) if weight is None else weight
    vol = spec.grid.cell_volume
    U = float(np.sum((np.conj(spec.params.beta1) * state.u).real * w) * vol)
    V = float(np.sum((np.conj(spec.params.beta2) * state.v).real * w) * vol)
    return U, V


def functional_derivatives(
    state: EuclidState, spec: EuclidRunSpec, tf: TestFunctionData,
    weight=None, nonlinearity=None,
) -> tuple[float, float]:
    """d/dt of the weighted functionals from the discrete right-hand side
    (``weight`` and ``nonlinearity`` as in weighted_functionals, euclid_step)."""
    w = _weight_values(spec, tf) if weight is None else weight
    vol = spec.grid.cell_volume
    du, dv = _rhs(state, spec.params, spec.grid.h, nonlinearity)
    dU = float(np.sum((np.conj(spec.params.beta1) * du).real * w) * vol)
    dV = float(np.sum((np.conj(spec.params.beta2) * dv).real * w) * vol)
    return dU, dV


def run_euclid(
    spec: EuclidRunSpec,
    tf: TestFunctionData,
    t_end: float,
    dt_max: float,
    functional_threshold: Optional[float] = 1e5,
    field_threshold: float = 1e7,
    dt_safety: float = 0.05,
    state: Optional[EuclidState] = None,
) -> Run:
    """Advance until t_end, until U or V crosses functional_threshold, or
    until max |field| crosses field_threshold (status blow_up...).

    The weight is evaluated once per run, and the nonlinearity once per
    node: the step from a node reuses the one its observation computed.
    """
    if state is None:
        state = make_initial_state(spec, tf)
    weight = _weight_values(spec, tf)
    held = None  # (node, its nonlinearity) until the step from that node

    def observe(s):
        nonlocal held
        held = (s, _nonlinearity(s, spec.params))
        return (*weighted_functionals(s, spec, tf, weight),
                *functional_derivatives(s, spec, tf, weight, held[1]))

    def step(s, dt):
        nonlocal held
        nonlinearity = held[1] if held is not None and held[0] is s else None
        held = None
        return euclid_step(s, spec, dt, nonlinearity)

    return march(
        spec.params, state, t_end, dt_max, dt_safety, step, observe,
        field_threshold, functional_threshold,
        dt_cap=0.9 * cfl_limit(spec) if spec.scheme == "explicit" else math.inf,
    )


def check_weighted_growth_inequality(
    series: FunctionalSeries, spec: EuclidRunSpec, tf: TestFunctionData
) -> OdiReport:
    """Verify U' + |alpha1| lambda_eff R^-2 U >= R^(-n(p-1)) ||phi||^(1-p)
    |b1|^2 |b2|^-p V^p (and symmetrically) wherever U, V >= 0."""
    params = spec.params
    n, p, q = params.n, params.p, params.q
    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    R = spec.R
    phi_l1 = tf.l1_norm
    coef_u = R ** (-n * (p - 1.0)) * phi_l1 ** (-(p - 1.0)) * ab1 ** 2 * ab2 ** (-p)
    coef_v = R ** (-n * (q - 1.0)) * phi_l1 ** (-(q - 1.0)) * ab2 ** 2 * ab1 ** (-q)
    damp_u = -params.alpha1.real * tf.lambda_eff / (R * R)
    damp_v = -params.alpha2.real * tf.lambda_eff / (R * R)
    return check_growth_pair(
        series, coef_u, p, coef_v, q,
        damping_u=damp_u, damping_v=damp_v, rel_tol=1e-6,
    )


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
    ``lam_override`` substitutes a different inequality constant for
    lambda_eff (used to report the single-eigenvalue variant).
    """
    if U0 <= 0 or V0 <= 0:
        raise ValidationError("U0 and V0 must be positive")
    n = params.n
    p, q = params.p, params.q
    pp, qq, D = p + 1.0, q + 1.0, p * q - 1.0
    if not (pp / D > n / 2.0):
        raise ValidationError("need (p+1)/(pq-1) > n/2")
    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    amax = max(abs(params.alpha1), abs(params.alpha2))
    lam_eff = tf.lambda_eff if lam_override is None else lam_override
    lam_tilde = amax * lam_eff
    phi_l1 = tf.l1_norm

    mu1 = (
        2.0 ** ((pp / qq) * (p * q / D))
        * (pp / qq) ** (1.0 / D)
        * lam_tilde ** (pp / D)
        * ab1 ** (1.0 - 1.0 / D)
        * ab2 ** (-p / D)
        * phi_l1
    )
    R1 = (mu1 / U0) ** (D / (2.0 * pp - n * D))

    p_equals_q = p == q
    if p_equals_q:
        R2 = 0.0
    else:
        mu2 = (
            (qq / pp) ** (1.0 / qq)
            * ab1 ** (1.0 + 1.0 / qq)
            * ab2 ** (-(2.0 + p) / qq)
            * phi_l1 ** (-(p - q) / qq)
        )
        R2 = (mu2 * V0 ** (pp / qq) / U0) ** (qq / (n * (p - q)))
    R0 = max(R1, R2)

    C1 = (
        (qq / pp) ** (D / (pp * qq))
        * (ab1 ** (2.0 + q) / ab2 ** (2.0 + p)) ** (D / (pp * qq))
        * phi_l1 ** (-D * (p - q) / (pp * qq))
    )
    C2 = (
        2.0 ** (-p * q / qq)
        * (qq / pp) ** (q / qq)
        * ab1 ** (q / qq)
        * ab2 ** ((2.0 - p * q) / qq)
        * phi_l1 ** (-D / qq)
    )
    sigma = 1.0 / (pp / D - n / 2.0)
    k3 = 1.0 / (1.0 - 0.5 * n * D / pp)
    C3 = (
        2.0 ** ((p * q / qq) * k3)
        * (qq / D)
        * (pp / qq) ** (k3 / pp)
        * amax ** (0.5 * n * sigma)
        * ab1 ** (-2.0 * (2.0 - p * q) / (2.0 * pp - n * D))
        * ab2 ** (-2.0 * p / (2.0 * pp - n * D))
    )

    return ThresholdConstants(
        R0=R0, R1=R1, R2=R2, C1=C1, C2=C2, C3=C3,
        omega=pp * lam_tilde / (R * R),
        lam_tilde=lam_tilde,
        lambda_eff=lam_eff,
        p_equals_q=p_equals_q,
        radius=R,
        r_exceeds_r0=R > R0,
    )


def coupling_spec(
    spec: EuclidRunSpec, tf: TestFunctionData, U0: float, V0: float,
    lam_override: Optional[float] = None,
) -> CoupledODESpec:
    """The damped comparison system the weighted functionals obey."""
    params = spec.params
    n, p, q = params.n, params.p, params.q
    pp, qq = p + 1.0, q + 1.0
    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    amax = max(abs(params.alpha1), abs(params.alpha2))
    lam_eff = tf.lambda_eff if lam_override is None else lam_override
    R = spec.R
    phi_l1 = tf.l1_norm
    C_p = phi_l1 ** (1.0 - p) * ab1 ** 2 * ab2 ** (-p) * R ** (-n * (p - 1.0)) / pp
    C_q = phi_l1 ** (1.0 - q) * ab2 ** 2 * ab1 ** (-q) * R ** (-n * (q - 1.0)) / qq
    omega = pp * amax * lam_eff / (R * R)
    return CoupledODESpec(p=p, q=q, C_p=C_p, C_q=C_q, omega=omega, f0=U0, g0=V0)


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
    lambda_psi_variant: Optional[dict] = None

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
        if self.lambda_psi_variant is not None:
            out["lambda_psi_variant"] = self.lambda_psi_variant
        return out


def _amplitude_scaling_bound(
    params: SystemParams, tc: ThresholdConstants, phi_l1: float,
    U0: float, lam_eff: float,
) -> tuple[float, float]:
    n, p, q = params.n, params.p, params.q
    pp, D = p + 1.0, p * q - 1.0
    theta = 2.0 - n * D / pp
    sigma = 1.0 / (pp / D - n / 2.0)
    lo = max(tc.R0 / tc.R1, 1.0) + 1e-9
    x_min, m_min = _minimize_radius_factor(theta, lo)
    T1 = (
        tc.C3
        * lam_eff ** (0.5 * n * sigma)
        * phi_l1 ** sigma
        * U0 ** (-sigma)
        * m_min
    )
    return T1, x_min


def blowup_bounds(
    spec: EuclidRunSpec, tf: TestFunctionData, U0: float, V0: float
) -> EuclidBounds:
    """Bounds for the weighted functionals at the run radius R.

    Requires R > R0; the lower-bound curve and lifespan come from the damped
    comparison system, T1 from optimizing the radius.  Values computed with
    lambda_eff = 2 * lam; the single-eigenvalue variant is reported alongside.
    """
    if U0 <= 0.0 or V0 <= 0.0:
        raise ValidationError("U0 and V0 must be positive")
    tc = evaluate_thresholds(spec.params, tf, U0, V0, spec.R)
    T1, x_min = _amplitude_scaling_bound(spec.params, tc, tf.l1_norm, U0, tf.lambda_eff)

    tc_psi = evaluate_thresholds(spec.params, tf, U0, V0, spec.R,
                                 lam_override=tf.lam)
    T1_psi, _ = _amplitude_scaling_bound(spec.params, tc_psi, tf.l1_norm, U0, tf.lam)
    ode_psi = coupling_spec(spec, tf, U0, V0, lam_override=tf.lam)
    psi_report = damped_bounds(ode_psi)
    psi_variant = {
        "lambda": tf.lam,
        "omega": ode_psi.omega,
        "T1": T1_psi,
        "lifespan_bound": psi_report.lifespan_bound,
        "hypothesis_satisfied": psi_report.hypothesis_satisfied,
    }

    if not tc.r_exceeds_r0:
        return EuclidBounds(
            report=BoundReport(False, omega=tc.omega,
                               exponent_caveat=spec.params.exponent_caveat),
            thresholds=tc, T1=T1, minimizer=x_min,
            lambda_psi_variant=psi_variant,
        )
    ode = coupling_spec(spec, tf, U0, V0)
    report = damped_bounds(ode)
    return EuclidBounds(
        report=report, thresholds=tc, T1=T1, minimizer=x_min,
        lambda_psi_variant=psi_variant,
    )
