"""Shared PDE-side types: system coefficients, functional time series,
growth-inequality reports and the run record, plus the adaptive marching loop
both PDE backends drive."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import IntegrationError, ValidationError
from .ode_core import BLOWUP, COMPLETED, STEP_COLLAPSE

__all__ = ["SystemParams", "FunctionalSeries", "OdiReport", "Run", "march"]


@dataclass(frozen=True)
class SystemParams:
    """Coefficients of d_t u + alpha1 Lap u = beta1 |v|^p,
    d_t v + alpha2 Lap v = beta2 |u|^q on an n-dimensional domain."""

    n: int
    p: float
    q: float
    alpha1: complex
    alpha2: complex
    beta1: complex
    beta2: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha1", complex(self.alpha1))
        object.__setattr__(self, "alpha2", complex(self.alpha2))
        object.__setattr__(self, "beta1", complex(self.beta1))
        object.__setattr__(self, "beta2", complex(self.beta2))
        if self.n < 1:
            raise ValidationError("dimension must be at least 1")
        if not (self.p > 0 and self.q > 0 and self.p * self.q > 1.0):
            raise ValidationError("need p, q > 0 with p*q > 1")
        if not (self.p >= self.q):
            raise ValidationError("convention p >= q (swap the components)")
        if self.beta1 == 0 or self.beta2 == 0:
            raise ValidationError("beta coefficients must be non-zero")
        if self.alpha1 == 0 or self.alpha2 == 0:
            raise ValidationError("alpha coefficients must be non-zero")

    @property
    def exponent_caveat(self) -> bool:
        """q < 1 leaves the verified regime of the growth inequality."""
        return self.q < 1.0

    @property
    def rates(self) -> tuple[float, float]:
        """The blow-up rate exponents (p+1)/(pq-1) of U and (q+1)/(pq-1) of V."""
        D = self.p * self.q - 1.0
        return (self.p + 1.0) / D, (self.q + 1.0) / D


@dataclass(frozen=True)
class FunctionalSeries:
    """Time series of the two weighted means U, V and their derivatives
    evaluated from the (discrete) right-hand side, not by differencing."""

    times: np.ndarray
    U: np.ndarray
    V: np.ndarray
    dU: np.ndarray
    dV: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("times", "U", "V", "dU", "dV"):
            arrays[name] = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arrays[name])
        n = arrays["times"].size
        if any(a.shape != (n,) for a in arrays.values()):
            raise ValidationError("series columns must share a length")
        if n and np.any(np.diff(arrays["times"]) <= 0):
            raise ValidationError("times must be strictly increasing")

    def to_csv(self, path) -> None:
        from .serialize import write_csv

        write_csv(
            path, "t,U,V,dUdt,dVdt",
            [self.times, self.U, self.V, self.dU, self.dV],
        )


@dataclass(frozen=True)
class OdiReport:
    """Node-by-node outcome of a growth-inequality check.

    Nodes where the positivity hypothesis fails are not checked and listed
    in ``unchecked``; genuine inequality failures land in ``violations`` as
    (index, time, component, lhs, rhs) tuples.
    """

    n_nodes: int
    n_checked: int
    violations: tuple
    unchecked: tuple

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0

    def to_json_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "n_checked": self.n_checked,
            "n_violations": len(self.violations),
            "violations": [
                {
                    "index": int(i),
                    "time": float(t),
                    "component": c,
                    "lhs": float(lhs),
                    "rhs": float(rhs),
                }
                for (i, t, c, lhs, rhs) in self.violations
            ],
            "unchecked_indices": [int(i) for i in self.unchecked],
        }


def check_growth_pair(
    series: FunctionalSeries,
    coef_u: float,
    exp_u: float,
    coef_v: float,
    exp_v: float,
    damping_u: float = 0.0,
    damping_v: float = 0.0,
    rel_tol: float = 1e-8,
) -> OdiReport:
    """Verify dU + damping_u*U + tol >= coef_u * V^exp_u (and symmetrically
    for V against U) at every node with U, V >= 0."""
    violations = []
    unchecked = []
    n = series.times.size
    checked = 0
    for i in range(n):
        u, v = series.U[i], series.V[i]
        if u < 0.0 or v < 0.0:
            unchecked.append(i)
            continue
        checked += 1
        t = series.times[i]
        lhs_u = series.dU[i] + damping_u * u
        rhs_u = coef_u * v ** exp_u
        if lhs_u + rel_tol * (1.0 + abs(series.dU[i])) < rhs_u:
            violations.append((i, t, "U", lhs_u, rhs_u))
        lhs_v = series.dV[i] + damping_v * v
        rhs_v = coef_v * u ** exp_v
        if lhs_v + rel_tol * (1.0 + abs(series.dV[i])) < rhs_v:
            violations.append((i, t, "V", lhs_v, rhs_v))
    return OdiReport(
        n_nodes=n,
        n_checked=checked,
        violations=tuple(violations),
        unchecked=tuple(unchecked),
    )


@dataclass(frozen=True)
class Run:
    """A marched run: the functional series, the final state and the status."""

    series: FunctionalSeries
    final_state: object
    status: str

    def escape_time(self):
        return float(self.series.times[-1]) if self.status == BLOWUP else None


def _positive(value, finite: bool = True) -> bool:
    return (isinstance(value, Real) and value > 0
            and (math.isfinite(value) or not finite))


def march(params, state, t_end, dt_max, dt_safety, step, observe,
          field_threshold, functional_threshold=None, dt_cap=math.inf):
    """Advance ``state`` with ``step(state, dt)`` until t_end, until max
    |field| crosses field_threshold, or until U or V crosses
    functional_threshold (status blow_up...).

    dt shrinks with the nonlinear growth rate near blow-up and never exceeds
    ``dt_cap``; ``observe(state)`` gives (U, V, U', V') at every node.
    Returns the :class:`Run`.
    """
    if not _positive(t_end - state.t):
        raise ValidationError("t_end must be finite and exceed the state time")
    if not (_positive(dt_max) and _positive(dt_safety)):
        raise ValidationError("dt_max and the step safety must be finite and positive")
    if not (_positive(field_threshold, finite=False) and (
            functional_threshold is None
            or _positive(functional_threshold, finite=False))):
        raise ValidationError("field and functional thresholds must be positive")
    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    p, q = params.p, params.q

    def amplitudes(s):
        return float(np.abs(s.u).max()), float(np.abs(s.v).max())

    rows = [(state.t, *observe(state))]
    au, av = amplitudes(state)
    status = COMPLETED
    while state.t < t_end * (1.0 - 1e-12):
        try:
            rate = max(
                ab1 * max(av, 1e-30) ** p / max(au, 1e-30),
                ab2 * max(au, 1e-30) ** q / max(av, 1e-30),
            )
        except OverflowError:  # max|field|^p beyond the float range
            raise IntegrationError(
                f"step rate overflow at t={state.t}", last_node=state) from None
        dt = min(dt_max, dt_safety / rate) if rate > 0 else dt_max
        dt = min(dt, dt_cap, t_end - state.t)
        if dt < 1e-14 * max(state.t, 1e-3 * t_end):
            status = STEP_COLLAPSE
            break
        state = step(state, dt)
        rows.append((state.t, *observe(state)))
        au, av = amplitudes(state)
        if max(au, av) >= field_threshold or (
            functional_threshold is not None
            and max(rows[-1][1:3]) >= functional_threshold  # max(U, V)
        ):
            status = BLOWUP
            break
    return Run(FunctionalSeries(*np.array(rows).T), state, status)
