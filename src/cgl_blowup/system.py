"""Shared PDE-side types: system coefficients, functional time series,
growth-inequality reports and the run record, plus the adaptive marching loop
both PDE backends drive."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .errors import IntegrationError, ValidationError
from .ode_core import BLOWUP, COMPLETED, STEP_COLLAPSE

__all__ = ["SystemParams", "FunctionalSeries", "OdiReport", "jensen_coefficients",
           "Run", "march"]


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


def jensen_coefficients(params: SystemParams, scale: float,
                        l1_norm: float = 1.0) -> tuple[float, float]:
    """((p+1) C_p, (q+1) C_q), Jensen's coefficients for means weighted by a
    weight of mass M = scale^n * l1_norm: (p+1) C_p = |b1|^2 |b2|^-p M^(1-p),
    and (q+1) C_q likewise with (b1, p) and (b2, q) swapped."""

    def coefficient(b_own, b_other, r):
        return (b_own ** 2 * b_other ** (-r) * scale ** (-params.n * (r - 1.0))
                * l1_norm ** (1.0 - r))

    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    return coefficient(ab1, ab2, params.p), coefficient(ab2, ab1, params.q)


def check_growth_pair(
    series: FunctionalSeries,
    params: SystemParams,
    scale: float,
    l1_norm: float = 1.0,
    damping_u: float = 0.0,
    damping_v: float = 0.0,
    rel_tol: float = 1e-8,
) -> OdiReport:
    """Verify dU + damping_u*U + tol >= coef_u * V^p (and symmetrically
    for V against U^q) at every node with U, V >= 0, with the coefficients
    ``jensen_coefficients(params, scale, l1_norm)``."""
    coef_u, coef_v = jensen_coefficients(params, scale, l1_norm)
    p, q = params.p, params.q
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
        rhs_u = coef_u * v ** p
        if lhs_u + rel_tol * (1.0 + abs(series.dU[i])) < rhs_u:
            violations.append((i, t, "U", lhs_u, rhs_u))
        lhs_v = series.dV[i] + damping_v * v
        rhs_v = coef_v * u ** q
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

    ``state.fields`` is the stacked pair (2, *grid) of one run, or a batch
    of k such pairs stacked on a leading axis, whose times ``state.t`` are
    then an array of k floats.  A single run is a batch of one.  Each rung
    has its own dt, from its own max |u| and max |v|, and its own status:
    it leaves the batch when it stops (at t_end, at a threshold or on step
    collapse), and the others march on in lockstep.  ``step`` gets a float
    dt for a single state and an array of per-rung dts for a batch, and
    ``observe(state)`` gives (U, V, U', V') at every node, each a float, or
    a sequence of per-rung floats for a batch.  dt shrinks with the
    nonlinear growth rate near blow-up and never exceeds ``dt_cap``.

    Returns the :class:`Run`, or for a batch a list of one per rung, each
    with its own final state.  A step rate past the float range raises
    IntegrationError carrying that rung's last node; one that ``step``
    raises propagates as it is (for a batch, carrying the batch).
    """
    if not _positive(t_end - float(np.max(state.t))):
        raise ValidationError("t_end must be finite and exceed the state time")
    if not (_positive(dt_max) and _positive(dt_safety)):
        raise ValidationError("dt_max and the step safety must be finite and positive")
    if not (_positive(field_threshold, finite=False) and (
            functional_threshold is None
            or _positive(functional_threshold, finite=False))):
        raise ValidationError("field and functional thresholds must be positive")
    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    p, q = params.p, params.q
    single = np.ndim(state.t) == 0
    live = list(range(1 if single else len(state.t)))  # rungs in the batch, in order
    rows = [array("d") for _ in live]  # each rung's (t, U, V, U', V') nodes, flat
    ends = [None] * len(live)  # each rung's (final state, status)

    def rung(s, pos):
        return s if single else replace(s, fields=s.fields[pos], t=float(s.t[pos]))

    def observed(s):
        """Record the node of each rung of ``s``; return each rung's
        [max |u|, max |v|], both maxima in one reduction."""
        values = observe(s)
        if single:
            rows[0].extend((s.t, *values))
        else:
            for i, row in zip(live, zip(s.t, *values)):
                rows[i].extend(row)
        return np.abs(s.fields).reshape(len(live), 2, -1).max(axis=-1).tolist()

    def leave(s, amax, stops):
        """Close the rungs at the batch positions of ``stops`` with their
        statuses; return the batch of the others and their maxima."""
        for pos, status in stops.items():
            ends[live[pos]] = (rung(s, pos), status)
        keep = [pos for pos in range(len(live)) if pos not in stops]
        live[:] = [live[pos] for pos in keep]
        if keep and not single:
            s = replace(s, fields=s.fields[keep], t=s.t[keep])
        return s, [amax[pos] for pos in keep]

    amax = observed(state)
    while live:
        dts, stops = [], {}
        for pos, (t, (au, av)) in enumerate(zip([state.t] if single else state.t.tolist(),
                                                amax)):
            if not t < t_end * (1.0 - 1e-12):
                stops[pos] = COMPLETED
                continue
            try:
                rate = max(
                    ab1 * max(av, 1e-30) ** p / max(au, 1e-30),
                    ab2 * max(au, 1e-30) ** q / max(av, 1e-30),
                )
            except OverflowError:  # max|field|^p beyond the float range
                raise IntegrationError(
                    f"step rate overflow at t={t}", last_node=rung(state, pos)) from None
            dt = min(dt_max, dt_safety / rate) if rate > 0 else dt_max
            dt = min(dt, dt_cap, t_end - t)
            if dt < 1e-14 * max(t, 1e-3 * t_end):
                stops[pos] = STEP_COLLAPSE
            else:
                dts.append(dt)
        if stops:
            state, amax = leave(state, amax, stops)
            if not live:
                break
        state = step(state, dts[0] if single else np.array(dts))
        amax = observed(state)
        stops = {pos: BLOWUP for pos, (i, m) in enumerate(zip(live, amax))
                 if max(m) >= field_threshold or (
                     functional_threshold is not None  # max(U, V) below
                     and max(rows[i][-4], rows[i][-3]) >= functional_threshold)}
        if stops:
            state, amax = leave(state, amax, stops)
    runs = [Run(FunctionalSeries(*np.frombuffer(r).reshape(-1, 5).T), *end)
            for r, end in zip(rows, ends)]
    return runs[0] if single else runs
