"""Blow-up ODE machinery for weakly coupled two-component systems.

The systems integrated here have the form

    f' + (omega/(q+1)) f = (p+1) C_p g^p,
    g' + (omega/(p+1)) g = (q+1) C_q f^q,

with exponents p*q > 1 and positive data, so every certified solution leaves
any compact set in finite time.  The module provides the closed-form single
blow-up solution, an embedded adaptive Runge-Kutta 5(4) integrator with PI
step control that terminates cleanly at a blow-up threshold, the exact
conserved quantity C_q f^{q+1} - C_p g^{p+1} (damped version decays like
e^{-omega t}), explicit lower-bound curves and lifespan bounds, and an
empirical comparison check for ordered trajectory pairs.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationError, ValidationError

__all__ = [
    "SingleODESpec",
    "CoupledODESpec",
    "Trajectory",
    "BoundReport",
    "ComparisonVerdict",
    "single_blowup_solution",
    "single_blowup_time",
    "integrate_coupled",
    "integrate_lockstep",
    "tail_corrected_lifespan",
    "conserved_residual",
    "conserved_residual_scaled",
    "undamped_bounds",
    "damped_bounds",
    "check_comparison",
    "mirrored_spec",
]

COMPLETED = "completed"
BLOWUP = "blow_up_threshold_reached"
STEP_COLLAPSE = "step_size_collapse"


# ---------------------------------------------------------------------------
# specs

@dataclass(frozen=True)
class SingleODESpec:
    """Data for f' = mu * f^rho, f(0) = f0 with rho > 1, mu > 0, f0 > 0."""

    rho: float
    mu: float
    f0: float

    def __post_init__(self):
        if not (self.rho > 1.0):
            raise ValidationError(f"rho must exceed 1, got {self.rho}")
        if not (self.mu > 0.0):
            raise ValidationError(f"mu must be positive, got {self.mu}")
        if not (self.f0 > 0.0):
            raise ValidationError(f"f0 must be positive, got {self.f0}")


def single_blowup_time(spec: SingleODESpec) -> float:
    """Blow-up time f0^(1-rho) / ((rho-1) mu) of the closed-form solution."""
    return spec.f0 ** (1.0 - spec.rho) / ((spec.rho - 1.0) * spec.mu)


def single_blowup_solution(spec: SingleODESpec, t: float) -> float:
    """Evaluate {f0^(1-rho) - (rho-1) mu t}^(-1/(rho-1)) for 0 <= t < T_f."""
    t_f = single_blowup_time(spec)
    if t < 0.0 or t >= t_f:
        raise DomainError(
            f"t={t} outside [0, T_f) with T_f={t_f}", blow_up_time=t_f
        )
    base = spec.f0 ** (1.0 - spec.rho) - (spec.rho - 1.0) * spec.mu * t
    return base ** (-1.0 / (spec.rho - 1.0))


@dataclass(frozen=True)
class CoupledODESpec:
    """Coefficients and data of the coupled system; omega = 0 is undamped."""

    p: float
    q: float
    C_p: float
    C_q: float
    omega: float
    f0: float
    g0: float

    def __post_init__(self):
        if not (self.p > 0.0 and self.q > 0.0):
            raise ValidationError("exponents p, q must be positive")
        if not (self.p * self.q > 1.0):
            raise ValidationError(
                f"need p*q > 1 (bound formulas have pq-1 denominators), "
                f"got pq={self.p * self.q}"
            )
        if not (self.C_p > 0.0 and self.C_q > 0.0):
            raise ValidationError("C_p and C_q must be positive")
        if not (self.omega >= 0.0):
            raise ValidationError("omega must be non-negative")
        if not (self.f0 > 0.0 and self.g0 > 0.0):
            raise ValidationError("initial data must be positive")

    @property
    def exponent_caveat(self) -> bool:
        """True when p < 1 or q < 1 (outside the fully verified regime)."""
        return self.p < 1.0 or self.q < 1.0


def mirrored_spec(spec: CoupledODESpec) -> CoupledODESpec:
    """Swap the roles of the two components."""
    return CoupledODESpec(
        p=spec.q, q=spec.p, C_p=spec.C_q, C_q=spec.C_p,
        omega=spec.omega, f0=spec.g0, g0=spec.f0,
    )


# ---------------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class Trajectory:
    """Time-sampled (f, g) path with a termination status."""

    times: np.ndarray
    values: np.ndarray  # shape (n, 2), columns f and g
    status: str
    threshold: Optional[float] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or v.shape != (t.size, 2):
            raise ValidationError("times must be 1-d and values (n, 2)")
        if not (np.isfinite(t).all() and (np.diff(t) > 0.0).all()):
            raise ValidationError("times must be finite and strictly increasing")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValidationError("values must be finite and non-negative")
        if self.status not in (COMPLETED, BLOWUP, STEP_COLLAPSE):
            raise ValidationError(f"unknown status {self.status!r}")
        if self.status == BLOWUP:
            if self.threshold is None or v[-1].max() < self.threshold * (1 - 1e-12):
                raise ValidationError(
                    "blow_up_threshold_reached requires final max(f,g) >= threshold"
                )

    @property
    def f(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def g(self) -> np.ndarray:
        return self.values[:, 1]

    def escape_time(self) -> Optional[float]:
        """Threshold-crossing time, or None if the run never crossed."""
        return float(self.times[-1]) if self.status == BLOWUP else None

    def to_csv(self, path) -> None:
        from .serialize import write_csv

        write_csv(path, "t,f,g", [self.times, self.f, self.g])


def _rhs(spec: CoupledODESpec, f: float, g: float) -> tuple[float, float]:
    df = (spec.p + 1.0) * spec.C_p * g ** spec.p - spec.omega / (spec.q + 1.0) * f
    dg = (spec.q + 1.0) * spec.C_q * f ** spec.q - spec.omega / (spec.p + 1.0) * g
    return df, dg


def _hermite(theta, h, w0, d0, w1, d1):
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2 * t3 - 3 * t2 + 1) * w0
        + (t3 - 2 * t2 + theta) * h * d0
        + (-2 * t3 + 3 * t2) * w1
        + (t3 - t2) * h * d1
    )


def _start(spec: CoupledODESpec, t_end: float, tol: float,
           blowup_threshold: float) -> tuple:
    """Validate one run and return its constants, its initial state and
    derivative, and its first step: p, q, (p+1) C_p, (q+1) C_q,
    omega/(q+1), omega/(p+1), f0, g0, k1f, k1g, h."""
    if not (0.0 < tol <= 1e-3):
        raise ValidationError(f"tol must lie in (0, 1e-3], got {tol}")
    if not (blowup_threshold > max(spec.f0, spec.g0)):
        raise ValidationError("blowup_threshold must exceed max(f0, g0)")
    if not (t_end > 0.0):
        raise ValidationError("t_end must be positive")

    p, q = spec.p, spec.q
    f, g = spec.f0, spec.g0
    # k1f, k1g hold the derivative at (t, f, g) (first same as last)
    k1f, k1g = _rhs(spec, f, g)

    # initial step from the local solution scale
    scale = min(abs(f) / max(abs(k1f), 1e-300), abs(g) / max(abs(k1g), 1e-300))
    h = min(1e-2 * scale, t_end) if scale > 0 else t_end * 1e-6
    h = max(h, 1e-300)

    # the step-collapse floor is 1e-14 * max(t, t_floor) with t_floor = 1e-3 t_end
    if h < 1e-14 * (1e-3 * t_end):
        raise ValidationError(
            f"t_end={t_end:g} is too long for the run's initial time scale "
            f"{scale:g}: the first step {h:g} is already below the "
            f"step-collapse floor 1e-17 * t_end"
        )
    return (p, q, (p + 1.0) * spec.C_p, (q + 1.0) * spec.C_q,
            spec.omega / (q + 1.0), spec.omega / (p + 1.0), f, g, k1f, k1g, h)


def _crossing(threshold, t, h, w0, d0, w1, d1):
    """The node (t, f, g) where max(f, g) first reaches ``threshold`` inside
    an accepted step of length ``h`` from ``t``, on the cubic Hermite model
    of each component that reaches it; ``w0, d0, w1, d1`` are the (f, g)
    pairs of the values and slopes at the step's two ends."""
    theta = 1.0
    for c0, s0, c1, s1 in zip(w0, d0, w1, d1):
        if c1 < threshold:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _hermite(mid, h, c0, s0, c1, s1) >= threshold:
                hi = mid
            else:
                lo = mid
        theta = min(theta, hi)
    # theta * h below half an ulp of t would repeat the last time
    return (max(t + theta * h, math.nextafter(t, math.inf)),
            *(_hermite(theta, h, *c) for c in zip(w0, d0, w1, d1)))


def _trajectory(times, values, status, blowup_threshold, last_node) -> Trajectory:
    """The run's record; a record that refuses the run's own nodes is the
    run's failure, raised as an IntegrationError at ``last_node``."""
    try:
        return Trajectory(times=times, values=values, status=status,
                          threshold=blowup_threshold if status == BLOWUP else None)
    except ValidationError as exc:
        raise IntegrationError(f"trajectory refused: {exc}", last_node=last_node) from None


_SAFETY = 0.9
_MIN_FAC = 0.2
_MAX_FAC = 6.0
_K_ALPHA = 0.7 / 5.0  # PI controller, proportional exponent for order 5
_K_BETA = 0.4 / 5.0   # PI controller, integral exponent
_MAX_STEPS = 2_000_000  # attempted steps before integrate_coupled gives up


def integrate_coupled(
    spec: CoupledODESpec,
    t_end: float,
    tol: float = 1e-10,
    blowup_threshold: float = 1e6,
) -> Trajectory:
    """Integrate the coupled system with an embedded Dormand-Prince 5(4) pair.

    Stops at ``t_end``, at the first crossing of ``blowup_threshold`` by
    max(f, g) (located inside the step with a cubic Hermite model), or when
    the adaptive step collapses below 1e-14 of the current time scale near
    blow-up.  The returned trajectory records every accepted step.

    The step loop is one scalar kernel: the run constants are set up before
    it, the stage right-hand sides are written out, and max/min/abs are
    conditional expressions with the builtins' tie and NaN semantics, so a
    step makes no Python-level call beyond isfinite, sqrt and the appends.
    It is the single-spec kernel and the reference that
    ``integrate_lockstep`` reproduces bit for bit.
    """
    p, q, cp_fac, cq_fac, om_f, om_g, f, g, k1f, k1g, h = _start(
        spec, t_end, tol, blowup_threshold)
    t = 0.0
    t_floor = 1e-3 * t_end
    t_stop = t_end * (1.0 - 1e-15)
    safety, min_fac, max_fac = _SAFETY, _MIN_FAC, _MAX_FAC
    neg_alpha, beta = -_K_ALPHA, _K_BETA
    isfinite, sqrt = math.isfinite, math.sqrt

    ts = [0.0]
    fs = [f]
    gs = [g]
    ts_append, fs_append, gs_append = ts.append, fs.append, gs.append
    err_prev = 1.0

    for _ in range(_MAX_STEPS):
        if t >= t_stop:
            status = COMPLETED
            break
        if h < 1e-14 * (t_floor if t_floor > t else t):
            status = STEP_COLLAPSE
            break
        last_clipped = h >= t_end - t
        if last_clipped:
            h = t_end - t

        # Dormand-Prince stages
        h5 = h * 0.2
        yf = f + h5 * k1f
        yg = g + h5 * k1g
        k2f = cp_fac * yg ** p - om_f * yf
        k2g = cq_fac * yf ** q - om_g * yg
        yf = f + h * (0.075 * k1f + 0.225 * k2f)
        yg = g + h * (0.075 * k1g + 0.225 * k2g)
        k3f = cp_fac * yg ** p - om_f * yf
        k3g = cq_fac * yf ** q - om_g * yg
        yf = f + h * (44 / 45 * k1f - 56 / 15 * k2f + 32 / 9 * k3f)
        yg = g + h * (44 / 45 * k1g - 56 / 15 * k2g + 32 / 9 * k3g)
        k4f = cp_fac * yg ** p - om_f * yf
        k4g = cq_fac * yf ** q - om_g * yg
        yf = f + h * (19372 / 6561 * k1f - 25360 / 2187 * k2f
                      + 64448 / 6561 * k3f - 212 / 729 * k4f)
        yg = g + h * (19372 / 6561 * k1g - 25360 / 2187 * k2g
                      + 64448 / 6561 * k3g - 212 / 729 * k4g)
        k5f = cp_fac * yg ** p - om_f * yf
        k5g = cq_fac * yf ** q - om_g * yg
        yf = f + h * (9017 / 3168 * k1f - 355 / 33 * k2f + 46732 / 5247 * k3f
                      + 49 / 176 * k4f - 5103 / 18656 * k5f)
        yg = g + h * (9017 / 3168 * k1g - 355 / 33 * k2g + 46732 / 5247 * k3g
                      + 49 / 176 * k4g - 5103 / 18656 * k5g)
        k6f = cp_fac * yg ** p - om_f * yf
        k6g = cq_fac * yf ** q - om_g * yg
        fn = f + h * (35 / 384 * k1f + 500 / 1113 * k3f + 125 / 192 * k4f
                      - 2187 / 6784 * k5f + 11 / 84 * k6f)
        gn = g + h * (35 / 384 * k1g + 500 / 1113 * k3g + 125 / 192 * k4g
                      - 2187 / 6784 * k5g + 11 / 84 * k6g)
        if not (isfinite(fn) and isfinite(gn)):
            raise IntegrationError(
                f"non-finite state at t={t}", last_node=(t, f, g)
            )
        k7f = cp_fac * gn ** p - om_f * fn
        k7g = cq_fac * fn ** q - om_g * gn

        ef = h * (71 / 57600 * k1f - 71 / 16695 * k3f + 71 / 1920 * k4f
                  - 17253 / 339200 * k5f + 22 / 525 * k6f - 1 / 40 * k7f)
        eg = h * (71 / 57600 * k1g - 71 / 16695 * k3g + 71 / 1920 * k4g
                  - 17253 / 339200 * k5g + 22 / 525 * k6g - 1 / 40 * k7g)
        a0 = f if f >= 0.0 else -f
        a1 = fn if fn >= 0.0 else -fn
        sc_f = tol * (a1 if a1 > a0 else a0) + 1e-300
        a0 = g if g >= 0.0 else -g
        a1 = gn if gn >= 0.0 else -gn
        sc_g = tol * (a1 if a1 > a0 else a0) + 1e-300
        err = sqrt(0.5 * ((ef / sc_f) ** 2 + (eg / sc_g) ** 2))

        if err <= 1.0:
            if fn >= blowup_threshold or gn >= blowup_threshold:
                t, f, g = _crossing(blowup_threshold, t, h, (f, g), (k1f, k1g),
                                    (fn, gn), (k7f, k7g))
                ts_append(t)
                fs_append(f)
                gs_append(g)
                status = BLOWUP
                break
            t = t + h
            f, g, k1f, k1g = fn, gn, k7f, k7g
            ts_append(t)
            fs_append(f)
            gs_append(g)
            if err == 0.0:
                fac = max_fac
            else:
                fac = safety * err ** neg_alpha * err_prev ** beta
                fac = fac if fac > min_fac else min_fac
                fac = fac if fac < max_fac else max_fac
            err_prev = 1e-10 if 1e-10 > err else err
            if not last_clipped:
                h *= fac
        else:
            fac = safety * err ** (-0.2)
            h *= fac if fac > min_fac else min_fac
    else:
        raise IntegrationError("step budget exhausted", last_node=(t, f, g))
    return _trajectory(np.array(ts), np.column_stack([fs, gs]), status,
                       blowup_threshold, (t, f, g))


def integrate_lockstep(
    specs,
    t_end: float,
    tol: float = 1e-10,
    blowup_threshold: float | Sequence[float] = 1e6,
) -> Iterator[tuple[int, Trajectory]]:
    """``integrate_coupled`` of every spec of ``specs``, marched in lockstep
    on arrays; yields ``(index, trajectory)`` as each spec finishes.

    ``blowup_threshold`` is one threshold for every spec, or a sequence of
    one per spec.  Every spec is validated, at its own threshold, before
    any step.  The live specs' states, steps, PI memories and thresholds
    sit in arrays, with row 0 for f and row 1 for g, and a finished spec
    leaves them.  The arrays run each spec's scalar arithmetic
    in the scalar kernel's order, and every power goes through
    ``np.float_power``, which calls the libm ``pow`` that Python's ``**``
    calls (``np.power`` dispatches to vectorized code that differs in the
    last bit), so each trajectory equals ``integrate_coupled``'s bit for
    bit.  Threshold crossings are located in scalars by the same code.  A
    spec whose step leaves the finite floats is handed to
    ``integrate_coupled``, which repeats its steps and returns or raises
    what the scalar kernel does there: Python's ``**`` raises OverflowError
    where ``float_power`` returns inf.  Each spec's nodes are kept in its
    own flat record and handed out when it finishes.
    """
    specs = list(specs)
    thresholds = np.broadcast_to(np.asarray(blowup_threshold, dtype=float), len(specs))
    starts = np.array([_start(spec, t_end, tol, threshold)
                       for spec, threshold in zip(specs, thresholds.tolist())])
    if not specs:
        return
    # rows: the f and the g component; columns: the live specs
    p, q, cp_fac, cq_fac, om_f, om_g, f, g, k1f, k1g, h = starts.T
    exps, facs, oms = np.array([p, q]), np.array([cp_fac, cq_fac]), np.array([om_f, om_g])
    y, k1 = np.array([f, g]), np.array([k1f, k1g])
    # each live spec's nodes (t, f, g), flat, in the order of the columns
    records = [array("d", (0.0, f0, g0)) for f0, g0 in zip(f.tolist(), g.tolist())]
    index = np.arange(len(specs))
    t = np.zeros(len(specs))
    err_prev = np.ones(len(specs))
    t_floor = 1e-3 * t_end
    t_stop = t_end * (1.0 - 1e-15)
    safety, min_fac, max_fac = _SAFETY, _MIN_FAC, _MAX_FAC
    neg_alpha, beta = -_K_ALPHA, _K_BETA
    power, maximum, minimum, where = np.float_power, np.maximum, np.minimum, np.where

    def finish(j, status):
        nodes = np.frombuffer(records[j]).reshape(-1, 3)
        return int(index[j]), _trajectory(nodes[:, 0].copy(), nodes[:, 1:].copy(), status,
                                          thresholds[j].item(), tuple(nodes[-1].tolist()))

    def drop(leaving, *arrays):
        """The records and the columns of ``arrays`` of the specs that stay."""
        stay = ~leaving
        return list(compress(records, stay.tolist())), *(a[..., stay] for a in arrays)

    # maximum and minimum stand for the scalar kernel's conditional
    # expressions: they differ only on NaN, and a NaN step leaves the batch
    with np.errstate(all="ignore"):
        for _ in range(_MAX_STEPS):
            completed = t >= t_stop
            leaving = completed | (h < 1e-14 * maximum(t, t_floor))
            if leaving.any():
                for j in np.flatnonzero(leaving).tolist():
                    yield finish(j, COMPLETED if completed[j] else STEP_COLLAPSE)
                records, t, h, y, k1, err_prev, exps, facs, oms, thresholds, index = drop(
                    leaving, t, h, y, k1, err_prev, exps, facs, oms, thresholds, index)
                if not index.size:
                    return
            last_clipped = h >= t_end - t
            h = where(last_clipped, t_end - t, h)

            # Dormand-Prince stages of integrate_coupled; a stage's power of
            # the other component is power(z[::-1], exps)
            h5 = h * 0.2
            z = y + h5 * k1
            k2 = facs * power(z[::-1], exps) - oms * z
            z = y + h * (0.075 * k1 + 0.225 * k2)
            k3 = facs * power(z[::-1], exps) - oms * z
            z = y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3)
            k4 = facs * power(z[::-1], exps) - oms * z
            z = y + h * (19372 / 6561 * k1 - 25360 / 2187 * k2
                         + 64448 / 6561 * k3 - 212 / 729 * k4)
            k5 = facs * power(z[::-1], exps) - oms * z
            z = y + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                         + 49 / 176 * k4 - 5103 / 18656 * k5)
            k6 = facs * power(z[::-1], exps) - oms * z
            yn = y + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                          - 2187 / 6784 * k5 + 11 / 84 * k6)
            k7 = facs * power(yn[::-1], exps) - oms * yn

            e = h * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                     - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7)
            e = power(e / (tol * maximum(np.abs(yn), np.abs(y)) + 1e-300), 2)
            err = np.sqrt(0.5 * (e[0] + e[1]))

            finite = np.isfinite(yn).all(axis=0) & np.isfinite(err)
            accepted = err <= 1.0
            crossed = accepted & (yn >= thresholds).any(axis=0)
            leaving = crossed | ~finite
            if leaving.any():
                for j in np.flatnonzero(leaving).tolist():
                    if finite[j]:
                        records[j].extend(_crossing(
                            thresholds[j].item(), t[j].item(), h[j].item(),
                            *(a[:, j].tolist() for a in (y, k1, yn, k7))))
                        yield finish(j, BLOWUP)
                    else:
                        i = int(index[j])
                        yield i, integrate_coupled(specs[i], t_end, tol, thresholds[j].item())
                (records, t, h, y, k1, err_prev, exps, facs, oms, thresholds, index,
                 last_clipped, yn, k7, err, accepted) = drop(
                    leaving, t, h, y, k1, err_prev, exps, facs, oms, thresholds, index,
                    last_clipped, yn, k7, err, accepted)
                if not index.size:
                    return

            # err = 0 gives fac = inf, which the clamp takes to max_fac as the
            # scalar kernel's err == 0 branch does
            fac = minimum(maximum(safety * power(err, neg_alpha) * power(err_prev, beta),
                                  min_fac), max_fac)
            t = where(accepted, t + h, t)
            y = where(accepted, yn, y)
            k1 = where(accepted, k7, k1)
            err_prev = where(accepted, maximum(err, 1e-10), err_prev)
            h = where(accepted, where(last_clipped, h, h * fac),
                      h * maximum(safety * power(err, -0.2), min_fac))
            # each accepted node (t, f, g) as one 24-byte item, appended to its record
            nodes = np.column_stack((t, *y))[accepted]
            for record, node in zip(compress(records, accepted.tolist()),
                                    nodes.view("V24")[:, 0].tolist()):
                record.frombytes(node)
    raise IntegrationError("step budget exhausted",
                           last_node=(t[0].item(), *y[:, 0].tolist()))


def tail_corrected_lifespan(traj: Trajectory, spec: CoupledODESpec) -> float:
    """Threshold-crossing time plus the closed-form tail of the dominating
    single blow-up ODE fitted at the final node.

    For w ~ A (T - t)^(-gamma) the remaining time is gamma * w / w', with
    gamma = (p+1)/(pq-1) when f dominates and (q+1)/(pq-1) when g does, so
    the reported lifespan is insensitive to the threshold to first order.
    """
    if traj.status != BLOWUP:
        raise ValidationError("tail correction needs a threshold-crossing run")
    t1 = float(traj.times[-1])
    f1, g1 = float(traj.f[-1]), float(traj.g[-1])
    df1, dg1 = _rhs(spec, f1, g1)
    if f1 >= g1:
        w, dw = f1, df1
        rho = spec.p * (spec.q + 1.0) / (spec.p + 1.0)
    else:
        w, dw = g1, dg1
        rho = spec.q * (spec.p + 1.0) / (spec.q + 1.0)
    if dw <= 0.0:
        raise ValidationError("final node is not escaping (w' <= 0)")
    assert rho > 1.0  # guaranteed by pq > 1
    return t1 + w / ((rho - 1.0) * dw)


# ---------------------------------------------------------------------------
# conserved quantity

def _fg_products(traj: Trajectory, spec: CoupledODESpec):
    F = spec.C_q * traj.f ** (spec.q + 1.0)
    G = spec.C_p * traj.g ** (spec.p + 1.0)
    return F, G


def conserved_residual(traj: Trajectory, spec: CoupledODESpec) -> float:
    """max over nodes of |(F-G)e^(omega t) - (F(0)-G(0))| / max(1, |F(0)-G(0)|)
    with F = C_q f^(q+1), G = C_p g^(p+1).

    Note: the drift is divided by the initial constant only, so it grows
    with F and G.  Storing f and g as doubles alone puts a floor of about
    eps*((q+1)F + (p+1)G)e^(omega t) under it, and the integration's
    truncation error lies far above that floor; near blow-up the value is
    large for any float64 integration.  See ``conserved_residual_scaled``
    for the variant that measures the integration's accuracy.
    """
    F, G = _fg_products(traj, spec)
    drift = (F - G) * np.exp(spec.omega * traj.times) - (F[0] - G[0])
    return float(np.max(np.abs(drift)) / max(1.0, abs(F[0] - G[0])))


def conserved_residual_scaled(traj: Trajectory, spec: CoupledODESpec) -> float:
    """Drift of the conserved quantity normalized node-wise by the magnitude
    of the quantities being differenced, max(1, |F(0)-G(0)|, (F+G)e^(omega t)).

    This measures the identity against its own terms.  On blow-up runs it
    is set by the DP5 truncation error, about 100 x ``tol`` (1.0e-8 at
    tol 1e-10 and 2.7e-10 at tol 1e-12 over the acceptance sweep), not by
    rounding: the float64 storage floor is about eps*max(p+1, q+1).
    """
    F, G = _fg_products(traj, spec)
    ew = np.exp(spec.omega * traj.times)
    drift = np.abs((F - G) * ew - (F[0] - G[0]))
    denom = np.maximum(1.0, np.maximum(abs(F[0] - G[0]), (F + G) * ew))
    return float(np.max(drift / denom))


# ---------------------------------------------------------------------------
# explicit bounds

@dataclass(frozen=True)
class BoundReport:
    """Lower-bound curve for g (and the induced one for f), the lifespan
    bound, and whether the hypothesis validating them holds."""

    hypothesis_satisfied: bool
    lifespan_bound: Optional[float] = None
    lower_bound_curve: Optional[Callable] = None  # at a float or a 1-d array of times
    f_lower_bound_curve: Optional[Callable[[float], float]] = None
    omega: float = 0.0
    exponent_caveat: bool = False

    def __post_init__(self):
        if self.hypothesis_satisfied and not (
            self.lifespan_bound is not None and self.lifespan_bound > 0.0
        ):
            raise ValidationError("satisfied hypothesis requires a positive bound")

    def to_json_dict(self, sample_times=None) -> dict:
        out = {
            "hypothesis_satisfied": bool(self.hypothesis_satisfied),
            "lifespan_bound": self.lifespan_bound,
            "omega": self.omega,
            "exponent_caveat": bool(self.exponent_caveat),
        }
        if sample_times is not None and self.lower_bound_curve is not None:
            times = np.asarray(sample_times, dtype=float)
            out["lower_bound_times"] = times.tolist()
            out["lower_bound"] = self.lower_bound_curve(times).tolist()
        return out


def _f_from_g_curve(spec: CoupledODESpec, g_curve):
    """Lower bound for f induced from a g lower bound through the conserved
    quantity: f^{q+1} e^{omega t} = C_p/C_q g^{p+1} e^{omega t} + const;
    None where f0^{q+1} or g0^{p+1} lies above the float range."""
    pp, qq = spec.p + 1.0, spec.q + 1.0
    ratio = spec.C_p / spec.C_q
    try:
        const = spec.f0 ** qq - ratio * spec.g0 ** pp
    except OverflowError:
        return None

    def f_curve(t: float) -> float:
        g = max(g_curve(t), 0.0)
        val = ratio * g ** pp + const * math.exp(-spec.omega * t)
        return val ** (1.0 / qq) if val > 0.0 else 0.0

    return f_curve


_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal floats
_LOG_HUGE = math.log(_HUGE)


def power_product(*factors, outer: float = 1.0) -> float:
    """The product of ``base ** exponent`` over ``(base, exponent)`` pairs of
    positive bases, raised to ``outer``.

    The factors are multiplied left to right, as the formula is written; a
    pair ``(base, exponent, "/")`` divides by ``base ** exponent``, and a base
    may itself be a tuple of factors.  Exponents such as 1/(pq-1) grow without
    bound near pq = 1, and those of the Euclidean thresholds near
    (p+1)/(pq-1) = n/2, so one power can leave the float range where the
    product does not.  Where a power or a partial product leaves the normal
    floats, the value comes from the sum of the logs instead: inf or 0 only
    where the product itself lies past the float range.
    """
    try:
        value = _product(factors) ** outer
    except ArithmeticError:
        value = 0.0
    if _TINY <= value <= _HUGE:
        return value
    log = outer * _log_product(factors)
    return math.inf if log > _LOG_HUGE else math.exp(log)


def _product(factors) -> float:
    value = 1.0
    for base, exponent, *over in factors:
        term = (_product(base) if isinstance(base, tuple) else base) ** exponent
        value = value / term if over else value * term
        if not (_TINY <= term <= _HUGE and _TINY <= value <= _HUGE):
            raise FloatingPointError("a power or partial product left the normal floats")
    return value


def _log_product(factors) -> float:
    return sum(
        (-exponent if over else exponent)
        * (_log_product(base) if isinstance(base, tuple) else math.log(base))
        for base, exponent, *over in factors
    )


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """The math module's ``fn`` at each element of the 1-d array ``x``."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def undamped_bounds(spec: CoupledODESpec) -> BoundReport:
    """Explicit lower-bound curve and lifespan bound for the omega = 0 system.

    Requires C_q f0^{q+1} >= C_p g0^{p+1}; otherwise the report only records
    that the hypothesis failed.  The lifespan bound is exactly the blow-up
    time of the lower-bound curve.
    """
    if spec.omega != 0.0:
        raise ValidationError("undamped bounds require omega = 0")
    shift = _shift(spec)
    if shift is None:
        return BoundReport(False, exponent_caveat=spec.exponent_caveat)
    return _bound_report(spec, shift)


def damped_hypothesis_terms(spec: CoupledODESpec) -> tuple[float, float]:
    """The two quantities whose maximum f0 must strictly exceed for the
    damped bounds to certify blow-up."""
    p, q = spec.p, spec.q
    pp, qq, D = p + 1.0, q + 1.0, p * q - 1.0
    term_damping = power_product(
        (2.0, (pp / qq) * (p * q / D)),
        (qq * pp, -pp / D),
        (spec.omega, pp / D),
        (spec.C_p, -1.0 / D),
        (spec.C_q, -p / D),
    )
    term_ordering = power_product(
        (((spec.C_p, 1.0), (spec.C_q, 1.0, "/")), 1.0 / qq),
        (spec.g0, pp / qq),
    )
    return term_damping, term_ordering


def _normal(value: float) -> bool:
    return _TINY <= value <= _HUGE


def _past_the_range_as_inf(lifespan: float) -> float:
    """A lifespan bound past the float range on either side as inf, which
    reports no bound: 0 would claim blow-up at once."""
    return lifespan if _normal(lifespan) else math.inf


def _shift(spec: CoupledODESpec) -> Optional[float]:
    """((C_q f0^(q+1) - C_p g0^(p+1)) / C_p)^(1/(p+1)), or None where it is
    negative.  For data whose powers leave the float range the first power
    is factored out and the ratio of the second to it taken from their logs."""
    pp, qq = spec.p + 1.0, spec.q + 1.0
    F0 = power_product((spec.C_q, 1.0), (spec.f0, qq))
    G0 = power_product((spec.C_p, 1.0), (spec.g0, pp))
    if _normal(F0) and _normal(G0):
        if not (F0 >= G0):
            return None
        # from the F0 - G0 >= 0 just tested, so that F0 == G0 gives shift 0
        return (power_product((F0 - G0, 1.0), (spec.C_p, 1.0, "/"), outer=1.0 / pp)
                if F0 > G0 else 0.0)
    lead = ((spec.C_q, 1.0), (spec.f0, qq), (spec.C_p, 1.0, "/"))
    log_ratio = pp * math.log(spec.g0) - _log_product(lead)
    if log_ratio > 0.0:  # tested first: expm1 overflows far above it
        return None
    return power_product(*lead, outer=1.0 / pp) * (-math.expm1(log_ratio)) ** (1.0 / pp)


def damped_bounds(spec: CoupledODESpec) -> BoundReport:
    """Lower-bound curve and lifespan bound for the damped (omega > 0) system.

    The hypothesis is strict: f0 must exceed both the damping-strength term
    and the initial-ordering term.  When it holds the logarithm argument of
    the lifespan formula automatically lies in (0, 1), so the bound is
    finite, and it converges to the undamped bound as omega -> 0+.
    """
    if not (spec.omega > 0.0):
        raise ValidationError("damped bounds require omega > 0")
    # strict inequalities, no tolerance slack
    if not (max(damped_hypothesis_terms(spec)) < spec.f0):
        return BoundReport(False, omega=spec.omega,
                           exponent_caveat=spec.exponent_caveat)
    # term_ordering < f0 makes the shift real, but just above it F0 - G0
    # may round negative
    return _bound_report(spec, _shift(spec) or 0.0)


def _bound_report(spec: CoupledODESpec, shift: float) -> BoundReport:
    """The bounds of a spec whose hypothesis holds, with the curve's
    ``shift``: g >= e^(-omega t/(p+1)) ((A - B tau(t))^(-(q+1)/(pq-1)) - shift)
    with tau(t) = (1 - e^(-decay t)) / decay, decay = omega (pq-1)/((p+1)(q+1)),
    which is t at omega = 0.  The lifespan bound is the root of A - B tau:
    the undamped T0 = A / B at omega = 0, -log(1 - decay T0) / decay above.
    """
    p, q, omega = spec.p, spec.q, spec.omega
    pp, qq, D = p + 1.0, q + 1.0, p * q - 1.0
    A = power_product(
        (spec.C_p, D / (pp * qq)),
        (spec.C_q, -D / (pp * qq)),
        (spec.f0, -D / pp),
    )
    B = 2.0 ** (-p * q / qq) * D * spec.C_p ** (q / qq) * spec.C_q ** (1.0 / qq)
    T0 = _past_the_range_as_inf(power_product(
        (2.0, p * q / qq),
        (D, 1.0, "/"),
        (spec.C_p, -1.0 / pp),
        (spec.C_q, -p / pp),
        (spec.f0, -D / pp),
    ))
    decay = omega * D / (pp * qq)
    if decay == 0.0:
        lifespan = T0
    else:  # decay T0 < 1 under the damped hypothesis, but for round-off and range
        lifespan = (_past_the_range_as_inf(-math.log1p(-decay * T0) / decay)
                    if decay * T0 < 1.0 else math.inf)

    def g_curve(t):
        """At a float ``t`` a float, at a 1-d array of times an array, each value
        the scalar formula's bit for bit: the exponentials are libm's, mapped
        (``np.exp`` differs), and ``float_power`` is libm's ``pow``."""
        ts = np.array(t, dtype=float, ndmin=1)
        tau = ts if decay == 0.0 else -_libm(math.expm1, -decay * ts) / decay
        base = A - B * tau
        damping = _libm(math.exp, -omega * ts / pp)
        with np.errstate(all="ignore"):
            power = np.float_power(base, -qq / D)
            value = damping * (power - shift)
        # the power alone may leave the float range
        for i in np.flatnonzero(np.isinf(power) & (base > 0.0)).tolist():
            value[i] = (power_product((math.e, -omega * ts[i].item() / pp),
                                      (base[i].item(), -qq / D))
                        - damping[i] * shift)
        value[base <= 0.0] = math.inf
        return value if np.ndim(t) else value[0].item()

    return BoundReport(
        hypothesis_satisfied=True,
        lifespan_bound=lifespan,
        lower_bound_curve=g_curve,
        f_lower_bound_curve=_f_from_g_curve(spec, g_curve),
        omega=float(omega),
        exponent_caveat=spec.exponent_caveat,
    )


# ---------------------------------------------------------------------------
# comparison of trajectory pairs

@dataclass(frozen=True)
class ComparisonVerdict:
    passed: bool
    first_violation_index: Optional[int] = None
    first_violation_time: Optional[float] = None
    component: Optional[str] = None


def check_comparison(sub: Trajectory, super_: Trajectory,
                     spec: CoupledODESpec) -> ComparisonVerdict:
    """Check strict componentwise ordering sub < super at all common nodes.

    Trajectories on different grids are resampled onto the union of their
    nodes inside the overlapping time range by the cubic Hermite model of
    ``integrate_coupled``, on node slopes from ``spec`` (which serves both
    runs: the slopes do not depend on the initial data), exactly at each
    run's own nodes.  Returns the first violating node when strictness fails.
    """
    lo = max(sub.times[0], super_.times[0])
    hi = min(sub.times[-1], super_.times[-1])
    if not (hi > lo or (hi == lo and sub.times.size and super_.times.size)):
        raise ValidationError("trajectories have no overlapping time range")

    grid = np.union1d(sub.times, super_.times)
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size == 0:
        raise ValidationError("empty common grid")

    def resample(traj):
        t, w = traj.times, traj.values
        if t.size < 2:
            return np.repeat(w, grid.size, axis=0)
        d = np.column_stack(_rhs(spec, traj.f, traj.g))
        i = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, t.size - 2)
        h = (t[i + 1] - t[i])[:, None]
        theta = (grid - t[i])[:, None] / h
        return _hermite(theta, h, w[i], d[i], w[i + 1], d[i + 1])

    vs = resample(sub)
    vp = resample(super_)
    ok = vp > vs
    bad = ~(ok[:, 0] & ok[:, 1])
    if not bad.any():
        return ComparisonVerdict(True)
    i = int(np.argmax(bad))
    comp = "f" if not ok[i, 0] else "g"
    return ComparisonVerdict(
        False,
        first_violation_index=i,
        first_violation_time=float(grid[i]),
        component=comp,
    )
