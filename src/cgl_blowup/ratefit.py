"""Blow-up measurement: extract the blow-up time T*, the rate exponent gamma,
and the amplitude A of a diverging series y ~ A (T*-t)^(-gamma).

Three-parameter fit via a golden-section search on T* with a closed-form
inner linear regression in log space; derivative-free and deterministic.
The T1 radius search and the lifespan-scaling slope share the two parts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["RateFit", "fit_power_law", "fit_trailing_decade", "golden_section",
           "least_squares", "trailing_decade_window"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RateFit:
    t_star: float
    gamma: float
    amplitude: float
    residual: float  # rms misfit of log y
    window: tuple[float, float]

    def __post_init__(self):
        if not (self.t_star > self.window[1]):
            raise ValidationError("fitted t_star must exceed the window end")
        if not (self.gamma > 0.0):
            raise ValidationError(f"fitted gamma must be positive, got {self.gamma}")
        if not (self.residual >= 0.0):
            raise ValidationError("residual must be non-negative")

    def to_json_dict(self) -> dict:
        return asdict(self)


def least_squares(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line y = a + b x; returns (b, a, the sum of squared
    residuals, the sum of squared deviations of x from its mean)."""
    x_mean = x.mean()
    y_mean = y.mean()
    dx = x - x_mean
    dy = y - y_mean
    denom = float(dx @ dx)
    slope = float(dx @ dy) / denom if denom > 0 else 0.0
    resid = dy - slope * dx
    return slope, y_mean - slope * x_mean, float(resid @ resid), denom


def golden_section(f, a: float, b: float, converged) -> float:
    """Golden-section minimizer of a unimodal ``f`` on [a, b]: the bracket
    midpoint once ``converged(a, b)`` holds, or after 200 steps."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if converged(a, b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def trailing_decade_window(times, values) -> tuple[float, float]:
    """Window covering the trailing decade of growth: [top/10, top] in value,
    ``top`` the final value of the series."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    top = float(values[-1])
    lo_mask = values >= top / 10.0
    hi_mask = values <= top
    mask = lo_mask & hi_mask
    if not mask.any():
        raise ValidationError("no nodes in the trailing decade of growth")
    idx = np.nonzero(mask)[0]
    return float(times[idx[0]]), float(times[idx[-1]])


def fit_power_law(times, values, window: tuple[float, float] | None = None) -> RateFit:
    """Fit y ~ A (T*-t)^(-gamma) on the given time window.

    Requires the windowed series to be strictly positive and increasing with
    at least 20 nodes.  T* is bracketed in [t_hi, t_hi + 10 (t_hi - t_lo)]
    and located by golden-section search on the inner-regression misfit.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValidationError("times and values must be matching 1-d arrays")
    if window is None:
        window = (float(times[0]), float(times[-1]))
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (t_hi > t_lo):
        raise ValidationError("window must have positive length")
    mask = (times >= t_lo) & (times <= t_hi)
    t = times[mask]
    y = values[mask]
    if t.size < 20:
        raise ValidationError(f"need >= 20 nodes in window, got {t.size}")
    if np.any(y <= 0.0):
        raise ValidationError("series must be strictly positive on the window")
    if np.any(np.diff(y) <= 0.0):
        raise ValidationError("series must be strictly increasing on the window")

    log_y = np.log(y)
    span = t_hi - t_lo
    t_end = float(t[-1])

    def misfit(t_star: float) -> float:
        return least_squares(np.log(t_star - t), log_y)[2]

    t_star = golden_section(misfit, t_end + 1e-12 * span, t_hi + 10.0 * span,
                            lambda a, b: b - a < 1e-13 * span)
    slope, log_a, ss, _ = least_squares(np.log(t_star - t), log_y)
    return RateFit(
        t_star=t_star,
        gamma=-slope,
        amplitude=math.exp(log_a),
        residual=math.sqrt(ss / t.size),
        window=(t_lo, t_hi),
    )


def fit_trailing_decade(times, values) -> RateFit | None:
    """``fit_power_law`` on the trailing decade of growth, or None if none fits."""
    try:
        window = trailing_decade_window(times, values)
        return fit_power_law(times, values, window=window)
    except ValidationError:
        return None
