"""Shared PDE-side types: system coefficients, the stacked-pair state format,
functional time series, growth-inequality reports and the run record, plus
the adaptive marching loop both PDE backends drive."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import IntegrationError, ValidationError
from .ode_core import BLOWUP, COMPLETED, STEP_COLLAPSE

__all__ = ["SystemParams", "PairState", "stack_states", "FunctionalSeries", "OdiReport",
           "jensen_coefficients", "Run", "march"]


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


# indices into the stacked fields of one state or a batch on a grid of
# dimension n: of every pair, field u, field v and both reversed
PAIR_INDEX = {n: [(Ellipsis, i) + (slice(None),) * n for i in (0, 1, slice(None, None, -1))]
              for n in (1, 2)}


@dataclass(eq=False)
class PairState:
    """The pair (u, v) at time t, the state of both PDE backends, stacked as
    ``fields`` of shape (2, *grid); or a batch of k pairs on a leading axis,
    ``fields`` of shape (k, 2, *grid), whose times ``t`` are an array of k
    floats (a list or tuple is made one), which makes it a batch: its rungs
    step, and are observed, together, and its ``u`` and ``v`` have the batch
    axis too.  What steps a state owns its grid and refuses a state off it.
    ``fields`` is a read-only view of the given array, in unpickled copies
    too, as a backend keeps what it computes from a node in ``held``."""

    fields: np.ndarray
    t: float
    held: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.t, (list, tuple)):  # a batch: one time per state
            self.t = np.array(self.t, dtype=float)
        if isinstance(self.fields, np.ndarray):  # the backends refuse anything else
            self.fields = self.fields.view()
            self.fields.flags.writeable = False

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def batch_shape(self) -> tuple:
        """(k,) for a batch of k states, () for a single state."""
        return getattr(self.t, "shape", ())  # a float has none, and np.shape is slow on one

    @property
    def u(self) -> np.ndarray:
        """The first field of every pair, a view."""
        return self.fields[(slice(None),) * len(self.batch_shape) + (0,)]

    @property
    def v(self) -> np.ndarray:
        """The second field of every pair, a view."""
        return self.fields[(slice(None),) * len(self.batch_shape) + (1,)]

    def per_rung(self, dt):
        """dt as a factor of ``fields``: the float of a single state, or the
        array of one dt per rung of a batch, shaped to broadcast over each
        rung's pair; refused unless positive."""
        batch = self.batch_shape
        if isinstance(dt, Real) and not batch:
            if not dt > 0.0:
                raise ValidationError("dt must be positive")
            return dt
        dt = np.asarray(dt, dtype=float)
        if dt.shape != batch:
            raise ValidationError("a batch steps with one dt per state, a state with one")
        if not (dt > 0.0).all():
            raise ValidationError("dt must be positive")
        return dt.reshape(batch + (1,) * (self.fields.ndim - len(batch)))


def stack_states(states):
    """The batch of ``states``, single states on one grid, stacked in order."""
    if any(s.batch_shape for s in states):
        raise ValidationError("a batch stacks single states, not batches")
    try:
        fields = np.stack([s.fields for s in states])
    except ValueError:  # no states, or states on different grids
        raise ValidationError("a batch needs one or more states on one grid") from None
    return PairState(fields, [s.t for s in states])


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
        t = arrays["times"]
        if any(a.shape != (t.size,) for a in arrays.values()):
            raise ValidationError("series columns must share a length")
        if not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
            raise ValidationError("times must be finite and strictly increasing")

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
          field_threshold, functional_threshold=None):
    """Advance ``state`` with ``step(state, dt)`` until t_end, until max
    |field| crosses field_threshold, or until U or V crosses
    functional_threshold (status blow_up...).

    ``state`` is a :class:`PairState`: the stacked pair of one run, or a
    batch of k pairs with an array of k times.  A single run is a batch of
    one.  ``step`` gets a float dt for a single state and an array of
    per-rung dts for a batch.  ``observe(state, rungs)`` gives (U, V, U', V') at every node,
    each a float, or a sequence of per-rung floats for a batch; ``rungs``
    lists the live rungs' numbers in the batch given here, in batch order.

    At every node each live rung is decided once: blow-up at a threshold
    (never at its data node), else completed at t_end, else its own dt, from
    its max |u| and max |v|, with step collapse when that dt falls below
    the floor.  The rungs that stopped leave the batch, and the others step
    in lockstep.

    Returns the :class:`Run`, or for a batch a list of one per rung, each
    with its own final state.  A step rate past the float range, or a
    series its record refuses, raises IntegrationError carrying that rung's
    last node; one that ``step`` raises propagates as it is (for a batch,
    carrying the batch).
    """
    if not all(_positive(t_end - t) for t in np.atleast_1d(state.t).tolist()):
        raise ValidationError("state times must be finite and below a finite t_end")
    if not (_positive(dt_max) and _positive(dt_safety)):
        raise ValidationError("dt_max and the step safety must be finite and positive")
    if not (_positive(field_threshold, finite=False) and (
            functional_threshold is None
            or _positive(functional_threshold, finite=False))):
        raise ValidationError("field and functional thresholds must be positive")
    ab1, ab2 = abs(params.beta1), abs(params.beta2)
    p, q = params.p, params.q
    single = not state.batch_shape
    live = list(range(1 if single else len(state.t)))  # rungs in the batch, in order
    rows = [array("d") for _ in live]  # each rung's (t, U, V, U', V') nodes, flat
    ends = [None] * len(live)  # each rung's (final state, status)

    def rung(s, pos):
        return s if single else PairState(s.fields[pos], float(s.t[pos]))

    data_node = True  # the data node is never threshold-checked
    while live:
        values = observe(state, live)
        nodes = [(state.t, *values)] if single else zip(state.t.tolist(), *values)
        amax = np.abs(state.fields).reshape(len(live), 2, -1).max(axis=-1).tolist()
        stops, dts = {}, []
        for pos, (i, node, (au, av)) in enumerate(zip(live, nodes, amax)):
            rows[i].extend(node)
            t, U, V = node[:3]
            if not data_node and (max(au, av) >= field_threshold or (
                    functional_threshold is not None
                    and max(U, V) >= functional_threshold)):
                stops[pos] = BLOWUP
                continue
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
            dt = min(dt, t_end - t)
            if dt < 1e-14 * max(abs(t), 1e-3 * t_end):
                stops[pos] = STEP_COLLAPSE
            else:
                dts.append(dt)
        for pos, status in stops.items():
            ends[live[pos]] = (rung(state, pos), status)
        keep = [pos for pos in range(len(live)) if pos not in stops]
        live = [live[pos] for pos in keep]
        if live:
            if stops and not single:
                state = PairState(state.fields[keep], state.t[keep])
            state = step(state, dts[0] if single else np.array(dts))
        data_node = False
    runs = []
    for r, (final, status) in zip(rows, ends):
        try:
            runs.append(Run(FunctionalSeries(*np.frombuffer(r).reshape(-1, 5).T), final, status))
        except ValidationError as exc:  # the run's own record refuses its nodes
            raise IntegrationError(f"series refused: {exc}", last_node=final) from None
    return runs[0] if single else runs
