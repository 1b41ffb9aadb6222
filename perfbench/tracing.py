"""Span tracing of the package's layers from outside the package.

``install`` replaces each traced public function at the module (or
class) attribute its callers look up with a wrapper that records a span:
name, start, end and the index of the enclosing span.  Spans stay in memory;
``restore`` puts the originals back.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.work: dict = defaultdict(int)  # extra counts, e.g. nodes, rows
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Trace calls of ``owner.attr`` as spans called ``name``.

        ``work(args, kwargs, result)`` returns an amount of work done by the
        call, summed in ``self.work[name]``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                self.work[name] += work(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


def _nodes(args, kwargs, trajectory) -> int:
    return int(trajectory.times.size)


def _rows(args, kwargs, result) -> int:
    columns = kwargs["columns"] if "columns" in kwargs else args[2]
    return len(columns[0])


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer where their callers find
    them; a name imported into another module is wrapped there too."""
    import numpy as np
    from cgl_blowup import (cli, euclid, ode_core, ratefit, serialize, system,
                            testfn, torus)

    wrap = tracer.wrap
    wrap(ode_core, "integrate_coupled", "ode_core.integrate_coupled", _nodes)
    wrap(ode_core, "check_comparison", "ode_core.check_comparison")
    for owner in (ode_core, torus):
        wrap(owner, "undamped_bounds", "ode_core.bounds")
    for owner in (ode_core, euclid):
        wrap(owner, "damped_bounds", "ode_core.bounds")

    wrap(testfn, "build_test_function", "testfn.build_test_function")
    wrap(testfn.TestFunctionData, "phi", "testfn.phi")

    for attr in ("run_torus", "torus_step", "laplacian_zero_mode",
                 "check_growth_inequality"):
        wrap(torus, attr, f"torus.{attr}")
    for attr in ("functionals", "functional_derivatives"):
        wrap(torus, attr, "torus.functionals")
    # the torus stepper is the only caller of numpy's FFT in the package
    for attr in ("fft", "ifft", "fftn", "ifftn"):
        wrap(np.fft, attr, "torus.np_fft")

    for attr in ("run_euclid", "euclid_step", "solve_banded",
                 "weighted_functionals", "functional_derivatives",
                 "check_weighted_growth_inequality", "blowup_bounds"):
        wrap(euclid, attr, f"euclid.{attr}")

    wrap(ratefit, "fit_power_law", "ratefit.fit_power_law")
    for owner in (system, torus, euclid):
        wrap(owner, "check_growth_pair", "system.check_growth_pair")
    for owner in (serialize, cli):
        wrap(owner, "write_csv", "serialize.write_csv", _rows)
        wrap(owner, "write_json", "serialize.write_json")


COMMANDS = ("testfn-check", "ode-verify", "torus-run", "euclid-run",
            "scaling-study")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    t = tracer.totals()

    def calls(name):
        return t[name]["calls"] if name in t else 0

    def self_s(*names):
        return sum(t[n]["self_s"] for n in names if n in t)

    def per(amount, count, scale=1.0):
        return scale * amount / count if count else 0.0

    def inclusive(name):
        return t[name]["s"] if name in t else 0.0

    m = {}
    nodes = tracer.work.get("ode_core.integrate_coupled", 0)
    m["ode_core.integrate_coupled.calls"] = (calls("ode_core.integrate_coupled"), "count")
    m["ode_core.integrate_coupled.s"] = (self_s("ode_core.integrate_coupled"), "s")
    m["ode_core.integrate_coupled.nodes"] = (nodes, "count")
    m["ode_core.integrate_coupled.us_per_node"] = (
        per(inclusive("ode_core.integrate_coupled"), nodes, 1e6), "us")
    m["ode_core.check_comparison.s"] = (self_s("ode_core.check_comparison"), "s")
    m["ode_core.bounds.s"] = (self_s("ode_core.bounds"), "s")

    for name in ("testfn.build_test_function", "testfn.phi"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (self_s(name), "s")

    steps = calls("torus.torus_step")
    m["torus.torus_step.calls"] = (steps, "count")
    m["torus.torus_step.s"] = (self_s("torus.torus_step"), "s")
    m["torus.torus_step.us_per_call"] = (
        per(inclusive("torus.torus_step"), steps, 1e6), "us")
    m["torus.np_fft.calls"] = (calls("torus.np_fft"), "count")
    m["torus.np_fft.s"] = (self_s("torus.np_fft"), "s")
    m["torus.fft_per_step"] = (per(calls("torus.np_fft"), steps), "count/step")
    m["torus.run_torus.s"] = (self_s("torus.run_torus"), "s")
    for name in ("torus.functionals", "torus.laplacian_zero_mode",
                 "torus.check_growth_inequality"):
        m[f"{name}.s"] = (self_s(name), "s")

    steps = calls("euclid.euclid_step")
    m["euclid.euclid_step.calls"] = (steps, "count")
    m["euclid.euclid_step.s"] = (self_s("euclid.euclid_step"), "s")
    m["euclid.euclid_step.us_per_call"] = (
        per(inclusive("euclid.euclid_step"), steps, 1e6), "us")
    m["euclid.solve_banded.calls"] = (calls("euclid.solve_banded"), "count")
    m["euclid.solve_banded.s"] = (self_s("euclid.solve_banded"), "s")
    m["euclid.solves_per_step"] = (
        per(calls("euclid.solve_banded"), steps), "count/step")
    m["euclid.run_euclid.s"] = (self_s("euclid.run_euclid"), "s")
    for name in ("euclid.weighted_functionals", "euclid.functional_derivatives",
                 "euclid.check_weighted_growth_inequality",
                 "euclid.blowup_bounds"):
        m[f"{name}.s"] = (self_s(name), "s")

    for name in ("ratefit.fit_power_law", "system.check_growth_pair"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (self_s(name), "s")
    m["serialize.write_csv.s"] = (self_s("serialize.write_csv"), "s")
    m["serialize.write_csv.rows"] = (tracer.work.get("serialize.write_csv", 0), "count")
    m["serialize.write_json.s"] = (self_s("serialize.write_json"), "s")

    for command in COMMANDS:
        m[f"cli.{command}.s"] = (inclusive(f"cli.{command}"), "s")
    m["cli.self_s"] = (self_s(*(f"cli.{c}" for c in COMMANDS)), "s")
    return m
