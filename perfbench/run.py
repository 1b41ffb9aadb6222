#!/usr/bin/env python3
"""Benchmark of the cgl-blowup command-line runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's CLI invocations in this process through
``cgl_blowup.cli.main`` with ``--workers 1``, and checks every outcome
against ``reference.json``.  With ``--trace 0`` it repeats passes for about
``S`` seconds and reports the end-to-end metrics, timed at the reference
speed of ``speed.py`` so that the host's slow phases do not move them;
with ``--trace 1`` it runs untraced and traced passes in pairs and reports
the per-layer metrics.  The last line of standard output is one JSON object;
a result file with the environment goes to ``.perfbench_work/results``.
The exit code is 1 when an invocation fails the gate or traced outputs
differ from untraced ones.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import gate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("ode_sweep", "torus_1d", "euclid_1d", "grid_2d")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_RUNS = 5

# A fresh interpreter imports the CLI, then generates and loads the configs;
# it prints the monotonic clock when done, which is shared across processes.
_SETUP_SCRIPT = """\
import json, sys, time
import cgl_blowup.cli
import workloads
workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
invs = workloads.invocations(workload, seed)
for path in workloads.write_configs(invs, directory):
    with open(path, encoding="utf-8") as fh:
        json.load(fh)
print(time.monotonic())
"""


def bootstrap() -> None:
    """Pin BLAS threads and import the package from this checkout's src."""
    if not os.path.isfile(os.path.join(SRC, "cgl_blowup", "cli.py")):
        sys.exit(f"perfbench: no package sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import cgl_blowup

    if not os.path.abspath(cgl_blowup.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: cgl_blowup imported from {cgl_blowup.__file__}")


def load_reference(workload: str, seed: int) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    return table["workloads"][workload][str(workloads.variant_of(seed))]


class Bench:
    """One workload at one seed: its configs, output tree and reference."""

    def __init__(self, workload: str, seed: int, directory: str,
                 reference: dict | None):
        self.invs = workloads.invocations(workload, seed)
        self.dir = directory
        self.configs = workloads.write_configs(
            self.invs, os.path.join(self.dir, "configs"))
        self.reference = reference
        self.workload = workload
        self.seed = seed

    def run_invocation(self, index: int, tree: str,
                       tracer: tracing.Tracer | None = None):
        """Run invocation ``index`` once, writing under ``tree``.

        Returns the wall time of the CLI call and its outcome.
        """
        from cgl_blowup.cli import main

        inv, config = self.invs[index], self.configs[index]
        out = os.path.join(self.dir, tree, inv.label)
        shutil.rmtree(out, ignore_errors=True)
        argv = [inv.command, "--config", config, "--out", out,
                "--seed", str(inv.cli_seed), "--workers", "1"]
        raised = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                with tracer.span(f"cli.{inv.command}"):
                    code = main(argv)
        except Exception as exc:  # a crash is a counted failure
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            raised = (f"{type(exc).__name__}: {exc} "
                      f"({frame.filename}:{frame.lineno})")
        seconds = time.perf_counter() - start
        got = {"raised": raised}
        if raised is None:
            try:
                got = gate.outcome(inv.command, out, code)
            except (KeyError, TypeError, ValueError) as exc:
                got = {"raised": f"unreadable outputs: {exc!r}"}
        got["config"] = inv.config_digest()
        return seconds, got

    def run_pass(self, tree: str, tracer: tracing.Tracer | None = None):
        """Run every invocation once, writing under ``tree``.

        Returns the summed wall time of the CLI calls and their outcomes.
        """
        seconds = 0.0
        outcomes = {}
        for index, inv in enumerate(self.invs):
            elapsed, outcomes[inv.label] = self.run_invocation(index, tree, tracer)
            seconds += elapsed
        return seconds, outcomes

    def run_probed_pass(self, tree: str, probe):
        """Run every invocation once, timing ``probe`` (a
        ``speed.SpeedProbe``) before the first and after each.

        Returns the summed wall time of the CLI calls, the probe times and
        the outcomes.
        """
        seconds = 0.0
        outcomes = {}
        probes = [probe.seconds()]
        for index, inv in enumerate(self.invs):
            elapsed, outcomes[inv.label] = self.run_invocation(index, tree)
            seconds += elapsed
            probes.append(probe.seconds())
        return seconds, probes, outcomes

    def judge(self, outcomes: dict) -> list[dict]:
        records = []
        for label, got in outcomes.items():
            expected = self.reference[label]
            verdict = gate.judge(got, expected)
            verdict["label"] = label
            verdict["known_defect"] = expected.get("known_defect")
            records.append(verdict)
        return records

    def same_outputs(self, tree_a: str, tree_b: str) -> bool:
        """True when two output trees hold the same files, byte for byte."""
        def compare(cmp: filecmp.dircmp) -> bool:
            if cmp.left_only or cmp.right_only or cmp.funny_files:
                return False
            _, mismatch, errors = filecmp.cmpfiles(
                cmp.left, cmp.right, cmp.common_files, shallow=False)
            if mismatch or errors:
                return False
            return all(compare(sub) for sub in cmp.subdirs.values())

        return compare(filecmp.dircmp(os.path.join(self.dir, tree_a),
                                      os.path.join(self.dir, tree_b)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def setup_times(workload: str, seed: int, directory: str, probe) -> dict:
    """Set-up time of SETUP_RUNS fresh interpreters, one after another,
    as wall time and rescaled to reference speed by ``probe`` timed before
    the first and after each.  The interpreter reports its own end time,
    because waiting with a timeout polls in steps of up to 50 ms."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    wall, rescaled = [], []
    before = probe.seconds()
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_SCRIPT, workload, str(seed),
             directory], env=env, check=True, timeout=120,
            stdout=subprocess.PIPE, text=True)
        wall.append(float(child.stdout) - start)
        after = probe.seconds()
        rescaled.append(wall[-1] * probe.REFERENCE_S / (0.5 * (before + after)))
        before = after
    return {"wall": wall, "rescaled": rescaled}


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics: passes repeated for about ``seconds``, timed at
    reference speed (see ``speed.py``)."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    setup = setup_times(bench.workload, bench.seed,
                        os.path.join(bench.dir, "setup"), probe)
    walls, probes, records = [], [], []
    start = time.perf_counter()
    while True:
        wall, times, outcomes = bench.run_probed_pass("timed", probe)
        walls.append(wall)
        probes.extend(times)
        records.extend(bench.judge(outcomes))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    # The passes and the probes between them sample the same mix of the
    # host's fast and slow phases, so the ratio of their means compares like
    # with like; a median would follow whichever phase held most samples.
    scale = probe.REFERENCE_S / statistics.fmean(probes)
    passes = [wall * scale for wall in walls]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s": (statistics.fmean(passes), "s"),
        "setup_s": (statistics.median(setup["rescaled"]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {"metrics": metrics, "records": records,
            "samples": {"run_s": passes, "run_wall_s": walls,
                        "setup_s": setup["rescaled"],
                        "setup_wall_s": setup["wall"], "probe_s": probes}}


def trace(bench: Bench, seconds: float, spans_path: str) -> dict:
    """Per-layer metrics: untraced and traced passes in pairs; the spans of
    the first traced pass are written to ``spans_path``."""
    untraced, traced, layers, records = [], [], [], []
    identical = True
    start = time.perf_counter()
    while True:
        elapsed, outcomes = bench.run_pass("untraced")
        untraced.append(elapsed)
        records.extend(bench.judge(outcomes))
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            elapsed, outcomes = bench.run_pass("traced", tracer)
        finally:
            tracer.restore()
        traced.append(elapsed)
        records.extend(bench.judge(outcomes))
        identical = identical and bench.same_outputs("untraced", "traced")
        if not layers:
            tracer.write(spans_path)
        layers.append(tracing.layer_metrics(tracer))
        pair = untraced[-1] + traced[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    metrics["check.max_rel_drift"] = (
        max(r["max_rel_drift"] for r in records), "ratio")
    return {"metrics": metrics, "records": records, "identical": identical,
            "samples": {"untraced_s": untraced, "traced_s": traced}}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from speed import SpeedProbe

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "speed_reference_s": SpeedProbe.REFERENCE_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    bench = Bench(args.workload, args.seed,
                  os.path.join(WORK, f"run-{os.getpid()}"),
                  load_reference(args.workload, args.seed))
    try:
        if args.trace:
            result = trace(bench, args.seconds, stem + ".spans.csv")
        else:
            result = measure(bench, args.seconds)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    records = result["records"]
    identical = result.get("identical", True)
    failed = sum(r["failed"] for r in records)
    known = sum(r["known_defect"] is not None for r in records)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:45s} {value:.6g} {unit}")
    for key, values in result["samples"].items():
        q1, median, q3 = quartiles(values)
        print(f"{key}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
    print(f"failed_frac {failed}/{len(records)} = {failed / len(records):.6g}"
          f" (known-defect outcomes pinned in the reference: {known})")
    for r in records:
        if r["failed"]:
            print(f"FAILED {r['label']}: {'; '.join(r['reasons'])}")
    if not identical:
        print("FAILED traced outputs differ from untraced outputs")

    summary = {
        "correct": failed == 0 and identical,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**summary, "workload": args.workload,
                   "variant": workloads.variant_of(args.seed),
                   "environment": environment(args.seed),
                   "samples": result["samples"],
                   "failed_frac": failed / len(records),
                   "known_defect_outcomes": known,
                   "records": records}, fh, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
