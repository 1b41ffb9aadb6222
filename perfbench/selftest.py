#!/usr/bin/env python3
"""Self-tests of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [WORKLOAD ...]

For each named workload (default: all), two traced runs of one seed must
write outputs byte-identical to their untraced passes and repeat the work
counts exactly.  A reference with one corrupted headline number must make
the gate count a failure.  Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import run

SEED = 1


def traced_runs_repeat(workload: str, directory: str) -> list[str]:
    problems = []
    results = []
    for i in range(2):
        bench = run.Bench(workload, SEED, os.path.join(directory, str(i)),
                          run.load_reference(workload, SEED))
        result = run.trace(bench, 0.0, os.path.join(directory, f"spans{i}.csv"))
        if not result["identical"]:
            problems.append(f"{workload}: traced outputs differ from untraced")
        if any(r["failed"] for r in result["records"]):
            problems.append(f"{workload}: an invocation failed the gate")
        results.append(result["metrics"])
    # every count, among them torus.np_fft.calls, euclid.solve_banded.calls,
    # testfn.phi.calls and ode_core.integrate_coupled.nodes
    for name, (value, unit) in results[0].items():
        if unit == "count" and value != results[1][name][0]:
            problems.append(f"{workload}: {name} is {value}, "
                            f"then {results[1][name][0]}")
    return problems


def corrupted_reference_fails(directory: str) -> list[str]:
    reference = run.load_reference("ode_sweep", SEED)
    corrupted = copy.deepcopy(reference)
    numbers = corrupted["ode_verify"]["numbers"]
    numbers["worked_case.lifespan"] *= 1.0 + 1e-6
    problems = []
    for table, want_failed in ((reference, 0), (corrupted, 1)):
        bench = run.Bench("ode_sweep", SEED, directory, table)
        _, outcomes = bench.run_pass("gate")
        failed = sum(r["failed"] for r in bench.judge(outcomes))
        if failed != want_failed:
            problems.append(f"gate counted {failed} failures, expected {want_failed}")
    return problems


def main(names: list[str]) -> int:
    run.bootstrap()
    directory = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    problems = []
    try:
        problems += corrupted_reference_fails(os.path.join(directory, "gate"))
        for workload in names or run.WORKLOADS:
            problems += traced_runs_repeat(workload,
                                           os.path.join(directory, workload))
            print(f"{workload}: checked", flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
