#!/usr/bin/env python3
"""Record the reference outcome of every invocation of every input variant.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one untraced pass per variant of the named workloads (default: all)
and stores exit codes, check flags and headline numbers in
``perfbench/reference.json``, keeping the entries of other workloads.  The
reference pins what the program does when it is recorded, including the
outcomes of known defects, which are tagged with ``known_defect``; rerun it
only when a change of outcome is intended, and say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

# Outcomes the program is known to get wrong.  They are pinned as recorded,
# so the gate flags any change of them, and tagged with their cause, so the
# benchmark reports how many it met.
ZERO_MODE_DEFECT = (
    "zero_mode_exact compares lap_zero_mode_max with an absolute 1e-12, so a "
    "non-constant torus run that reaches blow-up amplitudes fails it"
)


def known_defect(command: str, got: dict):
    if command == "torus-run" and got.get("flags", {}).get("zero_mode_exact") is False:
        return ZERO_MODE_DEFECT
    return None


def main(names: list[str]) -> int:
    run.bootstrap()
    table = {"workloads": {}}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            table = json.load(fh)
    for workload in names or run.WORKLOADS:
        entries = {}
        for variant in range(workloads.VARIANTS):
            bench = run.Bench(workload, variant,
                              os.path.join(run.WORK, f"reference-{os.getpid()}"),
                              None)
            try:
                seconds, outcomes = bench.run_pass("reference")
            finally:
                shutil.rmtree(bench.dir, ignore_errors=True)
            for inv in bench.invs:
                tag = known_defect(inv.command, outcomes[inv.label])
                if tag:
                    outcomes[inv.label]["known_defect"] = tag
            entries[str(variant)] = outcomes
            codes = {label: o.get("exit_code", o.get("raised"))
                     for label, o in outcomes.items()}
            print(f"{workload} variant {variant}: {seconds:.2f} s {codes}",
                  flush=True)
        table["workloads"][workload] = entries
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
