"""Correctness gate: the outcome of one CLI invocation, and its comparison
with the stored reference outcome.

An outcome is the exit code, every check flag the run reports, and its
headline numbers.  An invocation fails when it raises, exits 2 or 3, or when
its exit code, a flag or a headline number differs from the reference; a
number differs when it drifts by more than ``DRIFT_BOUND`` relative.
"""

from __future__ import annotations

import csv
import json
import os

DRIFT_BOUND = 1e-10


def _read_json(out_dir: str, name: str):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv_columns(out_dir: str, name: str) -> dict:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return {}
    return {key: [None if r[key] == "null" else float(r[key]) for r in rows]
            for key in rows[0]}


def _fit_numbers(numbers: dict, prefix: str, fit) -> None:
    numbers[f"{prefix}.t_star"] = fit and fit["t_star"]
    numbers[f"{prefix}.gamma"] = fit and fit["gamma"]


def outcome(command: str, out_dir: str, exit_code: int) -> dict:
    """Exit code, check flags and headline numbers of a finished run."""
    flags: dict = {}
    numbers: dict = {}
    report = _read_json(out_dir, "report.json") or {}
    if command == "testfn-check":
        flags["all_passed"] = report.get("all_passed")
        for entry in report.get("dimensions", []):
            n = entry["n"]
            flags[f"n{n}.passed"] = entry["passed"]
            numbers[f"n{n}.lambda"] = entry["lambda"]
            numbers[f"n{n}.l1_norm"] = entry["l1_norm"]
    elif command == "ode-verify":
        flags["all_passed"] = report.get("all_passed")
        for check in report.get("checks", []):
            flags[check["name"]] = check["passed"]
        worked = report.get("worked_case") or {}
        numbers["worked_case.lifespan"] = worked.get("lifespan")
        specs = _read_csv_columns(out_dir, "specs.csv")
        for i, value in enumerate(specs.get("escape_time", [])):
            numbers[f"escape_time[{i}]"] = value
    elif command == "torus-run":
        flags.update(report.get("checks", {}))
        numbers["escape_time"] = report.get("escape_time")
        _fit_numbers(numbers, "fit_U", report.get("fit_U"))
        series = _read_csv_columns(out_dir, "functionals.csv")
        numbers["U0"] = series["U"][0] if series else None
        numbers["V0"] = series["V"][0] if series else None
    elif command == "euclid-run":
        flags.update(report.get("checks", {}))
        for key in ("U0", "V0", "escape_time"):
            numbers[key] = report.get(key)
        fits = report.get("fits") or {}
        _fit_numbers(numbers, "fit_U", fits.get("U"))
        _fit_numbers(numbers, "fit_V", fits.get("V"))
    elif command == "scaling-study":
        flags["matches_prediction"] = report.get("matches_prediction")
        numbers["slope"] = report.get("slope")
        numbers["n_complete"] = report.get("n_complete")
        runs = _read_csv_columns(out_dir, "runs.csv")
        for i, value in enumerate(runs.get("T", [])):
            numbers[f"T[{i}]"] = value
    else:
        raise ValueError(f"no outcome rule for {command!r}")
    return {"exit_code": exit_code, "flags": flags, "numbers": numbers}


def rel_drift(value: float, expected: float) -> float:
    """Relative distance of two headline numbers."""
    if value == expected:
        return 0.0
    return abs(value - expected) / max(abs(value), abs(expected))


def judge(got: dict, expected: dict) -> dict:
    """Compare an invocation's outcome with its reference.

    Both carry the digest of the config run under ``"config"``; ``got`` is
    an outcome, or holds ``"raised"`` when the call raised.
    Returns ``{"failed", "reasons", "max_rel_drift"}``.
    """
    reasons = []
    drift = 0.0
    if got["config"] != expected["config"]:
        reasons.append("config differs from the reference's")
    if "raised" in got:
        reasons.append(f"raised {got['raised']}")
    elif "raised" in expected:
        reasons.append("reference raised, run did not")
    else:
        code = got["exit_code"]
        if code in (2, 3):
            reasons.append(f"exit code {code}")
        if code != expected["exit_code"]:
            reasons.append(f"exit code {code}, reference {expected['exit_code']}")
        if got["flags"] != expected["flags"]:
            names = sorted(set(got["flags"]) | set(expected["flags"]))
            diff = [n for n in names
                    if got["flags"].get(n) != expected["flags"].get(n)]
            reasons.append(f"flags differ: {diff}")
        if set(got["numbers"]) != set(expected["numbers"]):
            reasons.append("headline numbers missing or extra")
        for name, want in expected["numbers"].items():
            value = got["numbers"].get(name)
            if value is None or want is None:
                if value is not want:
                    reasons.append(f"{name} is {value}, reference {want}")
                continue
            d = rel_drift(value, want)
            drift = max(drift, d)
            if d > DRIFT_BOUND:
                reasons.append(f"{name} drifted by {d:.3g}")
    return {"failed": bool(reasons), "reasons": reasons, "max_rel_drift": drift}
