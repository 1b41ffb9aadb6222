"""Deterministic JSON/CSV writers.

All floats are rendered with 17 significant digits so that every double
round-trips exactly and repeated runs produce byte-identical files.
Non-finite floats map to JSON null (standard JSON has no Infinity/NaN).
"""

from __future__ import annotations

import math

import numpy as np


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    # normalize "-0" so output does not depend on the sign of zero; .17g of
    # a nonzero double always keeps a nonzero digit, so only zero prints 0
    if x == 0.0:
        return "0"
    return format(float(x), ".17g")


_INDENT = 2


def _render(obj, level: int) -> str:
    pad = " " * (_INDENT * (level + 1))
    close_pad = " " * (_INDENT * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, complex):
        return _render([obj.real, obj.imag], level)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        return _render(list(obj), level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}"{k}": {_render(v, level + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{_render(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def to_json_text(obj) -> str:
    return _render(obj, 0) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json_text(obj))


def write_csv(path, header: str, columns) -> None:
    """Write columns of floats under a comma-separated header line."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("csv columns must share a length")
    rows = zip(*[c.tolist() for c in cols])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(fmt_float, row)) + "\n" for row in rows)
