"""Serialization helpers for reports: stable field order, exact rationals.

A value has one rendering in JSON and CSV: rationals as "num/den", floats
in their shortest round-trip form.  Only text lines round, to 12
significant digits (``sig12``).  Nothing here emits timestamps or other
run-dependent content, so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

__all__ = ["frac_text", "sig12", "jsonable", "render_json", "render_csv", "csv_cell"]


def frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def sig12(x) -> str:
    return format(float(x), ".12g")


def _numpy():
    """numpy if something has imported it, else None: without it loaded no
    value can be a numpy scalar or array, so reports never import it."""
    return sys.modules.get("numpy")


def jsonable(obj):
    """Recursively convert to JSON-encodable values, preserving dict order."""
    if isinstance(obj, Fraction):
        return frac_text(obj)
    np = _numpy()
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return obj


def render_json(report: dict) -> str:
    return json.dumps(jsonable(report), indent=2) + "\n"


def csv_cell(x) -> str:
    """The JSON value of x as a cell: empty for None, true/false for a bool."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(jsonable(x))


def render_csv(meta: dict, columns: list[str], rows: list[dict]) -> str:
    lines = []
    for key, value in meta.items():
        lines.append(f"# {key}={csv_cell(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(csv_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"
