"""Serialization helpers for reports: stable field order, exact rationals.

Rationals render as "num/den" in JSON and text, and as decimals with 12
significant digits in CSV.  Nothing here emits timestamps or other
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
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return sig12(float(x))
    np = _numpy()
    if isinstance(x, float) or (np is not None and isinstance(x, np.floating)):
        return sig12(x)
    return str(x)


def render_csv(meta: dict, columns: list[str], rows: list[dict]) -> str:
    lines = []
    for key, value in meta.items():
        lines.append(f"# {key}={csv_cell(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(csv_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"
