"""Deterministic report serialization.

Reports are plain dicts rendered to canonical JSON (sorted keys, fixed
indentation, trailing newline) so that identical runs produce byte-identical
files.  Traces are written as plain CSV with repr-formatted floats.  No
timestamps, hostnames, or absolute paths ever enter a report.
"""

from __future__ import annotations

import json
import math
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np


def to_jsonable(obj):
    """Recursively convert dataclasses, arrays, and sets to JSON-safe data.

    Non-finite floats become strings ("inf", "-inf", "nan") so the output
    stays strict JSON.  Frozensets are emitted sorted for determinism.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (frozenset, set)):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in vars(obj).items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return str(obj)


def canonical_json(report: dict) -> str:
    return json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(report))


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    text = str(x)
    if any(c in text for c in ',"\r\n'):  # quote as RFC 4180 does
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(header, rows, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(csv_text(header, rows))
