"""Deterministic report serialization.

Reports are plain dicts rendered to canonical JSON (sorted keys, fixed
indentation, trailing newline) so that identical runs produce byte-identical
files.  Traces are written as plain CSV with repr-formatted floats.  No
timestamps, hostnames, or absolute paths ever enter a report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class Check:
    """Outcome of one sampled check: its name, how many items it scored, the
    failing items with their witnesses, and the check's own counters for the
    report.  ``passed`` means no failure was found; it certifies nothing."""

    name: str
    checked: int
    failures: tuple
    counters: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def witness(self):
        return self.failures[0] if self.failures else None


def to_jsonable(obj):
    """Recursively convert a report's dicts, lists, tuples and arrays to
    JSON-safe data.

    Non-finite floats become strings ("inf", "-inf", "nan") so the output
    stays strict JSON.  Any other type raises ``TypeError`` rather than
    being written as its ``str``, which could hold a memory address.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"a report cannot hold {type(obj).__name__}")


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
    if isinstance(x, float):  # a numpy float's own repr is np.float64(...)
        return float.__repr__(x)
    text = str(x)
    if any(c in text for c in ',"\r\n'):  # quote as RFC 4180 does
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(header, rows, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(csv_text(header, rows))
