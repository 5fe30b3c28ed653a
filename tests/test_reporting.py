"""Canonical report JSON and trace CSV."""

import csv
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from sharpmin.reporting import canonical_json, csv_text, to_jsonable, write_csv, write_report


def test_non_finite_floats_become_strings():
    assert to_jsonable([float("inf"), -float("inf"), float("nan"), 1.5]) == \
        ["inf", "-inf", "nan", 1.5]
    assert to_jsonable(np.float64("-inf")) == "-inf"


def test_nested_tuples_and_arrays_become_lists():
    obj = {"a": ((1, 2.0), np.array([[0.5, np.inf], [-1.0, 2.0]])), "b": np.array([3, 4])}
    assert to_jsonable(obj) == {"a": [[1, 2.0], [[0.5, "inf"], [-1.0, 2.0]]], "b": [3, 4]}
    assert to_jsonable({1: None, "x": True}) == {"1": None, "x": True}


def test_canonical_json_sorts_keys_and_ends_with_a_newline():
    text = canonical_json({"b": 1, "a": {"d": (2,), "c": None}})
    assert text == '{\n  "a": {\n    "c": null,\n    "d": [\n      2\n    ]\n  },\n  "b": 1\n}\n'
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


@pytest.mark.parametrize("value", [
    {1, 2}, frozenset({1}), SimpleNamespace(a=1), np.int64(3), np.bool_(True), object(),
], ids=lambda v: type(v).__name__)
def test_other_types_are_refused(value):
    with pytest.raises(TypeError, match=type(value).__name__):
        canonical_json({"key": [value]})


def test_csv_cells_quoted_as_rfc_4180():
    rows = [(0.1, "plain", 'say "hi"', "a,b", "two\nlines", None, 3)]
    text = csv_text(("x", "y", "z", "w", "v", "u", "t"), rows)
    assert text == ('x,y,z,w,v,u,t\n0.1,plain,"say ""hi""","a,b","two\nlines",None,3\n')
    assert list(csv.reader(io.StringIO(text)))[1] == \
        ["0.1", "plain", 'say "hi"', "a,b", "two\nlines", "None", "3"]
    assert csv_text(("r",), [(1 / 3,)]) == f"r\n{1 / 3!r}\n"  # floats keep every digit


def test_csv_numpy_floats_written_as_python_floats():
    assert csv_text(("a", "b"), [(np.float64(0.1), np.float64(1 / 3))]) == \
        f"a,b\n0.1,{1 / 3!r}\n"
    assert csv_text(("a",), [(np.float64("inf"),)]) == "a\ninf\n"


def test_writers_create_the_directory(tmp_path):
    write_report({"x": float("nan")}, tmp_path / "a" / "report.json")
    write_csv(("r",), [(1.0,)], tmp_path / "b" / "trace.csv")
    assert json.loads((tmp_path / "a" / "report.json").read_text()) == {"x": "nan"}
    assert (tmp_path / "b" / "trace.csv").read_text() == "r\n1.0\n"
