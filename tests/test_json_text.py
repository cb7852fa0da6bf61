"""The JSON summary writer, ``cli._json_text``, against its reference.

Every summary is written by ``_json_text``, and its bytes must be those
of ``json.dumps(value, indent=2, default=_jsonable)``: floats (numpy's
too) as ``float.__repr__`` or ``NaN``/``Infinity``/``-Infinity``, str,
int, bool and None as json writes them, dataclasses as the mapping of
their fields, complex numbers as ``[re, im]`` and containers one member
per line.  What ``_jsonable`` refuses, the writer refuses too.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstnet.cli import _json_text, _jsonable


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclasses.dataclass(frozen=True)
class Single:
    value: object


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


@dataclasses.dataclass(frozen=True)
class Node:
    name: str
    point: Point
    members: tuple
    amplitude: complex


def reference(value) -> str:
    return json.dumps(value, indent=2, default=_jsonable)


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
    1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e-7,
]
STRINGS = ["", "é", "ünïcödé ∑", "日本", "\n\t\r", '"quoted" \\ back', "\x00\x1f", "\ud800", "😀"]

floats = (
    st.floats()
    | st.sampled_from(SPECIAL_FLOATS)
    | st.floats(allow_nan=False).map(np.float64)
    | st.sampled_from(SPECIAL_FLOATS).map(np.float64)
)
scalars = (
    floats
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(STRINGS)
    | st.complex_numbers()
)
keys = st.text() | st.sampled_from(STRINGS) | st.integers() | floats | st.booleans() | st.none()
points = st.builds(Point, floats, floats)


def containers(children):
    members = st.lists(children, max_size=5)
    return (
        members
        | members.map(tuple)
        | st.lists(floats, max_size=6)
        | st.dictionaries(keys, children, max_size=5)
        | st.builds(Single, children)
        | st.builds(Node, st.text(), points, members.map(tuple), st.complex_numbers())
    )


values = st.recursive(scalars | points | st.just(Empty()), containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(values)
def test_writes_the_bytes_of_json_dumps(value):
    assert _json_text(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [[], {}, (), Empty(), [[]], {"a": {}}, Single([]), [(), [[], {}]]],
    ids=repr,
)
def test_empty_containers(value):
    assert _json_text(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        [1.0, 2.5, -0.0, 1e300],  # all finite: one join over float.__repr__
        [1.0, math.nan, 2.0],
        [1.0, math.inf],
        [1e308, np.float64(1e308)],  # finite, though their sum overflows
        [np.float64(0.1), 0.2],
        Point(0.5, -0.25),
        Point(math.nan, 1.0),
        Point(-math.inf, np.float64(1.5)),
        [True, 1.0],
        [1, 1.0],
        (1 + 2j, complex(math.nan, -0.0)),
    ],
    ids=repr,
)
def test_float_members_with_and_without_the_one_join(value):
    assert _json_text({"v": value, "n": [value]}) == reference({"v": value, "n": [value]})


@pytest.mark.parametrize(
    "value",
    [object(), {1, 2}, b"bytes", np.int64(3), np.bool_(True), Point, [0.5, object()],
     {"a": Single(frozenset())}],
    ids=repr,
)
def test_a_value_jsonable_refuses_raises_type_error(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        _json_text(value)


def test_a_key_json_refuses_raises_type_error():
    value = {(1, 2): 0.5}
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        _json_text(value)
