import enum
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mpp import jsonio
from mpp.family import hrep_general, zero_parameter
from mpp.geometry import vertices
from mpp.jsonio import (SchemaError, dump, encode, hrep_to_json, jsonable, parameter_from_json,
                        parameter_to_json, partition_from_json, partition_to_json,
                        poset_from_json, poset_to_json, row_strs, vrep_to_json)
from mpp.rationals import rat_str


def ex52_json():
    return {"elements": ["0", "2", "3", "4", "p", "q", "r"],
            "covers": [["0", "p"], ["0", "q"], ["p", "r"], ["q", "r"],
                       ["2", "r"], ["r", "4"], ["p", "3"], ["q", "3"]],
            "marking": {"0": "0", "2": "2", "3": "3", "4": "4"}}


def test_poset_round_trip(ex52):
    data = poset_to_json(ex52)
    back = poset_from_json(data)
    assert back.elements == ex52.elements
    assert back.covers == ex52.covers
    assert back.marking == ex52.marking


def test_poset_accepts_fractional_marks():
    p = poset_from_json({"elements": ["a", "b"], "covers": [["a", "b"]],
                         "marking": {"a": "0", "b": "3/2"}})
    assert p.marking["b"] == Fraction(3, 2)
    assert poset_to_json(p)["marking"]["b"] == "3/2"


def test_poset_unknown_key_rejected():
    data = ex52_json()
    data["extra"] = 1
    with pytest.raises(SchemaError):
        poset_from_json(data)


def test_poset_missing_key_rejected():
    data = ex52_json()
    del data["marking"]
    with pytest.raises(SchemaError):
        poset_from_json(data)


def test_poset_bad_rational_rejected():
    data = ex52_json()
    data["marking"]["0"] = "0.5"
    with pytest.raises(SchemaError):
        poset_from_json(data)


def test_parameter_round_trip(ex52):
    t = parameter_from_json({"t": {"p": "1/2", "q": "0", "r": "1"}}, ex52)
    assert t["p"] == Fraction(1, 2)
    assert parameter_to_json(t) == {"t": {"p": "1/2", "q": "0", "r": "1"}}


def test_round_trips_keep_read_only_hashable_values(ex52):
    back = poset_from_json(poset_to_json(ex52))
    assert back == ex52 and hash(back) == hash(ex52)
    assert poset_to_json(back) == poset_to_json(ex52)
    assert poset_to_json(back)["marking"] == ex52_json()["marking"]
    data = {"t": {"p": "1/2", "q": "0", "r": "1"}}
    t = parameter_from_json(data, ex52)
    again = parameter_from_json(parameter_to_json(t), ex52)
    assert again == t and hash(again) == hash(t)
    assert parameter_to_json(again) == data
    with pytest.raises(TypeError):
        t.values["p"] = Fraction(7)  # would bypass the [0, 1] check
    with pytest.raises(TypeError):
        back.marking["p"] = Fraction(1)
    assert t["p"] == Fraction(1, 2) and "p" not in back.marking


def test_json_integers_are_rationals(ex52):
    # inputs may give an integer as a JSON number; output always writes strings
    data = ex52_json()
    data["marking"] = {"0": 0, "2": 2, "3": "3", "4": 4}
    poset = poset_from_json(json.dumps(data))
    assert poset.marking == ex52.marking
    assert poset_to_json(poset) == poset_to_json(ex52)
    t = parameter_from_json('{"t": {"p": "1/2", "q": 0, "r": 1}}', ex52)
    assert t.values == {"p": Fraction(1, 2), "q": 0, "r": 1}
    assert parameter_to_json(t) == {"t": {"p": "1/2", "q": "0", "r": "1"}}
    for bad in ('{"t": {"p": 0.5, "q": 0, "r": 1}}', '{"t": {"p": true, "q": 0, "r": 1}}'):
        with pytest.raises(SchemaError):
            parameter_from_json(bad, ex52)


def test_parameter_must_cover_unmarked(ex52):
    with pytest.raises(SchemaError):
        parameter_from_json({"t": {"p": "1/2"}}, ex52)
    with pytest.raises(SchemaError):
        parameter_from_json({"t": {"p": "0", "q": "0", "r": "0", "x": "0"}}, ex52)


def test_parameter_range_checked(ex52):
    with pytest.raises(SchemaError):
        parameter_from_json({"t": {"p": "2", "q": "0", "r": "0"}}, ex52)


def test_partition_round_trip(ex52):
    part = partition_from_json({"C": ["p"], "O": ["q", "r"]}, ex52)
    assert part.C == frozenset({"p"})
    assert partition_to_json(part) == {"C": ["p"], "O": ["q", "r"]}


def test_partition_must_partition(ex52):
    with pytest.raises(SchemaError):
        partition_from_json({"C": ["p"], "O": ["q"]}, ex52)


def test_hrep_vrep_emission(ex52):
    h = hrep_general(ex52, zero_parameter(ex52))
    data = hrep_to_json(h)
    assert data["coords"] == ["p", "q", "r"]
    assert all(set(row) == {"coeffs", "rhs", "origin"}
               for row in data["inequalities"])
    v = vrep_to_json(vertices(h))
    assert len(v["vertices"]) == 11
    assert v["rays"] == []
    # bit-exact round trip of serialized rationals
    text = json.dumps(data)
    assert json.loads(text) == data


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 6), st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=6))
def test_row_strs_equal_rat_str_of_the_fractions(den, xs):
    assert row_strs((den, *xs)) == [rat_str(Fraction(x, den)) for x in xs]


def test_vrep_emission_formats_the_rows_as_the_fractions(ex52):
    # interior t with mixed denominators: the rows share one denominator,
    # reduced per coordinate on output
    from mpp.family import Parameter
    t = Parameter({"p": Fraction(1, 3), "q": Fraction(2, 7), "r": Fraction(3, 5)})
    v = vertices(hrep_general(ex52, t, projected=True))
    assert v.rows[0][0] > 1
    assert vrep_to_json(v)["vertices"] == [[rat_str(x) for x in p] for p in v.vertices]


def test_jsonable_converts_fractions():
    data = jsonable({"a": Fraction(1, 2), "b": [Fraction(3), (Fraction(1, 3),)],
                     "c": frozenset({"x"})})
    assert data == {"a": "1/2", "b": ["3", ["1/3"]], "c": ["x"]}


# -- the CLI's JSON writer against json.dumps --------------------------------

def reference(obj) -> str:
    return json.dumps(jsonable(obj), indent=2, sort_keys=True)


@pytest.mark.parametrize("payload", [
    {"caf\u00e9": "na\u00efve \u2203x \U0001f600", "\u00fc": ["\u00e9", "\u4e2d"]},
    {'say "hi"': 'a "quoted" \\ back\\slash', "\\": "/"},
    {"tab\tnew\nline\x00\x1f\x7f": ["\r\b\f", "\x01"]},
    [True, 1, False, 0, None, [1, True], [0, False]],
    {"n": [-1, -(2 ** 70), 2 ** 64, 2 ** 200, 0]},
    {"a": [], "b": {}, "c": [[], [{}], {"d": []}], "": [[[]]]},
    ((1, 2), ("x", (3,)), ()),
    None,
    {"frac": [Fraction(-2, 3), Fraction(5)], "set": frozenset({Fraction(10), Fraction(9)})},
    {"z": 1, "a": {"y": 2, "b": [3, 4]}, "m": "s"},
    {1: "int key", "2": "str key", None: "null key", True: "bool key"},
    "top-level \u2603",
    -7,
], ids=["non-ascii", "quotes-backslashes", "control-chars", "bool-and-int",
        "big-ints", "empty-containers", "tuples", "none", "fractions",
        "sorted-keys", "non-str-keys", "bare-string", "bare-int"])
def test_encode_matches_json_dumps(payload):
    assert encode(payload) == reference(payload)


class Str(str):
    pass


class Level(enum.IntEnum):
    HIGH = 3


class Ratio(Fraction):
    pass


# objects whose values are all leaves are written in one join; a leaf of a
# subclass is written as the type it extends
@pytest.mark.parametrize("payload", [
    {"s": "x", "f": Fraction(-1, 3), "i": 7, "w": Fraction(4), "n": -(2 ** 70)},
    {"t": True, "f": False, "n": None},
    {"one": 1, "true": True, "zero": 0, "false": False},  # a bool is not an int here
    {"a": [], "o": {}},
    {'"': "quote", "\\": Fraction(1, 2), "\u00e9": 3, "\t": None},
    {1: "int", Fraction(1, 2): "fraction", None: "none", False: "bool"},
    {"outer": {"s": "x", "i": 1}, "rows": [{"f": Fraction(2, 5)}, {}]},
    [{"b": "1", "a": 2}, {"z": True}],
    {"s": Str("x"), "i": Level.HIGH, "f": Ratio(1, 3), "rows": [[Level.HIGH, 1]]},
], ids=["str-fraction-int", "constants", "bool-beside-int", "empty-containers",
        "escaped-keys", "non-str-keys", "nested", "in-a-list", "leaf-subclasses"])
def test_flat_objects_match_json_dumps(payload):
    assert encode(payload) == reference(payload)


@pytest.mark.parametrize("bad", [1.5, object(), {"a": [1, 2.0]}, [{1, 2}], b"bytes"])
def test_encode_rejects_what_it_cannot_write_exactly(bad):
    with pytest.raises(TypeError):
        encode(bad)


scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
           | st.text() | st.fractions())
payloads = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=5)
                   | st.frozensets(st.integers(), max_size=4)
                   | st.frozensets(st.fractions(), max_size=4)
                   | st.frozensets(st.integers() | st.text(max_size=2), max_size=3)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_encode_matches_json_dumps_on_random_trees(payload):
    try:
        expected = reference(payload)
    except TypeError:  # a frozenset mixing ints and strings cannot be sorted
        with pytest.raises(TypeError):
            encode(payload)
    else:
        assert encode(payload) == expected


# -- row blocks: lists of rows of exact ints or of exact strs -----------------

BLOCK = jsonio._BLOCK
ints = st.integers() | st.sampled_from([2 ** 200, -(2 ** 200), 0, -1])
strs = st.text(st.characters() | st.sampled_from('%"\\\u00e9\u4e2d\U0001f600'), max_size=6)


def rows_of(leaves):
    return st.lists(leaves, max_size=4) | st.lists(leaves, max_size=4).map(tuple)


@st.composite
def row_matrices(draw):
    """A list or tuple of rows, ragged and sometimes empty, with a row count
    on either side of the block size: a few drawn rows, repeated."""
    rows = draw(st.lists(rows_of(draw(st.sampled_from([ints, strs]))),
                         min_size=1, max_size=5))
    n = draw(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
             | st.integers(0, 3 * BLOCK))
    matrix = [rows[i % len(rows)] for i in range(n)]
    return draw(st.sampled_from([list, tuple]))(matrix)


def chunks_of(obj) -> list[str]:
    chunks = []
    dump(obj, chunks.append)
    return chunks


@settings(max_examples=150, deadline=None)
@given(row_matrices())
def test_row_blocks_match_json_dumps(matrix):
    for payload in (matrix, {"cells": [{"vertices": matrix, "dim": 1}]}):
        text = encode(payload)
        assert text == reference(payload)
        assert "".join(chunks_of(payload)) == text


@pytest.mark.parametrize("matrix", [
    [[i, -i, 2 ** 200] for i in range(2 * BLOCK + 3)],
    [("a%d" % i, '"%s"', "\u00e9") for i in range(2 * BLOCK + 3)],
], ids=["ints", "strs"])
@pytest.mark.parametrize("planted", [True, 1.5, Fraction(1, 3), "s", 7, None, [1]],
                         ids=["bool", "float", "fraction", "str", "int", "none", "list"])
def test_a_leaf_past_the_first_block_sends_the_matrix_down_the_item_path(matrix, planted):
    # the leaf types are read over the whole matrix before any of it is
    # written, so a bool still prints as true, a Fraction as a string, and
    # a float, which has no exact text, raises TypeError
    matrix = list(matrix)
    matrix[BLOCK + 3] = [*matrix[BLOCK + 3][:1], planted, *matrix[BLOCK + 3][2:]]
    if isinstance(planted, float):
        with pytest.raises(TypeError):
            encode(matrix)
    else:
        assert encode(matrix) == reference(matrix)
        assert "".join(chunks_of(matrix)) == reference(matrix)


def test_dump_streams_a_large_payload_in_chunks():
    payload = {"points": [[i, i + 1] for i in range(10 * BLOCK)],
               "cells": [{"tight": [i], "origin": ["chain", str(i)]}
                         for i in range(4 * jsonio._PIECES)]}
    chunks = chunks_of(payload)
    assert "".join(chunks) == reference(payload)
    assert len(chunks) > 10 and max(map(len, chunks)) < len(reference(payload)) // 4


def text_rows(depth, rows):
    start, sep, close = jsonio.row_pieces(depth, len(rows[0]) if rows else 0)
    return jsonio.TextRows(depth, [start + sep.join(map(str, r)) + close for r in rows])


@pytest.mark.parametrize("rows", [
    [], [[]], [[7]], [[i, -i, 2 ** 70] for i in range(2 * BLOCK + 3)]],
    ids=["none", "empty-row", "one-leaf", "blocks"])
def test_text_rows_write_as_the_int_rows(rows):
    # at depth 0, as the value of a top-level key, and one object further in
    for wrap, depth in ((lambda x: x, 0), (lambda x: {"points": x}, 1),
                        (lambda x: {"a": [{"points": x}]}, 3)):
        text = encode(wrap(text_rows(depth, rows)))
        assert text == reference(wrap(rows))
        assert "".join(chunks_of(wrap(text_rows(depth, rows)))) == text


def test_text_rows_are_written_in_blocks():
    rows = [[i, i + 1] for i in range(10 * BLOCK)]
    chunks = chunks_of({"points": text_rows(1, rows)})
    assert "".join(chunks) == reference({"points": rows})
    assert len(chunks) >= 10 and max(map(len, chunks)) < len("".join(chunks)) // 4


@pytest.mark.parametrize("n", [0, 1, 3 * BLOCK + 5], ids=["none", "one-row", "blocks"])
def test_rendered_text_rows_write_as_the_generic_writer_one_block_at_a_time(n):
    # the rows are ints, each rendered to the text of the row [i, -i, "i"]
    # only when its block is written, never all of them before the first write
    start, sep, close = jsonio.row_pieces(1, 3)
    rendered, chunks = [], []

    def render(i):
        rendered.append(i)
        return start + sep.join([str(i), str(-i), jsonio._string(str(i))]) + close

    def write(chunk):
        if not chunks:
            assert len(rendered) <= BLOCK
        chunks.append(chunk)

    dump({"points": jsonio.TextRows(1, list(range(n)), render)}, write)
    assert "".join(chunks) == reference({"points": [[i, -i, str(i)] for i in range(n)]})
    assert rendered == list(range(n))


@pytest.mark.parametrize("depth", [0, 2])
def test_text_rows_at_another_depth_are_refused(depth):
    with pytest.raises(AssertionError, match=f"depth {depth} written at depth 1"):
        encode({"points": text_rows(depth, [[1, 2]])})


def test_partition_from_json_text(ex52):
    part = partition_from_json('{"C": ["p"], "O": ["q", "r"]}', ex52)
    assert (part.C, part.O) == ({"p"}, {"q", "r"})
