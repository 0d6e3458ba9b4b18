"""Strict JSON schemas for posets, parameters, partitions and geometry data.

Rationals travel as strings ("3", "-1/2") and round-trip bit-exactly; on
input a JSON integer is accepted too.  Unknown keys are rejected so that
typos fail loudly.  `dump` streams the CLI's indented output; `encode`
joins it.  A list whose rows a caller renders itself, with `row_pieces`,
travels as `TextRows`: rows that are finished text are written as they
are, other rows go through the caller's render one block at a time, so
the whole text is never held.  A list of rows whose leaves share one
scalar type is rendered the same way, one block of rows at a time, and
written by the same loop; a list of scalars of one type, and an object of
scalars, are written in one join.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from .family import Parameter, Partition
from .geometry import HRep, VRep
from .poset import MarkedPoset, PosetError
from .rationals import rat, rat_str


class SchemaError(ValueError):
    pass


def _expect_keys(obj, required: set[str], what: str) -> dict:
    """obj, or the object its JSON text encodes, with exactly the keys required."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    missing, unknown = required - set(obj), set(obj) - required
    if missing:
        raise SchemaError(f"{what} misses keys {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{what} has unknown keys {sorted(unknown)}")
    return obj


def poset_from_json(data) -> MarkedPoset:
    data = _expect_keys(data, {"elements", "covers", "marking"}, "poset")
    elements = data["elements"]
    if (not isinstance(elements, list)
            or not all(isinstance(e, str) for e in elements)):
        raise SchemaError("elements must be a list of strings")
    covers = data["covers"]
    if (not isinstance(covers, list)
            or not all(isinstance(c, list) and len(c) == 2
                       and all(isinstance(e, str) for e in c) for c in covers)):
        raise SchemaError("covers must be a list of [lower, upper] pairs")
    marking = data["marking"]
    if not isinstance(marking, dict):
        raise SchemaError("marking must map elements to rational strings")
    try:
        lam = {k: rat(v) for k, v in marking.items()}
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad marking value: {exc}") from exc
    try:
        return MarkedPoset(tuple(elements), frozenset(map(tuple, covers)), lam)
    except PosetError as exc:
        raise SchemaError(str(exc)) from exc


def poset_to_json(poset: MarkedPoset) -> dict:
    return {
        "elements": list(poset.elements),
        "covers": [list(c) for c in sorted(poset.covers)],
        "marking": {a: rat_str(poset.marking[a]) for a in sorted(poset.marking)},
    }


def parameter_from_json(data, poset: MarkedPoset) -> Parameter:
    data = _expect_keys(data, {"t"}, "parameter")
    t = data["t"]
    if not isinstance(t, dict):
        raise SchemaError("t must map unmarked elements to rational strings")
    if set(t) != set(poset.unmarked):
        raise SchemaError(f"t must assign exactly the unmarked elements "
                          f"{sorted(poset.unmarked)}")
    try:
        return Parameter({k: rat(v) for k, v in t.items()})
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from exc


def parameter_to_json(t: Parameter) -> dict:
    return {"t": {k: rat_str(v) for k, v in sorted(t.values.items())}}


def partition_from_json(data, poset: MarkedPoset) -> Partition:
    data = _expect_keys(data, {"C", "O"}, "partition")
    for key in ("C", "O"):
        if not isinstance(data[key], list) or not all(isinstance(e, str) for e in data[key]):
            raise SchemaError(f"{key} must be a list of element names")
    part = Partition(frozenset(data["C"]), frozenset(data["O"]))
    if part.C | part.O != frozenset(poset.unmarked):
        raise SchemaError("C and O must partition the unmarked elements")
    return part


def partition_to_json(part: Partition) -> dict:
    return {"C": sorted(part.C), "O": sorted(part.O)}


def ratio_str(x: int, den: int) -> str:
    """rat_str of x / den for den > 0, reduced by the gcd, without building
    the Fraction."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def hrep_to_json(h: HRep) -> dict:
    def row(r, scale, origin):
        coeffs = {name: ratio_str(x, scale) for name, x in zip(h.coords, r[1:]) if x}
        return {"coeffs": coeffs, "rhs": ratio_str(-r[0], scale), "origin": list(origin)}

    return {"coords": list(h.coords),
            "equations": [row(*c) for c in h.scaled_equations],
            "inequalities": [row(*c) for c in h.scaled_inequalities]}


def row_strs(row) -> list[str]:
    """The rational strings x_i / D of the point of an integer row (D, D * x)."""
    den = row[0]
    if den == 1:
        return list(map(str, row[1:]))
    return [ratio_str(x, den) for x in row[1:]]


def vrep_to_json(v: VRep) -> dict:
    return {"coords": list(v.coords),
            "vertices": [row_strs(r) for r in v.rows],
            "rays": [list(map(str, r)) for r in v.rays]}


def jsonable(obj):
    """Recursively convert Fractions to rational strings for emission."""
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(jsonable(x) for x in obj)
    return obj


def row_pieces(depth: int, width: int) -> tuple[str, str, str]:
    """(open, separator, close) of a row of width leaves in a list at depth
    (0 for the top-level value, 1 for a value of its object, ...): the row
    whose leaves have the JSON texts ts is open + separator.join(ts) + close."""
    if not width:
        return "[]", "", ""
    leaf = "\n" + "  " * (depth + 2)
    return "[" + leaf, "," + leaf, "\n" + "  " * (depth + 1) + "]"


class TextRows:
    """A list at depth whose rows are text for that depth, built from
    row_pieces(depth, width) or the like: finished strs, or, with render,
    any objects that render turns into that text, called on one _BLOCK of
    rows at a time just before the block is written.  dump raises
    AssertionError if the list sits at another depth."""
    __slots__ = ("depth", "rows", "render")

    def __init__(self, depth: int, rows: list, render=None):
        self.depth, self.rows, self.render = depth, rows, render


_string = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
# the text of a leaf by its exact type; a bool is not written as an int
_LEAF = {str: _string, int: int.__repr__, Fraction: lambda x: _string(rat_str(x)),
         bool: _CONSTANTS.__getitem__, type(None): _CONSTANTS.__getitem__}
_LEAVES = frozenset(_LEAF)
_PIECES = 1024  # pieces held before they go to write
_BLOCK = 256  # rows rendered and written together


def encode(obj) -> str:
    """json.dumps(jsonable(obj), indent=2, sort_keys=True), byte for byte,
    without the pure-Python encoder that json.dumps falls back to when it
    indents.  Floats and objects jsonable leaves alone raise TypeError."""
    chunks = []
    dump(obj, chunks.append)
    return "".join(chunks)


def dump(obj, write) -> None:
    """Write encode(obj) through write in chunks, one per row block or
    _PIECES pieces, never the whole text; a TypeError may follow some."""
    out = []
    _write(obj, out, "\n", write)
    write("".join(out))


def _write(obj, out: list, nl: str, write) -> None:
    """Append obj's text to out; nl is a newline and the current indent."""
    if len(out) >= _PIECES:
        write("".join(out))
        out.clear()
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out, nl, write)
    elif isinstance(obj, dict):
        _write_dict(obj, out, nl, write)
    elif isinstance(obj, (str, int, Fraction)):  # a subclass: as the type it extends
        out.append(_LEAF[next(t for t in (str, int, Fraction) if isinstance(obj, t))](obj))
    elif isinstance(obj, frozenset):
        _write_list(jsonable(obj), out, nl, write)
    elif type(obj) is TextRows:
        if len(nl) // 2 != obj.depth:  # nl is a newline and two spaces a level
            raise AssertionError(f"rows rendered for depth {obj.depth} written at "
                                 f"depth {len(nl) // 2}")
        _write_text_rows(obj.rows, out, nl, write, obj.render)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_list(items, out: list, nl: str, write) -> None:
    if not items:
        out.append("[]")
        return
    inner = nl + "  "
    kinds = set(map(type, items))
    if len(kinds) == 1 and kinds <= _LEAVES:
        out.append("[" + inner + ("," + inner).join(map(_LEAF[kinds.pop()], items)) + nl + "]")
        return
    if kinds <= {list, tuple}:
        leaves = set(map(type, itertools.chain.from_iterable(items)))
        if len(leaves) <= 1 and leaves <= _LEAVES:  # no leaves: every row is empty
            leaf = _LEAF[leaves.pop()] if leaves else str
            pieces = {w: row_pieces(len(nl) // 2, w) for w in set(map(len, items))}

            def render(row):
                start, sep, close = pieces[len(row)]
                return start + sep.join(map(leaf, row)) + close

            _write_text_rows(items, out, nl, write, render)
            return
    sep = "[" + inner
    for x in items:
        out.append(sep)
        _write(x, out, inner, write)
        sep = "," + inner
    out.append(nl + "]")


def _write_text_rows(rows: list, out: list, nl: str, write, render=None) -> None:
    """Write a list at nl whose rows are text, or become text by render one
    _BLOCK at a time; each block is written together with what out holds."""
    if not rows:
        out.append("[]")
        return
    join = ("," + nl + "  ").join
    sep = "[" + nl + "  "
    for i in range(0, len(rows), _BLOCK):
        block = rows[i:i + _BLOCK]
        out.append(sep + join(block if render is None else map(render, block)))
        write("".join(out))
        out.clear()
        sep = "," + nl + "  "
    out.append(nl + "]")


def _write_dict(mapping, out: list, nl: str, write) -> None:
    if not all(type(k) is str for k in mapping):
        mapping = {str(k): v for k, v in mapping.items()}
    if not mapping:
        out.append("{}")
        return
    inner, keys = nl + "  ", sorted(mapping)
    if _LEAVES.issuperset(map(type, mapping.values())):  # leaves alone: one join
        out.append("{" + inner + ("," + inner).join(
            [_string(k) + ": " + _LEAF[type(mapping[k])](mapping[k]) for k in keys]) + nl + "}")
        return
    sep = "{" + inner
    for key in keys:
        out.append(sep + _string(key) + ": ")
        _write(mapping[key], out, inner, write)
        sep = "," + inner
    out.append(nl + "}")
