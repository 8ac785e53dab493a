"""The JSON network reader, which ingest.parse_branch_table imports when it
reads a JSON document, so that reading a delimited table loads neither this
module nor json.

It takes a list of plain branches (_plain_columns) a column at a time,
checked in bulk; any other list it reads entry by entry, converting each
value with _number, which names the key of a value that is not the number it
must be (a bool, a fraction for an id or node), and checking each row with
model._check_row. Number text is read by ingest._to_number, as in a
delimited table.
"""
from __future__ import annotations

import json
import math
from operator import eq, itemgetter

from .ingest import ParseError, _columns, _to_number
from .model import DataError, PerUnitBase, _check_row

# what int() and float() raise on a value they cannot convert
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _number(value, key: str, kind: type):
    """A JSON value as kind (int or float), or a ParseError naming its key.

    A bool is rejected, and so is a number with a fraction where an int is
    wanted; text is read by _to_number, as the delimited format reads it.
    """
    if type(value) is kind:
        return value
    # a float gets here only when kind is int
    if type(value) is not bool and (type(value) is not float or value.is_integer()):
        try:
            return _to_number(value, kind)
        except _BAD_VALUE:
            pass
    raise ParseError(f"bad value {value!r} for key {key!r}")


# readers of the keys of a plain JSON branch, in BranchRecord field order
_PLAIN_KEYS = tuple(map(itemgetter, ("id", "from", "to", "r", "x", "p", "q")))


def _plain_columns(branches: list) -> tuple[tuple, ...] | None:
    """The nine columns of branches read a column at a time, or None when any
    entry is not plain.

    Plain means every entry is an object with exactly the keys id, from, to,
    r, x, p and q, the id and both nodes exactly int and r, x, p and q
    exactly float, and the columns pass _check_row's tests in bulk: ids
    positive, the float columns' sum finite, no negative r or x and no
    branch from a node to itself. Such a document gives the rows the row
    loop gives it, with no error; every other is left to the row loop, which
    reads ties, cap, integral floats, number text and missing loads, and
    names the first bad entry.
    """
    try:
        if set(map(len, branches)) != {7}:
            return None
        ids, sending, receiving, r, x, p, q = [tuple(map(key, branches)) for key in _PLAIN_KEYS]
    except (TypeError, KeyError):  # an entry that is not an object, or has other keys
        return None
    if not ({*map(type, ids), *map(type, sending), *map(type, receiving)} == {int}
            and {*map(type, r), *map(type, x), *map(type, p), *map(type, q)} == {float}
            and min(ids) > 0
            and math.isfinite(sum(r) + sum(x) + sum(p) + sum(q))
            and min(r) >= 0.0 and min(x) >= 0.0
            and not any(map(eq, sending, receiving))):
        return None
    n = len(ids)
    return ids, sending, receiving, r, x, p, q, (None,) * n, (False,) * n


def _parse_json(text: str, source: str) -> tuple[tuple[tuple, ...], PerUnitBase | None, int | None]:
    """The columns, declared base and declared root of a JSON network document.

    Plain branches are read a column at a time (_plain_columns); any other
    list goes through the row loop, which converts each value with _number
    and checks each row with _check_row, naming the entry and key at fault.
    Text that json cannot decode is a ParseError.
    """
    # a JSONDecodeError is a ValueError, as is an integer of more digits than
    # int() converts; arrays or objects nested too deep raise RecursionError
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{source}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: expected a JSON object at the top level, got {type(doc).__name__}")
    base = None
    if "base" in doc:
        spec = doc["base"]
        try:
            base = PerUnitBase(kv_base=_number(spec["kv"], "kv", float),
                               mva_base=_number(spec["mva"], "mva", float))
        except (KeyError, TypeError, ParseError):  # not an object with two numbers
            raise ParseError(
                f'{source}: bad "base" {spec!r} (needs numbers "kv" and "mva")'
            ) from None
        except DataError as exc:  # numbers PerUnitBase rejects
            raise ParseError(f'{source}: bad "base" {spec!r}: {exc}') from None
    root = None
    if "root" in doc:
        try:
            root = _number(doc["root"], "root", int)
        except ParseError:
            raise ParseError(f'{source}: bad "root" {doc["root"]!r}') from None
    branches = doc.get("branches", [])
    if not isinstance(branches, list):
        raise ParseError(f"{source}: \"branches\" must be a list, got {type(branches).__name__}")
    columns = _plain_columns(branches)
    if columns is not None:
        return columns, base, root
    rows = []
    for index, entry in enumerate(branches):
        try:
            if not isinstance(entry, dict):
                raise ParseError(f"expected an object, got {type(entry).__name__}")
            is_tie = entry.get("open", False)
            if type(is_tie) is not bool:
                raise ParseError(f"bad value {is_tie!r} for key 'open'")
            cap = entry.get("cap")
            row = (
                _number(entry["id"], "id", int),
                _number(entry["from"], "from", int),
                _number(entry["to"], "to", int),
                _number(entry["r"], "r", float),
                _number(entry["x"], "x", float),
                0.0 if is_tie else _number(entry.get("p", 0.0), "p", float),
                0.0 if is_tie else _number(entry.get("q", 0.0), "q", float),
                None if cap is None else _number(cap, "cap", float),
                is_tie,
            )
            _check_row(*row)
        except KeyError as exc:
            raise ParseError(f"{source}: branches[{index}]: missing key {exc.args[0]!r}") from None
        except DataError as exc:  # a value _number or _check_row rejects
            raise ParseError(f"{source}: branches[{index}]: {exc}") from None
        rows.append(row)
    return _columns(rows), base, root
