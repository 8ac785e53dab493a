"""Parsing, radial-topology validation, and sequential renumbering of branch tables.

A RawTable keeps its rows as nine parallel columns, one per BranchRecord
field. Both parsers check each row with model._check_row, BranchRecord's own
checks (a list of plain JSON branches passes the same tests in bulk), and
store it in the columns; no record is built on this path.
validate_radial takes the closed branches' columns in id order, converts
them to per-unit in one pass (model._per_unit_columns) and hands the columns
to the NetworkModel, which keeps them as they are; no PerUnitBranch or Phasor
is built. The model's construction checks the tree (model.radial_tree) and
derives the topology, the sequential-ordering verdict included;
validate_radial refuses an unordered network through
NetworkModel.check_ordering. validate_radial finds the closed and tie rows
in id order with _by_id; renumber_sequential finds the closed rows in table
order and the tie rows in id order with _table_order, so only the ties are
sorted. Both take rows out of the columns in one way only, _gather, which
returns each column's entries at those row positions as a tuple. A table
whose ids ascend and whose tie rows come last, as the bundled feeders and
every renumbered table do, is already in id order: _by_id gives two ranges
and _gather slices, with no sort and no per-row gather. renumber_sequential
runs radial_tree on the closed rows in table order; its walk does not
depend on that order, but the defect named first does, so on a
TopologyError it runs radial_tree again on the id-sorted columns, and both
functions name the same first defect, whatever the order of the rows. A
value that cannot be put in per-unit is a DataError that validate_radial
raises before any topology check, as the parser names bad values before
anything else. renumber_sequential puts the rows in one order,
the closed branches as its walk from the root pops them and then the tie
lines by id, and gathers every column in that order; the new nodes and the
whole mapping are read off the gathered columns. The walk runs on radial_tree's
position lists: its frontier is a heap of node positions, which follow the
old node ids, and each node's children are a slice of the offsets-plus-
targets pair, so no id-keyed lookup is made until the mapping is built. The
JSON reader takes a list of plain branches (_plain_columns) a column at a
time, checked in bulk; any other list it reads entry by entry, converting
each value with _number, which names the key of a value that is not the
number it must be (a bool, a fraction for an id or node).
Number text, a table's or a golden CSV's, is read by _to_number alone.
Every defect found raises a typed error: ParseError or DataError for bad input
text and values, TopologyError (prefixed with the table's source) for anything
that is not a tree rooted at the requested root. TopologyError and OrderingError live in
model and are importable from here too.

A table's rows are checked once, when it is built: its rows and
validate_radial's tie lines are BranchRecords made by _records, without
_check_row.

RawTable is an immutable __slots__ class and RenumberMapping a namedtuple
record, both on model's bases (model._Frozen, model._Record); json is imported
by the JSON reader only, so reading a delimited table does not load it.
"""
from __future__ import annotations

import heapq
import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import compress, repeat
from operator import eq, itemgetter, lt, not_

from .model import (  # TopologyError and OrderingError are also ingest's names
    DEFAULT_BASE,
    BranchRecord,
    DataError,
    NetworkModel,
    OrderingError,
    PerUnitBase,
    TopologyError,
    _check_row,
    _check_unique,
    _Frozen,
    _per_unit_columns,
    _Record,
    radial_tree,
)


class ParseError(DataError):
    """Malformed input text; carries the offending line number in the message."""


class RawTable(_Frozen):
    """Parsed branch rows before validation, in physical units, as columns.

    columns holds nine parallel tuples, one per BranchRecord field in field
    order (branch_id, sending_node, receiving_node, resistance, reactance,
    load_p, load_q, capacity, is_tie); entry k of each is row k. The parsers
    and renumber_sequential fill the columns directly, and RawTable(rows=...)
    transposes BranchRecords, which are tuples of those fields (a row given
    as a plain tuple of them is checked with _check_row first). rows,
    closed_rows() and tie_rows() build equal BranchRecords on demand, so the
    objects a table keeps for the cyclic collector to track are a fixed few
    whatever its size. A table is immutable; it equals, and hashes as, the
    tuple of its four fields.
    """

    __slots__ = __match_args__ = ("columns", "source_name", "declared_base", "declared_root")

    def __init__(self, rows, source_name: str = "<memory>",
                 declared_base: PerUnitBase | None = None, declared_root: int | None = None):
        rows = tuple(rows)
        for row in rows:
            if type(row) is not BranchRecord:  # a record was checked when it was built
                _check_row(*row)
        self._fill(_columns(rows), source_name, declared_base, declared_root)

    def _fill(self, columns, source_name, declared_base=None, declared_root=None) -> None:
        """Check the ids (some rows, none repeated) and set the fields."""
        if not columns[0]:
            raise DataError(f"{source_name}: empty branch table")
        _check_unique(columns[0], f"{source_name}: ")
        object.__setattr__(self, "columns", tuple(map(tuple, columns)))
        object.__setattr__(self, "source_name", source_name)
        object.__setattr__(self, "declared_base", declared_base)
        object.__setattr__(self, "declared_root", declared_root)

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return RawTable._from_columns, self._values()

    def __repr__(self) -> str:
        return (f"RawTable(rows={self.rows!r}, source_name={self.source_name!r}, "
                f"declared_base={self.declared_base!r}, declared_root={self.declared_root!r})")

    @property
    def rows(self) -> tuple[BranchRecord, ...]:
        return _records(self.columns)

    def closed_rows(self) -> tuple[BranchRecord, ...]:
        return tuple(r for r in self.rows if not r.is_tie)

    def tie_rows(self) -> tuple[BranchRecord, ...]:
        return tuple(r for r in self.rows if r.is_tie)


def _to_number(value, kind: type):
    """kind(value), kind int or float, but a ValueError for text that only
    Python's own literals allow: a `_` digit separator or a non-ASCII
    character (a digit of another script, say)."""
    if type(value) is str and not (value.isascii() and "_" not in value):
        raise ValueError(f"not a plain number: {value!r}")
    return kind(value)


def _parse_token(token: str, kind: type, lineno: int, source: str, written: str = ""):
    """A delimited field as kind (int or float), or a ParseError naming the
    line and quoting the field as the line has it: written, when token was
    cut from it (a branch number without its tie marker), or else token."""
    try:
        return _to_number(token, kind)
    except ValueError:
        what = "integer" if kind is int else "numeric"
        raise ParseError(f"{source}:{lineno}: bad {what} field {written or token!r}") from None


def _parse_delimited(text: str, source: str) -> tuple[tuple, ...]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].replace(",", " ").split()
        if not tokens:  # blank, comment-only or commas only (a spreadsheet's empty row)
            continue
        head = tokens[0]
        is_tie = head.endswith("*")
        branch_id = _parse_token(head[:-1] if is_tie else head, int, lineno, source, head)
        if len(tokens) < 5:
            raise ParseError(f"{source}:{lineno}: expected at least 5 columns, got {len(tokens)}")
        sending, receiving = [_parse_token(t, int, lineno, source) for t in tokens[1:3]]
        r_ohm, x_ohm, *rest = [_parse_token(t, float, lineno, source) for t in tokens[3:]]
        p = q = 0.0
        cap = None
        if is_tie and len(rest) == 1:
            # tie rows in the bundled feeder tables leave the load columns blank
            cap = rest[0]
        elif len(rest) == 2:
            p, q = rest
        elif len(rest) == 3:
            p, q, cap = rest
        elif rest:
            raise ParseError(f"{source}:{lineno}: unexpected column count {len(tokens)}")
        row = (branch_id, sending, receiving, r_ohm, x_ohm, p, q, cap, is_tie)
        try:
            _check_row(*row)
        except DataError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
        rows.append(row)
    return _columns(rows)


def _columns(rows) -> tuple[tuple, ...]:
    """The nine columns of rows given as tuples of the BranchRecord fields."""
    return tuple(zip(*rows)) or ((),) * len(BranchRecord.__match_args__)


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
    """
    import json  # here, so that reading a delimited table does not load it

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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


def parse_branch_table(text: str, fmt: str = "delimited", source_name: str = "<memory>") -> RawTable:
    """Parse a branch table from delimited text or the JSON network format.

    Delimited columns: branch from to r_ohm x_ohm p_kw q_kvar [cap_kva], with a
    trailing ``*`` on the branch number marking a tie line and ``#`` starting a
    comment. Tie rows may leave the load columns blank.
    """
    if fmt == "delimited":
        return RawTable._from_columns(_parse_delimited(text, source_name), source_name)
    if fmt == "json":
        columns, base, root = _parse_json(text, source_name)
        return RawTable._from_columns(columns, source_name, base, root)
    raise ValueError(f"unknown format {fmt!r}")


def _root(table: RawTable, root: int | None) -> int:
    """The root to use: root if given, else the table's declared root, else 1."""
    if root is not None:
        return root
    return table.declared_root if table.declared_root is not None else 1


def _by_id(table: RawTable) -> tuple[Sequence[int], Sequence[int]]:
    """Positions of the closed rows and of the tie rows, each in id order.

    A table whose ids ascend and whose tie rows come last, as every bundled
    feeder and every renumbered table does, is in that order already: the
    positions are two ranges, which _gather takes by slicing. Any other table
    is sorted by id.
    """
    ids, *_, tie = table.columns
    closed = tie.count(False)  # a falsy is_tie that is not == False fails all() below
    if all(tie[closed:]) and all(map(lt, ids, ids[1:])):
        return range(closed), range(closed, len(ids))
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [k for k in order if not tie[k]], [k for k in order if tie[k]]


def _table_order(table: RawTable) -> tuple[Sequence[int], Sequence[int]]:
    """Positions of the closed rows in table order and of the tie rows in id
    order: a range and an empty range for a table with no tie rows, so that
    _gather slices; only the tie rows are sorted."""
    ids, *_, tie = table.columns
    if not any(tie):
        return range(len(ids)), range(0)
    positions = range(len(ids))
    return (list(compress(positions, map(not_, tie))),
            sorted(compress(positions, tie), key=ids.__getitem__))


def _gather(columns, positions) -> list[tuple]:
    """Each column's entries at positions, in that order, as a tuple: a range
    of positions, which _by_id and _table_order give, as a slice, and a list
    of two or more with one itemgetter."""
    if type(positions) is range:
        return [c[positions.start:positions.stop] for c in columns]
    if len(positions) < 2:  # itemgetter of one position gives no tuple
        return [tuple([c[k] for k in positions]) for c in columns]
    take = itemgetter(*positions)
    return [take(c) for c in columns]


def _records(columns) -> tuple[BranchRecord, ...]:
    """The BranchRecords of a RawTable's columns, or of columns gathered from
    them, built without running _check_row again: a table's rows were checked
    when it was built."""
    return tuple(map(tuple.__new__, repeat(BranchRecord), zip(*columns)))


def validate_radial(
    table: RawTable,
    root: int | None = None,
    base: PerUnitBase | None = None,
    require_ordered: bool = True,
) -> NetworkModel:
    """Validate the closed branches as a radial tree and build a NetworkModel.

    Every closed branch is converted to per-unit before the tree is checked,
    so a value that overflows on base is a DataError even in a table that is
    not a tree. Tie branches are set aside unenergized, sorted by id. With
    require_ordered the sequential branch-numbering property is enforced by
    NetworkModel.check_ordering (recoverable via renumber_sequential);
    otherwise it is only recorded on the model, as unordered_branch. Every
    TopologyError, OrderingError included, has the table's source in front of
    its text.
    """
    if base is None:
        base = table.declared_base if table.declared_base is not None else DEFAULT_BASE
    closed, ties = _by_id(table)
    # the closed rows' columns in id order, but for is_tie (false on each)
    ids, sending, receiving, r, x, p, q, cap = _gather(table.columns[:-1], closed)
    z, s_load = _per_unit_columns(ids, r, x, p, q, base)
    try:
        net = NetworkModel._from_columns(
            (ids, sending, receiving, z, s_load, cap),
            root=_root(table, root),
            tie_lines=_records(_gather(table.columns, ties)),
            base=base,
        )
        if require_ordered:
            net.check_ordering()
    except TopologyError as exc:  # OrderingError included
        raise type(exc)(f"{table.source_name}: {exc}") from None
    return net


def _tree(table: RawTable, closed, ties, root: int):
    """radial_tree of the table's closed rows at the positions closed and its
    tie rows at the positions ties, in those orders."""
    ends = table.columns[:3]  # branch id, sending and receiving node
    return radial_tree(*_gather(ends, closed), root, tuple(zip(*_gather(ends, ties))))


class RenumberMapping(_Record, namedtuple(
        "RenumberMapping", "node_old_to_new node_new_to_old branch_old_to_new")):
    """Old-to-new index maps produced by renumber_sequential."""

    __slots__ = ()

    def is_identity(self) -> bool:
        return all(o == n for o, n in self.node_old_to_new.items()) and all(
            o == n for o, n in self.branch_old_to_new.items()
        )


def renumber_sequential(table: RawTable, root: int | None = None) -> tuple[RawTable, RenumberMapping]:
    """Relabel nodes and branches so the sequential-ordering property holds.

    One order of the rows gives the new table and the whole mapping: the closed
    branches as a walk from the root pops them, the frontier expanded
    lowest-old-receiving-node first, then the tie lines by old id. Row k of the
    order gets id k; the root gets new node 1 and the receiving node of closed
    row k new node k+1. Tables that already satisfy the convention of the
    bundled feeder data (receiving node of branch j is j+1, laterals listed
    after their trunk) map to themselves.

    The tree is derived from the closed rows in table order and the tie rows
    in id order (_table_order), so only the tie rows are sorted: the walk
    does not depend on the order of the rows, as its heap holds node
    positions. Which defect radial_tree names first does, so a table that is
    not a tree is derived again in id order (_by_id), and the error names
    the defect validate_radial names.
    """
    root = _root(table, root)
    closed, ties = _table_order(table)
    try:
        try:
            _, index, _, _, feeding, offsets, targets = _tree(table, closed, ties, root)
        except TopologyError:
            closed, ties = _by_id(table)
            _, index, _, _, feeding, offsets, targets = _tree(table, closed, ties, root)
    except TopologyError as exc:
        raise type(exc)(f"{table.source_name}: {exc}") from None

    # node positions follow old ids, so a heap of positions pops the lowest old
    # receiving node first. Each node's children join the frontier and the
    # least of it is popped at once (heappushpop, which returns a child that
    # is already the least without a sift: a lateral's next node, mostly)
    popped = []
    heap = []
    i = index[root]
    while True:
        fed = targets[offsets[i]:offsets[i + 1]]
        if fed:
            for j in fed[1:]:
                heapq.heappush(heap, j)
            i = heapq.heappushpop(heap, fed[0])
        elif heap:
            i = heapq.heappop(heap)
        else:
            break
        popped.append(i)
    # the rows in the new order: the closed ones as the walk popped them,
    # then the ties
    walk = [closed[feeding[i]] for i in popped]
    ids, sending, receiving, r, x, p, q, cap = _gather(table.columns[:-1], [*walk, *ties])
    new_ids = range(1, len(ids) + 1)
    node_new_to_old = dict(enumerate((root, *receiving[:len(walk)]), start=1))
    new_node = {old: new for new, old in node_new_to_old.items()}

    # a tie carries no load: write 0.0, also where its row reads -0.0
    zeros = (0.0,) * len(ties)
    columns = (new_ids, [new_node[n] for n in sending], [new_node[n] for n in receiving], r, x,
               p[:len(walk)] + zeros, q[:len(walk)] + zeros, cap,
               [False] * len(walk) + [True] * len(ties))
    mapping = RenumberMapping(
        node_old_to_new=new_node,
        node_new_to_old=node_new_to_old,
        branch_old_to_new=dict(zip(ids, new_ids)),
    )
    new_table = RawTable._from_columns(
        columns,
        table.source_name,
        table.declared_base,
        1 if table.declared_root is not None else None,
    )
    return new_table, mapping
