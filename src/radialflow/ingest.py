"""Parsing and radial-topology validation of branch tables.

A RawTable keeps its rows as nine parallel columns, one per BranchRecord
field. Both parsers check each row with model._check_row, BranchRecord's own
checks (a list of plain JSON branches passes the same tests in bulk), and
store it in the columns; no record is built on this path.
validate_radial takes the closed branches' columns in id order, converts them
to per-unit in one call (model._closed_per_unit, which shares the held tree's
impedances when they were converted from equal columns on an equal z_base)
and hands the columns to the NetworkModel, which keeps them as they are; no
PerUnitBranch or Phasor is built. The model's construction checks the tree
(model.radial_tree) and derives the topology, the sequential-ordering verdict
included; validate_radial refuses an unordered network through
NetworkModel.check_ordering. validate_radial finds the closed and tie rows in
id order with _by_id, and takes rows out of the columns in one way only,
_gather, which returns each column's entries at those row positions as a
tuple. A table whose ids ascend and whose tie rows come last, as the bundled
feeders and every renumbered table do, is already in id order: _by_id gives
two ranges and _gather slices, with no sort and no per-row gather. A value
that cannot be put in per-unit is a DataError that validate_radial raises
before any topology check, as the parser names bad values before anything
else. Number text, a table's or a golden CSV's, is read by _to_number alone,
and an input file's text by _read_text.
Every defect found raises a typed error: ParseError or DataError for bad input
text and values, TopologyError (prefixed with the table's source) for anything
that is not a tree rooted at the requested root. TopologyError and OrderingError live in
model and are importable from here too.

A table's rows are checked once, when it is built: its rows and
validate_radial's tie lines are BranchRecords that _record builds from the
columns without _check_row. A validated network's tie_lines is a
model.RowView over the tie rows' gathered columns, so no tie record is built
until one is read; the tie lines' ends for the topology key are read off
those columns.

RawTable is an immutable __slots__ class on model's base model._Frozen. Two
parts live in modules of their own, loaded on first use, so that reading and
validating a delimited table loads neither: the JSON reader
(radialflow._json_reader, with json), which parse_branch_table imports for a
JSON document, and renumber_sequential with RenumberMapping
(radialflow._renumber, with heapq), which this module forwards by name
(PEP 562).
"""
from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter, lt

from .model import (  # TopologyError and OrderingError are also ingest's names
    DEFAULT_BASE,
    BranchRecord,
    DataError,
    NetworkModel,
    OrderingError,
    PerUnitBase,
    RowView,
    TopologyError,
    _check_row,
    _check_unique,
    _closed_per_unit,
    _Frozen,
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
    as a plain tuple of them is checked with _check_row first, and one of
    another length is a DataError naming it). rows,
    closed_rows() and tie_rows() build equal BranchRecords on demand, so the
    objects a table keeps for the cyclic collector to track are a fixed few
    whatever its size. A table is immutable; it equals, and hashes as, the
    tuple of its four fields.
    """

    __slots__ = __match_args__ = ("columns", "source_name", "declared_base", "declared_root")

    def __init__(self, rows, source_name: str = "<memory>",
                 declared_base: PerUnitBase | None = None, declared_root: int | None = None):
        rows = tuple(rows)
        for k, row in enumerate(rows):
            if type(row) is not BranchRecord:  # a record was checked when it was built
                try:
                    _check_row(*row)
                except TypeError:  # not nine values: _check_row names one of another type
                    raise DataError(
                        f"{source_name}: row {k} {row!r}: a row needs the nine BranchRecord "
                        f"fields ({', '.join(BranchRecord._fields)})") from None
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
        return tuple(RowView(_record, self.columns))

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


def _read_text(path) -> str:
    """The UTF-8 text of an input file (a str or a Path) without a leading
    byte-order mark, or a ParseError naming the file when it cannot be opened
    or is not UTF-8; the CLI's read_text, here so that read_golden reads with
    it without importing cli."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


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


def parse_branch_table(text: str, fmt: str = "delimited", source_name: str = "<memory>") -> RawTable:
    """Parse a branch table from delimited text or the JSON network format.

    Delimited columns: branch from to r_ohm x_ohm p_kw q_kvar [cap_kva], with a
    trailing ``*`` on the branch number marking a tie line and ``#`` starting a
    comment. Tie rows may leave the load columns blank.
    """
    if fmt == "delimited":
        return RawTable._from_columns(_parse_delimited(text, source_name), source_name)
    if fmt == "json":
        from ._json_reader import _parse_json  # here, so that a delimited table does not load it

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


def _record(columns, k) -> BranchRecord:
    """The BranchRecord at position k of a RawTable's columns, or of columns
    gathered from them, built without running _check_row again: a table's
    rows were checked when it was built."""
    return tuple.__new__(BranchRecord, [c[k] for c in columns])


def validate_radial(
    table: RawTable,
    root: int | None = None,
    base: PerUnitBase | None = None,
    require_ordered: bool = True,
) -> NetworkModel:
    """Validate the closed branches as a radial tree and build a NetworkModel.

    Every closed branch is converted to per-unit before the tree is checked,
    so a value that overflows on base is a DataError even in a table that is
    not a tree; model._closed_per_unit converts them, sharing the held tree's
    impedances when they were converted from equal columns on an equal
    z_base. Tie branches are set aside unenergized, sorted by id. With
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
    z, s_load = _closed_per_unit(ids, r, x, p, q, base)
    tie_columns = tuple(_gather(table.columns, ties))
    try:
        net = NetworkModel._from_columns(
            (ids, sending, receiving, z, s_load, cap),
            root=_root(table, root),
            tie_lines=RowView(_record, tie_columns),
            base=base,
            tie_ends=tuple(zip(*tie_columns[:3])),
        )
        if require_ordered:
            net.check_ordering()
    except TopologyError as exc:  # OrderingError included
        raise type(exc)(f"{table.source_name}: {exc}") from None
    return net


_RENUMBER = ("renumber_sequential", "RenumberMapping")


def __getattr__(name):
    # renumbering is imported on first use, so reading and validating a
    # table does not load it (PEP 562)
    if name in _RENUMBER:
        from . import _renumber

        return getattr(_renumber, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
