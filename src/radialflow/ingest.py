"""Parsing, radial-topology validation, and sequential renumbering of branch tables.

validate_radial converts the closed branches, sorted by id, to per-unit and
builds the NetworkModel, whose construction checks the tree (model.radial_tree)
and derives the topology, the sequential-ordering verdict included;
validate_radial only reads that verdict. renumber_sequential runs the same
radial_tree on the same id-sorted branches, so both name the same first
defect, whatever the order of the rows; a value that cannot be put in per-unit
is a DataError that validate_radial raises before any topology check, as the
parser names bad values before anything else. renumber_sequential puts the
rows in one order, the closed branches as its walk from the root pops them and
then the tie lines by id, and derives the new rows and the whole mapping from
that order. The JSON reader converts each value with _number, which names the
key of a value that is not the number it must be (a bool, a fraction for an id
or node). Every defect found raises a typed error: ParseError or DataError for
bad input text and values, TopologyError (prefixed with the table's source)
for anything that is not a tree rooted at the requested root. TopologyError
and OrderingError live in model and are importable from here too.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from operator import attrgetter

from .model import (
    DEFAULT_BASE,
    BranchRecord,
    DataError,
    NetworkModel,
    OrderingError,
    PerUnitBase,
    TopologyError,
    radial_tree,
    to_per_unit,
)


_branch_id = attrgetter("branch_id")


class ParseError(DataError):
    """Malformed input text; carries the offending line number in the message."""


@dataclass(frozen=True)
class RawTable:
    """Parsed branch rows before validation, in physical units."""

    rows: tuple[BranchRecord, ...]
    source_name: str = "<memory>"
    declared_base: PerUnitBase | None = None
    declared_root: int | None = None

    def __post_init__(self):
        if not self.rows:
            raise DataError(f"{self.source_name}: empty branch table")
        seen = set()
        for r in self.rows:
            if r.branch_id in seen:
                raise DataError(f"{self.source_name}: duplicate branch id {r.branch_id}")
            seen.add(r.branch_id)

    def closed_rows(self) -> tuple[BranchRecord, ...]:
        return tuple(r for r in self.rows if not r.is_tie)

    def tie_rows(self) -> tuple[BranchRecord, ...]:
        return tuple(r for r in self.rows if r.is_tie)


def _parse_float(token: str, lineno: int, source: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{source}:{lineno}: bad numeric field {token!r}") from None


def _parse_int(token: str, lineno: int, source: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{source}:{lineno}: bad integer field {token!r}") from None


def _parse_delimited(text: str, source: str) -> tuple[BranchRecord, ...]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].replace(",", " ").split()
        if not tokens:  # blank, comment-only or commas only (a spreadsheet's empty row)
            continue
        head = tokens[0]
        is_tie = head.endswith("*")
        if is_tie:
            head = head[:-1]
        branch_id = _parse_int(head, lineno, source)
        if len(tokens) < 5:
            raise ParseError(f"{source}:{lineno}: expected at least 5 columns, got {len(tokens)}")
        sending = _parse_int(tokens[1], lineno, source)
        receiving = _parse_int(tokens[2], lineno, source)
        r_ohm = _parse_float(tokens[3], lineno, source)
        x_ohm = _parse_float(tokens[4], lineno, source)
        rest = [_parse_float(t, lineno, source) for t in tokens[5:]]
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
        try:
            rows.append(
                BranchRecord(
                    branch_id=branch_id,
                    sending_node=sending,
                    receiving_node=receiving,
                    resistance=r_ohm,
                    reactance=x_ohm,
                    load_p=p,
                    load_q=q,
                    capacity=cap,
                    is_tie=is_tie,
                )
            )
        except DataError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
    return tuple(rows)


# what int() and float() raise on a value they cannot convert
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _number(value, key: str, kind: type):
    """A JSON value as kind (int or float), or a ParseError naming its key.

    A bool is rejected, and so is a number with a fraction where an int is
    wanted; text is read by kind() as the delimited format reads it.
    """
    if type(value) is kind:
        return value
    # a float gets here only when kind is int
    if type(value) is not bool and (type(value) is not float or value.is_integer()):
        try:
            return kind(value)
        except _BAD_VALUE:
            pass
    raise ParseError(f"bad value {value!r} for key {key!r}")


def _parse_json(text: str, source: str) -> tuple[tuple[BranchRecord, ...], PerUnitBase | None, int | None]:
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
    rows = []
    for index, entry in enumerate(branches):
        try:
            if not isinstance(entry, dict):
                raise ParseError(f"expected an object, got {type(entry).__name__}")
            is_tie = entry.get("open", False)
            if type(is_tie) is not bool:
                raise ParseError(f"bad value {is_tie!r} for key 'open'")
            cap = entry.get("cap")
            rows.append(
                BranchRecord(
                    branch_id=_number(entry["id"], "id", int),
                    sending_node=_number(entry["from"], "from", int),
                    receiving_node=_number(entry["to"], "to", int),
                    resistance=_number(entry["r"], "r", float),
                    reactance=_number(entry["x"], "x", float),
                    load_p=0.0 if is_tie else _number(entry.get("p", 0.0), "p", float),
                    load_q=0.0 if is_tie else _number(entry.get("q", 0.0), "q", float),
                    capacity=None if cap is None else _number(cap, "cap", float),
                    is_tie=is_tie,
                )
            )
        except KeyError as exc:
            raise ParseError(f"{source}: branches[{index}]: missing key {exc.args[0]!r}") from None
        except DataError as exc:  # a value _number or BranchRecord rejects
            raise ParseError(f"{source}: branches[{index}]: {exc}") from None
    return tuple(rows), base, root


def parse_branch_table(text: str, fmt: str = "delimited", source_name: str = "<memory>") -> RawTable:
    """Parse a branch table from delimited text or the JSON network format.

    Delimited columns: branch from to r_ohm x_ohm p_kw q_kvar [cap_kva], with a
    trailing ``*`` on the branch number marking a tie line and ``#`` starting a
    comment. Tie rows may leave the load columns blank.
    """
    if fmt == "delimited":
        rows = _parse_delimited(text, source_name)
        return RawTable(rows=rows, source_name=source_name)
    if fmt == "json":
        rows, base, root = _parse_json(text, source_name)
        return RawTable(rows=rows, source_name=source_name, declared_base=base, declared_root=root)
    raise ValueError(f"unknown format {fmt!r}")


def format_branch_table(table: RawTable) -> str:
    """Serialize a RawTable back to the delimited format (a parse fixed point)."""
    lines = ["# branch from to r_ohm x_ohm p_kw q_kvar [cap_kva]"]
    for r in table.rows:
        head = f"{r.branch_id}*" if r.is_tie else f"{r.branch_id}"
        cols = [head, str(r.sending_node), str(r.receiving_node),
                repr(r.resistance), repr(r.reactance), repr(r.load_p), repr(r.load_q)]
        if r.capacity is not None:
            cols.append(repr(r.capacity))
        lines.append(" ".join(cols))
    return "\n".join(lines) + "\n"


def _root(table: RawTable, root: int | None) -> int:
    """The root to use: root if given, else the table's declared root, else 1."""
    if root is not None:
        return root
    return table.declared_root if table.declared_root is not None else 1


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
    require_ordered the sequential branch-numbering property is enforced
    (recoverable via renumber_sequential); otherwise it is only recorded on
    the model, as unordered_branch.
    """
    if base is None:
        base = table.declared_base if table.declared_base is not None else DEFAULT_BASE
    branches = tuple([to_per_unit(b, base) for b in sorted(table.closed_rows(), key=_branch_id)])
    try:
        net = NetworkModel(
            branches=branches,
            root=_root(table, root),
            tie_lines=tuple(sorted(table.tie_rows(), key=_branch_id)),
            base=base,
        )
    except TopologyError as exc:
        raise type(exc)(f"{table.source_name}: {exc}") from None
    if require_ordered and net.unordered_branch is not None:
        raise OrderingError(
            f"{table.source_name}: branch {net.unordered_branch} precedes the branch "
            f"feeding its sending node (run renumber_sequential)"
        )
    return net


@dataclass(frozen=True)
class RenumberMapping:
    """Old-to-new index maps produced by renumber_sequential."""

    node_old_to_new: dict[int, int]
    node_new_to_old: dict[int, int]
    branch_old_to_new: dict[int, int]

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
    """
    root = _root(table, root)
    ties = sorted(table.tie_rows(), key=_branch_id)
    try:
        _, out = radial_tree(sorted(table.closed_rows(), key=_branch_id), root, ties)
    except TopologyError as exc:
        raise type(exc)(f"{table.source_name}: {exc}") from None

    order = []
    heap = [(b.receiving_node, b) for b in out.get(root, ())]
    heapq.heapify(heap)
    while heap:
        _, b = heapq.heappop(heap)
        order.append(b)
        for child in out.get(b.receiving_node, ()):
            heapq.heappush(heap, (child.receiving_node, child))
    node_new_to_old = dict(enumerate([root, *(b.receiving_node for b in order)], start=1))
    new_node = {old: new for new, old in node_new_to_old.items()}
    order += ties

    rows = tuple(
        BranchRecord(
            branch_id=k,
            sending_node=new_node[b.sending_node],
            receiving_node=new_node[b.receiving_node],
            resistance=b.resistance,
            reactance=b.reactance,
            # a tie row may read -0.0, which format_branch_table would print; write 0.0
            load_p=0.0 if b.is_tie else b.load_p,
            load_q=0.0 if b.is_tie else b.load_q,
            capacity=b.capacity,
            is_tie=b.is_tie,
        )
        for k, b in enumerate(order, start=1)
    )
    mapping = RenumberMapping(
        node_old_to_new=new_node,
        node_new_to_old=node_new_to_old,
        branch_old_to_new={b.branch_id: k for k, b in enumerate(order, start=1)},
    )
    new_table = RawTable(
        rows=rows,
        source_name=table.source_name,
        declared_base=table.declared_base,
        declared_root=1 if table.declared_root is not None else None,
    )
    return new_table, mapping
