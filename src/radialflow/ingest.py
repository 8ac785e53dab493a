"""Parsing, radial-topology validation, and sequential renumbering of branch tables.

validate_radial and renumber_sequential share one tree check, _check_tree,
which builds the adjacency in a single pass over the closed branches: the
branch feeding each node, and the branches leaving each sending node. The walk
from the root, the tie-line check and renumber_sequential's relabelling reuse
that adjacency. validate_radial sorts the closed branches by id once; the
ordering check, the children tuples (in id order, without a sort per node) and
the per-unit branches all come from that one sorted list. Every defect found
raises a typed error: ParseError or DataError for bad input text and values,
TopologyError for anything that is not a tree rooted at the requested root.
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
    LoadFlowError,
    NetworkModel,
    PerUnitBase,
    to_per_unit,
)


_branch_id = attrgetter("branch_id")


class ParseError(DataError):
    """Malformed input text; carries the offending line number in the message."""


class TopologyError(LoadFlowError):
    """Closed branches do not form a tree rooted at the requested root."""


class OrderingError(TopologyError):
    """Tree is radial but violates the sequential branch-numbering property."""


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
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
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


def _parse_json(text: str, source: str) -> tuple[tuple[BranchRecord, ...], PerUnitBase | None, int | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: expected a JSON object at the top level, got {type(doc).__name__}")
    base = None
    if "base" in doc:
        try:
            base = PerUnitBase(kv_base=float(doc["base"]["kv"]), mva_base=float(doc["base"]["mva"]))
        except (KeyError, *_BAD_VALUE):
            raise ParseError(
                f"{source}: bad \"base\" {doc['base']!r} (needs numbers \"kv\" and \"mva\")"
            ) from None
    root = None
    if "root" in doc:
        try:
            root = int(doc["root"])
        except _BAD_VALUE:
            raise ParseError(f"{source}: bad \"root\" {doc['root']!r}") from None
    branches = doc.get("branches", [])
    if not isinstance(branches, list):
        raise ParseError(f"{source}: \"branches\" must be a list, got {type(branches).__name__}")
    rows = []
    for index, entry in enumerate(branches):
        try:
            is_tie = bool(entry.get("open", False))
            cap = entry.get("cap")
            rows.append(
                BranchRecord(
                    branch_id=int(entry["id"]),
                    sending_node=int(entry["from"]),
                    receiving_node=int(entry["to"]),
                    resistance=float(entry["r"]),
                    reactance=float(entry["x"]),
                    load_p=0.0 if is_tie else float(entry.get("p", 0.0)),
                    load_q=0.0 if is_tie else float(entry.get("q", 0.0)),
                    capacity=float(cap) if cap is not None else None,
                    is_tie=is_tie,
                )
            )
        except (AttributeError, KeyError, *_BAD_VALUE) as exc:
            raise _json_entry_error(entry, f"{source}: branches[{index}]", exc) from None
    return tuple(rows), base, root


def _json_entry_error(entry, where: str, exc: Exception) -> ParseError:
    """The ParseError naming the key of a JSON branch entry that could not be read."""
    if not isinstance(entry, dict):
        return ParseError(f"{where}: expected an object, got {type(entry).__name__}")
    if isinstance(exc, KeyError):
        return ParseError(f"{where}: missing key {exc.args[0]!r}")
    for key in ("id", "from", "to", "r", "x", "p", "q", "cap"):
        value = entry.get(key)
        if key not in entry or (key == "cap" and value is None) or (
            key in ("p", "q") and entry.get("open", False)
        ):
            continue
        try:
            (int if key in ("id", "from", "to") else float)(value)
        except _BAD_VALUE:
            return ParseError(f"{where}: bad value {value!r} for key {key!r}")
    return ParseError(f"{where}: {exc}")


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


def _check_tree(closed: tuple[BranchRecord, ...], root: int, source: str):
    """Verify the closed branches form a tree rooted at root.

    One pass over closed builds the adjacency. Returns (incoming, out): the
    branch feeding each node, and the branches leaving each sending node in
    input order. Raises TopologyError naming a doubly-fed node, a cycle edge,
    or a node with no feeding branch otherwise.
    """
    incoming: dict[int, BranchRecord] = {}
    out: dict[int, list[BranchRecord]] = {}
    for b in closed:
        r = b.receiving_node
        if r in incoming:
            raise TopologyError(
                f"{source}: node {r} is fed by branches {incoming[r].branch_id} and {b.branch_id}"
            )
        incoming[r] = b
        siblings = out.get(b.sending_node)
        if siblings is None:
            out[b.sending_node] = [b]
        else:
            siblings.append(b)
    if root in incoming:
        edge = incoming[root]
        raise TopologyError(
            f"{source}: cycle through branch {edge.branch_id} "
            f"({edge.sending_node}->{edge.receiving_node}) feeding the root"
        )
    # every node but the root has exactly one feeding branch, so the walk from
    # the root meets each node at most once; it misses some node exactly when
    # a node has no feeding branch or lies on a cycle
    reached = 0
    stack = [root]
    while stack:
        reached += 1
        fed = out.get(stack.pop())
        if fed is not None:
            for b in fed:
                stack.append(b.receiving_node)
    if reached != len(incoming) + 1:
        raise _unreached(closed, root, source, incoming, out)
    return incoming, out


def _unreached(closed: tuple[BranchRecord, ...], root: int, source: str,
               incoming: dict[int, BranchRecord],
               out: dict[int, list[BranchRecord]]) -> TopologyError:
    """The error for a tree check whose walk from the root missed some node.

    Names the first node without a feeding branch in the iteration order of
    the set of all nodes; failing that, a cycle edge reached from the smallest
    unreached node.
    """
    nodes = {root}
    for b in closed:
        nodes.add(b.sending_node)
        nodes.add(b.receiving_node)
    for n in nodes:
        if n != root and n not in incoming:
            return TopologyError(f"{source}: node {n} has no feeding branch")
    reached = {root}
    stack = [root]
    while stack:
        for b in out.get(stack.pop(), ()):
            reached.add(b.receiving_node)
            stack.append(b.receiving_node)
    # unreached nodes all have a feeding branch, so they lie on a cycle
    start = min(n for n in nodes if n not in reached)
    seen = []
    n = start
    while n not in seen:
        seen.append(n)
        n = incoming[n].sending_node
    edge = incoming[n]
    return TopologyError(
        f"{source}: cycle through branch {edge.branch_id} "
        f"({edge.sending_node}->{edge.receiving_node})"
    )


def _check_ties(ties: tuple[BranchRecord, ...], root: int, incoming: dict[int, BranchRecord],
                source: str) -> None:
    """Raise TopologyError for a tie branch ending at a node the closed branches lack."""
    for t in ties:
        for node in (t.sending_node, t.receiving_node):
            if node != root and node not in incoming:
                raise TopologyError(
                    f"{source}: tie branch {t.branch_id} ends at node {node}, "
                    f"which no closed branch connects"
                )


def check_sequential_ordering(closed: tuple[BranchRecord, ...], root: int) -> int | None:
    """Return the id of the first branch violating sequential ordering, or None.

    The property: for every branch j not fed directly by the root, the branch
    delivering power to its sending node has a smaller id.
    """
    parent_of = {b.receiving_node: b.branch_id for b in closed}
    for b in sorted(closed, key=_branch_id):
        if b.sending_node == root:
            continue
        if parent_of[b.sending_node] >= b.branch_id:
            return b.branch_id
    return None


def validate_radial(
    table: RawTable,
    root: int | None = None,
    base: PerUnitBase | None = None,
    require_ordered: bool = True,
) -> NetworkModel:
    """Validate the closed branches as a radial tree and build a NetworkModel.

    Tie branches are set aside unenergized. With require_ordered the sequential
    branch-numbering property is enforced (recoverable via renumber_sequential);
    otherwise it is only recorded on the model.
    """
    if root is None:
        root = table.declared_root if table.declared_root is not None else 1
    if base is None:
        base = table.declared_base if table.declared_base is not None else DEFAULT_BASE
    closed = table.closed_rows()
    if not closed:
        raise TopologyError(f"{table.source_name}: no closed branches")
    if not any(b.sending_node == root for b in closed):
        raise TopologyError(f"{table.source_name}: root {root} is not a sending node")
    incoming, _ = _check_tree(closed, root, table.source_name)
    ties = table.tie_rows()
    _check_ties(ties, root, incoming, table.source_name)

    closed = sorted(closed, key=_branch_id)
    bad = check_sequential_ordering(closed, root)
    ordered = bad is None
    if require_ordered and not ordered:
        raise OrderingError(
            f"{table.source_name}: branch {bad} precedes the branch feeding its "
            f"sending node (run renumber_sequential)"
        )

    # closed is sorted, so each node's children come out in id order
    kids: dict[int, list[int]] = {}
    for b in closed:
        siblings = kids.get(b.sending_node)
        if siblings is None:
            kids[b.sending_node] = [b.branch_id]
        else:
            siblings.append(b.branch_id)
    children = dict.fromkeys([root, *incoming], ())
    for s, ids in kids.items():
        children[s] = tuple(ids)
    return NetworkModel(
        node_count=len(incoming) + 1,
        branches=tuple([to_per_unit(b, base) for b in closed]),
        root=root,
        tie_lines=ties,
        children=children,
        base=base,
        sequentially_ordered=ordered,
    )


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

    The frontier of reachable nodes is expanded lowest-old-index first, root
    getting new index 1; the branch feeding new node k gets id k-1. Tables that
    already satisfy the convention of the bundled feeder data (receiving node of
    branch j is j+1, laterals listed after their trunk) map to themselves.
    """
    if root is None:
        root = table.declared_root if table.declared_root is not None else 1
    closed = table.closed_rows()
    if not closed:
        raise TopologyError(f"{table.source_name}: no closed branches")
    incoming, out = _check_tree(closed, root, table.source_name)
    ties = table.tie_rows()
    _check_ties(ties, root, incoming, table.source_name)

    node_map = {root: 1}
    branch_map: dict[int, int] = {}
    new_rows = []
    heap = [(b.receiving_node, b) for b in out.get(root, ())]
    heapq.heapify(heap)
    next_node = 2
    while heap:
        _, b = heapq.heappop(heap)
        node_map[b.receiving_node] = next_node
        new_id = next_node - 1
        branch_map[b.branch_id] = new_id
        new_rows.append(
            BranchRecord(
                branch_id=new_id,
                sending_node=node_map[b.sending_node],
                receiving_node=next_node,
                resistance=b.resistance,
                reactance=b.reactance,
                load_p=b.load_p,
                load_q=b.load_q,
                capacity=b.capacity,
                is_tie=False,
            )
        )
        for child in out.get(b.receiving_node, ()):
            heapq.heappush(heap, (child.receiving_node, child))
        next_node += 1

    next_branch = len(new_rows) + 1
    for t in sorted(ties, key=_branch_id):
        branch_map[t.branch_id] = next_branch
        new_rows.append(
            BranchRecord(
                branch_id=next_branch,
                sending_node=node_map[t.sending_node],
                receiving_node=node_map[t.receiving_node],
                resistance=t.resistance,
                reactance=t.reactance,
                load_p=0.0,
                load_q=0.0,
                capacity=t.capacity,
                is_tie=True,
            )
        )
        next_branch += 1

    mapping = RenumberMapping(
        node_old_to_new=node_map,
        node_new_to_old={n: o for o, n in node_map.items()},
        branch_old_to_new=branch_map,
    )
    new_table = RawTable(
        rows=tuple(new_rows),
        source_name=table.source_name,
        declared_base=table.declared_base,
        declared_root=1 if table.declared_root is not None else None,
    )
    return new_table, mapping
