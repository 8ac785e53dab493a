"""Sequential renumbering of branch tables, which radialflow.ingest (and the
package) forwards renumber_sequential and RenumberMapping from on first use,
and the CLI imports under --renumber only, so that a solve of an ordered
table loads neither this module nor heapq.

renumber_sequential finds the closed rows in table order and the tie rows in
id order with _table_order, so only the ties are sorted, and takes rows out
of the columns with ingest._gather. It runs radial_tree on the closed rows in
table order; its walk does not depend on that order, but the defect named
first does, so on a TopologyError it runs radial_tree again on the id-sorted
columns (ingest._by_id), and it names the first defect validate_radial
names, whatever the order of the rows. It puts the rows in one order, the
closed branches as its walk from the root pops them and then the tie lines
by id, and gathers every column in that order; the new nodes and the whole
mapping are read off the gathered columns. The walk runs on radial_tree's
position lists: its frontier is a heap of node positions, which follow the
old node ids, and each node's children are a slice of the offsets-plus-
targets pair, so no id-keyed lookup is made until the mapping is built.

RenumberMapping is a namedtuple record on model._Record. _in_input_ids puts
a report of the renumbered network back under the input table's ids, as the
CLI prints it.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from heapq import heappop, heappush, heappushpop
from itertools import compress
from operator import not_

from .ingest import RawTable, _by_id, _gather, _root
from .model import TopologyError, _Record, radial_tree


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
                heappush(heap, j)
            i = heappushpop(heap, fed[0])
        elif heap:
            i = heappop(heap)
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


def _in_input_ids(report, mapping):
    """The report with its node and branch rows under the input table's ids,
    sorted by them; what the CLI prints. The final_* views keep the solved
    network's ids."""
    node = mapping.node_new_to_old
    branch = {new: old for old, new in mapping.branch_old_to_new.items()}
    return report._replace(
        node_voltages=tuple(sorted((node[n], v, a) for n, v, a in report.node_voltages)),
        branch_currents=tuple(sorted((branch[b], i) for b, i in report.branch_currents)),
        branch_losses=tuple(sorted((branch[b], p, q) for b, p, q in report.branch_losses)),
    )
