"""Core domain types: phasors, branch records, per-unit bases, networks, reports.

The value types are immutable records, built without a class decorator so
that importing the package stays cheap. Phasor, PerUnitBase, BranchRecord,
PerUnitBranch and SolveReport are collections.namedtuple subclasses on
_Record: a record is the tuple of its fields in field order, equals only a
record of its own type with equal fields, hashes as that tuple, and _make and
_replace build through the constructor, so they run its checks. NetworkModel
is a _Frozen __slots__ class: it takes == and repr from _Frozen, over the
fields its __match_args__ names, and its fields cannot be set after
construction.

radial_tree is the one check that closed branches form a tree rooted at the
root, and the one place their adjacency is built; it reads the branches as id,
sending-node and receiving-node columns. NetworkModel passes its own columns
and ingest.renumber_sequential the table's, both of the closed branches in id
order, so every caller names the same first defect. It maps node ids to dense
positions 0..n-1 once, with one sort, and returns the tree as tuples indexed
by position: the sending and receiving columns as node positions, each node's
feeding branch, and the children as one offsets-plus-targets pair. Ids stay
at the edges: the parsers, error texts, the views and the report.

Networks of one topology share one derivation: NetworkModel gets its tree
from _shared_tree, which holds at most one _Tree, only after two equal
topologies in a row. A tree keeps its node and branch id-to-position
dicts, which its networks and their reports look their ids up in. The held
tree also carries what the solver fills once per tree (the step counts, the
passes swept and the pass loop generated for the tree) and the per-unit
impedances that _closed_per_unit, their one reader and writer, gives it
(_Tree.z): a table of equal resistance, reactance and z_base shares them,
and only its loads are converted.

BranchRecord and both parsers check a row in one function, _check_row. It
takes a row as the BranchRecord fields in field order, which is what a
BranchRecord is; oracle.to_per_unit and RawTable(rows=...) read a record the
same way. _per_unit_columns is the one per-unit conversion: validate_radial
converts the closed branches' columns through _closed_per_unit (only the
loads when the held impedances are shared), and oracle.to_per_unit a single
row.

NetworkModel keeps the closed branches as per-unit columns (ids, sending and
receiving nodes, z and s_load as complex, capacity) and its _Tree, and the
solver reads those. Every view is built on read the same way: a module-level
row function reads the entry at a position out of the view's sources. A
positional view is a read-only Sequence, RowView(row, sources), standing for
the tuple of its rows: branches, whose row (_closed_branch) builds a
PerUnitBranch, a validated network's tie_lines, whose row builds a
BranchRecord, and a SolveReport's node_voltages, branch_currents and
branch_losses, over the solve's lists. An id-keyed view is a read-only
Mapping, _IdView(keys, index, row, sources), standing for the dict it reads:
the keys in order, a network's own ids, and an id-to-position dict, its
tree's. children and parent_branch read the position lists (_children_row,
_parent_branch_row), and a report's final_* views a Phasor out of a list of
complex values. So no per-branch
record, Phasor or per-node container is built between parse and sweep. Each
network fact has one published form: the columns for what each branch
carries, and children and parent_branch for the tree. The reference phase
functions and the oracle read the columns; of the package, only
backward_sweep's default mode reads children.
PerUnitBase.kw_base is the one kW scale, and NetworkModel.check_ordering the
one place that raises the OrderingError that validate_radial and solve refuse
an unordered network with.

What a check of valid input never runs lives elsewhere, so that a solve does
not compile it: the searches that name a defect once a test has failed
(_check_real, _check_float, _check_numbers, _cycle) in radialflow._defects,
which a failed check imports, and wrap_angle, TWO_PI, SolveState and
to_per_unit, which no solve uses, in radialflow.oracle. This module forwards
each by name (PEP 562).
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping, Sequence
from itertools import accumulate, repeat, starmap


class LoadFlowError(Exception):
    """Base class for every error raised by this package."""


class DataError(LoadFlowError):
    """Invalid field values or inconsistent records in input data."""


class SingularityError(LoadFlowError):
    """Division by a zero-magnitude phasor."""


class TopologyError(LoadFlowError):
    """Closed branches do not form a tree rooted at the requested root."""


class OrderingError(TopologyError):
    """Tree is radial but violates the sequential branch-numbering property."""


class _Record(tuple):
    """Base of the namedtuple records: equal only to a record of the same type
    with equal fields, and _make (which _replace calls) builds through the
    constructor, so both run its checks."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # a tuple subclass is asked first, even on the right of ==; declining
        # would let tuple.__eq__ compare the values
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__
    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Frozen:
    """== and repr over the fields that __match_args__ names, which cannot be
    set or deleted once __init__ has set them with object.__setattr__: equal
    only to an instance of the same type with equal fields, shown as
    Type(field=value, ...)."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, as they cannot set a field
        return type(self), self._values()

    @classmethod
    def _from_columns(cls, columns, *args, **kwargs):
        """The instance that _fill builds from columns and the other fields,
        without the transposing the constructor does first."""
        self = object.__new__(cls)
        self._fill(columns, *args, **kwargs)
        return self


class Phasor(_Record, namedtuple("Phasor", "re im")):
    """A complex electrical quantity stored in rectangular form.

    The rectangular representation is authoritative; magnitude and angle are
    derived views. Addition of phasors is therefore exact complex addition.
    """

    __slots__ = ()

    @classmethod
    def zero(cls) -> "Phasor":
        return cls(0.0, 0.0)

    @classmethod
    def from_complex(cls, z: complex) -> "Phasor":
        return cls(z.real, z.imag)

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    @property
    def angle(self) -> float:
        """Angle in radians, normalized to (-pi, pi]."""
        a = math.atan2(self.im, self.re)
        if a == -math.pi:
            a = math.pi
        return a

    @property
    def angle_degrees(self) -> float:
        return math.degrees(self.angle)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def conjugate(self) -> "Phasor":
        return Phasor(self.re, -self.im)

    def __add__(self, other: "Phasor") -> "Phasor":
        return Phasor(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Phasor") -> "Phasor":
        return Phasor(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Phasor") -> "Phasor":
        return Phasor.from_complex(self.as_complex() * other.as_complex())

    def __truediv__(self, other: "Phasor") -> "Phasor":
        if other.re == 0.0 and other.im == 0.0:
            raise SingularityError("division by zero-magnitude phasor")
        return Phasor.from_complex(self.as_complex() / other.as_complex())

    def __abs__(self) -> float:
        return self.magnitude


class _IdView(Mapping):
    """A read-only Mapping keyed by the ids in keys, in that order.

    Entry key is row(sources, index[key]): index maps each key to a
    position, row is a module-level function and sources what it reads, so a
    value is found only when its entry is read. Equality is that of a
    Mapping, so a view equals the dict it stands for, and it is shown as that
    dict; it pickles and copies as its four parts.
    """

    __slots__ = ("_keys", "_index", "_row", "_sources")

    def __init__(self, keys, index: dict[int, int], row, sources):
        self._keys, self._index, self._row, self._sources = keys, index, row, sources

    def __getitem__(self, key: int):
        return self._row(self._sources, self._index[key])

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return _IdView, (self._keys, self._index, self._row, self._sources)


class PerUnitBase(_Record, namedtuple("PerUnitBase", "kv_base mva_base")):
    """Voltage/power base pair; the impedance base (z_base) and the power
    base in kW (kw_base) are derived from it. A base that is not a positive
    and finite real number, or that gives a base that is not, is a
    DataError naming it (_defects._base_defect names one that fails a test
    with an error of another type)."""

    __slots__ = ()

    def __new__(cls, kv_base: float, mva_base: float):
        try:
            if not (kv_base > 0.0) or not math.isfinite(kv_base):
                raise DataError(f"kv_base must be positive and finite, got {kv_base}")
            if not (mva_base > 0.0) or not math.isfinite(mva_base):
                raise DataError(f"mva_base must be positive and finite, got {mva_base}")
            self = tuple.__new__(cls, (kv_base, mva_base))
            # what to_per_unit, build_report and compute_losses scale by
            z_base, kw_base = self.z_base, self.kw_base
            if not (0.0 < z_base < math.inf and 0.0 < kw_base < math.inf):
                raise DataError(
                    f"kv_base {kv_base} and mva_base {mva_base} give an impedance base "
                    f"of {z_base} ohm and a power base of {kw_base} kW; both must be "
                    f"positive and finite"
                )
        except (TypeError, OverflowError, ValueError) as exc:  # only a failed test gets here
            from ._defects import _base_defect

            _base_defect(exc, kv_base, mva_base)
            raise
        return self

    @property
    def z_base(self) -> float:
        """Impedance base in ohms: kv_base**2 / mva_base."""
        return self.kv_base * self.kv_base / self.mva_base

    @property
    def kw_base(self) -> float:
        """Power base in kW: mva_base * 1000."""
        return self.mva_base * 1000.0


# Bases calibrated once against the bundled 69-bus golden voltage table; only
# kv_base affects the per-unit voltage profile.
DEFAULT_BASE = PerUnitBase(kv_base=12.66, mva_base=10.0)


class BranchRecord(_Record, namedtuple(
        "BranchRecord",
        "branch_id sending_node receiving_node resistance reactance load_p load_q capacity is_tie")):
    """One row of a branch table, in physical units (ohms, kW, kVAr, kVA).

    Its fields in field order are the order _check_row and RawTable's columns
    take a row in.
    """

    __slots__ = ()

    def __new__(cls, branch_id: int, sending_node: int, receiving_node: int, resistance: float,
                reactance: float, load_p: float, load_q: float, capacity: float | None = None,
                is_tie: bool = False):
        row = (branch_id, sending_node, receiving_node, resistance, reactance, load_p, load_q,
               capacity, is_tie)
        _check_row(*row)
        return tuple.__new__(cls, row)


def _check_unique(ids, prefix: str = "") -> None:
    """Raise DataError, its text after prefix, naming the first branch id in
    ids that repeats an earlier one; RawTable and NetworkModel check here.
    One set of the whole column finds whether any repeats; only then are the
    ids searched for the first."""
    if len(set(ids)) == len(ids):
        return
    seen = set()
    for b in ids:
        if b in seen:
            raise DataError(f"{prefix}duplicate branch id {b}")
        seen.add(b)


def _check_row(branch_id, sending_node, receiving_node, resistance, reactance, load_p, load_q,
               capacity, is_tie) -> None:
    """Raise DataError for the first defect of one branch row, given as the
    BranchRecord fields in field order; BranchRecord and both parsers check
    their rows here. A value that is not a number fails a comparison or the
    sum below with a TypeError, a value field that holds an int too large
    for a float the sum or a finiteness test with an OverflowError, and a
    text that names an int too long for str() its formatting with a
    ValueError; only then does _defects._row_defect search the row for the
    field at fault. An is_tie that is not a bool is named just before the
    tie-load test, which would otherwise read its truth value."""
    try:
        if branch_id <= 0:
            raise DataError(f"branch id must be positive, got {branch_id}")
        # nodes are sorted with the root: one that does not compare with a
        # number fails here
        sending_node < 0
        receiving_node < 0
        # one test on the sum; only when it fails look for the field at fault
        # (a sum of finite values may also overflow)
        if not math.isfinite(resistance + reactance + load_p + load_q):
            for name, v in (("resistance", resistance), ("reactance", reactance),
                            ("load_p", load_p), ("load_q", load_q)):
                if not math.isfinite(v):
                    raise DataError(f"branch {branch_id}: non-finite {name} ({v})")
        if resistance < 0.0 or reactance < 0.0:
            raise DataError(f"branch {branch_id}: negative impedance component")
        if capacity is not None and not (capacity > 0.0):
            if not math.isfinite(capacity):  # NaN or -inf
                raise DataError(f"branch {branch_id}: non-finite capacity ({capacity})")
            raise DataError(f"branch {branch_id}: capacity must be positive when present")
        if sending_node == receiving_node:
            raise DataError(
                f"branch {branch_id}: sending and receiving node are both {sending_node}")
        if type(is_tie) is not bool:
            raise DataError(f"branch {branch_id}: is_tie is not a bool ({is_tie!r})")
        if is_tie and (load_p != 0.0 or load_q != 0.0):
            raise DataError(f"branch {branch_id}: tie-line must carry zero load")
        # after the checks above, so a row they reject keeps its message
        if capacity is not None and not math.isfinite(capacity):
            raise DataError(f"branch {branch_id}: non-finite capacity ({capacity})")
    except (TypeError, OverflowError, ValueError) as exc:  # only a failed test gets here
        from ._defects import _row_defect

        _row_defect(exc, (branch_id, sending_node, receiving_node, resistance, reactance,
                          load_p, load_q, capacity, is_tie))
        raise


class PerUnitBranch(_Record, namedtuple(
        "PerUnitBranch", "branch_id sending_node receiving_node z s_load capacity is_tie",
        defaults=(None, False))):
    """A branch with impedance and receiving-end load converted to per-unit."""

    __slots__ = ()


def _per_unit_columns(ids, resistance, reactance, load_p, load_q, base: PerUnitBase, z=None):
    """The per-unit impedance and load columns, as tuples of complex, of
    branches given as physical columns; to_per_unit and _closed_per_unit both
    convert here. z, when given, is the impedance column already converted
    from resistance and reactance on base (the held one, which is finite),
    and only the loads are converted.

    A finite value can overflow on a tiny base. One test on the sum of the
    columns converted finds that; only when it fails are the rows searched in
    column order, and the first non-finite field (resistance, reactance,
    load_p, load_q) raises a DataError naming the branch, the field and both
    bases.
    """
    kw_base = base.kw_base
    total = 0j
    if z is None:
        zb = base.z_base
        z = tuple([complex(r / zb, x / zb) for r, x in zip(resistance, reactance)])
        total = sum(z)
    s = tuple([complex(p / kw_base, q / kw_base) for p, q in zip(load_p, load_q)])
    # a sum of finite values may also overflow; then the search finds nothing
    total += sum(s)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        for branch_id, zk, sk in zip(ids, z, s):
            for name, v in (("resistance", zk.real), ("reactance", zk.imag),
                            ("load_p", sk.real), ("load_q", sk.imag)):
                if not math.isfinite(v):
                    raise DataError(
                        f"branch {branch_id}: {name} is not finite in per unit "
                        f"(kv_base {base.kv_base}, mva_base {base.mva_base})"
                    )
    return z, s


def _closed_per_unit(ids, resistance, reactance, load_p, load_q, base: PerUnitBase):
    """_per_unit_columns of the closed branches validate_radial converts,
    and the one reader and writer of the held tree's impedances (_Tree.z).

    The held (z_base, resistance, reactance) key and impedance column are
    shared when the key equals this one under ==, and only the loads are
    converted. Otherwise the impedances converted here, once checked, go to
    whichever tree is held now, which any topology may share next: the
    column depends on its key alone. A column with a zero is not held, as
    0.0 == -0.0 although they differ in sign in per unit, so a shared column
    is what a fresh conversion gives, to the last bit.
    """
    tree = _last[2]
    key = (base.z_base, resistance, reactance)
    held = None if tree is None else tree.z
    z = held[1] if held is not None and held[0] == key else None
    columns = _per_unit_columns(ids, resistance, reactance, load_p, load_q, base, z)
    if z is None and tree is not None and 0.0 not in resistance and 0.0 not in reactance:
        tree.z = key, columns[0]
    return columns


def radial_tree(ids, sending, receiving, root: int, tie_lines):
    """Check that branches form a tree rooted at root and return it as lists
    indexed by position.

    ids, sending and receiving are the closed branches' columns (branch id,
    sending node, receiving node), and tie_lines the open ones as (id,
    sending, receiving) triples. Nodes get positions 0..n-1 in ascending id
    order and branches keep their positions in the columns. Returns (nodes,
    index, send, recv, feeding, offsets, targets): nodes is the ascending tuple
    of node ids, the root and every receiving node, and index the dict from id
    to position; send and recv are the sending and receiving columns as node
    positions; feeding[i] is the position of the branch feeding node i (-1 for
    the root); and the nodes that node i feeds are
    targets[offsets[i]:offsets[i + 1]], in the column order of their
    branches. All but index are tuples.

    Raises DataError naming the root, or else the first branch id or node,
    that is not a real number (text, say) when that makes a test below fail,
    and otherwise TopologyError, with no source in its text, for the first of
    these defects: no branches; root not a sending node; a node fed twice (the first
    branch in column order that feeds a node already fed); a branch feeding
    the root; a node with no feeding branch (the smallest); a cycle (one
    reached from the smallest node the root does not reach); a tie line
    ending at a node outside the tree (the first in the order of tie_lines).
    An int too long for str() is shown in such a text in a bounded form.
    """
    try:
        if not ids:
            raise TopologyError("no closed branches")
        if root not in sending:
            from ._defects import _check_numbers

            _check_numbers(ids, sending, receiving, root)
            raise TopologyError(f"root {root} is not a sending node")
        # the one sort: the root and the receiving nodes, m + 1 of them in a tree
        try:
            nodes = sorted({root, *receiving})
        except TypeError:  # a node that does not compare with the others
            from ._defects import _check_numbers

            _check_numbers(ids, sending, receiving, root)
            raise
        index = dict(zip(nodes, range(len(nodes))))
        recv = tuple(map(index.__getitem__, receiving))
        feeding = [-1] * len(nodes)
        for k, r in enumerate(recv):
            if feeding[r] >= 0:
                raise TopologyError(
                    f"node {receiving[k]} is fed by branches {ids[feeding[r]]} and {ids[k]}")
            feeding[r] = k
        k = feeding[index[root]]
        if k >= 0:
            raise TopologyError(
                f"cycle through branch {ids[k]} ({sending[k]}->{root}) feeding the root")
        try:
            send = tuple(map(index.__getitem__, sending))
        except KeyError:  # a sending node that is neither the root nor fed
            from ._defects import _check_numbers

            _check_numbers(ids, sending, receiving, root)
            raise TopologyError(
                f"node {min(set(sending).difference(index))} has no feeding branch") from None
        m = len(ids)
        counts = [0] * (m + 1)
        for s in send:
            counts[s] += 1
        offsets = tuple(accumulate(counts, initial=0))
        # a counting sort by sending node, which keeps each node's children in
        # column order
        targets = [0] * m
        fill = list(offsets)
        for s, r in zip(send, recv):
            j = fill[s]
            targets[j] = r
            fill[s] = j + 1
        # every node but the root has exactly one feeding branch, so the walk from
        # the root meets each node at most once; it misses some node exactly when
        # a node lies on a cycle or below one
        reached = [index[root]]
        for i in reached:
            reached += targets[offsets[i]:offsets[i + 1]]
        if len(reached) != m + 1:
            from ._defects import _cycle

            raise _cycle(ids, sending, receiving, send, feeding, reached)
        for t, s, r in tie_lines:
            for node in (s, r):
                if node not in index:
                    raise TopologyError(
                        f"tie branch {t} ends at node {node}, which no closed branch connects"
                    )
        return tuple(nodes), index, send, recv, tuple(feeding), offsets, tuple(targets)
    except ValueError:  # a text above names an int too long for str()
        from ._defects import _rerun_bounded

        _rerun_bounded(radial_tree, (ids, sending, receiving, root, tie_lines))
        raise


class _Tree:
    """One topology's derivation, shared by its networks: radial_tree's send,
    recv, feeding, offsets and targets, index and position the node and
    branch id-to-position dicts of the network it was derived for, root the
    root's position, unordered the first unordered branch's position (or
    None), counts, which solver._step_counts fills (the step model's
    load-free counts), swept and kernel, which solver._sweep keeps (the
    passes its generic loop has run on the tree, never reset, and None or
    the loaded node positions and the pass loop generated for them), and z,
    which _closed_per_unit alone reads and sets, while the tree is held: None
    or ((z_base, resistance, reactance), the per-unit impedances converted
    from them).
    The ids are kept only as the keys of index and position, which may be
    another network's ids equal to its own under ==: a network looks its ids
    up there but shows its own, iterating its own columns.
    """

    __slots__ = ("send", "recv", "feeding", "offsets", "targets", "index", "position", "root",
                 "unordered", "counts", "swept", "kernel", "z")

    def __init__(self, send, recv, feeding, offsets, targets, index, position, root):
        self.send, self.recv, self.feeding = send, recv, feeding
        self.offsets, self.targets = offsets, targets
        self.index, self.position, self.root = index, position, root
        # the root's feeding branch is -1, so a branch it feeds never counts
        self.unordered = next((k for k, s in enumerate(send) if feeding[s] >= k), None)
        self.counts = self.kernel = self.z = None
        self.swept = 0


# (hash of the last key derived without error, the held key, its _Tree)
_last = (None, None, None)


def _shared_tree(ids, sending, receiving, root, tie_ends):
    """(nodes, tree) for closed branches as radial_tree takes them.

    A key (ids, sending, receiving, root, tie_ends) equal to the held one's
    under == shares the held _Tree, with nodes read off this network's own
    receiving column and root. Its index and position serve this network
    too: ids equal under == hash equal, so each of this network's ids finds
    the position of the held id it equals, whichever kind of number either
    is. Any other key drops the held tree and runs radial_tree, which raises
    for a defect; its tree is held only when its key hashes equal to the
    previous tree's. Threads may call this: _last is read and replaced
    whole, so a race costs a derivation.
    """
    global _last
    key = (ids, sending, receiving, root, tie_ends)
    last, held_key, tree = _last
    if tree is not None and key == held_key:
        # the root, at feeding -1, is put after the column
        return tuple(map((*receiving, root).__getitem__, tree.feeding)), tree
    _last = last, None, None  # a miss drops the held tree
    nodes, index, *lists = radial_tree(ids, sending, receiving, root, tie_ends)
    tree = _Tree(*lists, index, dict(zip(ids, range(len(ids)))), index[root])
    h = hash(key)
    _last = (h, key, tree) if h == last else (h, None, None)
    return nodes, tree


class RowView(_Frozen, Sequence):
    """Read-only sequence of rows, each built only when it is read.

    Entry k is row(sources, k): row is a module-level function and sources
    the tuple of what it reads, columns indexed by position and any scalars;
    the first source is a column with one entry per row. The view stands for
    the tuple of its rows: it iterates, indexes and slices as that tuple (a
    slice is a tuple), equals it and any view with equal rows, in either
    order of ==, hashes as it, prints as its repr and pickles and copies as
    it. A NetworkModel's branches and a SolveReport's node_voltages,
    branch_currents and branch_losses are RowViews.
    """

    __slots__ = ("_row", "_sources")

    def __init__(self, row, sources: tuple):
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_sources", sources)

    def __len__(self) -> int:
        return len(self._sources[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        return self._row(self._sources, k)

    def __iter__(self):
        return map(self._row, repeat(self._sources), range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (tuple, RowView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)


def _closed_branch(columns, k) -> PerUnitBranch:
    """The PerUnitBranch at position k of a network's six branch columns
    (branch id, sending node, receiving node, z and s_load as complex,
    capacity); every branch is closed."""
    branch_id, sending_node, receiving_node, z, s_load, capacity = [c[k] for c in columns]
    return PerUnitBranch(branch_id, sending_node, receiving_node, Phasor(z.real, z.imag),
                         Phasor(s_load.real, s_load.imag), capacity, False)


def _children_row(sources, i) -> tuple:
    """The ids of the branches node position i feeds, in column order, from
    sources (ids, feeding, offsets, targets)."""
    ids, feeding, offsets, targets = sources
    return tuple([ids[feeding[j]] for j in targets[offsets[i]:offsets[i + 1]]])


def _parent_branch_row(sources, i):
    """The id of the branch feeding node position i, from sources (ids,
    feeding, root); the root has none."""
    ids, feeding, root = sources
    if feeding[i] < 0:
        raise KeyError(root)
    return ids[feeding[i]]


class NetworkModel(_Frozen):
    """A radial network in per-unit, checked as a tree on construction.

    The closed branches are kept as columns, one entry per branch in the
    order given: branch_ids, sending, receiving, z and s_load (per-unit
    impedance and receiving-end load, as complex) and capacity. branches is a
    read-only RowView of those columns, which builds each PerUnitBranch when
    it is read. Tie lines are parsed but never energized; tie_lines keeps
    them as BranchRecords: the constructor takes any iterable of them once,
    as a tuple, and validate_radial passes a RowView over the tie rows'
    columns, which builds each BranchRecord when it is read and equals,
    prints, pickles and copies as that tuple. validate_radial passes the
    columns of the closed branches and the tie lines, both sorted by id, to
    _from_columns, with the tie lines' ends read off their columns;
    NetworkModel(branches, ...) transposes the PerUnitBranches it is given,
    which must all be closed (is_tie false), into the same columns. Either
    way construction runs radial_tree on the id, sending and receiving
    columns and the tie lines' ends, so a network that is not a tree rooted
    at root, or whose tie lines end outside it, raises TopologyError. The
    constructor first refuses, with a DataError, a tie line among branches,
    then a tie_lines record whose is_tie is false, and then a branch id that
    repeats, over the branch ids followed by the tie lines' (the first repeat
    in that order, in RawTable's text without a source). _from_columns needs
    none of these checks: RawTable flags the ties and refuses a repeated id,
    and validate_radial passes tie lines apart.

    Every topology fact is derived from the columns and root, here and
    nowhere else, as radial_tree's position lists (the private _tree, which
    networks of one topology may share): nodes have positions in nodes()
    (ascending ids) and branches in the columns, and the tree's dicts
    (_Tree.index, _Tree.position) map node and branch ids to them. They are
    built once per derivation, so a network on a held tree builds neither,
    and their keys may be the ids of the network the tree was derived for,
    equal to this one's under ==. So every id-keyed view iterates this
    network's own ids (nodes(), receiving or branch_ids) and only looks its
    keys up in the dicts. The id-keyed facts are _IdViews that read those
    lists when an entry is read, each equal to, iterated in the order of and
    shown as the dict it stands for: children maps each node to the ids of
    the branches it feeds, in branch order; parent_branch maps each
    receiving node, in branch order, to the branch feeding it. A node's load
    is the s_load of the branch feeding it; the sweep reads it there, at the
    receiving node's position. unordered_branch is the first branch whose
    sending node is fed by a branch that does not come before it; with branches sorted by id, the first branch in id order fed
    through a branch with an id that is not smaller. It is None when the
    sequential numbering the stack sweep relies on holds, and check_ordering
    raises the OrderingError that names it otherwise. Instances are immutable
    after construction; == and repr cover the four constructor arguments,
    which determine the rest.
    """

    __slots__ = ("branches", "root", "tie_lines", "base", "branch_ids", "sending", "receiving",
                 "z", "s_load", "capacity", "children", "parent_branch", "_nodes",
                 "unordered_branch", "_tree")
    __match_args__ = ("branches", "root", "tie_lines", "base")

    def __init__(self, branches: Sequence[PerUnitBranch], root: int,
                 tie_lines: tuple[BranchRecord, ...], base: PerUnitBase):
        # an empty network gets empty columns, which radial_tree refuses
        ids, sending, receiving, z, s_load, capacity, is_tie = (
            tuple(zip(*branches)) or ((),) * len(PerUnitBranch._fields))
        for branch_id, tie in zip(ids, is_tie):
            if tie:
                raise DataError(
                    f"branch {branch_id} is a tie line; a network holds closed branches only")
        tie_lines = tuple(tie_lines)  # taken once, as branches is
        for t in tie_lines:
            if not t.is_tie:  # a closed record would be dropped, its load with it
                raise DataError(f"tie line {t.branch_id} is not flagged as a tie")
        _check_unique((*ids, *[t.branch_id for t in tie_lines]))
        # a Phasor is the (re, im) pair complex() takes
        self._fill((ids, sending, receiving, tuple(starmap(complex, z)),
                    tuple(starmap(complex, s_load)), capacity), root, tie_lines, base,
                   tuple([(t.branch_id, t.sending_node, t.receiving_node) for t in tie_lines]))

    def _fill(self, columns, root, tie_lines, base, tie_ends) -> None:
        """Check the tree, derive the topology and set the fields. tie_ends
        is the tie lines' (id, sending, receiving) triples."""
        ids, sending, receiving, z, s_load, capacity = columns
        nodes, tree = _shared_tree(ids, sending, receiving, root, tie_ends)
        feeding, index = tree.feeding, tree.index
        unordered = None if tree.unordered is None else ids[tree.unordered]
        # in the order of __slots__
        fields = (
            RowView(_closed_branch, columns), root, tie_lines, base, ids, sending, receiving, z,
            s_load, capacity,
            _IdView(nodes, index, _children_row, (ids, feeding, tree.offsets, tree.targets)),
            _IdView(receiving, index, _parent_branch_row, (ids, feeding, root)),
            nodes, unordered, tree,
        )
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def nodes(self) -> tuple[int, ...]:
        """Every node id, the root included, in ascending order."""
        return self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def sequentially_ordered(self) -> bool:
        return self.unordered_branch is None

    def check_ordering(self) -> None:
        """Raise OrderingError naming unordered_branch unless the network is
        sequentially ordered; validate_radial and solve both refuse one here."""
        if self.unordered_branch is not None:
            raise OrderingError(
                f"branch {self.unordered_branch} precedes the branch feeding its sending "
                f"node (run renumber_sequential)"
            )

    @property
    def branch_count(self) -> int:
        return len(self.branch_ids)


class SolveReport(_Record, namedtuple("SolveReport", (
        "converged iterations node_voltages branch_currents branch_losses total_loss_p "
        "total_loss_q step_count_proposed step_count_baseline leaf_count pre_loop_steps "
        "per_iteration_steps delta_history max_polar_deviation final_voltage "
        "final_load_current final_branch_current"))):
    """Converged results plus instrumentation for one solve.

    node_voltages rows are (node, magnitude p.u., angle degrees) sorted by
    node; branch_currents rows are (branch_id, magnitude p.u.) and
    branch_losses rows (branch_id, kW, kVAr), in branch order. The converged
    state is kept once, as the solver's complex lists: the three row tables
    are RowViews over them, which build a row only when it is read, and
    final_voltage and final_load_current (by node) and final_branch_current
    (by branch id) are read-only _IdViews that build a Phasor on read, each
    shown as the dict it stands for. A pickled or copied report holds the row
    tables as tuples; _replace may put tuples there too. step_count_proposed
    and step_count_baseline are the steps the stack sweep and the
    per-iteration rescanning baseline take to reach this solution:
    solver.solve fills both, oracle.baseline_solve, which runs the baseline,
    only step_count_baseline.
    """

    __slots__ = ()

    def voltage_magnitude(self, node: int) -> float:
        return self.final_voltage[node].magnitude


_DEFECTS = ("_check_real", "_check_float", "_check_numbers", "_cycle")
_ORACLE = ("wrap_angle", "TWO_PI", "SolveState", "to_per_unit")


def __getattr__(name):
    # moved to the modules a failed check and the references load, each
    # imported on first use (PEP 562)
    if name in _DEFECTS:
        from . import _defects as home
    elif name in _ORACLE:
        from . import oracle as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)
