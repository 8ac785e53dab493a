"""Core domain types: phasors, branch records, per-unit bases, networks, reports.

radial_tree is the one check that closed branches form a tree rooted at the
root, and the one place their adjacency is built; NetworkModel and
ingest.renumber_sequential both call it on the closed branches in id order, so
every caller names the same first defect.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field


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


TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Normalize an angle in radians to (-pi, pi]."""
    a = math.fmod(angle, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


@dataclass(frozen=True, slots=True)
class Phasor:
    """A complex electrical quantity stored in rectangular form.

    The rectangular representation is authoritative; magnitude and angle are
    derived views. Addition of phasors is therefore exact complex addition.
    """

    re: float
    im: float

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

    def is_zero(self) -> bool:
        return self.re == 0.0 and self.im == 0.0

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


class PhasorMap(Mapping):
    """Read-only view of a list of complex values as Phasors, keyed by id.

    index maps a node or branch id to its position in values; a Phasor is made
    only when an entry is read. Iteration follows index, and equality is that of
    a Mapping, so a view compares equal to a dict of equal Phasors.
    """

    __slots__ = ("_index", "_values")

    def __init__(self, index: dict[int, int], values: list[complex]):
        self._index = index
        self._values = values

    def __getitem__(self, key: int) -> Phasor:
        z = self._values[self._index[key]]
        return Phasor(z.real, z.imag)

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"PhasorMap({dict(self)!r})"


@dataclass(frozen=True, slots=True)
class PerUnitBase:
    """Voltage/power base pair; impedance base is derived from it."""

    kv_base: float
    mva_base: float

    def __post_init__(self):
        if not (self.kv_base > 0.0) or not math.isfinite(self.kv_base):
            raise DataError(f"kv_base must be positive and finite, got {self.kv_base}")
        if not (self.mva_base > 0.0) or not math.isfinite(self.mva_base):
            raise DataError(f"mva_base must be positive and finite, got {self.mva_base}")
        # what to_per_unit, build_report and compute_losses scale by
        z_base, kw_base = self.z_base, self.mva_base * 1000.0
        if not (0.0 < z_base < math.inf and 0.0 < kw_base < math.inf):
            raise DataError(
                f"kv_base {self.kv_base} and mva_base {self.mva_base} give an impedance base "
                f"of {z_base} ohm and a power base of {kw_base} kW; both must be positive "
                f"and finite"
            )

    @property
    def z_base(self) -> float:
        """Impedance base in ohms: kv_base**2 / mva_base."""
        return self.kv_base * self.kv_base / self.mva_base


# Bases calibrated once against the bundled 69-bus golden voltage table; only
# kv_base affects the per-unit voltage profile.
DEFAULT_BASE = PerUnitBase(kv_base=12.66, mva_base=10.0)


@dataclass(frozen=True, slots=True)
class BranchRecord:
    """One row of a branch table, in physical units (ohms, kW, kVAr, kVA)."""

    branch_id: int
    sending_node: int
    receiving_node: int
    resistance: float
    reactance: float
    load_p: float
    load_q: float
    capacity: float | None = None
    is_tie: bool = False

    def __post_init__(self):
        b = self.branch_id
        if b <= 0:
            raise DataError(f"branch id must be positive, got {b}")
        # one test on the sum; only when it fails look for the field at fault
        # (a sum of finite values may also overflow)
        if not math.isfinite(self.resistance + self.reactance + self.load_p + self.load_q):
            for name in ("resistance", "reactance", "load_p", "load_q"):
                v = getattr(self, name)
                if not math.isfinite(v):
                    raise DataError(f"branch {b}: non-finite {name} ({v})")
        if self.resistance < 0.0 or self.reactance < 0.0:
            raise DataError(f"branch {b}: negative impedance component")
        if self.capacity is not None and not (self.capacity > 0.0):
            raise DataError(f"branch {b}: capacity must be positive when present")
        if self.sending_node == self.receiving_node:
            raise DataError(f"branch {b}: sending and receiving node are both {self.sending_node}")
        if self.is_tie and (self.load_p != 0.0 or self.load_q != 0.0):
            raise DataError(f"branch {b}: tie-line must carry zero load")


@dataclass(frozen=True, slots=True)
class PerUnitBranch:
    """A branch with impedance and receiving-end load converted to per-unit."""

    branch_id: int
    sending_node: int
    receiving_node: int
    z: Phasor
    s_load: Phasor
    capacity: float | None = None
    is_tie: bool = False


def to_per_unit(record: BranchRecord, base: PerUnitBase) -> PerUnitBranch:
    """Convert a physical-unit branch record to per-unit on the given base.

    Impedance divides by z_base; the kW/kVAr load divides by the MVA base
    after conversion to MW/MVAr. Tie branches convert impedance only. A finite
    value can overflow on a tiny base; that raises a DataError naming the
    branch, the field and both bases.
    """
    zb = base.z_base
    r = record.resistance / zb
    x = record.reactance / zb
    if record.is_tie:
        p = q = 0.0
    else:
        mva_kw = base.mva_base * 1000.0
        p = record.load_p / mva_kw
        q = record.load_q / mva_kw
    # one test on the sum; only when it fails look for the field at fault, as
    # BranchRecord does
    if not math.isfinite(r + x + p + q):
        for name, v in (("resistance", r), ("reactance", x), ("load_p", p), ("load_q", q)):
            if not math.isfinite(v):
                raise DataError(
                    f"branch {record.branch_id}: {name} is not finite in per unit "
                    f"(kv_base {base.kv_base}, mva_base {base.mva_base})"
                )
    return PerUnitBranch(
        branch_id=record.branch_id,
        sending_node=record.sending_node,
        receiving_node=record.receiving_node,
        z=Phasor(r, x),
        s_load=Phasor(p, q),
        capacity=record.capacity,
        is_tie=record.is_tie,
    )


def radial_tree(branches, root: int, tie_lines):
    """Check that branches form a tree rooted at root and return its adjacency.

    branches are the closed branches and tie_lines the open ones, each with
    branch_id, sending_node and receiving_node (BranchRecord or
    PerUnitBranch). Returns (parent, out): parent maps each node but the root
    to the id of the branch feeding it, and out maps each sending node to the
    branches leaving it, in the order of branches. Raises TopologyError, with
    no source in its text, for the first of these defects: no branches; root
    not a sending node; a node fed twice (the first branch in the order of
    branches that feeds a node already fed); a branch feeding the root; a node
    with no feeding branch (the smallest); a cycle (one reached from the
    smallest node the root does not reach); a tie line ending at a node
    outside the tree (the first in the order of tie_lines).
    """
    if not branches:
        raise TopologyError("no closed branches")
    if not any(b.sending_node == root for b in branches):
        raise TopologyError(f"root {root} is not a sending node")
    parent: dict[int, int] = {}
    out: dict[int, list] = {}
    for b in branches:
        r = b.receiving_node
        if r in parent:
            raise TopologyError(f"node {r} is fed by branches {parent[r]} and {b.branch_id}")
        parent[r] = b.branch_id
        siblings = out.get(b.sending_node)
        if siblings is None:
            out[b.sending_node] = [b]
        else:
            siblings.append(b)
    if root in parent:
        edge = next(b for b in branches if b.receiving_node == root)
        raise TopologyError(
            f"cycle through branch {edge.branch_id} "
            f"({edge.sending_node}->{edge.receiving_node}) feeding the root"
        )
    # every node but the root has exactly one feeding branch, so the walk from
    # the root meets each node at most once; it misses some node exactly when
    # a node has no feeding branch or lies on a cycle
    reached = [root]
    for n in reached:
        for b in out.get(n, ()):
            reached.append(b.receiving_node)
    if len(reached) != len(parent) + 1:
        raise _unreached(branches, root, parent, out, set(reached))
    for t in tie_lines:
        for node in (t.sending_node, t.receiving_node):
            if node != root and node not in parent:
                raise TopologyError(
                    f"tie branch {t.branch_id} ends at node {node}, "
                    f"which no closed branch connects"
                )
    return parent, out


def _unreached(branches, root: int, parent: dict[int, int], out: dict[int, list],
               reached: set[int]) -> TopologyError:
    """The error for a tree whose walk from the root reached only the nodes in
    reached: the smallest node with no feeding branch, else a cycle edge met
    by following feeding branches up from the smallest unreached node."""
    unfed = [n for n in out if n != root and n not in parent]
    if unfed:
        return TopologyError(f"node {min(unfed)} has no feeding branch")
    # unreached nodes all have a feeding branch, so they lie on a cycle or below one
    feeding = {b.receiving_node: b for b in branches}
    n = min(n for n in feeding if n not in reached)
    seen = set()
    while n not in seen:
        seen.add(n)
        n = feeding[n].sending_node
    edge = feeding[n]
    return TopologyError(
        f"cycle through branch {edge.branch_id} ({edge.sending_node}->{edge.receiving_node})"
    )


@dataclass(frozen=True)
class NetworkModel:
    """A radial network in per-unit, checked as a tree on construction.

    branches hold the closed branches only; tie lines are parsed but never
    energized. validate_radial passes both sorted by id. Construction runs
    radial_tree on them, so a network that is not a tree rooted at root, or
    whose tie lines end outside it, raises TopologyError. Every topology fact
    is derived from branches and root, here and nowhere else: children maps
    each node to the ids of the branches it feeds, in the order of branches;
    parent_branch maps each receiving node to the branch feeding it;
    node_index and branch_position give each node's position in nodes() and
    each branch's in branches. unordered_branch is the first branch whose
    sending node is fed by a branch that does not come before it in
    branches; with branches sorted by id, the first branch in id order fed
    through a branch with an id that is not smaller. It is None when the
    sequential numbering the stack sweep relies on holds. Instances are
    immutable after construction.
    """

    branches: tuple[PerUnitBranch, ...]
    root: int
    tie_lines: tuple[BranchRecord, ...]
    base: PerUnitBase
    # derived values, filled in __post_init__
    children: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    parent_branch: dict[int, int] = field(init=False, repr=False)
    node_load: dict[int, Phasor] = field(init=False, repr=False)
    sorted_nodes: tuple[int, ...] = field(init=False, repr=False)
    node_index: dict[int, int] = field(init=False, repr=False)
    branch_position: dict[int, int] = field(init=False, repr=False)
    unordered_branch: int | None = field(init=False, repr=False)

    def __post_init__(self):
        branches = self.branches
        parent, out = radial_tree(branches, self.root, self.tie_lines)
        # a tree's nodes are its root and its receiving nodes
        nodes = tuple(sorted([self.root, *parent]))
        children = dict.fromkeys(nodes, ())
        children.update((s, tuple([b.branch_id for b in fed])) for s, fed in out.items())
        load = dict.fromkeys(nodes, Phasor.zero())
        load.update((b.receiving_node, b.s_load) for b in branches)
        position = {b.branch_id: k for k, b in enumerate(branches)}
        # the root has no feeding branch and gets position -1, so it never counts
        unordered = next(
            (b.branch_id for k, b in enumerate(branches)
             if position.get(parent.get(b.sending_node), -1) >= k),
            None,
        )
        derived = dict(
            children=children, parent_branch=parent, node_load=load, sorted_nodes=nodes,
            node_index=dict(zip(nodes, range(len(nodes)))), branch_position=position,
            unordered_branch=unordered,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def nodes(self) -> tuple[int, ...]:
        """Every node id, the root included, in ascending order."""
        return self.sorted_nodes

    @property
    def node_count(self) -> int:
        return len(self.sorted_nodes)

    @property
    def sequentially_ordered(self) -> bool:
        return self.unordered_branch is None

    @property
    def branch_count(self) -> int:
        return len(self.branches)


@dataclass
class SolveState:
    """Mutable per-iteration arrays for one solve."""

    node_voltage: dict[int, Phasor]
    load_current: dict[int, Phasor]
    branch_current: dict[int, Phasor]
    prev_voltage_mag: dict[int, float]

    @classmethod
    def flat_start(cls, net: NetworkModel) -> "SolveState":
        """All node voltages 1.0 at angle 0, all branch currents 0."""
        one = Phasor(1.0, 0.0)
        zero = Phasor.zero()
        nodes = net.nodes()
        return cls(
            node_voltage={n: one for n in nodes},
            load_current={n: zero for n in nodes},
            branch_current={b.branch_id: zero for b in net.branches},
            prev_voltage_mag={n: 1.0 for n in nodes},
        )


@dataclass(frozen=True)
class SolveReport:
    """Converged results plus instrumentation for one solve.

    node_voltages rows are (node, magnitude p.u., angle degrees) sorted by
    node; branch_losses rows are (branch_id, kW, kVAr). The converged state is
    kept once, as the solver's complex lists: final_voltage and
    final_load_current (by node) and final_branch_current (by branch id) are
    read-only PhasorMap views over them. step_count_proposed and
    step_count_baseline are the steps the stack sweep and the per-iteration
    rescanning baseline take to reach this solution: solver.solve fills both,
    oracle.baseline_solve, which runs the baseline, only step_count_baseline.
    """

    converged: bool
    iterations: int
    node_voltages: tuple[tuple[int, float, float], ...]
    branch_currents: tuple[tuple[int, float], ...]
    branch_losses: tuple[tuple[int, float, float], ...]
    total_loss_p: float
    total_loss_q: float
    step_count_proposed: int
    step_count_baseline: int
    leaf_count: int
    pre_loop_steps: int
    per_iteration_steps: tuple[int, ...]
    delta_history: tuple[float, ...]
    max_polar_deviation: float | None
    final_voltage: PhasorMap
    final_load_current: PhasorMap
    final_branch_current: PhasorMap

    def voltage_magnitude(self, node: int) -> float:
        return self.final_voltage[node].magnitude
