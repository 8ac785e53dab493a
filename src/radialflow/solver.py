"""Backward/forward sweep load-flow with step-count instrumentation.

Branch currents are accumulated leaf-first over the sequentially ordered
branch list; node voltages then propagate root-first. Leaf identification runs
once before the iteration loop, which is where the step saving over the
per-iteration rescanning baseline comes from. find_leaf_nodes returns the
leaves as an ascending tuple, which is_leaf binary-searches; a StepCounter
keeps one running total of the steps taken, and a caller that wants the steps
of one stretch (before the loop, or one pass) reads the total before and after
it. solve calls neither: its step model takes the topology's childless nodes
as the leaves, and counts find_leaf_nodes' two scans, 2m steps, without
running them.

solve reads the network's per-unit columns (z and node_s_load) and its
position lists (net._tree), never a PerUnitBranch or an id-keyed view, and
gives each job one function. _sweep gathers its own parallel columns (node
and branch indices, impedance, conjugate load) and sweeps them, zipped,
until the voltage profile settles; the forward sweep and the convergence
check share one loop, the backward loop reads no leaf flag, and no
per-branch loop reads an option. _step_counts is the step model: step counts
depend only on the topology, so they are known without running the
baseline: 2m + r x per_iteration for the stack sweep, and r x its own
per-iteration count for the per-iteration rescanning baseline, which does
nothing before the loop. It counts is_leaf's binary search for each branch
from a table of its per-outcome counts, indexed by each node's rank among
the leaves; the rest of each per-iteration count is a closed form in the
node, branch and root-child counts and the node depths, plus literal_scan's
table scans. Having no load in them, the counts are kept on the tree, which
networks of one topology share. debug_polar checks each pass in polar form
after its forward loop.

build_report turns the final voltages and currents, as complex lists, into a
SolveReport that keeps those lists and shows them two ways, both read-only
and both computed on read: as Phasor views (final_*) keyed through the
network's node and branch id-to-position dicts, and as the node and branch
rows, model.RowViews whose row functions (_voltage_row, _current_row,
_loss_row) read the lists and the network's id and z columns. Only the two
loss totals are computed when the report is built; a study that reads one
node's voltage builds no row. solve hands over the sweep's own lists and
oracle.baseline_solve its dicts' values, so both return the same layout.

In the sweep's forward loop a voltage's finiteness is tested only when its
magnitude change is not within the tolerance: a non-finite part makes the
change inf or NaN, so every non-finite voltage still raises NumericError, at
the branch where it is met.

SolveOptions is a model._Record namedtuple, so options that would end a solve
in a TypeError or a first-pass "convergence" (a max_iterations that is not an
int, an infinite tolerance) are refused however the record is built, _replace
included; StepCounter is a plain mutable class.

The dict-based phase functions below (compute_load_currents, backward_sweep,
forward_sweep, check_convergence) count their steps and remain the reference
implementation: the tests require solve to reproduce them exactly, and
oracle.baseline_solve is built from them. They read the branch columns, not
the node loads or position lists the sweep reads, so a fault in deriving
those shows as a disagreement; only backward_sweep's default mode reads the
children view. The reference for build_report's losses, compute_losses,
lives in oracle.
"""
from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate

from .model import (
    LoadFlowError,
    NetworkModel,
    Phasor,
    PhasorMap,
    RowView,
    SolveReport,
    SolveState,
    _Record,
    wrap_angle,
)


class VoltageCollapseError(LoadFlowError):
    """Zero voltage magnitude at a loaded node."""


class NonConvergenceError(LoadFlowError):
    """Iteration limit reached; carries the last max voltage delta."""

    def __init__(self, iterations: int, max_delta: float):
        super().__init__(f"no convergence after {iterations} iterations (max delta {max_delta:.3e})")
        self.iterations = iterations
        self.max_delta = max_delta


class NumericError(LoadFlowError):
    """Non-finite intermediate value during a sweep."""


class SweepInvariantError(LoadFlowError):
    """Internal ordering violation: a child branch current was consumed before it was computed."""


class PolarMismatchError(LoadFlowError):
    """Polar-form voltage evaluation disagrees with the rectangular sweep."""


POLAR_AGREEMENT_TOL = 1e-10


class StepCounter:
    """Running total of elementary operations over a solve.

    total only grows: find_leaf_nodes, is_leaf, the phase functions and the
    oracle add to it. Each call that returns adds exactly the steps it took;
    what a call that raises has added is unspecified.
    """

    def __init__(self, total: int = 0):
        self.total = total


class SolveOptions(_Record, namedtuple(
        "SolveOptions", "tolerance max_iterations debug_polar literal_scan")):
    """How solve iterates: until every node's voltage-magnitude change is at
    most tolerance (positive and finite), for at most max_iterations passes
    (an int, at least 1)."""

    __slots__ = ()

    def __new__(cls, tolerance: float = 0.0001, max_iterations: int = 100,
                debug_polar: bool = False, literal_scan: bool = False):
        if not (tolerance > 0.0):
            raise ValueError("tolerance must be positive")
        if tolerance == math.inf:  # every pass would count as converged
            raise ValueError("tolerance must be finite")
        if not isinstance(max_iterations, int) or isinstance(max_iterations, bool):
            raise ValueError("max_iterations must be an integer")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        return tuple.__new__(cls, (tolerance, max_iterations, debug_polar, literal_scan))


def find_leaf_nodes(net: NetworkModel, counter: StepCounter | None = None) -> tuple[int, ...]:
    """Nodes appearing as receiving end of some branch but sending end of none,
    in ascending order; one step per branch in each of the two scans."""
    if counter:
        counter.total += 2 * len(net.sending)
    # a tree feeds each node once, so the receiving column holds no node twice
    return tuple(sorted(set(net.receiving).difference(net.sending)))


def is_leaf(leaves: tuple[int, ...], node: int, counter: StepCounter | None = None) -> bool:
    """Binary search over the ascending leaf tuple of find_leaf_nodes;
    comparisons are counted.

    The count is kept in a local and added to the counter once, on return.
    """
    low, high = 0, len(leaves) - 1
    steps = 0
    found = False
    while low <= high:
        mid = (low + high) // 2
        steps += 1
        if leaves[mid] > node:
            high = mid - 1
        else:
            steps += 1
            if leaves[mid] < node:
                low = mid + 1
            else:
                found = True
                break
    if counter:
        counter.total += steps
    return found


def _leaf_search_steps(count: int) -> tuple[list[int], list[int]]:
    """The comparisons is_leaf counts for each outcome of its search of an
    ascending tuple of count leaves.

    A binary search's count depends only on where it ends: found[i] when the
    node is leaves[i], missed[i] when it lies between leaves[i - 1] and
    leaves[i] (either way i = bisect_left(leaves, node)). One walk of the
    search's implicit tree visits each of the 2L + 1 outcomes once.
    """
    found = [0] * count
    missed = [0] * (count + 1)
    stack = [(0, count - 1, 0)]
    while stack:
        low, high, steps = stack.pop()
        if low > high:
            missed[low] = steps
            continue
        mid = (low + high) // 2
        found[mid] = steps + 2  # leaves[mid] > node fails, then leaves[mid] < node fails
        stack.append((low, mid - 1, steps + 1))
        stack.append((mid + 1, high, steps + 2))
    return found, missed


def compute_load_currents(state: SolveState, net: NetworkModel, counter: StepCounter | None = None) -> None:
    """LI_i = (PL_i - j QL_i) / conj(V_i); exactly zero at zero-load nodes.

    A node's load is that of the branch feeding it, found by pairing the
    receiving and s_load columns; the root, which no branch feeds, has none.
    One step per node.
    """
    nodes = net.nodes()
    if counter:
        counter.total += len(nodes)
    node_load = dict(zip(net.receiving, net.s_load))
    for node in nodes:
        s = node_load.get(node, 0j)
        if not s:
            state.load_current[node] = Phasor.zero()
            continue
        v = state.node_voltage[node]
        if v.magnitude == 0.0:
            raise VoltageCollapseError(f"zero voltage at loaded node {node}")
        state.load_current[node] = Phasor(s.real, -s.imag) / v.conjugate()


def backward_sweep(
    state: SolveState,
    net: NetworkModel,
    leaves: tuple[int, ...],
    counter: StepCounter | None = None,
    literal_scan: bool = False,
) -> None:
    """Branch currents from the highest branch id down to 1.

    A leaf branch takes its receiving node's load current directly. Otherwise
    the branches fed by the receiving node are pushed on a work stack, popped
    and accumulated, and the node's own load current added last. literal_scan
    finds those child branches by scanning the whole branch list (the counting
    the complexity formulas assume); the default uses the precomputed children
    adjacency. Both orders of accumulation are identical.

    is_leaf counts its own comparisons; the other steps are summed in a local
    and added to the counter once, on return, as is_leaf does.
    """
    ordered = sorted(zip(net.branch_ids, net.receiving), reverse=True)
    computed = set()
    steps = 0
    for branch_id, r in ordered:
        if is_leaf(leaves, r, counter):
            state.branch_current[branch_id] = state.load_current[r]
            steps += 1
        else:
            if literal_scan:
                stack = [child for child, s in zip(net.branch_ids, net.sending) if s == r]
                steps += len(net.branch_ids)
            else:
                stack = list(net.children[r])
            # a step per child listed (after a step per branch scanned in
            # literal mode), a pop and an add per child, then the node's own
            # load current
            steps += 3 * len(stack) + 1
            total = Phasor.zero()
            while stack:
                child = stack.pop()
                if child not in computed:
                    raise SweepInvariantError(
                        f"branch {child} consumed before computation (branch {branch_id})"
                    )
                total = total + state.branch_current[child]
            state.branch_current[branch_id] = total + state.load_current[r]
        computed.add(branch_id)
    if counter:
        counter.total += steps


def _polar_voltage(vs: Phasor, i_br: Phasor, z: Phasor) -> tuple[float, float]:
    """Receiving-end voltage via the squared-magnitude and angle-ratio forms."""
    phi = wrap_angle(math.atan2(i_br.im, i_br.re) + math.atan2(z.im, z.re))
    vs_m = vs.magnitude
    drop = i_br.magnitude * z.magnitude
    theta_s = vs.angle
    vr_sq = vs_m * vs_m + drop * drop - 2.0 * vs_m * drop * math.cos(theta_s - phi)
    vr_mag = math.sqrt(max(vr_sq, 0.0))
    vr_ang = math.atan2(
        vs_m * math.sin(theta_s) - drop * math.sin(phi),
        vs_m * math.cos(theta_s) - drop * math.cos(phi),
    )
    return vr_mag, vr_ang


def _polar_deviation(vs: Phasor, i_br: Phasor, z: Phasor, vr: Phasor, branch_id: int) -> float:
    """Disagreement of the polar-form receiving voltage with the rectangular vr.

    Raises PolarMismatchError beyond POLAR_AGREEMENT_TOL.
    """
    mag, ang = _polar_voltage(vs, i_br, z)
    dev = abs(mag - vr.magnitude)
    if mag > 0.0 and vr.magnitude > 0.0:
        dev = max(dev, abs(wrap_angle(ang - vr.angle)))
    if dev > POLAR_AGREEMENT_TOL:
        raise PolarMismatchError(f"branch {branch_id}: polar form deviates by {dev:.3e}")
    return dev


def forward_sweep(
    state: SolveState,
    net: NetworkModel,
    counter: StepCounter | None = None,
    debug_polar: bool = False,
) -> float:
    """V_r = V_s - I_br * Z_br in ascending branch order; root voltage is fixed.

    Returns the worst polar/rectangular disagreement seen (0.0 when debug_polar
    is off); disagreement beyond POLAR_AGREEMENT_TOL raises PolarMismatchError.
    One step per branch.
    """
    if counter:
        counter.total += len(net.branches)
    worst = 0.0
    for b in net.branches:
        vs = state.node_voltage[b.sending_node]
        i_br = state.branch_current[b.branch_id]
        vr = vs - i_br * b.z
        if not (math.isfinite(vr.re) and math.isfinite(vr.im)):
            raise NumericError(f"non-finite voltage on branch {b.branch_id}")
        if debug_polar:
            worst = max(worst, _polar_deviation(vs, i_br, b.z, vr, b.branch_id))
        state.node_voltage[b.receiving_node] = vr
    return worst


def check_convergence(
    state: SolveState,
    tolerance: float,
    counter: StepCounter | None = None,
) -> tuple[bool, float]:
    """Converged iff every node's voltage-magnitude change is within tolerance.

    Overwrites the stored previous magnitudes with the current ones. One step
    per node.
    """
    within = 0
    max_delta = 0.0
    nodes = list(state.node_voltage)
    if counter:
        counter.total += len(nodes)
    for node in nodes:
        mag = state.node_voltage[node].magnitude
        delta = abs(mag - state.prev_voltage_mag[node])
        if delta <= tolerance:
            within += 1
        max_delta = max(max_delta, delta)
        state.prev_voltage_mag[node] = mag
    return within == len(nodes), max_delta


def _step_counts(net: NetworkModel, literal_scan: bool) -> tuple[int, int, int]:
    """The step model: (the number of leaves, the steps one pass takes for
    the stack sweep, the steps one pass takes for the baseline).

    The counts depend on the topology only, so they are read off the
    network's position lists (the sending and receiving columns as node
    positions, each node's feeding branch and the children offsets) without
    running either sweep, once per tree: its counts slot keeps all but the
    literal_scan term. The leaves are the nodes the offsets give no
    children (the root feeds some branch). Each branch's is_leaf search is
    counted from the per-outcome counts of _leaf_search_steps: a node's
    search ends at its rank among the leaves, read off a running count of the
    childless nodes in node order. The rest is a closed form in n nodes, m
    branches, the root's c children and D, the sum of node depths
    (depth[receiving] = depth[sending] + 1), plus, with literal_scan, the
    m x (m - L) steps of the whole-table scans for children.
    """
    tree = net._tree
    send, recv, feeding, offsets, root = tree.send, tree.recv, tree.feeding, tree.offsets, tree.root
    n = len(feeding)
    m = len(send)
    if tree.counts is None:
        childless = [a == b for a, b in zip(offsets, offsets[1:])]
        # before[i] counts the leaves before node i, so before[-1] counts them all
        before = list(accumulate(childless, initial=0))
        leaf_count = before[-1]
        found, missed = _leaf_search_steps(leaf_count)
        # is_leaf's search for a node ends at the count of leaves before it:
        # the i-th leaf (from 0) takes found[i] comparisons and any other node
        # with i leaves before it missed[i]. Every leaf is searched for once,
        # and every other node but the root, which no branch feeds
        search_steps = (sum(found) - missed[before[root]]
                        + sum([missed[i] for i, leaf in zip(before, childless) if not leaf]))
        depth = [0] * n
        for s, r in zip(send, recv):
            depth[r] = depth[s] + 1
        # both take one step per node for the load currents and for the
        # convergence check, and one per branch for the forward sweep.
        # Backward, a branch with c children takes 3c + 1 steps (list, pop and
        # add each child, then the node's own load current; a leaf has c = 0),
        # and every branch not fed by the root is one branch's child, so the
        # branches take 4m - 3 x (the root's children) in all. The baseline
        # tests every node against every branch for leaves and every (branch,
        # node) pair for downstream sets, adding each member, and node k is a
        # member of depth[k] downstream sets
        common = n + m + n
        tree.counts = (
            leaf_count,
            search_steps + 4 * m - 3 * (offsets[root + 1] - offsets[root]) + common,
            n * m + m * n + sum(depth) + common,
        )
    leaf_count, per_iteration, per_iteration_baseline = tree.counts
    if literal_scan:  # each non-leaf branch also scans the whole table for its children
        per_iteration += m * (m - leaf_count)
    return leaf_count, per_iteration, per_iteration_baseline


def _sweep(net: NetworkModel, options: SolveOptions):
    """Iterate the sweep on flat lists from a flat start until it settles.

    The sweep reads only the network's columns (z, node_s_load) and position
    lists (the sending and receiving columns as node positions and each
    node's feeding branch), not its PerUnitBranch view or its id-keyed views,
    and gathers them into parallel columns; node indices are positions in
    net.nodes(), branch positions are positions in the columns:

    - loads: (node index, conj(S)) for each node with a nonzero load, in node
      order;
    - backward: (position, receiving index, parent position) in descending
      branch order; branches fed by the root get parent position -1, the last
      entry of the accumulators, a spare nobody reads;
    - forward: (position, sending index, receiving index, z) in ascending
      branch order, z being the column's complex value.

    Gives the same values, in the same order, as compute_load_currents,
    backward_sweep, forward_sweep and check_convergence, but for the sign of
    a zero: every branch current is its accumulator plus its receiving node's
    load current, and a leaf's accumulator is still 0j, so a leaf whose load
    current has a -0.0 part gets +0.0 there, where backward_sweep copies the
    load current. The two are equal under ==. solve sweeps only a
    sequentially ordered network, in which every child branch has a larger
    position than its parent, so the descending loop completes a branch's
    accumulator before reading it. Returns (iterations, delta history, worst
    polar deviation, and the final voltages, load currents and branch
    currents as complex lists).

    With debug_polar, each pass's branches are checked in polar form after
    its forward loop, from that pass's final voltages: each sending node's
    voltage was set earlier in the pass (or is the root's) and is set only
    once, so the check reads the values the forward loop read. A non-finite
    voltage anywhere in the pass is therefore raised before a polar mismatch.
    """
    tree = net._tree
    send, recv, feeding = tree.send, tree.recv, tree.feeding
    nodes = net.nodes()
    n = len(nodes)
    m = len(send)
    loaded = [i for i, s in enumerate(net.node_s_load) if s]
    loads = (loaded, [net.node_s_load[i].conjugate() for i in loaded])
    backward = (range(m - 1, -1, -1), recv[::-1], list(map(feeding.__getitem__, send[::-1])))
    forward = (range(m), send, recv, net.z)
    hypot = math.hypot
    isfinite = math.isfinite
    tolerance = options.tolerance
    v = [complex(1.0, 0.0)] * n
    il = [0j] * n
    mags = [1.0] * n
    deltas = []
    worst_polar = 0.0
    for iterations in range(1, options.max_iterations + 1):
        try:
            for i, s_conj in zip(*loads):
                il[i] = s_conj / v[i].conjugate()
        except ZeroDivisionError:  # complex division fails only on exactly 0j
            raise VoltageCollapseError(f"zero voltage at loaded node {nodes[i]}") from None

        # each current is scattered into its parent's accumulator, so siblings
        # add highest id first, as backward_sweep's stack pops them
        ib = [0j] * (m + 1)
        for k, r, p in zip(*backward):
            i_br = ib[k] + il[r]
            ib[k] = i_br
            ib[p] += i_br

        # forward sweep and convergence check in one loop: each node's voltage
        # is set once per pass, so its magnitude can be taken right away; the
        # root's never changes, so its delta is always 0
        converged = True
        max_delta = 0.0
        for k, s, r, z in zip(*forward):
            vr = v[s] - ib[k] * z
            re = vr.real
            im = vr.imag
            v[r] = vr
            mag = hypot(re, im)
            delta = abs(mag - mags[r])
            if not delta <= tolerance:  # as check_convergence: NaN is not within
                # a non-finite part makes mag, and so delta, inf or NaN
                # whatever the stored magnitude, so it is caught here
                if not (isfinite(re) and isfinite(im)):
                    raise NumericError(f"non-finite voltage on branch {net.branch_ids[k]}")
                converged = False
            if delta > max_delta:
                max_delta = delta
            mags[r] = mag
        if options.debug_polar:
            as_phasor = Phasor.from_complex
            for k, s, r, z in zip(*forward):
                dev = _polar_deviation(as_phasor(v[s]), as_phasor(ib[k]), as_phasor(z),
                                       as_phasor(v[r]), net.branch_ids[k])
                worst_polar = max(worst_polar, dev)
        deltas.append(max_delta)
        if converged:
            break
    else:
        raise NonConvergenceError(iterations, max_delta)
    del ib[m]  # the spare accumulator of the root-fed branches
    return iterations, deltas, worst_polar, v, il, ib


def solve(net: NetworkModel, options: SolveOptions | None = None) -> SolveReport:
    """Run the sweep iteration from a flat start until the voltage profile settles.

    _sweep runs the passes on flat lists: each recomputes load currents,
    sweeps branch currents backward, voltages forward, and checks the
    per-node magnitude deltas against the tolerance. Both step counts come
    from the step model, _step_counts, not from the loop: pre_loop_steps
    (2m, find_leaf_nodes' two scans, counted without running them) +
    iterations x per-iteration steps for the stack sweep, iterations x
    per-iteration steps for the baseline. A network that is not sequentially
    ordered is refused by NetworkModel.check_ordering.
    """
    if options is None:
        options = SolveOptions()
    net.check_ordering()

    iterations, deltas, worst_polar, v, il, ib = _sweep(net, options)
    leaf_count, per_iteration, per_iteration_baseline = _step_counts(net, options.literal_scan)
    m = len(net.branch_ids)
    return build_report(
        net,
        v,
        il,
        ib,
        iterations=iterations,
        step_count_proposed=2 * m + iterations * per_iteration,
        step_count_baseline=iterations * per_iteration_baseline,
        leaf_count=leaf_count,
        pre_loop_steps=2 * m,  # find_leaf_nodes' two scans, one step per branch each
        per_iteration_steps=(per_iteration,) * iterations,
        delta_history=tuple(deltas),
        max_polar_deviation=worst_polar if options.debug_polar else None,
    )


def build_report(
    net: NetworkModel,
    volts: list[complex],
    loads: list[complex],
    branches: list[complex],
    **fields,
) -> SolveReport:
    """The SolveReport of a converged solve; solve and baseline_solve both use it.

    volts and loads hold one value per node in net.nodes() order, branches one
    per branch in column order; the report keeps the lists. It shows them
    through PhasorMap views whose index is the network's plain id-to-position
    dict, net._index or net._position, and its node and branch rows through
    RowViews over the same lists, whose rows (_voltage_row, _current_row and
    _loss_row) are built only when read. Branch ids and impedances are read
    from the network's branch_ids and z columns, so no PerUnitBranch is
    built. Only the loss totals are computed here, summed in branch order.
    fields are the remaining SolveReport fields (iterations, step counts,
    delta history and so on). Magnitudes, angles and losses come from the
    complex parts with the arithmetic of Phasor.magnitude,
    Phasor.angle_degrees and oracle.compute_losses, so every value equals
    theirs exactly.
    """
    hypot = math.hypot
    to_kw = net.base.kw_base
    total_p = 0.0
    total_q = 0.0
    for z, c in zip(net.z, branches):
        # as _loss_row: ** 2 raises OverflowError where x * x would give inf
        i_sq = hypot(c.real, c.imag) ** 2
        total_p += i_sq * z.real * to_kw
        total_q += i_sq * z.imag * to_kw
    branch_sources = (net.branch_ids, branches, net.z, to_kw)
    return SolveReport(
        converged=True,
        node_voltages=RowView(_voltage_row, (net.nodes(), volts)),
        branch_currents=RowView(_current_row, branch_sources),
        branch_losses=RowView(_loss_row, branch_sources),
        total_loss_p=total_p,
        total_loss_q=total_q,
        final_voltage=PhasorMap(net._index, volts),
        final_load_current=PhasorMap(net._index, loads),
        final_branch_current=PhasorMap(net._position, branches),
        **fields,
    )


def _voltage_row(sources, k: int) -> tuple[int, float, float]:
    """(node, magnitude p.u., angle degrees) of node position k, from
    sources (node ids, voltages)."""
    nodes, volts = sources
    v = volts[k]
    re = v.real
    im = v.imag
    angle = math.atan2(im, re)
    if angle == -math.pi:
        angle = math.pi
    return nodes[k], math.hypot(re, im), math.degrees(angle)


def _current_row(sources, k: int) -> tuple[int, float]:
    """(branch id, current magnitude p.u.) of branch position k, from
    sources (branch ids, currents, z, kW base)."""
    ids, currents, _, _ = sources
    c = currents[k]
    return ids[k], math.hypot(c.real, c.imag)


def _loss_row(sources, k: int) -> tuple[int, float, float]:
    """(branch id, kW, kVAr) lost in branch position k, from sources (branch
    ids, currents, z, kW base)."""
    ids, currents, z, to_kw = sources
    c = currents[k]
    zk = z[k]
    i_sq = math.hypot(c.real, c.imag) ** 2
    return ids[k], i_sq * zk.real * to_kw, i_sq * zk.imag * to_kw


def step_model(n: int, m: int, r: int) -> tuple[int, int]:
    """Closed-form predicted step counts (proposed, baseline) for an n-node,
    m-leaf network converging in r iterations."""
    if n < 2 or not (1 <= m < n) or r < 1:
        raise ValueError(f"invalid step-model arguments n={n} m={m} r={r}")
    prefix = 3 * n + n * n
    proposed = prefix + r * (n + n * m + n * (n - m) + n)
    baseline = prefix + r * (n + n * n + n * n + n)
    return proposed, baseline
