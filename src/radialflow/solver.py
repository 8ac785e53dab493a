"""Backward/forward sweep load-flow with step-count instrumentation.

Branch currents are accumulated leaf-first over the sequentially ordered
branch list; node voltages then propagate root-first. Leaf identification runs
once before the iteration loop, which is where the step saving over the
per-iteration rescanning baseline comes from. find_leaf_nodes returns the
leaves as an ascending tuple (cmd_validate prints their count, and the
reference backward sweep binary-searches them); given an oracle.StepCounter,
it counts its two scans. solve does not call it: its step model takes the
topology's childless nodes as the leaves, and counts find_leaf_nodes' two
scans, 2m steps, without running them.

solve reads the network's per-unit columns (z and s_load) and its position
lists (net._tree), never a PerUnitBranch or an id-keyed view, and gives each
job one function. _sweep zips its own parallel columns (node indices,
impedance, conjugate load) and sweeps them until the voltage profile
settles. It keeps branch currents by receiving node, as
Shirmohammadi's backward sweep sums currents at each node: one accumulator
per node, no branch index in either loop. The forward sweep and the
convergence check share one loop, the backward loop reads no leaf flag, and
no per-branch loop reads an option. _step_counts is the step model: step
counts depend only on the topology, so they are known without running the
baseline: 2m + r x per_iteration for the stack sweep, and r x its own
per-iteration count for the per-iteration rescanning baseline, which does
nothing before the loop. It counts oracle.is_leaf's binary search for each
branch from a table of its per-outcome counts, indexed by each node's rank
among the leaves; the rest of each per-iteration count is a closed form in
the node, branch and root-child counts and the node depths, plus
literal_scan's table scans. Having no load in them, the counts are kept on
the tree, which networks of one topology share (model._shared_tree).
debug_polar checks each pass in polar form after its forward loop, with
oracle._polar_deviation, which a solve imports only when it is asked to.

A tree swept again and again runs a pass loop generated for it. Once the
generic loop of _sweep has swept a tree _KERNEL_PASSES passes, and if the
tree has at most _KERNEL_BRANCHES branches, _kernel.generated_sweep writes
that loop out for the tree and the solve's loaded nodes, with one local
variable per node and branch value, and compiles it once; the tree keeps it
(its kernel slot) with those loaded positions. A solve with debug_polar off
and the same loaded positions runs it. It does the generic loop's
arithmetic in the same order, so every value is the same to the last bit.
On a zero voltage at a loaded node, a non-finite magnitude sum or no
convergence it returns None, and _sweep runs the generic loop from the flat
start, which raises the error it always raised (or goes on past a finite
sum that overflows). The generic loop stays: it is the reference the tests
compare the generated one with, and the path of every other solve. _kernel,
which imports ast, is imported when the first loop is generated, so a
process that never sweeps a tree that often (the CLI's every run) does not
load it.

build_report turns the final voltages and currents, as complex lists, into a
SolveReport that keeps those lists and shows them two ways, both read-only
and both computed on read: as the final_* Phasor views, model._IdViews that
iterate the network's own node or branch ids and whose row function
(_phasor_row) reads a list through its tree's node or branch id-to-position
dict (net._tree.index or net._tree.position), and as the node and branch
rows, model.RowViews whose row functions (_voltage_row, _current_row,
_loss_row) read the lists and the network's id and z columns. Only the two
loss totals are computed when the report is built; a study that reads one node's voltage builds no row. A
squared current magnitude that overflows a float is a NumericError naming
its branch, and so is a loss total that overflows, naming the branch at
which the running total does: a report never carries an infinite loss
total. solve hands over the sweep's own lists and oracle.baseline_solve its
dicts' values, so both return the same layout.

The sweep tests finiteness once per pass, on the sum of the magnitudes,
not per node: a non-finite part makes a magnitude, and so the sum, inf or
NaN, and only then are the voltages scanned, so every non-finite voltage
still raises NumericError, at the first branch in branch order, where
oracle.forward_sweep meets it.

SolveOptions is a model._Record namedtuple, so options that would end a solve
in a TypeError or a first-pass "convergence", or be read by their truth (a
max_iterations that is not an int, a tolerance that is a bool, text or
infinite, a flag that is not a bool), are refused however the record is
built, _replace included; solve without options uses one module-level
default.

The reference implementation of the sweep, the dict-based phase functions
(compute_load_currents, backward_sweep, forward_sweep, check_convergence)
that count their steps, lives in oracle with the rest of the references, so
that importing solve does not compile it, and so does the debug_polar check
(_polar_voltage, _polar_deviation, POLAR_AGREEMENT_TOL, PolarMismatchError
and wrap_angle). The tests import those from here too: this module forwards
them to oracle on first use (PEP 562), and forwards nothing else.
"""
from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, compress

from .model import (
    LoadFlowError,
    NetworkModel,
    Phasor,
    RowView,
    SolveReport,
    _IdView,
    _Record,
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


class SolveOptions(_Record, namedtuple(
        "SolveOptions", "tolerance max_iterations debug_polar literal_scan")):
    """How solve iterates: until every node's voltage-magnitude change is at
    most tolerance (a positive and finite real number, not a bool), for at
    most max_iterations passes (an int, at least 1); debug_polar and
    literal_scan are bools."""

    __slots__ = ()

    def __new__(cls, tolerance: float = 0.0001, max_iterations: int = 100,
                debug_polar: bool = False, literal_scan: bool = False):
        if type(tolerance) is not float:
            from numbers import Real  # here, as a float tolerance does not get here

            if isinstance(tolerance, bool) or not isinstance(tolerance, Real):
                raise ValueError("tolerance must be a real number")
        if not (tolerance > 0.0):
            raise ValueError("tolerance must be positive")
        if tolerance == math.inf:  # every pass would count as converged
            raise ValueError("tolerance must be finite")
        if not isinstance(max_iterations, int) or isinstance(max_iterations, bool):
            raise ValueError("max_iterations must be an integer")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if type(debug_polar) is not bool:
            raise ValueError("debug_polar must be a bool")
        if type(literal_scan) is not bool:
            raise ValueError("literal_scan must be a bool")
        return tuple.__new__(cls, (tolerance, max_iterations, debug_polar, literal_scan))


_DEFAULT_OPTIONS = SolveOptions()


def find_leaf_nodes(net: NetworkModel, counter=None) -> tuple[int, ...]:
    """Nodes appearing as receiving end of some branch but sending end of none,
    in ascending order; one step per branch in each of the two scans, added
    to counter, an oracle.StepCounter, when one is given."""
    if counter:
        counter.total += 2 * len(net.sending)
    # a tree feeds each node once, so the receiving column holds no node twice
    return tuple(sorted(set(net.receiving).difference(net.sending)))


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


# A tree gets a generated pass loop once the generic loop has swept it this
# many passes: generating bus69's takes 10-20 ms, which its faster passes
# (about 10 us each) pay back in 1000-2000 passes.
_KERNEL_PASSES = 1024
# ... and only a tree of at most this many branches: generating takes about
# 0.2-0.3 ms and 30 KB of transient memory per branch (8 MB at 256 branches).
_KERNEL_BRANCHES = 256


def _sweep(net: NetworkModel, options: SolveOptions):
    """Iterate the sweep on flat lists from a flat start until it settles.

    A tree that the loop below (the generic loop) has swept _KERNEL_PASSES
    passes, and that has at most _KERNEL_BRANCHES branches, gets the loop
    written out for it and for this solve's loaded nodes by
    _kernel.generated_sweep (the module imported then, on first use),
    compiled once and kept in its kernel slot; the generic loop counts its
    passes in the swept slot. Each solve with debug_polar off whose loaded
    positions equal the kept ones runs the generated loop, which gives the
    same values to the last bit. When it returns None (a zero voltage at a
    loaded node, a non-finite magnitude sum or no convergence), the generic
    loop runs from the flat start and raises, or goes on, as it always has:
    only a failing solve sweeps twice.

    The sweep reads only the network's columns (z, s_load) and position
    lists (the sending and receiving columns as node positions), not its
    PerUnitBranch view or its id-keyed views, and zips them as parallel
    columns; node indices are positions in net.nodes():

    - loads: (receiving index, conj(S)) for each branch with a nonzero load,
      in branch order: a node's load is that of the branch feeding it. A
      zero voltage at a loaded node is named at the smallest such index, in
      node order, as oracle.compute_load_currents names it;
    - backward: (receiving index, sending index) in descending branch order;
    - forward: (sending index, receiving index, z) in ascending branch order,
      z being the column's complex value.

    Branch currents are kept by receiving node, as sums of currents at each
    node: a tree feeds each node once, so acc[r] first sums the currents of
    the branches node r sends, then holds the current of the branch feeding
    r. The root-fed branches add into acc[root], which nothing reads, and
    the branch currents are read off the receiving nodes once per solve.

    Gives the same values, in the same order, as oracle's
    compute_load_currents, backward_sweep, forward_sweep and
    check_convergence, but for the sign of a zero: every branch current is
    its accumulator plus its receiving node's load current, and a leaf's
    accumulator is still 0j, so a leaf whose load current has a -0.0 part
    gets +0.0 there, where backward_sweep copies the load current. The two
    are equal under ==. solve sweeps only a sequentially ordered network, in
    which every child branch has a larger position than its parent, so the
    descending loop completes a node's accumulator before reading it.
    Returns (iterations, delta history, worst polar deviation, and the final
    voltages, load currents and branch currents as complex lists).

    Finiteness is tested once per pass, on the sum of the magnitudes: a
    non-finite part makes a magnitude, and so the sum, inf or NaN. Only then
    are the voltages scanned in branch order, and the first non-finite one
    raises NumericError, at the branch oracle.forward_sweep raises it. A sum
    that overflows from finite parts finds none, and the sweep goes on; a
    pass with an infinite magnitude does not converge, as check_convergence's
    delta for it is inf or NaN.

    With debug_polar, each pass's branches are checked in polar form
    (oracle._polar_deviation, imported once per solve) after the finiteness
    test, from that pass's final voltages: each sending node's voltage was
    set earlier in the pass (or is the root's) and is set only once, so the
    check reads the values the forward loop read. A non-finite voltage
    anywhere in the pass is therefore raised before a polar mismatch.
    """
    tree = net._tree
    send, recv = tree.send, tree.recv
    nodes = net.nodes()
    n = len(nodes)
    s_load = net.s_load
    loads = (list(compress(recv, s_load)), list(map(complex.conjugate, compress(s_load, s_load))))
    kernel = tree.kernel
    if kernel is None and tree.swept >= _KERNEL_PASSES and len(send) <= _KERNEL_BRANCHES:
        from ._kernel import generated_sweep

        kernel = tree.kernel = (loads[0], generated_sweep(tree, loads[0]))
    if kernel is not None and not options.debug_polar and kernel[0] == loads[0]:
        result = kernel[1](loads[1], net.z, options.max_iterations, options.tolerance)
        if result is not None:
            return result
    backward = (recv[::-1], send[::-1])
    forward = (send, recv, net.z)
    hypot = math.hypot
    tolerance = options.tolerance
    v = [complex(1.0, 0.0)] * n
    il = [0j] * n
    mags = [1.0] * n
    deltas = []
    worst_polar = 0.0
    if options.debug_polar:  # the check lives with the references
        from .oracle import _polar_deviation
    for iterations in range(1, options.max_iterations + 1):
        try:
            for i, s_conj in zip(*loads):
                il[i] = s_conj / v[i].conjugate()
        except ZeroDivisionError:  # complex division fails only on exactly 0j
            i = min([i for i in loads[0] if not v[i]])
            raise VoltageCollapseError(f"zero voltage at loaded node {nodes[i]}") from None

        # each current is added into its sending node's accumulator, so
        # siblings add highest id first, as backward_sweep's stack pops them
        acc = [0j] * n
        for r, s in zip(*backward):
            i_br = acc[r] + il[r]
            acc[r] = i_br
            acc[s] += i_br

        # forward sweep and convergence check in one loop: each node's voltage
        # is set once per pass, so its magnitude can be taken right away; the
        # root's never changes, so its delta is always 0
        max_delta = 0.0
        for s, r, z in zip(*forward):
            vr = v[s] - acc[r] * z
            re = vr.real
            im = vr.imag
            v[r] = vr
            mag = hypot(re, im)
            delta = abs(mag - mags[r])
            if delta > max_delta:
                max_delta = delta
            mags[r] = mag
        converged = max_delta <= tolerance
        if not math.isfinite(sum(mags)):
            for k, r in enumerate(recv):
                vr = v[r]
                if not (math.isfinite(vr.real) and math.isfinite(vr.imag)):
                    raise NumericError(f"non-finite voltage on branch {net.branch_ids[k]}")
            # finite parts: an infinite magnitude's delta is inf or NaN, which
            # check_convergence does not count as within the tolerance
            converged = converged and math.inf not in mags
        if options.debug_polar:
            as_phasor = Phasor.from_complex
            for k, (s, r, z) in enumerate(zip(*forward)):
                dev = _polar_deviation(as_phasor(v[s]), as_phasor(acc[r]), as_phasor(z),
                                       as_phasor(v[r]), net.branch_ids[k])
                worst_polar = max(worst_polar, dev)
        deltas.append(max_delta)
        if converged:
            break
    else:
        raise NonConvergenceError(iterations, max_delta)
    tree.swept += iterations
    return iterations, deltas, worst_polar, v, il, list(map(acc.__getitem__, recv))


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
        options = _DEFAULT_OPTIONS
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
    through _IdViews that iterate the network's own ids (net.nodes() or
    branch_ids) and look them up in its tree's id-to-position dict
    (net._tree.index or net._tree.position), whose keys may be another
    network's ids equal to these under ==, and whose _phasor_row builds a
    Phasor when an entry is read, and its node and branch rows through
    RowViews over the same lists, whose rows (_voltage_row, _current_row and
    _loss_row) are built only when read. Branch ids and impedances are read from the
    network's branch_ids and z columns, so no PerUnitBranch is built. Only
    the loss totals are computed here, summed in branch order; a branch
    whose squared current magnitude overflows a float raises NumericError,
    the first such branch in column order named, and so does a loss total
    that overflows, naming the branch at which the running total first stops
    being finite, so a report never carries an infinite loss. fields are
    the remaining SolveReport fields (iterations, step counts, delta history
    and so on). Magnitudes, angles and losses come from the
    complex parts with the arithmetic of Phasor.magnitude,
    Phasor.angle_degrees and oracle.compute_losses, so every value equals
    theirs exactly.
    """
    hypot = math.hypot
    to_kw = net.base.kw_base
    total_p = 0.0
    total_q = 0.0
    try:
        for z, c in zip(net.z, branches):
            # as _loss_row: ** 2 raises OverflowError where x * x would give inf
            i_sq = hypot(c.real, c.imag) ** 2
            total_p += i_sq * z.real * to_kw
            total_q += i_sq * z.imag * to_kw
    except OverflowError:
        # every earlier current squared without overflow, so c is first met here
        raise NumericError(f"squared current overflows on branch "
                           f"{net.branch_ids[branches.index(c)]} (|I| = {hypot(c.real, c.imag)!r} "
                           f"p.u.)") from None
    branch_sources = (net.branch_ids, branches, net.z, to_kw)
    losses = RowView(_loss_row, branch_sources)
    if not (math.isfinite(total_p) and math.isfinite(total_q)):
        # summed again in the same order, row by row, the totals name the
        # branch at which they first overflow (no squared current did)
        total_p = total_q = 0.0
        for branch_id, p, q in losses:
            total_p += p
            total_q += q
            if not (math.isfinite(total_p) and math.isfinite(total_q)):
                raise NumericError(f"total loss overflows on branch {branch_id}")
    return SolveReport(
        converged=True,
        node_voltages=RowView(_voltage_row, (net.nodes(), volts)),
        branch_currents=RowView(_current_row, branch_sources),
        branch_losses=losses,
        total_loss_p=total_p,
        total_loss_q=total_q,
        final_voltage=_IdView(net._nodes, net._tree.index, _phasor_row, volts),
        final_load_current=_IdView(net._nodes, net._tree.index, _phasor_row, loads),
        final_branch_current=_IdView(net.branch_ids, net._tree.position, _phasor_row, branches),
        **fields,
    )


def _phasor_row(values, k: int) -> Phasor:
    """The Phasor of the complex value at position k of values."""
    z = values[k]
    return Phasor(z.real, z.imag)


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


_ORACLE = ("compute_load_currents", "backward_sweep", "forward_sweep", "check_convergence",
           "PolarMismatchError", "POLAR_AGREEMENT_TOL", "_polar_voltage", "_polar_deviation",
           "wrap_angle")


def __getattr__(name):
    # the reference phase functions and the debug_polar check live in oracle,
    # which is imported on first use, so importing solve does not load them
    # (PEP 562)
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
