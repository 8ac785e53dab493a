"""Brute-force references: the dict-based phase functions the sweep is
checked against, downstream-set branch currents, power balance, per-branch
losses, and a baseline solver that pays the per-iteration rescanning cost the
proposed method avoids.

The phase functions (compute_load_currents, backward_sweep, forward_sweep,
check_convergence) count their steps in a StepCounter and are the reference
implementation of the sweep: the tests require solver.solve to reproduce
them exactly, and baseline_solve is built from them. They read the branch
columns, not the position lists the sweep reads, so a fault in deriving
those shows as a disagreement; only backward_sweep's default mode reads the
children view, and it asks is_leaf, a counted binary search of
solver.find_leaf_nodes' ascending leaves, which branches are leaves.
compute_losses is the reference for solver.build_report's losses.

The debug_polar check, _polar_deviation with the polar-form voltage
equations it compares against the rectangular result, is here too: a solve
asked to check in polar form imports it, and forward_sweep checks with it.
So are SolveState, the phase functions' dict state, and to_per_unit, the
per-unit conversion of one record, which no solve uses.

radialflow imports this module on first use only, and so do solver and
model, which forward the names that lived there (PEP 562), so a CLI command
loads it under --debug-polar alone."""
from __future__ import annotations

import math

from .model import (
    BranchRecord,
    LoadFlowError,
    NetworkModel,
    PerUnitBase,
    PerUnitBranch,
    Phasor,
    SolveReport,
    _per_unit_columns,
)
from .solver import (
    NonConvergenceError,
    NumericError,
    SolveOptions,
    VoltageCollapseError,
    build_report,
)

TWO_PI = 2.0 * math.pi

POLAR_AGREEMENT_TOL = 1e-10


class PolarMismatchError(LoadFlowError):
    """Polar-form voltage evaluation disagrees with the rectangular sweep."""


def wrap_angle(angle: float) -> float:
    """Normalize an angle in radians to (-pi, pi]."""
    a = math.fmod(angle, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


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


def to_per_unit(record: BranchRecord, base: PerUnitBase) -> PerUnitBranch:
    """Convert a physical-unit branch record to per-unit on the given base.

    Impedance divides by z_base and the kW/kVAr load by kw_base. Tie branches
    convert impedance only. A finite value can overflow on a tiny base; that
    raises a DataError naming the branch, the field and both bases.
    """
    branch_id, sending_node, receiving_node, resistance, reactance, p, q, capacity, is_tie = record
    if is_tie:
        p = q = 0.0
    (z,), (s,) = _per_unit_columns((branch_id,), (resistance,), (reactance,), (p,), (q,), base)
    return PerUnitBranch(branch_id, sending_node, receiving_node, Phasor(z.real, z.imag),
                         Phasor(s.real, s.imag), capacity, is_tie)


class SolveState:
    """Mutable per-iteration arrays for one solve."""

    def __init__(self, node_voltage: dict[int, Phasor], load_current: dict[int, Phasor],
                 branch_current: dict[int, Phasor], prev_voltage_mag: dict[int, float]):
        self.node_voltage = node_voltage
        self.load_current = load_current
        self.branch_current = branch_current
        self.prev_voltage_mag = prev_voltage_mag

    @classmethod
    def flat_start(cls, net: NetworkModel) -> "SolveState":
        """All node voltages 1.0 at angle 0, all branch currents 0."""
        one = Phasor(1.0, 0.0)
        zero = Phasor.zero()
        nodes = net.nodes()
        return cls(
            node_voltage={n: one for n in nodes},
            load_current={n: zero for n in nodes},
            branch_current={b: zero for b in net.branch_ids},
            prev_voltage_mag={n: 1.0 for n in nodes},
        )


class SweepInvariantError(LoadFlowError):
    """Internal ordering violation: a child branch current was consumed before it was computed."""


class StepCounter:
    """Running total of elementary operations over a solve.

    total only grows: solver.find_leaf_nodes, is_leaf, the phase functions
    and the baseline add to it. Each call that returns adds exactly the
    steps it took; what a call that raises has added is unspecified.
    """

    def __init__(self, total: int = 0):
        self.total = total


def is_leaf(leaves: tuple[int, ...], node: int, counter: StepCounter | None = None) -> bool:
    """Binary search over the ascending leaf tuple of solver.find_leaf_nodes;
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


def compute_load_currents(state: SolveState, net: NetworkModel,
                          counter: StepCounter | None = None) -> None:
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


def downstream_sets(net: NetworkModel) -> dict[int, tuple[int, ...]]:
    """For each branch, the sorted set of nodes it feeds.

    Built by walking every fed node's ancestor chain up to the root, which no
    branch feeds, through a map from each receiving node to its branch and
    sending node made here from the branch columns. So it assumes nothing
    about branch ordering and reads none of the tree the network derives.
    """
    up = {r: (bid, s) for bid, s, r in zip(net.branch_ids, net.sending, net.receiving)}
    sets: dict[int, list[int]] = {bid: [] for bid in net.branch_ids}
    for node in up:
        k = node
        while k in up:
            bid, k = up[k]
            sets[bid].append(node)
    return {bid: tuple(sorted(nodes)) for bid, nodes in sets.items()}


def downstream_sum(net: NetworkModel, load_currents: dict[int, Phasor],
                   counter: StepCounter | None = None) -> dict[int, Phasor]:
    """Branch currents by explicit summation over each branch's downstream
    set, its member load currents added in ascending node order.

    Given a counter, counts what the per-iteration rescanning baseline pays
    per branch: a membership test per node, n, and a step per member added.
    """
    n = len(net.nodes())
    result = {}
    for bid, nodes in downstream_sets(net).items():
        total = Phasor.zero()
        for node in nodes:
            total = total + load_currents[node]
        result[bid] = total
        if counter:
            counter.total += n + len(nodes)
    return result


def power_balance(net: NetworkModel, report: SolveReport) -> dict[str, float]:
    """Root injection, consumed load, and losses of a converged state, in p.u.

    The load term is the power actually drawn at the solved voltages,
    sum of V_i * conj(LI_i); with voltages derived from the same currents the
    identity root = load + loss holds to rounding error.
    """
    root_v = report.final_voltage[net.root]
    injected = Phasor.zero()
    for bid, s in zip(net.branch_ids, net.sending):
        if s == net.root:
            injected = injected + root_v * report.final_branch_current[bid].conjugate()
    load = Phasor.zero()
    for node in net.nodes():
        load = load + report.final_voltage[node] * report.final_load_current[node].conjugate()
    loss = Phasor.zero()
    for b in net.branches:
        i_sq = abs(report.final_branch_current[b.branch_id]) ** 2
        loss = loss + Phasor(i_sq * b.z.re, i_sq * b.z.im)
    return {
        "root_p": injected.re,
        "root_q": injected.im,
        "load_p": load.re,
        "load_q": load.im,
        "loss_p": loss.re,
        "loss_q": loss.im,
    }


def compute_losses(
    state: SolveState, net: NetworkModel
) -> tuple[list[tuple[int, float, float]], float, float]:
    """Per-branch and total losses in kW/kVAr: |I|^2 R and |I|^2 X times the
    base's kw_base."""
    to_kw = net.base.kw_base
    rows = []
    total_p = 0.0
    total_q = 0.0
    for b in net.branches:
        i_sq = abs(state.branch_current[b.branch_id]) ** 2
        lp = i_sq * b.z.re * to_kw
        lq = i_sq * b.z.im * to_kw
        rows.append((b.branch_id, lp, lq))
        total_p += lp
        total_q += lq
    return rows, total_p, total_q


def _rescan_leaves(net: NetworkModel, counter: StepCounter) -> set[int]:
    """Naive per-iteration leaf identification: test every node against the
    whole sending column."""
    leaves = set()
    for node in net.nodes():
        feeds_any = False
        for sending in net.sending:
            counter.total += 1
            if sending == node:
                feeds_any = True
        if not feeds_any and node != net.root:
            leaves.add(node)
    return leaves


def baseline_solve(net: NetworkModel, options: SolveOptions | None = None) -> SolveReport:
    """Same numerics as solver.solve, but leaf identification and downstream
    sets are recomputed inside every iteration, with steps counted accordingly.

    A cost model of the per-iteration rescanning approach, not a performance
    path; voltages agree with solver.solve to rounding error. With debug_polar,
    max_polar_deviation is the worst polar/rectangular disagreement over every
    pass, as in solver.solve.
    """
    if options is None:
        options = SolveOptions()
    state = SolveState.flat_start(net)
    counter = StepCounter()

    deltas = []
    per_iteration = []
    worst_polar = 0.0
    for iterations in range(1, options.max_iterations + 1):
        start = counter.total
        compute_load_currents(state, net, counter)
        leaf_count = len(_rescan_leaves(net, counter))
        state.branch_current.update(downstream_sum(net, state.load_current, counter))
        worst_polar = max(worst_polar, forward_sweep(state, net, counter, options.debug_polar))
        converged, max_delta = check_convergence(state, options.tolerance, counter)
        per_iteration.append(counter.total - start)
        deltas.append(max_delta)
        if converged:
            break
    else:
        raise NonConvergenceError(iterations, max_delta)

    nodes = net.nodes()
    return build_report(
        net,
        [state.node_voltage[n].as_complex() for n in nodes],
        [state.load_current[n].as_complex() for n in nodes],
        [state.branch_current[bid].as_complex() for bid in net.branch_ids],
        iterations=iterations,
        step_count_proposed=0,
        step_count_baseline=counter.total,
        leaf_count=leaf_count,
        pre_loop_steps=0,
        per_iteration_steps=tuple(per_iteration),
        delta_history=tuple(deltas),
        max_polar_deviation=worst_polar if options.debug_polar else None,
    )
