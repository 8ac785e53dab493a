"""Brute-force references: downstream-set branch currents, power balance, and a
baseline solver that pays the per-iteration rescanning cost the proposed
method avoids."""
from __future__ import annotations

from .model import NetworkModel, Phasor, SolveReport, SolveState
from .solver import (
    NonConvergenceError,
    SolveOptions,
    StepCounter,
    build_report,
    check_convergence,
    compute_load_currents,
    forward_sweep,
)


def downstream_sets(net: NetworkModel) -> dict[int, tuple[int, ...]]:
    """For each branch, the sorted set of nodes it feeds.

    Built by walking every node's ancestor chain to the root, so it assumes
    nothing about branch ordering or the children adjacency.
    """
    sets: dict[int, list[int]] = {b.branch_id: [] for b in net.branches}
    for node in net.nodes():
        if node == net.root:
            continue
        k = node
        while k != net.root:
            bid = net.parent_branch[k]
            sets[bid].append(node)
            k = net.branches[net.branch_position[bid]].sending_node
    return {bid: tuple(sorted(nodes)) for bid, nodes in sets.items()}


def downstream_sum(net: NetworkModel, load_currents: dict[int, Phasor]) -> dict[int, Phasor]:
    """Branch currents by explicit summation over each branch's downstream set."""
    result = {}
    for bid, nodes in downstream_sets(net).items():
        total = Phasor.zero()
        for node in nodes:
            total = total + load_currents[node]
        result[bid] = total
    return result


def power_balance(net: NetworkModel, report: SolveReport) -> dict[str, float]:
    """Root injection, consumed load, and losses of a converged state, in p.u.

    The load term is the power actually drawn at the solved voltages,
    sum of V_i * conj(LI_i); with voltages derived from the same currents the
    identity root = load + loss holds to rounding error.
    """
    root_v = report.final_voltage[net.root]
    injected = Phasor.zero()
    for bid in net.children[net.root]:
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


def _rescan_leaves(net: NetworkModel, counter: StepCounter) -> set[int]:
    """Naive per-iteration leaf identification: test every node against the
    whole sending column."""
    leaves = set()
    for node in net.nodes():
        feeds_any = False
        for b in net.branches:
            counter.total += 1
            if b.sending_node == node:
                feeds_any = True
        if not feeds_any and node != net.root:
            leaves.add(node)
    return leaves


def _rescan_branch_currents(state: SolveState, net: NetworkModel, counter: StepCounter) -> None:
    """Recompute every downstream set from scratch and sum the member load
    currents in ascending node order, counting one membership test per
    (branch, node) pair and one step per member added."""
    n = len(net.nodes())
    for bid, members in downstream_sets(net).items():
        total = Phasor.zero()
        for node in members:
            total = total + state.load_current[node]
        state.branch_current[bid] = total
        counter.total += n + len(members)


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
        _rescan_branch_currents(state, net, counter)
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
        [state.branch_current[b.branch_id].as_complex() for b in net.branches],
        iterations=iterations,
        step_count_proposed=0,
        step_count_baseline=counter.total,
        leaf_count=leaf_count,
        pre_loop_steps=0,
        per_iteration_steps=tuple(per_iteration),
        delta_history=tuple(deltas),
        max_polar_deviation=worst_polar if options.debug_polar else None,
    )
