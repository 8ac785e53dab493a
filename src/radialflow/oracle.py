"""Brute-force references: downstream-set branch currents, power balance,
per-branch losses, and a baseline solver that pays the per-iteration
rescanning cost the proposed method avoids.

compute_losses is the reference for solver.build_report's losses. No command
calls anything here, and radialflow imports this module on first use only, so
the CLI never loads it."""
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
