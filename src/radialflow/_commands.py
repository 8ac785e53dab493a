"""The CLI commands other than solve, and the parts of a solve run that a
solve of a delimited table in table form does not use, loaded when they run:
validate, compare and bench, the golden-CSV reader, the random feeders bench
draws and the JSON output format.

Under python -m radialflow.cli the cli module runs as __main__, and importing
radialflow.cli here would load and run a second copy of it. So this module
does not import cli: each command takes the parsed arguments and the running
cli module, whose table loader, solve and exit codes it uses, and the
readers import what they share with cli from ingest.
"""
from __future__ import annotations

import math
import sys

from . import solver
from .ingest import ParseError, RawTable, _read_text, _to_number, validate_radial
from .model import BranchRecord, DataError
from .solver import SolveOptions


def read_golden(path) -> dict[int, float]:
    """Per-node voltage magnitudes from a node,vmag_pu CSV file.

    Blank lines and the header (any line starting with "node") are skipped.
    Raises ParseError for a file read_text cannot read, or naming path:line
    for a bad row, a magnitude that is not finite, one that is not positive
    (-0.0 included) or a node listed twice.
    """
    golden = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("node"):
            continue
        try:
            node, vmag = line.split(",")
            node, vmag = _to_number(node, int), _to_number(vmag, float)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad golden row {line!r}") from None
        if not math.isfinite(vmag):
            raise ParseError(f"{path}:{lineno}: golden magnitude of node {node} is not finite")
        if not vmag > 0.0:
            raise ParseError(f"{path}:{lineno}: golden magnitude of node {node} is not positive")
        if node in golden:
            raise ParseError(f"{path}:{lineno}: node {node} is listed twice")
        golden[node] = vmag
    return golden


def cmd_validate(args, cli) -> int:
    table = cli._load_table(args.file, args.input_format)
    net = validate_radial(table, root=args.root, base=cli._base_from_args(args, table),
                          require_ordered=False)
    leaves = solver.find_leaf_nodes(net)
    ordered = "yes" if net.sequentially_ordered else "no"
    print(
        f"NB={net.node_count} LN={net.branch_count} ties={len(net.tie_lines)} "
        f"leaves={len(leaves)} ordered={ordered}"
    )
    if not net.sequentially_ordered:
        print("ordering violation: run solve with --renumber", file=sys.stderr)
        return cli.EXIT_TOPOLOGY
    return cli.EXIT_OK


def _report_json(report, summary: dict[str, int]) -> str:
    """solve's --format json text of report, with summary, cli._summary's
    counts, after converged."""
    import json  # here, so that the other commands do not load it

    doc = {
        "converged": report.converged,
        **summary,
        "nodes": [
            {"node": n, "vmag_pu": round(v, 5), "angle_deg": round(a, 5)}
            for n, v, a in report.node_voltages
        ],
        "branches": [
            {
                "branch": bid,
                "imag_pu": round(imag, 5),
                "loss_kw": round(lp, 4),
                "loss_kvar": round(lq, 4),
            }
            for (bid, imag), (_, lp, lq) in zip(report.branch_currents, report.branch_losses)
        ],
        "total_loss_kw": round(report.total_loss_p, 4),
        "total_loss_kvar": round(report.total_loss_q, 4),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def cmd_compare(args, cli) -> int:
    report = cli._run_solve(args)
    golden = read_golden(args.golden)
    solved = {n: v for n, v, _ in report.node_voltages}
    if set(golden) != set(solved):
        raise DataError(
            f"golden node set does not match network "
            f"(golden {len(golden)} nodes, network {len(solved)})"
        )
    print("node vmag_pu golden_pu deviation")
    worst_node = None
    worst = -1.0
    for node in sorted(golden):
        dev = abs(solved[node] - golden[node])
        print(f"{node} {solved[node]:.5f} {golden[node]:.5f} {dev:.6f}")
        if dev > worst:
            worst, worst_node = dev, node
    print(f"max_deviation {worst:.6f} at node {worst_node}")
    if worst > args.bound:
        print(
            f"FAIL: node {worst_node} deviates by {worst:.6f} > bound {args.bound}",
            file=sys.stderr,
        )
        return cli.EXIT_COMPARE
    return cli.EXIT_OK


def generate_random_table(n: int, leaf_fraction: float, rng) -> RawTable:
    """Seeded random radial feeder with roughly the requested leaf fraction,
    drawn from rng, a random.Random (not imported here: only bench uses it).

    Node k attaches to an already-placed parent; attaching to an internal node
    adds a leaf, attaching to a leaf keeps the count, so the builder steers the
    leaf count toward leaf_fraction * (n - 1). Loads shrink with n to keep the
    feeder comfortably convergent.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    target = max(1, round(leaf_fraction * (n - 1)))
    parent = {2: 1}
    leaves = {2}
    for k in range(3, n + 1):
        internal = [v for v in range(1, k) if v not in leaves]
        if len(leaves) < target and internal:
            p = rng.choice(internal)
        else:
            p = rng.choice(sorted(leaves))
            leaves.discard(p)
        parent[k] = p
        leaves.add(k)
    p_cap = 2000.0 / n
    rows = []
    for k in range(2, n + 1):
        rows.append(
            BranchRecord(
                branch_id=k - 1,
                sending_node=parent[k],
                receiving_node=k,
                resistance=rng.uniform(0.01, 0.3),
                reactance=rng.uniform(0.01, 0.3),
                load_p=rng.uniform(0.0, p_cap),
                load_q=rng.uniform(0.0, 0.75 * p_cap),
            )
        )
    return RawTable(rows=tuple(rows), source_name=f"random-{n}")


def cmd_bench(args, cli) -> int:
    import random  # here, as no other command uses it

    cells = sorted((n, f) for n in args.sizes for f in args.leaf_fractions)
    print("n leaf_frac m r iter_proposed pred_proposed iter_baseline pred_baseline saving")
    for n, frac in cells:
        rng = random.Random(f"{args.seed}:{n}:{frac:.4f}")
        table = generate_random_table(n, frac, rng)
        net = validate_radial(table)
        opts = SolveOptions(tolerance=args.tol, max_iterations=args.max_iter,
                            literal_scan=True)
        report = solver.solve(net, opts)
        m = report.leaf_count
        r = report.iterations
        # compare the per-iteration loop cost against the closed forms' cost of
        # one more iteration; the one-off prefix is excluded on both sides
        pred_prop, pred_base = solver.step_model(n, m, r)
        next_prop, next_base = solver.step_model(n, m, r + 1)
        pred_prop_iter = next_prop - pred_prop
        pred_base_iter = next_base - pred_base
        iter_prop = sum(report.per_iteration_steps) // r
        iter_base = report.step_count_baseline // r
        saving = iter_base / iter_prop
        print(
            f"{n} {frac:.2f} {m} {r} "
            f"{iter_prop} {pred_prop_iter} {iter_base} {pred_base_iter} {saving:.3f}"
        )
    return cli.EXIT_OK
