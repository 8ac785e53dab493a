"""Command-line surface: validate and solve feeder files, compare against a
golden voltage table, and benchmark step counts on random feeders.

read_text and read_golden are the CLI's file readers: every input file is read
as UTF-8 without a leading byte-order mark, and a file that cannot be read is
a ParseError naming it."""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import solver
from .ingest import (
    ParseError,
    RawTable,
    _to_number,
    parse_branch_table,
    renumber_sequential,
    validate_radial,
)
from .model import DEFAULT_BASE, BranchRecord, DataError, LoadFlowError, PerUnitBase, TopologyError
from .solver import NonConvergenceError, SolveOptions

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_TOPOLOGY = 3
EXIT_NONCONVERGENCE = 4
EXIT_COMPARE = 5


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file without a leading byte-order mark, or a
    ParseError naming the file when it cannot be opened or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def read_golden(path: str | Path) -> dict[int, float]:
    """Per-node voltage magnitudes from a node,vmag_pu CSV file.

    Blank lines and the header (any line starting with "node") are skipped.
    Raises ParseError for a file read_text cannot read, or naming path:line
    for a bad row, a magnitude that is not finite or a node listed twice.
    """
    golden = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
        if node in golden:
            raise ParseError(f"{path}:{lineno}: node {node} is listed twice")
        golden[node] = vmag
    return golden


def _load_table(path: str, input_format: str) -> RawTable:
    p = Path(path)
    if input_format == "auto":
        input_format = "json" if p.suffix.lower() == ".json" else "delimited"
    return parse_branch_table(read_text(p), input_format, source_name=str(path))


def _base_from_args(args, table: RawTable) -> PerUnitBase | None:
    if args.kv is None and args.mva is None:
        return None  # let validate_radial fall back to the file/default base
    declared = table.declared_base
    fallback = declared or DEFAULT_BASE
    kv = args.kv if args.kv is not None else fallback.kv_base
    mva = args.mva if args.mva is not None else fallback.mva_base
    return PerUnitBase(kv_base=kv, mva_base=mva)


def _options_from_args(args) -> SolveOptions:
    return SolveOptions(
        tolerance=args.tol,
        max_iterations=args.max_iter,
        debug_polar=args.debug_polar,
        literal_scan=args.literal_steps,
    )


def cmd_validate(args) -> int:
    table = _load_table(args.file, args.input_format)
    net = validate_radial(table, root=args.root, base=_base_from_args(args, table),
                          require_ordered=False)
    leaves = solver.find_leaf_nodes(net)
    ordered = "yes" if net.sequentially_ordered else "no"
    print(
        f"NB={net.node_count} LN={net.branch_count} ties={len(net.tie_lines)} "
        f"leaves={len(leaves)} ordered={ordered}"
    )
    if not net.sequentially_ordered:
        print("ordering violation: run solve with --renumber", file=sys.stderr)
        return EXIT_TOPOLOGY
    return EXIT_OK


def _run_solve(args):
    table = _load_table(args.file, args.input_format)
    mapping = None
    if args.renumber:
        table, mapping = renumber_sequential(table, root=args.root)
    # a renumbered table's root is node 1, where validate_radial starts by default
    net = validate_radial(table, root=None if args.renumber else args.root,
                          base=_base_from_args(args, table))
    report = solver.solve(net, _options_from_args(args))
    return report if mapping is None else _in_input_ids(report, mapping)


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


def _summary(report) -> dict[str, int]:
    """The counts solve prints before the node rows, by their printed names."""
    return {
        "iterations": report.iterations,
        "leaves": report.leaf_count,
        "steps_proposed": report.step_count_proposed,
        "steps_baseline": report.step_count_baseline,
    }


def _report_lines(report) -> list[str]:
    lines = ["converged yes", *(f"{key} {value}" for key, value in _summary(report).items()),
             "node vmag_pu angle_deg"]
    for node, vmag, angle in report.node_voltages:
        lines.append(f"{node} {vmag:.5f} {angle:.5f}")
    lines.append("branch imag_pu loss_kw loss_kvar")
    # one row per branch in both, in the same order (build_report makes them
    # together, _in_input_ids sorts both by id)
    for (bid, imag), (_, lp, lq) in zip(report.branch_currents, report.branch_losses):
        lines.append(f"{bid} {imag:.5f} {lp:.4f} {lq:.4f}")
    lines.append(f"total_loss_kw {report.total_loss_p:.4f}")
    lines.append(f"total_loss_kvar {report.total_loss_q:.4f}")
    return lines


def _report_json(report) -> str:
    import json  # here, so that the other formats do not load it

    doc = {
        "converged": report.converged,
        **_summary(report),
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


def cmd_solve(args) -> int:
    report = _run_solve(args)
    if args.format == "json":
        print(_report_json(report))
    elif args.format == "csv":
        print("\n".join(line.replace(" ", ",") for line in _report_lines(report)))
    else:
        print("\n".join(_report_lines(report)))
    return EXIT_OK


def cmd_compare(args) -> int:
    report = _run_solve(args)
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
        return EXIT_COMPARE
    return EXIT_OK


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


def cmd_bench(args) -> int:
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
    return EXIT_OK


def _checked(convert, ok, requirement: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse says "invalid float value: ..."
    return parse


_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_iterations = _checked(int, lambda k: k >= 1, "at least 1")
_size = _checked(int, lambda k: k >= 2, "at least 2")
_fraction = _checked(float, lambda x: 0.0 <= x <= 1.0, "between 0 and 1")
_bound = _checked(float, lambda x: x >= 0.0, "a non-negative number")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="branch table (delimited or .json)")
    p.add_argument("--input-format", choices=["auto", "delimited", "json"], default="auto")
    p.add_argument("--root", type=int, default=None, help="substation node (default 1)")
    p.add_argument("--kv", type=_positive, default=None, help="voltage base in kV")
    p.add_argument("--mva", type=_positive, default=None, help="power base in MVA")


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_positive, default=0.0001,
                   help="convergence tolerance in p.u.")
    p.add_argument("--max-iter", type=_iterations, default=100)
    p.add_argument("--renumber", action="store_true", help="renumber into sequential order first")
    p.add_argument("--debug-polar", action="store_true",
                   help="cross-check the polar-form voltage equations every sweep")
    p.add_argument("--literal-steps", action="store_true",
                   help="count steps with the literal whole-table child scan")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radialflow",
                                     description="Radial feeder load flow by backward/forward sweep")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a branch table for radial topology")
    _add_input_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run the load flow and print the solution")
    _add_input_args(p)
    _add_solve_args(p)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="solve and compare against a golden voltage CSV")
    _add_input_args(p)
    _add_solve_args(p)
    p.add_argument("--golden", required=True, help="CSV of node,vmag_pu")
    p.add_argument("--bound", type=_bound, default=1e-3, help="max allowed deviation in p.u.")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="step-count benchmark on random feeders")
    p.add_argument("--sizes", type=_size, nargs="+", required=True)
    p.add_argument("--leaf-fractions", type=_fraction, nargs="+", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_positive, default=0.0001)
    p.add_argument("--max-iter", type=_iterations, default=100)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush at
        # interpreter exit does not fail again (the idiom of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TopologyError as exc:  # OrderingError included
        print(f"topology error: {exc}", file=sys.stderr)
        return EXIT_TOPOLOGY
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except LoadFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
