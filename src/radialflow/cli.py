"""Command-line surface: validate and solve feeder files, compare against a
golden voltage table, and benchmark step counts on random feeders.

read_text (ingest._read_text) and read_golden are the CLI's file readers:
every input file is read as UTF-8 without a leading byte-order mark, and a
file that cannot be read is a ParseError naming it.

This module holds what a solve runs: the parser, the table loader and solve
with its table and CSV output. What a solve of an ordered delimited table
does not run is loaded when it is used: validate, compare and bench,
read_golden, generate_random_table and the JSON output from
radialflow._commands, renumbering from radialflow._renumber (--renumber) and
the JSON reader from radialflow._json_reader (a JSON document).
generate_random_table and read_golden are forwarded from here by name
(PEP 562), and cmd_validate, cmd_compare and cmd_bench here run the commands
of those names there. Under python -m radialflow.cli this module runs as
__main__, so _commands does not import it, which would load a second copy:
each command there is given this module and reads its helpers and exit codes
off it.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import solver
from .ingest import ParseError, RawTable, parse_branch_table, validate_radial
from .ingest import _read_text as read_text
from .model import DEFAULT_BASE, DataError, LoadFlowError, PerUnitBase, TopologyError
from .solver import NonConvergenceError, SolveOptions

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_TOPOLOGY = 3
EXIT_NONCONVERGENCE = 4
EXIT_COMPARE = 5


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


def _run_solve(args):
    table = _load_table(args.file, args.input_format)
    mapping = None
    if args.renumber:
        # here, so that a solve without --renumber does not load renumbering;
        # read off ingest, its public home, so that a wrapper bound there sees
        # the call
        from . import _renumber
        from .ingest import renumber_sequential

        table, mapping = renumber_sequential(table, root=args.root)
    # a renumbered table's root is node 1, where validate_radial starts by default
    net = validate_radial(table, root=None if args.renumber else args.root,
                          base=_base_from_args(args, table))
    report = solver.solve(net, _options_from_args(args))
    return report if mapping is None else _renumber._in_input_ids(report, mapping)


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


def cmd_solve(args) -> int:
    report = _run_solve(args)
    if args.format == "json":
        from ._commands import _report_json  # here, so that the other formats do not load it

        print(_report_json(report, _summary(report)))
    elif args.format == "csv":
        print("\n".join(line.replace(" ", ",") for line in _report_lines(report)))
    else:
        print("\n".join(_report_lines(report)))
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
    _add_input_args(p)
    p.add_argument("--tol", type=_positive, default=0.0001,
                   help="convergence tolerance in p.u.")
    p.add_argument("--max-iter", type=_iterations, default=100)
    p.add_argument("--renumber", action="store_true", help="renumber into sequential order first")
    p.add_argument("--debug-polar", action="store_true",
                   help="cross-check the polar-form voltage equations every sweep")
    p.add_argument("--literal-steps", action="store_true",
                   help="count steps with the literal whole-table child scan")


def _add_solve_command_args(p: argparse.ArgumentParser) -> None:
    _add_solve_args(p)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")


def _add_compare_args(p: argparse.ArgumentParser) -> None:
    _add_solve_args(p)
    p.add_argument("--golden", required=True, help="CSV of node,vmag_pu")
    p.add_argument("--bound", type=_bound, default=1e-3, help="max allowed deviation in p.u.")


def _add_bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", type=_size, nargs="+", required=True)
    p.add_argument("--leaf-fractions", type=_fraction, nargs="+", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_positive, default=0.0001)
    p.add_argument("--max-iter", type=_iterations, default=100)


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which adds its arguments (add, a function of the
    parser) when it first parses. argparse has a command's parser parse only
    when the command line names that command, so a run builds the arguments
    of its own command alone, and its help, usage and errors read as if they
    had been added up front."""

    def __init__(self, *args, add=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add = add

    def parse_known_args(self, args=None, namespace=None):
        add, self._add = self._add, None
        if add is not None:
            add(self)
        return super().parse_known_args(args, namespace)


def _command(name: str):
    """The command function name of radialflow._commands, which it loads when
    the command runs, called with the parsed arguments and this module."""
    def run(args) -> int:
        from . import _commands

        return getattr(_commands, name)(args, sys.modules[__name__])
    run.__name__ = run.__qualname__ = name
    return run


cmd_validate = _command("cmd_validate")
cmd_compare = _command("cmd_compare")
cmd_bench = _command("cmd_bench")

_COMMANDS = (
    ("validate", "check a branch table for radial topology", _add_input_args, cmd_validate),
    ("solve", "run the load flow and print the solution", _add_solve_command_args, cmd_solve),
    ("compare", "solve and compare against a golden voltage CSV", _add_compare_args,
     cmd_compare),
    ("bench", "step-count benchmark on random feeders", _add_bench_args, cmd_bench),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radialflow",
                                     description="Radial feeder load flow by backward/forward sweep")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, text, add, func in _COMMANDS:
        sub.add_parser(name, help=text, add=add).set_defaults(func=func)
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


_FORWARDED = ("generate_random_table", "read_golden")


def __getattr__(name):
    # the readers the tests and tools import from here live with the commands
    # that use them, imported on first use (PEP 562)
    if name in _FORWARDED:
        from . import _commands

        return getattr(_commands, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
