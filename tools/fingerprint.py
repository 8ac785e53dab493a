"""Print a fingerprint of what radialflow computes, so that two versions of the
package can be shown to give the same values, errors and exit codes.

    python3 tools/fingerprint.py SRC    # SRC is the directory holding radialflow/

Imports radialflow from SRC and the benchmark's feeder generator,
perfbench/feeders.py, from this checkout (without writing bytecode next to
either), runs five seeded groups of cases and prints one line per group:
its name, the number of values hashed and the sha256 of their reprs, one
value per line. Two versions compute the same when every line is equal.

- reports: every SolveReport field, the final_* views as their keys and
  their complex lists, and each row table read back to front by negative
  index, its last row and its length, of bus69, bus33 and the 200
  criterion-2 random trees, solved at tolerances 1e-4 and 1e-8 with each
  pair of debug_polar and literal_scan, and of baseline_solve at each
  tolerance (every other group hashes its reports the same way);
- feeder-10k: the four seed-1 inputs of the benchmark's feeder-10k workload,
  parsed from JSON, renumbered, validated and solved: the renumbered
  table's columns, the mapping and the report;
- scenarios: seeded load scenarios of bus69 and bus33, validated and solved
  (with literal_scan false and true) back to back: runs of one feeder, so
  that later networks share the tree of an earlier one, then the two
  interleaved; among them a bus69 network with float ids, bus69 validated
  at root 2, which is not a tree, a tie line moved outside the tree, bus69
  with a zero resistance held as 0.0 and then as -0.0, and bus69 on two other
  bases between held runs, one of them of equal z_base; then 300 scenarios
  of bus69 and 340 of bus33, so that each held tree is swept past the passes
  after which the sweep runs a loop generated for it;
- defects: 300 seeded defective tables mutated from bus69's rows: the
  result, or the error type and text, of renumber_sequential and of
  validate_radial (with require_ordered true and false), for root 1 and
  root 2, or the error that building the table raises;
- cli: the exit code, standard output and standard error of cli.main, run
  in-process on command lines over copies of the bundled data, the golden
  CSV with node 1 at -1.0, and malformed JSON and delimited documents (one
  of them a feeder whose loss total overflows, one whose voltage collapses
  at two nodes in one pass), all in a temporary directory
  named by relative paths; an exception that cli.main lets out is hashed as
  its type and text in place of the exit code.

Standard library only. The output depends on the package and the Python
version, not on the host, the time or the directory it runs from.
"""
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from collections.abc import Mapping
from pathlib import Path

sys.dont_write_bytecode = True  # leave SRC and perfbench/ as they are
sys.path[:0] = [os.path.abspath(sys.argv[1]),
                str(Path(__file__).resolve().parent.parent / "perfbench")]
os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to the terminal's width

import feeders  # noqa: E402
import radialflow as rf  # noqa: E402
from radialflow import cli  # noqa: E402
from radialflow.model import BranchRecord, NetworkModel, PerUnitBase  # noqa: E402

DATA = Path(rf.__file__).parent / "data"
# the bases of perfbench/reference.py, which feeder-10k's documents declare
FEEDER_KV, FEEDER_MVA = 12.66, 10.0


class Group:
    """A running sha256 over the reprs of the values added, one per line."""

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.sha = hashlib.sha256()

    def add(self, *values):
        for value in values:
            self.sha.update(repr(value).encode() + b"\n")
            self.count += 1

    def outcome(self, add, call, *args, **kwargs):
        """Run call: add(self, result) unless add is None, or add the type and
        text of the error it raises. Returns the result, or None on an error."""
        try:
            result = call(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - any error, a crash included, is the outcome
            self.add((type(exc).__name__, str(exc)))
            return None
        if add is not None:
            add(self, result)
        return result

    def line(self):
        return f"{self.name} {self.count} {self.sha.hexdigest()}"


def add_report(group, report):
    """The report's fields, then each final_* view's keys as a list and its
    values as a complex list (read through the Mapping API), then each row
    table (node_voltages, branch_currents, branch_losses) read back to
    front, its last row and its length: so a view that shows another
    network's ids equal to its own under == (1 for 1.0), or a row table that
    iterates right but indexes or counts wrong, changes the hash too."""
    fields = report._asdict()
    views = [fields.pop(name) for name, value in list(fields.items())
             if isinstance(value, Mapping)]
    group.add(tuple(fields.values()),
              *[(list(view), [p.as_complex() for p in view.values()]) for view in views])
    for rows in (report.node_voltages, report.branch_currents, report.branch_losses):
        group.add(tuple([rows[k] for k in range(-1, -len(rows) - 1, -1)]), rows[-1], len(rows))


def add_network(group, net):
    group.add((net.branch_ids, net.sending, net.receiving, net.z, net.s_load, net.capacity,
               net.root, net.tie_lines, net.base, net.unordered_branch, dict(net.children),
               dict(net.parent_branch)))


def add_renumbered(group, renumbered):
    table, mapping = renumbered
    group.add(table.columns, table.declared_root, *mapping)


def read(name):
    return rf.parse_branch_table((DATA / name).read_text(encoding="utf-8"), source_name=name)


def reports():
    group = Group("reports")
    nets = [rf.validate_radial(read("bus69.branch")), rf.validate_radial(read("bus33.branch"))]
    rng = random.Random(2024)  # the criterion-2 trees of the acceptance suite
    for _ in range(200):
        n = rng.randint(2, 30)
        nets.append(rf.validate_radial(cli.generate_random_table(n, rng.uniform(0.05, 0.95), rng)))
    for net in nets:
        for tolerance in (1e-4, 1e-8):
            for debug_polar in (False, True):
                for literal_scan in (False, True):
                    options = rf.SolveOptions(tolerance, 100, debug_polar, literal_scan)
                    group.outcome(add_report, rf.solve, net, options)
            group.outcome(add_report, rf.baseline_solve, net, rf.SolveOptions(tolerance))
    return group


def feeder_10k():
    group = Group("feeder-10k")
    rng = random.Random("feeder-10k:1")  # as perfbench/workloads.py seeds run 1
    for _ in range(4):
        rows = feeders.random_feeder(10_000, 0.16, rng)
        text, _, _ = feeders.shuffled_json(rows, rng, FEEDER_KV, FEEDER_MVA)
        renumbered = rf.renumber_sequential(rf.parse_branch_table(text, "json"))
        add_renumbered(group, renumbered)
        add_report(group, rf.solve(rf.validate_radial(renumbered[0])))
    return group


def scaled(table, factor):
    """table with every load scaled by factor."""
    return rf.RawTable(rows=tuple(r._replace(load_p=r.load_p * factor, load_q=r.load_q * factor)
                                  for r in table.rows), source_name=f"x{factor!r}")


def as_floats(net):
    """net with every branch id and node id as a float, equal under ==."""
    branches = tuple(b._replace(branch_id=float(b.branch_id), sending_node=float(b.sending_node),
                                receiving_node=float(b.receiving_node)) for b in net.branches)
    return NetworkModel(branches, float(net.root), net.tie_lines, net.base)


def scenarios():
    group = Group("scenarios")
    rng = random.Random("scenarios")
    bus69, bus33 = read("bus69.branch"), read("bus33.branch")
    tie = next(k for k, r in enumerate(bus69.rows) if r.is_tie)
    outside = rf.RawTable(rows=tuple(r._replace(receiving_node=999) if k == tie else r
                                     for k, r in enumerate(bus69.rows)), source_name="outside")
    zero = {step: rf.RawTable(rows=tuple(r._replace(resistance=value) if k == 5 else r
                                         for k, r in enumerate(bus69.rows)), source_name="zero")
            for step, value in (("z", 0.0), ("n", -0.0))}
    # A and B are load scenarios of bus69 and bus33; f a float-id copy of
    # the previous network, r bus69 at root 2 and t the tie moved outside;
    # z and n bus69 with branch 6's resistance 0.0 and -0.0 (equal under ==);
    # k and K load scenarios of bus69 on another base, K's of equal z_base
    for step in "AAAfAArAAtAABBBBBABABABBAAfAzznnzAAkAAKAA":
        if step in "AB":
            net = rf.validate_radial(scaled(bus69 if step == "A" else bus33, rng.uniform(0.3, 1.3)))
        elif step in "zn":
            net = rf.validate_radial(scaled(zero[step], rng.uniform(0.3, 1.3)))
        elif step in "kK":
            kv, mva = rf.DEFAULT_BASE
            base = PerUnitBase(11.0, 1.0) if step == "k" else PerUnitBase(2 * kv, 4 * mva)
            net = rf.validate_radial(scaled(bus69, rng.uniform(0.3, 1.3)), base=base)
        elif step == "f":
            net = as_floats(net)
        else:
            table, root = (bus69, 2) if step == "r" else (outside, 1)
            group.outcome(None, rf.validate_radial, table, root)
            continue
        add_network(group, net)
        for literal_scan in (False, True):
            group.outcome(add_report, rf.solve, net, rf.SolveOptions(literal_scan=literal_scan))
    # runs of one feeder long enough that its held tree is swept past the
    # 1024 passes after which the sweep runs a loop generated for the tree
    for table, solves in ((bus69, 300), (bus33, 340)):
        for _ in range(solves):
            net = rf.validate_radial(scaled(table, rng.uniform(0.3, 1.3)))
            group.outcome(add_report, rf.solve, net)
    return group


def mutate(rows, rng):
    """A copy of rows (lists of the BranchRecord fields) with one to three
    seeded defects, and the base the table declares."""
    rows = [list(r) for r in rows]
    base = None
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("sending", "receiving", "drop", "swap", "open", "tie", "id",
                           "shuffle", "overflow", "negzero"))
        row = rng.choice(rows)
        if kind == "sending":
            row[1] = rng.randint(1, 75)
        elif kind == "receiving":
            row[2] = rng.randint(1, 75)
        elif kind == "drop":
            rows.remove(row)
        elif kind == "swap":
            row[1], row[2] = row[2], row[1]
        elif kind == "open":  # a closed branch becomes a tie line
            row[5:] = [0.0, 0.0, None, True]
        elif kind == "tie":
            rows.append([rng.randint(70, 90), rng.randint(1, 75), rng.randint(1, 75),
                         0.1, 0.1, 0.0, 0.0, None, True])
        elif kind == "id":  # a repeat, or a gap that can break the ordering
            row[0] = rng.choice((rng.choice(rows)[0], rng.randint(1, 140)))
        elif kind == "shuffle":
            rng.shuffle(rows)
        elif kind == "overflow":  # not finite in per unit on the declared base
            row[3] = 1e307
            base = PerUnitBase(1.0, 100.0)
        else:
            row[rng.choice((5, 6))] = -0.0
    return rows, base


def defects():
    group = Group("defects")
    rng = random.Random("defects")
    bus69 = read("bus69.branch").rows
    for _ in range(300):
        rows, base = mutate(bus69, rng)
        table = group.outcome(None, lambda: rf.RawTable(
            rows=tuple(BranchRecord(*r) for r in rows), source_name="mutant", declared_base=base))
        if table is None:
            continue
        for root in (1, 2):
            group.outcome(add_renumbered, rf.renumber_sequential, table, root)
            for require_ordered in (True, False):
                group.outcome(add_network, rf.validate_radial, table, root,
                              require_ordered=require_ordered)
    return group


def branch_json(**fields):
    return dict({"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.1, "p": 10, "q": 5}, **fields)


# name -> JSON document (a string is written as it is)
DOCUMENTS = {
    "truncated.json": '{"branches": [',
    "list.json": "[1, 2]",
    "base-text.json": {"base": "12.66", "branches": [branch_json()]},
    "base-zero.json": {"base": {"kv": 0, "mva": 10}, "branches": [branch_json()]},
    "root-bool.json": {"root": True, "branches": [branch_json()]},
    "root-fraction.json": {"root": 1.5, "branches": [branch_json()]},
    "branches-object.json": {"branches": {"1": branch_json()}},
    "entry-list.json": {"branches": [[1, 1, 2, 0.1, 0.1]]},
    "missing-key.json": {"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1}]},
    "open-text.json": {"branches": [branch_json(open="yes")]},
    "id-fraction.json": {"branches": [branch_json(id=1.5)]},
    "p-bool.json": {"branches": [branch_json(p=True)]},
    "r-text.json": {"branches": [branch_json(r="0.1"), branch_json(id="2", **{"from": 2, "to": 3})]},
    "cap-nan.json": {"branches": [branch_json(cap="nan")]},
    "empty.json": {},
    "open-load.json": {"root": 5, "base": {"kv": 11, "mva": 1}, "branches": [
        branch_json(**{"from": 5}), branch_json(id=2, **{"from": 2, "to": 3}),
        branch_json(id=3, open=True, p=99, q="x", **{"from": 3, "to": 5})]},
    "tie-outside.json": {"branches": [branch_json(), branch_json(id=2, open=True, to=9)]},
    "doubly-fed.json": {"branches": [branch_json(), branch_json(id=2, **{"from": 1, "to": 2})]},
    "unordered.json": {"branches": [branch_json(id=2), branch_json(id=1, **{"from": 2, "to": 3})]},
}
DELIMITED = {
    "negzero.branch": "1 1 2 0.1 0.1 0 0\n2 2 3 0.1 0.1 -0 -1e-6\n",
    "tie-load.branch": "1 1 2 0.1 0.1 10 5\n2* 2 1 0.1 0.1 3 0\n",
    "bad-int.branch": "1 1 2 0.1 0.1 10 5\nx 2 3 0.1 0.1 10 5\n",
    "collapse.branch": "1 1 2 1e3 1e3 1e9 1e9\n",
    # nodes 5 and 3 reach 0j in one pass: the collapse is named in node order
    "collapse-order.branch": "1 1 5 16.02756 0 5000 0\n2 5 3 0 0 5000 0\n",
    "nonfinite.branch": "1 1 2 0.1 0.1 0 0\n2 2 3 1e300 0 1e15 0\n",
    "cycle.branch": "1 1 2 0.1 0.1 1 1\n2 3 4 0.1 0.1 1 1\n3 4 3 0.1 0.1 1 1\n",
    "overflow.branch": "1 1 2 0 0 1e200 0\n",
    # two magnitudes near 1e308 whose sum is not finite
    "sum-overflow.branch": "1 1 2 1.6e153 0 1e160 0\n2 1 3 1.6e153 0 1e160 0\n",
    # on a 1e151 MVA base each branch loses about 1.27e307 kW; the total does not fit
    "loss-overflow.branch": "".join(f"{k} 1 {k + 1} 1.6e-304 0 1e308 0\n" for k in range(1, 21)),
}
COMMANDS = [
    ["validate", "bus69.branch"], ["validate", "bus33.branch"],
    ["validate", "bus69.branch", "--root", "2"], ["validate", "missing.branch"],
    ["solve", "bus69.branch"], ["solve", "bus33.branch", "--format", "csv"],
    ["solve", "bus69.branch", "--format", "json", "--debug-polar", "--literal-steps"],
    ["solve", "bus33.branch", "--renumber", "--tol", "1e-8"],
    ["solve", "bus69.branch", "--max-iter", "2"], ["solve", "bus69.branch", "--kv", "1e-300"],
    ["solve", "sum-overflow.branch", "--max-iter", "1"],
    ["solve", "loss-overflow.branch", "--mva", "1e151"],
    ["solve", "bus69.branch", "--tol", "0"], ["solve", "bus69.branch", "--kv", "11", "--mva", "1"],
    ["compare", "bus69.branch", "--golden", "golden69_vmag.csv"],
    ["compare", "bus69.branch", "--golden", "golden69_vmag.csv", "--bound", "0"],
    ["compare", "bus33.branch", "--golden", "golden69_vmag.csv"],
    ["compare", "bus69.branch", "--golden", "negative-golden.csv"],
    ["bench", "--sizes", "5", "12", "--leaf-fractions", "0.2", "0.6", "--seed", "3"],
    ["bench", "--sizes", "1", "--leaf-fractions", "0.2"],
    ["solve"],
]
for _name in [*DOCUMENTS, *DELIMITED]:
    COMMANDS += [["validate", _name], ["solve", _name], ["solve", "--renumber", _name]]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - an error main lets out is the outcome
            code = (type(exc).__name__, str(exc))
    return code, out.getvalue(), err.getvalue()


def cli_runs():
    group = Group("cli")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("bus69.branch", "bus33.branch", "golden69_vmag.csv"):
            shutil.copy(DATA / name, tmp)
        golden = (DATA / "golden69_vmag.csv").read_text(encoding="utf-8")
        Path(tmp, "negative-golden.csv").write_text(golden.replace("\n1,1.00000\n", "\n1,-1.0\n"))
        for name, doc in DOCUMENTS.items():
            Path(tmp, name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        for name, text in DELIMITED.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                group.add((argv, *run_cli(argv)))
        finally:
            os.chdir(here)
    return group


def main():
    for make in (reports, feeder_10k, scenarios, defects, cli_runs):
        print(make().line(), flush=True)


if __name__ == "__main__":
    main()
