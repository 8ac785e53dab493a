"""The benchmark's workloads: seeded inputs, the timed operation and its check.

Each workload runs as one client in a closed loop: the next operation starts
when the previous one has returned. An operation is a sequence of stages, each
taking the previous stage's result (the first takes the input's payload), so
the calibration probes of a long operation can run between its stages. Stages
call the package through module attributes (``ingest.validate_radial``,
``solver.solve``) so that the traced run's wrappers are the bindings that
execute.
"""
from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys

import feeders
import reference
from radialflow import cli, ingest, solver
from radialflow.model import BranchRecord

BUS69 = reference.BUS69
GOLDEN69 = "src/radialflow/data/golden69_vmag.csv"
# Largest voltage-magnitude difference (p.u.) from the reference that still
# counts as correct; the solver stops at a 1e-4 p.u. step.
VOLTAGE_TOL = 1e-3


class Input:
    """One operation's input plus what the benchmark knows about it."""

    def __init__(self, payload, ref_vmag: dict[int, float], label: str):
        self.payload = payload
        self.ref_vmag = ref_vmag
        self.label = label
        self.v_min = min(ref_vmag.values())


def compare_voltages(got: dict[int, float], ref: dict[int, float]) -> str | None:
    """Error message for the first node outside VOLTAGE_TOL, or None."""
    if got.keys() != ref.keys():
        return f"node set differs from the reference ({len(got)} vs {len(ref)} nodes)"
    for node, v in ref.items():
        if not abs(got[node] - v) <= VOLTAGE_TOL:
            return f"node {node}: {got[node]:.6f} p.u. against reference {v:.6f}"
    return None


def report_counts(report) -> tuple:
    return (report.iterations, report.step_count_proposed, None, report.leaf_count)


def validate(table):
    return ingest.validate_radial(table)


def solve(net):
    return solver.solve(net)


def parse_json(text: str):
    return ingest.parse_branch_table(text, "json")


def renumber(table):
    return ingest.renumber_sequential(table)


def validate_renumbered(renumbered):
    table, mapping = renumbered
    return ingest.validate_radial(table), mapping


def solve_renumbered(validated):
    net, mapping = validated
    return solver.solve(net), mapping


# An invocation that hangs is killed and counted as a failed operation.
CLI_TIMEOUT_S = 60


def cli_subprocess(argv: list[str]):
    proc = subprocess.run(
        [sys.executable, "-m", "radialflow.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliBus69:
    """Separate ``python -m radialflow.cli solve bus69.branch`` invocations."""

    name = "cli-bus69"
    spawns = True
    collect_first = False
    warmup = 3
    stages = (cli_subprocess,)
    traced_stages = (cli_in_process,)

    def make_pool(self, seed: int, base) -> list[Input]:
        with open(BUS69) as f:
            ref, _ = reference.solve_reference(reference.read_branch_file(f.read()), root=1)
        with open(GOLDEN69) as f:
            golden = {
                int(node): float(vmag)
                for node, vmag in (line.split(",") for line in f.read().split()[1:])
            }
        self.golden = golden
        return [Input(["solve", BUS69], ref, "bus69")]

    def check(self, x: Input, result) -> tuple[str | None, tuple]:
        code, stdout, stderr = result
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}", ()
        volts: dict[int, float] = {}
        counts: dict[str, int] = {}
        in_nodes = False
        for line in stdout.splitlines():
            parts = line.split()
            if parts[:1] in (["node"], ["branch"]):
                in_nodes = parts[0] == "node"
            elif in_nodes:
                volts[int(parts[0])] = float(parts[1])
            elif len(parts) == 2 and parts[1].isdigit():
                counts[parts[0]] = int(parts[1])
        keys = ("iterations", "steps_proposed", "steps_baseline", "leaves")
        bad = compare_voltages(volts, x.ref_vmag) or compare_voltages(volts, self.golden)
        return bad, tuple(counts.get(k) for k in keys)


class ScenariosBus69:
    """Seeded load scenarios on the bus69 topology, solved in-process."""

    name = "scenarios-bus69"
    spawns = False
    collect_first = False
    pool_size = 256
    warmup = 50
    FACTOR_RANGE = (0.3, 1.3)

    def make_pool(self, seed: int, base) -> list[Input]:
        rng = random.Random(f"{self.name}:{seed}")
        with open(BUS69) as f:
            ref_rows = reference.read_branch_file(f.read())
        pool = []
        for _ in range(self.pool_size):
            f = rng.uniform(*self.FACTOR_RANGE)
            rows = tuple(
                BranchRecord(
                    branch_id=r.branch_id,
                    sending_node=r.sending_node,
                    receiving_node=r.receiving_node,
                    resistance=r.resistance,
                    reactance=r.reactance,
                    load_p=r.load_p * f,
                    load_q=r.load_q * f,
                    capacity=r.capacity,
                    is_tie=r.is_tie,
                )
                for r in base.rows
            )
            table = ingest.RawTable(rows=rows, source_name=f"bus69x{f:.3f}")
            ref, _ = reference.solve_reference(
                [(s, r, ro, xo, p * f, q * f) for s, r, ro, xo, p, q in ref_rows], root=1
            )
            pool.append(Input(table, ref, f"factor {f:.3f}"))
        return pool

    stages = traced_stages = (validate, solve)

    def check(self, x: Input, report) -> tuple[str | None, tuple]:
        got = {node: report.voltage_magnitude(node) for node in x.ref_vmag}
        return compare_voltages(got, x.ref_vmag), report_counts(report)


class Feeder10k:
    """Seeded 10^4-node synthetic feeders given as shuffled JSON documents."""

    name = "feeder-10k"
    spawns = False
    # an op builds some 10^5 objects; collecting before each keeps the cyclic
    # collector's passes from landing at varying points inside timed ops
    collect_first = True
    pool_size = 4
    warmup = 1
    NODES = 10_000
    # kW; pinned so the generated feeders reach v_min of about 0.92 p.u.
    LOAD_SCALE_KW = 0.16

    def make_pool(self, seed: int, base) -> list[Input]:
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for k in range(self.pool_size):
            rows = feeders.random_feeder(self.NODES, self.LOAD_SCALE_KW, rng)
            text, relabelled, root = feeders.shuffled_json(
                rows, rng, reference.KV_BASE, reference.MVA_BASE
            )
            ref, _ = reference.solve_reference(relabelled, root)
            leaves = self.NODES - len({s for s, *_ in rows})
            pool.append(Input(text, ref, f"feeder {k}: n={self.NODES} leaves={leaves}"))
        return pool

    stages = traced_stages = (parse_json, renumber, validate_renumbered, solve_renumbered)

    def check(self, x: Input, result) -> tuple[str | None, tuple]:
        report, mapping = result
        new_id = mapping.node_old_to_new
        got = {node: report.voltage_magnitude(new_id[node]) for node in x.ref_vmag}
        return compare_voltages(got, x.ref_vmag), report_counts(report)


def get(name: str):
    return {cls.name: cls for cls in (CliBus69, ScenariosBus69, Feeder10k)}[name]()
