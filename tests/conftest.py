import random
from importlib import resources
from pathlib import Path

import pytest

import radialflow as rf
from radialflow.cli import generate_random_table, read_golden, read_text
from radialflow.ingest import RawTable, parse_branch_table
from radialflow.model import BranchRecord

BUS69 = "bus69.branch"
BUS33 = "bus33.branch"
GOLDEN69 = "golden69_vmag.csv"


def pytest_report_header(config):
    """Name the radialflow under test. pyproject.toml's pythonpath puts this
    checkout's src ahead of PYTHONPATH, so a run meant for another tree's
    src shows here that it tested this one."""
    return f"radialflow under test: {rf.__file__}"


def fixture_path(name: str) -> Path:
    """The path of a data file bundled with the package."""
    return Path(str(resources.files("radialflow.data").joinpath(name)))


def load_table(name: str) -> RawTable:
    return parse_branch_table(read_text(fixture_path(name)), "delimited", source_name=name)


def load_bus69() -> RawTable:
    return load_table(BUS69)


def load_bus33() -> RawTable:
    return load_table(BUS33)


def load_golden69() -> dict[int, float]:
    """Golden per-node voltage magnitudes for the 69-bus feeder."""
    return read_golden(fixture_path(GOLDEN69))


def make_table(rows, source="test", ties=()):
    """Rows are (id, from, to, r, x, p, q) tuples; ties are (id, from, to, r, x)."""
    records = [BranchRecord(*row) for row in rows]
    for tid, frm, to, r, x in ties:
        records.append(BranchRecord(tid, frm, to, r, x, 0.0, 0.0, None, True))
    return RawTable(rows=tuple(records), source_name=source)


def format_branch_table(table):
    """The delimited text of a RawTable, which parse_branch_table reads back
    into the same rows (the round-trip tests' writer)."""
    lines = ["# branch from to r_ohm x_ohm p_kw q_kvar [cap_kva]"]
    for r in table.rows:
        head = f"{r.branch_id}*" if r.is_tie else f"{r.branch_id}"
        cols = [head, str(r.sending_node), str(r.receiving_node),
                repr(r.resistance), repr(r.reactance), repr(r.load_p), repr(r.load_q)]
        if r.capacity is not None:
            cols.append(repr(r.capacity))
        lines.append(" ".join(cols))
    return "\n".join(lines) + "\n"


def topology_dicts(table, root):
    """The topology a network validated from table keeps, rebuilt from the
    table's closed rows in id order as the dicts it must equal: children and
    parent_branch, by name."""
    closed = sorted(table.closed_rows(), key=lambda r: r.branch_id)
    nodes = sorted({root, *(r.receiving_node for r in closed)})
    return {
        "children": {n: tuple(r.branch_id for r in closed if r.sending_node == n) for n in nodes},
        "parent_branch": {r.receiving_node: r.branch_id for r in closed},
    }


def chain_table(loads, impedance=(0.1, 0.05)):
    """A path 1 -> 2 -> ... with the given (p_kw, q_kvar) load at each non-root node."""
    r, x = impedance
    rows = [
        (k - 1, k - 1, k, r, x, p, q)
        for k, (p, q) in enumerate(loads, start=2)
    ]
    return make_table(rows)


def criterion_2_tables():
    """The 200 seeded random trees of acceptance criterion 2, in order."""
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 30)
        yield generate_random_table(n, rng.uniform(0.05, 0.95), rng)


def relabelled_tables(count=50, seed=7):
    """Seeded random ordered trees whose non-root nodes are relabelled by a
    seeded permutation. The branch ids and row order stay, so each tree is
    still sequentially ordered, but a node's id is no longer the id of its
    feeding branch + 1, as it is in generate_random_table's trees."""
    rng = random.Random(seed)
    for _ in range(count):
        table = generate_random_table(rng.randint(5, 30), rng.uniform(0.05, 0.95), rng)
        fed = [r.receiving_node for r in table.rows]
        label = {1: 1, **dict(zip(fed, rng.sample(fed, len(fed))))}
        yield RawTable(rows=tuple(r._replace(sending_node=label[r.sending_node],
                                             receiving_node=label[r.receiving_node])
                                  for r in table.rows), source_name="relabelled")


@pytest.fixture(scope="session")
def bus69_table():
    return load_bus69()


@pytest.fixture(scope="session")
def bus33_table():
    return load_bus33()


@pytest.fixture(scope="session")
def bus69_net(bus69_table):
    return rf.validate_radial(bus69_table)


@pytest.fixture(scope="session")
def bus33_net(bus33_table):
    return rf.validate_radial(bus33_table)


@pytest.fixture(scope="session")
def bus69_report(bus69_net):
    return rf.solve(bus69_net)


@pytest.fixture(scope="session")
def bus33_report(bus33_net):
    return rf.solve(bus33_net)


@pytest.fixture(scope="session")
def golden69():
    return load_golden69()
