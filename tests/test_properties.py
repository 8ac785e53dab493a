"""Properties of ingest and the CLI over generated inputs.

Needs Hypothesis and is skipped without it. Every property runs derandomized
and without an example database, so a run is repeatable and stores no
examples. (Hypothesis still caches the constants it reads from the source in
.hypothesis/constants/ while it collects; .gitignore lists that directory.)
"""
import contextlib
import io
import json
import random
from operator import attrgetter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import format_branch_table, topology_dicts
from radialflow.cli import generate_random_table, main
from radialflow.ingest import (
    RawTable,
    parse_branch_table,
    renumber_sequential,
    validate_radial,
)
from radialflow.model import BranchRecord, LoadFlowError

REPEATABLE = settings(database=None, derandomize=True, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
capacity = st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def records(draw, branch_id):
    sending, receiving = draw(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2,
                                       unique=True))
    is_tie = draw(st.booleans())
    # a tie carries zero load, which a spreadsheet may write as -0
    load = st.sampled_from([0.0, -0.0]) if is_tie else finite
    return BranchRecord(branch_id, sending, receiving, draw(non_negative), draw(non_negative),
                        draw(load), draw(load), draw(capacity), is_tie)


@st.composite
def tables(draw):
    ids = draw(st.lists(st.integers(1, 10**9), min_size=1, max_size=12, unique=True))
    return RawTable(rows=tuple(draw(records(i)) for i in ids), source_name="t")


@REPEATABLE
@given(tables())
def test_format_then_parse_returns_the_table(table):
    again = parse_branch_table(format_branch_table(table), source_name="t")
    assert again.rows == table.rows
    assert [repr(r) for r in again.rows] == [repr(r) for r in table.rows]


@REPEATABLE
@given(tables())
def test_json_dump_then_parse_returns_the_rows(table):
    keys = ("id", "from", "to", "r", "x", "p", "q", "cap", "open")
    branches = [
        {key: value for key, value in zip(keys, r) if value is not None}
        for r in table.rows
    ]
    again = parse_branch_table(json.dumps({"branches": branches}), "json", source_name="t")
    assert again.rows == table.rows


@st.composite
def radial_tables(draw):
    """A random tree under drawn node labels and branch ids, with drawn
    values, up to two tie lines between its nodes and its rows shuffled; and
    its root."""
    n = draw(st.integers(2, 8))
    labels = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    edges = [(labels[draw(st.integers(0, k - 1))], labels[k]) for k in range(1, n)]
    pair = st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True)
    edges += draw(st.lists(pair, max_size=2))
    ids = draw(st.lists(st.integers(1, 10**9), min_size=len(edges), max_size=len(edges),
                        unique=True))
    rows = []
    for k, (branch_id, (sending, receiving)) in enumerate(zip(ids, edges)):
        is_tie = k >= n - 1
        load = st.sampled_from([0.0, -0.0]) if is_tie else finite
        rows.append(BranchRecord(branch_id, sending, receiving, draw(non_negative),
                                 draw(non_negative), draw(load), draw(load), draw(capacity),
                                 is_tie))
    return RawTable(rows=tuple(draw(st.permutations(rows))), source_name="t"), labels[0]


@REPEATABLE
@given(radial_tables())
def test_renumbered_rows_map_back_to_the_input(drawn):
    """Mapped back through the RenumberMapping, the new rows are the input's,
    with a tie line's load read as 0.0."""
    table, root = drawn
    renamed, mapping = renumber_sequential(table, root=root)
    assert [r.branch_id for r in renamed.rows] == list(range(1, len(table.rows) + 1))
    node = mapping.node_new_to_old
    branch = {new: old for old, new in mapping.branch_old_to_new.items()}
    back = [r._replace(branch_id=branch[r.branch_id],
                       sending_node=node[r.sending_node],
                       receiving_node=node[r.receiving_node])
            for r in renamed.rows]
    expected = [r._replace(load_p=0.0, load_q=0.0) if r.is_tie else r
                for r in table.rows]
    by_id = attrgetter("branch_id")
    assert ([repr(r) for r in sorted(back, key=by_id)]
            == [repr(r) for r in sorted(expected, key=by_id)])


@st.composite
def shuffled_small_tables(draw):
    """A random tree on up to 7 nodes under shuffled branch ids, with up to
    two extra branches (to a fed node, back up the tree or to a new node) and
    some rows made tie lines; and a shuffle of its rows."""
    n = draw(st.integers(2, 7))
    edges = [(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
    pair = st.lists(st.integers(1, n + 2), min_size=2, max_size=2, unique=True)
    edges += draw(st.lists(pair, max_size=2))
    rows = []
    for branch_id, (sending, receiving) in zip(draw(st.permutations(range(1, len(edges) + 1))),
                                               edges):
        is_tie = draw(st.integers(0, 5)) == 0
        load = 0.0 if is_tie else 10.0
        rows.append(BranchRecord(branch_id, sending, receiving, 0.1, 0.05, load, load / 2,
                                 None, is_tie))
    return rows, draw(st.permutations(rows))


def outcome(call, rows):
    """What call returns for a table of rows, or the type and exact text of
    the error it raises."""
    try:
        return call(RawTable(rows=tuple(rows), source_name="t"))
    except LoadFlowError as exc:
        return type(exc), str(exc)


@REPEATABLE
@given(shuffled_small_tables(), st.booleans())
def test_validation_does_not_depend_on_row_order(tables, require_ordered):
    rows, shuffled = tables

    def validate(table):
        return validate_radial(table, require_ordered=require_ordered)

    assert outcome(validate, rows) == outcome(validate, shuffled)


@REPEATABLE
@given(shuffled_small_tables())
def test_renumbering_does_not_depend_on_row_order(tables):
    rows, shuffled = tables
    assert outcome(renumber_sequential, rows) == outcome(renumber_sequential, shuffled)


@st.composite
def sparse_small_tables(draw):
    """As shuffled_small_tables, but node labels and branch ids are drawn from
    1..40 and the root, the first label, is never node 1; and the root."""
    n = draw(st.integers(2, 7))
    labels = draw(st.lists(st.integers(1, 40), min_size=n + 2, max_size=n + 2, unique=True)
                  .filter(lambda drawn: drawn[0] != 1))
    edges = [(labels[draw(st.integers(0, k - 1))], labels[k]) for k in range(1, n)]
    pair = st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True)
    edges += draw(st.lists(pair, max_size=2))
    ids = draw(st.lists(st.integers(1, 40), min_size=len(edges), max_size=len(edges),
                        unique=True))
    rows = []
    for branch_id, (sending, receiving) in zip(ids, edges):
        is_tie = draw(st.integers(0, 5)) == 0
        load = 0.0 if is_tie else 10.0
        rows.append(BranchRecord(branch_id, sending, receiving, 0.1, 0.05, load, load / 2,
                                 None, is_tie))
    return RawTable(rows=tuple(draw(st.permutations(rows))), source_name="t"), labels[0]


@REPEATABLE
@given(sparse_small_tables())
def test_validation_and_renumbering_agree_on_sparse_ids(drawn):
    """validate_radial and renumber_sequential run the same tree check, so on
    any table they both succeed or raise the same error; a network validated
    from it keeps the topology dicts its rows give, in their order."""
    table, root = drawn

    def error(call):
        try:
            return None, call(table)
        except LoadFlowError as exc:
            return (type(exc), str(exc)), None

    failed, net = error(lambda t: validate_radial(t, root=root, require_ordered=False))
    assert error(lambda t: renumber_sequential(t, root=root))[0] == failed
    if failed:
        return
    for name, expected in topology_dicts(table, root).items():
        view = getattr(net, name)
        assert view == expected and expected == view
        assert list(view.items()) == list(expected.items())


@st.composite
def placed_random_tables(draw):
    """The rows of a generate_random_table tree on 2-15 nodes and up to three
    tie lines (one may end at node n + 1, outside the tree), under the
    generator's branch ids or drawn ones, unique and in any order; with the
    rows kept in order and the ties last, the ties placed anywhere among
    them, or every row shuffled."""
    n = draw(st.integers(2, 15))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = list(generate_random_table(n, draw(st.floats(0.05, 0.95)), rng).rows)
    pair = st.lists(st.integers(1, n + 1), min_size=2, max_size=2, unique=True)
    ties = [BranchRecord(n + k, s, r, 0.1, 0.1, 0.0, 0.0, None, True)
            for k, (s, r) in enumerate(draw(st.lists(pair, max_size=3)))]
    if draw(st.booleans()):
        ids = iter(draw(st.lists(st.integers(1, 10**6), min_size=len(rows) + len(ties),
                                 max_size=len(rows) + len(ties), unique=True)))
        rows, ties = ([r._replace(branch_id=next(ids)) for r in part] for part in (rows, ties))
    placement = draw(st.sampled_from(["ties last", "ties anywhere", "shuffled"]))
    if placement == "ties last":
        return rows + ties
    if placement == "ties anywhere":
        for tie in ties:
            rows.insert(draw(st.integers(0, len(rows))), tie)
        return rows
    return draw(st.permutations(rows + ties))


@REPEATABLE
@given(placed_random_tables(), st.booleans())
def test_validation_equals_validation_of_the_rows_sorted_by_id(rows, require_ordered):
    """validate_radial takes an id-ordered table with its tie rows last by
    slicing and any other by sorting it; both give what the rows sorted by id
    give, a network or an error."""

    def validate(table):
        return validate_radial(table, require_ordered=require_ordered)

    by_id = sorted(rows, key=attrgetter("branch_id"))
    assert outcome(validate, rows) == outcome(validate, by_id)


TOKENS = ["", "1", "2", "3", "0", "-1", "2*", "1.5", "0.1", "-0.2", "1e300", "1e-300",
          "nan", "inf", "x", "#"]
lines = st.builds(
    lambda tokens, sep: sep.join(tokens),
    st.lists(st.sampled_from(TOKENS), max_size=9),
    st.sampled_from([" ", ",", ", ", "\t"]),
)


@pytest.fixture(scope="module")
def branch_path(tmp_path_factory):
    return tmp_path_factory.mktemp("exit-codes") / "t.branch"


@REPEATABLE
@given(st.lists(lines, max_size=6).map("\n".join), st.booleans())
@example(",", False)
@example("1 1 2 0.1 0.1 10 5\n,", True)
def test_every_input_maps_to_a_documented_exit_code(branch_path, text, renumber):
    branch_path.write_text(text + "\n")
    solve = ["solve", str(branch_path)] + (["--renumber"] if renumber else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", str(branch_path)]) in (0, 2, 3)
        assert main(solve) in (0, 1, 2, 3, 4)


PLAIN_KEYS = ("id", "from", "to", "r", "x", "p", "q")
# values a plain entry may not hold at some key: bools, numbers of the other
# kind, number text, non-finite and negative values, and the nodes of a
# branch that starts where it ends are drawn apart
ODD_VALUES = st.sampled_from([True, False, None, 0, -3, 3.0, 2.5, 1, "4", "0.5", [1],
                              float("nan"), float("inf"), float("-inf"), -0.5, -0.0, 1e308])


@st.composite
def seven_key_documents(draw):
    """A JSON document of plain branch entries (the seven keys, int ids and
    nodes, float values), one of them perturbed in about half the draws: a
    value replaced, a key dropped or traded for "open" or "cap", its
    receiving node set to its sending node, or the entry made a list; or
    every entry's p set to 1e308."""
    ids = draw(st.lists(st.integers(1, 10**9), min_size=1, max_size=8, unique=True))
    nodes = st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2, unique=True)
    impedance = st.floats(0.0, 1e3)
    load = st.floats(-1e3, 1e3)
    branches = [dict(zip(PLAIN_KEYS, (i, *draw(nodes), draw(impedance), draw(impedance),
                                      draw(load), draw(load)))) for i in ids]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(branches) - 1))
        entry = branches[k]
        key = draw(st.sampled_from(PLAIN_KEYS))
        how = draw(st.sampled_from(["value", "drop", "open", "cap", "loop", "list", "overflow"]))
        if how == "overflow":  # finite values whose column sum is not
            for e in branches:
                e["p"] = 1e308
        elif how == "value":
            entry[key] = draw(ODD_VALUES | finite | st.integers(-10, 10))
        elif how == "loop":
            entry["to"] = entry["from"]
        elif how == "list":
            branches[k] = list(entry.values())
        else:
            del entry[key]
            if how != "drop":
                entry[how] = draw(st.booleans()) if how == "open" else draw(ODD_VALUES | finite)
    return {"branches": branches}


def parsed(doc):
    """The repr of the table doc parses to, or the type and text of the error."""
    try:
        return repr(parse_branch_table(json.dumps(doc), "json", source_name="t"))
    except LoadFlowError as exc:
        return type(exc), str(exc)


@settings(REPEATABLE, max_examples=300)
@given(seven_key_documents())
def test_column_reader_reads_as_the_row_loop(doc):
    """A seven-key document parses as the same document with "open": false
    added to every entry that has no "open", which only the row loop reads:
    to the same table, or to the same error."""
    rows_only = {"branches": [{"open": False, **e} if isinstance(e, dict) else e
                              for e in doc["branches"]]}
    assert parsed(doc) == parsed(rows_only)
