"""Properties of ingest and the CLI over generated inputs.

Needs Hypothesis and is skipped without it. Every property runs derandomized
and without an example database, so a run is repeatable and stores no
examples. (Hypothesis still caches the constants it reads from the source in
.hypothesis/constants/ while it collects; .gitignore lists that directory.)
"""
import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialflow.cli import main
from radialflow.ingest import (
    RawTable,
    format_branch_table,
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
