import gc
import json
import random

import pytest

from conftest import criterion_2_tables, format_branch_table, make_table
from radialflow import _json_reader, _renumber, ingest, model
from radialflow.cli import generate_random_table
from radialflow.ingest import (
    OrderingError,
    ParseError,
    RawTable,
    TopologyError,
    parse_branch_table,
    renumber_sequential,
    validate_radial,
)
from radialflow.model import BranchRecord, DataError, PerUnitBase, PerUnitBranch, Phasor
from radialflow.solver import solve


class TestParseDelimited:
    def test_closed_row(self):
        table = parse_branch_table("5 5 6 0.3660 0.1864 2.60 2.20 1899\n")
        (rec,) = table.rows
        assert rec.branch_id == 5
        assert (rec.sending_node, rec.receiving_node) == (5, 6)
        assert rec.resistance == 0.3660
        assert rec.reactance == 0.1864
        assert (rec.load_p, rec.load_q) == (2.60, 2.20)
        assert rec.capacity == 1899
        assert not rec.is_tie

    def test_tie_row_blank_loads(self):
        table = parse_branch_table("69* 11 43 0.5000 0.5000 566\n")
        (rec,) = table.rows
        assert rec.is_tie
        assert (rec.load_p, rec.load_q) == (0.0, 0.0)
        assert rec.capacity == 566

    def test_comma_separated(self):
        table = parse_branch_table("1,1,2,0.1,0.05,10,5\n")
        assert table.rows[0].load_p == 10.0

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n,\n , ,\n1 1 2 0.1 0.05 10 5  # trailing\n"
        assert len(parse_branch_table(text).rows) == 1

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError):
            parse_branch_table("# only a comment\n")

    @pytest.mark.parametrize("text,message", [
        ("1 1 2 0.1 0.05 10 5\n2 2 3 0.1 0.05 10 5\n3 3 4 bad 0.05 10 5\n",
         "f:3: bad numeric field 'bad'"),
        ("1x 1 2 0.1 0.05 10 5\n", "f:1: bad integer field '1x'"),
        ("1 1.5 2 0.1 0.05 10 5\n", "f:1: bad integer field '1.5'"),
        ("1 1 2 0.1\n", "f:1: expected at least 5 columns, got 4"),
        ("1 1 2 0.1 0.05 10\n", "f:1: unexpected column count 6"),
        ("1 1 2 -0.1 0.05 10 5\n", "f:1: branch 1: negative impedance component"),
        ("1 1 2 0.1 0.05 10 5 nan\n", "f:1: branch 1: non-finite capacity (nan)"),
        ("1 1 2 0.1 0.05 10 5 -inf\n", "f:1: branch 1: non-finite capacity (-inf)"),
        ("1 1 2 0.1 0.05 10 5 -1\n", "f:1: branch 1: capacity must be positive when present"),
        ("1 1 2 0.1 -0.05 10 5\n", "f:1: branch 1: negative impedance component"),
        ("1* 1 2 0.1 0.1 0 5\n", "f:1: branch 1: tie-line must carry zero load"),
        ("* 1 2 0.1 0.1\n", "f:1: bad integer field '*'"),
        ("1** 1 2 0.1 0.1\n", "f:1: bad integer field '1**'"),
        ("1_0 1 2 0.1 0.1 10 5\n", "f:1: bad integer field '1_0'"),
        ("1 1 2 0.1 0.1 1_0 5\n", "f:1: bad numeric field '1_0'"),
        ("1_0* 1 2 0.1 0.1\n", "f:1: bad integer field '1_0*'"),
        ("\u0661\u0660 1 2 0.1 0.1 10 5\n", "f:1: bad integer field '\u0661\u0660'"),
        ("1 1 2 0.1 0.1 \uff11\uff10 5\n", "f:1: bad numeric field '\uff11\uff10'"),
    ], ids=["bad-numeric", "bad-integer-suffix", "bad-integer-fraction", "four-columns",
            "six-columns", "record-error", "nan-capacity", "minus-inf-capacity",
            "negative-capacity", "negative-reactance", "tie-with-reactive-load",
            "tie-marker-alone", "tie-marker-twice", "underscore-id", "underscore-load",
            "underscore-tie-id", "arabic-indic-id", "fullwidth-load"])
    def test_malformed_numeric_names_line(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_branch_table(text, source_name="f")
        assert str(exc.value) == message

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            parse_branch_table("1 1 2 0.1 0.05 10 5\n", "xml")

    def test_duplicate_branch_id_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_branch_table("1 1 2 0.1 0.05 10 5\n1 2 3 0.1 0.05 10 5\n")


# (document, ParseError text) of malformed JSON documents
MALFORMED_DOCUMENTS = [
    ([], "net.json: expected a JSON object at the top level, got list"),
    ({"branches": [{"from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
     "net.json: branches[0]: missing key 'id'"),
    ({"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05},
                   {"id": 2, "from": 2, "to": 3, "r": "x", "x": 0.05}]},
     "net.json: branches[1]: bad value 'x' for key 'r'"),
    ({"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05, "cap": [1]}]},
     "net.json: branches[0]: bad value [1] for key 'cap'"),
    ({"branches": [7]}, "net.json: branches[0]: expected an object, got int"),
    ({"branches": {"id": 1}}, 'net.json: "branches" must be a list, got dict'),
    ({"root": "one", "branches": []}, "net.json: bad \"root\" 'one'"),
    ({"base": {"kv": 12.66}, "branches": []},
     "net.json: bad \"base\" {'kv': 12.66} (needs numbers \"kv\" and \"mva\")"),
    ({"branches": [{"id": 0, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
     "net.json: branches[0]: branch id must be positive, got 0"),
    ({"branches": [{"id": 1, "from": 1, "to": 2.9, "r": 0.1, "x": 0.05}]},
     "net.json: branches[0]: bad value 2.9 for key 'to'"),
    ({"branches": [{"id": 1.7, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
     "net.json: branches[0]: bad value 1.7 for key 'id'"),
    ({"root": True, "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
     "net.json: bad \"root\" True"),
    ({"branches": [{"id": 1, "from": 1, "to": 2, "r": True, "x": 0.05}]},
     "net.json: branches[0]: bad value True for key 'r'"),
    ({"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05, "open": "false"}]},
     "net.json: branches[0]: bad value 'false' for key 'open'"),
    ({"base": {"kv": "nan", "mva": 10},
      "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
     "net.json: bad \"base\" {'kv': 'nan', 'mva': 10}: "
     "kv_base must be positive and finite, got nan"),
    ({"base": {"kv": "inf", "mva": 10},
      "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
     "net.json: bad \"base\" {'kv': 'inf', 'mva': 10}: "
     "kv_base must be positive and finite, got inf"),
    ({"branches": [{"id": "1_0", "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
     "net.json: branches[0]: bad value '1_0' for key 'id'"),
    ({"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05, "p": "1_0"}]},
     "net.json: branches[0]: bad value '1_0' for key 'p'"),
    ({"branches": [{"id": 1, "from": "\u0661", "to": 2, "r": 0.1, "x": 0.05}]},
     "net.json: branches[0]: bad value '\u0661' for key 'from'"),
    ({"root": "1_0", "branches": []}, "net.json: bad \"root\" '1_0'"),
    ({"base": {"kv": "1_2.66", "mva": 10}, "branches": []},
     "net.json: bad \"base\" {'kv': '1_2.66', 'mva': 10} (needs numbers \"kv\" and \"mva\")"),
]
MALFORMED_IDS = ["top-level-list", "missing-id", "non-numeric-r", "bad-cap", "entry-not-object",
                 "branches-not-list", "bad-root", "base-without-mva", "id-zero", "fractional-to",
                 "fractional-id", "bool-root", "bool-r", "open-as-text", "nan-base", "inf-base",
                 "underscore-id", "underscore-load", "arabic-indic-from", "underscore-root",
                 "underscore-base"]


# (JSON text, start of json's error text) of documents json cannot decode:
# a syntax error, arrays nested past the recursion limit and an integer of
# more digits than int() converts
UNDECODABLE_DOCUMENTS = [
    ('{"branches": [', "Expecting value: line 1 column 15 (char 14))"),
    ('{"branches": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth exceeded"),
    ('{"branches": [{"id": ' + "7" * 5000 + ', "from": 1, "to": 2, "r": 0.1, "x": 0.05}]}',
     "Exceeds the limit"),
]
UNDECODABLE_IDS = ["truncated", "nested-too-deep", "id-of-5000-digits"]


def with_loads(doc):
    """doc with "p" and "q" added to each branch entry that lacks them, so
    that an entry of the five other keys has the seven keys of a plain entry
    and reaches the column reader."""
    return {**doc, "branches": [{"p": 0.0, "q": 0.0, **entry} for entry in doc["branches"]]}


# the rows of MALFORMED_DOCUMENTS whose defect is in a branch entry, each entry
# widened by with_loads: the column reader must leave each to the row loop
WIDENED_DOCUMENTS = [
    pytest.param(with_loads(doc), message, id=name)
    for (doc, message), name in zip(MALFORMED_DOCUMENTS, MALFORMED_IDS)
    if "branches[" in message and all(isinstance(e, dict) for e in doc["branches"])
]


def plain_entry(**values):
    """A plain JSON branch entry, the seven keys with int ids and nodes and
    float values, changed by values; a value of None drops its key."""
    entry = {"id": 2, "from": 2, "to": 3, "r": 0.1, "x": 0.05, "p": 1.0, "q": 0.5, **values}
    return {key: value for key, value in entry.items() if value is not None}


# seven-key documents the column reader leaves to the row loop, with the text
# the row loop raises, naming their second entry
SEVEN_KEY_DEFECTS = [
    pytest.param(plain_entry(id=True), "bad value True for key 'id'", id="bool-id"),
    pytest.param(plain_entry(r=float("nan")), "branch 2: non-finite resistance (nan)",
                 id="nan-r"),
    pytest.param(plain_entry(q=float("-inf")), "branch 2: non-finite load_q (-inf)",
                 id="minus-infinity-q"),
    pytest.param(plain_entry(x=-0.05), "branch 2: negative impedance component",
                 id="negative-x"),
    pytest.param(plain_entry(to=2), "branch 2: sending and receiving node are both 2",
                 id="from-is-to"),
    pytest.param({"cap": 9.0, **plain_entry(id=None)}, "missing key 'id'",
                 id="cap-in-place-of-id"),
]


class TestParseJson:
    def test_schema(self):
        doc = {
            "base": {"kv": 12.66, "mva": 10},
            "root": 1,
            "branches": [
                {"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05, "p": 10, "q": 5},
                {"id": 2, "from": 1, "to": 3, "r": 0.5, "x": 0.5, "open": True, "cap": 566},
            ],
        }
        table = parse_branch_table(json.dumps(doc), "json")
        assert table.declared_base.kv_base == 12.66
        assert table.declared_root == 1
        assert table.rows[1].is_tie
        assert table.rows[1].capacity == 566

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError):
            parse_branch_table("{not json", "json")

    @pytest.mark.parametrize("text,message", UNDECODABLE_DOCUMENTS, ids=UNDECODABLE_IDS)
    def test_text_json_cannot_decode_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_branch_table(text, "json", source_name="net.json")
        assert str(exc.value).startswith(f"net.json: invalid JSON ({message}")

    @pytest.mark.parametrize("doc,message", MALFORMED_DOCUMENTS, ids=MALFORMED_IDS)
    def test_malformed_document_names_the_entry_and_key(self, doc, message):
        with pytest.raises(ParseError) as exc:
            parse_branch_table(json.dumps(doc), "json", source_name="net.json")
        assert str(exc.value) == message

    @pytest.mark.parametrize("doc,message", WIDENED_DOCUMENTS)
    def test_a_widened_malformed_entry_keeps_its_message(self, doc, message):
        with pytest.raises(ParseError) as exc:
            parse_branch_table(json.dumps(doc), "json", source_name="net.json")
        assert str(exc.value) == message

    @pytest.mark.parametrize("entry,message", SEVEN_KEY_DEFECTS)
    def test_a_seven_key_entry_the_column_reader_refuses_is_named(self, entry, message):
        doc = {"branches": [plain_entry(id=1, **{"from": 1, "to": 2}), entry]}
        with pytest.raises(ParseError) as exc:
            parse_branch_table(json.dumps(doc), "json", source_name="net.json")
        assert str(exc.value) == f"net.json: branches[1]: {message}"

    @pytest.mark.parametrize("values,record", [
        ({"id": 3.0}, BranchRecord(3, 2, 3, 0.1, 0.05, 1.0, 0.5)),
        ({"r": 1}, BranchRecord(2, 2, 3, 1.0, 0.05, 1.0, 0.5)),
    ], ids=["integral-float-id", "int-r"])
    def test_a_seven_key_entry_the_row_loop_converts_is_read(self, values, record):
        doc = {"branches": [plain_entry(id=1, **{"from": 1, "to": 2}), plain_entry(**values)]}
        table = parse_branch_table(json.dumps(doc), "json")
        assert table.rows[1] == record
        assert [type(v) for v in table.rows[1]] == [type(v) for v in record]

    def test_plain_branches_are_read_a_column_at_a_time(self):
        branches = [plain_entry(id=1, **{"from": 1, "to": 2}), plain_entry()]
        columns = _json_reader._plain_columns(branches)
        assert columns == ((1, 2), (1, 2), (2, 3), (0.1, 0.1), (0.05, 0.05), (1.0, 1.0),
                           (0.5, 0.5), (None, None), (False, False))
        doc = {"branches": branches}
        assert parse_branch_table(json.dumps(doc), "json").columns == columns
        # one entry that is not plain, and the row loop reads the list
        widened = [*branches, {**plain_entry(id=3), "open": False}]
        assert _json_reader._plain_columns(widened) is None

    def test_capacity_beyond_float_range_rejected(self):
        # json reads 1e400 as inf
        text = '{"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05, "cap": 1e400}]}'
        with pytest.raises(ParseError) as exc:
            parse_branch_table(text, "json", source_name="net.json")
        assert str(exc.value) == "net.json: branches[0]: branch 1: non-finite capacity (inf)"

    @pytest.mark.parametrize("cap,shown", [("-1e400", "-inf"), ("NaN", "nan"),
                                           ("-Infinity", "-inf")])
    def test_nan_or_negative_infinite_capacity_named(self, cap, shown):
        # json reads NaN and -Infinity as the floats they name
        text = ('{"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05, "cap": %s}]}'
                % cap)
        with pytest.raises(ParseError) as exc:
            parse_branch_table(text, "json", source_name="net.json")
        assert str(exc.value) == f"net.json: branches[0]: branch 1: non-finite capacity ({shown})"

    def test_integral_floats_and_numeric_text_read_as_numbers(self):
        doc = {"root": 1.0, "branches": [{"id": "7", "from": 1.0, "to": " 2 ", "r": "0.5", "x": 1,
                                          "p": "10", "q": 5, "open": False}]}
        table = parse_branch_table(json.dumps(doc), "json")
        (rec,) = table.rows
        assert rec == BranchRecord(7, 1, 2, 0.5, 1.0, 10.0, 5.0)
        ids = (table.declared_root, rec.branch_id, rec.sending_node, rec.receiving_node)
        assert ids == (1, 7, 1, 2) and all(type(i) is int for i in ids)

    def test_repr_reads_as_the_constructor_call(self):
        doc = {"base": {"kv": 11, "mva": 1}, "root": 1,
               "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.5, "x": 0.25, "p": 3, "cap": 9}]}
        table = parse_branch_table(json.dumps(doc), "json", source_name="net.json")
        assert repr(table) == (
            "RawTable(rows=(BranchRecord(branch_id=1, sending_node=1, receiving_node=2, "
            "resistance=0.5, reactance=0.25, load_p=3.0, load_q=0.0, capacity=9.0, "
            "is_tie=False),), source_name='net.json', "
            "declared_base=PerUnitBase(kv_base=11.0, mva_base=1.0), declared_root=1)"
        )

    def test_tie_ignores_load_fields(self):
        doc = {"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05},
                            {"id": 2, "from": 1, "to": 2, "r": 0.1, "x": 0.1,
                             "open": True, "p": "n/a"}]}
        table = parse_branch_table(json.dumps(doc), "json")
        assert table.rows[1].is_tie and table.rows[1].load_p == 0.0


class TestRoundTrip:
    def test_parse_serialize_parse_fixed_point(self, bus69_table):
        again = parse_branch_table(format_branch_table(bus69_table),
                                   source_name=bus69_table.source_name)
        assert again.rows == bus69_table.rows
        assert parse_branch_table(format_branch_table(again)).rows == again.rows


class TestValidateRadial:
    def test_bus69_counts(self, bus69_net):
        assert bus69_net.node_count == 69
        assert bus69_net.branch_count == 68
        assert len(bus69_net.tie_lines) == 5

    def test_bus33_counts(self, bus33_net):
        assert bus33_net.node_count == 33
        assert bus33_net.branch_count == 32
        assert len(bus33_net.tie_lines) == 0

    def test_cycle_detected(self):
        table = make_table([
            (1, 1, 2, 0.1, 0.1, 0, 0),
            (2, 2, 3, 0.1, 0.1, 0, 0),
            (3, 3, 1, 0.1, 0.1, 0, 0),
        ])
        with pytest.raises(TopologyError, match="cycle"):
            validate_radial(table)

    def test_detached_cycle_detected(self):
        table = make_table([
            (1, 1, 2, 0.1, 0.1, 0, 0),
            (2, 3, 4, 0.1, 0.1, 0, 0),
            (3, 4, 3, 0.1, 0.1, 0, 0),
        ])
        with pytest.raises(TopologyError, match="cycle"):
            validate_radial(table)

    def test_doubly_fed_node_detected(self):
        table = make_table([
            (1, 1, 2, 0.1, 0.1, 0, 0),
            (2, 1, 3, 0.1, 0.1, 0, 0),
            (3, 2, 3, 0.1, 0.1, 0, 0),
        ])
        with pytest.raises(TopologyError, match="fed by branches"):
            validate_radial(table)

    def test_bad_root_rejected(self):
        table = make_table([(1, 1, 2, 0.1, 0.1, 0, 0)])
        with pytest.raises(TopologyError, match="root"):
            validate_radial(table, root=5)

    def test_ordering_violation_raises(self):
        table = make_table([
            (1, 2, 3, 0.1, 0.1, 0, 0),
            (2, 1, 2, 0.1, 0.1, 0, 0),
        ])
        with pytest.raises(OrderingError) as exc:
            validate_radial(table)
        assert str(exc.value) == (
            "test: branch 1 precedes the branch feeding its sending node (run renumber_sequential)"
        )
        net = validate_radial(table, require_ordered=False)
        assert not net.sequentially_ordered
        assert net.unordered_branch == 1

    def test_children_adjacency(self, bus69_net):
        assert bus69_net.children[1] == (1,)
        assert bus69_net.children[3] == (3, 27, 35)
        assert bus69_net.children[27] == ()

    def test_row_order_does_not_matter(self, bus69_table, bus69_net):
        rows = list(bus69_table.rows)
        random.Random(3).shuffle(rows)
        net = validate_radial(type(bus69_table)(rows=tuple(rows), source_name="shuffled"))
        assert net.branches == bus69_net.branches
        assert net.children == bus69_net.children
        assert net.node_count == bus69_net.node_count

    def test_derived_topology_matches_a_scan_per_node(self, bus69_table, bus33_table):
        """NetworkModel's derived fields against a plain derivation: a scan of
        the id-sorted branches per node, and the ordering check in id order, on
        the criterion-2 trees and relabelled (mostly unordered) copies."""
        rng = random.Random(5)
        tables = [bus69_table, bus33_table]
        for table in criterion_2_tables():
            tables += [table, scramble(table, rng)]
        unordered = 0
        for table in tables:
            net = validate_radial(table, require_ordered=False)
            rows = sorted(table.closed_rows(), key=lambda r: r.branch_id)
            nodes = {1} | {r.sending_node for r in rows} | {r.receiving_node for r in rows}
            assert net.node_count == len(nodes)
            for node in nodes:
                assert net.children[node] == tuple(
                    r.branch_id for r in rows if r.sending_node == node
                )
                feeding = [r.branch_id for r in rows if r.receiving_node == node]
                assert net.parent_branch.get(node) == (feeding[0] if feeding else None)
            assert set(net.children) == nodes
            parent_of = {r.receiving_node: r.branch_id for r in rows}
            first_bad = next(
                (r.branch_id for r in rows
                 if r.sending_node != 1 and parent_of[r.sending_node] >= r.branch_id),
                None,
            )
            assert net.unordered_branch == first_bad
            assert net.sequentially_ordered == (first_bad is None)
            unordered += first_bad is not None
        assert unordered > 100


TOPOLOGY_DEFECTS = [
    # (rows as (id, from, to), root, validate_radial message, renumber_sequential
    # message); the branches are named in id order, whatever the order of the rows
    pytest.param([(3, 2, 3), (1, 1, 2), (2, 1, 3)], 1,
                 "node 3 is fed by branches 2 and 3", None, id="doubly-fed"),
    pytest.param([(1, 1, 2), (2, 2, 3), (3, 3, 1)], 1,
                 "cycle through branch 3 (3->1) feeding the root", None, id="root-fed"),
    pytest.param([(1, 1, 2), (2, 2, 3), (3, 5, 4)], 1,
                 "node 5 has no feeding branch", None, id="one-unfed"),
    # of two unfed nodes the smaller is named
    pytest.param([(1, 1, 2), (2, 700, 3), (3, 2, 4), (4, 1000, 5), (5, 2, 6)], 1,
                 "node 700 has no feeding branch", None, id="two-unfed-large-ids"),
    pytest.param([(1, 1, 2), (2, 3, 4), (3, 4, 3)], 1,
                 "cycle through branch 3 (4->3)", None, id="detached-cycle"),
    pytest.param([(1, 2, 3), (2, 3, 4)], 1,
                 "root 1 is not a sending node", None, id="root-not-sender"),
    pytest.param([(1, 2, 3), (2, 4, 3)], 1,
                 "root 1 is not a sending node", None, id="root-not-sender-and-doubly-fed"),
    pytest.param([(1, 1, 2), (2, 9, 3), (3, 5, 6), (4, 6, 5)], 1,
                 "node 9 has no feeding branch", None, id="unfed-and-detached-cycle"),
    # an int too long for str() is shown in a bounded form
    pytest.param([(1, 1, 2), (2, 2, 3)], 10**5000,
                 "root 100000...000000 (5001 digits) is not a sending node", None,
                 id="root-beyond-str"),
    pytest.param([(1, 1, 2), (2, 10**5000, 3)], 1,
                 "node 100000...000000 (5001 digits) has no feeding branch", None,
                 id="unfed-beyond-str"),
]


@pytest.mark.parametrize("rows,root,validate_msg,renumber_msg", TOPOLOGY_DEFECTS)
def test_topology_error_text(rows, root, validate_msg, renumber_msg):
    table = make_table([row + (0.1, 0.1, 0, 0) for row in rows])
    with pytest.raises(TopologyError) as exc:
        validate_radial(table, root=root)
    assert str(exc.value) == f"test: {validate_msg}"
    with pytest.raises(TopologyError) as exc:
        renumber_sequential(table, root=root)
    assert str(exc.value) == f"test: {renumber_msg or validate_msg}"


PER_UNIT_FIELDS = ("resistance", "reactance", "load_p", "load_q")


@pytest.mark.parametrize("field", PER_UNIT_FIELDS)
@pytest.mark.parametrize("edges", [
    [(4, 4, 5), (2, 2, 3), (3, 3, 4), (1, 1, 2)],
    [(4, 4, 5), (2, 2, 3), (3, 6, 4), (1, 1, 2)],  # node 6 has no feeding branch
], ids=["tree", "not-a-tree"])
def test_per_unit_overflow_names_the_first_branch_by_id_and_field(field, edges):
    """On a tiny base 1e300 is finite, but not in per unit. Branch 2 holds it
    in field and every later field, branch 4 in every field: validate_radial
    names branch 2, the first by id, and field, the first of its fields,
    before it looks at the tree."""
    base = PerUnitBase(1e-160, 1e-300)  # z_base about 1e-20 ohm, kw_base 1e-297 kW
    overflowing = {2: PER_UNIT_FIELDS[PER_UNIT_FIELDS.index(field):], 4: PER_UNIT_FIELDS}
    rows = []
    for branch_id, s, r in edges:
        rows.append(BranchRecord(branch_id, s, r, **{
            name: 1e300 if name in overflowing.get(branch_id, ()) else 0.1
            for name in PER_UNIT_FIELDS
        }))
    with pytest.raises(DataError) as exc:
        validate_radial(RawTable(rows=tuple(rows), source_name="t"), base=base)
    assert type(exc.value) is DataError
    assert str(exc.value) == (
        f"branch 2: {field} is not finite in per unit (kv_base 1e-160, mva_base 1e-300)"
    )


class TestRenumber:
    def test_bus69_is_identity(self, bus69_table):
        renamed, mapping = renumber_sequential(bus69_table)
        assert mapping.is_identity()
        assert validate_radial(renamed, require_ordered=False).sequentially_ordered
        assert validate_radial(bus69_table, require_ordered=False).sequentially_ordered

    def test_bus33_is_identity(self, bus33_table):
        _, mapping = renumber_sequential(bus33_table)
        assert mapping.is_identity()

    def test_out_of_order_chain(self):
        table = make_table([
            (1, 1, 3, 0.1, 0.1, 0, 0),
            (2, 3, 2, 0.1, 0.1, 0, 0),
        ])
        renamed, mapping = renumber_sequential(table)
        assert mapping.node_old_to_new == {1: 1, 3: 2, 2: 3}
        pairs = [(r.sending_node, r.receiving_node) for r in renamed.rows]
        assert pairs == [(1, 2), (2, 3)]

    def test_star_tie_break_by_old_index(self):
        table = make_table([
            (1, 1, 4, 0.1, 0.1, 0, 0),
            (2, 1, 3, 0.1, 0.1, 0, 0),
            (3, 1, 2, 0.1, 0.1, 0, 0),
        ])
        _, mapping = renumber_sequential(table)
        assert mapping.node_old_to_new == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_tie_lines_remapped(self):
        table = make_table(
            [(1, 1, 3, 0.1, 0.1, 0, 0), (2, 3, 2, 0.1, 0.1, 0, 0)],
            ties=[(9, 2, 3, 0.5, 0.5)],
        )
        renamed, mapping = renumber_sequential(table)
        tie = renamed.tie_rows()[0]
        assert (tie.sending_node, tie.receiving_node) == (3, 2)
        assert tie.branch_id == 3
        assert mapping.branch_old_to_new[9] == 3

    def test_non_tree_rejected(self):
        table = make_table([
            (1, 1, 2, 0.1, 0.1, 0, 0),
            (2, 2, 3, 0.1, 0.1, 0, 0),
            (3, 3, 1, 0.1, 0.1, 0, 0),
        ])
        with pytest.raises(TopologyError):
            renumber_sequential(table)

    def test_tie_to_unknown_node_rejected(self):
        table = make_table(
            [(1, 1, 2, 0.1, 0.1, 10, 5), (2, 2, 3, 0.1, 0.1, 10, 5)],
            ties=[(3, 3, 99, 0.1, 0.1)],
        )
        message = "test: tie branch 3 ends at node 99, which no closed branch connects"
        with pytest.raises(TopologyError) as exc:
            renumber_sequential(table)
        assert str(exc.value) == message
        with pytest.raises(TopologyError) as exc:
            validate_radial(table)
        assert str(exc.value) == message

    def test_random_trees_always_orderable(self):
        rng = random.Random(42)
        for trial in range(40):
            n = rng.randint(2, 200)
            table = generate_random_table(n, rng.uniform(0.05, 0.9), rng)
            shuffled = scramble(table, rng)
            renamed, _ = renumber_sequential(shuffled)
            net = validate_radial(renamed)
            assert net.sequentially_ordered
            assert net.node_count == n


def test_solution_invariant_under_shuffle_and_renumber():
    """Shuffled node ids, branch ids and row order, renumbered, solve to the
    ordered table's voltages once mapped back."""
    rng = random.Random(77)
    for trial in range(30):
        n = rng.randint(2, 300)
        table = generate_random_table(n, rng.uniform(0.05, 0.9), rng)
        shuffled, relabel = scramble_with_labels(table, rng)
        rows = list(shuffled.rows)
        rng.shuffle(rows)
        shuffled = type(shuffled)(rows=tuple(rows), source_name="shuffled")
        expected = solve(validate_radial(table))
        renamed, mapping = renumber_sequential(shuffled)
        got = solve(validate_radial(renamed))
        assert (got.iterations, got.leaf_count) == (expected.iterations, expected.leaf_count)
        for node, shuffled_node in relabel.items():
            new = mapping.node_old_to_new[shuffled_node]
            assert mapping.node_new_to_old[new] == shuffled_node
            assert got.voltage_magnitude(new) == pytest.approx(
                expected.voltage_magnitude(node), abs=1e-12
            )


def seeded_feeder_texts(n, seed):
    """A seeded radial table of n branches rooted at node 1, with shuffled
    node labels, branch ids and rows, as delimited text and as JSON text."""
    rng = random.Random(seed)
    labels = [1, *rng.sample(range(2, 10 * n), n)]
    ids = rng.sample(range(1, 10 * n), n)
    rows = [(ids[k - 1], labels[rng.randrange(k)], labels[k], rng.uniform(0.01, 0.3),
             rng.uniform(0.01, 0.3), rng.uniform(0.0, 10.0), rng.uniform(0.0, 5.0))
            for k in range(1, n + 1)]
    rng.shuffle(rows)
    delimited = "".join(" ".join(map(repr, row)) + "\n" for row in rows)
    keys = ("id", "from", "to", "r", "x", "p", "q")
    return delimited, json.dumps({"root": 1, "branches": [dict(zip(keys, row)) for row in rows]})


def retained_tracked_objects(call):
    """How many more objects the cyclic collector tracks while the result of
    call() is kept, after a first call has filled any cache."""
    call()
    gc.collect()
    before = len(gc.get_objects())
    result = call()
    gc.collect()
    retained = len(gc.get_objects()) - before
    del result
    return retained


# a table is nine column tuples plus a few fixed objects, whatever its size;
# a per-row object would add about n
RETAINED_PER_TABLE = 16


@pytest.mark.parametrize("n", [500, 2000])
def test_ingest_retains_a_fixed_number_of_tracked_objects(n):
    delimited, doc = seeded_feeder_texts(n, seed=n)
    table = parse_branch_table(delimited)
    assert len(table.rows) == n
    assert retained_tracked_objects(lambda: parse_branch_table(delimited)) <= RETAINED_PER_TABLE
    assert retained_tracked_objects(lambda: parse_branch_table(doc, "json")) <= RETAINED_PER_TABLE
    assert retained_tracked_objects(lambda: renumber_sequential(table)) <= RETAINED_PER_TABLE


@pytest.mark.parametrize("n", [500, 2000])
def test_validate_and_solve_retain_a_bounded_number_of_tracked_objects(n):
    """A network keeps its branches as per-unit columns and a solve's report
    its results as lists, so each keeps a fixed few tracked objects whatever
    the size; a PerUnitBranch or Phasor kept per branch would add about n."""
    table, _ = renumber_sequential(parse_branch_table(seeded_feeder_texts(n, seed=n)[0]))
    assert retained_tracked_objects(lambda: validate_radial(table)) <= RETAINED_PER_TABLE
    net = validate_radial(table)
    assert retained_tracked_objects(lambda: solve(net)) <= RETAINED_PER_TABLE


def test_an_id_ordered_table_is_taken_by_slicing(bus69_table, monkeypatch):
    """A table whose ids ascend and whose tie rows come last (bus69 and every
    renumbered table) gives its positions as ranges and is gathered by
    slicing; any other is sorted. Both give the same network."""
    renumbered, _ = renumber_sequential(bus69_table)
    for table in (bus69_table, renumbered):
        assert ingest._by_id(table) == (range(68), range(68, 73))
    rows = bus69_table.rows
    # ids out of order and a tie row before a closed one: each is sorted
    others = (rows[1:2] + rows[:1] + rows[2:], rows[:67] + rows[68:69] + rows[67:68] + rows[69:])
    for other in others:
        closed, ties = ingest._by_id(RawTable(rows=other))
        assert type(closed) is list and type(ties) is list
    expected = validate_radial(bus69_table)
    assert validate_radial(RawTable(rows=others[0])) == expected
    gathered = []
    gather = ingest._gather
    monkeypatch.setattr(ingest, "_gather", lambda columns, positions:
                        gathered.append(type(positions)) or gather(columns, positions))
    assert validate_radial(bus69_table) == expected
    assert gathered == [range, range]


def test_a_tree_is_renumbered_in_table_order(bus69_table, monkeypatch):
    """renumber_sequential derives a tree from the closed rows in table order,
    slicing when there are no tie rows and sorting only the tie rows, and
    never sorts all rows by id; the walk does not depend on the order, so the
    result is that of the rows sorted by id."""
    rng = random.Random(11)
    shuffled = scramble(generate_random_table(300, 0.3, rng), rng)
    rows = list(bus69_table.rows)
    rng.shuffle(rows)
    by_id = []
    monkeypatch.setattr(_renumber, "_by_id", lambda table: by_id.append(table))
    for table in (shuffled, RawTable(rows=tuple(rows), source_name=bus69_table.source_name)):
        expected = renumber_sequential(RawTable(
            rows=tuple(sorted(table.rows)), source_name=table.source_name))
        assert renumber_sequential(table) == expected
    assert by_id == []
    gathered = []
    gather = _renumber._gather
    monkeypatch.setattr(_renumber, "_gather", lambda columns, positions:
                        gathered.append(type(positions)) or gather(columns, positions))
    renumber_sequential(shuffled)
    assert gathered[:2] == [range, range]  # the closed rows and no tie rows
    assert _renumber._table_order(RawTable(rows=tuple(rows))) == (
        [k for k, r in enumerate(rows) if not r.is_tie],
        sorted([k for k, r in enumerate(rows) if r.is_tie], key=lambda k: rows[k].branch_id))


def test_renumber_names_the_defect_in_id_order_on_a_shuffled_table():
    """On a table that is not a tree renumber_sequential derives again in id
    order, and names the defect validate_radial names where table order
    names another: here the two branches into one node."""
    rng = random.Random(3)
    rows = list(generate_random_table(1000, 0.3, rng).rows)
    rng.shuffle(rows)
    fed = rows[0]  # a second feed of its receiving node, with a larger id, first
    rows.insert(0, fed._replace(branch_id=5000, sending_node=1 if fed.sending_node != 1 else 2))
    table = RawTable(rows=tuple(rows), source_name="fed-twice")
    expected = (f"fed-twice: node {fed.receiving_node} is fed by branches "
                f"{fed.branch_id} and 5000")
    with pytest.raises(TopologyError) as exc:
        model.radial_tree(*table.columns[:3], 1, ())
    assert str(exc.value) == (f"node {fed.receiving_node} is fed by branches 5000 and "
                              f"{fed.branch_id}")
    for call in (validate_radial, renumber_sequential):
        with pytest.raises(TopologyError) as exc:
            call(table)
        assert str(exc.value) == expected


def test_validate_radial_checks_no_row_again(bus69_table, monkeypatch):
    """A table's rows were checked when it was built, so validate_radial
    builds its tie lines' records without _check_row."""
    checked = []
    monkeypatch.setattr(model, "_check_row", lambda *row: checked.append(row))
    net = validate_radial(bus69_table)
    assert checked == []
    assert net.tie_lines == tuple(sorted(bus69_table.tie_rows()))
    assert {type(t) for t in net.tie_lines} == {BranchRecord}


@pytest.mark.parametrize("row,message", [
    ((1, 1, 2, -0.1, 0.1, 5.0, 1.0, None, False), "branch 1: negative impedance component"),
    ((1, 1, 2, 0.1, 0.1, 5.0, 1.0, None, True), "branch 1: tie-line must carry zero load"),
], ids=["negative-r", "loaded-tie"])
def test_a_table_of_plain_tuples_checks_each_row(row, message):
    """RawTable(rows=...) checks a row given as a plain tuple, as BranchRecord
    does, so every table's rows are checked when it is built."""
    with pytest.raises(DataError) as exc:
        RawTable(rows=[row])
    assert str(exc.value) == message
    assert RawTable(rows=[row[:3] + (0.1, 0.1, 0.0, 0.0, None, row[-1])]).rows == (
        BranchRecord(*row[:3], 0.1, 0.1, 0.0, 0.0, None, row[-1]),)


@pytest.mark.parametrize("row", [(1, 1, 2, 0.1, 0.1, 1.0), (1, 1, 2, 0.1, 0.1, 1.0, 1.0, None),
                                 (1, 1, 2, 0.1, 0.1, 1.0, 1.0, None, False, 0), 5],
                         ids=["six", "eight", "ten", "not-a-row"])
def test_a_plain_row_of_another_length_is_named(row):
    """A row given as a plain tuple must be the nine BranchRecord fields;
    one of another length is a DataError naming the row, where _check_row
    would raise the TypeError of its call."""
    closed = BranchRecord(2, 2, 3, 0.1, 0.1, 1.0, 1.0)
    with pytest.raises(DataError) as exc:
        RawTable(rows=[closed, row], source_name="t")
    assert str(exc.value) == (
        f"t: row 1 {row!r}: a row needs the nine BranchRecord fields (branch_id, "
        f"sending_node, receiving_node, resistance, reactance, load_p, load_q, capacity, is_tie)")


def test_a_root_that_is_not_a_number_is_named(bus33_table):
    """A text root is a DataError, not a root that no branch sends from
    printed as if it were the number; a float or bool root that equals a
    node still reads as it."""
    for call in (validate_radial, renumber_sequential):
        with pytest.raises(DataError) as exc:
            call(bus33_table, root="1")
        assert str(exc.value) == "root '1' is not a number"
    expected = validate_radial(bus33_table)
    for root in (1.0, True):
        assert validate_radial(bus33_table, root=root).branch_ids == expected.branch_ids
        assert renumber_sequential(bus33_table, root=root)[0] == renumber_sequential(bus33_table)[0]


def test_validate_radial_constructs_no_per_unit_branch_or_phasor(bus69_table, monkeypatch):
    made = []
    for cls in (PerUnitBranch, Phasor):
        monkeypatch.setattr(cls, "__new__", lambda c, *a, _new=cls.__new__, **k:
                            made.append(c.__name__) or _new(c, *a, **k))
    net = validate_radial(bus69_table)
    assert made == []
    net.branches[-1]  # the view builds a record and its two Phasors when read
    assert sorted(made) == ["PerUnitBranch", "Phasor", "Phasor"]


def scramble(table, rng):
    """Randomly permute node labels and branch ids to break sequential order."""
    return scramble_with_labels(table, rng)[0]


def scramble_with_labels(table, rng):
    """scramble, also returning the map from old to new node labels."""
    nodes = sorted({r.sending_node for r in table.rows} | {r.receiving_node for r in table.rows})
    perm = nodes[1:]
    rng.shuffle(perm)
    relabel = {nodes[0]: nodes[0]}
    relabel.update(dict(zip(nodes[1:], perm)))
    ids = [r.branch_id for r in table.rows]
    rng.shuffle(ids)
    rows = [
        type(r)(
            branch_id=new_id,
            sending_node=relabel[r.sending_node],
            receiving_node=relabel[r.receiving_node],
            resistance=r.resistance,
            reactance=r.reactance,
            load_p=r.load_p,
            load_q=r.load_q,
            capacity=r.capacity,
            is_tie=r.is_tie,
        )
        for r, new_id in zip(table.rows, ids)
    ]
    return type(table)(rows=tuple(rows), source_name="scrambled"), relabel
