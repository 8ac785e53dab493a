import cmath
import copy
import math
import pickle
import random
import sys
import threading

import pytest

import radialflow as rf
from conftest import shared_net, topology_dicts
from radialflow import model, solver
from radialflow.model import (
    DEFAULT_BASE,
    BranchRecord,
    DataError,
    NetworkModel,
    PerUnitBase,
    PerUnitBranch,
    Phasor,
    RowView,
    SingularityError,
    TopologyError,
    radial_tree,
    to_per_unit,
    wrap_angle,
)


def polar(magnitude, angle):
    z = cmath.rect(magnitude, angle)
    return Phasor(z.real, z.imag)


def random_phasors(count, seed=7, lo=1e-3, hi=10.0):
    rng = random.Random(seed)
    return [
        polar(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))
        for _ in range(count)
    ]


class TestPhasor:
    def test_magnitude_matches_definition(self):
        for p in random_phasors(300):
            assert p.magnitude == pytest.approx(math.sqrt(p.re**2 + p.im**2), rel=1e-12)

    def test_angle_normalized(self):
        for p in random_phasors(300, seed=8):
            assert -math.pi < p.angle <= math.pi
        assert Phasor(-1.0, 0.0).angle == math.pi
        assert Phasor(-1.0, -0.0).angle == math.pi

    def test_polar_roundtrip(self):
        rng = random.Random(3)
        for _ in range(300):
            mag = rng.uniform(1e-3, 5.0)
            ang = rng.uniform(-math.pi + 1e-9, math.pi)
            p = polar(mag, ang)
            assert p.magnitude == pytest.approx(mag, rel=1e-12)
            assert p.angle == pytest.approx(ang, abs=1e-12)

    def test_mul_identity(self):
        one = polar(1.0, 0.0)
        assert one * one == Phasor(1.0, 0.0)

    def test_mul_angle_addition(self):
        a = polar(2.0, math.pi / 2)
        b = polar(3.0, math.pi / 2)
        prod = a * b
        assert prod.re == pytest.approx(-6.0, rel=1e-12)
        assert prod.im == pytest.approx(0.0, abs=1e-12)

    def test_div_hand_checked(self):
        q = Phasor(1.0, 1.0) / Phasor(1.0, -1.0)
        assert q.re == pytest.approx(0.0, abs=1e-15)
        assert q.im == pytest.approx(1.0, rel=1e-15)

    def test_div_by_zero_raises(self):
        with pytest.raises(SingularityError):
            Phasor(1.0, 0.0) / Phasor(0.0, 0.0)

    def test_product_magnitude_and_angle_properties(self):
        pairs = zip(random_phasors(200, seed=11), random_phasors(200, seed=12))
        for a, b in pairs:
            p = a * b
            assert abs(p) == pytest.approx(abs(a) * abs(b), rel=1e-12)
            expected = wrap_angle(a.angle + b.angle)
            assert wrap_angle(p.angle - expected) == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_involution_exact(self):
        for p in random_phasors(100, seed=13):
            assert p.conjugate().conjugate() == p


class TestPhasorMap:
    """A report's final_* views: _IdViews that read a Phasor out of a list
    of complex values when an entry is read."""

    IDS = (3, 1, 7)
    VALUES = [complex(1.0, -0.5), complex(0.25, 0.0), complex(-2.0, 3.5)]

    def view(self):
        index = {k: i for i, k in enumerate(self.IDS)}
        return model._IdView(index, index, solver._phasor_row, list(self.VALUES))

    def as_dict(self):
        return {k: Phasor(z.real, z.imag) for k, z in zip(self.IDS, self.VALUES)}

    def test_len_and_iteration_in_index_order(self):
        view = self.view()
        assert len(view) == 3
        assert list(view) == [3, 1, 7]
        assert list(view.items()) == list(self.as_dict().items())

    def test_entry_is_a_phasor_of_the_value(self):
        assert self.view()[7] == Phasor(-2.0, 3.5)

    def test_unknown_id_raises_key_error(self):
        with pytest.raises(KeyError):
            self.view()[2]
        assert 2 not in self.view()
        assert self.view().get(2) is None

    def test_read_only(self):
        view = self.view()
        with pytest.raises(TypeError):
            view[3] = Phasor(0.0, 0.0)
        with pytest.raises(TypeError):
            del view[3]
        with pytest.raises(AttributeError):
            view.extra = 1

    def test_equality_with_dicts_both_ways(self):
        view = self.view()
        equal = self.as_dict()
        unequal = dict(equal)
        unequal[1] = Phasor(0.25, 1e-12)
        assert view == equal and equal == view
        assert view != unequal and unequal != view
        assert not (view == unequal) and not (unequal == view)
        assert view != {3: equal[3], 1: equal[1]}
        assert view == self.view()

    def test_repr_shows_the_entries_as_phasors(self):
        """As the dict the view stands for."""
        assert repr(self.view()) == (
            "{3: Phasor(re=1.0, im=-0.5), 1: Phasor(re=0.25, im=0.0), "
            "7: Phasor(re=-2.0, im=3.5)}"
        ) == repr(self.as_dict())

    def test_dict_round_trip(self):
        copy = dict(self.view())
        assert copy == self.as_dict()
        assert list(copy) == [3, 1, 7]


class TestPerUnitBase:
    def test_z_base_relation(self):
        base = PerUnitBase(kv_base=12.66, mva_base=10.0)
        assert base.z_base == 12.66 * 12.66 / 10.0

    def test_kw_base_relation(self):
        assert PerUnitBase(kv_base=12.66, mva_base=2.5).kw_base == 2500.0

    @pytest.mark.parametrize("kv,mva", [(0.0, 10.0), (-1.0, 10.0), (12.66, 0.0), (12.66, -5.0),
                                        (1e-300, 10.0), (1e200, 10.0), (12.66, 1e306)])
    def test_invalid_base_rejected(self, kv, mva):
        with pytest.raises(DataError):
            PerUnitBase(kv_base=kv, mva_base=mva)


class TestBranchRecord:
    def test_negative_impedance_rejected(self):
        with pytest.raises(DataError):
            BranchRecord(1, 1, 2, -0.1, 0.05, 0.0, 0.0)

    def test_self_loop_rejected(self):
        with pytest.raises(DataError):
            BranchRecord(1, 2, 2, 0.1, 0.05, 0.0, 0.0)

    def test_tie_with_load_rejected(self):
        with pytest.raises(DataError):
            BranchRecord(1, 1, 2, 0.1, 0.05, 10.0, 5.0, None, True)

    def test_zero_capacity_rejected(self):
        with pytest.raises(DataError):
            BranchRecord(1, 1, 2, 0.1, 0.05, 0.0, 0.0, 0.0)

    def test_non_finite_field_rejected(self):
        with pytest.raises(DataError):
            BranchRecord(1, 1, 2, float("nan"), 0.05, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["resistance", "reactance", "load_p", "load_q"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_named(self, field, value):
        values = dict(resistance=0.1, reactance=0.05, load_p=1.0, load_q=0.5)
        values[field] = value
        with pytest.raises(DataError) as exc:
            BranchRecord(3, 1, 2, **values)
        assert str(exc.value) == f"branch 3: non-finite {field} ({value})"

    def test_infinite_capacity_rejected(self):
        with pytest.raises(DataError) as exc:
            BranchRecord(3, 1, 2, 0.1, 0.05, 1.0, 0.5, capacity=float("inf"))
        assert str(exc.value) == "branch 3: non-finite capacity (inf)"

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_nan_or_negative_infinite_capacity_named(self, value):
        with pytest.raises(DataError) as exc:
            BranchRecord(3, 1, 2, 0.1, 0.05, 1.0, 0.5, capacity=value)
        assert str(exc.value) == f"branch 3: non-finite capacity ({value})"

    def test_earlier_defect_named_before_infinite_capacity(self):
        with pytest.raises(DataError) as exc:
            BranchRecord(3, 2, 2, 0.1, 0.05, 1.0, 0.5, capacity=float("inf"))
        assert str(exc.value) == "branch 3: sending and receiving node are both 2"

    def test_finite_fields_with_overflowing_sum_accepted(self):
        rec = BranchRecord(1, 1, 2, 1e308, 1e308, 1e308, 1e308)
        assert rec.load_q == 1e308

    @pytest.mark.parametrize("row,message", [
        (("7", 1, 2, 0.1, 0.1, 1, 1), "branch 7: branch_id is not a number ('7')"),
        ((None, 1, 2, 0.1, 0.1, 1, 1), "branch None: branch_id is not a number (None)"),
        ((1, "1", 2, 0.1, 0.1, 1, 1), "branch 1: sending_node is not a number ('1')"),
        ((1, 1, None, 0.1, 0.1, 1, 1), "branch 1: receiving_node is not a number (None)"),
        ((1, 1j, 2, 0.1, 0.1, 1, 1), "branch 1: sending_node is not a number (1j)"),
        ((1, 1, 2, "0.1", 0.1, 1, 1), "branch 1: resistance is not a number ('0.1')"),
        ((1, 1, 2, 0.1, 0.1j, 1, 1), "branch 1: reactance is not a number (0.1j)"),
        ((1, 1, 2, 0.1, 0.1, None, 1), "branch 1: load_p is not a number (None)"),
        ((1, 1, 2, 0.1, 0.1, 1, [1]), "branch 1: load_q is not a number ([1])"),
        ((1, 1, 2, 0.1, 0.1, 1, 1, "5"), "branch 1: capacity is not a number ('5')"),
        # the first field at fault in field order, whichever test fails first
        ((1, "1", 2, "0.1", 0.1, 1, 1), "branch 1: sending_node is not a number ('1')"),
        ((2, 1, 2, -1.0, "x", 1, 1), "branch 2: reactance is not a number ('x')"),
        # an int that float() cannot convert, named rather than left to raise
        # the OverflowError of the conversion
        ((1, 1, 2, 10**400, 0.1, 1, 1), "branch 1: resistance is beyond the range of a float"),
        ((1, 1, 2, 0.1, -10**400, 1, 1), "branch 1: reactance is beyond the range of a float"),
        ((1, 1, 2, 0.1, 0.1, 10**400, 1), "branch 1: load_p is beyond the range of a float"),
        ((1, 1, 2, 0.1, 0.1, 1, 10**400), "branch 1: load_q is beyond the range of a float"),
        ((1, 1, 2, 0.1, 0.1, 1, 1, 10**400), "branch 1: capacity is beyond the range of a float"),
        ((1, 1, 2, 0.1, 0.1, 1, 1, -10**400),
         "branch 1: capacity is beyond the range of a float"),
        # the value whose conversion failed, though an earlier one is infinite
        ((1, 1, 2, math.inf, 0.1, 10**400, 1), "branch 1: load_p is beyond the range of a float"),
    ], ids=["id-text", "id-none", "sending-text", "receiving-none", "sending-complex",
            "resistance-text", "reactance-complex", "load_p-none", "load_q-list", "capacity-text",
            "first-in-field-order", "before-negative-impedance", "resistance-beyond-float",
            "reactance-beyond-float", "load_p-beyond-float", "load_q-beyond-float",
            "capacity-beyond-float", "negative-capacity-beyond-float", "after-an-infinity"])
    @pytest.mark.parametrize("build", [
        lambda row: BranchRecord(*row),
        # a plain tuple of all nine fields
        lambda row: rf.RawTable(rows=((*row, None, False)[:9],)),
    ], ids=["BranchRecord", "RawTable"])
    def test_a_value_that_is_not_a_number_is_named(self, row, message, build):
        with pytest.raises(DataError) as exc:
            build(row)
        assert str(exc.value) == message

    def test_ints_a_float_holds_and_ids_beyond_one_are_kept(self):
        """Only a value field is converted: an int a float holds reads as a
        value, and ids and nodes of any size are compared exactly."""
        big = 10**400
        assert BranchRecord(1, 1, 2, 10**300, 0, 1, 1).resistance == 10**300
        assert BranchRecord(big, big, big + 1, 0.1, 0.1, 1, 1).receiving_node == big + 1


class TestToPerUnit:
    def test_bus69_row5_impedance(self):
        rec = BranchRecord(5, 5, 6, 0.3660, 0.1864, 2.60, 2.20, 1899.0)
        pu = to_per_unit(rec, DEFAULT_BASE)
        zb = 12.66 * 12.66 / 10.0
        assert pu.z.re == pytest.approx(0.3660 / zb, rel=1e-14)
        assert pu.z.im == pytest.approx(0.1864 / zb, rel=1e-14)

    def test_zero_impedance(self):
        rec = BranchRecord(1, 1, 2, 0.0, 0.0, 0.0, 0.0)
        pu = to_per_unit(rec, DEFAULT_BASE)
        assert pu.z == Phasor(0.0, 0.0)

    def test_load_conversion(self):
        rec = BranchRecord(1, 1, 2, 0.1, 0.1, 100.0, 60.0)
        pu = to_per_unit(rec, PerUnitBase(12.66, 10.0))
        assert pu.s_load.re == pytest.approx(0.01, rel=1e-14)
        assert pu.s_load.im == pytest.approx(0.006, rel=1e-14)

    @pytest.mark.parametrize("row,base,message", [
        ((1, 1, 2, 1e200, 0.0, 10.0, 5.0), PerUnitBase(1e-100, 10.0),
         "branch 1: resistance is not finite in per unit (kv_base 1e-100, mva_base 10.0)"),
        ((1, 1, 2, 0.1, 0.1, 1e300, 0.0), PerUnitBase(12.66, 1e-300),
         "branch 1: load_p is not finite in per unit (kv_base 12.66, mva_base 1e-300)"),
    ], ids=["impedance", "load"])
    def test_overflow_names_branch_field_and_bases(self, row, base, message):
        with pytest.raises(DataError) as exc:
            to_per_unit(BranchRecord(*row), base)
        assert str(exc.value) == message

    def test_tie_converts_impedance_only(self):
        rec = BranchRecord(69, 11, 43, 0.5, 0.5, 0.0, 0.0, 566.0, True)
        pu = to_per_unit(rec, DEFAULT_BASE)
        assert pu.s_load == Phasor(0.0, 0.0)
        assert pu.z.re > 0.0


class TestNetworkModel:
    @pytest.mark.parametrize("derived", [
        {"children": {1: (1,), 2: ()}},
        {"node_count": 2},
        {"sequentially_ordered": True},
    ], ids=["children", "node_count", "sequentially_ordered"])
    def test_topology_is_not_an_argument(self, derived):
        branch = to_per_unit(BranchRecord(1, 1, 2, 0.1, 0.1, 10.0, 5.0), DEFAULT_BASE)
        NetworkModel(branches=(branch,), root=1, tie_lines=(), base=DEFAULT_BASE)
        with pytest.raises(TypeError):
            NetworkModel(branches=(branch,), root=1, tie_lines=(), base=DEFAULT_BASE, **derived)

    @pytest.mark.parametrize("edges,ties,message", [
        ([(1, 1, 2), (2, 5, 6)], [], "node 5 has no feeding branch"),
        ([(1, 1, 2), (2, 1, 3), (3, 2, 3)], [], "node 3 is fed by branches 2 and 3"),
        ([(1, 1, 2), (2, 3, 4), (3, 4, 3)], [], "cycle through branch 3 (4->3)"),
        ([(1, 1, 2), (2, 2, 3), (3, 3, 1)], [],
         "cycle through branch 3 (3->1) feeding the root"),
        ([], [], "no closed branches"),
        ([(1, 1, 2)], [(9, 2, 7)], "tie branch 9 ends at node 7, which no closed branch connects"),
    ], ids=["unfed-island", "doubly-fed", "cycle", "root-fed", "no-branches", "tie-to-unknown"])
    def test_construction_checks_the_tree(self, edges, ties, message):
        """A hand-built model is checked as validate_radial's is, and its
        error names no source."""
        branches = tuple(to_per_unit(BranchRecord(*edge, 0.1, 0.1, 10.0, 5.0), DEFAULT_BASE)
                         for edge in edges)
        tie_lines = tuple(BranchRecord(*edge, 0.1, 0.1, 0.0, 0.0, None, True) for edge in ties)
        with pytest.raises(TopologyError) as exc:
            NetworkModel(branches=branches, root=1, tie_lines=tie_lines, base=DEFAULT_BASE)
        assert str(exc.value) == message

    @pytest.mark.parametrize("edges,root,message", [
        ([(1, 1, "2")], 1, "branch 1: receiving_node is not a number ('2')"),
        ([(1, 1, 2), (2, "2", 3)], 1, "branch 2: sending_node is not a number ('2')"),
        ([(1, 1, 2), (2, 2, 3)], "1", "root '1' is not a number"),
        ([(1, 1, 2), (2, 2, None)], 1, "branch 2: receiving_node is not a number (None)"),
    ], ids=["receiving-text", "sending-text", "root-text", "receiving-none"])
    def test_a_node_or_root_that_is_not_a_number_is_named(self, edges, root, message):
        """Text where a node belongs fails the tree's sort or its lookups;
        only then are the root and the columns searched, and the first that
        is not a number is a DataError rather than a TypeError or a
        TopologyError that prints the text as if it were the number."""
        branches = tuple(PerUnitBranch(*edge, Phasor(0.1, 0.1), Phasor(0.0, 0.0))
                         for edge in edges)
        with pytest.raises(DataError) as exc:
            NetworkModel(branches=branches, root=root, tie_lines=(), base=DEFAULT_BASE)
        assert str(exc.value) == message

    def test_float_and_bool_nodes_and_root_build(self):
        branches = (PerUnitBranch(1, 1.0, 2, Phasor(0.1, 0.1), Phasor(0.01, 0.0)),
                    PerUnitBranch(2, True, 3, Phasor(0.1, 0.1), Phasor(0.01, 0.0)))
        for root in (1, 1.0, True):
            net = NetworkModel(branches=branches, root=root, tie_lines=(), base=DEFAULT_BASE)
            assert net.nodes() == (1, 2, 3) and net.children[1] == (1, 2)

    def test_branch_listed_before_its_feeder_is_unordered(self):
        """Ordering is judged by position in branches, which validate_radial
        sorts by id, so the sweep never reads a parent accumulator it has
        already passed, even on branches built out of order."""
        late = to_per_unit(BranchRecord(2, 2, 3, 0.1, 0.1, 10.0, 5.0), DEFAULT_BASE)
        feeder = to_per_unit(BranchRecord(1, 1, 2, 0.1, 0.1, 10.0, 5.0), DEFAULT_BASE)
        net = NetworkModel(branches=(late, feeder), root=1, tie_lines=(), base=DEFAULT_BASE)
        assert net.unordered_branch == 2
        with pytest.raises(rf.OrderingError, match="^branch 2 precedes the branch feeding"):
            rf.solve(net)

    @pytest.mark.parametrize("edges,ties,repeated", [
        ([(1, 1, 2), (1, 2, 3)], (), 1),
        ([(2, 1, 2), (3, 5, 6), (3, 1, 3), (2, 6, 5)], (), 3),
        ([(1, 1, 2), (2, 2, 3)], [(2, 1, 3)], 2),
    ], ids=["tree", "not-a-tree", "tie-line"])
    def test_repeated_branch_id_is_refused(self, edges, ties, repeated):
        """The first id that repeats, in branch order and then tie-line order,
        is named before the tree is checked, in RawTable's text without a
        source."""
        branches = tuple(to_per_unit(BranchRecord(*edge, 0.1, 0.1, 10.0, 5.0), DEFAULT_BASE)
                         for edge in edges)
        tie_lines = tuple(BranchRecord(*tie, 0.1, 0.1, 0.0, 0.0, None, True) for tie in ties)
        with pytest.raises(DataError) as exc:
            NetworkModel(branches=branches, root=1, tie_lines=tie_lines, base=DEFAULT_BASE)
        assert str(exc.value) == f"duplicate branch id {repeated}"

    def test_closed_record_is_not_a_tie_line(self):
        """A tie_lines record whose is_tie is false would be dropped, its load
        with it; it is refused before the ids are checked."""
        branches = tuple(to_per_unit(BranchRecord(k, k, k + 1, 0.1, 0.1, 10.0, 5.0), DEFAULT_BASE)
                         for k in (1, 2))
        closed = BranchRecord(1, 1, 3, 0.1, 0.1, 7.0, 7.0)
        with pytest.raises(DataError) as exc:
            NetworkModel(branches, 1, (closed,), DEFAULT_BASE)
        assert str(exc.value) == "tie line 1 is not flagged as a tie"

    @pytest.mark.parametrize("given", ["generator", "iterator-outside", "list"])
    def test_tie_lines_are_taken_once_as_a_tuple(self, bus69_net, given):
        """tie_lines is read once and kept as a tuple, as branches is: a
        generator's ties are kept, not used up by the checks; a tie from an
        iterator that ends outside the tree is refused as one in a tuple;
        and a list is kept as the equal tuple, not as a list that compares
        unequal and can be emptied."""
        ties = tuple(bus69_net.tie_lines)

        def build(tie_lines):
            return NetworkModel(bus69_net.branches, bus69_net.root, tie_lines, bus69_net.base)

        if given == "iterator-outside":
            ties += (BranchRecord(999, 1, 5000, 0.1, 0.1, 0.0, 0.0, None, True),)
            for tie_lines in (iter(ties), ties):
                with pytest.raises(TopologyError) as exc:
                    build(tie_lines)
                assert str(exc.value) == (
                    "tie branch 999 ends at node 5000, which no closed branch connects")
            return
        net = build((t for t in ties) if given == "generator" else list(ties))
        assert len(ties) == 5
        assert type(net.tie_lines) is tuple and net.tie_lines == ties
        assert net == build(ties) == bus69_net


class TestBranchView:
    """NetworkModel keeps its branches as columns; branches is a read-only
    view that builds an equal PerUnitBranch when an entry is read."""

    RECORDS = (BranchRecord(1, 1, 2, 0.1, 0.2, 10.0, 5.0, 100.0),
               BranchRecord(2, 2, 3, 0.3, 0.1, 0.0, 0.0),
               BranchRecord(3, 2, 4, 0.2, 0.2, 4.0, -1.0, 50.0))

    def branches(self):
        return tuple(to_per_unit(rec, DEFAULT_BASE) for rec in self.RECORDS)

    def net(self):
        return NetworkModel(branches=self.branches(), root=1, tie_lines=(), base=DEFAULT_BASE)

    def test_entries_equal_the_records_given(self):
        view, branches = self.net().branches, self.branches()
        for k in range(-3, 3):
            assert view[k] == branches[k] and type(view[k]) is rf.PerUnitBranch
        assert view[1:] == branches[1:] and view[::-1] == branches[::-1]
        for k in (3, -4):
            with pytest.raises(IndexError):
                view[k]

    def test_columns_hold_the_records_fields(self):
        net, branches = self.net(), self.branches()
        assert net.branch_ids == (1, 2, 3)
        assert (net.sending, net.receiving) == ((1, 2, 2), (2, 3, 4))
        assert net.z == tuple(b.z.as_complex() for b in branches)
        assert net.s_load == tuple(b.s_load.as_complex() for b in branches)
        assert net.capacity == (100.0, None, 50.0)

    def test_length_iteration_and_equality(self):
        view, branches = self.net().branches, self.branches()
        assert len(view) == 3 and tuple(view) == branches and list(view) == list(branches)
        assert view == branches and branches == view and not (view != branches)
        assert view == self.net().branches
        assert view != branches[:2] and branches[:2] != view
        assert view != branches[:2] + (branches[2]._replace(capacity=51.0),)
        assert view != list(branches)
        for change in ({"z": Phasor(0.5, 0.5)}, {"s_load": Phasor(0.5, 0.5)}):
            other = NetworkModel(branches[:2] + (branches[2]._replace(**change),), 1, (),
                                 DEFAULT_BASE)
            assert view != other.branches and not (view == other.branches)
        assert branches[0] in view and view.index(branches[2]) == 2

    def test_model_rebuilt_from_its_view_is_equal(self, bus69_net):
        for net in (self.net(), bus69_net):
            assert NetworkModel(net.branches, net.root, net.tie_lines, net.base) == net

    def test_pickle_and_copy_rebuild_an_equal_view(self):
        """As the RowView it is, the tuple of its PerUnitBranches."""
        view = self.net().branches
        for rebuilt in (pickle.loads(pickle.dumps(view)), copy.copy(view), copy.deepcopy(view)):
            assert type(rebuilt) is tuple and rebuilt == view == self.branches()

    def test_each_nodes_load_is_the_s_load_of_its_feeding_branch(self):
        """The network keeps each load once, in its branch's s_load; the
        sweep's load currents by node equal the oracle's, which pairs the
        receiving and s_load columns, with none at the root. The nodes are
        numbered so that their order is not the order of the branches
        feeding them."""
        records = (BranchRecord(1, 1, 3, 0.1, 0.2, 10.0, 5.0),
                   BranchRecord(2, 3, 4, 0.3, 0.1, 4.0, -1.0),
                   BranchRecord(3, 3, 2, 0.2, 0.2, 7.0, 2.0))
        branches = tuple(to_per_unit(rec, DEFAULT_BASE) for rec in records)
        net = NetworkModel(branches=branches, root=1, tie_lines=(), base=DEFAULT_BASE)
        assert net.nodes() == (1, 2, 3, 4) and not hasattr(net, "node_s_load")
        report, baseline = rf.solve(net), rf.baseline_solve(net)
        assert report.final_load_current == baseline.final_load_current
        assert report.final_load_current[1] == Phasor(0.0, 0.0)
        assert all(report.final_load_current[n].magnitude > 0.0 for n in (2, 3, 4))

    def test_view_and_model_cannot_be_assigned(self):
        net = self.net()
        view = net.branches
        with pytest.raises(TypeError):
            view[0] = view[1]
        with pytest.raises(TypeError):
            del view[0]
        for name in ("_columns", "extra"):
            with pytest.raises(AttributeError):
                setattr(view, name, ())
        for name in NetworkModel.__slots__:
            with pytest.raises(AttributeError):
                setattr(net, name, None)

    def test_a_tie_line_is_not_a_closed_branch(self):
        tie = to_per_unit(BranchRecord(2, 2, 3, 0.1, 0.1, 0.0, 0.0, None, True), DEFAULT_BASE)
        with pytest.raises(DataError) as exc:
            NetworkModel(branches=(self.branches()[0], tie), root=1, tie_lines=(),
                         base=DEFAULT_BASE)
        assert str(exc.value) == "branch 2 is a tie line; a network holds closed branches only"

    def test_branches_are_a_row_view_shown_and_hashed_as_the_tuple(self):
        net = self.net()
        assert type(net.branches) is RowView
        assert repr(net.branches) == repr(self.branches())
        assert hash(net.branches) == hash(self.branches())
        assert repr(net).startswith(f"NetworkModel(branches=({self.branches()[0]!r}, ")


def scaled_row(sources, k):
    """A RowView row: (id, value x scale) at position k of sources (ids,
    values, scale)."""
    ids, values, scale = sources
    return ids[k], values[k] * scale


class TestRowView:
    """A RowView stands for the tuple of its rows and builds each row when
    it is read."""

    IDS = (3, 1, 7)
    VALUES = [0.5, -1.25, 2.0]
    ROWS = ((3, 1.0), (1, -2.5), (7, 4.0))

    def view(self, values=None):
        return RowView(scaled_row, (self.IDS, list(values or self.VALUES), 2.0))

    def test_equals_the_tuple_of_its_rows_either_way(self):
        view = self.view()
        assert view == self.ROWS and self.ROWS == view
        assert not (view != self.ROWS) and not (self.ROWS != view)
        other = self.view([0.5, -1.25, 2.5])
        assert view != other and other != view and other != self.ROWS
        assert view != self.ROWS[:2] and self.ROWS[:2] != view
        assert view != list(self.ROWS) and list(self.ROWS) != view
        assert view != () and () != view

    def test_equals_a_view_with_equal_rows(self):
        view = self.view()
        # other sources that give the same rows
        same = RowView(scaled_row, (list(self.IDS), [1.0, -2.5, 4.0], 1.0))
        assert view == same and same == view and not (view != same)
        assert view != self.view([0.5, -1.25, 2.5])

    def test_iterates_indexes_and_slices_as_the_tuple(self):
        view = self.view()
        assert len(view) == 3 and tuple(view) == self.ROWS and list(view) == list(self.ROWS)
        for k in range(-3, 3):
            assert view[k] == self.ROWS[k]
        for part in (slice(1, None), slice(None, None, -1), slice(-2, None),
                     slice(5, 1), slice(0, 3, 2)):
            assert view[part] == self.ROWS[part] and type(view[part]) is tuple
        for k in (3, -4):
            with pytest.raises(IndexError):
                view[k]
        assert tuple(reversed(view)) == self.ROWS[::-1]
        assert (1, -2.5) in view and view.index((7, 4.0)) == 2 and view.count((3, 1.0)) == 1

    def test_shown_and_hashed_as_the_tuple(self):
        view = self.view()
        assert repr(view) == repr(self.ROWS) and str(view) == str(self.ROWS)
        assert hash(view) == hash(self.ROWS)
        assert {self.ROWS: "rows"}[view] == "rows"

    def test_pickle_and_copy_give_the_tuple(self):
        view = self.view()
        for rebuilt in (pickle.loads(pickle.dumps(view)), copy.copy(view), copy.deepcopy(view)):
            assert type(rebuilt) is tuple and rebuilt == self.ROWS

    def test_cannot_be_assigned(self):
        view = self.view()
        with pytest.raises(TypeError):
            view[0] = (3, 0.0)
        for name in ("_row", "_sources", "extra"):
            with pytest.raises(AttributeError):
                setattr(view, name, None)

    def test_builds_a_row_only_when_read(self):
        built = []

        def counting_row(sources, k):
            built.append(k)
            return scaled_row(sources, k)

        view = RowView(counting_row, (self.IDS, self.VALUES, 2.0))
        assert built == [] and len(view) == 3 and built == []
        view[-1]
        assert built == [-1]
        assert view == self.ROWS
        assert built == [-1, 0, 1, 2]


def sparse_shuffled(table, seed=11):
    """table with its nodes and branch ids relabelled into a sparse range and
    its rows shuffled, and the new label of node 1 (the root)."""
    rng = random.Random(seed)
    nodes = sorted({n for r in table.rows for n in (r.sending_node, r.receiving_node)})
    label = dict(zip(nodes, rng.sample(range(2, 50 * len(nodes)), len(nodes))))
    ids = dict(zip([r.branch_id for r in table.rows],
                   rng.sample(range(1, 50 * len(table.rows)), len(table.rows))))
    rows = [r._replace(branch_id=ids[r.branch_id], sending_node=label[r.sending_node],
                       receiving_node=label[r.receiving_node]) for r in table.rows]
    rng.shuffle(rows)
    return rf.RawTable(rows=tuple(rows), source_name="sparse"), label[1]


TOPOLOGY = ("children", "parent_branch")


class TestTopologyViews:
    """children and parent_branch are read-only views over the network's
    position lists, equal to the dicts they stand for: on the bundled feeders
    and on a relabelled, unordered network."""

    @pytest.fixture(scope="class", params=["bus69", "bus33", "sparse"])
    def case(self, request, bus69_table, bus33_table):
        if request.param == "sparse":
            table, root = sparse_shuffled(bus69_table)
        else:
            table, root = {"bus69": bus69_table, "bus33": bus33_table}[request.param], 1
        return shared_net(rf.validate_radial(table, root=root, require_ordered=False)), table, root

    def test_each_view_equals_its_dict_both_ways(self, case):
        net, table, root = case
        for name, expected in topology_dicts(table, root).items():
            view = getattr(net, name)
            assert view == expected and expected == view
            assert not (view != expected) and not (expected != view)
            assert dict(view) == expected and type(view) is not dict
            changed = dict(expected)
            changed[next(iter(changed))] = -1
            assert view != changed and changed != view

    def test_length_order_and_repr(self, case):
        net, table, root = case
        for name, expected in topology_dicts(table, root).items():
            view = getattr(net, name)
            assert len(view) == len(expected)
            assert list(view) == list(expected)
            assert list(view.items()) == list(expected.items())
            assert repr(view) == repr(expected)

    def test_lookups_of_unknown_keys(self, case):
        net, _, root = case
        unknown = max(net.nodes()) + max(net.branch_ids) + 1
        for name in TOPOLOGY:
            view = getattr(net, name)
            assert unknown not in view and view.get(unknown) is None
            with pytest.raises(KeyError):
                view[unknown]
        assert root not in net.parent_branch and root in net.children
        with pytest.raises(KeyError):
            net.parent_branch[root]

    def test_views_cannot_be_assigned(self, case):
        net, _, root = case
        for name in TOPOLOGY:
            view = getattr(net, name)
            with pytest.raises(TypeError):
                view[root] = 1
            with pytest.raises(TypeError):
                del view[root]
            with pytest.raises(AttributeError):
                view.extra = 1

    def test_model_equality_repr_pickle_and_copy(self, case):
        net, _, _ = case
        assert repr(net) == (f"NetworkModel(branches={net.branches!r}, root={net.root!r}, "
                             f"tie_lines={net.tie_lines!r}, base={net.base!r})")
        rebuilt = NetworkModel(net.branches, net.root, net.tie_lines, net.base)
        assert rebuilt == net and repr(rebuilt) == repr(net)
        for again in (pickle.loads(pickle.dumps(net)), copy.copy(net), copy.deepcopy(net)):
            assert type(again) is NetworkModel and again == net
            for name in TOPOLOGY:
                assert list(getattr(again, name).items()) == list(getattr(net, name).items())

    def test_report_lookups_read_the_solved_values(self, case):
        net, table, root = case
        if not net.sequentially_ordered:
            table, mapping = rf.renumber_sequential(table, root=root)
            net = rf.validate_radial(table)
        report = rf.solve(net)
        # nodes in ascending id order, branches in id order
        node_ids = sorted({net.root, *(r.receiving_node for r in table.closed_rows())})
        branch_ids = sorted(r.branch_id for r in table.closed_rows())
        for view, ids in ((report.final_voltage, node_ids),
                          (report.final_load_current, node_ids),
                          (report.final_branch_current, branch_ids)):
            values = view._sources
            assert list(view) == ids
            for k, key in enumerate(ids):
                assert view[key] == Phasor(values[k].real, values[k].imag)
        for node, magnitude, _ in report.node_voltages:
            assert report.final_voltage[node].magnitude == magnitude
        for branch_id, magnitude in report.branch_currents:
            assert report.final_branch_current[branch_id].magnitude == magnitude
        assert pickle.loads(pickle.dumps(report)) == report


@pytest.mark.parametrize("name", [
    "children", "parent_branch", "branches", "final_voltage", "final_load_current",
    "final_branch_current", "node_voltages", "branch_currents", "branch_losses"])
def test_every_view_pickles_and_copies_equal_to_itself(name, bus33_net, bus33_report):
    """An id-keyed view comes back as the view it was, a row view as the
    tuple of its rows; each equals the view and the plain value it stands for."""
    view = getattr(bus33_net if hasattr(bus33_net, name) else bus33_report, name)
    plain = dict(view) if isinstance(view, model._IdView) else tuple(view)
    for again in (pickle.loads(pickle.dumps(view)), copy.copy(view), copy.deepcopy(view)):
        assert type(again) is (type(view) if type(plain) is dict else tuple)
        assert again == view and again == plain and repr(again) == repr(view)
        assert list(again) == list(view)


def scenario(table, factor):
    """table with every load scaled by factor: a load scenario of its topology."""
    rows = tuple(r._replace(load_p=r.load_p * factor, load_q=r.load_q * factor)
                 for r in table.rows)
    return rf.RawTable(rows=rows, source_name=f"{table.source_name}x{factor:.3f}")


EMPTY = (None, None, None)


@pytest.fixture
def empty_memo(monkeypatch):
    """No topology held, and whatever a test leaves held dropped after it."""
    monkeypatch.setattr(model, "_last", EMPTY)


@pytest.fixture
def tree_calls(monkeypatch, empty_memo):
    """The argument tuples of every radial_tree call a network's construction makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return radial_tree(*args)

    monkeypatch.setattr(model, "radial_tree", counted)
    return calls


def fresh(build):
    """build() run with no topology held, leaving what is held as it was."""
    held = model._last
    model._last = EMPTY
    try:
        return build()
    finally:
        model._last = held


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except rf.LoadFlowError as exc:
        return type(exc), str(exc)


def topology(net):
    """What a network derives from its topology, ids as it shows them."""
    return (repr(net.nodes()), repr(dict(net.children)), repr(dict(net.parent_branch)),
            repr(net.unordered_branch), repr(net))


def shown_by_id(view):
    """What an id-keyed view shows through the Mapping API: its keys in
    order, its length, in and get of each key and of an id it lacks, and
    the dict it stands for, ids as it shows them."""
    keys = list(view)
    probes = [*keys, -1]
    return (repr(keys), len(view), [k in view for k in probes],
            repr([view.get(k) for k in probes]), repr(dict(view)))


class TestSharedTopology:
    """Networks of one topology in a row share one derivation of the tree;
    their ids, loads, views and reports stay their own."""

    def test_a_topology_is_held_after_two_equal_ones_in_a_row(self, tree_calls, bus69_table):
        nets = [rf.validate_radial(scenario(bus69_table, f)) for f in (0.5, 0.8, 1.1)]
        assert len(tree_calls) == 2
        assert nets[2]._tree is nets[1]._tree is model._last[2]
        assert nets[0]._tree is not nets[1]._tree

    def test_alternating_topologies_hold_nothing(self, tree_calls, bus69_table, bus33_table):
        for table in (bus69_table, bus33_table) * 2:
            rf.validate_radial(table)
        assert len(tree_calls) == 4
        assert model._last[1:] == (None, None)

    @pytest.mark.parametrize("defect", ["doubly-fed", "root-fed", "tie-outside", "unordered"])
    def test_a_defect_between_good_tables_raises_its_own_error(self, empty_memo, bus69_table,
                                                               defect):
        """A table that differs from the held one in its rows, its root or a
        tie line's end is derived, and named, as with nothing held."""
        rows = list(bus69_table.rows)
        root = 1
        if defect == "doubly-fed":
            rows[30] = rows[30]._replace(receiving_node=rows[10].receiving_node)
        elif defect == "root-fed":  # the same rows, with node 2 as the root
            root = 2
        elif defect == "tie-outside":
            k = next(k for k, r in enumerate(rows) if r.is_tie)
            rows[k] = rows[k]._replace(receiving_node=999)
        else:  # branches 3 and 40 trade ids
            rows[2], rows[39] = rows[2]._replace(branch_id=40), rows[39]._replace(branch_id=3)
        table = rf.RawTable(rows=tuple(rows), source_name="defective")
        expected = fresh(lambda: outcome(rf.validate_radial, table, root))
        assert expected[0] in (TopologyError, rf.OrderingError)
        for factor in (0.5, 0.8):
            rf.validate_radial(scenario(bus69_table, factor))
        assert model._last[2] is not None  # bus69 is held
        assert outcome(rf.validate_radial, table, root) == expected
        after = rf.validate_radial(scenario(bus69_table, 1.1))
        alone = fresh(lambda: rf.validate_radial(scenario(bus69_table, 1.1)))
        assert topology(after) == topology(alone)
        assert rf.solve(after) == rf.solve(alone)

    @pytest.mark.parametrize("relabel", [float, lambda v: True if v == 1 else v],
                             ids=["float", "true-for-one"])
    @pytest.mark.parametrize("feeder", ["bus33", "unordered"])
    def test_ids_equal_under_eq_stay_each_networks_own(self, empty_memo, bus33_net, relabel,
                                                       feeder):
        """A network whose ids equal the held one's under == (1.0, or True for
        1) shares its tree and its tree's id lookups, and shows its own ids in
        nodes(), the views, the ordering verdict and the report, both when
        the tree was derived from int ids and when the int ids come later."""
        if feeder == "bus33":
            branches = bus33_net.branches
        else:  # branch 2 listed before branch 1, which feeds it
            branches = tuple(to_per_unit(BranchRecord(*edge, 0.1, 0.1, 10.0, 5.0), DEFAULT_BASE)
                             for edge in ((2, 2, 3), (1, 1, 2), (3, 1, 4)))
        relabelled = tuple(b._replace(branch_id=relabel(b.branch_id),
                                      sending_node=relabel(b.sending_node),
                                      receiving_node=relabel(b.receiving_node))
                           for b in branches)

        def build(branches, root):
            net = NetworkModel(branches, root, (), DEFAULT_BASE)
            report = outcome(rf.solve, net)
            return net, topology(net), repr(report)

        ints, others = (branches, 1), (relabelled, relabel(1))
        for first, then in ((ints, others), (others, ints)):
            model._last = EMPTY
            expected = fresh(lambda: build(*then)[1:])
            held = [build(*first)[0] for _ in range(2)]
            net, *shown = build(*then)
            assert net._tree is held[1]._tree
            assert shown == list(expected)
            assert repr(net.nodes()) != repr(held[1].nodes())
            assert list(map(type, net.nodes())) == list(map(type, fresh(
                lambda: NetworkModel(*then, (), DEFAULT_BASE)).nodes()))

    def test_scenarios_back_to_back_equal_the_baseline_and_fresh_solves(
            self, empty_memo, bus69_table, bus33_table):
        rng = random.Random(22)
        for name in "AAABBBABAAABBA":
            table = scenario(bus69_table if name == "A" else bus33_table, rng.uniform(0.3, 1.3))
            net = rf.validate_radial(table)
            alone = fresh(lambda: rf.validate_radial(table))
            assert topology(net) == topology(alone)
            assert {type(t) for t in net.tie_lines} <= {BranchRecord}
            for again in (pickle.loads(pickle.dumps(net.tie_lines)), copy.copy(net.tie_lines),
                          copy.deepcopy(net.tie_lines)):
                assert type(again) is tuple and again == tuple(alone.tie_lines)
            for literal_scan in (False, True):
                options = rf.SolveOptions(literal_scan=literal_scan)
                report = rf.solve(net, options)
                report_alone = fresh(lambda: rf.solve(rf.validate_radial(table), options))
                assert report == report_alone
                for name in ("children", "parent_branch", "final_voltage", "final_load_current",
                             "final_branch_current"):
                    view, view_alone = (getattr(r, name) for r in (
                        (net, alone) if hasattr(net, name) else (report, report_alone)))
                    assert shown_by_id(view) == shown_by_id(view_alone)
                    assert view == dict(view_alone)
                base = rf.baseline_solve(net, options)
                assert (report.iterations, report.step_count_baseline) == (
                    base.iterations, base.step_count_baseline)
                assert all(abs((p - base.final_voltage[k]).as_complex()) < 1e-12
                           for k, p in report.final_voltage.items())

    def test_threads_sharing_two_topologies_get_single_threaded_reports(
            self, tree_calls, bus69_table, bus33_table):
        """Four threads, more than two cores, each validate and solve runs of
        two topologies with the interpreter switching threads as often as it
        can; every report equals the one solved alone, and some networks
        shared a tree (about a third did in trial runs)."""
        rng = random.Random(5)
        tables = [scenario(bus69_table if (k // 3) % 2 else bus33_table, rng.uniform(0.3, 1.3))
                  for k in range(24)]
        expected = [fresh(lambda: rf.solve(rf.validate_radial(t))) for t in tables]
        del tree_calls[:]
        got = [[] for _ in range(4)]

        def work(w):
            for k in range(len(tables)):
                j = (k + 3 * w) % len(tables)
                got[w].append((j, rf.solve(rf.validate_radial(tables[j]))))

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(g) for g in got] == [len(tables)] * 4
        assert len(tree_calls) < 4 * len(tables)
        for g in got:
            for j, report in g:
                assert report == expected[j]


def converted(table, base=DEFAULT_BASE):
    """_per_unit_columns' z and s_load of the table's closed rows in id order,
    converted afresh."""
    ids, _, _, r, x, p, q, *_ = zip(*sorted(table.closed_rows()))
    return model._per_unit_columns(ids, r, x, p, q, base)


def replaced(table, k, **fields):
    """table with row k's fields replaced."""
    rows = list(table.rows)
    rows[k] = rows[k]._replace(**fields)
    return rf.RawTable(rows=tuple(rows), source_name=table.source_name)


class TestSharedImpedances:
    """A held tree also holds the per-unit impedances of the last network
    validated while it was held: a network whose resistance and reactance
    columns and z_base equal those shares them and converts only its loads,
    and every value stays what a fresh conversion gives."""

    @pytest.mark.parametrize("held,then", [(0.0, -0.0), (-0.0, 0.0)], ids=["0.0,-0.0", "-0.0,0.0"])
    def test_a_zero_impedance_keeps_its_own_sign(self, empty_memo, bus69_table, held, then):
        """0.0 == -0.0, but their per-unit values differ in sign: a column with
        a zero is not held, so a table equal to the held one under == but for
        the sign of a zero shows its own."""
        nets = [rf.validate_radial(replaced(scenario(bus69_table, f), 5, resistance=held))
                for f in (0.5, 0.8, 0.9)]
        assert model._last[2] is nets[2]._tree and nets[2]._tree.z is None
        table = replaced(scenario(bus69_table, 1.1), 5, resistance=then)
        net = rf.validate_radial(table)
        assert net._tree is nets[2]._tree
        assert repr(net.z) == repr(converted(table)[0])
        assert repr(net.z[5]) != repr(nets[2].z[5])
        assert math.copysign(1.0, net.z[5].real) == math.copysign(1.0, then)

    @pytest.mark.parametrize("change", ["base", "resistance", "reactance"])
    def test_a_changed_base_or_impedance_gets_a_fresh_z(self, empty_memo, bus69_table, change):
        held = [rf.validate_radial(scenario(bus69_table, f)) for f in (0.5, 0.8, 0.9)]
        assert model._last[2].z[1] is held[2].z
        table, base = scenario(bus69_table, 1.1), DEFAULT_BASE
        if change == "base":
            base = PerUnitBase(11.0, 1.0)
        else:
            table = replaced(table, 7, **{change: getattr(table.rows[7], change) * 1.5})
        net = rf.validate_radial(table, base=base)
        z, s_load = converted(table, base)
        assert net._tree is held[2]._tree
        assert repr(net.z) == repr(z) and repr(net.s_load) == repr(s_load)
        assert net.z != held[2].z
        # the changed columns are held now
        assert rf.validate_radial(table, base=base).z is net.z

    def test_a_base_of_equal_z_base_shares_z_and_converts_its_own_loads(self, empty_memo,
                                                                         bus69_table):
        other = PerUnitBase(2 * DEFAULT_BASE.kv_base, 4 * DEFAULT_BASE.mva_base)
        assert other.z_base == DEFAULT_BASE.z_base and other.kw_base != DEFAULT_BASE.kw_base
        held = [rf.validate_radial(scenario(bus69_table, f)) for f in (0.5, 0.8, 0.9)]
        table = scenario(bus69_table, 1.1)
        net = rf.validate_radial(table, base=other)
        assert net.z is held[2].z
        z, s_load = converted(table, other)
        assert repr(net.z) == repr(z) and repr(net.s_load) == repr(s_load)
        assert net.s_load != rf.validate_radial(table).s_load

    @pytest.mark.parametrize("defects,named", [
        (((20, "load_q"), (30, "load_p")), "branch 21: load_q"),
        (((30, "load_p"),), "branch 31: load_p"),
    ], ids=["two", "one"])
    def test_a_non_finite_load_under_a_shared_z_is_named_as_with_nothing_held(
            self, empty_memo, bus69_table, defects, named):
        """On a base of z_base 1 and kW base 2**-12 x 1000, 1e308 kW is finite
        but not in per unit: the first such field in column order is named,
        shared z or not."""
        base = PerUnitBase(2.0 ** -6, 2.0 ** -12)
        table = scenario(bus69_table, 1.1)
        for k, name in defects:
            table = replaced(table, k, **{name: 1e308})
        expected = fresh(lambda: outcome(rf.validate_radial, table, base=base))
        assert expected == (DataError, f"{named} is not finite in per unit (kv_base "
                                        f"{base.kv_base}, mva_base {base.mva_base})")
        for factor in (0.5, 0.8, 0.9):
            rf.validate_radial(scenario(bus69_table, factor), base=base)
        _, _, _, r, x, *_ = zip(*sorted(table.closed_rows()))
        assert model._last[2].z[0] == (base.z_base, r, x)
        assert outcome(rf.validate_radial, table, base=base) == expected

    def test_every_network_of_the_benchmark_scenarios_has_a_fresh_z(self, empty_memo,
                                                                     bus69_table):
        """The load scenarios of the scenarios-bus69 workload (seed 1), as
        perfbench/workloads.py draws them, validated back to back."""
        rng = random.Random("scenarios-bus69:1")
        shared = 0
        last = None
        for _ in range(256):
            f = rng.uniform(0.3, 1.3)
            table = rf.RawTable(rows=tuple(BranchRecord(*r[:5], r.load_p * f, r.load_q * f,
                                                        *r[7:]) for r in bus69_table.rows))
            net = rf.validate_radial(table)
            z, s_load = converted(table)
            assert repr(net.z) == repr(z) and repr(net.s_load) == repr(s_load)
            shared += last is not None and net.z is last.z
            last = net
        # the second network holds the tree and the third gives it its z
        assert shared == 253


def test_networks_on_a_held_tree_solve_as_networks_alone(empty_memo, bus69_table):
    """Networks sharing a held tree, and what the solver keeps on it, get
    the reports of networks solved alone."""
    nets = [rf.validate_radial(scenario(bus69_table, f)) for f in (0.5, 0.8, 1.1)]
    reports = [rf.solve(net) for net in nets]
    assert nets[1]._tree is nets[2]._tree and nets[2]._tree.counts is not None
    for factor, report in zip((0.5, 0.8, 1.1), reports):
        assert report == fresh(lambda: rf.solve(rf.validate_radial(scenario(bus69_table, factor))))


def value_types():
    """One instance of each public value type, keyed by the type's name."""
    table = rf.RawTable(rows=(BranchRecord(2, 2, 3, 0.1, 0.1, 10.0, 5.0),
                              BranchRecord(1, 1, 2, 0.1, 0.1, 10.0, 5.0)), source_name="t")
    net = rf.validate_radial(table)
    values = (
        Phasor(1.0, 2.0),
        PerUnitBase(12.66, 10.0),
        BranchRecord(1, 1, 2, 0.1, 0.2, 3.0, 4.0),
        net.branches[0],
        rf.solve(net),
        rf.SolveOptions(),
        rf.renumber_sequential(table)[1],
        net,
        table,
    )
    return {type(v).__name__: v for v in values}


VALUE_TYPES = sorted(value_types())


def fields_of(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


class TestValueSemantics:
    """Every public value type is immutable and equals only a value of its
    own type; the record types' _make and _replace run the constructor's
    checks."""

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_fields_cannot_be_assigned(self, name):
        value = value_types()[name]
        for field in (*type(value).__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_not_equal_to_the_tuple_of_its_fields(self, name):
        value = value_types()[name]
        values = fields_of(value)
        assert value != values and values != value
        assert not (value == values) and not (values == value)
        assert value == value_types()[name]

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_pickle_and_copy_rebuild_an_equal_value(self, name):
        value = value_types()[name]
        for rebuilt in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                        copy.deepcopy(value)):
            assert type(rebuilt) is type(value) and rebuilt == value

    def test_not_equal_to_a_record_of_another_type(self):
        phasor, base = Phasor(12.66, 10.0), PerUnitBase(12.66, 10.0)
        assert phasor != base and base != phasor and not (phasor == base)
        assert len({phasor, base}) == 2

    @pytest.mark.parametrize("name", ["Phasor", "PerUnitBase", "BranchRecord", "PerUnitBranch",
                                      "SolveOptions", "RawTable"])
    def test_hash_is_that_of_the_fields(self, name):
        value = value_types()[name]
        assert hash(value) == hash(fields_of(value))

    @pytest.mark.parametrize("name", ["Phasor", "PerUnitBase", "BranchRecord", "PerUnitBranch",
                                      "SolveReport", "SolveOptions", "RenumberMapping"])
    def test_replace_and_make_rebuild_an_equal_record(self, name):
        value = value_types()[name]
        assert value._replace() == value and type(value._replace()) is type(value)
        assert value._make(fields_of(value)) == value

    @pytest.mark.parametrize("value,change,error", [
        (PerUnitBase(12.66, 10.0), {"kv_base": 0.0}, DataError),
        (PerUnitBase(12.66, 10.0), {"mva_base": 1e306}, DataError),
        (BranchRecord(1, 1, 2, 0.1, 0.2, 3.0, 4.0), {"resistance": -1.0}, DataError),
        (BranchRecord(1, 1, 2, 0.1, 0.2, 3.0, 4.0), {"receiving_node": 1}, DataError),
        (BranchRecord(1, 1, 2, 0.1, 0.2, 3.0, 4.0), {"is_tie": True}, DataError),
        (rf.SolveOptions(), {"tolerance": 0.0}, ValueError),
        (rf.SolveOptions(), {"max_iterations": 0}, ValueError),
    ], ids=["kv-zero", "kw-base-overflow", "negative-resistance", "self-loop", "tie-with-load",
            "zero-tolerance", "zero-iterations"])
    def test_replace_and_make_run_the_checks(self, value, change, error):
        fields = {name: getattr(value, name) for name in type(value).__match_args__}
        fields.update(change)
        with pytest.raises(error) as built:
            type(value)(**fields)
        with pytest.raises(error) as replaced:
            value._replace(**change)
        with pytest.raises(error) as made:
            type(value)._make(fields.values())
        assert str(replaced.value) == str(made.value) == str(built.value)


def test_public_api_is_pinned():
    assert sorted(rf.__all__) == [
        "BranchRecord", "DEFAULT_BASE", "DataError", "LoadFlowError", "NetworkModel",
        "NonConvergenceError", "OrderingError", "ParseError", "PerUnitBase", "PerUnitBranch",
        "Phasor", "RawTable", "SingularityError", "SolveOptions", "SolveReport", "SolveState",
        "TopologyError", "VoltageCollapseError", "baseline_solve", "downstream_sum",
        "parse_branch_table", "power_balance", "renumber_sequential", "solve", "step_model",
        "to_per_unit", "validate_radial",
    ]
    for name in rf.__all__:
        getattr(rf, name)  # raises AttributeError for a name that does not resolve
