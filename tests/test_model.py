import cmath
import copy
import math
import pickle
import random

import pytest

import radialflow as rf
from radialflow.model import (
    DEFAULT_BASE,
    BranchRecord,
    DataError,
    NetworkModel,
    PerUnitBase,
    Phasor,
    PhasorMap,
    SingularityError,
    TopologyError,
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
    IDS = (3, 1, 7)
    VALUES = [complex(1.0, -0.5), complex(0.25, 0.0), complex(-2.0, 3.5)]

    def view(self):
        return PhasorMap({k: i for i, k in enumerate(self.IDS)}, list(self.VALUES))

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
        assert repr(self.view()) == (
            "PhasorMap({3: Phasor(re=1.0, im=-0.5), 1: Phasor(re=0.25, im=0.0), "
            "7: Phasor(re=-2.0, im=3.5)})"
        )

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

    def test_finite_fields_with_overflowing_sum_accepted(self):
        rec = BranchRecord(1, 1, 2, 1e308, 1e308, 1e308, 1e308)
        assert rec.load_q == 1e308


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
