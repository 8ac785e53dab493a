import contextlib
import copy
import functools
import math
import operator
import pickle
import random
from bisect import bisect_left
from itertools import compress

import pytest

import radialflow as rf
from conftest import (
    chain_table,
    criterion_2_tables,
    load_bus69,
    make_table,
    relabelled_tables,
    shared_net,
)
from radialflow import _kernel, model, oracle, solver
from radialflow.cli import generate_random_table
from radialflow.ingest import OrderingError, validate_radial
from radialflow.model import LoadFlowError, Phasor, SolveState
from radialflow.oracle import (
    StepCounter,
    SweepInvariantError,
    backward_sweep,
    check_convergence,
    compute_load_currents,
    compute_losses,
    downstream_sum,
    forward_sweep,
    is_leaf,
)
from radialflow.solver import (
    NonConvergenceError,
    NumericError,
    PolarMismatchError,
    SolveOptions,
    VoltageCollapseError,
    build_report,
    find_leaf_nodes,
    solve,
    step_model,
)


def run_sweeps(net, iterations=1, literal=False):
    """Run full iterations by hand and return the state."""
    state = SolveState.flat_start(net)
    leaves = find_leaf_nodes(net)
    for _ in range(iterations):
        compute_load_currents(state, net)
        backward_sweep(state, net, leaves, literal_scan=literal)
        forward_sweep(state, net)
    return state


class TestFindLeafNodes:
    def test_chain(self):
        net = validate_radial(chain_table([(10, 5), (10, 5)]))
        assert find_leaf_nodes(net) == (3,)

    def test_star(self):
        net = validate_radial(make_table([
            (1, 1, 2, 0.1, 0.1, 5, 2),
            (2, 1, 3, 0.1, 0.1, 5, 2),
            (3, 1, 4, 0.1, 0.1, 5, 2),
        ]))
        assert find_leaf_nodes(net) == (2, 3, 4)

    def test_ascending_when_branch_order_is_not(self):
        # is_leaf's binary search relies on the order
        net = validate_radial(make_table([
            (1, 1, 4, 0.1, 0.1, 5, 2),
            (2, 1, 3, 0.1, 0.1, 5, 2),
            (3, 1, 2, 0.1, 0.1, 5, 2),
        ]))
        assert [b.receiving_node for b in net.branches] == [4, 3, 2]
        assert find_leaf_nodes(net) == (2, 3, 4)

    def test_bus69_matches_sending_column_scan(self, bus69_table, bus69_net):
        closed = bus69_table.closed_rows()
        sending = {r.sending_node for r in closed}
        expected = tuple(sorted(r.receiving_node for r in closed if r.receiving_node not in sending))
        leaves = find_leaf_nodes(bus69_net)
        assert leaves == expected
        assert len(leaves) == 8

    def test_equals_empty_children_exactly(self, bus33_net):
        leaves = set(find_leaf_nodes(bus33_net))
        assert leaves == {n for n, kids in bus33_net.children.items() if not kids}

    def test_counts_steps(self, bus69_net):
        counter = StepCounter()
        find_leaf_nodes(bus69_net, counter)
        assert counter.total == 2 * bus69_net.branch_count


class TestIsLeaf:
    def test_singleton_hit_and_miss(self):
        leaves = (3,)
        assert is_leaf(leaves, 3)
        assert not is_leaf(leaves, 2)

    def test_comparison_count_bounded(self):
        leaves = (2, 5, 9, 14)
        counter = StepCounter()
        assert is_leaf(leaves, 9, counter)
        assert counter.total <= 2 * 3

    def test_comparison_count_exact_and_accumulated(self):
        leaves = (2, 5, 9, 14)
        counter = StepCounter(total=10)
        # hit: 5 (>, <), then 9 (>, < and found)
        assert is_leaf(leaves, 9, counter)
        assert counter.total == 14
        # miss: 5 (>), then 2 (>, <)
        assert not is_leaf(leaves, 3, counter)
        assert counter.total == 17


class TestLoadCurrents:
    def test_zero_load_gives_exact_zero(self):
        net = validate_radial(chain_table([(0, 0)]))
        state = SolveState.flat_start(net)
        state.node_voltage[2] = Phasor(0.83, -0.11)
        compute_load_currents(state, net)
        assert state.load_current[2] == Phasor(0.0, 0.0)

    def test_unit_voltage_unit_load(self):
        net = validate_radial(chain_table([(1000.0, 0.0)]))  # 0.1 p.u. on default base
        state = SolveState.flat_start(net)
        compute_load_currents(state, net)
        assert state.load_current[2].re == pytest.approx(0.1, rel=1e-14)
        assert state.load_current[2].im == pytest.approx(0.0, abs=1e-15)

    def test_matches_independent_complex_arithmetic(self):
        net = validate_radial(chain_table([(100.0, 50.0)]))  # 0.01 + j0.005 p.u.
        state = SolveState.flat_start(net)
        v = 0.95 * complex(math.cos(-0.02), math.sin(-0.02))
        state.node_voltage[2] = Phasor(v.real, v.imag)
        compute_load_currents(state, net)
        expected = complex(0.01, -0.005) / v.conjugate()
        got = state.load_current[2]
        assert got.re == pytest.approx(expected.real, rel=1e-12)
        assert got.im == pytest.approx(expected.imag, rel=1e-12)
        # polar form: |LI| = sqrt(P^2+Q^2)/|V|, angle = theta_v - atan(Q/P)
        assert abs(got) == pytest.approx(math.hypot(0.01, 0.005) / 0.95, rel=1e-12)
        assert got.angle == pytest.approx(-0.02 - math.atan2(0.005, 0.01), abs=1e-12)

    def test_collapsed_voltage_raises(self):
        net = validate_radial(chain_table([(100.0, 50.0)]))
        state = SolveState.flat_start(net)
        state.node_voltage[2] = Phasor(0.0, 0.0)
        with pytest.raises(VoltageCollapseError, match="node 2"):
            compute_load_currents(state, net)


class TestBackwardSweep:
    def test_all_zero_loads(self, bus69_net):
        state = SolveState.flat_start(bus69_net)
        # leave load currents at zero
        backward_sweep(state, bus69_net, find_leaf_nodes(bus69_net))
        assert all(i == Phasor(0.0, 0.0) for i in state.branch_current.values())

    def test_chain_kcl(self):
        net = validate_radial(chain_table([(100.0, 60.0), (50.0, 30.0)]))
        state = SolveState.flat_start(net)
        compute_load_currents(state, net)
        backward_sweep(state, net, find_leaf_nodes(net))
        li2, li3 = state.load_current[2], state.load_current[3]
        assert state.branch_current[2] == li3
        total = li2 + li3
        assert state.branch_current[1].re == pytest.approx(total.re, abs=1e-15)
        assert state.branch_current[1].im == pytest.approx(total.im, abs=1e-15)

    def test_bus69_flat_voltage_equals_downstream_sums(self, bus69_net):
        state = SolveState.flat_start(bus69_net)
        compute_load_currents(state, bus69_net)
        backward_sweep(state, bus69_net, find_leaf_nodes(bus69_net))
        expected = downstream_sum(bus69_net, state.load_current)
        for bid, want in expected.items():
            got = state.branch_current[bid]
            assert abs((got - want).as_complex()) < 1e-12
        total = Phasor(0.0, 0.0)
        for node in bus69_net.nodes():
            total = total + state.load_current[node]
        assert abs((state.branch_current[1] - total).as_complex()) < 1e-12

    def test_literal_scan_mode_identical(self, bus33_net):
        fast = run_sweeps(bus33_net, iterations=3, literal=False)
        literal = run_sweeps(bus33_net, iterations=3, literal=True)
        for bid in fast.branch_current:
            assert fast.branch_current[bid] == literal.branch_current[bid]
        for node in fast.node_voltage:
            assert fast.node_voltage[node] == literal.node_voltage[node]

    def test_kcl_at_every_node(self, bus69_net):
        state = run_sweeps(bus69_net, iterations=2)
        compute_load_currents(state, bus69_net)
        backward_sweep(state, bus69_net, find_leaf_nodes(bus69_net))
        for node in bus69_net.nodes():
            if node == bus69_net.root:
                continue
            into = state.branch_current[bus69_net.parent_branch[node]]
            out = state.load_current[node]
            for child in bus69_net.children[node]:
                out = out + state.branch_current[child]
            assert abs((into - out).as_complex()) < 1e-12


class TestForwardSweep:
    def test_zero_current_propagates_voltage(self):
        net = validate_radial(chain_table([(0.0, 0.0)]))
        state = SolveState.flat_start(net)
        forward_sweep(state, net)
        assert state.node_voltage[2] == Phasor(1.0, 0.0)

    def test_direct_substitution(self):
        # V_s = 1, I = 1, Z = 0.01 + j0.01 -> V_r = 0.99 - j0.01
        zb = rf.DEFAULT_BASE.z_base
        net = validate_radial(chain_table([(0.0, 0.0)], impedance=(0.01 * zb, 0.01 * zb)))
        state = SolveState.flat_start(net)
        state.branch_current[1] = Phasor(1.0, 0.0)
        forward_sweep(state, net)
        assert state.node_voltage[2].re == pytest.approx(0.99, rel=1e-12)
        assert state.node_voltage[2].im == pytest.approx(-0.01, rel=1e-12)

    def test_polar_agreement_on_fixture_iterations(self, bus33_net):
        state = SolveState.flat_start(bus33_net)
        leaves = find_leaf_nodes(bus33_net)
        for _ in range(4):
            compute_load_currents(state, bus33_net)
            backward_sweep(state, bus33_net, leaves)
            dev = forward_sweep(state, bus33_net, debug_polar=True)
            assert dev <= 1e-10


class TestCheckConvergence:
    def test_identical_arrays_converged(self):
        net = validate_radial(chain_table([(10.0, 5.0)]))
        state = SolveState.flat_start(net)
        converged, max_delta = check_convergence(state, 0.0001)
        assert converged
        assert max_delta == 0.0

    def test_single_node_over_threshold(self):
        net = validate_radial(chain_table([(10.0, 5.0)]))
        state = SolveState.flat_start(net)
        state.node_voltage[2] = Phasor(0.999, 0.0)
        converged, max_delta = check_convergence(state, 0.0001)
        assert not converged
        assert max_delta == pytest.approx(0.001, rel=1e-12)

    def test_bus69_first_iteration_not_converged(self, bus69_net):
        state = run_sweeps(bus69_net, iterations=1)
        converged, max_delta = check_convergence(state, 0.0001)
        assert not converged
        assert max_delta > 0.0001


class TestComputeLosses:
    def test_zero_current_zero_loss(self):
        net = validate_radial(chain_table([(0.0, 0.0)]))
        state = SolveState.flat_start(net)
        rows, total_p, total_q = compute_losses(state, net)
        assert rows == [(1, 0.0, 0.0)]
        assert total_p == total_q == 0.0

    def test_direct_substitution(self):
        # |I| = 2 p.u., Z = 0.5 + j0.25 p.u. -> LP = 2.0, LQ = 1.0 p.u.
        zb = rf.DEFAULT_BASE.z_base
        net = validate_radial(chain_table([(0.0, 0.0)], impedance=(0.5 * zb, 0.25 * zb)))
        state = SolveState.flat_start(net)
        state.branch_current[1] = Phasor(2.0, 0.0)
        rows, total_p, total_q = compute_losses(state, net)
        to_kw = rf.DEFAULT_BASE.mva_base * 1000.0
        assert rows[0][1] == pytest.approx(2.0 * to_kw, rel=1e-12)
        assert rows[0][2] == pytest.approx(1.0 * to_kw, rel=1e-12)
        assert total_p == rows[0][1] and total_q == rows[0][2]


class TestSolve:
    def test_two_node_zero_load(self):
        net = validate_radial(chain_table([(0.0, 0.0)]))
        report = solve(net)
        assert report.converged
        assert report.iterations == 1
        assert report.node_voltages == ((1, 1.0, 0.0), (2, 1.0, 0.0))
        assert report.total_loss_p == 0.0 and report.total_loss_q == 0.0

    def test_report_totals_equal_row_sums(self, bus69_report):
        # added left to right, as the solver does; from Python 3.12 on sum()
        # compensates the rounding of float additions, so it may differ
        rows = bus69_report.branch_losses
        added = functools.partial(functools.reduce, operator.add)
        assert bus69_report.total_loss_p == added(lp for _, lp, _ in rows)
        assert bus69_report.total_loss_q == added(lq for _, _, lq in rows)

    def test_unordered_network_rejected(self):
        table = make_table([
            (1, 2, 3, 0.1, 0.1, 10, 5),
            (2, 1, 2, 0.1, 0.1, 10, 5),
        ])
        net = validate_radial(table, require_ordered=False)
        with pytest.raises(OrderingError, match="^branch 1 precedes the branch feeding"):
            solve(net)

    @pytest.mark.parametrize("field,message", [
        ({"tolerance": 0.0}, "tolerance must be positive"),
        ({"max_iterations": 0}, "max_iterations must be at least 1"),
    ], ids=["zero-tolerance", "zero-iterations"])
    def test_invalid_options_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            SolveOptions(**field)

    @pytest.mark.parametrize("field,message", [
        ({"tolerance": math.inf}, "tolerance must be finite"),
        ({"max_iterations": 2.5}, "max_iterations must be an integer"),
        ({"max_iterations": 3.0}, "max_iterations must be an integer"),
        ({"max_iterations": True}, "max_iterations must be an integer"),
        ({"max_iterations": "3"}, "max_iterations must be an integer"),
        ({"tolerance": True}, "tolerance must be a real number"),
        ({"tolerance": "0.1"}, "tolerance must be a real number"),
        ({"tolerance": 1j}, "tolerance must be a real number"),
        ({"debug_polar": 0.0}, "debug_polar must be a bool"),
        ({"debug_polar": None}, "debug_polar must be a bool"),
        ({"literal_scan": "no"}, "literal_scan must be a bool"),
        ({"literal_scan": 1}, "literal_scan must be a bool"),
    ], ids=["infinite-tolerance", "fractional-iterations", "float-iterations",
            "bool-iterations", "text-iterations", "bool-tolerance", "text-tolerance",
            "complex-tolerance", "float-debug-polar", "none-debug-polar", "text-literal-scan",
            "int-literal-scan"])
    def test_unusable_options_rejected_on_every_path(self, field, message):
        """A limit that is not an int would end a solve in range's TypeError,
        and an infinite tolerance would count the first pass as converged. A
        bool tolerance would read as 0 or 1 and text would end the first
        convergence test in a TypeError; a flag that is not a bool would be
        read by its truth (the text "no" as on)."""
        (name, value), = field.items()
        defaults = SolveOptions()
        position = SolveOptions.__match_args__.index(name)
        values = list(defaults)
        values[position] = value
        for build in (lambda: SolveOptions(**field), lambda: SolveOptions(*values),
                      lambda: SolveOptions._make(values), lambda: defaults._replace(**field)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_non_convergence_reported(self):
        # absurd load so the sweep oscillates or collapses instead of settling
        net = validate_radial(chain_table([(80000.0, 60000.0)], impedance=(8.0, 4.0)))
        with pytest.raises((NonConvergenceError, VoltageCollapseError)):
            solve(net, SolveOptions(max_iterations=50))

    def test_fixed_point_extra_iteration(self, bus69_net, bus69_report):
        state = SolveState(
            node_voltage=dict(bus69_report.final_voltage),
            load_current=dict(bus69_report.final_load_current),
            branch_current=dict(bus69_report.final_branch_current),
            prev_voltage_mag={
                n: p.magnitude for n, p in bus69_report.final_voltage.items()
            },
        )
        leaves = find_leaf_nodes(bus69_net)
        compute_load_currents(state, bus69_net)
        backward_sweep(state, bus69_net, leaves)
        forward_sweep(state, bus69_net)
        converged, max_delta = check_convergence(state, 0.0001)
        assert converged
        assert max_delta <= 0.0001

    def test_voltage_monotone_along_feeder(self, bus69_net, bus69_report):
        for b in bus69_net.branches:
            vs = bus69_report.voltage_magnitude(b.sending_node)
            vr = bus69_report.voltage_magnitude(b.receiving_node)
            assert vr <= vs + 1e-9

    def test_debug_polar_full_solve(self, bus69_net):
        report = solve(bus69_net, SolveOptions(debug_polar=True))
        assert report.max_polar_deviation is not None
        assert report.max_polar_deviation <= 1e-10


class TestReportLayout:
    def test_solve_constructs_no_phasor(self, bus69_net, monkeypatch):
        made = []
        new = Phasor.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Phasor, "__new__", counting_new)
        report = solve(bus69_net)
        assert made == []
        assert report.voltage_magnitude(65) < 1.0  # a view makes a Phasor when read
        assert len(made) == 1

    def test_solve_runs_no_leaf_search(self, bus69_net, monkeypatch):
        """solve counts find_leaf_nodes' two scans and takes the leaves from
        the topology's childless nodes, without calling it."""
        expected = solve(bus69_net)

        def refuse(*args):
            raise AssertionError("solve called find_leaf_nodes")

        monkeypatch.setattr(solver, "find_leaf_nodes", refuse)
        report = solve(bus69_net)
        assert report == expected
        assert (report.leaf_count, report.pre_loop_steps) == (8, 2 * 68)

    def test_solve_builds_no_row_and_a_read_builds_each_once(self, bus69_net, monkeypatch):
        """The node and branch rows are views: solve builds none, and reading
        a view builds each row it reads once."""
        built = {"_voltage_row": [], "_current_row": [], "_loss_row": []}
        for name, calls in built.items():
            def counting(sources, k, row=getattr(solver, name), calls=calls):
                calls.append(k)
                return row(sources, k)
            monkeypatch.setattr(solver, name, counting)
        report = solve(bus69_net)
        assert built == {"_voltage_row": [], "_current_row": [], "_loss_row": []}
        assert not isinstance(report.node_voltages, tuple)
        rows = [tuple(report.node_voltages), list(report.branch_currents),
                report.branch_losses[:]]
        assert built == {"_voltage_row": list(range(69)), "_current_row": list(range(68)),
                         "_loss_row": list(range(68))}
        assert report.node_voltages[-1] == rows[0][-1] and built["_voltage_row"][-1] == -1
        assert rows == [tuple(report.node_voltages), list(report.branch_currents),
                        tuple(report.branch_losses)]

    def test_pickled_report_holds_tuples(self, bus33_net):
        report = solve(bus33_net)
        for again in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert again == report and report == again
            for name in ("node_voltages", "branch_currents", "branch_losses"):
                assert type(getattr(again, name)) is tuple
                assert getattr(again, name) == getattr(report, name)
            assert repr(again) == repr(report)

    def test_both_solvers_return_views_equal_to_their_rows(self, bus33_net):
        reports = (solve(bus33_net), rf.baseline_solve(bus33_net))
        for name in ("final_voltage", "final_load_current", "final_branch_current"):
            ours, theirs = (getattr(r, name) for r in reports)
            assert all(abs((p - theirs[k]).as_complex()) < 1e-12 for k, p in ours.items())
        for report in reports:
            assert list(report.final_voltage) == list(bus33_net.nodes())
            assert list(report.final_load_current) == list(bus33_net.nodes())
            assert list(report.final_branch_current) == [b.branch_id for b in bus33_net.branches]
            assert report.node_voltages == tuple(
                (n, p.magnitude, p.angle_degrees) for n, p in report.final_voltage.items()
            )
            assert report.branch_currents == tuple(
                (bid, p.magnitude) for bid, p in report.final_branch_current.items()
            )
            state = SolveState(dict(report.final_voltage), dict(report.final_load_current),
                               dict(report.final_branch_current), {})
            rows, total_p, total_q = compute_losses(state, bus33_net)
            assert report.branch_losses == tuple(rows)
            assert (report.total_loss_p, report.total_loss_q) == (total_p, total_q)


class TestBuildReport:
    def test_rows_equal_phasor_views(self):
        net = validate_radial(chain_table([(10.0, 5.0), (20.0, 8.0)]))
        # -pi angles (negative real part, -0.0 imaginary part) must read +180
        volts = [complex(1.0, 0.0), complex(-1.0, -0.0), complex(0.3, -0.7)]
        loads = [0j, complex(0.1, -0.2), complex(-0.4, 0.0)]
        branches = [complex(-2.5, -0.0), complex(1e-3, 4e-4)]
        report = build_report(
            net, volts, loads, branches,
            iterations=1, step_count_proposed=0, step_count_baseline=0, leaf_count=1,
            pre_loop_steps=0, per_iteration_steps=(0,), delta_history=(0.0,),
            max_polar_deviation=None,
        )
        phasors = [Phasor.from_complex(c) for c in volts]
        assert report.node_voltages == tuple(
            (n, p.magnitude, p.angle_degrees) for n, p in zip(net.nodes(), phasors)
        )
        assert report.node_voltages[1][2] == 180.0
        assert report.branch_currents == tuple(
            (b.branch_id, abs(Phasor.from_complex(c))) for b, c in zip(net.branches, branches)
        )
        assert report.final_load_current == {
            n: Phasor.from_complex(c) for n, c in zip(net.nodes(), loads)
        }
        state = SolveState(report.final_voltage, report.final_load_current,
                           report.final_branch_current, {})
        rows, total_p, total_q = compute_losses(state, net)
        assert report.branch_losses == tuple(rows)
        assert (report.total_loss_p, report.total_loss_q) == (total_p, total_q)


class TestStepModel:
    def test_smallest_case(self):
        assert step_model(2, 1, 1) == (18, 22)

    def test_proposed_never_worse(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(2, 500)
            m = rng.randint(1, n - 1)
            r = rng.randint(1, 20)
            proposed, baseline = step_model(n, m, r)
            assert proposed < baseline

    @pytest.mark.parametrize("n,m,r", [(1, 1, 1), (3, 0, 1), (3, 3, 1), (3, 1, 0)])
    def test_invalid_arguments(self, n, m, r):
        with pytest.raises(ValueError):
            step_model(n, m, r)


class TestStepCounting:
    def test_counters_monotone_and_consistent(self, bus33_net):
        report = solve(bus33_net, SolveOptions(literal_scan=True))
        assert report.step_count_proposed == report.pre_loop_steps + sum(report.per_iteration_steps)
        assert all(t > 0 for t in report.per_iteration_steps)

    def test_random_trees_proposed_cheaper_per_iteration(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randint(3, 40)
            table = generate_random_table(n, rng.uniform(0.1, 0.8), rng)
            net = validate_radial(table)
            opts = SolveOptions(literal_scan=True)
            rep = solve(net, opts)
            base = rf.baseline_solve(net, opts)
            for p_steps, b_steps in zip(rep.per_iteration_steps, base.per_iteration_steps):
                assert p_steps <= b_steps

    def test_leaf_search_steps_cover_every_outcome(self, bus69_net):
        """Each of the 2L + 1 ends of is_leaf's search, a leaf or a gap around
        one, has the count is_leaf makes for it."""
        leaves = find_leaf_nodes(bus69_net)
        found, missed = solver._leaf_search_steps(len(leaves))
        for node in sorted({x + d for x in leaves for d in (-0.5, 0, 0.5)}):
            counter = StepCounter()
            hit = is_leaf(leaves, node, counter)
            i = bisect_left(leaves, node)
            assert counter.total == (found[i] if hit else missed[i])
        assert solver._leaf_search_steps(0) == ([], [0])

    @pytest.mark.parametrize("literal", [False, True])
    def test_leaf_search_totals_equal_counted_is_leaf(self, bus69_net, bus33_net, literal):
        """solve counts each branch's leaf search by lookup; the reference is
        a loop of counted is_leaf calls plus the documented closed form."""
        nets = [bus69_net, bus33_net, *map(validate_radial, criterion_2_tables())]
        assert len(nets) == 202
        for net in nets:
            leaves = find_leaf_nodes(net)
            counter = StepCounter()
            for b in net.branches:
                is_leaf(leaves, b.receiving_node, counter)
            n, m = net.node_count, net.branch_count
            expected = counter.total + 2 * n + m + 4 * m - 3 * len(net.children[net.root])
            if literal:
                expected += m * (m - len(leaves))
            report = solve(net, SolveOptions(literal_scan=literal))
            assert report.per_iteration_steps == (expected,) * report.iterations


def phase_function_solve(net, options):
    """solve's iteration written with the dict phase functions, counting every
    step as it goes. Returns (state, pre-loop steps, steps per iteration,
    total steps, iterations, delta history, worst polar deviation)."""
    state = SolveState.flat_start(net)
    counter = StepCounter()
    leaves = find_leaf_nodes(net, counter)
    pre_loop = counter.total
    per_iteration = []
    deltas = []
    worst_polar = 0.0
    for iterations in range(1, options.max_iterations + 1):
        start = counter.total
        compute_load_currents(state, net, counter)
        backward_sweep(state, net, leaves, counter, literal_scan=options.literal_scan)
        dev = forward_sweep(state, net, counter, debug_polar=options.debug_polar)
        worst_polar = max(worst_polar, dev)
        converged, max_delta = check_convergence(state, options.tolerance, counter)
        per_iteration.append(counter.total - start)
        deltas.append(max_delta)
        if converged:
            return state, pre_loop, per_iteration, counter.total, iterations, deltas, worst_polar
    raise NonConvergenceError(iterations, max_delta)


@pytest.fixture(scope="module")
def negative_zero_leaf_net():
    """A leaf whose load current has a -0.0 part: solve adds it to a 0j
    accumulator and gets +0.0 there, which equals the phase functions'
    copied -0.0 under ==."""
    return shared_net(validate_radial(make_table([
        (1, 1, 2, 0.1, 0.1, 0.0, 0.0),
        (2, 2, 3, 0.1, 0.1, -0.0, -1e-6),
    ])))


@pytest.fixture(scope="module")
def relabelled_net():
    """An ordered tree whose node ids are not its branch ids + 1, so a node's
    load is found only through the branch that feeds it."""
    return shared_net(validate_radial(max(relabelled_tables(), key=lambda t: len(t.rows))))


def assert_solve_matches_phase_functions(net, options):
    report = solve(net, options)
    state, pre_loop, per_iteration, total, iterations, deltas, worst_polar = (
        phase_function_solve(net, options)
    )
    assert report.final_voltage == state.node_voltage
    assert report.final_load_current == state.load_current
    assert report.final_branch_current == state.branch_current
    assert report.node_voltages == tuple(
        (n, state.node_voltage[n].magnitude, state.node_voltage[n].angle_degrees)
        for n in net.nodes()
    )
    assert report.branch_currents == tuple(
        (b.branch_id, abs(state.branch_current[b.branch_id])) for b in net.branches
    )
    assert report.delta_history == tuple(deltas)
    assert report.iterations == iterations
    assert report.pre_loop_steps == pre_loop
    assert report.leaf_count == len(find_leaf_nodes(net))
    assert report.per_iteration_steps == tuple(per_iteration)
    assert report.step_count_proposed == total
    assert report.max_polar_deviation == (worst_polar if options.debug_polar else None)


def assert_non_finite_voltage_named(net, kind):
    """The first pass gives branch 1's receiving node a finite magnitude and
    branch 2's one for which kind (math.isinf or math.isnan) holds; solve
    names branch 2, as the reference phase functions do."""
    state = SolveState.flat_start(net)
    compute_load_currents(state, net)
    backward_sweep(state, net, find_leaf_nodes(net))
    first, second = [
        (state.node_voltage[b.sending_node] - state.branch_current[b.branch_id] * b.z).magnitude
        for b in net.branches[:2]
    ]
    assert math.isfinite(first) and kind(second)
    with pytest.raises(NumericError) as flat:
        solve(net)
    with pytest.raises(NumericError) as reference:
        phase_function_solve(net, SolveOptions())
    assert str(flat.value) == str(reference.value) == "non-finite voltage on branch 2"


class TestFlatSolveMatchesPhaseFunctions:
    """solve runs on flat lists; the dict phase functions are the
    reference it must reproduce exactly, step counts included."""

    @pytest.mark.parametrize("options", [
        SolveOptions(),
        SolveOptions(literal_scan=True),
        SolveOptions(debug_polar=True),
        SolveOptions(debug_polar=True, literal_scan=True),
    ], ids=["default", "literal_scan", "debug_polar", "both"])
    @pytest.mark.parametrize("fixture", ["bus69_net", "bus33_net", "negative_zero_leaf_net",
                                         "relabelled_net"])
    def test_fixtures(self, request, fixture, options):
        assert_solve_matches_phase_functions(request.getfixturevalue(fixture), options)

    @pytest.mark.parametrize("literal", [False, True])
    def test_criterion_2_random_trees(self, literal):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(2, 30)
            net = validate_radial(generate_random_table(n, rng.uniform(0.05, 0.95), rng))
            assert_solve_matches_phase_functions(net, SolveOptions(literal_scan=literal))

    @pytest.mark.parametrize("literal", [False, True])
    def test_baseline_step_count_matches_oracle(self, bus69_net, bus33_net, literal):
        """solve derives the baseline's count from the topology; baseline_solve
        counts it step by step while it runs."""
        options = SolveOptions(literal_scan=literal)
        rng = random.Random(2024)
        nets = [bus69_net, bus33_net]
        for _ in range(200):
            n = rng.randint(2, 30)
            nets.append(validate_radial(generate_random_table(n, rng.uniform(0.05, 0.95), rng)))
        for net in nets:
            report = solve(net, options)
            base = rf.baseline_solve(net, options)
            assert report.iterations == base.iterations
            assert report.step_count_baseline == base.step_count_baseline

    def test_non_convergence_carries_last_delta(self, bus69_net):
        options = SolveOptions(max_iterations=2)
        with pytest.raises(NonConvergenceError) as flat:
            solve(bus69_net, options)
        with pytest.raises(NonConvergenceError) as reference:
            phase_function_solve(bus69_net, options)
        with pytest.raises(NonConvergenceError) as baseline:
            rf.baseline_solve(bus69_net, options)
        assert flat.value.iterations == reference.value.iterations == baseline.value.iterations == 2
        assert flat.value.max_delta == reference.value.max_delta == baseline.value.max_delta

    def test_polar_deviation_beyond_the_tolerance_is_refused(self):
        """A receiving voltage moved 1e-12 off the rectangular result passes;
        moved 1e-8, between POLAR_AGREEMENT_TOL and 1e-6, it is refused."""
        vs, i_br, z = Phasor(1.0, 0.0), Phasor(0.5, -0.2), Phasor(0.1, 0.05)
        vr = vs - i_br * z
        assert solver._polar_deviation(vs, i_br, z, Phasor(vr.re + 1e-12, vr.im), 7) < 1e-10
        with pytest.raises(PolarMismatchError) as exc:
            solver._polar_deviation(vs, i_br, z, Phasor(vr.re + 1e-8, vr.im), 7)
        assert str(exc.value) == "branch 7: polar form deviates by 1.000e-08"

    def test_polar_mismatch_names_the_first_branch(self, bus33_net, monkeypatch):
        """A tolerance below 0 fails every branch, so both sweeps name branch 1."""
        monkeypatch.setattr(oracle, "POLAR_AGREEMENT_TOL", -1.0)
        options = SolveOptions(debug_polar=True)
        with pytest.raises(PolarMismatchError, match="^branch 1: ") as flat:
            solve(bus33_net, options)
        with pytest.raises(PolarMismatchError) as reference:
            phase_function_solve(bus33_net, options)
        assert str(flat.value) == str(reference.value)

    def test_non_finite_voltage_comes_before_polar_mismatch(self, monkeypatch):
        """solve checks a pass in polar form after its forward loop, so a
        non-finite voltage at branch 2 is raised before branch 1's mismatch."""
        monkeypatch.setattr(oracle, "POLAR_AGREEMENT_TOL", -1.0)
        net = validate_radial(make_table([
            (1, 1, 2, 0.1, 0.1, 0.0, 0.0),
            (2, 2, 3, 1e300, 0.0, 1e15, 0.0),
        ]))
        with pytest.raises(NumericError, match="^non-finite voltage on branch 2$"):
            solve(net, SolveOptions(debug_polar=True))

    def test_non_finite_voltage_names_the_same_branch(self):
        # 1e11 p.u. through 6e298 p.u. of resistance: -inf + 0j at node 3
        net = validate_radial(make_table([
            (1, 1, 2, 0.1, 0.1, 0.0, 0.0),
            (2, 2, 3, 1e300, 0.0, 1e15, 0.0),
        ]))
        assert_non_finite_voltage_named(net, math.isinf)

    def test_nan_voltage_names_the_same_branch(self):
        """A NaN magnitude, which no delta is within, is raised as an
        infinite one is. Two 1e308 p.u. loads below node 3 sum to an
        infinite current in branch 2, whose zero impedance turns it into
        NaN + NaNj; branch 1, which the root also feeds, stays finite."""
        net = validate_radial(make_table([
            (1, 1, 2, 0.1, 0.1, 10.0, 5.0),
            (2, 1, 3, 0.0, 0.0, 0.0, 0.0),
            (3, 3, 4, 0.1, 0.1, 1e308, 0.0),
            (4, 3, 5, 0.1, 0.1, 1e308, 0.0),
        ]), base=rf.PerUnitBase(12.66, 0.001))
        assert_non_finite_voltage_named(net, math.isnan)

    def test_a_nan_part_names_the_same_branch(self):
        """The infinite current of the case above through a purely reactive
        branch 2 gives node 3 NaN - infj, whose magnitude is inf; nodes 4 and
        5 below it follow. solve names branch 2, the first in branch order."""
        net = validate_radial(make_table([
            (1, 1, 2, 0.1, 0.1, 10.0, 5.0),
            (2, 1, 3, 0.0, 0.1, 0.0, 0.0),
            (3, 3, 4, 0.1, 0.1, 1e308, 0.0),
            (4, 3, 5, 0.1, 0.1, 1e308, 0.0),
        ]), base=rf.PerUnitBase(12.66, 0.001))
        state = SolveState.flat_start(net)
        compute_load_currents(state, net)
        backward_sweep(state, net, find_leaf_nodes(net))
        b = net.branches[1]
        vr = state.node_voltage[b.sending_node] - state.branch_current[b.branch_id] * b.z
        assert math.isnan(vr.re) and math.isinf(vr.im)
        assert_non_finite_voltage_named(net, math.isinf)

    @pytest.mark.parametrize("max_iterations", [1, 100])
    def test_magnitudes_whose_sum_overflows_do_not_raise(self, max_iterations):
        """1e156 p.u. of load through 1e152 p.u. of resistance on each of
        two root-fed branches puts nodes 2 and 3 near -1e308 + 0j: every part
        and magnitude is finite, but their sum is not. solve finds no
        non-finite voltage and goes on, to the reference's non-convergence."""
        net = validate_radial(make_table([
            (1, 1, 2, 1.6e153, 0.0, 1e160, 0.0),
            (2, 1, 3, 1.6e153, 0.0, 1e160, 0.0),
        ]))
        state = SolveState.flat_start(net)
        compute_load_currents(state, net)
        backward_sweep(state, net, find_leaf_nodes(net))
        forward_sweep(state, net)
        mags = [p.magnitude for p in state.node_voltage.values()]
        assert all(map(math.isfinite, mags)) and sum(mags) == math.inf
        options = SolveOptions(max_iterations=max_iterations)
        with pytest.raises(NonConvergenceError) as flat:
            solve(net, options)
        with pytest.raises(NonConvergenceError) as reference:
            phase_function_solve(net, options)
        assert str(flat.value) == str(reference.value)
        if max_iterations == 1:
            assert str(flat.value) == "no convergence after 1 iterations (max delta 9.983e+307)"

    def test_an_infinite_magnitude_from_finite_parts_never_converges(self, bus33_net,
                                                                     monkeypatch):
        """A magnitude can overflow although both parts are finite. Its delta
        is then inf, or NaN when the previous magnitude was inf too, and
        check_convergence counts neither as within the tolerance. With
        every magnitude read as inf, each pass after the first has no finite
        delta: solve, as the reference, never converges."""
        monkeypatch.setattr(math, "hypot", lambda *parts: math.inf)
        options = SolveOptions(max_iterations=3)
        with pytest.raises(NonConvergenceError) as flat:
            solve(bus33_net, options)
        with pytest.raises(NonConvergenceError) as reference:
            phase_function_solve(bus33_net, options)
        assert str(flat.value) == str(reference.value)
        assert flat.value.max_delta == reference.value.max_delta == 0.0

    @pytest.mark.parametrize("rows,named", [
        ([(1, 1, 2, 0.0, 0.0, 1e200, 0.0)], 1),
        # root-fed branches 1 and 2: only branch 2's current overflows when squared
        ([(1, 1, 2, 0.0, 0.0, 10.0, 5.0), (2, 1, 3, 0.0, 0.0, 1e200, 0.0),
          (3, 3, 4, 0.0, 0.0, 1e200, 0.0)], 2),
    ], ids=["one-branch", "second-branch"])
    def test_a_squared_current_that_overflows_names_the_first_branch(self, rows, named):
        """Through zero impedance the sweep converges at a current of 1e196
        p.u. or more, whose square a float cannot hold: solve and
        baseline_solve raise NumericError naming the first such branch in
        column order, not a bare OverflowError."""
        net = validate_radial(make_table(rows))
        for run in (solve, rf.baseline_solve):
            with pytest.raises(NumericError, match=f"^squared current overflows on branch "
                                                   f"{named} \\(\\|I\\| = [0-9.e+]+ p\\.u\\.\\)$"):
                run(net)

    def test_a_loss_total_that_overflows_names_the_branch_it_overflows_at(self):
        """Each of 20 root-fed branches loses about 1.27e307 kW on a 1e151 MVA
        base, which a float holds, but the running kW total does not from
        branch 15 on: solve and baseline_solve raise NumericError naming it,
        rather than report an infinite total."""
        rows = [(k, 1, k + 1, 1.6e-304, 0.0, 1e308, 0.0) for k in range(1, 21)]
        net = validate_radial(make_table(rows), base=rf.PerUnitBase(12.66, 1e151))
        for run in (solve, rf.baseline_solve):
            with pytest.raises(NumericError, match="^total loss overflows on branch 15$"):
                run(net)
        fourteen = validate_radial(make_table(rows[:14]), base=rf.PerUnitBase(12.66, 1e151))
        assert 1.7e308 < solve(fourteen).total_loss_p < math.inf

    def test_collapse_names_the_node(self):
        for rows, node in (
            # 1 p.u. load through 1 p.u. resistance: the first sweep drives V2 to 0
            ([(1, 1, 2, rf.DEFAULT_BASE.z_base, 0.0, 10000.0, 0.0)], 2),
            # nodes 5 and 3 reach 0j in one pass; branch order meets node 5
            # first, node order node 3, which the oracle names
            ([(1, 1, 5, 16.02756, 0.0, 5000.0, 0.0), (2, 5, 3, 0.0, 0.0, 5000.0, 0.0)], 3),
        ):
            net = validate_radial(make_table(rows))
            for run in (solve, rf.baseline_solve):
                with pytest.raises(VoltageCollapseError,
                                   match=f"^zero voltage at loaded node {node}$"):
                    run(net)

    def test_misordered_network_fails_the_sweep_invariant(self):
        """solve refuses the network the model marks unordered; the reference
        backward_sweep, run on it anyway, trips its own invariant."""
        table = make_table([
            (1, 2, 3, 0.1, 0.1, 10, 5),
            (2, 1, 2, 0.1, 0.1, 10, 5),
        ])
        net = validate_radial(table, require_ordered=False)
        with pytest.raises(OrderingError, match="^branch 1 precedes the branch feeding"):
            solve(net)
        state = SolveState.flat_start(net)
        compute_load_currents(state, net)
        with pytest.raises(SweepInvariantError, match="branch 1 consumed"):
            backward_sweep(state, net, find_leaf_nodes(net))


def loaded_positions(net):
    """The node positions of the loads, in branch order, as _sweep takes them."""
    return list(compress(net._tree.recv, net.s_load))


def generated_sweep(net, options):
    """What the pass loop generated for net's tree and loaded nodes returns."""
    sweep = _kernel.generated_sweep(net._tree, loaded_positions(net))
    return sweep([s.conjugate() for s in net.s_load if s], net.z, options.max_iterations,
                 options.tolerance)


@contextlib.contextmanager
def generic_loop_only(net, monkeypatch):
    """Within, _sweep runs its generic loop on net: the tree's generated
    loop is set aside and the pass threshold out of reach."""
    with monkeypatch.context() as m:
        m.setattr(net._tree, "kernel", None)
        m.setattr(solver, "_KERNEL_PASSES", math.inf)
        yield


def generic_sweep(net, options, monkeypatch):
    """What _sweep returns from its generic loop."""
    with generic_loop_only(net, monkeypatch):
        return solver._sweep(net, options)


def install_generated_sweep(net, monkeypatch):
    """Give net's tree its generated loop, wrapped to record each call;
    returns the list of calls."""
    calls = []
    sweep = _kernel.generated_sweep(net._tree, loaded_positions(net))

    def recorded(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(net._tree, "kernel", (loaded_positions(net), recorded))
    return calls


class TestEachTestStartsWithTheSharedTreesUnswept:
    """conftest's unswept_trees: a test that sweeps a session network's
    tree until it gets its generated loop leaves the next test that tree
    unswept, and nothing held, so which loop a test's solves run does not
    depend on the tests before it."""

    def test_a_test_sweeps_bus69_until_its_tree_has_a_loop(self, bus69_net):
        tree = bus69_net._tree
        assert (tree.swept, tree.kernel, model._last) == (0, None, (None, None, None))
        while tree.kernel is None:
            solve(bus69_net)
        assert tree.swept >= solver._KERNEL_PASSES

    def test_the_next_test_gets_the_tree_unswept(self, bus69_net):
        tree = bus69_net._tree
        assert (tree.swept, tree.kernel, model._last) == (0, None, (None, None, None))


class TestGeneratedSweep:
    """A tree the generic loop has swept _KERNEL_PASSES passes runs a pass
    loop generated for it, which gives what the generic loop gives to the
    last bit, or None, after which the generic loop runs and raises."""

    @pytest.mark.parametrize("tolerance", [1e-4, 1e-8])
    def test_equals_the_generic_loop(self, bus69_net, bus33_net, monkeypatch, tolerance):
        """The iteration count, the deltas and the repr of every voltage,
        load current and branch current, so the sign of every zero too."""
        options = SolveOptions(tolerance)
        # the root, node 5, is the last node position
        rooted_last = validate_radial(make_table([
            (1, 5, 1, 0.1, 0.1, 10, 5), (2, 1, 2, 0.1, 0.1, 10, 5), (3, 5, 3, 0.1, 0.1, 0, 0),
            (4, 3, 4, 0.1, 0.1, 3, 1)]), root=5)
        nets = [bus69_net, bus33_net, rooted_last, *map(validate_radial, criterion_2_tables()),
                *map(validate_radial, relabelled_tables())]
        for net in nets:
            assert repr(generated_sweep(net, options)) == repr(
                generic_sweep(net, options, monkeypatch))

    def test_a_leaf_current_with_a_negative_zero_part_is_added_to_0j(self, monkeypatch):
        """Node 3's load current is (-0+0.0005j). Branch 2, a leaf's, carries
        0j plus that, 0.0005j, as in the generic loop; copied, it would
        read (-0+0.0005j). One pass converges at this tolerance."""
        net = validate_radial(make_table([(1, 1, 2, 0.1, 0.1, 10, 5),
                                          (2, 2, 3, 0.1, 0.1, -0.0, -5)]))
        options = SolveOptions(tolerance=1.0)
        result = generated_sweep(net, options)
        iterations, _, _, _, load_currents, branch_currents = result
        assert iterations == 1
        assert repr(load_currents[2]) == "(-0+0.0005j)"
        assert repr(branch_currents[1]) == "0.0005j"
        assert repr(result) == repr(generic_sweep(net, options, monkeypatch))

    def test_other_loaded_nodes_run_the_generic_loop(self, monkeypatch):
        """A network on the same tree with one load zeroed has other loaded
        nodes than the generated loop was made for, so _sweep runs the
        generic loop for it, and the generated one for the network it was
        made for."""
        table = load_bus69()
        k = next(k for k, r in enumerate(table.rows) if r.load_p and not r.is_tie)
        zeroed = rf.RawTable(rows=tuple(r._replace(load_p=0.0, load_q=0.0) if j == k else r
                                        for j, r in enumerate(table.rows)), source_name="zeroed")
        validate_radial(table)
        net = validate_radial(table)
        other = validate_radial(zeroed)
        assert other._tree is net._tree and loaded_positions(other) != loaded_positions(net)
        calls = install_generated_sweep(net, monkeypatch)
        report = solve(other)
        assert calls == []
        with generic_loop_only(other, monkeypatch):
            assert solve(other) == report
        solve(net)
        assert len(calls) == 1

    @pytest.mark.parametrize("rows,options,error,text", [
        ([(1, 1, 2, rf.DEFAULT_BASE.z_base, 0.0, 10000.0, 0.0)], SolveOptions(),
         VoltageCollapseError, "zero voltage at loaded node 2"),
        # loads drawn at node positions [2, 1]: named in node order
        ([(1, 1, 5, 16.02756, 0.0, 5000.0, 0.0), (2, 5, 3, 0.0, 0.0, 5000.0, 0.0)],
         SolveOptions(), VoltageCollapseError, "zero voltage at loaded node 3"),
        ([(1, 1, 2, 1e300, 1e300, 1e300, 1e300)], SolveOptions(), NumericError,
         "non-finite voltage on branch 1"),
        # finite magnitudes whose sum is not: the generic loop goes on
        ([(1, 1, 2, 1.6e153, 0.0, 1e160, 0.0), (2, 1, 3, 1.6e153, 0.0, 1e160, 0.0)],
         SolveOptions(), NonConvergenceError,
         "no convergence after 100 iterations (max delta 1.997e+306)"),
        (None, SolveOptions(max_iterations=1), NonConvergenceError,
         "no convergence after 1 iterations (max delta 8.297e-02)"),
    ], ids=["zero-voltage", "zero-voltage-node-order", "non-finite", "sum-overflow",
            "max-iterations"])
    def test_a_failing_solve_raises_the_generic_loops_error(self, monkeypatch, rows, options,
                                                            error, text):
        net = validate_radial(load_bus69() if rows is None else make_table(rows))
        assert generated_sweep(net, options) is None
        with pytest.raises(LoadFlowError) as generic:
            generic_sweep(net, options, monkeypatch)
        calls = install_generated_sweep(net, monkeypatch)
        with pytest.raises(LoadFlowError) as generated:
            solve(net, options)
        assert len(calls) == 1
        for exc in (generic.value, generated.value):
            assert (type(exc), str(exc)) == (error, text)

    def test_debug_polar_runs_the_generic_loop(self, bus33_net, monkeypatch):
        with generic_loop_only(bus33_net, monkeypatch):
            reference = solve(bus33_net, SolveOptions(debug_polar=True))
        calls = install_generated_sweep(bus33_net, monkeypatch)
        report = solve(bus33_net, SolveOptions(debug_polar=True))
        assert calls == []
        assert report.max_polar_deviation == reference.max_polar_deviation > 0.0
        assert report == reference
        solve(bus33_net)
        assert len(calls) == 1

    def test_a_tree_gets_its_loop_after_the_threshold_and_only_when_small(self, monkeypatch):
        """The loop is generated at the first solve that finds the tree swept
        _KERNEL_PASSES passes, for that solve's loaded nodes; a tree of more
        than _KERNEL_BRANCHES branches never gets one."""
        net = validate_radial(chain_table([(10.0, 5.0), (0.0, 0.0), (3.0, 1.0)]))
        tree = net._tree
        monkeypatch.setattr(tree, "kernel", None)
        monkeypatch.setattr(tree, "swept", solver._KERNEL_PASSES - 1)
        report = solve(net)
        assert tree.kernel is None
        assert tree.swept == solver._KERNEL_PASSES - 1 + report.iterations
        assert solve(net) == report
        assert tree.kernel[0] == loaded_positions(net) == [1, 3]
        assert tree.swept == solver._KERNEL_PASSES - 1 + report.iterations

        big = validate_radial(chain_table([(1.0, 0.5)] * (solver._KERNEL_BRANCHES + 1)))
        monkeypatch.setattr(big._tree, "kernel", None)
        monkeypatch.setattr(big._tree, "swept", solver._KERNEL_PASSES)
        solve(big)
        assert big._tree.kernel is None


def test_solver_forwards_the_four_reference_phase_functions_to_the_oracle():
    """solver keeps the phase functions the acceptance suite imports from it,
    and the debug_polar check and its angle helper, which the tests import
    from it, as the oracle's own, and forwards no other name."""
    for name in ("compute_load_currents", "backward_sweep", "forward_sweep", "check_convergence",
                 "PolarMismatchError", "POLAR_AGREEMENT_TOL", "_polar_voltage",
                 "_polar_deviation", "wrap_angle"):
        assert getattr(solver, name) is getattr(oracle, name)
    for name in ("StepCounter", "is_leaf", "SweepInvariantError", "baseline_solve", "SolveState",
                 "to_per_unit", "TWO_PI", "_check_real", "_cycle"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(solver, name)
