import random

import pytest

from conftest import chain_table, criterion_2_tables, make_table
from radialflow import oracle
from radialflow.cli import generate_random_table
from radialflow.ingest import validate_radial
from radialflow.model import Phasor, SolveState
from radialflow.oracle import baseline_solve, downstream_sets, downstream_sum, power_balance
from radialflow.solver import (
    POLAR_AGREEMENT_TOL,
    SolveOptions,
    backward_sweep,
    compute_load_currents,
    find_leaf_nodes,
    forward_sweep,
    solve,
)


class TestDownstreamSets:
    def test_chain(self):
        net = validate_radial(chain_table([(10, 5), (10, 5)]))
        sets = downstream_sets(net)
        assert sets[1] == (2, 3)
        assert sets[2] == (3,)

    def test_star(self):
        net = validate_radial(make_table([
            (1, 1, 2, 0.1, 0.1, 5, 2),
            (2, 1, 3, 0.1, 0.1, 5, 2),
        ]))
        assert downstream_sets(net) == {1: (2,), 2: (3,)}

    def test_set_is_subtree_vertex_set(self, bus69_net):
        sets = downstream_sets(bus69_net)
        for b in bus69_net.branches:
            subtree = set()
            frontier = [b.receiving_node]
            while frontier:
                node = frontier.pop()
                subtree.add(node)
                for child in bus69_net.children[node]:
                    position = bus69_net.branch_position[child]
                    frontier.append(bus69_net.branches[position].receiving_node)
            assert set(sets[b.branch_id]) == subtree

    def test_recursive_union_invariant(self, bus33_net):
        sets = {bid: set(nodes) for bid, nodes in downstream_sets(bus33_net).items()}
        for b in bus33_net.branches:
            union = {b.receiving_node}
            for child in bus33_net.children[b.receiving_node]:
                union |= sets[child]
            assert sets[b.branch_id] == union

    def test_sizes_sum_to_depth_mass(self, bus33_net):
        sets = downstream_sets(bus33_net)
        depth = {bus33_net.root: 0}
        for b in bus33_net.branches:  # sequential order guarantees parent first
            depth[b.receiving_node] = depth[b.sending_node] + 1
        assert sum(len(s) for s in sets.values()) == sum(depth.values())


class TestDownstreamSum:
    def test_all_zero_loads(self, bus33_net):
        zeros = {n: Phasor(0.0, 0.0) for n in bus33_net.nodes()}
        assert all(v == Phasor(0.0, 0.0) for v in downstream_sum(bus33_net, zeros).values())

    def test_random_trees_match_stack_sweep(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(2, 20)
            net = validate_radial(generate_random_table(n, rng.uniform(0.1, 0.9), rng))
            state = SolveState.flat_start(net)
            compute_load_currents(state, net)
            backward_sweep(state, net, find_leaf_nodes(net))
            expected = downstream_sum(net, state.load_current)
            for bid, want in expected.items():
                assert abs((state.branch_current[bid] - want).as_complex()) < 1e-12


class TestBaselineSolve:
    def test_two_node_zero_load(self):
        net = validate_radial(chain_table([(0.0, 0.0)]))
        report = baseline_solve(net)
        assert report.iterations == 1
        assert report.node_voltages == ((1, 1.0, 0.0), (2, 1.0, 0.0))

    def test_bus69_voltages_match_solver(self, bus69_net, bus69_report):
        base = baseline_solve(bus69_net)
        assert base.iterations == bus69_report.iterations
        for node in bus69_net.nodes():
            diff = base.final_voltage[node] - bus69_report.final_voltage[node]
            assert abs(diff.as_complex()) < 1e-12
        assert base.step_count_baseline > bus69_report.step_count_proposed

    def test_branch_currents_are_the_downstream_sums_exactly(self, bus69_net, bus33_net):
        """The baseline's branch currents are its final load currents summed over
        each downstream set in ascending node order, bit for bit; solve is
        compared with it only to 1e-12, so this pins the baseline's own sums."""
        nets = [bus69_net, bus33_net, *map(validate_radial, criterion_2_tables())]
        for net in nets:
            base = baseline_solve(net)
            assert base.final_branch_current == downstream_sum(net, base.final_load_current)

    @pytest.mark.parametrize("fixture", ["bus69_net", "bus33_net"])
    def test_debug_polar_reports_the_worst_deviation(self, request, fixture, monkeypatch):
        """Both solvers check every pass in polar form and report the worst
        disagreement they saw; the baseline's is the largest its forward
        sweeps returned."""
        net = request.getfixturevalue(fixture)
        options = SolveOptions(debug_polar=True)
        passes = []

        def recorded(*args):
            passes.append(forward_sweep(*args))
            return passes[-1]

        monkeypatch.setattr(oracle, "forward_sweep", recorded)
        base = baseline_solve(net, options)
        assert len(passes) == base.iterations
        assert base.max_polar_deviation == max(passes) > 0.0
        for report in (solve(net, options), base):
            assert 0.0 < report.max_polar_deviation <= POLAR_AGREEMENT_TOL

    def test_loss_totals_match_solver(self, bus69_net, bus69_report):
        base = baseline_solve(bus69_net)
        assert base.total_loss_p == pytest.approx(bus69_report.total_loss_p, abs=1e-9)
        assert base.total_loss_q == pytest.approx(bus69_report.total_loss_q, abs=1e-9)


class TestPowerBalance:
    def test_bus69(self, bus69_net, bus69_report):
        bal = power_balance(bus69_net, bus69_report)
        assert bal["root_p"] == pytest.approx(bal["load_p"] + bal["loss_p"], abs=1e-6)
        assert bal["root_q"] == pytest.approx(bal["load_q"] + bal["loss_q"], abs=1e-6)

    def test_consumed_load_close_to_nominal(self, bus69_net, bus69_report):
        bal = power_balance(bus69_net, bus69_report)
        nominal_p = sum(b.s_load.re for b in bus69_net.branches)
        nominal_q = sum(b.s_load.im for b in bus69_net.branches)
        assert bal["load_p"] == pytest.approx(nominal_p, abs=1e-3)
        assert bal["load_q"] == pytest.approx(nominal_q, abs=1e-3)

    def test_loss_term_matches_report(self, bus33_net, bus33_report):
        bal = power_balance(bus33_net, bus33_report)
        to_kw = bus33_net.base.mva_base * 1000.0
        assert bal["loss_p"] * to_kw == pytest.approx(bus33_report.total_loss_p, abs=1e-9)
