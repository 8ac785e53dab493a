import argparse
import json
import os
import random
import subprocess
import sys

import pytest

import conftest
from radialflow import _renumber, cli, oracle
from radialflow.cli import (
    EXIT_COMPARE,
    EXIT_ERROR,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOPOLOGY,
    generate_random_table,
    main,
    read_text,
)
from radialflow.ingest import parse_branch_table, renumber_sequential, validate_radial
from radialflow.solver import SolveOptions, solve

BUS69 = str(conftest.fixture_path(conftest.BUS69))
BUS33 = str(conftest.fixture_path(conftest.BUS33))
GOLDEN = str(conftest.fixture_path(conftest.GOLDEN69))
GOLDEN_TEXT = read_text(GOLDEN)


def subprocess_env():
    """The environment of a CLI subprocess, which imports the radialflow the
    suite tests."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_bus69(self, capsys):
        code, out, _ = run(capsys, "validate", BUS69)
        assert code == EXIT_OK
        assert out.strip() == "NB=69 LN=68 ties=5 leaves=8 ordered=yes"

    def test_bus33(self, capsys):
        code, out, _ = run(capsys, "validate", BUS33)
        assert code == EXIT_OK
        assert out.startswith("NB=33 LN=32 ties=0")

    def test_cyclic_file(self, capsys, tmp_path):
        path = tmp_path / "cycle.branch"
        path.write_text("1 1 2 0.1 0.1 0 0\n2 2 3 0.1 0.1 0 0\n3 3 1 0.1 0.1 0 0\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == EXIT_TOPOLOGY
        assert "cycle" in err

    def test_doubly_fed_table_names_its_branches_in_id_order(self, capsys, tmp_path):
        path = tmp_path / "doubly-fed.branch"
        path.write_text("3 2 3 0.1 0.1 10 5\n1 1 2 0.1 0.1 10 5\n2 1 3 0.1 0.1 10 5\n")
        assert run(capsys, "validate", str(path)) == (
            EXIT_TOPOLOGY, "", f"topology error: {path}: node 3 is fed by branches 2 and 3\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no/such/file")
        assert code == EXIT_PARSE
        assert "cannot read" in err

    def test_a_path_is_opened_as_given(self, capsys, tmp_path):
        """A table path is opened as typed, not normalised: a file named with
        a trailing slash is not a directory, and the error names the path
        as given."""
        (tmp_path / "net.branch").write_text("1 1 2 0.1 0.1 0 0\n")
        path = f"{tmp_path / 'net.branch'}/"
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"parse error: cannot read {path}: ")

    def test_unordered_table(self, capsys, tmp_path):
        path = tmp_path / "unordered.branch"
        path.write_text("1 3 2 0.1 0.05 10 5\n2 1 3 0.1 0.05 10 5\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == EXIT_TOPOLOGY
        assert out == "NB=3 LN=2 ties=0 leaves=1 ordered=no\n"
        assert err == "ordering violation: run solve with --renumber\n"


class TestSolve:
    def test_bus69_table_output(self, capsys, golden69):
        code, out, _ = run(capsys, "solve", BUS69)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "iterations" in lines[1]
        node65 = next(l for l in lines if l.startswith("65 "))
        vmag = float(node65.split()[1])
        assert abs(vmag - golden69[65]) <= 1e-3

    def test_zero_load_two_node(self, capsys, tmp_path):
        path = tmp_path / "two.branch"
        path.write_text("1 1 2 0.1 0.05 0 0\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == EXIT_OK
        assert "\n2 1.00000 " in out
        assert "total_loss_kw 0.0000" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "solve", BUS33)
        _, second, _ = run(capsys, "solve", BUS33)
        assert first == second

    def test_json_matches_table_at_displayed_precision(self, capsys):
        _, table_out, _ = run(capsys, "solve", BUS33)
        _, json_out, _ = run(capsys, "solve", BUS33, "--format", "json")
        doc = json.loads(json_out)
        table_nodes = {}
        for line in table_out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0].isdigit():
                table_nodes.setdefault(int(parts[0]), parts[1])
        for entry in doc["nodes"]:
            assert f"{entry['vmag_pu']:.5f}" == table_nodes[entry["node"]]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "solve", BUS33, "--format", "csv")
        assert code == EXIT_OK
        assert "node,vmag_pu,angle_deg" in out

    def test_step_counters_reported(self, capsys):
        _, out, _ = run(capsys, "solve", BUS33)
        steps = {
            line.split()[0]: int(line.split()[1])
            for line in out.splitlines()
            if line.startswith("steps_")
        }
        assert 0 < steps["steps_proposed"] < steps["steps_baseline"]

    def test_bus69_step_counts_pinned(self, capsys):
        _, out, _ = run(capsys, "solve", BUS69)
        lines = out.splitlines()
        assert "steps_proposed 3120" in lines
        assert "steps_baseline 41452" in lines

    def test_every_format_prints_the_same_summary(self, capsys):
        counts = {"iterations": 4, "leaves": 8, "steps_proposed": 3120, "steps_baseline": 41452}
        lines = ["converged yes", *(f"{k} {v}" for k, v in counts.items())]
        _, table_out, _ = run(capsys, "solve", BUS69)
        assert table_out.splitlines()[:5] == lines
        _, csv_out, _ = run(capsys, "solve", BUS69, "--format", "csv")
        assert csv_out.splitlines()[:5] == [line.replace(" ", ",") for line in lines]
        _, json_out, _ = run(capsys, "solve", BUS69, "--format", "json")
        doc = json.loads(json_out)
        assert doc["converged"] is True and {k: doc[k] for k in counts} == counts

    def test_no_command_runs_the_baseline_solver(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("baseline_solve called")

        monkeypatch.setattr(oracle, "baseline_solve", refuse)
        for fmt in ("table", "csv", "json"):
            code, out, _ = run(capsys, "solve", BUS69, "--format", fmt)
            assert code == EXIT_OK
            assert "41452" in out
        assert run(capsys, "compare", BUS69, "--golden", GOLDEN)[0] == EXIT_OK
        code, out, _ = run(capsys, "bench", "--sizes", "8", "--leaf-fractions", "0.5")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2

    def test_closed_stdout_exits_without_traceback(self):
        env = subprocess_env()
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader, so the first write fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "radialflow.cli", "solve", BUS69],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        # no traceback, and no "Exception ignored" report from the flush at exit
        assert proc.stderr == ""
        assert proc.returncode == EXIT_ERROR

    def test_default_base_given_explicitly_changes_nothing(self, capsys):
        _, plain, _ = run(capsys, "solve", BUS69)
        code, out, err = run(capsys, "solve", BUS69, "--kv", "12.66", "--mva", "10")
        assert (code, out, err) == (EXIT_OK, plain, "")

    def test_mva_override_keeps_the_declared_kv(self, capsys, tmp_path):
        def write(name, kv, mva):
            doc = {
                "base": {"kv": kv, "mva": mva},
                "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.5, "x": 0.3,
                              "p": 400, "q": 200}],
            }
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            return str(path)

        code, out, _ = run(capsys, "solve", write("declared.json", 11.0, 10), "--mva", "20")
        assert code == EXIT_OK
        _, expected, _ = run(capsys, "solve", write("kv11.json", 11.0, 20))
        _, default_kv, _ = run(capsys, "solve", write("kv1266.json", 12.66, 20))
        assert out == expected
        assert out != default_kv

    def test_input_format_overrides_the_suffix(self, capsys, tmp_path):
        text = json.dumps({"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05,
                                         "p": 10, "q": 5}]})
        named = tmp_path / "net.json"
        named.write_text(text)
        unnamed = tmp_path / "net.txt"
        unnamed.write_text(text)
        _, expected, _ = run(capsys, "solve", str(named))
        code, out, err = run(capsys, "solve", str(unnamed), "--input-format", "json")
        assert (code, out, err) == (EXIT_OK, expected, "")

    def test_literal_steps_match_the_library(self, capsys, bus69_net):
        code, out, _ = run(capsys, "solve", BUS69, "--literal-steps")
        assert code == EXIT_OK
        report = solve(bus69_net, SolveOptions(literal_scan=True))
        lines = out.splitlines()
        assert f"steps_proposed {report.step_count_proposed}" in lines
        assert f"steps_baseline {report.step_count_baseline}" in lines
        assert "steps_proposed 3120" not in lines  # the literal scan counts more

    def test_debug_polar_prints_the_default_node_rows(self, capsys):
        _, plain, _ = run(capsys, "solve", BUS69)
        code, out, err = run(capsys, "solve", BUS69, "--debug-polar")
        assert (code, err) == (EXIT_OK, "")
        node_rows = [line for line in out.splitlines() if line.count(" ") == 2]
        assert node_rows == [line for line in plain.splitlines() if line.count(" ") == 2]
        assert len(node_rows) == 70  # the header and 69 nodes

    @pytest.mark.parametrize("row,message", [
        # 1 p.u. load through 1 p.u. resistance: the first sweep drives V2 to 0
        ("1 1 2 16.02756 0 10000 0", "error: zero voltage at loaded node 2\n"),
        # nodes 5 and 3 reach 0j in one pass: named in node order
        ("1 1 5 16.02756 0 5000 0\n2 5 3 0 0 5000 0", "error: zero voltage at loaded node 3\n"),
        ("1 1 2 1e300 1e300 1e300 1e300", "error: non-finite voltage on branch 1\n"),
    ], ids=["voltage-collapse", "voltage-collapse-node-order", "non-finite-sweep"])
    def test_solver_failure_exits_one(self, capsys, tmp_path, row, message):
        path = tmp_path / "failing.branch"
        path.write_text(row + "\n")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out, err) == (EXIT_ERROR, "", message)

    def test_infinite_capacity_exits_parse(self, capsys, tmp_path):
        path = tmp_path / "cap.branch"
        path.write_text("1 1 2 0.1 0.1 10 5 inf\n")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out, err) == (
            EXIT_PARSE, "", f"parse error: {path}:1: branch 1: non-finite capacity (inf)\n")

    @pytest.mark.parametrize("cap", ["nan", "-inf"])
    def test_nan_or_negative_infinite_capacity_exits_parse(self, capsys, tmp_path, cap):
        path = tmp_path / "cap.branch"
        path.write_text(f"1 1 2 0.1 0.1 10 5 {cap}\n")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out, err) == (
            EXIT_PARSE, "", f"parse error: {path}:1: branch 1: non-finite capacity ({cap})\n")

    @pytest.mark.parametrize("option,value,bases", [
        ("--kv", "1e-300", "kv_base 1e-300 and mva_base 10.0"),
        ("--kv", "1e200", "kv_base 1e+200 and mva_base 10.0"),
        ("--mva", "1e306", "kv_base 12.66 and mva_base 1e+306"),
    ], ids=["kv-underflows-z-base", "kv-overflows-z-base", "mva-overflows-kw-base"])
    def test_base_with_unusable_scale_exits_parse(self, capsys, tmp_path, option, value, bases):
        path = tmp_path / "k.branch"
        path.write_text("1 1 2 0.1 0.1 10 5\n")
        code, out, err = run(capsys, "solve", str(path), option, value)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"data error: {bases} give an impedance base of ")

    @pytest.mark.parametrize("row,option,value,message", [
        ("1 1 2 1e200 0 10 5", "--kv", "1e-100",
         "branch 1: resistance is not finite in per unit (kv_base 1e-100, mva_base 10.0)"),
        ("1 1 2 0.1 0.1 1e300 0", "--mva", "1e-300",
         "branch 1: load_p is not finite in per unit (kv_base 12.66, mva_base 1e-300)"),
        # node 3 has no feeding branch, but values are checked before the tree
        ("1 1 2 1e200 0 10 5\n2 3 4 0.1 0.1 1 1", "--kv", "1e-100",
         "branch 1: resistance is not finite in per unit (kv_base 1e-100, mva_base 10.0)"),
    ], ids=["impedance", "load", "before-topology"])
    def test_per_unit_overflow_exits_parse(self, capsys, tmp_path, row, option, value, message):
        path = tmp_path / "overflow.branch"
        path.write_text(row + "\n")
        for command in ("validate", "solve"):
            code, out, err = run(capsys, command, str(path), option, value)
            assert (code, out, err) == (EXIT_PARSE, "", f"data error: {message}\n")

    def test_non_convergence_exit(self, capsys, tmp_path):
        path = tmp_path / "hard.branch"
        path.write_text("1 1 2 8.0 4.0 30000 20000\n")
        code, _, err = run(capsys, "solve", str(path), "--max-iter", "5")
        assert code == EXIT_NONCONVERGENCE
        assert "non-convergence" in err

    def test_renumber_flag(self, capsys, tmp_path):
        path = tmp_path / "unordered.branch"
        path.write_text("1 3 2 0.1 0.05 10 5\n2 1 3 0.1 0.05 10 5\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == EXIT_TOPOLOGY
        code, out, _ = run(capsys, "solve", str(path), "--renumber")
        assert code == EXIT_OK
        assert "converged yes" in out

    @pytest.mark.parametrize("argv,error", [
        (("solve", BUS69, "--tol", "0"), "--tol: must be a positive finite number, got 0"),
        (("solve", BUS69, "--tol", "nan"), "--tol: must be a positive finite number, got nan"),
        (("solve", BUS69, "--tol=-inf"), "--tol: must be a positive finite number, got -inf"),
        (("solve", BUS69, "--max-iter", "0"), "--max-iter: must be at least 1, got 0"),
        (("compare", BUS69, "--golden", GOLDEN, "--tol", "inf"),
         "--tol: must be a positive finite number, got inf"),
        (("compare", BUS69, "--golden", GOLDEN, "--bound", "nan"),
         "--bound: must be a non-negative number, got nan"),
        (("bench", "--leaf-fractions", "0.3", "--sizes", "1"), "--sizes: must be at least 2, got 1"),
        (("bench", "--sizes", "8", "--leaf-fractions", "nan"),
         "--leaf-fractions: must be between 0 and 1, got nan"),
        (("bench", "--sizes", "8", "--leaf-fractions", "0.3", "--max-iter", "0"),
         "--max-iter: must be at least 1, got 0"),
        (("solve", BUS69, "--kv", "0"), "--kv: must be a positive finite number, got 0"),
        (("solve", BUS69, "--mva", "nan"), "--mva: must be a positive finite number, got nan"),
        (("compare", BUS69, "--golden", GOLDEN, "--kv", "-1"),
         "--kv: must be a positive finite number, got -1"),
        # number text a table refuses: a `_` separator or a non-ASCII digit
        (("solve", "--kv", "1_2.66", BUS33), "--kv: invalid float value: '1_2.66'"),
        (("solve", "--mva", "١٠", BUS33), "--mva: invalid float value: '١٠'"),
        (("solve", "--tol", "1_0e-4", BUS33), "--tol: invalid float value: '1_0e-4'"),
        (("solve", "--max-iter", "1_00", BUS33), "--max-iter: invalid int value: '1_00'"),
        (("solve", "--root", "١", BUS33), "--root: invalid int value: '١'"),
        (("compare", BUS69, "--golden", GOLDEN, "--bound", "1_0"),
         "--bound: invalid float value: '1_0'"),
        (("bench", "--sizes", "1_0", "--leaf-fractions", "0.3"),
         "--sizes: invalid int value: '1_0'"),
        (("bench", "--sizes", "8", "--leaf-fractions", "٠.٣"),
         "--leaf-fractions: invalid float value: '٠.٣'"),
        (("bench", "--sizes", "8", "--leaf-fractions", "0.3", "--seed", "1_1"),
         "--seed: invalid int value: '1_1'"),
    ], ids=["tol-zero", "tol-nan", "tol-minus-inf", "max-iter-zero", "compare-tol-inf",
            "compare-bound-nan", "bench-size-one", "bench-fraction-nan", "bench-max-iter-zero",
            "kv-zero", "mva-nan", "compare-kv-negative", "kv-separator", "mva-arabic-digits",
            "tol-separator", "max-iter-separator", "root-arabic-digit", "bound-separator",
            "bench-size-separator", "bench-fraction-arabic-digits", "bench-seed-separator"])
    def test_bad_option_value_exits_usage(self, argv, error):
        proc = subprocess.run(
            [sys.executable, "-m", "radialflow.cli", *argv],
            capture_output=True, env=subprocess_env(), text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: radialflow ")
        assert proc.stderr.endswith(f": error: argument {error}\n")
        assert proc.stdout == ""

    # already sequentially ordered, but renumbering relabels it: input nodes
    # 3, 4 and 2 become nodes 2, 3 and 4 (a cycle, so the inverse map differs)
    ORDERED = "1 1 4 0.3 0.2 0 0\n2 4 2 0.3 0.2 300 180\n3 1 3 0.3 0.2 100 60\n"
    # the same table relabelled by hand, in renumbered ids
    RELABELLED = "1 1 2 0.3 0.2 100 60\n2 1 3 0.3 0.2 0 0\n3 3 4 0.3 0.2 300 180\n"
    NODE_TO_INPUT = {1: 1, 2: 3, 3: 4, 4: 2}
    BRANCH_TO_INPUT = {1: 3, 2: 1, 3: 2}

    def relabel(self, output):
        """A solve printout's lines with node and branch ids mapped by hand to
        the input's ids, each block of rows sorted by them."""
        lines, rows, ids = [], [], None
        for line in output.splitlines():
            head, _, rest = line.partition(" ")
            if ids and head.isdigit():
                new_id = ids[int(head)]
                rows.append((new_id, f"{new_id} {rest}"))
                continue
            lines += [row for _, row in sorted(rows)]
            rows = []
            ids = {"node": self.NODE_TO_INPUT, "branch": self.BRANCH_TO_INPUT}.get(head)
            lines.append(line)
        return lines

    def test_renumber_reports_in_input_ids(self, capsys, tmp_path):
        ordered = tmp_path / "ordered.branch"
        ordered.write_text(self.ORDERED)
        relabelled = tmp_path / "relabelled.branch"
        relabelled.write_text(self.RELABELLED)
        code, out, _ = run(capsys, "solve", str(ordered), "--renumber")
        assert code == EXIT_OK
        _, reference, _ = run(capsys, "solve", str(relabelled))
        assert out.splitlines() == self.relabel(reference)
        # and every node's voltage row matches the unrenumbered solve's
        _, plain, _ = run(capsys, "solve", str(ordered))
        node_rows = [line for line in out.splitlines() if line.count(" ") == 2]
        assert node_rows == [line for line in plain.splitlines() if line.count(" ") == 2]
        assert len(node_rows) == 5  # the header and four nodes

    def test_input_ids_replace_the_row_views_with_sorted_tuples(self):
        """_in_input_ids maps the report's row views to the input's ids as
        tuples sorted by them, through _replace; the other fields are kept."""
        table, mapping = renumber_sequential(parse_branch_table(self.ORDERED))
        report = solve(validate_radial(table))
        mapped = _renumber._in_input_ids(report, mapping)
        node, branch = self.NODE_TO_INPUT, self.BRANCH_TO_INPUT
        expected = {
            "node_voltages": sorted((node[n], v, a) for n, v, a in report.node_voltages),
            "branch_currents": sorted((branch[b], i) for b, i in report.branch_currents),
            "branch_losses": sorted((branch[b], p, q) for b, p, q in report.branch_losses),
        }
        for name, rows in expected.items():
            assert type(getattr(mapped, name)) is tuple and getattr(mapped, name) == tuple(rows)
            assert type(getattr(report, name)) is not tuple
        assert [row[0] for row in mapped.node_voltages] == [1, 2, 3, 4]
        assert mapped._replace(**{name: getattr(report, name) for name in expected}) == report

    def test_sparse_shuffled_ids_print_under_input_ids(self, capsys, tmp_path):
        """Ids far from 1..n, out of order and rooted at 40: renumbering maps
        them to positions and the report back to the input's ids."""
        path = tmp_path / "sparse.branch"
        path.write_text("7 40 12 0.1 0.05 10 5\n3 12 9 0.1 0.05 10 5\n5 40 31 0.1 0.05 10 5\n")
        code, out, err = run(capsys, "solve", "--renumber", "--root", "40", str(path))
        assert (code, err) == (EXIT_OK, "")
        heads = [line.split()[0] for line in out.splitlines()]
        assert heads[heads.index("node") + 1:heads.index("branch")] == ["9", "12", "31", "40"]
        assert heads[heads.index("branch") + 1:heads.index("total_loss_kw")] == ["3", "5", "7"]

    def test_renumber_identity_output_unchanged(self, capsys):
        _, plain, _ = run(capsys, "solve", BUS69)
        _, renumbered, _ = run(capsys, "solve", BUS69, "--renumber")
        assert renumbered == plain

    def test_json_input(self, capsys, tmp_path):
        doc = {
            "base": {"kv": 12.66, "mva": 10},
            "root": 1,
            "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05, "p": 10, "q": 5}],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == EXIT_OK
        assert "converged yes" in out
        heads = [line.split()[0] for line in out.splitlines()]
        assert heads[heads.index("node") + 1:heads.index("branch")] == ["1", "2"]

    def test_tie_to_unknown_node_exits_topology(self, capsys, tmp_path):
        path = tmp_path / "tie.branch"
        path.write_text("1 1 2 0.1 0.1 10 5\n2 2 3 0.1 0.1 10 5\n3* 3 99 0.1 0.1\n")
        for extra in ((), ("--renumber",)):
            code, _, err = run(capsys, "solve", str(path), *extra)
            assert code == EXIT_TOPOLOGY
            assert "tie branch 3 ends at node 99" in err

    def test_all_tie_table_exits_topology(self, capsys, tmp_path):
        path = tmp_path / "ties.branch"
        path.write_text("1* 1 2 0.1 0.1\n2* 2 3 0.1 0.1 566\n")
        for command in (("validate",), ("solve",), ("solve", "--renumber")):
            code, out, err = run(capsys, *command, str(path))
            assert (code, out) == (EXIT_TOPOLOGY, "")
            assert err == f"topology error: {path}: no closed branches\n"

    def test_root_not_a_sender_exits_topology(self, capsys):
        for extra in ((), ("--renumber",)):
            code, _, err = run(capsys, "solve", BUS69, "--root", "999", *extra)
            assert code == EXIT_TOPOLOGY
            assert err == f"topology error: {BUS69}: root 999 is not a sending node\n"

    @pytest.mark.parametrize("doc", [
        [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05}],
        {"branches": [{"from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
        {"branches": [{"id": 1, "from": 1, "to": 2, "r": "x", "x": 0.05}]},
        {"branches": [{"id": 0, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
        {"branches": [{"id": 1, "from": 1, "to": 2, "r": -0.1, "x": 0.05}]},
        {"branches": [{"id": 1, "from": 1, "to": 2.9, "r": 0.1, "x": 0.05}]},
        {"branches": [{"id": 1.7, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
        {"root": True, "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
        {"branches": [{"id": 1, "from": 1, "to": 2, "r": True, "x": 0.05}]},
        {"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05, "open": "false"}]},
        {"base": {"kv": "nan", "mva": 10},
         "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
        {"base": {"kv": 1e-300, "mva": 10},
         "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
    ], ids=["top-level-list", "missing-id", "non-numeric-r", "id-zero", "negative-r",
            "fractional-to", "fractional-id", "bool-root", "bool-r", "open-as-text", "nan-base",
            "underflowing-base"])
    def test_malformed_json_exits_parse(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", str(path))
        assert code == EXIT_PARSE
        assert err.startswith(f"parse error: {path}: ")


    @pytest.mark.parametrize("text,message", [
        ("1_0 1 2 0.1 0.1 1_0 5\n", "parse error: {path}:1: bad integer field '1_0'\n"),
        ("1 1 2 0.1 0.1 \u0661\u0660 5\n",
         "parse error: {path}:1: bad numeric field '\u0661\u0660'\n"),
        ('{"branches": [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.1, "p": "1_0"}]}',
         "parse error: {path}: branches[0]: bad value '1_0' for key 'p'\n"),
    ], ids=["underscore", "arabic-indic", "json-underscore-text"])
    def test_python_literal_digits_exit_parse(self, capsys, tmp_path, text, message):
        path = tmp_path / ("t.json" if text.startswith("{") else "t.branch")
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out, err) == (EXIT_PARSE, "", message.format(path=path))


class TestCompare:
    def test_bus69_against_golden(self, capsys):
        code, out, _ = run(capsys, "compare", BUS69, "--golden", GOLDEN)
        assert code == EXIT_OK
        assert "max_deviation" in out

    def test_self_golden_zero_deviation(self, capsys, tmp_path):
        _, out, _ = run(capsys, "solve", BUS33)
        golden = tmp_path / "self.csv"
        rows = ["node,vmag_pu"]
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0].isdigit():
                rows.append(f"{parts[0]},{parts[1]}")
        golden.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "compare", BUS33, "--golden", str(golden))
        assert code == EXIT_OK
        assert "max_deviation 0.00000" in out

    def test_perturbed_golden_fails_naming_node(self, capsys, tmp_path):
        original = conftest.load_golden69()
        original[40] += 0.01
        path = tmp_path / "bad.csv"
        path.write_text("node,vmag_pu\n" + "\n".join(f"{n},{v:.5f}" for n, v in original.items()))
        code, _, err = run(capsys, "compare", BUS69, "--golden", str(path))
        assert code == EXIT_COMPARE
        assert "node 40" in err

    def test_node_set_mismatch(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("node,vmag_pu\n1,1.0\n2,0.9\n")
        code, _, err = run(capsys, "compare", BUS69, "--golden", str(path))
        assert code == EXIT_PARSE
        assert "node set" in err

    def test_renumber_compares_in_input_ids(self, capsys, tmp_path):
        ordered = tmp_path / "ordered.branch"
        ordered.write_text(TestSolve.ORDERED)
        _, out, _ = run(capsys, "solve", str(ordered))
        golden = tmp_path / "golden.csv"
        rows = ["node,vmag_pu"]
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0].isdigit():
                rows.append(f"{parts[0]},{parts[1]}")
        golden.write_text("\n".join(rows) + "\n")
        # the golden values are rounded to 5 decimals
        code, _, err = run(capsys, "compare", str(ordered), "--renumber",
                           "--golden", str(golden), "--bound", "1e-5")
        assert (code, err) == (EXIT_OK, "")

    @pytest.mark.parametrize("text,message", [
        (None, "parse error: cannot read {path}: "),
        ("node,vmag_pu\n\n1,1.0\n2;0.9\n", "parse error: {path}:4: bad golden row '2;0.9'\n"),
        ("node,vmag_pu\n" + "".join(f"{n},nan\n" for n in range(1, 70)),
         "parse error: {path}:2: golden magnitude of node 1 is not finite\n"),
        (GOLDEN_TEXT.replace("\n12,0.96814\n", "\n12,nan\n"),
         "parse error: {path}:13: golden magnitude of node 12 is not finite\n"),
        (GOLDEN_TEXT.replace("node,vmag_pu\n", "node,vmag_pu\n61,0.5\n"),
         "parse error: {path}:63: node 61 is listed twice\n"),
        ("node,vmag_pu\n1,1.0\n2,inf\n",
         "parse error: {path}:3: golden magnitude of node 2 is not finite\n"),
        ("node,vmag_pu\n1_0,1.0\n", "parse error: {path}:2: bad golden row '1_0,1.0'\n"),
        ("node,vmag_pu\n1,\u0661.0\n", "parse error: {path}:2: bad golden row '1,\u0661.0'\n"),
        (GOLDEN_TEXT.replace("\n1,1.00000\n", "\n1,-1.0\n"),
         "parse error: {path}:2: golden magnitude of node 1 is not positive\n"),
        (GOLDEN_TEXT.replace("\n12,0.96814\n", "\n12,0\n"),
         "parse error: {path}:13: golden magnitude of node 12 is not positive\n"),
        (GOLDEN_TEXT.replace("\n12,0.96814\n", "\n12,-0.0\n"),
         "parse error: {path}:13: golden magnitude of node 12 is not positive\n"),
        ("node,vmag_pu\n1,1.0\n2,-inf\n",
         "parse error: {path}:3: golden magnitude of node 2 is not finite\n"),
    ], ids=["missing-file", "bad-row", "all-nan", "one-nan", "repeated-node", "inf",
            "underscore-node", "arabic-indic-magnitude", "negative", "zero", "negative-zero",
            "negative-inf"])
    def test_unreadable_golden_exits_parse(self, capsys, tmp_path, text, message):
        path = tmp_path / "golden.csv"
        if text is not None:
            path.write_text(text)
        code, _, err = run(capsys, "compare", BUS69, "--golden", str(path))
        assert code == EXIT_PARSE
        assert err.startswith(message.format(path=path))


@pytest.mark.parametrize("command,name", [
    (("validate", "{path}"), "t.branch"),
    (("compare", BUS69, "--golden", "{path}"), "golden.csv"),
], ids=["validate", "compare-golden"])
def test_non_utf8_input_exits_parse(tmp_path, command, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe1 1 2 0.1 0.1 10 5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "radialflow.cli", *(a.format(path=path) for a in command)],
        capture_output=True, env=subprocess_env(), text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_PARSE, "")
    assert proc.stderr.startswith(f"parse error: cannot read {path}: 'utf-8' codec can't decode")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text,message", [
    ('{"branches": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth exceeded"),
    ('{"branches": [{"id": ' + "7" * 5000 + ', "from": 1, "to": 2, "r": 0.1, "x": 0.05}]}',
     "Exceeds the limit"),
], ids=["nested-too-deep", "id-of-5000-digits"])
def test_json_the_decoder_refuses_exits_parse(tmp_path, text, message):
    """Not a traceback: the decoder's RecursionError or ValueError is a parse error."""
    path = tmp_path / "net.json"
    path.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "radialflow.cli", "validate", str(path)],
                          capture_output=True, env=subprocess_env(), text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (EXIT_PARSE, "")
    assert proc.stderr.startswith(f"parse error: {path}: invalid JSON ({message}")
    assert "Traceback" not in proc.stderr


def test_a_squared_current_that_overflows_exits_error_without_a_traceback(tmp_path):
    path = tmp_path / "t.branch"
    path.write_text("1 1 2 0 0 1e200 0\n")
    proc = subprocess.run([sys.executable, "-m", "radialflow.cli", "solve", str(path)],
                          capture_output=True, env=subprocess_env(), text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
    assert proc.stderr == "error: squared current overflows on branch 1 (|I| = 1e+196 p.u.)\n"


def test_a_loss_total_that_overflows_exits_error_without_a_traceback(tmp_path):
    """Every branch's loss is finite, about 1.27e307 kW, but their sum is
    not: an error naming the branch at which it overflows, not a report of
    total_loss_kw inf."""
    path = tmp_path / "t.branch"
    path.write_text("".join(f"{k} 1 {k + 1} 1.6e-304 0 1e308 0\n" for k in range(1, 21)))
    proc = subprocess.run([sys.executable, "-m", "radialflow.cli", "solve", "--mva", "1e151",
                           str(path)],
                          capture_output=True, env=subprocess_env(), text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
    assert proc.stderr == "error: total loss overflows on branch 15\n"


def test_byte_order_mark_is_ignored(capsys, tmp_path):
    bom = b"\xef\xbb\xbf"
    table = tmp_path / "bus69.branch"
    table.write_bytes(bom + conftest.fixture_path(conftest.BUS69).read_bytes())
    golden = tmp_path / "golden.csv"
    golden.write_bytes(bom + conftest.fixture_path(conftest.GOLDEN69).read_bytes())
    assert run(capsys, "validate", str(table)) == run(capsys, "validate", BUS69)
    code, out, err = run(capsys, "compare", BUS69, "--golden", str(golden))
    assert (code, err) == (EXIT_OK, "")
    assert out == run(capsys, "compare", BUS69, "--golden", GOLDEN)[1]


def test_bundled_data_reads_without_default_encoding():
    """The CLI reads the bundled tables and the golden CSV with an explicit
    encoding: no EncodingWarning, turned into an error, stops it."""
    for command in (("compare", BUS69, "--golden", GOLDEN), ("validate", BUS33)):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "radialflow.cli", *command],
            capture_output=True, env=subprocess_env(), text=True, timeout=60,
        )
        assert (command, proc.returncode, proc.stderr) == (command, EXIT_OK, "")


def test_cli_import_leaves_the_oracle_unloaded(tmp_path):
    """radialflow loads its oracle, and solver the pass-loop writer
    (radialflow._kernel), on first use, which a CLI run makes of the oracle
    only under --debug-polar and of the writer never, and neither the
    package nor the CLI imports
    dataclasses, inspect, json, random, heapq, ast, pathlib or numbers,
    renumbering, the JSON reader, the failure searches or the other commands
    to start; the CLI loads no package module but the four it runs on.
    The interpreter runs without the site hook (-S), whose .pth files may load
    any of these first; a module loaded before the import does not count.

    Each command then runs as python -m radialflow.cli, and -X importtime
    lists what it imports: a solve of a delimited table nothing beyond the
    package, ingest, model and solver (cli runs as __main__), and
    --renumber, a JSON document, --format json, --debug-polar, validate,
    compare and bench one module more each, with the stdlib module that
    module needs, and so does a solve whose root sends no branch, which
    searches the table for a field that is not a number. A table with text
    in a number field loads nothing more: the parser refuses it before any
    such search. None imports radialflow.cli, which would be a second copy
    of __main__."""
    stdlib = ["dataclasses", "inspect", "json", "random", "heapq", "ast", "pathlib", "numbers"]
    watched = [*stdlib, "radialflow.oracle", "radialflow._kernel", "radialflow._renumber",
               "radialflow._json_reader", "radialflow._commands", "radialflow._defects"]
    for module in ("radialflow.cli", "radialflow"):
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys; bare = set(sys.modules); import {module}; "
             f"print(sorted(set({watched!r}) & (set(sys.modules) - bare)))"],
            capture_output=True, env=subprocess_env(), text=True, timeout=60,
        )
        assert (module, proc.returncode, proc.stdout, proc.stderr) == (module, 0, "[]\n", "")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; import radialflow.cli; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'radialflow'))"],
        capture_output=True, env=subprocess_env(), text=True, timeout=60,
    )
    loaded = ["radialflow", "radialflow.cli", "radialflow.ingest", "radialflow.model",
              "radialflow.solver"]
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{loaded}\n", "")

    document = tmp_path / "net.json"
    document.write_text(json.dumps({"branches": [
        {"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05, "p": 10.0, "q": 5.0}]}),
        encoding="utf-8")
    text_field = tmp_path / "text.branch"
    text_field.write_text("1 1 2 abc 0.05 10 5\n", encoding="utf-8")
    runs = [
        (("solve", BUS69), EXIT_OK, None, None),
        (("solve", str(text_field)), EXIT_PARSE, None, None),
        (("solve", "--renumber", BUS33), EXIT_OK, "radialflow._renumber", "heapq"),
        (("solve", str(document)), EXIT_OK, "radialflow._json_reader", "json"),
        (("solve", "--format", "json", BUS33), EXIT_OK, "radialflow._commands", "json"),
        (("solve", "--debug-polar", BUS69), EXIT_OK, "radialflow.oracle", None),
        (("solve", "--root", "99", BUS33), EXIT_TOPOLOGY, "radialflow._defects", "numbers"),
        (("validate", BUS33), EXIT_OK, "radialflow._commands", None),
        (("compare", BUS69, "--golden", GOLDEN), EXIT_OK, "radialflow._commands", None),
        (("bench", "--sizes", "4", "--leaf-fractions", "0.5"), EXIT_OK, "radialflow._commands",
         "random"),
    ]
    for argv, code, extra, needs in runs:
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "radialflow.cli", *argv],
            capture_output=True, env=subprocess_env(), text=True, timeout=60,
        )
        imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        package = sorted(m for m in imported if m.partition(".")[0] == "radialflow")
        expected = sorted({"radialflow", "radialflow.ingest", "radialflow.model",
                           "radialflow.solver", extra} - {None})
        assert (argv, proc.returncode, package) == (argv, code, expected)
        assert (argv, sorted(imported & set(stdlib))) == (argv, [needs] if needs else [])


def test_a_command_line_builds_only_its_commands_arguments():
    """Each command's parser adds its arguments when argparse selects it:
    after a solve is parsed, validate, compare and bench hold only -h."""
    parser = cli.build_parser()
    parser.parse_args(["solve", BUS69])
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    added = {name: [a.dest for a in p._actions] for name, p in commands.choices.items()}
    assert added["validate"] == added["compare"] == added["bench"] == ["help"]
    assert added["solve"][:3] == ["help", "file", "input_format"]


def test_moved_names_are_forwarded_from_where_they_were():
    """ingest forwards renumber_sequential and RenumberMapping from
    radialflow._renumber, the package renumber_sequential, and cli
    cmd_validate, cmd_compare, cmd_bench, generate_random_table and
    read_golden from radialflow._commands; model forwards the failure
    searches from radialflow._defects, and model and the package SolveState
    and to_per_unit, and model wrap_angle and TWO_PI, from radialflow.oracle
    (solver's forwarding is tested with solver). Each is that module's own
    object, on first use; no other name is forwarded, and the package gains
    no name."""
    import radialflow
    from radialflow import _commands, _defects, ingest, model, oracle

    for module, names, home in ((ingest, ("renumber_sequential", "RenumberMapping"), _renumber),
                                (radialflow, ("renumber_sequential",), _renumber),
                                (cli, ("cmd_validate", "cmd_compare", "cmd_bench",
                                       "generate_random_table", "read_golden"), _commands),
                                (model, ("_check_real", "_check_float", "_check_numbers",
                                         "_cycle"), _defects),
                                (model, ("SolveState", "to_per_unit", "wrap_angle", "TWO_PI"),
                                 oracle),
                                (radialflow, ("SolveState", "to_per_unit"), oracle)):
        for name in names:
            assert getattr(module, name) is getattr(home, name)
    for module, name in ((ingest, "_table_order"), (ingest, "_plain_columns"),
                         (radialflow, "RenumberMapping"), (cli, "_in_input_ids"),
                         (cli, "_report_json"), (radialflow, "wrap_angle"),
                         (radialflow, "PolarMismatchError"), (radialflow, "_check_real"),
                         (model, "_polar_deviation"), (model, "PolarMismatchError"),
                         (model, "_rerun_bounded"), (ingest, "SolveState")):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(module, name)


def test_renumber_is_called_through_ingest(capsys, monkeypatch):
    """solve --renumber looks renumber_sequential up on ingest when it runs,
    so a wrapper bound there (a tracer's) sees the call."""
    from radialflow import ingest

    calls = []
    renumber = ingest.renumber_sequential
    monkeypatch.setattr(ingest, "renumber_sequential",
                        lambda *a, **k: calls.append(a[0].source_name) or renumber(*a, **k))
    assert run(capsys, "solve", "--renumber", BUS33)[0] == EXIT_OK
    assert calls == [BUS33]


def test_moved_commands_keep_their_names_in_cli(capsys):
    """cli.cmd_validate, cmd_compare and cmd_bench are still called with the
    parsed arguments alone, as every command is."""
    for name, argv in (("cmd_validate", ["validate", BUS33]),
                       ("cmd_compare", ["compare", BUS69, "--golden", GOLDEN]),
                       ("cmd_bench", ["bench", "--sizes", "4", "--leaf-fractions", "0.5"])):
        command = getattr(cli, name)
        assert command.__name__ == name
        assert command(cli.build_parser().parse_args(argv)) == EXIT_OK
    assert capsys.readouterr().out.startswith("NB=33 LN=32 ties=0")


def test_a_command_runs_under_run_module_without_alter_sys():
    """runpy.run_module(name, run_name="__main__") runs cli in a bare dict,
    not in the module sys.modules holds as __main__: cli registers nothing
    then, so the caller's module is not taken for radialflow.cli, and
    _commands imports the module itself."""
    code = ("import runpy, sys\nsys.argv[0] = 'radialflow'\n"
            "try:\n    runpy.run_module('radialflow.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    print(exc.code, sys.modules['radialflow.cli'].__name__)\n")
    proc = subprocess.run([sys.executable, "-c", code, "validate", BUS33],
                          capture_output=True, env=subprocess_env(), text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "NB=33 LN=32 ties=0 leaves=4 ordered=yes\n0 radialflow.cli\n", "")


class TestBench:
    def test_smallest_case_saves_steps(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "2", "--leaf-fractions", "0.5",
                           "--seed", "3")
        assert code == EXIT_OK
        row = out.splitlines()[1].split()
        proposed, baseline = int(row[4]), int(row[6])
        assert proposed < baseline

    def test_generator_needs_two_nodes(self):
        with pytest.raises(ValueError, match="^need at least 2 nodes$"):
            generate_random_table(1, 0.5, random.Random(0))

    def test_deterministic_for_fixed_seed(self, capsys):
        args = ("bench", "--sizes", "8", "16", "--leaf-fractions", "0.2", "0.5", "--seed", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_predictions_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "30", "--leaf-fractions", "0.3",
                           "--seed", "5")
        assert code == EXIT_OK
        row = out.splitlines()[1].split()
        measured_p, pred_p = int(row[4]), int(row[5])
        measured_b, pred_b = int(row[6]), int(row[7])
        assert abs(measured_p - pred_p) / pred_p < 0.25
        assert abs(measured_b - pred_b) / pred_b < 0.25
