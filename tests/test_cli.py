import json
import os
import subprocess
import sys

import pytest

from radialflow import fixtures, oracle
from radialflow.cli import (
    EXIT_COMPARE,
    EXIT_ERROR,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOPOLOGY,
    main,
)

BUS69 = str(fixtures.fixture_path(fixtures.BUS69))
BUS33 = str(fixtures.fixture_path(fixtures.BUS33))
GOLDEN = str(fixtures.fixture_path(fixtures.GOLDEN69))


def subprocess_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no/such/file")
        assert code == EXIT_PARSE
        assert "cannot read" in err


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

    @pytest.mark.parametrize("argv", [
        ("solve", BUS69, "--tol", "0"),
        ("solve", BUS69, "--tol", "nan"),
        ("solve", BUS69, "--tol=-inf"),
        ("solve", BUS69, "--max-iter", "0"),
        ("compare", BUS69, "--golden", GOLDEN, "--tol", "inf"),
        ("compare", BUS69, "--golden", GOLDEN, "--bound", "nan"),
        ("bench", "--leaf-fractions", "0.3", "--sizes", "1"),
        ("bench", "--sizes", "8", "--leaf-fractions", "nan"),
        ("bench", "--sizes", "8", "--leaf-fractions", "0.3", "--max-iter", "0"),
    ], ids=["tol-zero", "tol-nan", "tol-minus-inf", "max-iter-zero", "compare-tol-inf",
            "compare-bound-nan", "bench-size-one", "bench-fraction-nan", "bench-max-iter-zero"])
    def test_bad_option_value_exits_usage(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "radialflow.cli", *argv],
            capture_output=True, env=subprocess_env(), text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: radialflow ")
        assert "error: argument --" in proc.stderr and ": must be " in proc.stderr
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

    def test_tie_to_unknown_node_exits_topology(self, capsys, tmp_path):
        path = tmp_path / "tie.branch"
        path.write_text("1 1 2 0.1 0.1 10 5\n2 2 3 0.1 0.1 10 5\n3* 3 99 0.1 0.1\n")
        for extra in ((), ("--renumber",)):
            code, _, err = run(capsys, "solve", str(path), *extra)
            assert code == EXIT_TOPOLOGY
            assert "tie branch 3 ends at node 99" in err

    @pytest.mark.parametrize("doc", [
        [{"id": 1, "from": 1, "to": 2, "r": 0.1, "x": 0.05}],
        {"branches": [{"from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
        {"branches": [{"id": 1, "from": 1, "to": 2, "r": "x", "x": 0.05}]},
        {"branches": [{"id": 0, "from": 1, "to": 2, "r": 0.1, "x": 0.05}]},
        {"branches": [{"id": 1, "from": 1, "to": 2, "r": -0.1, "x": 0.05}]},
    ], ids=["top-level-list", "missing-id", "non-numeric-r", "id-zero", "negative-r"])
    def test_malformed_json_exits_parse(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", str(path))
        assert code == EXIT_PARSE
        assert err.startswith(f"parse error: {path}: ")


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
        original = fixtures.load_golden69()
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
    ], ids=["missing-file", "bad-row"])
    def test_unreadable_golden_exits_parse(self, capsys, tmp_path, text, message):
        path = tmp_path / "golden.csv"
        if text is not None:
            path.write_text(text)
        code, _, err = run(capsys, "compare", BUS69, "--golden", str(path))
        assert code == EXIT_PARSE
        assert err.startswith(message.format(path=path))


class TestBench:
    def test_smallest_case_saves_steps(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "2", "--leaf-fractions", "0.5",
                           "--seed", "3")
        assert code == EXIT_OK
        row = out.splitlines()[1].split()
        proposed, baseline = int(row[4]), int(row[6])
        assert proposed < baseline

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
