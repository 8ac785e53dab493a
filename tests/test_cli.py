import json

import pytest

from radialflow import fixtures
from radialflow.cli import (
    EXIT_COMPARE,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOPOLOGY,
    main,
)

BUS69 = str(fixtures.fixture_path(fixtures.BUS69))
BUS33 = str(fixtures.fixture_path(fixtures.BUS33))
GOLDEN = str(fixtures.fixture_path(fixtures.GOLDEN69))


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
    ], ids=["top-level-list", "missing-id", "non-numeric-r"])
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
