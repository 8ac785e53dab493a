"""The exactness check as a test: tools/fingerprint.py, run on the tree under
test, prints the lines tests/data/fingerprint.txt keeps for this Python minor
version, so no value, error text or exit code that the tool hashes drifts
unnoticed, not even in its last bit."""
import subprocess
import sys
from pathlib import Path

import pytest

import radialflow as rf

HERE = Path(__file__).resolve().parent
TOOL = HERE.parent / "tools" / "fingerprint.py"
EXPECTED = HERE / "data" / "fingerprint.txt"


def expected_lines(version: str) -> list[str]:
    """The committed lines of a minor version ("3.11"), without the version."""
    prefix = f"{version} "
    return [line[len(prefix):] for line in EXPECTED.read_text(encoding="utf-8").splitlines()
            if line.startswith(prefix)]


def test_every_minor_version_has_five_lines():
    for version in ("3.10", "3.11", "3.12", "3.13"):
        lines = expected_lines(version)
        assert [line.split()[0] for line in lines] == [
            "reports", "feeder-10k", "scenarios", "defects", "cli"]


def test_the_fingerprint_of_the_tree_under_test_is_the_committed_one():
    version = "%d.%d" % sys.version_info[:2]
    expected = expected_lines(version)
    if not expected:
        pytest.skip(f"tests/data/fingerprint.txt keeps no lines for Python {version}")
    src = Path(rf.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, str(TOOL), str(src)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected
