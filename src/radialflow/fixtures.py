"""Access to the bundled feeder data and golden voltage table."""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .ingest import ParseError, RawTable, parse_branch_table

BUS69 = "bus69.branch"
BUS33 = "bus33.branch"
GOLDEN69 = "golden69_vmag.csv"


def fixture_path(name: str) -> Path:
    path = resources.files("radialflow.data").joinpath(name)
    return Path(str(path))


def load_table(name: str) -> RawTable:
    text = fixture_path(name).read_text()
    return parse_branch_table(text, "delimited", source_name=name)


def load_bus69() -> RawTable:
    return load_table(BUS69)


def load_bus33() -> RawTable:
    return load_table(BUS33)


def read_golden(path: str | Path) -> dict[int, float]:
    """Per-node voltage magnitudes from a node,vmag_pu CSV file.

    Blank lines and the header (any line starting with "node") are skipped.
    Raises ParseError for an unreadable file, or naming path:line for a bad row.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    golden = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("node"):
            continue
        try:
            node, vmag = line.split(",")
            golden[int(node)] = float(vmag)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad golden row {line!r}") from None
    return golden


def load_golden69() -> dict[int, float]:
    """Golden per-node voltage magnitudes for the 69-bus feeder."""
    return read_golden(fixture_path(GOLDEN69))
