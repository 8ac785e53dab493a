"""Access to the bundled feeder data and golden voltage table."""
from __future__ import annotations

import math
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
    return parse_branch_table(read_text(fixture_path(name)), "delimited", source_name=name)


def load_bus69() -> RawTable:
    return load_table(BUS69)


def load_bus33() -> RawTable:
    return load_table(BUS33)


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file without a leading byte-order mark, or a
    ParseError naming the file when it cannot be opened or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def read_golden(path: str | Path) -> dict[int, float]:
    """Per-node voltage magnitudes from a node,vmag_pu CSV file.

    Blank lines and the header (any line starting with "node") are skipped.
    Raises ParseError for a file read_text cannot read, or naming path:line
    for a bad row, a magnitude that is not finite or a node listed twice.
    """
    golden = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("node"):
            continue
        try:
            node, vmag = line.split(",")
            node, vmag = int(node), float(vmag)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad golden row {line!r}") from None
        if not math.isfinite(vmag):
            raise ParseError(f"{path}:{lineno}: golden magnitude of node {node} is not finite")
        if node in golden:
            raise ParseError(f"{path}:{lineno}: node {node} is listed twice")
        golden[node] = vmag
    return golden


def load_golden69() -> dict[int, float]:
    """Golden per-node voltage magnitudes for the 69-bus feeder."""
    return read_golden(fixture_path(GOLDEN69))
