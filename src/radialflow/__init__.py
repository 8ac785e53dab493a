"""Load-flow analysis of radial distribution feeders by backward/forward sweep."""

from .model import (
    DEFAULT_BASE,
    BranchRecord,
    DataError,
    LoadFlowError,
    NetworkModel,
    OrderingError,
    PerUnitBase,
    PerUnitBranch,
    Phasor,
    SingularityError,
    SolveReport,
    SolveState,
    TopologyError,
    to_per_unit,
)
from .ingest import (
    ParseError,
    RawTable,
    parse_branch_table,
    validate_radial,
)
from .solver import (
    NonConvergenceError,
    SolveOptions,
    VoltageCollapseError,
    solve,
    step_model,
)

_ORACLE = ("baseline_solve", "downstream_sum", "power_balance")


def __getattr__(name):
    # the oracle and renumbering are imported on first use, so the CLI, which
    # never uses the oracle and renumbers only under --renumber, does not load
    # them to start (PEP 562)
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    if name == "renumber_sequential":
        from ._renumber import renumber_sequential

        return renumber_sequential
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DEFAULT_BASE",
    "BranchRecord",
    "DataError",
    "LoadFlowError",
    "NetworkModel",
    "NonConvergenceError",
    "OrderingError",
    "ParseError",
    "PerUnitBase",
    "PerUnitBranch",
    "Phasor",
    "RawTable",
    "SingularityError",
    "SolveOptions",
    "SolveReport",
    "SolveState",
    "TopologyError",
    "VoltageCollapseError",
    "baseline_solve",
    "downstream_sum",
    "parse_branch_table",
    "power_balance",
    "renumber_sequential",
    "solve",
    "step_model",
    "to_per_unit",
    "validate_radial",
]

__version__ = "0.1.0"
