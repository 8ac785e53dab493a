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
    renumber_sequential,
    validate_radial,
)
from .solver import (
    NonConvergenceError,
    SolveOptions,
    VoltageCollapseError,
    solve,
    step_model,
)
from .oracle import baseline_solve, downstream_sum, power_balance

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
