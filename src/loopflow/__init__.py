"""loopflow: steady-state flow and diameter solver for looped pipe networks.

Supports distribution-pressure natural gas (Renouard pressure functions)
and water (Colebrook-White friction with Darcy-Weisbach drops) over the
same network model, with three interchangeable solvers and the inverse
diameter-sizing problem.
"""

from .fileio import NetworkFileError, parse_network, write_network, write_trace
from .model import (
    FlowState,
    FluidSpec,
    Network,
    NodeSpec,
    Pipe,
    SolveReport,
    feasible_initial_flows,
    node_imbalances,
    validate,
)
from .sizing import SizingConfig, SizingReport, optimize_diameters
from .solvers import (
    HARDY_CROSS,
    HARDY_CROSS_IMPROVED,
    METHODS,
    NODE_LOOP,
    InfeasiblePressureError,
    SolverConfig,
    evaluate_loops,
    propagate_pressures,
    solve,
    solve_hardy_cross_improved,
    solve_hardy_cross_original,
    solve_node_loop,
)
from .topology import LoopBasis

__version__ = "0.1.0"

__all__ = [
    "FlowState",
    "FluidSpec",
    "HARDY_CROSS",
    "HARDY_CROSS_IMPROVED",
    "InfeasiblePressureError",
    "LoopBasis",
    "METHODS",
    "Network",
    "NetworkFileError",
    "NodeSpec",
    "NODE_LOOP",
    "Pipe",
    "SizingConfig",
    "SizingReport",
    "SolveReport",
    "SolverConfig",
    "evaluate_loops",
    "feasible_initial_flows",
    "node_imbalances",
    "optimize_diameters",
    "parse_network",
    "propagate_pressures",
    "solve",
    "solve_hardy_cross_improved",
    "solve_hardy_cross_original",
    "solve_node_loop",
    "validate",
    "write_network",
    "write_trace",
]
