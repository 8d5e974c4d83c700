"""Compile graph reachability constraints (Hamiltonian cycles, connected
subgraphs) to CNF, solve with a built-in or external SAT solver, optimize
Boolean sums by binary search, and solve four grid loop/coloring puzzles."""

from .cnf import BitVec, CnfBuilder, Lit, UnaryCount, distance_width, parse_dimacs
from .graph import (
    EdgeSpec,
    GridVars,
    VertexSpec,
    hcp,
    hcp_grid,
    make_grid,
    scc,
    scc_grid,
)
from .optimize import OptimizeResult, maximize
from .solver import (
    Model,
    SolveOutcome,
    check_model,
    solve_external,
    solve_internal,
)

__version__ = "0.1.0"
