"""Consensus protocol synthesis and exact simulation for linear multi-agent
systems under switching directed topologies.

The pipeline: model the candidate topologies as weighted digraphs, reduce
their Laplacians to the disagreement space, certify each topology with a
matrix-inequality solution, synthesize the feedback gain through a Riccati
reduction, derive the dwell-time threshold, and validate the whole design by
exact piecewise-exponential simulation of the switched closed loop.
"""

from .simulator import (
    SimulationDiverged,
    build_closed_loop,
    consensus_verdict,
    lyapunov_monitor,
    simulate,
    write_trajectory_csv,
)
from .synthesis import (
    InfeasibleError,
    check_schedule,
    coupling_threshold,
    dwell_threshold,
    max_feasible_beta,
    solve_gain_lmi,
    solve_topology_lmi,
    synthesize,
)
from .topology import (
    DirectedGraph,
    GraphSet,
    antistability_margin,
    has_spanning_tree,
    laplacian,
    periodic_signal,
    reduce_laplacian,
)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph",
    "GraphSet",
    "InfeasibleError",
    "SimulationDiverged",
    "antistability_margin",
    "build_closed_loop",
    "check_schedule",
    "consensus_verdict",
    "coupling_threshold",
    "dwell_threshold",
    "has_spanning_tree",
    "laplacian",
    "lyapunov_monitor",
    "max_feasible_beta",
    "periodic_signal",
    "reduce_laplacian",
    "simulate",
    "solve_gain_lmi",
    "solve_topology_lmi",
    "synthesize",
    "write_trajectory_csv",
]
