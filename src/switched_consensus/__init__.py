"""Consensus protocol synthesis and exact simulation for linear multi-agent
systems under switching directed topologies.

The pipeline: model the candidate topologies as weighted digraphs, reduce
their Laplacians to the disagreement space, certify each topology with a
matrix-inequality solution, synthesize the feedback gain through a Riccati
reduction, derive the dwell-time threshold, and validate the whole design by
exact piecewise-exponential simulation of the switched closed loop.
"""

from .linalg import (
    eigenvalues,
    expm,
    is_positive_definite,
    max_generalized_eigenvalue,
    solve_care,
    solve_lyapunov,
)
from .simulator import (
    SimulationDiverged,
    SwitchedClosedLoop,
    TrajectoryRecord,
    build_closed_loop,
    consensus_verdict,
    disagreement,
    lyapunov_monitor,
    simulate,
    write_trajectory_csv,
)
from .synthesis import (
    GainDesign,
    InfeasibleError,
    TopologyCertificate,
    check_schedule,
    choose_c,
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
    ReducedLaplacian,
    SwitchingSignal,
    active_index,
    antistability_margin,
    has_spanning_tree,
    laplacian,
    load_graph,
    periodic_signal,
    reduce_laplacian,
    save_graph,
)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph",
    "GainDesign",
    "GraphSet",
    "InfeasibleError",
    "ReducedLaplacian",
    "SimulationDiverged",
    "SwitchedClosedLoop",
    "SwitchingSignal",
    "TopologyCertificate",
    "TrajectoryRecord",
    "active_index",
    "antistability_margin",
    "build_closed_loop",
    "check_schedule",
    "choose_c",
    "consensus_verdict",
    "coupling_threshold",
    "disagreement",
    "dwell_threshold",
    "eigenvalues",
    "expm",
    "has_spanning_tree",
    "is_positive_definite",
    "laplacian",
    "load_graph",
    "lyapunov_monitor",
    "max_feasible_beta",
    "max_generalized_eigenvalue",
    "periodic_signal",
    "reduce_laplacian",
    "save_graph",
    "simulate",
    "solve_care",
    "solve_gain_lmi",
    "solve_lyapunov",
    "solve_topology_lmi",
    "synthesize",
    "write_trajectory_csv",
]
