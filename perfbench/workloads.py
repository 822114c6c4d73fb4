"""Seeded job generators for the benchmark workloads.

A job is one run configuration fed to the four CLI commands
``analyze -> synthesize -> simulate -> verify``.  Every job is drawn from
``(seed, job index)`` alone, so the same seed yields byte-identical configs
whatever order or number of jobs a run gets through.

Every generated job is certified: its schedule clears the per-switch margin
``beta * gap - ln lambda_ij > kappa0`` of the design that ``synthesize``
will compute.  The expected outcome of each command is therefore exit code 0
and verdict PASS.  A job may carry ``known_defect``: the reason a FAIL
verdict on it is today's recorded baseline rather than a new failure.

The generators call the package (``synthesize``) once per run or per job to
place dwell times above tau*; that work happens before timing starts.
"""

import math
from dataclasses import dataclass

import numpy as np

from switched_consensus import synthesis, topology, vtol

KAPPA0 = 1e-3
DOUBLE_INTEGRATOR_A = [[0.0, 1.0], [0.0, 0.0]]
DOUBLE_INTEGRATOR_B = [[0.0], [1.0]]

# Full-state simulation loses the disagreement in the round-off of the
# growing agreement component (ROADMAP open item 2).
DEFECT_ROUNDOFF = "full-state disagreement at the round-off floor (ROADMAP item 2)"


@dataclass(frozen=True)
class Job:
    """One generated config with the facts its outputs are checked against.

    `min_gap` is the shortest interval between switches, which the design's
    tau* must lie below; `switches` is the number of switch instants, each
    of which adds a row to the trajectory CSV.
    """

    index: int
    config: dict
    label: str
    min_gap: float
    switches: int
    known_defect: str = None


def _rng(seed, index, stream=0):
    return np.random.default_rng([seed, index, stream])


def _periodic_switches(dwell, horizon):
    """Switch instants of a round-robin schedule, as ``periodic_signal`` places them."""
    k = 1
    while k * dwell < horizon - 1e-9 * dwell:
        k += 1
    return k - 1


def _config(a, b, graphs, switching, synth, sim):
    return {
        "schema_version": 1,
        "system": {"a": a, "b": b},
        "graphs": graphs,
        "switching": switching,
        "synthesis": synth,
        "simulation": sim,
    }


def _design(a, b, graph_docs, beta, c_values=None, alpha=None):
    graphs = [topology.graph_from_dict(g) for g in graph_docs]
    reduced = [
        topology.reduce_laplacian(topology.laplacian(g), pos)
        for pos, g in enumerate(graphs, start=1)
    ]
    return synthesis.synthesize(
        np.asarray(a), np.asarray(b), reduced, beta, c_values=c_values, alpha=alpha
    )


class VtolSweep:
    """The paper's five-aircraft VTOL system, swept like a designer would.

    Each job draws beta, a dwell above tau*(beta), an x0 seed and a horizon.
    Horizons come in seeded blocks of three holding 10 s twice and 30 s
    once, so the job-time median sits inside the 10 s cluster instead of on
    the edge between two clusters.
    """

    name = "vtol-sweep"
    why = ("the designer's parameter loop on the paper's VTOL system; small "
           "matrices, so Python overhead and CLI glue dominate")
    HORIZONS = (10.0, 10.0, 30.0)

    def __init__(self, seed, scale="full"):
        self.seed = seed
        self.graphs = [topology.graph_to_dict(g) for g in vtol.load_graphs()]
        c_values = [vtol.C_VALUE, vtol.C_VALUE]
        # The certificates depend on c only, so lambda_max holds for every beta.
        self.lambda_max = _design(vtol.A.tolist(), vtol.B.tolist(), self.graphs,
                                  vtol.BETA, c_values, vtol.ALPHA).lambda_max
        self.synth = {"c_values": c_values, "alpha": vtol.ALPHA, "kappa0": KAPPA0}

    def job(self, index):
        rng = _rng(self.seed, index)
        beta = float(rng.uniform(2.0, 4.0))
        tau_star = math.log(self.lambda_max) / beta
        dwell = float(tau_star * rng.uniform(1.2, 2.0))
        block = _rng(self.seed, index // 3, stream=1).permutation(len(self.HORIZONS))
        horizon = self.HORIZONS[int(block[index % 3])]
        config = _config(
            vtol.A.tolist(), vtol.B.tolist(), self.graphs,
            {"periodic": {"dwell": dwell, "horizon": horizon}},
            dict(self.synth, beta=beta),
            {"seed": int(rng.integers(0, 2**31)), "dt": vtol.DT,
             "tolerance": vtol.TOLERANCE, "window": vtol.WINDOW},
        )
        defect = DEFECT_ROUNDOFF if horizon > vtol.HORIZON else None
        return Job(index, config, f"H={horizon:g}s", dwell,
                   _periodic_switches(dwell, horizon), defect)


def ring_graph(n):
    """Directed ring 1 -> 2 -> ... -> n -> 1."""
    edges = [{"from": i, "to": i % n + 1, "weight": 1.0} for i in range(1, n + 1)]
    return {"node_count": n, "edges": edges}


def pinned_path_graph(n):
    """Bidirectional path over agents 1..n-1, pinned by leader n -> 1.

    The leader is the only root, and it is the last candidate a root search
    in index order reaches.
    """
    edges = []
    for i in range(1, n - 1):
        edges.append({"from": i, "to": i + 1, "weight": 1.0})
        edges.append({"from": i + 1, "to": i, "weight": 1.0})
    edges.append({"from": n, "to": 1, "weight": 1.0})
    return {"node_count": n, "edges": edges}


class LargeN:
    """N=200 double integrators alternating a ring and a leader-pinned path.

    The graphs and beta are fixed, so tau* is computed once per run; each
    job draws the dwell above tau* and the x0 seed.
    """

    name = "large-n"
    why = ("N=200 agents, state dimension 400: dense expm, Lyapunov, "
           "generalized eigh, Kronecker assembly and a 400-column CSV dominate")
    BETA = 2.0
    HORIZON = 10.0
    DT = 0.01

    def __init__(self, seed, scale="full"):
        self.seed = seed
        n = 200 if scale == "full" else 12
        self.graphs = [ring_graph(n), pinned_path_graph(n)]
        self.tau_star = _design(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                                self.graphs, self.BETA).dwell_threshold

    def job(self, index):
        rng = _rng(self.seed, index)
        dwell = float(self.tau_star * rng.uniform(1.1, 1.3))
        config = _config(
            DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, self.graphs,
            {"periodic": {"dwell": dwell, "horizon": self.HORIZON}},
            {"beta": self.BETA, "kappa0": KAPPA0},
            {"seed": int(rng.integers(0, 2**31)), "dt": self.DT,
             "tolerance": 1e-2, "window": 2.0},
        )
        return Job(index, config, f"dwell={dwell:.3g}s", dwell,
                   _periodic_switches(dwell, self.HORIZON))


def random_spanning_digraph(rng, n, extra_prob=0.2):
    """Weighted digraph holding a directed spanning tree, plus random edges."""
    order = rng.permutation(n) + 1
    weights = {}
    for pos in range(1, n):
        parent = int(order[rng.integers(0, pos)])
        weights[(parent, int(order[pos]))] = float(rng.uniform(0.5, 2.0))
    for src in range(1, n + 1):
        for dst in range(1, n + 1):
            if src != dst and (src, dst) not in weights and rng.random() < extra_prob:
                weights[(src, dst)] = float(rng.uniform(0.5, 2.0))
    edges = [{"from": s, "to": d, "weight": w} for (s, d), w in sorted(weights.items())]
    return {"node_count": n, "edges": edges}


class LongSchedule:
    """N=10 double integrators under an explicit irregular schedule.

    Each job draws four random digraphs holding spanning trees, computes the
    design's tau* once, and then draws every gap above tau* (plus a margin
    for kappa0) and a topology sequence that never repeats a topology at a
    switch.  dt is a third of tau*, a few samples per interval.
    """

    name = "long-schedule"
    why = ("2500 irregular intervals on N=10: per-interval expm misses, "
           "per-switch pair eigensolves, the monitor's interval loop and a big config")
    BETA = 1.0
    NODES = 10
    TOPOLOGIES = 4

    def __init__(self, seed, scale="full"):
        self.seed = seed
        self.intervals = 2_500 if scale == "full" else 200

    def job(self, index):
        rng = _rng(self.seed, index)
        graphs = [random_spanning_digraph(rng, self.NODES)
                  for _ in range(self.TOPOLOGIES)]
        tau_star = _design(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, graphs,
                           self.BETA).dwell_threshold
        gaps = tau_star * rng.uniform(1.1, 1.6, self.intervals) + 2 * KAPPA0 / self.BETA
        steps = rng.integers(1, self.TOPOLOGIES, self.intervals)
        indices = (np.cumsum(steps) % self.TOPOLOGIES) + 1
        breakpoints = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
        config = _config(
            DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, graphs,
            {"explicit": {"breakpoints": breakpoints.tolist(),
                          "indices": indices.tolist(),
                          "horizon": float(breakpoints[-1] + gaps[-1])}},
            {"beta": self.BETA, "kappa0": KAPPA0},
            {"seed": int(rng.integers(0, 2**31)), "dt": tau_star / 3.0,
             "tolerance": 1e-2, "window": 20.0 * tau_star},
        )
        return Job(index, config, f"{self.intervals} intervals", float(gaps.min()),
                   self.intervals - 1, DEFECT_ROUNDOFF)


WORKLOADS = {w.name: w for w in (VtolSweep, LargeN, LongSchedule)}
