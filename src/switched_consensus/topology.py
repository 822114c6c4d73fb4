"""Directed communication topologies and switching signals.

Weighted digraphs with their Laplacians, directed-spanning-tree checks, the
disagreement-space reduction of the Laplacian, and piecewise-constant
switching signals with dwell-time bookkeeping.

Edge orientation convention: an edge ``from -> to`` means information flows
from node `from` to node `to`, i.e. it contributes the adjacency weight
``a[to, from] > 0``.  Node indices are 1-based in all public interfaces
(edge lists, roots, topology indices); arrays are 0-based internally.
"""

import json
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, schema

# Row sums of a Laplacian may deviate from zero by this much (relative to
# the largest weight) before the matrix is rejected.
ROW_SUM_RTOL = 1e-9

__all__ = [
    "DirectedGraph",
    "GraphSet",
    "ReducedLaplacian",
    "SwitchingSignal",
    "antistability_margin",
    "graph_from_dict",
    "graph_to_dict",
    "has_spanning_tree",
    "laplacian",
    "load_graph",
    "periodic_signal",
    "reduce_laplacian",
    "save_graph",
]


@dataclass
class DirectedGraph:
    """Weighted directed graph on N nodes.

    ``weights[i, j] > 0`` means an edge from node j+1 to node i+1 (information
    flows j -> i).  Self-weights must be zero; all weights non-negative and
    finite.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if not np.isfinite(w).all():
            raise ValueError("weights contain non-finite entries")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        if w.diagonal().any():
            raise ValueError("self-weights a_ii must be zero")
        self.weights = w

    @property
    def node_count(self):
        return self.weights.shape[0]

    @classmethod
    def from_edges(cls, node_count, edges):
        """Build a graph from 1-based ``(from, to)`` or ``(from, to, weight)`` tuples.

        The ends are integers, not bools, and an ordered pair may appear once.
        """
        edges = list(edges)
        for edge in edges:
            if not all(isinstance(end, numbers.Integral) and not isinstance(end, bool)
                       for end in edge[:2]):
                raise ValueError(f"edge ({edge[0]!r}, {edge[1]!r}): nodes must be "
                                 "integers")
        return cls._from_columns(node_count, [e[0] for e in edges],
                                 [e[1] for e in edges],
                                 [e[2] if len(e) > 2 else 1.0 for e in edges])

    @classmethod
    def _from_columns(cls, node_count, src, dst, weights):
        """Build a graph from lists of the 1-based ends and the weights of its edges.

        An ordered pair may appear once; a repeat is rejected, naming both edges.
        A self-loop is rejected whatever its weight, naming the edge.
        """
        cells = [(d - 1) * node_count + s - 1 for s, d in zip(src, dst)]  # w[d-1, s-1]
        ends = src + dst
        if ends and not 1 <= min(ends) <= max(ends) <= node_count \
                or len(set(cells)) < len(cells) or any(map(operator.eq, src, dst)):
            first = {}
            for k, pair in enumerate(zip(src, dst)):  # the naming loop
                if not 1 <= min(pair) <= max(pair) <= node_count:
                    raise ValueError(f"edges[{k}]: {pair} out of range 1..{node_count}")
                if pair[0] == pair[1]:
                    raise ValueError(f"edges[{k}]: {pair} is a self-loop")
                if first.setdefault(pair, k) != k:
                    raise ValueError(f"edges[{first[pair]}] and edges[{k}] are both "
                                     f"the edge {pair}")
        w = np.zeros(node_count * node_count)
        w[cells] = weights
        return cls(w.reshape(node_count, node_count))

    def edges(self):
        """Edge list as 1-based ``(from, to, weight)`` tuples, sorted by (from, to)."""
        # Row-major order over weights.T is (from, to) order.
        src, dst = np.nonzero(self.weights.T > 0)
        weights = self.weights.T[src, dst]
        return list(zip((src + 1).tolist(), (dst + 1).tolist(), weights.tolist()))


@dataclass
class GraphSet:
    """Ordered collection of candidate topologies over a common node set."""

    graphs: tuple

    def __post_init__(self):
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValueError("graph set must be non-empty")
        n = graphs[0].node_count
        for k, g in enumerate(graphs):
            if g.node_count != n:
                raise ValueError(
                    f"graph {k + 1} has {g.node_count} nodes, expected {n}"
                )
        self.graphs = graphs

    @property
    def node_count(self):
        return self.graphs[0].node_count

    def __len__(self):
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def __getitem__(self, index):
        return self.graphs[index]


@dataclass
class SwitchingSignal:
    """Piecewise-constant topology schedule sigma(t) on [0, horizon).

    `breakpoints` start at 0 and are strictly increasing; `indices` holds the
    1-based topology index active on each interval ``[t_k, t_{k+1})`` (the
    last interval runs to the horizon).  sigma is right-continuous at the
    breakpoints.  Dwell bounds satisfy ``tau1 > t_{k+1} - t_k >= tau0 > 0``;
    when omitted they are derived from the breakpoints themselves.
    """

    breakpoints: np.ndarray
    indices: np.ndarray
    horizon: float
    tau0: float = None
    tau1: float = None

    def __post_init__(self):
        t = np.asarray(self.breakpoints, dtype=float)
        idx = np.asarray(self.indices, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("breakpoints must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(t)):
            raise ValueError("breakpoints must be finite")
        if t[0] != 0.0:
            raise ValueError(f"first breakpoint must be 0, got {t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if idx.shape != t.shape:
            raise ValueError("breakpoints and indices must have equal length")
        if not np.all(np.isfinite(idx) & (idx == np.round(idx))):
            raise ValueError("topology indices must be integers")
        idx = idx.astype(int)
        if np.any(idx < 1):
            raise ValueError("topology indices are 1-based and must be >= 1")
        horizon = float(self.horizon)
        if not t[-1] < horizon < np.inf:
            raise ValueError(f"horizon {horizon} must be finite and exceed the "
                             f"last breakpoint {t[-1]}")
        gaps = np.diff(t)
        tau0 = float(self.tau0) if self.tau0 is not None else (
            float(gaps.min()) if gaps.size else horizon
        )
        tau1 = float(self.tau1) if self.tau1 is not None else np.inf
        if not 0 < tau0 < np.inf:
            raise ValueError(f"tau0 must be positive and finite, got {tau0}")
        if not tau1 > tau0:
            raise ValueError(f"tau1 must exceed tau0 = {tau0}, got {tau1}")
        # Breakpoints built by multiplication wobble by an ulp; allow that.
        slack = 1e-9 * max(tau0, float(gaps.max()) if gaps.size else 0.0)
        if gaps.size and (gaps.min() < tau0 - slack or gaps.max() >= tau1 - slack):
            raise ValueError(
                f"dwell bounds violated: intervals in [{gaps.min()}, {gaps.max()}] "
                f"must satisfy tau1 > gap >= tau0 with tau0={tau0}, tau1={tau1}"
            )
        self.breakpoints = t
        self.indices = idx
        self.horizon = horizon
        self.tau0 = tau0
        self.tau1 = tau1

    def validate_against(self, graph_count):
        if self.indices.max() > graph_count:
            raise ValueError(
                f"signal references topology {self.indices.max()} but only "
                f"{graph_count} graphs are available"
            )


@dataclass
class ReducedLaplacian:
    """(N-1)x(N-1) matrix governing the disagreement dynamics of one topology.

    Equals ``Xi @ L @ Pi`` for the source Laplacian L, with Xi = [I, -1] and
    Pi = [I; 0].  Antistable (all eigenvalues in the open right half-plane)
    exactly when the source graph contains a directed spanning tree.

    `matrix` is a read-only copy, so the spectrum, solved on first use and
    then cached, cannot go stale.
    """

    matrix: np.ndarray
    source_index: int = field(default=0)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"reduced Laplacian must be square, got {m.shape}")
        m.flags.writeable = False
        self.matrix = m

    @cached_property
    def spectrum(self):
        """Eigenvalues of `matrix` (complex, with multiplicity, unordered).

        The source Laplacian is similar to ``[[Lh, 0], [l, 0]]``, so its
        spectrum is this one plus a single 0.
        """
        return linalg.eigenvalues(self.matrix)


def laplacian(g):
    """Graph Laplacian L = D - A with row sums exactly zero.

    Off-diagonals are the negated weights; each diagonal entry is the sum of
    the corresponding row of the weight matrix.
    """
    w = g.weights
    lap = -w.copy()
    np.fill_diagonal(lap, w.sum(axis=1))
    return lap


def reduce_laplacian(lap, source_index=0):
    """Reduce an NxN Laplacian to the (N-1)x(N-1) disagreement-space matrix.

    Computes ``Xi @ L @ Pi``, which entrywise is ``L[j, k] - L[N-1, k]`` for
    j, k < N-1.  Rejects inputs whose row sums are not zero (within
    tolerance), since the reduction is only meaningful for Laplacians.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"Laplacian must be square, got shape {lap.shape}")
    n = lap.shape[0]
    if n < 2:
        raise ValueError("reduction needs at least two nodes")
    scale = max(1.0, np.abs(lap).max())
    row_sums = np.abs(lap.sum(axis=1)).max()
    if row_sums > ROW_SUM_RTOL * scale:
        raise ValueError(
            f"not a valid Laplacian: max row sum {row_sums:.3e} exceeds "
            f"{ROW_SUM_RTOL:.1e} * {scale:.3e}"
        )
    reduced = lap[: n - 1, : n - 1] - lap[n - 1, : n - 1]
    return ReducedLaplacian(reduced, source_index)


def has_spanning_tree(g):
    """Directed-spanning-tree test in three linear reachability passes.

    Returns ``(verdict, root)`` where `root` is the smallest 1-based witness
    root when the verdict is True, else None.  Node j reaches node i directly
    when ``weights[i, j] > 0``.  Searching from each node not yet reached
    leaves a candidate, the last search start, which is a root if any node
    is; the roots are then exactly the nodes that reach the candidate.
    """
    n = g.node_count
    forward = [[] for _ in range(n)]
    backward = [[] for _ in range(n)]
    heads, tails = np.nonzero(g.weights > 0)
    for i, j in zip(heads.tolist(), tails.tolist()):
        forward[j].append(i)
        backward[i].append(j)
    seen = [False] * n
    for start in range(n):
        if not seen[start]:
            _mark_reachable(forward, start, seen)
            candidate = start
    if not all(_mark_reachable(forward, candidate, [False] * n)):
        return False, None
    return True, _mark_reachable(backward, candidate, [False] * n).index(True) + 1


def _mark_reachable(adjacency, start, seen):
    """Mark the nodes reachable from `start` in the list `seen`; return it."""
    seen[start] = True
    stack = [start]
    while stack:
        for i in adjacency[stack.pop()]:
            if not seen[i]:
                seen[i] = True
                stack.append(i)
    return seen


def antistability_margin(reduced):
    """Smallest real part over the spectrum of a reduced Laplacian.

    Positive exactly when the source graph contains a directed spanning tree;
    a non-positive margin means synthesis is impossible for that topology.
    """
    if reduced.matrix.size == 0:
        return np.inf
    return float(reduced.spectrum.real.min())


def periodic_signal(graph_count, dwell, horizon):
    """Round-robin switching signal 1, 2, ..., p, 1, ... with a uniform dwell.

    Breakpoints are multiples of `dwell` strictly inside [0, horizon); the
    final interval is truncated by the horizon.
    """
    if dwell <= 0:
        raise ValueError(f"dwell must be positive, got {dwell}")
    if horizon <= dwell:
        raise ValueError(f"horizon {horizon} must exceed the dwell {dwell}")
    if graph_count < 1:
        raise ValueError("need at least one topology")
    # Breakpoints are k * dwell for every k with k * dwell below the guard,
    # which keeps float noise from creating a near-empty trailing interval.
    # Multiplying rather than accumulating makes them reproducible; k * dwell
    # is monotone in k, so the count is fixed up from its quotient estimate.
    end = horizon - 1e-9 * dwell
    count = int(np.ceil(end / dwell))
    while count * dwell < end:
        count += 1
    while (count - 1) * dwell >= end:
        count -= 1
    k = np.arange(count)
    return SwitchingSignal(
        k * float(dwell), k % graph_count + 1, float(horizon), tau0=dwell
    )


def graph_to_dict(g):
    """Graph interchange document: node count plus a 1-based edge list."""
    return {
        "node_count": g.node_count,
        "edges": [
            {"from": src, "to": dst, "weight": weight}
            for src, dst, weight in g.edges()
        ],
    }


def graph_from_dict(doc):
    """Inverse of :func:`graph_to_dict`; round-trips weights bit-exactly.

    The document is checked against the ``graphs[]`` fields of
    `schema.FIELDS`; the first entry that breaks them is named.
    """
    doc = schema.fields(doc, "graphs[]")
    edges = doc["edges"]
    return DirectedGraph._from_columns(doc["node_count"], edges["from"], edges["to"],
                                       edges["weight"])


def save_graph(g, path):
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path):
    with open(path) as fh:
        return graph_from_dict(json.load(fh))
