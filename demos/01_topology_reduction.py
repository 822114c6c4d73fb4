"""Topologies of the VTOL formation: Laplacians, spanning trees, reduction.

Walks through the graph-side machinery on the two built-in communication
topologies: adjacency/Laplacian construction, the directed-spanning-tree
check with its witness root, and the reduction to the disagreement space
whose antistability margin decides whether synthesis is possible at all.
"""

import numpy as np

from switched_consensus import (
    antistability_margin,
    has_spanning_tree,
    laplacian,
    reduce_laplacian,
)
from switched_consensus.vtol import load_graphs

np.set_printoptions(precision=4, suppress=True)

graphs = load_graphs()
print(f"{len(graphs)} topologies over {graphs.node_count} aircraft\n")

for pos, g in enumerate(graphs, start=1):
    print(f"--- topology {pos} ---")
    print("edges (from -> to):", [(f, t) for f, t, _ in g.edges()])

    ok, root = has_spanning_tree(g)
    print(f"directed spanning tree: {ok}, rooted at aircraft {root}")

    lap = laplacian(g)
    print("Laplacian:")
    print(lap)
    print("row sums:", lap.sum(axis=1), "(zero by construction)")

    red = reduce_laplacian(lap, pos)
    print("reduced to the disagreement space:")
    print(red.matrix)

    margin = antistability_margin(red)
    print("reduced spectrum:", np.sort_complex(red.spectrum))
    print(f"antistability margin: {margin:.6g}")
    print("any c in (0, margin) is admissible for the per-topology "
          f"inequality; the demo uses c = 0.25 < {margin:.6g}\n")

# A topology without a spanning tree is useless for consensus: its reduced
# matrix picks up an eigenvalue at (or left of) zero.
from switched_consensus import DirectedGraph

broken = DirectedGraph.from_edges(5, [(1, 2), (3, 4)])
ok, _ = has_spanning_tree(broken)
margin = antistability_margin(reduce_laplacian(laplacian(broken)))
print("--- counterexample: two disconnected islands ---")
print(f"spanning tree: {ok}; antistability margin: {margin:.6g}")
