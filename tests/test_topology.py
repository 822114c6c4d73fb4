import json

import numpy as np
import pytest

from switched_consensus import topology
from switched_consensus.topology import (
    DirectedGraph,
    GraphSet,
    SwitchingSignal,
    antistability_margin,
    graph_from_dict,
    graph_to_dict,
    has_spanning_tree,
    laplacian,
    load_graph,
    periodic_signal,
    reduce_laplacian,
    save_graph,
)

from conftest import (
    LHAT_1,
    LHAT_2,
    active_index,
    interval_count,
    pi_matrix,
    xi_matrix,
)


def brute_force_root(weights):
    """Oracle: reachability search from every node in index order.

    Returns the first 1-based node that reaches every node, or None.
    """
    n = weights.shape[0]
    for root in range(n):
        seen = {root}
        frontier = [root]
        while frontier:
            j = frontier.pop()
            for i in range(n):
                if weights[i, j] > 0 and i not in seen:
                    seen.add(i)
                    frontier.append(i)
        if len(seen) == n:
            return root + 1
    return None


def brute_force_spanning_tree(weights):
    return brute_force_root(weights) is not None


def random_graph(rng, max_n=8):
    """Random digraph with dyadic weights so Laplacian row sums are exact."""
    n = int(rng.integers(2, max_n + 1))
    w = rng.integers(0, 8, size=(n, n)) * 0.25 * (rng.random((n, n)) < 0.3)
    np.fill_diagonal(w, 0.0)
    return DirectedGraph(w)


class TestDirectedGraph:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            DirectedGraph(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_rejects_self_weight(self):
        with pytest.raises(ValueError, match="a_ii"):
            DirectedGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DirectedGraph(np.zeros((2, 3)))

    @pytest.mark.parametrize("edge", [("a", 2), (1, 2.0), (None, 1), (True, 2)])
    def test_from_edges_rejects_non_integer_nodes(self, edge):
        with pytest.raises(ValueError, match="nodes must be integers"):
            DirectedGraph.from_edges(2, [edge])

    def test_from_edges_orientation(self):
        # Edge 1 -> 2 contributes a_21.
        g = DirectedGraph.from_edges(2, [(1, 2)])
        assert g.weights[1, 0] == 1.0
        assert g.weights[0, 1] == 0.0

    def test_edges_round_trip(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng)
        rebuilt = DirectedGraph.from_edges(g.node_count, g.edges())
        assert np.array_equal(rebuilt.weights, g.weights)
        # Same list as a scan of every entry, sorted by (from, to).
        for _ in range(50):
            n = int(rng.integers(1, 12))
            w = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
            np.fill_diagonal(w, 0.0)
            g = DirectedGraph(w)
            loop = sorted(
                (j + 1, i + 1, float(w[i, j]))
                for i in range(n) for j in range(n) if w[i, j] > 0
            )
            edges = g.edges()
            assert edges == loop
            assert all(type(v) is t for e in edges for v, t in zip(e, (int, int, float)))


class TestGraphSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            GraphSet(())

    def test_rejects_mixed_node_counts(self):
        g2 = DirectedGraph(np.zeros((2, 2)))
        g3 = DirectedGraph(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="nodes"):
            GraphSet((g2, g3))


class TestLaplacian:
    def test_single_edge(self):
        g = DirectedGraph.from_edges(2, [(1, 2)])
        assert np.array_equal(laplacian(g), np.array([[0.0, 0.0], [-1.0, 1.0]]))

    def test_edgeless(self):
        g = DirectedGraph(np.zeros((4, 4)))
        assert np.array_equal(laplacian(g), np.zeros((4, 4)))

    def test_row_sums_exactly_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lap = laplacian(random_graph(rng))
            assert np.all(lap.sum(axis=1) == 0.0)

    def test_ones_vector_in_kernel(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        lap = laplacian(g)
        assert np.abs(lap @ np.ones(g.node_count)).max() == 0.0


class TestSpanningTree:
    def test_chain(self):
        g = DirectedGraph.from_edges(3, [(1, 2), (2, 3)])
        assert has_spanning_tree(g) == (True, 1)

    def test_isolated_nodes(self):
        assert has_spanning_tree(DirectedGraph(np.zeros((2, 2)))) == (False, None)

    def test_demo_roots(self, vtol_graphs):
        assert has_spanning_tree(vtol_graphs[0]) == (True, 1)
        assert has_spanning_tree(vtol_graphs[1]) == (True, 2)

    def test_strongly_connected_triangle(self):
        g = DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
        ok, root = has_spanning_tree(g)
        assert ok and root in (1, 2, 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        graphs = [random_graph(rng) for _ in range(200)]
        # Sparse graphs up to 40 nodes: many strongly connected components,
        # roots anywhere in index order.
        for _ in range(100):
            n = int(rng.integers(2, 41))
            w = (rng.random((n, n)) < 2.0 / n) * 1.0
            np.fill_diagonal(w, 0.0)
            graphs.append(DirectedGraph(w))
        for g in graphs:
            ok, root = has_spanning_tree(g)
            expected = brute_force_root(g.weights)
            assert (ok, root) == (expected is not None, expected)
            if ok:
                # The witness root really reaches every node.
                single = {root - 1}
                frontier = [root - 1]
                while frontier:
                    j = frontier.pop()
                    for i in range(g.node_count):
                        if g.weights[i, j] > 0 and i not in single:
                            single.add(i)
                            frontier.append(i)
                assert len(single) == g.node_count

    def test_pinned_path_root_is_the_leader(self):
        n = 30
        edges = [(i, i + 1) for i in range(1, n - 1)]
        edges += [(i + 1, i) for i in range(1, n - 1)] + [(n, 1)]
        assert has_spanning_tree(DirectedGraph.from_edges(n, edges)) == (True, n)


class TestReduction:
    def test_zero_laplacian(self):
        red = reduce_laplacian(np.zeros((5, 5)))
        assert np.array_equal(red.matrix, np.zeros((4, 4)))

    def test_demo_matrices_exact(self, vtol_graphs):
        red1 = reduce_laplacian(laplacian(vtol_graphs[0]), 1)
        red2 = reduce_laplacian(laplacian(vtol_graphs[1]), 2)
        assert np.array_equal(red1.matrix, LHAT_1)
        assert np.array_equal(red2.matrix, LHAT_2)

    def test_matches_xi_pi_product(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng)
        lap = laplacian(g)
        n = g.node_count
        expected = xi_matrix(n) @ lap @ pi_matrix(n)
        assert np.allclose(reduce_laplacian(lap).matrix, expected, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        n = 6
        g1 = DirectedGraph(
            (rng.random((n, n)) < 0.4) * 0.5 * (1 - np.eye(n))
        )
        g2 = DirectedGraph(
            (rng.random((n, n)) < 0.4) * 0.25 * (1 - np.eye(n))
        )
        l1, l2 = laplacian(g1), laplacian(g2)
        combined = reduce_laplacian(l1 + l2).matrix
        assert np.allclose(
            combined,
            reduce_laplacian(l1).matrix + reduce_laplacian(l2).matrix,
            atol=1e-14,
        )

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(ValueError, match="row sum"):
            reduce_laplacian(np.eye(3))

    def test_antistability_iff_spanning_tree(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = random_graph(rng)
            red = reduce_laplacian(laplacian(g))
            has, _ = has_spanning_tree(g)
            assert has == (antistability_margin(red) > 1e-9)


class TestAntistabilityMargin:
    def test_identity(self):
        assert antistability_margin(
            topology.ReducedLaplacian(np.eye(4))
        ) == pytest.approx(1.0)

    @pytest.mark.parametrize("lhat", [LHAT_1, LHAT_2])
    def test_demo_values(self, lhat):
        red = topology.ReducedLaplacian(lhat)
        assert antistability_margin(red) == pytest.approx(1.0, abs=1e-8)

    def test_spectrum_solved_once(self, monkeypatch):
        calls = []
        solve = topology.linalg.eigenvalues
        monkeypatch.setattr(topology.linalg, "eigenvalues",
                            lambda m: calls.append(m.shape) or solve(m))
        source = LHAT_1.copy()
        red = topology.ReducedLaplacian(source)
        assert calls == []
        margin = antistability_margin(red)
        assert antistability_margin(red) == margin
        assert red.spectrum.real.min() == margin
        assert calls == [(4, 4)]
        # The cached spectrum belongs to a private, read-only matrix.
        source[0, 0] = 99.0
        assert np.array_equal(red.matrix, LHAT_1)
        with pytest.raises(ValueError):
            red.matrix[0, 0] = 99.0


class TestPeriodicSignal:
    def test_demo_pattern(self):
        s = periodic_signal(2, 0.5, 2.0)
        assert np.allclose(s.breakpoints, [0.0, 0.5, 1.0, 1.5])
        assert list(s.indices) == [1, 2, 1, 2]
        assert s.horizon == 2.0

    def test_single_topology(self):
        # No breakpoint after the first changes the topology: no switch.
        s = periodic_signal(1, 1.0, 3.0)
        assert s.breakpoints.tolist() == [0.0]
        assert list(s.indices) == [1]
        assert s.tau0 == 1.0

    def test_truncated_final_interval(self):
        s = periodic_signal(3, 0.2, 0.5)
        assert np.allclose(s.breakpoints, [0.0, 0.2, 0.4])
        assert list(s.indices) == [1, 2, 3]

    @staticmethod
    def loop_breakpoints(graph_count, dwell, horizon):
        """Reference: one multiple of the dwell at a time, in Python."""
        breakpoints = []
        k = 0
        while k * dwell < horizon - 1e-9 * dwell:
            breakpoints.append(k * dwell)
            k += 1
        indices = [k % graph_count + 1 for k in range(len(breakpoints))]
        return np.array(breakpoints), np.array(indices)

    def test_breakpoints_match_loop(self):
        rng = np.random.default_rng(33)
        cases = [(0.1, 0.3), (0.1, 0.7), (1 / 3, 1.0), (0.7, 7.0), (0.01, 1.0)]
        for _ in range(300):
            dwell = float(rng.uniform(0.001, 5.0))
            k = int(rng.integers(2, 500))
            jitter = float(rng.uniform(-2e-9, 2e-9))
            cases += [(dwell, k * dwell), (dwell, (k + jitter) * dwell),
                      (dwell, float(rng.uniform(1.001, 500.0)) * dwell)]
        for dwell, horizon in cases:
            s = periodic_signal(3, dwell, horizon)
            breakpoints, indices = self.loop_breakpoints(3, dwell, horizon)
            assert s.breakpoints.tobytes() == breakpoints.tobytes()
            assert np.array_equal(s.indices, indices)

    def test_million_intervals(self):
        s = periodic_signal(2, 1e-3, 1000.0)
        breakpoints, indices = self.loop_breakpoints(2, 1e-3, 1000.0)
        assert interval_count(s) == 10**6
        assert s.breakpoints.tobytes() == breakpoints.tobytes()
        assert np.array_equal(s.indices, indices)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            periodic_signal(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            periodic_signal(2, 1.0, 0.5)


class TestSwitchingSignal:
    def test_breakpoint_keeping_the_topology_is_merged(self):
        s = SwitchingSignal(np.array([0.0, 1.0, 1.0005, 2.0]),
                            np.array([1, 2, 2, 1]), 3.0)
        assert s.breakpoints.tolist() == [0.0, 1.0, 2.0]
        assert s.indices.tolist() == [1, 2, 1]
        # The dwell bounds are those of the given breakpoints.
        assert s.tau0 == pytest.approx(0.0005)

    def test_dwell_bounds_checked_before_the_merge(self):
        # The short gap keeps the topology, yet breaks tau0; the merged
        # interval [0, 2.5) is not held to tau1.
        with pytest.raises(ValueError, match="dwell bounds violated"):
            SwitchingSignal(np.array([0.0, 1.0, 1.0005]), np.array([1, 1, 2]),
                            2.0, tau0=0.5)
        s = SwitchingSignal(np.array([0.0, 1.0, 2.0, 2.5]),
                            np.array([1, 1, 1, 2]), 3.0, tau0=0.5, tau1=1.5)
        assert s.breakpoints.tolist() == [0.0, 2.5]

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError, match="first breakpoint"):
            SwitchingSignal(np.array([0.5, 1.0]), np.array([1, 2]), 2.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SwitchingSignal(np.array([0.0, 1.0, 1.0]), np.array([1, 2, 1]), 2.0)

    def test_rejects_horizon_before_last_breakpoint(self):
        with pytest.raises(ValueError, match="horizon"):
            SwitchingSignal(np.array([0.0, 1.0]), np.array([1, 2]), 1.0)

    def test_rejects_dwell_violation(self):
        with pytest.raises(ValueError, match="dwell"):
            SwitchingSignal(
                np.array([0.0, 0.1, 1.0]), np.array([1, 2, 1]), 2.0, tau0=0.5
            )

    def test_rejects_zero_based_indices(self):
        with pytest.raises(ValueError, match="1-based"):
            SwitchingSignal(np.array([0.0, 1.0]), np.array([0, 1]), 2.0)

    @pytest.mark.parametrize("indices", [[1.7, 2.2], [1, 2.5], [1, np.nan],
                                         [np.inf, 1]])
    def test_rejects_non_integral_indices(self, indices):
        with pytest.raises(ValueError, match="indices must be integers"):
            SwitchingSignal([0.0, 1.0], indices, 2.0)

    def test_integral_float_indices_are_integers(self):
        s = SwitchingSignal([0.0, 1.0], [2.0, 1.0], 2.0)
        assert s.indices.dtype.kind == "i" and s.indices.tolist() == [2, 1]

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(ValueError, match="must be finite"):
            SwitchingSignal([0.0, 1.0], [1, 2], horizon)

    def test_derived_dwell_bounds(self):
        s = SwitchingSignal(np.array([0.0, 0.4, 1.0]), np.array([1, 2, 1]), 2.0)
        assert s.tau0 == pytest.approx(0.4)
        assert s.tau1 == np.inf


class TestActiveIndex:
    @pytest.fixture
    def signal(self):
        return periodic_signal(2, 0.5, 2.0)

    def test_at_zero(self, signal):
        assert active_index(signal, 0.0) == 1

    def test_right_continuous_at_breakpoints(self, signal):
        assert active_index(signal, 0.5) == 2
        assert active_index(signal, 1.0) == 1

    def test_mid_interval(self, signal):
        assert active_index(signal, 0.75) == 2
        assert active_index(signal, 1.9) == 2

    def test_rejects_outside_domain(self, signal):
        with pytest.raises(ValueError, match="domain"):
            active_index(signal, -0.1)
        with pytest.raises(ValueError, match="domain"):
            active_index(signal, 2.5)


class TestGraphInterchange:
    def test_dict_round_trip_bit_exact(self):
        rng = np.random.default_rng(8)
        n = 6
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(w, 0.0)
        g = DirectedGraph(w)
        doc = json.loads(json.dumps(graph_to_dict(g)))
        rebuilt = graph_from_dict(doc)
        assert np.array_equal(rebuilt.weights, g.weights)

    def test_file_round_trip(self, tmp_path):
        g = DirectedGraph.from_edges(4, [(1, 2, 0.125), (3, 4, 2.5), (2, 1, 1.0)])
        path = tmp_path / "graph.json"
        save_graph(g, path)
        assert np.array_equal(load_graph(path).weights, g.weights)

    def test_rejects_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            graph_from_dict({"edges": []})

    @pytest.mark.parametrize("weight", [1.0, 0.0])
    def test_rejects_self_loop_whatever_its_weight(self, weight):
        # A zero weight would leave no trace in the matrix; it is still named.
        doc = {"node_count": 3, "edges": [{"from": 1, "to": 2, "weight": 1.0},
                                          {"from": 3, "to": 3, "weight": weight}]}
        with pytest.raises(ValueError, match=r"^edges\[1\]: \(3, 3\) is a self-loop$"):
            graph_from_dict(doc)
        with pytest.raises(ValueError, match=r"^edges\[0\]: \(2, 2\) is a self-loop$"):
            DirectedGraph.from_edges(2, [(2, 2, weight)])

    def test_demo_files_match_narrative(self, vtol_graphs):
        # Graph 1: chain 1->2->3->4 with the 5->4 link and 1->5.
        assert vtol_graphs[0].edges() == [
            (1, 2, 1.0),
            (1, 5, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (5, 4, 1.0),
        ]
        # Graph 2: node 2 leads, the unreliable 5->4 link is dropped.
        assert vtol_graphs[1].edges() == [
            (1, 5, 1.0),
            (2, 1, 1.0),
            (2, 3, 1.0),
            (2, 4, 1.0),
            (3, 4, 1.0),
        ]
