import csv
import io
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switched_consensus import linalg, simulator, synthesis, topology, vtol
from switched_consensus.simulator import (
    LyapunovMonitor,
    SimulationDiverged,
    TrajectoryRecord,
    agent_states,
    build_closed_loop,
    consensus_verdict,
    disagreement,
    lyapunov_monitor,
    simulate,
    write_trajectory_csv,
)
from switched_consensus.topology import periodic_signal

from conftest import (
    cached_simulate,
    dense_modes,
    dense_simulate,
    disagreement_transform,
    grid_targets,
    random_spd,
    random_stable,
    reference_switch_jumps,
    single_process_csv,
    three_certificates,
    xi_matrix,
)


@pytest.fixture(scope="module")
def small_setup():
    """Double-integrator agents on two 3-node topologies with synthesized gains."""
    g1 = topology.DirectedGraph.from_edges(3, [(1, 2), (2, 3)])
    g2 = topology.DirectedGraph.from_edges(3, [(3, 2), (2, 1)])
    graphs = topology.GraphSet((g1, g2))
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    reduced = [
        topology.reduce_laplacian(topology.laplacian(g), i)
        for i, g in enumerate(graphs, start=1)
    ]
    design = synthesis.synthesize(a, b, reduced, beta=1.0)
    return a, b, graphs, design


@pytest.fixture(scope="module")
def demo_closed_loop(vtol_graphs, vtol_design):
    signal = periodic_signal(2, vtol.DWELL, vtol.HORIZON)
    return build_closed_loop(
        vtol.A, vtol.B, vtol_design.k, vtol_design.alpha, vtol_graphs, signal
    )


@pytest.fixture(scope="module")
def demo_record(demo_closed_loop):
    rng = np.random.default_rng(vtol.SEED)
    x0 = rng.uniform(-1, 1, size=20)
    return simulate(demo_closed_loop, x0, vtol.DT)


class TestBuildClosedLoop:
    def test_zero_coupling_decouples_agents(self, vtol_graphs):
        signal = periodic_signal(2, 0.5, 2.0)
        k = np.zeros((2, 4))
        cl = build_closed_loop(vtol.A, vtol.B, k, 0.0, vtol_graphs, signal)
        for mode in cl.modes:
            assert np.array_equal(mode, np.kron(np.eye(5), vtol.A))

    def test_first_order_case_reduces_to_laplacian_flow(self):
        g = topology.DirectedGraph.from_edges(3, [(1, 2), (2, 3)])
        graphs = topology.GraphSet((g,))
        signal = periodic_signal(1, 1.0, 3.0)
        cl = build_closed_loop(
            np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), 2.5, graphs, signal
        )
        t, t_inv = disagreement_transform(3, 1)
        expected = t @ (-2.5 * topology.laplacian(g)) @ t_inv
        assert np.array_equal(cl.modes[0], expected)

    def test_demo_dimensions_and_intertwining(self, demo_closed_loop, vtol_graphs,
                                              vtol_design):
        cl = demo_closed_loop
        assert all(m.shape == (20, 20) for m in cl.modes)
        t, t_inv = disagreement_transform(5, 4)
        full_modes = dense_modes(vtol.A, vtol.B, vtol_design.k, vtol_design.alpha,
                                 vtol_graphs)
        for full, mode in zip(full_modes, cl.modes):
            assert np.all(mode[:16, 16:] == 0.0)
            residual = np.abs(t @ full @ t_inv - mode).max()
            assert residual <= 1e-10 * max(1.0, np.abs(full).max())

    def test_rejects_wrong_gain_shape(self, vtol_graphs):
        signal = periodic_signal(2, 0.5, 2.0)
        with pytest.raises(ValueError, match="gain"):
            build_closed_loop(
                vtol.A, vtol.B, np.zeros((4, 2)), 1.0, vtol_graphs, signal
            )

    def test_rejects_signal_with_unknown_topology(self, vtol_graphs):
        signal = periodic_signal(3, 0.5, 2.0)
        with pytest.raises(ValueError, match="topology"):
            build_closed_loop(
                vtol.A, vtol.B, np.zeros((2, 4)), 1.0, vtol_graphs, signal
            )


class TestDisagreement:
    def test_identical_blocks(self):
        x = np.tile([1.0, -2.0], 4)
        e = disagreement(x, 4, 2)
        assert np.array_equal(e, np.zeros(6))

    def test_two_agents_scalar(self):
        e = disagreement(np.array([3.0, 1.0]), 2, 1)
        assert np.array_equal(e, [2.0])

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=15)
        e = disagreement(x, 5, 3)
        expected = np.kron(xi_matrix(5), np.eye(3)) @ x
        assert np.allclose(e, expected, atol=1e-14)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            disagreement(np.zeros(7), 4, 2)


class TestSimulate:
    def test_consensus_subspace_is_invariant(self, demo_closed_loop):
        v = np.array([0.3, -1.2, 0.8, 0.45])
        x0 = np.tile(v, 5)
        record = simulate(demo_closed_loop, x0, 0.05)
        scale = np.abs(agent_states(record)).max()
        assert record.error_norms[0] == 0.0
        assert record.error_norms.max() <= 1e-9 * scale

    def test_consensus_subspace_follows_single_agent_flow(self, demo_closed_loop):
        v = np.array([0.3, -1.2, 0.8, 0.45])
        record = simulate(demo_closed_loop, np.tile(v, 5), 0.1)
        states = agent_states(record)
        for s in (10, 50, 99):
            expected = sla.expm(vtol.A * record.times[s]) @ v
            blocks = states[s].reshape(5, 4)
            for block in blocks:
                assert np.allclose(block, expected, rtol=1e-7, atol=1e-9)

    def test_static_system_stays_put(self):
        g = topology.DirectedGraph.from_edges(2, [(1, 2)])
        graphs = topology.GraphSet((g,))
        signal = periodic_signal(1, 0.5, 2.0)
        cl = build_closed_loop(
            np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), 0.0, graphs, signal
        )
        record = simulate(cl, np.array([1.0, -2.0]), 0.25)
        assert np.array_equal(agent_states(record), np.tile([1.0, -2.0], (9, 1)))

    def test_sample_grid_and_switch_instants(self, demo_record):
        times = demo_record.times
        assert np.all(np.diff(times) > 0)
        switch_times = [t for t, _, _ in demo_record.switches]
        assert switch_times == pytest.approx(np.arange(0.5, 10.0, 0.5))
        assert np.isin(switch_times, times).all()
        # Right-continuity: stored index at a switch is the incoming mode.
        for t, _, new in demo_record.switches:
            s = int(np.searchsorted(times, t))
            assert demo_record.indices[s] == new

    def test_exact_flow_independent_of_sampling(self, small_setup):
        a, b, graphs, design = small_setup
        signal = periodic_signal(1, 1.0, 3.0)
        cl = build_closed_loop(a, b, design.k, design.alpha, graphs, signal)
        rng = np.random.default_rng(21)
        x0 = rng.uniform(-1, 1, size=6)
        coarse = simulate(cl, x0, 0.25)
        fine = simulate(cl, x0, 0.125)
        pos = np.searchsorted(fine.times, coarse.times)
        assert np.allclose(fine.times[pos], coarse.times)
        coarse_states, fine_states = agent_states(coarse), agent_states(fine)
        scale = np.abs(coarse_states).max()
        assert np.abs(fine_states[pos] - coarse_states).max() <= 1e-10 * scale

    def test_switch_instants_exact_for_incommensurate_dt(self, vtol_graphs,
                                                         vtol_design):
        # 0.07 never lands on the 0.5 s switch grid; switches are still
        # sampled exactly.
        signal = periodic_signal(2, 0.5, 3.0)
        cl = build_closed_loop(
            vtol.A, vtol.B, vtol_design.k, vtol_design.alpha, vtol_graphs,
            signal,
        )
        x0 = np.random.default_rng(25).uniform(-1, 1, size=20)
        record = simulate(cl, x0, 0.07)
        switch_times = [t for t, _, _ in record.switches]
        assert switch_times == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])
        assert np.isin(switch_times, record.times).all()
        _, _, dense_errors = dense_simulate(
            vtol.A, vtol.B, vtol_design.k, vtol_design.alpha, vtol_graphs, signal,
            x0, 0.07,
        )
        scale = max(1.0, np.abs(record.errors).max())
        assert np.abs(record.errors - dense_errors).max() <= 1e-8 * scale

    @pytest.mark.parametrize("dt, dwell", [(2.0, 3.0), (1.5, 2.5)])
    def test_whole_second_fragment_not_confused_with_grid_step(
        self, small_setup, dt, dwell
    ):
        # The 1 s fragment before each switch must not reuse the dt-step flow.
        a, b, graphs, design = small_setup
        signal = periodic_signal(2, dwell, 2 * dwell)
        cl = build_closed_loop(a, b, design.k, design.alpha, graphs, signal)
        x0 = np.random.default_rng(28).uniform(-1, 1, size=6)
        record = simulate(cl, x0, dt)
        _, dense_states, dense_errors = dense_simulate(
            a, b, design.k, design.alpha, graphs, signal, x0, dt
        )
        scale = max(1.0, np.abs(dense_states).max())
        assert np.abs(record.errors - dense_errors).max() <= 1e-10 * scale
        assert np.abs(agent_states(record) - dense_states).max() <= 1e-10 * scale

    @pytest.mark.parametrize("with_monitor", [True, False])
    def test_breakpoint_keeping_the_topology_is_no_switch(self, small_setup,
                                                          tmp_path, with_monitor):
        # The breakpoint at 1.0005 keeps topology 2: no sample of its own,
        # no switch, no second CSV row, no jump for the monitor.
        a, b, graphs, design = small_setup
        signal = topology.SwitchingSignal(np.array([0.0, 1.0, 1.0005, 2.0]),
                                          np.array([1, 2, 2, 1]), 3.0)
        cl = build_closed_loop(a, b, design.k, design.alpha, graphs, signal)
        record = simulate(cl, np.random.default_rng(30).uniform(-1, 1, 6), 0.1)
        assert record.switches == [(1.0, 1, 2), (2.0, 2, 1)]
        assert 1.0005 not in record.times.tolist()
        assert record.times.size == 31
        monitor = None
        if with_monitor:
            monitor = lyapunov_monitor(record, design.certificates, design.p)
            assert [jump[:3] for jump in monitor.switch_jumps] == record.switches
        write_trajectory_csv(record, tmp_path / "trajectory.csv", monitor)
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == record.times.size + 2

    def test_single_topology_has_no_switch(self, tmp_path):
        g = topology.DirectedGraph.from_edges(2, [(1, 2)])
        cl = build_closed_loop(np.zeros((1, 1)), np.ones((1, 1)), -np.ones((1, 1)),
                               1.0, topology.GraphSet((g,)),
                               periodic_signal(1, 0.0005, 0.01))
        record = simulate(cl, np.array([1.0, -1.0]), 0.0005)
        assert record.times.size == 21
        assert record.switches == []
        write_trajectory_csv(record, tmp_path / "trajectory.csv")
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 22

    def test_single_topology_synthesized_gain_decays(self, vtol_graphs):
        # One fixed spanning-tree topology with its synthesized design.
        graphs = topology.GraphSet((vtol_graphs[0],))
        red = topology.reduce_laplacian(topology.laplacian(vtol_graphs[0]), 1)
        design = synthesis.synthesize(
            vtol.A, vtol.B, [red], vtol.BETA, c_values=vtol.C_VALUE,
            alpha=vtol.ALPHA,
        )
        assert design.dwell_threshold == 0.0
        signal = periodic_signal(1, 0.5, 10.0)
        cl = build_closed_loop(
            vtol.A, vtol.B, design.k, design.alpha, graphs, signal
        )
        rng = np.random.default_rng(26)
        record = simulate(cl, rng.uniform(-1, 1, size=20), 0.01)
        ratio = record.error_norms[-1] / record.error_norms[0]
        assert ratio < 1e-3

    def test_divergence_reported_with_time(self):
        g = topology.DirectedGraph.from_edges(2, [(1, 2)])
        graphs = topology.GraphSet((g,))
        signal = periodic_signal(1, 1.0, 40.0)
        cl = build_closed_loop(
            np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 1)), 0.0,
            graphs, signal,
        )
        with pytest.raises(SimulationDiverged) as err:
            simulate(cl, np.array([1.0, 0.0]), 0.5)
        assert 27.0 < err.value.t < 30.0

    def test_growing_agreement_does_not_abort(self):
        # Same unstable agents, but from consensus: only x_N grows (to e^40).
        g = topology.DirectedGraph.from_edges(2, [(1, 2)])
        graphs = topology.GraphSet((g,))
        signal = periodic_signal(1, 1.0, 40.0)
        cl = build_closed_loop(
            np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 1)), 0.0,
            graphs, signal,
        )
        record = simulate(cl, np.array([1.0, 1.0]), 0.5)
        assert record.times[-1] == 40.0
        assert np.all(record.error_norms == 0.0)
        assert record.agreement[-1, 0] == pytest.approx(np.exp(40.0), rel=1e-9)

    def test_non_finite_agreement_is_reported_as_divergence(self):
        # e stays exactly 0 while x_N = e^(800 t) overflows at t = 1.
        g = topology.DirectedGraph.from_edges(2, [(1, 2)])
        signal = periodic_signal(1, 1.0, 3.0)
        cl = build_closed_loop(
            np.array([[800.0]]), np.array([[1.0]]), np.zeros((1, 1)), 0.0,
            topology.GraphSet((g,)), signal,
        )
        with pytest.raises(SimulationDiverged) as err:
            simulate(cl, np.array([1.0, 1.0]), 0.5)
        assert err.value.t == 1.0

    def test_grid_aligned_schedule_needs_one_expm_per_mode(
        self, demo_closed_loop, monkeypatch
    ):
        calls = []
        expm = simulator.linalg.expm

        def counting_expm(mode, steps):
            calls.append(list(steps))
            return expm(mode, steps)

        monkeypatch.setattr(simulator.linalg, "expm", counting_expm)
        rng = np.random.default_rng(27)
        record = simulate(demo_closed_loop, rng.uniform(-1, 1, size=20), vtol.DT)
        assert len(record.switches) == 19
        assert calls == [[vtol.DT], [vtol.DT]]

    def test_rejects_wrong_initial_length(self, demo_closed_loop):
        with pytest.raises(ValueError, match="length"):
            simulate(demo_closed_loop, np.zeros(19), 0.1)


def irregular_loop(small_setup, intervals, seed):
    """Closed loop of `small_setup` under random gaps, switching at each one."""
    a, b, graphs, design = small_setup
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.3, 0.9, intervals)
    signal = topology.SwitchingSignal(
        np.concatenate([[0.0], np.cumsum(gaps[:-1])]),
        (rng.integers(0, 2) + np.arange(intervals)) % 2 + 1,
        float(gaps.sum()),
    )
    return build_closed_loop(a, b, design.k, design.alpha, graphs, signal)


def overflow_loop(indices):
    """Topology 1 grows e like e^(2t), past the cutoff at t = 14; a step of
    topology 2 grows it by e^1001 and overflows.  Switches at t = 20."""
    graphs = topology.GraphSet((
        topology.DirectedGraph.from_edges(2, [(1, 2, 1.0)]),
        topology.DirectedGraph.from_edges(2, [(2, 1, 1000.0)]),
    ))
    signal = topology.SwitchingSignal(np.array([0.0, 20.0]),
                                      np.array(indices), 21.0)
    return build_closed_loop(np.array([[1.0]]), np.array([[1.0]]),
                             np.array([[-1.0]]), 1.0, graphs, signal)


def blocked_case(case, demo_closed_loop, small_setup, vtol_graphs, vtol_design):
    """``(closed loop, dt)`` of a named schedule; "irregular" has three blocks."""
    a, b, graphs, design = small_setup
    if case == "demo":
        return demo_closed_loop, vtol.DT
    if case == "irregular":
        return irregular_loop(small_setup, TestBlockedPropagation.INTERVALS, 30), 0.1
    if case == "incommensurate":
        signal = periodic_signal(2, 0.5, 350.0)
        return build_closed_loop(vtol.A, vtol.B, vtol_design.k, vtol_design.alpha,
                                 vtol_graphs, signal), 0.07
    signal = periodic_signal(2, 3.0, 1000.0)
    return build_closed_loop(a, b, design.k, design.alpha, graphs, signal), 4.5


def record_fields(record):
    return (record.times, record.errors, record.agreement, record.error_norms,
            record.indices)


class TestBlockedPropagation:
    """Blocks of intervals, their step matrices in stacked expm calls."""

    INTERVALS = 2 * simulator.BLOCK_INTERVALS + 100  # three blocks

    @pytest.mark.parametrize("case", ["demo", "irregular", "incommensurate",
                                      "dt-above-dwell"])
    def test_matches_per_key_cache_reference(
        self, case, demo_closed_loop, small_setup, vtol_graphs, vtol_design
    ):
        cl, dt = blocked_case(case, demo_closed_loop, small_setup, vtol_graphs,
                              vtol_design)
        x0 = np.random.default_rng(29).uniform(-1, 1, cl.node_count * cl.state_dim)
        record = simulate(cl, x0, dt)
        reference = cached_simulate(cl, x0, dt)
        for got, want in zip(record_fields(record), record_fields(reference)):
            assert np.array_equal(got, want)
        assert record.switches == reference.switches

    def test_each_distinct_step_exponentiated_once(self, small_setup, monkeypatch):
        blocks, calls, flows = [], [], []
        expm, dot = simulator.linalg.expm, simulator.np.dot
        real_flows = simulator._flows

        def counting_expm(mode, steps):
            calls.append(mode.tobytes())
            blocks[-1][1].extend((mode.tobytes(), h) for h in steps)
            return expm(mode, steps)

        def recording_flows(modes, keys, m):
            blocks.append((list(keys), []))
            return real_flows(modes, keys, m)

        def recording_dot(a, b, out=None):
            if out is not None:
                flows.append(a)
            return dot(a, b, out=out)

        monkeypatch.setattr(simulator.linalg, "expm", counting_expm)
        monkeypatch.setattr(simulator, "_flows", recording_flows)
        monkeypatch.setattr(simulator.np, "dot", recording_dot)
        cl = irregular_loop(small_setup, self.INTERVALS, 31)
        dt = 0.1
        record = simulate(cl, np.random.default_rng(31).uniform(-1, 1, 6), dt)
        steps = np.diff(record.times)
        steps[np.abs(steps - dt) <= 1e-9 * dt] = dt
        # The stored index is right-continuous: the mode of the next step.
        keys = list(zip(record.indices[:-1].tolist(), steps.tolist()))
        ends = record.times.searchsorted([t for t, _, _ in record.switches])
        bounds = [0, *ends[simulator.BLOCK_INTERVALS - 1 :: simulator.BLOCK_INTERVALS],
                  steps.size]
        assert len(blocks) == 3
        for (block_keys, matrices), lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
            # Within a block, each distinct step is exponentiated once.
            assert block_keys == list(dict.fromkeys(keys[lo:hi]))
            assert len(set(matrices)) == len(matrices) == len(block_keys)
        # Every step of the run is exponentiated, full steps in every block.
        assert set().union(*(set(b) for b, _ in blocks)) == set(keys)
        assert all(any(h == dt for _, h in b) for b, _ in blocks)
        # One kernel call per topology and block: both topologies, 3 blocks.
        assert len(calls) == 6 and len(set(calls)) == 2
        # Each step's flow is applied once.
        assert len(flows) == steps.size

    def test_divergence_in_late_block_reports_first_bad_sample(self):
        # e(t) = e^(4t) first exceeds the cutoff at the sample t = 6.91, in
        # the third block of 0.01 s intervals; two copies of one graph make
        # every breakpoint a switch.
        g = topology.DirectedGraph.from_edges(2, [(1, 2)])
        signal = periodic_signal(2, 0.01, 10.0)
        cl = build_closed_loop(
            np.array([[4.0]]), np.array([[1.0]]), np.zeros((1, 1)), 0.0,
            topology.GraphSet((g, g)), signal,
        )
        with pytest.raises(SimulationDiverged) as err:
            simulate(cl, np.array([1.0, 0.0]), 0.005)
        with pytest.raises(SimulationDiverged) as want:
            cached_simulate(cl, np.array([1.0, 0.0]), 0.005)
        assert err.value.t == want.value.t
        assert err.value.t == pytest.approx(6.91)
        assert err.value.t > 2 * simulator.BLOCK_INTERVALS * 0.01

    @pytest.mark.parametrize("indices, t", [([1, 2], 14.0), ([2, 1], 1.0)])
    def test_overflowing_flow_after_divergence(self, indices, t):
        # An overflowing flow makes its sample non-finite, so the divergence
        # that comes first along the run is reported, as per-key expm did.
        cl, x0 = overflow_loop(indices), np.array([1.0, 0.0])
        with pytest.raises(SimulationDiverged) as err:
            simulate(cl, x0, 1.0)
        with pytest.raises(SimulationDiverged) as want:
            cached_simulate(cl, x0, 1.0)
        assert err.value.t == want.value.t == t

    @pytest.mark.parametrize("first", [1, 2])
    @pytest.mark.parametrize("indices, t", [([1, 2], 14.0), ([2, 1], 1.0)])
    def test_error_order_whichever_topology_is_exponentiated_first(
        self, monkeypatch, indices, t, first
    ):
        # `_flows` takes topology `first`'s keys before the other's, so the
        # overflowing flow may be made before or after the run reaches it.
        real_flows = simulator._flows
        monkeypatch.setattr(simulator, "_flows", lambda modes, keys, m: real_flows(
            modes, sorted(keys, key=lambda key: key[0] != first), m))
        cl, x0 = overflow_loop(indices), np.array([1.0, 0.0])
        with pytest.raises(SimulationDiverged) as err:
            simulate(cl, x0, 1.0)
        with pytest.raises(SimulationDiverged) as want:
            cached_simulate(cl, x0, 1.0)
        assert err.value.t == want.value.t == t

    def test_keys_of_a_mode_share_one_kernel_call(self, small_setup, monkeypatch):
        a, b, graphs, design = small_setup
        cl = build_closed_loop(a, b, design.k, design.alpha, graphs,
                               periodic_signal(2, 1.0, 2.0))
        m = (cl.node_count - 1) * cl.state_dim
        calls = []
        expm = simulator.linalg.expm
        monkeypatch.setattr(simulator.linalg, "expm", lambda mode, steps: (
            calls.append((mode.tobytes(), list(steps))) or expm(mode, steps)))
        keys = [(1, 0.1), (2, 0.1), (1, 0.2), (2, 0.2), (1, 0.3)]
        flows = simulator._flows(cl.modes, keys, m)
        assert calls == [(cl.modes[0].tobytes(), [0.1, 0.2, 0.3]),
                         (cl.modes[1].tobytes(), [0.1, 0.2])]
        assert flows.keys() == set(keys)
        for (mode, h), flow in flows.items():
            alone = expm(cl.modes[mode - 1], [h])[0]
            alone[:m, m:] = 0.0
            assert flow.tobytes() == alone.tobytes()


class TestOneProcess:
    """Only the trajectory CSV forks; the exponentials are this process's."""

    def test_large_modes_fork_nothing(self, monkeypatch):
        # N=300 first-order agents: four 300x300 steps, 1.1e8 units of the
        # n**3 work that used to fork; four CPUs and no CSV fork nothing.
        made = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: made.append(None) or real_fork())
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 4)
        record = simulate(first_order_loop(300), np.linspace(-1, 1, 300), 0.1)
        assert len(record.switches) == 2
        assert made == []

    def test_overflowing_large_flow_is_a_divergence(self):
        # 400 first-order agents whose e grows like e^(1000 t): the first
        # full step's flow overflows, though its squarings flush.
        n = 400
        ring = topology.DirectedGraph.from_edges(n, [(i, i % n + 1)
                                                     for i in range(1, n + 1)])
        cl = build_closed_loop(np.array([[1000.0]]), np.ones((1, 1)),
                               np.zeros((1, 1)), 0.0, topology.GraphSet((ring,)),
                               periodic_signal(1, 1.0, 2.0))
        assert cl.modes[0].shape[0] >= linalg.FLUSH_MIN_ORDER
        assert not np.isfinite(linalg.expm(cl.modes[0], [1.0])).all()
        with pytest.raises(SimulationDiverged) as err:
            simulate(cl, np.linspace(-1, 1, n), 1.0)
        assert err.value.t == 1.0


class TestSplitProperties:
    """The one split rule, and simulate in blocks, over random draws."""

    @settings(max_examples=200, deadline=None)
    @given(cpus=st.integers(1, 8), count=st.integers(0, 60),
           units=st.integers(0, 10**6), min_units=st.integers(0, 10**5))
    def test_part_bounds(self, cpus, count, units, min_units):
        with mock.patch.object(simulator, "_usable_cpus", lambda: cpus), \
             mock.patch.object(simulator, "MIN_PART_VALUES", min_units):
            bounds = simulator._part_bounds(count, units)
        parts = len(bounds) - 1
        assert bounds[0] == 0 and bounds[-1] == count
        assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:]))
        assert 1 <= parts <= max(1, min(cpus, count))
        if parts > 1:
            # Each part's share of the work, times count to stay exact.
            assert all((hi - lo) * units >= min_units * count
                       for lo, hi in zip(bounds, bounds[1:]))

    @settings(max_examples=12, deadline=None)
    @given(intervals=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(0.05, 1.0), block=st.integers(1, 4))
    def test_blocked_simulate_matches_the_oracle(self, small_setup, intervals,
                                                 seed, dt, block):
        cl = irregular_loop(small_setup, intervals, seed)
        x0 = np.random.default_rng(seed).uniform(-1, 1, 6)
        with mock.patch.object(simulator, "BLOCK_INTERVALS", block):
            record = simulate(cl, x0, dt)
        reference = cached_simulate(cl, x0, dt)
        for got, want in zip(record_fields(record), record_fields(reference)):
            assert np.array_equal(got, want)
        assert record.switches == reference.switches

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8),
           count=st.integers(1, 12), magnitude=st.floats(-3.0, 3.0))
    def test_flow_alone_and_among_others(self, seed, size, count, magnitude):
        # A step's flow has the same bits whichever steps share its kernel
        # call.
        rng = np.random.default_rng(seed)
        modes = [rng.normal(size=(size, size)) * 10.0**magnitude for _ in range(2)]
        steps = rng.uniform(0.0, 2.0, count) * 10.0 ** rng.uniform(-6.0, 0.0, count)
        keys = list(dict.fromkeys(zip(rng.integers(1, 3, count).tolist(),
                                      steps.tolist())))
        m = size // 2
        flows = simulator._flows(modes, keys, m)
        assert list(flows) == sorted(keys, key=lambda key: key[0] != keys[0][0])
        for mode, h in keys:
            alone = linalg.expm(modes[mode - 1], [h])[0]
            alone[:m, m:] = 0.0
            assert flows[mode, h].tobytes() == alone.tobytes()


class TestSampleGrid:
    """The vectorized sample grid against the loop that tests each point."""

    @staticmethod
    def loop_grid(edges, dt):
        grids = [grid_targets(t0, t1, dt) for t0, t1 in zip(edges[:-1], edges[1:])]
        times = np.array([edges[0]] + [t for grid in grids for t in grid])
        return times, np.cumsum([len(grid) for grid in grids])

    def check(self, edges, dt):
        times, ends = simulator._sample_grid(edges, dt)
        want_times, want_ends = self.loop_grid(edges, dt)
        assert times.tobytes() == want_times.tobytes()
        assert np.array_equal(ends, want_ends)

    @settings(max_examples=200, deadline=None)
    @given(dt=st.floats(1e-3, 10.0),
           gaps=st.lists(st.tuples(st.integers(0, 6), st.floats(-3.0, 3.0),
                                   st.sampled_from([0.0, 1.0, -1.0, 0.5])),
                         min_size=1, max_size=12),
           dwell=st.floats(0.05, 3.0))
    def test_matches_the_loop_near_grid_points(self, dt, gaps, dwell):
        # Edges land within a few 1e-9 dt of grid points, exactly on them,
        # or exactly 1e-9 dt away; a dwell that dt need not divide separates
        # them.
        edges = [0.0]
        for k, jitter, snap in gaps:
            near = (round(edges[-1] / dt) + k) * dt
            near += (snap or jitter) * 1e-9 * dt
            edges.append(max(near, edges[-1] + dwell * dt))
        assert all(t1 > t0 for t0, t1 in zip(edges, edges[1:]))
        self.check(edges, dt)

    @pytest.mark.parametrize("dt, edge", [
        (0.6706363400917386, 61383.344208597504),  # k = ceil((t - eps) / dt) too low
        (0.1033388700686982, 388.760829198546),  # ... too high
        (0.90834746757907, 51235.33890879653),  # floor(t / dt + 1e-9) + 1 too low
    ], ids=["upper-estimate-low", "upper-estimate-high", "lower-estimate-low"])
    def test_matches_the_loop_where_the_estimates_are_off(self, dt, edge):
        # Edges where the float division misjudges which grid points lie
        # inside, found by search; as an interval's start and as its end.
        self.check([edge - 3.5 * dt, edge, edge + 2.5 * dt], dt)

    @pytest.mark.parametrize("dwell, dt, horizon", [
        (0.35, 0.1, 1000.0), (vtol.DWELL, vtol.DT, vtol.HORIZON),
        (3.0, 4.5, 1000.0), (0.5, 0.07, 350.0), (1.0, 0.1, 500.0)])
    def test_matches_the_loop_on_periodic_schedules(self, dwell, dt, horizon):
        signal = periodic_signal(2, dwell, horizon)
        self.check(signal.breakpoints.tolist() + [signal.horizon], dt)


def first_order_loop(n, horizon=1.0):
    """n first-order agents alternating a ring and a path, switching at 0.35 s."""
    ring = topology.DirectedGraph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])
    path = topology.DirectedGraph.from_edges(n, [(i, i + 1) for i in range(1, n)])
    return build_closed_loop(np.zeros((1, 1)), np.ones((1, 1)), -np.ones((1, 1)),
                             1.0, topology.GraphSet((ring, path)),
                             periodic_signal(2, 0.35, horizon))


class TestTranslationInvariance:
    def test_error_traces_agree(self, small_setup):
        a, b, graphs, design = small_setup
        signal = periodic_signal(2, 0.7, 5.0)
        cl = build_closed_loop(a, b, design.k, design.alpha, graphs, signal)
        rng = np.random.default_rng(22)
        x0 = rng.uniform(-1, 1, size=6)
        v = rng.uniform(-5, 5, size=2)
        base = simulate(cl, x0, 0.05)
        shifted = simulate(cl, x0 + np.tile(v, 3), 0.05)
        scale = max(1.0, np.abs(base.errors).max())
        assert np.abs(base.errors - shifted.errors).max() <= 1e-9 * scale


class TestReductionEquivalence:
    """The (e, x_N) core against the dense full-state oracle."""

    def test_full_and_reduced_paths_agree(self, small_setup):
        a, b, graphs, design = small_setup
        signal = periodic_signal(2, 0.7, 5.0)
        cl = build_closed_loop(a, b, design.k, design.alpha, graphs, signal)
        rng = np.random.default_rng(23)
        x0 = rng.uniform(-1, 1, size=6)
        record = simulate(cl, x0, 0.05)
        times, states, errors = dense_simulate(
            a, b, design.k, design.alpha, graphs, signal, x0, 0.05
        )
        assert np.array_equal(record.times, times)
        scale = max(1.0, np.abs(errors).max())
        assert np.abs(record.errors - errors).max() <= 1e-8 * scale
        assert (np.abs(agent_states(record) - states).max()
                <= 1e-8 * np.abs(states).max())

    def test_demo_system_agrees(self, demo_closed_loop, demo_record, vtol_graphs,
                                vtol_design):
        x0 = np.random.default_rng(vtol.SEED).uniform(-1, 1, size=20)
        _, _, errors = dense_simulate(
            vtol.A, vtol.B, vtol_design.k, vtol_design.alpha, vtol_graphs,
            demo_closed_loop.signal, x0, vtol.DT,
        )
        scale = max(1.0, np.abs(demo_record.errors).max())
        diff = np.abs(demo_record.errors - errors).max()
        assert diff <= 1e-8 * scale


class TestIntegratorCrossCheck:
    @staticmethod
    def rk4(m, x0, t_final, h):
        x = x0.copy()
        for _ in range(int(round(t_final / h))):
            k1 = m @ x
            k2 = m @ (x + h / 2 * k1)
            k3 = m @ (x + h / 2 * k2)
            k4 = m @ (x + h * k3)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    def test_fourth_order_convergence_to_exact_flow(self):
        rng = np.random.default_rng(24)
        m = random_stable(rng, 4, gap=0.3)
        x0 = rng.normal(size=4)
        exact = sla.expm(m) @ x0
        errors = [
            np.linalg.norm(self.rk4(m, x0, 1.0, h) - exact)
            for h in (0.1, 0.05, 0.025)
        ]
        rates = [np.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        for rate in rates:
            assert 3.5 < rate < 4.6, f"observed convergence rate {rate}"


class TestConsensusVerdict:
    def synthetic(self, norms, t_final=10.0):
        times = np.linspace(0.0, t_final, len(norms))
        dim = 2
        return TrajectoryRecord(
            times=times,
            errors=np.zeros((len(norms), dim)),
            agreement=np.zeros((len(norms), dim)),
            error_norms=np.asarray(norms, dtype=float),
            indices=np.ones(len(norms), dtype=int),
            switches=[],
            node_count=2,
            state_dim=dim,
        )

    def test_zero_disagreement_trivially_true(self):
        ok, ratio = consensus_verdict(self.synthetic([0.0] * 11), 1e-2, 2.0)
        assert ok and ratio == 0.0

    def test_exponential_decay_passes(self):
        norms = np.exp(-np.linspace(0, 10, 101))
        ok, ratio = consensus_verdict(self.synthetic(norms), 1e-2, 2.0)
        assert ok
        assert ratio == pytest.approx(np.exp(-10))

    def test_growth_fails(self):
        norms = np.exp(np.linspace(0, 2, 101))
        ok, ratio = consensus_verdict(self.synthetic(norms), 1e-2, 2.0)
        assert not ok and ratio > 1

    def test_ratio_below_tolerance_but_regrowing_fails(self):
        t = np.linspace(0, 10, 101)
        norms = np.exp(-2 * t) + 1e-4 * np.maximum(t - 8, 0)
        ok, _ = consensus_verdict(self.synthetic(norms), 1e-2, 2.0)
        assert not ok

    def test_demo_run_passes(self, demo_record):
        ok, ratio = consensus_verdict(demo_record, vtol.TOLERANCE, vtol.WINDOW)
        assert ok
        assert ratio < 1e-2

    def test_rejects_bad_parameters(self, demo_record):
        with pytest.raises(ValueError):
            consensus_verdict(demo_record, 0.0, 1.0)


class TestLyapunovMonitor:
    def identity_certs(self, dim, count=2):
        return [
            synthesis.TopologyCertificate(i + 1, 0.5, np.eye(dim), 1.0)
            for i in range(count)
        ]

    def test_zero_error_gives_zero_values(self, demo_closed_loop, vtol_design):
        record = simulate(demo_closed_loop, np.tile([1.0, 0.5, -0.25, 2.0], 5), 0.1)
        monitor = lyapunov_monitor(record, vtol_design.certificates, vtol_design.p)
        assert np.abs(monitor.values).max() <= 1e-12

    def test_identity_weights_give_squared_norm(self, small_setup):
        a, b, graphs, design = small_setup
        signal = periodic_signal(2, 0.7, 5.0)
        cl = build_closed_loop(a, b, design.k, design.alpha, graphs, signal)
        record = simulate(cl, np.array([1.0, 0.0, -1.0, 0.5, 0.25, 0.0]), 0.1)
        monitor = lyapunov_monitor(record, self.identity_certs(2), np.eye(2))
        for col in range(2):
            assert np.allclose(
                monitor.values[:, col], record.error_norms**2, rtol=1e-10
            )

    def test_values_are_the_certificate_quadratic_forms(self, demo_record,
                                                        vtol_design):
        p = vtol_design.p
        monitor = lyapunov_monitor(demo_record, vtol_design.certificates, p)
        q = {c.index: c.q for c in vtol_design.certificates}
        assert monitor.values.shape == (len(demo_record.times), len(q))
        for col, index in enumerate(monitor.topology_indices):
            weight = np.kron(q[index], np.linalg.inv(p))
            want = [e @ weight @ e for e in demo_record.errors]
            assert monitor.values[:, col] == pytest.approx(want, rel=1e-9)

    def test_jump_ratios_respect_bounds(self, demo_record, vtol_design):
        monitor = lyapunov_monitor(
            demo_record, vtol_design.certificates, vtol_design.p
        )
        assert len(monitor.switch_jumps) == len(demo_record.switches)
        q = {c.index: c.q for c in vtol_design.certificates}
        for _, old, new, ratio, bound in monitor.switch_jumps:
            assert ratio is not None
            assert ratio <= bound * (1 + 1e-9)
            assert bound == linalg.max_generalized_eigenvalue(q[old], q[new])

    def test_jump_ratio_tight_for_extremal_disagreement(self, vtol_design):
        certs = vtol_design.certificates
        p_inv = np.linalg.inv(vtol_design.p)
        w_old = np.kron(certs[0].q, p_inv)
        w_new = np.kron(certs[1].q, p_inv)
        lam, vecs = sla.eigh((w_new + w_new.T) / 2, (w_old + w_old.T) / 2)
        extremal = vecs[:, -1]
        record = TrajectoryRecord(
            times=np.array([0.0, 1.0, 2.0]),
            errors=np.vstack([extremal] * 3),
            agreement=np.zeros((3, 4)),
            error_norms=np.full(3, np.linalg.norm(extremal)),
            indices=np.array([1, 2, 2]),
            switches=[(1.0, 1, 2)],
            node_count=5,
            state_dim=4,
        )
        monitor = lyapunov_monitor(record, certs, vtol_design.p)
        _, _, _, ratio, bound = monitor.switch_jumps[0]
        assert ratio == pytest.approx(bound, rel=1e-9)
        assert bound == pytest.approx(lam[-1], rel=1e-9)

    def test_no_ratio_without_a_positive_energy(self, demo_closed_loop,
                                                vtol_design):
        record = simulate(demo_closed_loop, np.tile([1.0, 0.5, -0.25, 2.0], 5), 0.1)
        record.errors[:] = 0.0
        monitor = lyapunov_monitor(record, vtol_design.certificates, vtol_design.p)
        assert len(monitor.switch_jumps) == len(record.switches) == 19
        assert [r for _, _, _, r, _ in monitor.switch_jumps] == [None] * 19
        single = TrajectoryRecord(
            times=np.array([0.0]), errors=np.ones((1, 16)),
            agreement=np.zeros((1, 4)), error_norms=np.array([4.0]),
            indices=np.array([1]), switches=[], node_count=5, state_dim=4,
        )
        monitor = lyapunov_monitor(single, vtol_design.certificates, vtol_design.p)
        assert monitor.switch_jumps == []
        assert monitor.values.shape == (1, 2)

    def test_jump_above_its_bound_raises(self, demo_record, vtol_design,
                                         monkeypatch):
        pair_lambdas = simulator.synthesis.pair_lambdas

        def halved(certs):
            indices, lam = pair_lambdas(certs)
            return synthesis.PairTable(indices, 0.5 * lam)

        monkeypatch.setattr(simulator.synthesis, "pair_lambdas", halved)
        with pytest.raises(RuntimeError, match="exceeds its algebraic bound"):
            lyapunov_monitor(demo_record, vtol_design.certificates, vtol_design.p)

    def test_missing_certificate_rejected(self, demo_record, vtol_design):
        with pytest.raises(ValueError, match="^no certificate for topology index 2$"):
            lyapunov_monitor(
                demo_record, vtol_design.certificates[:1], vtol_design.p
            )

    @pytest.mark.parametrize("indices, outgoing, missing", [
        ([1, 4, 4], 1, 4), ([1, 2, 2], 4, 4), ([1, 2, 2], 0, 0), ([-1, 2, 2], 1, -1),
        ([1, 2, 2], 7, 7),
    ])
    def test_missing_certificate_named_wherever_it_is_run(self, indices, outgoing,
                                                          missing):
        # A topology run only up to a switch, whose one sample stores the
        # incoming topology, is named too.
        record = TrajectoryRecord(
            times=np.array([0.0, 1.0, 2.0]), errors=np.ones((3, 4)),
            agreement=np.zeros((3, 1)), error_norms=np.full(3, 2.0),
            indices=np.array(indices), switches=[(1.0, outgoing, 2)],
            node_count=5, state_dim=1,
        )
        with pytest.raises(ValueError) as got:
            lyapunov_monitor(record, three_certificates(), np.array([[2.0]]))
        assert str(got.value) == f"no certificate for topology index {missing}"
        # `check_schedule` looks the same indices up in the same table.  It
        # reads only a signal's two arrays, so indices below 1, which a
        # `SwitchingSignal` refuses, reach it too.
        signal = SimpleNamespace(breakpoints=np.arange(4.0),
                                 indices=np.array(indices + [outgoing]))
        with pytest.raises(ValueError) as got:
            synthesis.check_schedule(signal, three_certificates(), beta=1.0)
        assert str(got.value) == f"no certificate for topology index {missing}"

    def test_repeated_index_weighs_the_certificate_the_table_keeps(self):
        # `stale` and `two` share index 2; like the pair table, the monitor
        # keeps the last, so V_2 and every jump bound are `two`'s.
        one, two, _ = three_certificates()
        stale = synthesis.TopologyCertificate(2, 0.5, 3.0 * two.q, 1.0)
        errors = np.random.default_rng(29).normal(size=(3, 4))
        record = TrajectoryRecord(
            times=np.array([0.0, 1.0, 2.0]), errors=errors,
            agreement=np.zeros((3, 1)), error_norms=np.linalg.norm(errors, axis=1),
            indices=np.array([1, 2, 2]), switches=[(1.0, 1, 2)],
            node_count=5, state_dim=1,
        )
        p = np.array([[2.0]])
        monitor = lyapunov_monitor(record, [one, stale, two], p)
        assert monitor.topology_indices == [1, 2]
        want = [e @ np.kron(two.q, np.linalg.inv(p)) @ e for e in errors]
        assert monitor.values[:, 1] == pytest.approx(want, rel=1e-12)
        fresh = lyapunov_monitor(record, [one, two], p)
        assert monitor.values.tolist() == fresh.values.tolist()
        assert monitor.switch_jumps == fresh.switch_jumps
        (_, _, _, _, bound), = monitor.switch_jumps
        assert bound == linalg.max_generalized_eigenvalue(one.q, two.q)

    @settings(max_examples=150, deadline=None)
    @given(indices=st.lists(st.integers(1, 3), min_size=1, max_size=30),
           seed=st.integers(0, 2**32 - 1),
           shrink=st.sampled_from([1.0, 1.0 - 1e-12, 0.9, 0.5]))
    def test_jump_check_matches_the_reference_loop(self, indices, seed, shrink):
        # Interval j holds samples 2j .. 2j + 2; some disagreements are zero,
        # so their jump is not observed.  Bounds scaled by `shrink` make the
        # check raise, at the first switch that breaks one.
        count = len(indices)
        rng = np.random.default_rng(seed)
        errors = rng.normal(size=(2 * count + 1, 4))
        errors[rng.random(errors.shape[0]) < 0.2] = 0.0
        record = TrajectoryRecord(
            times=np.arange(2 * count + 1) * 0.5,
            errors=errors,
            agreement=np.zeros((2 * count + 1, 1)),
            error_norms=np.linalg.norm(errors, axis=1),
            indices=np.array(indices)[np.minimum(np.arange(2 * count + 1) // 2,
                                                 count - 1)],
            switches=[(float(k), indices[k - 1], indices[k])
                      for k in range(1, count)],
            node_count=5,
            state_dim=1,
        )
        certs, p = three_certificates(), np.array([[2.0]])
        monitor = lyapunov_monitor(record, certs, p)
        assert monitor.switch_jumps == reference_switch_jumps(
            record, certs, monitor.values, monitor.topology_indices)
        pair_lambdas = synthesis.pair_lambdas

        def scaled(certificates):
            indices, lam = pair_lambdas(certificates)
            return synthesis.PairTable(indices, shrink * lam)

        with mock.patch.object(synthesis, "pair_lambdas", scaled):
            try:
                want = reference_switch_jumps(record, certs, monitor.values,
                                              monitor.topology_indices)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError) as got:
                    lyapunov_monitor(record, certs, p)
                assert str(got.value) == str(exc)
            else:
                assert lyapunov_monitor(record, certs, p).switch_jumps == want


class TestTrajectoryCsv:
    def test_format_and_round_trip(self, tmp_path, demo_record, vtol_design):
        monitor = lyapunov_monitor(
            demo_record, vtol_design.certificates, vtol_design.p
        )
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(demo_record, path, monitor)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:2] == ["t", "topology"]
        assert header[2] == "x_1_1" and header[21] == "x_5_4"
        assert header[22] == "e_norm"
        assert header[23:] == ["V_1", "V_2"]
        assert len(body) == demo_record.times.size + len(demo_record.switches)
        # Switch instants: two consecutive rows, same t and state, old then
        # new topology.
        switch_t = repr(demo_record.switches[0][0])
        pair = [row for row in body if row[0] == switch_t]
        assert len(pair) == 2
        assert pair[0][1] == "1" and pair[1][1] == "2"
        assert pair[0][2:] == pair[1][2:]
        # Full-precision round trip against the record.
        first = body[0]
        assert float(first[0]) == demo_record.times[0]
        assert np.array_equal(
            np.array([float(v) for v in first[2:22]]), agent_states(demo_record)[0]
        )
        assert float(first[22]) == demo_record.error_norms[0]

    def test_bytes_match_per_value_repr(self, tmp_path, demo_record, vtol_design):
        monitor = lyapunov_monitor(
            demo_record, vtol_design.certificates, vtol_design.p
        )
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(demo_record, path, monitor)

        # Reference: every value formatted one by one with repr(float(v)).
        def fmt(value):
            return repr(float(value))

        switch_at = {t: (old, new) for t, old, new in demo_record.switches}
        lines = [path.read_text().splitlines()[0]]
        states = agent_states(demo_record)
        for s, t in enumerate(demo_record.times):
            tail = [fmt(v) for v in states[s]]
            tail.append(fmt(demo_record.error_norms[s]))
            tail += [fmt(v) for v in monitor.values[s]]
            pairs = switch_at.get(t, (int(demo_record.indices[s]),))
            lines += [",".join([fmt(t), str(i)] + tail) for i in pairs]
        assert len(switch_at) == 19
        assert path.read_bytes() == "".join(f"{ln}\r\n" for ln in lines).encode()

    def test_deterministic_bytes(self, tmp_path, demo_record):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(demo_record, p1)
        write_trajectory_csv(demo_record, p2)
        assert p1.read_bytes() == p2.read_bytes()


def synthetic_record(samples, state_dim, switches=()):
    """Record with the given ``(e, x_N)`` samples at t = 0, 0.5, 1, ... (no physics)."""
    samples = np.array(samples, dtype=float)
    node_count = samples.shape[1] // state_dim
    times = 0.5 * np.arange(len(samples))
    indices = np.ones(len(samples), dtype=int)
    for t, _, new in switches:
        indices[times >= t] = new
    return TrajectoryRecord(
        times=times,
        errors=samples[:, :-state_dim],
        agreement=samples[:, -state_dim:],
        error_norms=np.linspace(1.0, 0.0, len(samples)),
        indices=indices,
        switches=list(switches),
        node_count=node_count,
        state_dim=state_dim,
    )


# Samples ``(e_1, e_2, x_N)`` of three agents with two states each: agent
# states that agree bit for bit, also where e is nonzero but lost in x_N,
# signed zeros that agree only as floats, and a block that differs in one
# value.
SIGNED_ZERO_SAMPLES = [
    [1e-17, 0.0, 0.0, -1e-17, 1.5, -2.0],
    [0.0, 0.0, -0.0, 0.0, -0.0, 1.0],
    [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
    [0.0, 0.0, 0.0, 0.0, -0.0, 0.0],
    [0.0, 0.0, 0.0, 1e-16, 0.1, 0.2],
    [0.0, 0.0, 0.0, 0.0, 7e-310, 1e300],
]


class TestParallelTrajectoryCsv:
    """The parted writer against the one-pass oracle, byte for byte."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Set the usable CPUs and the values a part needs; returns the forks."""
        made = []
        real_fork = os.fork

        def counting_fork():
            made.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)

        def use(cpus, min_part_values=1):
            monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(simulator, "MIN_PART_VALUES", min_part_values)
            return made

        return use

    def assert_matches_oracle(self, tmp_path, record, monitor=None):
        ours, oracle = tmp_path / "parted.csv", tmp_path / "oracle.csv"
        write_trajectory_csv(record, ours, monitor)
        single_process_csv(record, oracle, monitor)
        assert ours.read_bytes() == oracle.read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("with_monitor", [True, False])
    def test_demo_record(self, tmp_path, forks, cpus, with_monitor, demo_record,
                         vtol_design):
        made = forks(cpus)
        monitor = None
        if with_monitor:
            monitor = lyapunov_monitor(
                demo_record, vtol_design.certificates, vtol_design.p
            )
        self.assert_matches_oracle(tmp_path, demo_record, monitor)
        assert len(made) == cpus - 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_switch_on_a_part_boundary(self, tmp_path, forks, cpus, small_setup):
        forks(cpus)
        a, b, graphs, design = small_setup
        signal = periodic_signal(2, 1.0, 2.0)
        cl = build_closed_loop(a, b, design.k, design.alpha, graphs, signal)
        record = simulate(cl, np.random.default_rng(31).uniform(-1, 1, 6), 0.5)
        # Samples 0..4; the switch is sample 2, which starts part 2 of 2 and
        # ends part 2 of 3.
        assert record.times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert record.switches == [(1.0, 1, 2)]
        monitor = lyapunov_monitor(record, design.certificates, design.p)
        self.assert_matches_oracle(tmp_path, record, monitor)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("samples", [1, 2])
    def test_short_records_fork_at_most_one_child_per_extra_sample(
        self, tmp_path, forks, cpus, samples
    ):
        made = forks(cpus)
        switches = [(0.5, 1, 2)] if samples == 2 else []
        record = synthetic_record(SIGNED_ZERO_SAMPLES[:samples], 2, switches)
        self.assert_matches_oracle(tmp_path, record)
        assert len(made) == min(cpus, samples) - 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_signed_zeros_and_consensus_rows(self, tmp_path, forks, cpus):
        forks(cpus)
        record = synthetic_record(SIGNED_ZERO_SAMPLES, 2, [(1.0, 1, 2)])
        self.assert_matches_oracle(tmp_path, record)
        text = (tmp_path / "parted.csv").read_text()
        assert "0.0,1,1.5,-2.0,1.5,-2.0,1.5,-2.0," in text
        assert "0.5,1,0.0,1.0,-0.0,1.0,-0.0,1.0," in text
        assert "1.5,2,0.0,0.0,0.0,0.0,-0.0,0.0," in text

    @pytest.mark.parametrize("min_part_values, forks_made", [(31, 0), (14, 1), (10, 2)])
    def test_parts_need_enough_values(self, tmp_path, forks, min_part_values,
                                      forks_made):
        made = forks(3, min_part_values)
        # 6 rows of 7 values; the 3 agreeing rows format 3 each, so 30 in all.
        record = synthetic_record(SIGNED_ZERO_SAMPLES, 2)
        self.assert_matches_oracle(tmp_path, record)
        assert len(made) == forks_made

    def test_demo_record_is_one_part(self, tmp_path, forks, demo_record):
        made = forks(3, simulator.MIN_PART_VALUES)
        self.assert_matches_oracle(tmp_path, demo_record)
        assert made == []

    @pytest.mark.parametrize("platform", ["linux", "darwin"])
    def test_no_fork_without_os_fork_or_off_linux(self, tmp_path, forks,
                                                  monkeypatch, demo_record,
                                                  platform):
        made = forks(3)
        monkeypatch.setattr(sys, "platform", platform)
        if platform == "linux":
            monkeypatch.delattr(os, "fork")
        self.assert_matches_oracle(tmp_path, demo_record)
        assert made == []

    def test_no_fork_beside_another_thread(self, tmp_path, forks, demo_record):
        # Four CPUs give four parts; a live thread, a BLAS worker say,
        # leaves one until it is gone.
        made = forks(4)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            self.assert_matches_oracle(tmp_path, demo_record)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert made == []
        # A joined thread can still be listed while the kernel tears it down.
        deadline = time.monotonic() + 10
        while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        self.assert_matches_oracle(tmp_path, demo_record)
        assert len(made) == 3

    def test_failed_part_raises_and_leaves_no_child(
        self, tmp_path, forks, monkeypatch, capfd, demo_record
    ):
        forks(3)
        write_rows = simulator._write_rows

        def failing_after_first_part(fh, record, data, agree, lo, hi):
            if lo != 0:
                raise RuntimeError("formatter failed")
            write_rows(fh, record, data, agree, lo, hi)

        monkeypatch.setattr(simulator, "_write_rows", failing_after_first_part)
        # A block-buffered stdout, as when it is a pipe, holding text that a
        # child must not flush.
        with io.TextIOWrapper(open(os.dup(1), "wb")) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            print("written once", end="")
            with pytest.raises(OSError, match=r"part 2 of 3 .*\(exit code 1\)"):
                write_trajectory_csv(demo_record, tmp_path / "trajectory.csv")
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        out, err = capfd.readouterr()
        assert out == "written once"
        assert err.count("RuntimeError: formatter failed") == 2

    def test_no_warning_in_a_threaded_process(self, tmp_path, forks, demo_record):
        # Another thread runs, so nothing forks and nothing warns.
        made = forks(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.assert_matches_oracle(tmp_path, demo_record)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert made == []


class TestErrorNorms:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 12),
           exponents=st.lists(st.integers(-330, 12), min_size=1, max_size=20))
    def test_norms_do_not_underflow(self, seed, width, exponents):
        # Rows from 1e-330 (all entries zero or subnormal) up to the
        # divergence cutoff, 1e12, which no stored e exceeds.  A row
        # whose entries all lie below sqrt(tiny) is scaled first, and reads
        # its hypot to 1e-13 relative, or to a few subnormal ulps; every
        # other row keeps np.linalg.norm's bits.
        rng = np.random.default_rng(seed)
        errors = rng.uniform(-1.0, 1.0, (len(exponents), width)) * np.power(
            10.0, exponents)[:, None]
        norms = simulator._norms(errors)
        plain = np.linalg.norm(errors, axis=1)
        for row, got, old in zip(errors.tolist(), norms.tolist(), plain.tolist()):
            want = math.hypot(*row)
            if max(map(abs, row)) >= simulator.TINY_NORM:
                assert got == old
            assert abs(got - want) <= 1e-13 * want + 4 * 5e-324
            assert (got > 0.0) == any(row)


# Values of agent N: with e_i = 0, a -0.0 of agent N sits beside a +0.0 of
# agent i, which does not agree; subnormal, huge and plain values besides.
AGENT_N_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1.5, -2.0, 1e300, 0.1]


class TestColumnWriter:
    """Agreeing rows are formatted a column at a time, others a row at a time."""

    @settings(max_examples=150, deadline=None)
    @given(n_nodes=st.integers(2, 6), n=st.integers(1, 4),
           lengths=st.lists(st.integers(1, 3), min_size=1, max_size=8),
           steps=st.lists(st.integers(1, 2), min_size=8, max_size=8),
           block=st.integers(1, 3), cpus=st.integers(1, 2),
           extra=st.integers(0, 3), agree=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    # One-sample intervals in blocks of one: the second block's only
    # sample is a switch, so the switch is its first and its last sample.
    @example(n_nodes=3, n=2, lengths=[1, 1, 2], steps=[1] * 8, block=1, cpus=2,
             extra=2, agree=1.0, seed=0)
    def test_blocks_write_the_one_pass_oracle_bytes(
            self, tmp_path_factory, n_nodes, n, lengths, steps, block, cpus, extra,
            agree, seed):
        rng = np.random.default_rng(seed)
        size, m = 1 + sum(lengths), (n_nodes - 1) * n
        ends = np.cumsum(lengths)
        # Interval j holds samples ends[j-1] + 1 .. ends[j]; a switch's
        # sample stores the incoming topology.
        topologies = np.cumsum(steps[: len(lengths)]) % 3 + 1
        indices = np.repeat(topologies, np.diff(ends, prepend=-1))
        indices[ends[:-1]] = topologies[1:]
        times = np.cumsum(rng.uniform(0.01, 1.0, size))
        switches = list(zip(times[ends[:-1]].tolist(), topologies[:-1].tolist(),
                            topologies[1:].tolist()))
        agreement = np.where(rng.random((size, n)) < 0.5,
                             rng.choice(AGENT_N_VALUES, (size, n)),
                             rng.normal(size=(size, n)) * 10.0 ** rng.integers(-3, 4))
        # A random subset of the samples has e = 0, so its agents agree
        # unless agent N holds a -0.0; the rest mostly do not.
        errors = rng.normal(size=(size, m)) * (rng.random(size) >= agree)[:, None]
        # Repeated values, so runs of equal bits occur in the columns, and
        # signed zeros that are equal only as floats.
        norms = rng.choice([0.0, -0.0, 2.5e-320, 0.75, rng.random()], size)
        values = rng.choice([0.0, -0.0, 1e-300, 3.0, rng.random()], (size, extra))
        record = TrajectoryRecord(times, errors, agreement, norms, indices, switches,
                                  n_nodes, n)
        monitor = LyapunovMonitor(list(range(1, extra + 1)), values, [])
        root = tmp_path_factory.mktemp("columns")
        single_process_csv(record, root / "oracle.csv", monitor if extra else None)

        starts = [0, *(ends[block - 1 : -1 : block] + 1).tolist()]
        stops = [*starts[1:], size]
        with mock.patch.object(simulator, "_usable_cpus", lambda: cpus), \
                mock.patch.object(simulator, "MIN_PART_VALUES", 1), \
                open(root / "blocks.csv", "w", newline="") as fh:
            writer = simulator.TrajectoryCsv(fh, "blocks.csv", n_nodes, n,
                                             monitor.topology_indices or None)
            for lo, hi in zip(starts, stops):
                part = slice(lo, hi)
                writer.add(TrajectoryRecord(
                    times[part], errors[part], agreement[part], norms[part],
                    indices[part], [s for s in switches if times[lo] <= s[0] <= times[hi - 1]],
                    n_nodes, n), values[part] if extra else None)
        assert (root / "blocks.csv").read_bytes() == (root / "oracle.csv").read_bytes()

    def test_memory_holds_no_block_text(self, tmp_path, monkeypatch):
        # 1 000 rows of 402 values, none agreeing: each row is written as it
        # is formatted, so the peak stays near the data array; the block's
        # text, about 7.6 MB, would not fit below twice its 3.2 MB.
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)
        rng = np.random.default_rng(41)
        size, n_nodes, n = 1_000, 100, 4
        record = TrajectoryRecord(
            np.arange(size) * 0.01, rng.normal(size=(size, (n_nodes - 1) * n)),
            rng.normal(size=(size, n)), rng.random(size), np.ones(size, dtype=int),
            [], n_nodes, n)
        values = rng.random((size, 1))
        data_bytes = size * (n_nodes * n + 2) * 8
        with open(tmp_path / "trajectory.csv", "w", newline="") as fh:
            writer = simulator.TrajectoryCsv(fh, "trajectory.csv", n_nodes, n, [1])
            tracemalloc.start()
            try:
                writer.add(record, values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (tmp_path / "trajectory.csv").stat().st_size > 2 * data_bytes
        assert peak < 2 * data_bytes
