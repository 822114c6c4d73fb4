"""Exact simulation of the switched VTOL formation closed loop.

Builds the closed-loop matrices for the synthesized design, runs the
piecewise-exponential flow from a seeded random start, and inspects the
disagreement decay and the observed energy jumps at switches against their
algebraic bounds.  Writes the trajectory, with the per-topology energy
traces, to ``demo_out/trajectory.csv``.

The flow runs in disagreement coordinates ``(e, x_N)``: the offsets
``e_i = x_i - x_N`` and agent N's state.  The disagreement evolves on its
own, so its norm stays exact while the agreement component grows; the run
would abort only if the disagreement exceeded 1e12 or the state overflowed.
"""

import os

import numpy as np

from switched_consensus import (
    agent_states,
    build_closed_loop,
    consensus_verdict,
    laplacian,
    lyapunov_monitor,
    periodic_signal,
    reduce_laplacian,
    simulate,
    synthesize,
    write_trajectory_csv,
)
from switched_consensus import vtol

np.set_printoptions(precision=4, suppress=True)

graphs = vtol.load_graphs()
reduced = [
    reduce_laplacian(laplacian(g), i) for i, g in enumerate(graphs, start=1)
]
design = synthesize(
    vtol.A, vtol.B, reduced, vtol.BETA,
    c_values=[vtol.C_VALUE, vtol.C_VALUE], alpha=vtol.ALPHA,
)

signal = periodic_signal(2, vtol.DWELL, vtol.HORIZON)
closed_loop = build_closed_loop(
    vtol.A, vtol.B, design.k, design.alpha, graphs, signal
)
m = (closed_loop.node_count - 1) * closed_loop.state_dim
print(f"closed-loop modes: {len(closed_loop.modes)} matrices of shape "
      f"{closed_loop.modes[0].shape} in (e, x_N) coordinates; the e block is "
      f"{closed_loop.modes[0][:m, :m].shape}, the x_N -> e block is zero: "
      f"{not closed_loop.modes[0][:m, m:].any()}")
print(f"switching: round robin every {vtol.DWELL} s over [0, {vtol.HORIZON}] s "
      f"(tau* = {design.dwell_threshold:.4f} s)")

x0 = np.random.default_rng(vtol.SEED).uniform(-1, 1, size=20)
record = simulate(closed_loop, x0, vtol.DT)
print(f"\n{record.times.size} samples, {len(record.switches)} switches")

print("\ndisagreement norm along the run:")
for t_probe in (0.0, 1.0, 2.0, 5.0, 10.0):
    s = int(np.searchsorted(record.times, t_probe))
    print(f"  t = {record.times[s]:5.2f} s   |e| = {record.error_norms[s]:.3e}")

verdict, ratio = consensus_verdict(record, vtol.TOLERANCE, vtol.WINDOW)
print(f"\nconsensus verdict: {verdict} (final/initial ratio {ratio:.3e})")

# The agents agree on a common trajectory, not on a precomputed point: the
# final value depends on the dynamics, the gain, and the switching pattern.
# The record holds each sample's (e, x_N); agent_states rebuilds every
# x_i = e_i + x_N from them.
final = agent_states(record)[-1].reshape(5, 4)
print("\nfinal states (rows = aircraft):")
print(final)
print("max pairwise deviation:",
      f"{np.abs(final - final.mean(axis=0)).max():.3e}")

monitor = lyapunov_monitor(record, design.certificates, design.p)
jumps = [(r, b) for _, _, _, r, b in monitor.switch_jumps if r is not None]
worst = max(r / b for r, b in jumps)
print(f"\nenergy jumps at {len(jumps)} switches: worst observed/bound ratio "
      f"{worst:.3f} (never exceeds 1)")

os.makedirs("demo_out", exist_ok=True)
write_trajectory_csv(record, "demo_out/trajectory.csv", monitor)
print("\ntrajectory written to demo_out/trajectory.csv "
      "(t, topology, 20 states, |e|, V_1, V_2)")
