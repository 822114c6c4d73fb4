"""How the dwell time shapes consensus: theory margins vs observed decay.

Sweeps the round-robin dwell time across the threshold tau* and tabulates,
for each value, the worst switching-condition margin next to the empirically
observed disagreement ratio at the horizon.  The threshold is sufficient,
not necessary: schedules below tau* violate the certificate but may still
converge, which the table makes visible.  The worst margin is the
minimum of `check_schedule`'s margin column.
"""

import numpy as np

from switched_consensus import (
    SimulationDiverged,
    build_closed_loop,
    check_schedule,
    laplacian,
    periodic_signal,
    reduce_laplacian,
    simulate,
    synthesize,
)
from switched_consensus import vtol

graphs = vtol.load_graphs()
reduced = [
    reduce_laplacian(laplacian(g), i) for i, g in enumerate(graphs, start=1)
]
design = synthesize(
    vtol.A, vtol.B, reduced, vtol.BETA,
    c_values=[vtol.C_VALUE, vtol.C_VALUE], alpha=vtol.ALPHA,
)
tau = design.dwell_threshold
print(f"dwell threshold tau* = {tau:.4f} s "
      f"(lambda_max = {design.lambda_max:.4f}, beta = {vtol.BETA})\n")

x0 = np.random.default_rng(vtol.SEED).uniform(-1, 1, size=20)
horizon = 10.0

print(f"{'dwell [s]':>10} {'worst margin':>14} {'certified':>10} "
      f"{'|e(T)|/|e(0)|':>14}")
for dwell in (0.05, 0.10, 0.20, 0.30, 0.40, 0.45, 0.50, 0.75, 1.00):
    signal = periodic_signal(2, dwell, horizon)
    schedule = check_schedule(signal, design.certificates, vtol.BETA)
    worst = schedule.margin.min()
    certified = "yes" if schedule.passed else "no"

    closed_loop = build_closed_loop(
        vtol.A, vtol.B, design.k, design.alpha, graphs, signal
    )
    try:
        record = simulate(closed_loop, x0, 0.01)
        ratio = f"{record.error_norms[-1] / record.error_norms[0]:.3e}"
    except SimulationDiverged as exc:
        ratio = f"diverged at t={exc.t:.2f}"
    print(f"{dwell:>10.2f} {worst:>14.4f} {certified:>10} {ratio:>14}")

print("\nmargins flip sign near tau*; below it the multiple-energy-function "
      "certificate no longer applies, even where the trajectory still "
      "happens to contract.")
