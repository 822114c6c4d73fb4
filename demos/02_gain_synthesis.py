"""Gain synthesis for the VTOL formation, certificate by certificate.

Shows each constructive step behind `synthesize`: the per-topology
certificate Q from a shifted Lyapunov equation, the feedback gain from the
Riccati reduction of the design inequality, the coupling-strength threshold,
and the dwell-time threshold with its published reference values.  Last,
`check_schedule` judges a schedule: it returns one column per quantity,
one entry per switch, so the worst margin is the column's minimum.
"""

import numpy as np

from switched_consensus import (
    check_schedule,
    coupling_threshold,
    dwell_threshold,
    laplacian,
    max_feasible_beta,
    periodic_signal,
    reduce_laplacian,
    solve_gain_lmi,
    solve_topology_lmi,
)
from switched_consensus import vtol

np.set_printoptions(precision=4, suppress=True)

graphs = vtol.load_graphs()
reduced = [
    reduce_laplacian(laplacian(g), i) for i, g in enumerate(graphs, start=1)
]

print("step 1: per-topology certificates (c = 0.25 for both)")
certificates = [solve_topology_lmi(red, vtol.C_VALUE) for red in reduced]
for cert in certificates:
    print(f"  topology {cert.index}: Q =")
    print("    " + np.array2string(cert.q, prefix="    "))
    print(f"    inequality margin {cert.lmi_margin:.6f} "
          "(equals 1 by construction)")

print("\nstep 2: coupling-strength threshold")
alpha_min = coupling_threshold(certificates)
print(f"  alpha must exceed 2/c0 = {alpha_min}; the demo uses "
      f"alpha = {vtol.ALPHA}")

print("\nstep 3: feedback gain from the Riccati reduction (beta = 3)")
bound = max_feasible_beta(vtol.A, vtol.B)
print(f"  (A, B) is controllable, so any beta > 0 is feasible "
      f"(bound = {bound})")
p, k = solve_gain_lmi(vtol.A, vtol.B, vtol.BETA)
print("  P =")
print("    " + np.array2string(p, prefix="    "))
print("  K = (1/2) B^T inv(P) =")
print("    " + np.array2string(k, prefix="    "))
expr = vtol.A @ p + p @ vtol.A.T - vtol.B @ vtol.B.T + vtol.BETA * p
print(f"  largest eigenvalue of the design inequality: "
      f"{np.linalg.eigvalsh(expr).max():.3e} (strictly negative; "
      "the construction makes the expression exactly -P^2)")

print("\nstep 4: dwell-time threshold")
lam, tau = dwell_threshold(certificates, vtol.BETA)
print(f"  computed : lambda_max = {lam:.4f}, tau* = {tau:.4f} s")
print(f"  published: lambda_max = {vtol.REFERENCE['lambda_max']}, "
      f"tau* = {vtol.REFERENCE['dwell_threshold']} s")
print("  (the certificates are not unique, so the numbers differ; "
      "both designs are valid)")

print("\nstep 5: check the 0.5 s round-robin schedule against the "
      "switching condition")
signal = periodic_signal(2, vtol.DWELL, vtol.HORIZON)
schedule = check_schedule(signal, certificates, vtol.BETA)
# One column entry per switch: its interval, pair, lambda and margin.
worst = schedule.margin.min()
print(f"  {schedule.margin.size} switch margins, worst {worst:.4f} "
      f"> kappa0 = {schedule.kappa0}: "
      f"{'PASS' if schedule.passed else 'FAIL'}")
