"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria:

 1. Reduced-Laplacian reproduction of the two demo topologies, entrywise
    exact, in under a millisecond.
 2. Spectra of both reduced matrices equal {1, 1, 1, 2}; antistability
    margins equal 1; c = 0.25 admissible.
 3. Coupling threshold 2/c0 equals 8.0 exactly for c = 0.25.
 4. Gain inequality strictly satisfied with beta = 3 and equal to -(min eig
    P^2); simulation with the published gain reaches disagreement ratio
    < 1e-2 at 10 s; all within 5 s.
 5. Dwell threshold finite and positive; published reference values recorded
    side by side (not matched - certificates are not unique); simulation with
    the synthesized gain at dwell max(0.5, 1.1 tau*) also converges.
 6. Oracle suites: Lyapunov vs vectorization (200 draws), spanning tree vs
    brute force (500 graphs), tree <=> antistability on the same corpus, and
    Riccati residuals on 100 stabilizable draws; all within 30 s.
 7. Simulator properties: translation invariance, agreement of the (e, x_N)
    core with the dense full-state oracle, consensus-subspace invariance,
    fourth-order convergence of the RK4 cross-check toward the exact flow.
 8. Switching-condition margins: all positive for the 0.5 s demo schedule
    with kappa0 = 1e-3; a 0.01 s schedule flips at least one negative.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from switched_consensus import (
    linalg,
    simulator,
    synthesis,
    topology,
    vtol,
)

from conftest import (
    LHAT_1,
    LHAT_2,
    dense_simulate,
    draw_stabilizable,
    random_stable,
)
from test_linalg import kron_lyapunov
from test_topology import brute_force_spanning_tree, random_graph


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def demo_signal(dwell=vtol.DWELL, horizon=vtol.HORIZON):
    return topology.periodic_signal(2, dwell, horizon)


def run_demo_simulation(k_gain, alpha, dwell, seed=vtol.SEED, dt=vtol.DT):
    graphs = vtol.load_graphs()
    closed_loop = simulator.build_closed_loop(
        vtol.A, vtol.B, k_gain, alpha, graphs, demo_signal(dwell)
    )
    x0 = np.random.default_rng(seed).uniform(-1, 1, size=20)
    return simulator.simulate(closed_loop, x0, dt)


def test_criterion_1_reduced_laplacian_reproduction(vtol_graphs):
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        red1 = topology.reduce_laplacian(topology.laplacian(vtol_graphs[0]), 1)
        red2 = topology.reduce_laplacian(topology.laplacian(vtol_graphs[1]), 2)
        best = min(best, time.perf_counter() - t0)
    exact = np.array_equal(red1.matrix, LHAT_1) and np.array_equal(
        red2.matrix, LHAT_2
    )
    report(
        1,
        "reduced Laplacians reproduce the printed matrices entrywise",
        exact and best < 1e-3,
        f"exact={exact}, runtime={best * 1e3:.3f} ms",
    )


def test_criterion_2_spectra_and_margins(vtol_reduced):
    ok = True
    details = []
    for red in vtol_reduced:
        lam = linalg.eigenvalues(red.matrix)
        spectrum_ok = (
            np.allclose(sorted(lam.real), [1, 1, 1, 2], atol=1e-8)
            and np.abs(lam.imag).max() < 1e-8
        )
        margin = topology.antistability_margin(red)
        margin_ok = abs(margin - 1.0) < 1e-8
        admissible = vtol.C_VALUE < margin
        ok = ok and spectrum_ok and margin_ok and admissible
        details.append(f"graph {red.source_index}: margin={margin:.9f}")
    report(2, "spectra {1,1,1,2} and unit antistability margins", ok,
           "; ".join(details) + f"; c={vtol.C_VALUE} admissible")


def test_criterion_3_coupling_threshold(vtol_design):
    alpha_min = synthesis.coupling_threshold(vtol_design.certificates)
    report(3, "coupling threshold 2/c0 is exactly 8.0", alpha_min == 8.0,
           f"alpha_min={alpha_min!r}")


def test_criterion_4_gain_inequality_and_published_gain_consensus():
    t0 = time.perf_counter()
    p, _ = synthesis.solve_gain_lmi(vtol.A, vtol.B, vtol.BETA)
    expr = vtol.A @ p + p @ vtol.A.T - vtol.B @ vtol.B.T + vtol.BETA * p
    top = float(np.linalg.eigvalsh((expr + expr.T) / 2)[-1])
    expected = -float(np.linalg.eigvalsh(p @ p)[0])
    identity_ok = abs(top - expected) <= 1e-5 * abs(expected)

    record = run_demo_simulation(vtol.K_PUBLISHED, vtol.ALPHA, vtol.DWELL)
    ok, ratio = simulator.consensus_verdict(record, 1e-2, vtol.WINDOW)
    elapsed = time.perf_counter() - t0
    report(
        4,
        "gain inequality strict and published gain achieves consensus",
        top < -1e-6 and identity_ok and ok and ratio < 1e-2 and elapsed < 5.0,
        f"max eig={top:.3e} vs -(min eig P^2)={expected:.3e}, "
        f"ratio={ratio:.3e}, runtime={elapsed:.2f} s",
    )


def test_criterion_5_dwell_threshold_and_synthesized_gain(vtol_design):
    lam, tau = vtol_design.lambda_max, vtol_design.dwell_threshold
    finite_positive = np.isfinite(lam) and np.isfinite(tau) and tau > 0
    print(
        f"  computed lambda_max={lam:.6f}, tau*={tau:.6f}; published "
        f"reference lambda_max={vtol.REFERENCE['lambda_max']}, "
        f"tau*={vtol.REFERENCE['dwell_threshold']} (certificates are not "
        "unique; reference values are recorded, not reproduced)"
    )
    dwell = max(0.5, 1.1 * tau)
    record = run_demo_simulation(vtol_design.k, vtol_design.alpha, dwell)
    ok, ratio = simulator.consensus_verdict(record, 1e-2, vtol.WINDOW)
    report(
        5,
        "dwell threshold finite/positive and synthesized gain converges",
        finite_positive and ok and ratio < 1e-2,
        f"tau*={tau:.4f}, dwell={dwell:.4f}, ratio={ratio:.3e}",
    )


def test_criterion_6_oracle_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)

    # (a) Lyapunov solver vs the vectorized linear system, 200 draws.
    worst_lyap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = random_stable(rng, n)
        c = rng.normal(size=(n, n))
        c = (c + c.T) / 2
        x = linalg.solve_lyapunov(a, c)
        worst_lyap = max(
            worst_lyap,
            np.abs(x - kron_lyapunov(a, c)).max(),
            np.abs(a.T @ x + x @ a - c).max(),
        )
    lyap_ok = worst_lyap < 1e-8

    # (b, c) spanning-tree oracle and the antistability equivalence, 500 draws.
    agree = 0
    equiv = 0
    for _ in range(500):
        g = random_graph(rng)
        has, _ = topology.has_spanning_tree(g)
        if has == brute_force_spanning_tree(g.weights):
            agree += 1
        red = topology.reduce_laplacian(topology.laplacian(g))
        if has == (topology.antistability_margin(red) > 1e-9):
            equiv += 1
    tree_ok = agree == 500
    equiv_ok = equiv == 500

    # (d) Riccati residuals on 100 comfortably stabilizable draws.
    worst_care = 0.0
    for _ in range(100):
        a, b = draw_stabilizable(rng)
        w = rng.normal(size=a.shape)
        w = w @ w.T + 0.5 * np.eye(a.shape[0])
        x = linalg.solve_care(a, b, w)
        res = np.abs(a.T @ x + x @ a - x @ b @ b.T @ x + w).max()
        worst_care = max(worst_care, res / (1 + np.abs(w).max()))
    care_ok = worst_care < 1e-7

    elapsed = time.perf_counter() - t0
    report(
        6,
        "oracle suites (Lyapunov, spanning tree, equivalence, Riccati)",
        lyap_ok and tree_ok and equiv_ok and care_ok and elapsed < 30.0,
        f"lyap worst={worst_lyap:.2e}, tree agree={agree}/500, "
        f"equivalence={equiv}/500, care worst={worst_care:.2e}, "
        f"runtime={elapsed:.1f} s",
    )


def test_criterion_7_simulator_properties(vtol_design):
    graphs = vtol.load_graphs()
    closed_loop = simulator.build_closed_loop(
        vtol.A, vtol.B, vtol_design.k, vtol_design.alpha, graphs, demo_signal()
    )
    rng = np.random.default_rng(99)
    x0 = rng.uniform(-1, 1, size=20)

    base = simulator.simulate(closed_loop, x0, 0.02)
    shift = np.tile(rng.uniform(-3, 3, size=4), 5)
    shifted = simulator.simulate(closed_loop, x0 + shift, 0.02)
    scale = max(1.0, np.abs(base.errors).max())
    translation_ok = np.abs(base.errors - shifted.errors).max() <= 1e-9 * scale

    _, _, dense_errors = dense_simulate(
        vtol.A, vtol.B, vtol_design.k, vtol_design.alpha, graphs, demo_signal(),
        x0, 0.02,
    )
    reduction_ok = np.abs(base.errors - dense_errors).max() <= 1e-8 * scale

    on_subspace = simulator.simulate(closed_loop, np.tile(x0[:4], 5), 0.02)
    subspace_ok = (
        on_subspace.error_norms[0] == 0.0
        and on_subspace.error_norms.max()
        <= 1e-9 * np.abs(simulator.agent_states(on_subspace)).max()
    )

    m = random_stable(rng, 4, gap=0.3)
    z0 = rng.normal(size=4)
    exact = sla.expm(m) @ z0

    def rk4(h):
        z = z0.copy()
        for _ in range(int(round(1.0 / h))):
            k1 = m @ z
            k2 = m @ (z + h / 2 * k1)
            k3 = m @ (z + h / 2 * k2)
            k4 = m @ (z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return z

    e1 = np.linalg.norm(rk4(0.05) - exact)
    e2 = np.linalg.norm(rk4(0.025) - exact)
    rate = np.log2(e1 / e2)
    rate_ok = 3.5 < rate < 4.6

    report(
        7,
        "translation invariance, reduction equivalence, subspace "
        "invariance, h^4 cross-check",
        translation_ok and reduction_ok and subspace_ok and rate_ok,
        f"translation<=1e-9, reduction<=1e-8, subspace peak="
        f"{on_subspace.error_norms.max():.2e}, rk4 rate={rate:.2f}",
    )


def test_criterion_8_switching_condition_margins(vtol_design):
    good = synthesis.check_schedule(
        demo_signal(), vtol_design.certificates, vtol.BETA, kappa0=1e-3
    )
    all_positive = good.passed and bool((good.margin > 1e-3).all())

    bad = synthesis.check_schedule(
        topology.periodic_signal(2, 0.01, 0.2),
        vtol_design.certificates,
        vtol.BETA,
        kappa0=1e-3,
    )
    some_negative = bool((bad.margin < 0).any())

    report(
        8,
        "per-interval margins positive at 0.5 s, negative at 0.01 s",
        all_positive and some_negative,
        f"worst 0.5 s margin={good.margin.min():.4f}, "
        f"best 0.01 s margin={bad.margin.max():.4f}",
    )
