import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switched_consensus import cli, linalg, synthesis, topology, vtol
from switched_consensus.synthesis import (
    InfeasibleError,
    TopologyCertificate,
    check_schedule,
    choose_c,
    coupling_threshold,
    design_from_dict,
    design_to_dict,
    dwell_threshold,
    max_feasible_beta,
    solve_gain_lmi,
    solve_topology_lmi,
    synthesize,
)

from conftest import (
    draw_stabilizable,
    interval_count,
    random_spd,
    reference_schedule,
    schedule_rows,
    three_certificates,
)


def scalar_reduced(value):
    return topology.ReducedLaplacian(np.array([[float(value)]]), 1)


class TestChooseC:
    def test_default_fraction(self):
        assert choose_c(1.0) == pytest.approx(0.9)

    def test_explicit_fraction(self):
        assert choose_c(2.0, 0.5) == pytest.approx(1.0)

    def test_rejects_nonpositive_margin(self):
        with pytest.raises(InfeasibleError, match="spanning tree"):
            choose_c(0.0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            choose_c(1.0, 1.5)


class TestTopologyLmi:
    def test_scalar(self):
        # 2 (2 - 1) q = 1  ->  q = 0.5
        cert = solve_topology_lmi(scalar_reduced(2.0), 1.0)
        assert cert.q[0, 0] == pytest.approx(0.5)
        assert cert.lmi_margin == pytest.approx(1.0)

    def test_identity_reduced(self):
        cert = solve_topology_lmi(topology.ReducedLaplacian(np.eye(4), 1), 0.5)
        assert np.allclose(cert.q, np.eye(4), atol=1e-12)

    def test_demo_certificates(self, vtol_reduced):
        for red in vtol_reduced:
            cert = solve_topology_lmi(red, 0.25)
            assert linalg.definite_check(cert.q)[0]
            assert cert.lmi_margin >= 1 - 1e-6
            # Direct restatement of the inequality.
            gram = (
                red.matrix.T @ cert.q + cert.q @ red.matrix - 0.5 * cert.q
            )
            assert np.linalg.eigvalsh((gram + gram.T) / 2)[0] > 0

    def test_rejects_c_at_margin(self):
        with pytest.raises(InfeasibleError, match="antistability margin"):
            solve_topology_lmi(topology.ReducedLaplacian(np.eye(3), 1), 1.0)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError, match="positive"):
            solve_topology_lmi(scalar_reduced(2.0), -0.1)


class TestGainLmi:
    def test_scalar_closed_form(self):
        # X = 1 + sqrt(2), P = sqrt(2) - 1, K = (1 + sqrt(2)) / 2.
        p, k = solve_gain_lmi(np.zeros((1, 1)), np.ones((1, 1)), 2.0)
        assert p[0, 0] == pytest.approx(math.sqrt(2) - 1, rel=1e-9)
        assert k[0, 0] == pytest.approx((1 + math.sqrt(2)) / 2, rel=1e-9)
        residual = 2 * p[0, 0] - 1
        assert residual == pytest.approx(-(math.sqrt(2) - 1) ** 2, rel=1e-9)

    def test_infeasible_beta_names_mode_and_bound(self):
        a = np.diag([-1.0, 0.0])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(InfeasibleError, match=r"(-1|bound|below 1)"):
            solve_gain_lmi(a, b, 3.0)

    def test_vtol_inequality_holds(self, vtol_design):
        p = vtol_design.p
        expr = vtol.A @ p + p @ vtol.A.T - vtol.B @ vtol.B.T + 3.0 * p
        top = np.linalg.eigvalsh((expr + expr.T) / 2)[-1]
        assert top < -1e-6
        # The construction makes the expression exactly -P^2.
        expected = -np.linalg.eigvalsh(p @ p)[0]
        assert top == pytest.approx(expected, rel=1e-5)

    def test_gain_identity(self, vtol_design):
        expected = 0.5 * vtol.B.T @ np.linalg.inv(vtol_design.p)
        assert np.abs(vtol_design.k - expected).max() < 1e-8 * (
            1 + np.abs(expected).max()
        )

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            solve_gain_lmi(np.zeros((1, 1)), np.ones((1, 1)), 0.0)


class TestMaxFeasibleBeta:
    def test_controllable_pair_unbounded(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        assert max_feasible_beta(a, b) == math.inf

    def test_decoupled_stable_mode(self):
        # The uncontrollable mode -1 bounds beta by -2 Re(m) = 2.
        bound = max_feasible_beta(np.diag([-1.0, 0.0]), np.array([[0.0], [1.0]]))
        assert bound == pytest.approx(2.0)

    @pytest.mark.parametrize("beta", [1.5, 1.9])
    def test_beta_between_old_and_true_bound_synthesizes(self, beta):
        a = np.diag([-1.0, 0.0])
        b = np.array([[0.0], [1.0]])
        red = topology.ReducedLaplacian(np.array([[1.0]]), 1)
        design = synthesize(a, b, [red], beta)
        assert design.beta_bound == 2.0
        expr = a @ design.p + design.p @ a.T - b @ b.T + beta * design.p
        assert np.linalg.eigvalsh(expr)[-1] < 0

    def test_pbh_runs_twice_per_synthesis(self, vtol_reduced, monkeypatch):
        # One PBH test for the beta bound, one in solve_care's input check.
        calls = []
        pbh = linalg.uncontrollable_modes
        monkeypatch.setattr(linalg, "uncontrollable_modes",
                            lambda a, b: calls.append(1) or pbh(a, b))
        synthesize(vtol.A, vtol.B, vtol_reduced, 3.0, c_values=0.25, alpha=8.1)
        assert len(calls) == 2

    def test_vtol_controllable(self):
        assert max_feasible_beta(vtol.A, vtol.B) == math.inf


class TestDesignChecks:
    def test_vtol_design_passes_every_check(self, vtol_design, vtol_reduced):
        signal = topology.periodic_signal(2, vtol.DWELL, 3 * vtol.DWELL)
        checks = synthesis.design_checks(vtol_design, vtol.A, vtol.B, vtol_reduced,
                                         signal, synthesis.DEFAULT_KAPPA0)
        assert [name for name, _, _ in checks] == [
            "certificate 1: c below antistability margin",
            "certificate 1: Q positive definite",
            "certificate 1: inequality margin",
            "certificate 2: c below antistability margin",
            "certificate 2: Q positive definite",
            "certificate 2: inequality margin",
            "P positive definite",
            "gain identity K = (1/2) B^T inv(P)",
            "gain inequality A P + P A^T - B B^T + beta P < 0",
            "coupling strength alpha > 2/c0",
            "report c0 = min c_i",
            "report alpha_min = 2/c0",
            "report beta_bound = sup feasible beta",
            "report dwell_threshold = ln(lambda_max)/beta",
            "report lambda_max = max lambda_ij over ordered pairs",
            "switch margins > kappa0",
        ]
        assert all(passed for _, passed, _ in checks)
        # Of the two switches, 1 -> 2 has the larger jump bound.
        margin = check_schedule(signal, vtol_design.certificates, vtol.BETA).margin
        assert checks[-1][2] == (f"2 switches, smallest margin {margin[0]:.6g} on "
                                 f"[0, {vtol.DWELL:g}) (1->2) vs kappa0 0.001")

    def test_random_designs_pass_every_check(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = draw_stabilizable(rng)
            n_nodes = int(rng.integers(2, 7))
            reduced = []
            for index in (1, 2):
                w = rng.uniform(0.1, 2.0, (n_nodes, n_nodes)) * (
                    rng.random((n_nodes, n_nodes)) < 0.3)
                w[np.arange(1, n_nodes), np.arange(n_nodes - 1)] = 1.0  # chain
                np.fill_diagonal(w, 0.0)
                lap = topology.laplacian(topology.DirectedGraph(w))
                reduced.append(topology.reduce_laplacian(lap, index))
            design = synthesize(a, b, reduced, float(rng.uniform(0.5, 3.0)))
            # One switch each way, each after a dwell of tau* + 1: every
            # margin is at least beta.
            gap = design.dwell_threshold + 1.0
            signal = topology.SwitchingSignal(np.array([0.0, gap, 2 * gap]),
                                              np.array([1, 2, 1]), 3 * gap)
            checks = synthesis.design_checks(design, a, b, reduced, signal,
                                             synthesis.DEFAULT_KAPPA0)
            assert all(passed for _, passed, _ in checks), checks


@st.composite
def spanning_digraphs(draw):
    """Weight matrices of 2 to 8 nodes holding a directed spanning tree, each
    weight log-uniform in [1e-3, 1e3]."""
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(n)))
    weight = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    w = np.zeros((n, n))
    for pos in range(1, n):  # each node hears one node earlier in `order`
        parent = order[draw(st.integers(0, pos - 1))]
        w[order[pos], parent] = draw(weight)
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    weight), max_size=2 * n))
    for i, j, value in extra:
        if i != j:
            w[i, j] = value
    return w


class TestCertifiedMargin:
    @settings(max_examples=300, deadline=None)
    @given(w=spanning_digraphs(), fraction=st.floats(0.001, 0.999))
    def test_bound_lies_between_c_and_the_margin(self, w, fraction):
        reduced = topology.reduce_laplacian(
            topology.laplacian(topology.DirectedGraph(w)), 1)
        lh = reduced.matrix
        margin = float(np.linalg.eigvals(lh).real.min())  # oracle
        c = fraction * margin
        # The Lyapunov solution solve_topology_lmi checks, taken as it is.
        q = linalg.solve_lyapunov(lh - c * np.eye(len(lh)), np.eye(len(lh)))
        checks, lmi_margin = synthesis.certificate_checks(reduced, c, q)
        name, passed, detail = checks[0]
        assert name == "certificate 1: c below antistability margin"
        q_low, q_high = np.linalg.eigvalsh(q)[[0, -1]]
        # Near a defective Lh (a path of equal weights) with c close to the
        # margin, round-off can cost Q its definiteness; the row then fails.
        assert passed == (q_low > 0 and lmi_margin > 0)
        if passed:
            bound = c + lmi_margin / (2.0 * q_high)
            # eigvals is exact only to about eps ||Lh||, which exceeds 1e-9
            # of the margin where ||Lh|| / margin nears 1e9.
            roundoff = np.finfo(float).eps * np.abs(lh).sum(axis=0).max()
            assert c < bound <= margin * (1 + 1e-9) + roundoff
            assert detail == f"c={c:.6g}, margin >= {bound:.6g}"

    def test_symmetric_topology_bound_is_the_margin(self):
        # Lh = diag(1, 3) is normal: Q = diag(1/(2 (1 - c)), 1/(2 (3 - c))),
        # G = I, and the bound c + 1/(2 lambda_max(Q)) is the margin 1.
        reduced = topology.ReducedLaplacian(np.diag([1.0, 3.0]), 1)
        q = np.diag([1.0 / (2 * 0.5), 1.0 / (2 * 2.5)])
        checks, lmi_margin = synthesis.certificate_checks(reduced, 0.5, q)
        assert lmi_margin == 1.0
        assert checks[0] == ("certificate 1: c below antistability margin", True,
                             "c=0.5, margin >= 1")

    @pytest.mark.parametrize("c, q", [
        (1.5, np.diag([1.0, 0.2])),  # c above the margin: G has a negative eigenvalue
        (0.5, np.diag([1.0, -0.2])),  # Q indefinite
        (0.5, np.array([[1.0, 1.0], [0.0, 1.0]])),  # Q not symmetric
    ], ids=["c-above-margin", "q-indefinite", "q-asymmetric"])
    def test_row_fails_without_a_certificate(self, c, q, monkeypatch):
        monkeypatch.setattr(linalg, "eigenvalues", None)  # never solved
        reduced = topology.ReducedLaplacian(np.diag([1.0, 3.0]), 1)
        checks, _ = synthesis.certificate_checks(reduced, c, q)
        assert checks[0] == (
            "certificate 1: c below antistability margin", False,
            f"c={c:.6g}, not certified: needs Q > 0 and a positive inequality margin")


class TestCouplingThreshold:
    def cert(self, c):
        return TopologyCertificate(1, c, np.eye(2), 1.0)

    def test_demo_values(self):
        certs = [self.cert(0.25), self.cert(0.25)]
        assert coupling_threshold(certs) == 8.0

    def test_single(self):
        assert coupling_threshold([self.cert(1.0)]) == pytest.approx(2.0)

    def test_minimum_rules(self):
        certs = [self.cert(0.5), self.cert(0.1)]
        assert coupling_threshold(certs) == pytest.approx(20.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            coupling_threshold([])


class TestDwellThreshold:
    def test_single_topology(self):
        cert = TopologyCertificate(1, 0.5, np.eye(3), 1.0)
        assert dwell_threshold([cert], 2.0) == (1.0, 0.0)

    def test_equal_certificates(self):
        rng = np.random.default_rng(13)
        q = random_spd(rng, 3)
        certs = [
            TopologyCertificate(1, 0.5, q, 1.0),
            TopologyCertificate(2, 0.5, q.copy(), 1.0),
        ]
        lam, tau = dwell_threshold(certs, 2.0)
        assert lam == pytest.approx(1.0)
        assert tau == 0.0

    def test_demo_finite_positive(self, vtol_design):
        lam, tau = vtol_design.lambda_max, vtol_design.dwell_threshold
        assert np.isfinite(lam) and lam > 1
        assert np.isfinite(tau) and tau > 0
        assert tau == pytest.approx(math.log(lam) / vtol.BETA)

    def test_monotone_in_beta(self, vtol_design):
        certs = vtol_design.certificates
        taus = [dwell_threshold(certs, beta)[1] for beta in (1.0, 2.0, 4.0, 8.0)]
        assert all(t1 >= t2 for t1, t2 in zip(taus, taus[1:]))

    def test_common_scaling_invariance(self, vtol_design):
        certs = vtol_design.certificates
        scaled = [
            TopologyCertificate(c.index, c.c, 7.3 * c.q, c.lmi_margin)
            for c in certs
        ]
        lam, tau = dwell_threshold(certs, 3.0)
        lam_s, tau_s = dwell_threshold(scaled, 3.0)
        assert lam_s == pytest.approx(lam, rel=1e-10)
        assert tau_s == pytest.approx(tau, rel=1e-10)


class TestPairLambdas:
    def test_dwell_threshold_bit_identical_to_per_pair_solves(self):
        certs = three_certificates()
        lam = max(
            linalg.max_generalized_eigenvalue(ci.q, cj.q)
            for ci in certs
            for cj in certs
            if ci.index != cj.index
        )
        assert dwell_threshold(certs, 2.5) == (lam, math.log(lam) / 2.5)

    def test_schedule_margins_bit_identical_with_one_solve_per_pair(
        self, monkeypatch
    ):
        certs = three_certificates()
        q = {c.index: c.q for c in certs}
        # A repeated topology (2 -> 2) is a pair of its own.
        signal = topology.SwitchingSignal(
            np.array([0.0, 0.7, 1.3, 2.2, 2.9, 3.5, 4.4]),
            np.array([1, 2, 2, 3, 1, 2, 3]),
            5.0,
        )
        t = signal.breakpoints
        expected = []
        for k in range(interval_count(signal) - 1):
            i, j = int(signal.indices[k]), int(signal.indices[k + 1])
            lam = 1.0 if i == j else linalg.max_generalized_eigenvalue(q[i], q[j])
            expected.append((lam, 1.5 * (t[k + 1] - t[k]) - math.log(lam)))

        calls = []
        solve = linalg.max_generalized_eigenvalue

        def counting(q1, q2):
            calls.append((id(q1), id(q2)))
            return solve(q1, q2)

        monkeypatch.setattr(linalg, "max_generalized_eigenvalue", counting)
        report = check_schedule(signal, certs, beta=1.5)
        assert list(zip(report.lambda_max.tolist(), report.margin.tolist())) == expected
        # Each of the six ordered pairs is solved once, though (1,2) and
        # (2,3) recur; (2,2) is 1 unsolved.
        assert sorted(calls) == sorted({(id(ci.q), id(cj.q)) for ci in certs
                                        for cj in certs if ci is not cj})

    def test_table_entries_are_the_per_pair_solves(self):
        certs = three_certificates()
        indices, lam = synthesis.pair_lambdas(certs[::-1])
        assert indices == [1, 2, 3]
        for a, ci in enumerate(certs):
            for b, cj in enumerate(certs):
                want = 1.0 if a == b else linalg.max_generalized_eigenvalue(ci.q, cj.q)
                assert lam[a, b] == want

    def test_repeated_index_keeps_the_last_certificate(self):
        one, two, three = three_certificates()
        stale = TopologyCertificate(2, 0.5, 3.0 * two.q, 1.0)
        indices, lam = synthesis.pair_lambdas([one, stale, two, three])
        assert indices == [1, 2, 3]
        assert lam.tolist() == synthesis.pair_lambdas([one, two, three])[1].tolist()

    def test_table_is_a_pair_table(self):
        table = synthesis.pair_lambdas(three_certificates())
        assert isinstance(table, synthesis.PairTable)
        assert table._fields == ("indices", "lam")
        assert table.lambda_max == table.lam[~np.eye(3, dtype=bool)].max()
        assert synthesis.pair_lambdas(three_certificates()[:1]).lambda_max == 1.0

    @settings(max_examples=200, deadline=None)
    @given(indices=st.sets(st.one_of(st.integers(-3, 12),
                                     st.sampled_from([10**6, 2**62])), max_size=6),
           topologies=st.lists(st.one_of(st.integers(-4, 14),
                                         st.sampled_from([10**6, 2**62])),
                               max_size=12))
    def test_rows_are_the_sorted_positions(self, indices, topologies):
        # Indices 1..len(indices) are looked up in a dense array and any
        # other by search; either way a row is the index's sorted position,
        # and the first topology without one, in row-major order, is named.
        indices = sorted(indices)
        table = synthesis.PairTable(indices, np.ones((len(indices),) * 2))
        half = len(topologies) // 2
        for query in (np.array(topologies, dtype=np.int64),
                      np.reshape(topologies[: 2 * half], (2, half))):
            flat = query.ravel().tolist()
            missing = [i for i in flat if i not in indices]
            if missing:
                with pytest.raises(ValueError, match="^no certificate for topology "
                                                     f"index {missing[0]}$"):
                    table.rows(query)
            else:
                want = np.reshape([indices.index(i) for i in flat], query.shape)
                assert table.rows(query).tolist() == want.tolist()

    def test_unpairable_q_names_the_pair(self):
        one, two, _ = three_certificates()
        bad = TopologyCertificate(2, 0.5, -two.q, 1.0)
        with pytest.raises(ValueError, match="^topologies 1 -> 2: q2 is not positive "
                                             "definite"):
            synthesis.pair_lambdas([one, bad])


class TestCheckSchedule:
    def constant_signal(self, dwell=0.5, horizon=3.0):
        return topology.periodic_signal(1, dwell, horizon)

    def test_constant_signal_passes(self, vtol_design):
        certs = [vtol_design.certificates[0]]
        report = check_schedule(self.constant_signal(), certs, beta=3.0, kappa0=1e-3)
        assert report.passed
        assert report.lambda_max.tolist() == [1.0] * len(report.checks)
        assert report.margin == pytest.approx(3.0 * 0.5)

    def test_single_topology_passes_any_kappa_below_beta_dwell(self, vtol_design):
        certs = [vtol_design.certificates[0]]
        report = check_schedule(
            self.constant_signal(), certs, beta=3.0, kappa0=1.5 - 1e-9
        )
        assert report.passed

    def test_demo_signal_passes(self, vtol_design):
        signal = topology.periodic_signal(2, vtol.DWELL, vtol.HORIZON)
        report = check_schedule(signal, vtol_design.certificates, vtol.BETA)
        assert report.passed
        assert len(report.checks) == interval_count(signal) - 1

    def test_tiny_dwell_fails(self, vtol_design):
        signal = topology.periodic_signal(2, 0.01, 0.1)
        report = check_schedule(signal, vtol_design.certificates, vtol.BETA)
        assert not report.passed
        assert (report.margin < 0).any()

    def test_scaling_leaves_verdicts_unchanged(self, vtol_design):
        signal = topology.periodic_signal(2, vtol.DWELL, vtol.HORIZON)
        scaled = [
            TopologyCertificate(c.index, c.c, 0.042 * c.q, c.lmi_margin)
            for c in vtol_design.certificates
        ]
        base = check_schedule(signal, vtol_design.certificates, vtol.BETA)
        after = check_schedule(signal, scaled, vtol.BETA)
        assert base.checks.tolist() == after.checks.tolist()

    def test_missing_certificate(self, vtol_design):
        signal = topology.periodic_signal(2, 0.5, 2.0)
        with pytest.raises(ValueError, match="certificate"):
            check_schedule(signal, [vtol_design.certificates[0]], 3.0)

    def test_repeated_topology_is_no_switch(self):
        # Weights 1e-6 and 1e6 give cond(Q) ~ 2e13, and the pencil (Q, Q)
        # solves to 1.00124; the table's jump from a topology to itself must
        # not solve it, and a breakpoint that keeps the topology is no switch.
        g = topology.DirectedGraph.from_edges(3, [(1, 2, 1e-6), (2, 3, 1e6)])
        reduced = topology.reduce_laplacian(topology.laplacian(g), 1)
        design = synthesize(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.array([[0.0], [1.0]]), [reduced], 1.0)
        q = design.certificates[0].q
        assert np.linalg.cond(q) > 1e13
        assert linalg.max_generalized_eigenvalue(q, q) > 1.001
        signal = topology.SwitchingSignal(np.array([0.0, 1.0, 2.0]),
                                          np.array([1, 1, 1]), 3.0)
        report = check_schedule(signal, design.certificates, 1.0)
        assert report.margin.size == 0 and report.passed
        indices, lam = synthesis.pair_lambdas(design.certificates)
        assert indices == [1] and lam.tolist() == [[1.0]]


KAPPA0 = 1e-3
BETA = 1.5


@st.composite
def explicit_schedules(draw):
    """Topologies of 1 to 40 intervals over {1, 2, 3}, repeats included, and
    per interval a factor on the gap whose margin is exactly kappa0."""
    count = draw(st.integers(1, 40))
    indices = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    factors = draw(st.lists(
        st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0])
        | st.floats(0.05, 3.0), min_size=count, max_size=count))
    return indices, factors


class TestScheduleColumns:
    @settings(max_examples=200, deadline=None)
    @given(schedule=explicit_schedules())
    def test_columns_match_the_reference_loop(self, schedule):
        indices, factors = schedule
        certs = three_certificates()
        order, table = synthesis.pair_lambdas(certs)
        gaps = [(KAPPA0 + math.log(table[i - 1, j - 1])) / BETA * factor
                for i, j, factor in zip(indices, indices[1:], factors)]
        breakpoints = np.concatenate([[0.0], np.cumsum(gaps)])
        signal = topology.SwitchingSignal(breakpoints, np.array(indices),
                                          breakpoints[-1] + 1.0)
        report = check_schedule(signal, certs, BETA, KAPPA0)
        rows, passed = reference_schedule(signal, certs, BETA, KAPPA0)
        assert schedule_rows(report) == rows
        assert report.passed == passed
        assert order == [1, 2, 3]
        # A switch is a breakpoint whose topology differs from the one
        # before it; its interval runs from the previous switch.
        switches = [k for k in range(1, len(indices)) if indices[k] != indices[k - 1]]
        assert report.t_end.tolist() == breakpoints[switches].tolist()
        starts = ([0] + switches)[: len(switches)]
        assert report.t_start.tolist() == breakpoints[starts].tolist()
        assert report.lambda_max.tolist() == [
            table[indices[k - 1] - 1, indices[k] - 1] for k in switches]

    def test_long_periodic_schedule_matches_the_reference_loop(self, vtol_design):
        signal = topology.periodic_signal(2, 1.5 * vtol_design.dwell_threshold,
                                          1e5 * 1.5 * vtol_design.dwell_threshold)
        assert interval_count(signal) == 10**5
        report = check_schedule(signal, vtol_design.certificates, vtol.BETA)
        rows, passed = reference_schedule(signal, vtol_design.certificates,
                                          vtol.BETA, synthesis.DEFAULT_KAPPA0)
        assert schedule_rows(report) == rows
        assert report.passed and passed


class TestSynthesize:
    def test_demo_design_invariants(self, vtol_design):
        assert vtol_design.alpha_min == 8.0
        assert vtol_design.alpha == pytest.approx(8.1)
        assert min(c.c for c in vtol_design.certificates) == pytest.approx(0.25)
        assert vtol_design.beta_bound == math.inf
        assert linalg.definite_check(vtol_design.p)[0]

    def test_rejects_alpha_at_threshold(self, vtol_reduced):
        with pytest.raises(InfeasibleError, match="alpha"):
            synthesize(
                vtol.A, vtol.B, vtol_reduced, 3.0,
                c_values=[0.25, 0.25], alpha=8.0,
            )

    def test_rejects_treeless_topology(self):
        g = topology.DirectedGraph(np.zeros((3, 3)))
        red = topology.reduce_laplacian(topology.laplacian(g), 1)
        with pytest.raises(InfeasibleError, match="spanning tree"):
            synthesize(np.zeros((1, 1)), np.ones((1, 1)), [red], 1.0)

    def test_default_c_fraction_path(self, vtol_reduced):
        design = synthesize(vtol.A, vtol.B, vtol_reduced, 3.0)
        assert min(c.c for c in design.certificates) == pytest.approx(0.9)
        assert design.alpha > design.alpha_min

    def test_broadcast_single_c(self, vtol_reduced):
        design = synthesize(vtol.A, vtol.B, vtol_reduced, 3.0, c_values=0.25,
                            alpha=8.1)
        assert [c.c for c in design.certificates] == [0.25, 0.25]


class TestReportRoundTrip:
    def test_design_document_round_trip(self, vtol_design):
        doc = design_to_dict(vtol_design, config_digest="abc",
                             reference=vtol.REFERENCE)
        rebuilt = design_from_dict(json.loads(cli._json(doc)))
        assert np.array_equal(rebuilt.p, vtol_design.p)
        assert np.array_equal(rebuilt.k, vtol_design.k)
        assert rebuilt.beta == vtol_design.beta
        assert rebuilt.alpha == vtol_design.alpha
        assert rebuilt.beta_bound == vtol_design.beta_bound
        assert (rebuilt.c0, rebuilt.alpha_min) == (0.25, 8.0)
        assert (rebuilt.lambda_max, rebuilt.dwell_threshold) == (
            vtol_design.lambda_max, vtol_design.dwell_threshold)
        assert len(rebuilt.certificates) == 2
        for orig, new in zip(vtol_design.certificates, rebuilt.certificates):
            assert np.array_equal(orig.q, new.q)
            assert orig.c == new.c

    def test_rejects_malformed_report(self):
        with pytest.raises(ValueError, match="malformed"):
            design_from_dict({"beta": 1.0})
