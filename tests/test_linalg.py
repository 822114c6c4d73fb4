import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from switched_consensus import linalg, simulator, synthesis, topology, vtol

from conftest import (
    LHAT_1,
    LHAT_2,
    draw_stabilizable,
    random_antistable,
    random_spd,
    random_stable,
)


def kron_lyapunov(a, c):
    """Independent oracle: solve a^T X + X a = c by direct vectorization."""
    n = a.shape[0]
    m = np.kron(np.eye(n), a.T) + np.kron(a.T, np.eye(n))
    return np.linalg.solve(m, c.flatten("F")).reshape((n, n), order="F")


def cofactor_det(m):
    """Determinant by cofactor expansion along the first row (small n only)."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


class TestEigenvalues:
    def test_identity(self):
        lam = linalg.eigenvalues(np.eye(3))
        assert np.allclose(sorted(lam.real), [1, 1, 1])
        assert np.allclose(lam.imag, 0)

    def test_rotation(self):
        lam = linalg.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(sorted(lam.imag), [-1, 1], atol=1e-12)
        assert np.allclose(lam.real, 0, atol=1e-12)

    @pytest.mark.parametrize("lhat", [LHAT_1, LHAT_2])
    def test_demo_reduced_laplacians(self, lhat):
        lam = linalg.eigenvalues(lhat)
        assert np.allclose(sorted(lam.real), [1, 1, 1, 2], atol=1e-8)
        assert np.abs(lam.imag).max() < 1e-8

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eigenvalues(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            linalg.eigenvalues(np.array([[np.nan, 0], [0, 1]]))

    def test_conjugate_closure_for_real_input(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            lam = linalg.eigenvalues(rng.normal(size=(n, n)))
            conjugates = np.sort_complex(lam.conj())
            assert np.allclose(np.sort_complex(lam), conjugates, atol=1e-8)

    def test_trace_and_determinant_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m = rng.normal(size=(n, n))
            lam = linalg.eigenvalues(m)
            trace = np.trace(m)
            assert abs(lam.sum().real - trace) <= 1e-8 * (1 + abs(trace))
            assert abs(lam.sum().imag) <= 1e-8 * (1 + abs(trace))
            det = cofactor_det(m)
            assert abs(np.prod(lam).real - det) <= 1e-8 * (1 + abs(det))


class TestIsPositiveDefinite:
    def test_scaled_identity(self):
        verdict, cert = linalg.is_positive_definite(2 * np.eye(3))
        assert verdict
        assert cert == pytest.approx(2.0)

    def test_indefinite(self):
        verdict, cert = linalg.is_positive_definite(np.diag([1.0, -1.0]))
        assert not verdict
        assert cert == pytest.approx(-1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            linalg.is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_random_spd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = random_spd(rng, int(rng.integers(2, 7)))
            verdict, cert = linalg.is_positive_definite(q)
            assert verdict and cert > 0


    def test_verdict_is_sign_of_certificate(self):
        # Smallest eigenvalue within a few ulps of zero, of either sign:
        # a Cholesky verdict and the eigenvalue disagree on about a quarter.
        rng = np.random.default_rng(34)
        for _ in range(200):
            u, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            smallest = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-18, -13)
            q = u @ np.diag([smallest, 1e-3, 0.1, 1.0, 10.0, 100.0]) @ u.T
            verdict, cert = linalg.is_positive_definite((q + q.T) / 2)
            assert verdict is (cert > 0)

    @pytest.mark.parametrize("smallest", [1e-9, -1e-9])
    def test_near_singular_verdict(self, smallest):
        rng = np.random.default_rng(35)
        u, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        q = u @ np.diag([smallest, 1e-3, 0.1, 1.0, 10.0, 100.0]) @ u.T
        verdict, cert = linalg.is_positive_definite((q + q.T) / 2)
        assert verdict is (smallest > 0)
        assert cert == pytest.approx(smallest, rel=1e-4)


class TestSolveLyapunov:
    def test_scaled_identity_case(self):
        # a = -I/2 gives a^T X + X a = -X, so X = -c.
        x = linalg.solve_lyapunov(-0.5 * np.eye(2), -np.eye(2))
        assert np.allclose(x, np.eye(2), atol=1e-12)

    def test_scalar_case(self):
        x = linalg.solve_lyapunov(np.array([[-1.0]]), np.array([[-2.0]]))
        assert x[0, 0] == pytest.approx(1.0)

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(3)
        a = random_stable(rng, 4)
        c = rng.normal(size=(4, 4))
        c = (c + c.T) / 2
        x = linalg.solve_lyapunov(a, c)
        assert np.abs(x - kron_lyapunov(a, c)).max() < 1e-10

    def test_residual_contract(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = random_stable(rng, n)
            c = rng.normal(size=(n, n))
            c = (c + c.T) / 2
            x = linalg.solve_lyapunov(a, c)
            residual = np.abs(a.T @ x + x @ a - c).max()
            assert residual <= 1e-8 * (1 + np.abs(c).max())

    def test_antistable_gives_spd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_antistable(rng, int(rng.integers(2, 7)))
            x = linalg.solve_lyapunov(-a, -np.eye(a.shape[0]))
            verdict, cert = linalg.is_positive_definite(x)
            assert verdict, f"expected SPD, smallest eigenvalue {cert}"

    def test_rejects_mirrored_spectrum(self):
        with pytest.raises(ValueError, match="singular"):
            linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_schur_eigenvalues_match_eig(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=(int(rng.integers(1, 9)),) * 2)
            t, _ = sla.schur(a, output="real")
            lam = np.sort_complex(linalg._schur_eigenvalues(t))
            ref = np.sort_complex(np.linalg.eigvals(a))
            assert np.abs(lam - ref).max() <= 1e-10 * (1 + np.abs(ref).max())

    def test_spectrum_spanning_many_decades(self):
        # Pairs are judged against their own size, not against max |lambda|.
        a = np.diag([1e-7, 2e-7, 1e6])
        a[0, 2] = 5e5
        x = linalg.solve_lyapunov(a, np.eye(3))
        ref = kron_lyapunov(a, np.eye(3))
        assert np.abs(x - ref).max() <= 1e-8 * np.abs(ref).max()
        with pytest.raises(ValueError, match="singular"):
            linalg.solve_lyapunov(np.diag([1e-7, -1e-7, 1e6]), np.eye(3))

    def test_rejects_perturbed_solution(self, monkeypatch):
        # A backward-stable solve passes; the same solve off by 1e-6
        # relative must not.
        rng = np.random.default_rng(9)
        a = random_stable(rng, 5)
        c = rng.normal(size=(5, 5))
        c = (c + c.T) / 2
        linalg.solve_lyapunov(a, c)
        lapack = sla.get_lapack_funcs

        def perturbed(names, arrays):
            trsyl = lapack(names, arrays)

            def solve(*args, **kwargs):
                y, scale, info = trsyl(*args, **kwargs)
                return y * (1 + 1e-6), scale, info

            return solve

        monkeypatch.setattr(sla, "get_lapack_funcs", perturbed)
        with pytest.raises(ValueError, match="residual"):
            linalg.solve_lyapunov(a, c)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            linalg.solve_lyapunov(-np.eye(2), -np.eye(3))


class TestSolveCare:
    def test_scalar_origin(self):
        # -x^2 + 1 = 0, stabilizing root x = 1 (closed loop -1).
        x = linalg.solve_care(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        assert x[0, 0] == pytest.approx(1.0)

    def test_scalar_unstable_plant(self):
        # 2x - x^2 + 3 = 0, stabilizing root x = 3 (closed loop -2).
        x = linalg.solve_care(np.ones((1, 1)), np.ones((1, 1)), 3 * np.ones((1, 1)))
        assert x[0, 0] == pytest.approx(3.0)

    def test_vtol_shifted(self):
        from switched_consensus import vtol

        abar = vtol.A + 1.5 * np.eye(4)
        x = linalg.solve_care(abar, vtol.B, np.eye(4))
        residual = np.abs(
            abar.T @ x + x @ abar - x @ vtol.B @ vtol.B.T @ x + np.eye(4)
        ).max()
        assert residual < 1e-7 * 2
        verdict, _ = linalg.is_positive_definite(x)
        assert verdict

    def test_closed_loop_is_hurwitz(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            a, b = draw_stabilizable(rng)
            x = linalg.solve_care(a, b, np.eye(a.shape[0]))
            cl = linalg.eigenvalues(a - b @ b.T @ x)
            assert cl.real.max() < 0

    def test_rejects_unstabilizable(self):
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="not stabilizable"):
            linalg.solve_care(a, b, np.eye(2))

    def test_rejects_indefinite_weight(self):
        with pytest.raises(ValueError, match="positive definite"):
            linalg.solve_care(np.zeros((2, 2)), np.eye(2), np.diag([1.0, -1.0]))


class TestExpm:
    def test_zero(self):
        out = linalg.expm(np.zeros((3, 3)), [1.0, 0.0, -2.5])
        assert np.array_equal(out, np.broadcast_to(np.eye(3), (3, 3, 3)))

    def test_diagonal(self):
        out = linalg.expm(np.diag([1.0, 2.0]), [1.0])[0]
        assert np.allclose(out, np.diag([np.e, np.e**2]), rtol=1e-12)

    def test_nilpotent(self):
        out = linalg.expm(np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0])[0]
        assert np.allclose(out, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_large_nilpotent_stays_finite(self):
        # alpha_4 is 0, so only the scale cap squares it; I + X is exact.
        out = linalg.expm(np.array([[0.0, 2.0**60], [0.0, 0.0]]), [1.0, 4.0])
        assert np.array_equal(out[0], [[1.0, 2.0**60], [0.0, 1.0]])
        assert np.array_equal(out[1], [[1.0, 2.0**62], [0.0, 1.0]])

    def test_inverse_property(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.normal(size=(5, 5))
            m *= min(1.0, 10.0 / np.linalg.norm(m))
            forward, backward = linalg.expm(m, [1.0, -1.0])
            assert np.abs(forward @ backward - np.eye(5)).max() < 1e-9

    def test_semigroup_property(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4))
        s, t = 0.7, 1.9
        lhs, first, second = linalg.expm(m, [s + t, s, t])
        rhs = first @ second
        assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(lhs).max()

    def test_overflow_reported(self):
        # exp(800) overflows; the simulator reports it as a divergence.
        out = linalg.expm(np.diag([800.0, 800.0]), [1.0])[0]
        assert np.array_equal(out, np.diag([np.inf, np.inf]))

    def test_stack_equals_per_slice_calls(self):
        # Each step's result is its own: the same bits alone, among other
        # steps, and in another order, whatever squarings the others need.
        rng = np.random.default_rng(35)
        modes = [rng.normal(size=(5, 5)), np.diag(rng.normal(size=5)),
                 np.tril(rng.normal(size=(5, 5))), np.zeros((5, 5))]
        steps = rng.uniform(0.01, 20.0, 9) * rng.choice([-1.0, 1.0], 9)
        steps[3] = 0.0
        for m in modes:
            out = linalg.expm(m, steps)
            assert out.shape == (9, 5, 5)
            for got, h in zip(out, steps):
                assert got.tobytes() == linalg.expm(m, [h])[0].tobytes()
            rev = linalg.expm(m, steps[::-1])
            assert rev[::-1].tobytes() == out.tobytes()

    def test_overflow_of_one_slice_reported(self):
        m = np.diag([800.0, 1.0])
        out = linalg.expm(m, [1e-3, 1.0, 0.0])
        assert np.isfinite(out).all(axis=(1, 2)).tolist() == [True, False, True]
        for k, h in ((0, 1e-3), (2, 0.0)):
            assert out[k].tobytes() == linalg.expm(m, [h])[0].tobytes()

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="square"):
            linalg.expm(np.zeros((3, 2, 4)), [1.0])
        with pytest.raises(ValueError, match="square"):
            linalg.expm(np.zeros((2, 3, 3)), [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            linalg.expm(np.full((2, 2), np.nan), [1.0])
        for steps in ([np.inf], [np.nan], [[1.0]], 1.0):
            with pytest.raises(ValueError, match="steps"):
                linalg.expm(np.eye(2), steps)


def exact_expm(m, h):
    """Oracle: exp(h m) at 40 significant digits, rounded to doubles.

    The product h m is formed in 40 digits too, so the reference does not
    share the kernel's rounding of the argument.
    """
    with mpmath.workdps(40):
        out = mpmath.expm(mpmath.matrix(m.tolist()) * mpmath.mpf(h))
        return np.array(out.tolist(), dtype=float)


def relative_error(got, want):
    """Max-norm error relative to the largest entry of `want`."""
    return np.abs(got - want).max() / np.abs(want).max()


DOUBLE_INTEGRATOR = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))


def double_integrator_design(graph_docs, beta):
    """The graphs of `graph_docs` and the design synthesized for double
    integrators on them."""
    graphs = topology.GraphSet(tuple(topology.graph_from_dict(g) for g in graph_docs))
    reduced = [topology.reduce_laplacian(topology.laplacian(g), pos)
               for pos, g in enumerate(graphs, start=1)]
    return graphs, synthesis.synthesize(*DOUBLE_INTEGRATOR, reduced, beta)


def double_integrator_modes(graph_docs, beta):
    """Closed-loop modes of double integrators on `graph_docs` under a
    synthesized design, as the simulator builds them."""
    graphs, design = double_integrator_design(graph_docs, beta)
    signal = topology.periodic_signal(len(graphs), 1.0, 2.0 * len(graphs))
    loop = simulator.build_closed_loop(*DOUBLE_INTEGRATOR, design.k, design.alpha,
                                       graphs, signal)
    return loop.modes, design


def large_n_docs(n=200):
    """The large-n benchmark's graphs: a directed ring and a leader-pinned
    bidirectional path on `n` agents."""
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    path = [(i, i + 1) for i in range(1, n - 1)]
    path += [(i + 1, i) for i in range(1, n - 1)] + [(n, 1)]
    return [{"node_count": n, "edges": [{"from": s, "to": d, "weight": 1.0}
                                        for s, d in edges]}
            for edges in (ring, path)]


def random_spanning_digraph(rng, n):
    """A weighted digraph with a directed spanning tree plus random edges."""
    order = rng.permutation(n) + 1
    weights = {}
    for pos in range(1, n):
        parent = int(order[rng.integers(0, pos)])
        weights[(parent, int(order[pos]))] = float(rng.uniform(0.5, 2.0))
    for src in range(1, n + 1):
        for dst in range(1, n + 1):
            if src != dst and (src, dst) not in weights and rng.random() < 0.2:
                weights[(src, dst)] = float(rng.uniform(0.5, 2.0))
    return {"node_count": n, "edges": [{"from": s, "to": d, "weight": w}
                                       for (s, d), w in sorted(weights.items())]}


class TestExpmAccuracy:
    """The Taylor kernel against 40-digit mpmath and against scipy."""

    TOL = 1e-13

    def check(self, m, steps):
        for got, h in zip(linalg.expm(m, steps), steps):
            assert relative_error(got, exact_expm(m, h)) < self.TOL

    def test_vtol_modes(self, vtol_graphs, vtol_design):
        # Both VTOL closed loops are defective (ROADMAP, modal propagation).
        signal = topology.periodic_signal(2, vtol.DWELL, vtol.HORIZON)
        loop = simulator.build_closed_loop(vtol.A, vtol.B, vtol_design.k,
                                           vtol_design.alpha, vtol_graphs, signal)
        for mode in loop.modes:
            self.check(mode, [vtol.DT, 0.37 * vtol.DT, vtol.DWELL])

    def test_random_digraph_modes(self):
        # Long-schedule style: N = 10 double integrators, dt = tau* / 3 and
        # fragments of it next to switches.
        rng = np.random.default_rng(4242)
        modes, design = double_integrator_modes(
            [random_spanning_digraph(rng, 10) for _ in range(2)], 1.0)
        dt = design.dwell_threshold / 3.0
        for mode in modes:
            self.check(mode, [dt, 0.213 * dt])

    @pytest.mark.parametrize("m", [
        np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]),
        np.diag([-3.0, 0.5, 2.0]),
        np.zeros((3, 3)),
    ], ids=["nilpotent", "diagonal", "zero"])
    def test_structured(self, m):
        self.check(m, [0.01, 1.0, 7.5])

    def test_overflow_is_not_finite(self):
        assert not np.isfinite(linalg.expm(np.diag([800.0, 800.0]), [1.0])).all()

    def test_large_n_modes_match_scipy(self):
        # N = 200 double integrators on a ring and a leader-pinned path: the
        # 400x400 modes of the large-n benchmark, at dt and a fragment.
        modes, _ = double_integrator_modes(large_n_docs(), 2.0)
        for mode in modes:
            steps = [0.01, 0.0047]
            for got, h in zip(linalg.expm(mode, steps), steps):
                assert relative_error(got, sla.expm(mode * h)) < 1e-11


class TestMaxGeneralizedEigenvalue:
    def test_equal_inputs(self):
        rng = np.random.default_rng(9)
        q = random_spd(rng, 4)
        assert linalg.max_generalized_eigenvalue(q, q) == pytest.approx(1.0)

    def test_scaled_identity(self):
        assert linalg.max_generalized_eigenvalue(
            np.eye(3), 2 * np.eye(3)
        ) == pytest.approx(2.0)

    def test_matches_direct_product_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            q1, q2 = random_spd(rng, n), random_spd(rng, n)
            lam = linalg.max_generalized_eigenvalue(q1, q2)
            direct = np.abs(np.linalg.eigvals(np.linalg.inv(q1) @ q2)).max()
            assert lam == pytest.approx(direct, rel=1e-9)

    def test_product_at_least_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            q1, q2 = random_spd(rng, n), random_spd(rng, n)
            fwd = linalg.max_generalized_eigenvalue(q1, q2)
            bwd = linalg.max_generalized_eigenvalue(q2, q1)
            assert fwd * bwd >= 1 - 1e-12

    def test_proportional_inputs_reach_equality(self):
        rng = np.random.default_rng(12)
        q = random_spd(rng, 5)
        fwd = linalg.max_generalized_eigenvalue(q, 3.7 * q)
        bwd = linalg.max_generalized_eigenvalue(3.7 * q, q)
        assert fwd * bwd == pytest.approx(1.0, rel=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            linalg.max_generalized_eigenvalue(np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize("q1, q2, name, smallest", [
        (np.diag([1.0, -1.0]), np.eye(2), "q1", "-1.000e+00"),
        (np.diag([2.0, 0.0]), np.eye(2), "q1", "0.000e+00"),
        (np.eye(2), np.diag([1.0, -1.0]), "q2", "-1.000e+00"),
        (np.eye(2), np.diag([2.0, 0.0]), "q2", "0.000e+00"),
        (np.diag([-1.0, 1.0]), np.diag([1.0, -1.0]), "q1", "-1.000e+00"),
    ], ids=["q1-indefinite", "q1-singular", "q2-indefinite", "q2-singular",
            "both"])
    def test_names_the_matrix_that_is_not_definite(self, q1, q2, name, smallest):
        with pytest.raises(ValueError) as info:
            linalg.max_generalized_eigenvalue(q1, q2)
        assert str(info.value) == (f"{name} is not positive definite "
                                   f"(smallest eigenvalue {smallest})")

    @staticmethod
    def assert_matches_scipy(q1, q2):
        got = linalg.max_generalized_eigenvalue(q1, q2)
        want = sla.eigh(q2, q1, eigvals_only=True)[-1]
        assert abs(got - want) <= 1e-12 * abs(want)

    def check_every_ordered_pair(self, certificates):
        for c1 in certificates:
            for c2 in certificates:
                if c1 is not c2:
                    self.assert_matches_scipy(c1.q, c2.q)

    def test_vtol_certificates_match_scipy(self, vtol_design):
        self.check_every_ordered_pair(vtol_design.certificates)

    def test_large_n_certificates_match_scipy(self):
        # The 199x199 certificates of the large-n benchmark.
        _, design = double_integrator_design(large_n_docs(), 2.0)
        self.check_every_ordered_pair(design.certificates)

    def test_long_schedule_certificates_match_scipy(self):
        # Long-schedule style: four random digraphs on N = 10, beta = 1.
        rng = np.random.default_rng(4242)
        _, design = double_integrator_design(
            [random_spanning_digraph(rng, 10) for _ in range(4)], 1.0)
        self.check_every_ordered_pair(design.certificates)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           spread1=st.floats(0.0, 9.0), spread2=st.floats(0.0, 9.0),
           scale=st.floats(-3.0, 3.0))
    def test_random_pairs_match_scipy(self, seed, n, spread1, spread2, scale):
        # q = D H D: H has its eigenvalues in [1, 10] and the diagonal D
        # spreads over 10^(spread / 2), so cond(q) <= 10^(spread + 1) <= 1e10.
        # The ill-conditioning lies in the scaling, which the Cholesky
        # reduction keeps, so the largest eigenvalue is determined to a few
        # ulps and both solvers must find it.  (For a pair ill-conditioned
        # in a rotated basis the eigenvalue itself is determined only to
        # about eps * cond, and two backward-stable solvers differ by that.)
        rng = np.random.default_rng(seed)

        def graded(spread):
            u, _ = np.linalg.qr(rng.normal(size=(n, n)))
            h = (u * rng.uniform(1.0, 10.0, n)) @ u.T
            d = 10.0 ** rng.uniform(0.0, spread / 2, n)
            return d[:, None] * h * d

        q1, q2 = graded(spread1), 10.0**scale * graded(spread2)
        self.assert_matches_scipy((q1 + q1.T) / 2, (q2 + q2.T) / 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_wide_pencil_keeps_a_definite_q2(self, seed):
        # Pencil eigenvalues 1e-12, 1 and 1e12: the reduction gets the
        # smallest only to about eps * 1e12 = 1e-4, so its sign is round-off,
        # and on about half of these seeds it comes out negative.  q2 is
        # positive definite all the same, and the largest eigenvalue is
        # returned.
        u, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        q1 = (u * [1.0, 1e-6, 1e-12]) @ u.T
        q2 = (u * [1e-12, 1e-6, 1.0]) @ u.T
        lam = linalg.max_generalized_eigenvalue((q1 + q1.T) / 2, (q2 + q2.T) / 2)
        assert lam == pytest.approx(1e12, rel=1e-3)


class TestUncontrollableModes:
    def test_controllable_pair_has_none(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        assert linalg.uncontrollable_modes(a, b) == []

    def test_detects_decoupled_mode(self):
        modes = linalg.uncontrollable_modes(
            np.diag([-1.0, 0.0]), np.array([[0.0], [1.0]])
        )
        assert len(modes) == 1
        assert modes[0] == pytest.approx(-1.0)
