"""Dense real linear-algebra kernel used throughout the toolkit.

Eigenvalues, definiteness tests, Lyapunov and Riccati solves, the matrix
exponential, and symmetric generalized eigenvalue extraction, all as pure
functions over numpy arrays.  Every solver verifies its own output (residual
or spectrum check) before returning, so downstream synthesis code can treat
a returned matrix as a certificate.

The factorizations are delegated to LAPACK; this module adds the input
contracts, the residual verification, and a Newton-Kleinman polish for the
Riccati solve.  Only `solve_lyapunov` (real Schur form and trsyl) and
`solve_care` (`solve_continuous_are`) need scipy, and they import it when
they run, so a process that never synthesizes never loads it.  Everything
else is numpy's: the generalized eigenvalue of `max_generalized_eigenvalue`
is a Cholesky reduction to a symmetric eigenproblem, and `expm` is a Taylor
kernel of its own that exponentiates many steps of one matrix from shared
powers, using only matrix products.
"""

import math

import numpy as np

# Relative asymmetry accepted before an input is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-9
# Relative tolerance for the eigenvalue-pair condition of the Lyapunov
# equation: a pair is singular when |l_i + l_j| <= tol * (|l_i| + |l_j|).
EIG_PAIR_TOL = 1e-8
# Residual acceptance thresholds.  The Lyapunov bound is the normwise
# backward error, relative to 1 + ||c|| + 2 ||a|| ||x||; the Riccati bound is
# relative to 1 + ||w||.  All norms are entrywise max norms.
LYAPUNOV_RESIDUAL_RTOL = 1e-8
CARE_RESIDUAL_RTOL = 1e-7
# PBH rank cutoff: smallest singular value below this fraction of the largest
# marks a mode as uncontrollable.
PBH_RTOL = 1e-8
# Most Newton-Kleinman steps spent polishing a Riccati solution.
NEWTON_STEPS = 8
# The matrix exponential: a Taylor polynomial of degree TAYLOR_DEGREE,
# evaluated in Paterson-Stockmeyer blocks of TAYLOR_BLOCK powers, is
# accurate to the unit round-off for arguments whose alpha_4 bound is at
# most TAYLOR_THETA (Higham, Functions of Matrices, SIAM 2008, Table A.3).
TAYLOR_DEGREE = 18
TAYLOR_BLOCK = 6
TAYLOR_THETA = 1.09
# Largest scale factor taken unsquared, so the coefficients c**18 / 18! of
# a nilpotent matrix, whose alpha_4 bound is 0, stay finite.
TAYLOR_MAX_SCALE = 2.0**50
# Squarings of matrices of order at least FLUSH_MIN_ORDER first zero their
# entries below 2^-500 (see `expm`); on 20x20 matrices that costs more than
# the subnormal products it saves.
FLUSH_MIN_ORDER = 100

__all__ = [
    "definite_check",
    "eigenvalues",
    "expm",
    "max_generalized_eigenvalue",
    "solve_care",
    "solve_lyapunov",
    "uncontrollable_modes",
]


def _as_square(m, name="matrix"):
    """Finite square float matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_matrix(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _symmetrize(m, name="matrix"):
    """Return the symmetric part of `m`, rejecting asymmetry beyond tolerance."""
    m = _as_square(m, name)
    scale = max(1.0, np.abs(m).max())
    asym = np.abs(m - m.T).max()
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"{name} is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.1e} * {scale:.3e}"
        )
    return (m + m.T) / 2.0


def eigenvalues(m):
    """All eigenvalues of a square real matrix, with multiplicity.

    Returns a complex ndarray of length n.  Ordering is unspecified;
    consumers must use order-insensitive reductions (min real part,
    max modulus, sorted comparison).
    """
    m = _as_square(m)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # QR iteration failed to converge
        raise ValueError(f"eigenvalue iteration did not converge: {exc}") from exc


def definite_check(m):
    """``(passed, detail, largest eigenvalue)`` of ``m > 0`` from one symmetric
    solve: `passed` is the sign of the smallest eigenvalue, which the detail
    names.  A non-symmetric or non-finite `m` fails, with that error as the
    detail and a nan largest eigenvalue."""
    try:
        spectrum = np.linalg.eigvalsh(_symmetrize(m))
    except ValueError as exc:
        return False, str(exc), math.nan
    low = float(spectrum[0])
    return low > 0.0, f"smallest eigenvalue {low:.3e}", float(spectrum[-1])


def _schur_eigenvalues(t):
    """Eigenvalues of a real Schur factor, read from its diagonal blocks.

    LAPACK leaves each complex pair as a standardized 2x2 block
    ``[[p, q], [r, p]]`` with ``q * r < 0``, whose eigenvalues are
    ``p +- i sqrt(-q r)``; every other diagonal entry is a real eigenvalue.
    """
    lam = t.diagonal().astype(complex)
    k = np.flatnonzero(t.diagonal(-1))
    im = np.sqrt(np.abs(t[k, k + 1] * t[k + 1, k]))
    lam[k] += 1j * im
    lam[k + 1] -= 1j * im
    return lam


def solve_lyapunov(a, c):
    """Solve the Lyapunov equation  a^T X + X a = c  for symmetric c.

    Bartels-Stewart: with the real Schur form ``a^T = u t u^T``, LAPACK's
    trsyl solves ``t y + y t^T = u^T c u`` and ``X = u y u^T``.  The solution
    exists and is unique iff no two eigenvalues of `a` sum to zero; that
    condition is checked on the diagonal blocks of ``t`` before the solve.
    The result is symmetrized and its residual verified against the
    normwise backward error bound
    ``LYAPUNOV_RESIDUAL_RTOL * (1 + ||c|| + 2 ||a|| ||X||)``.
    """
    import scipy.linalg as sla

    a = _as_square(a, "a")
    c = _symmetrize(c, "c")
    if a.shape != c.shape:
        raise ValueError(f"dimension mismatch: a is {a.shape}, c is {c.shape}")
    t, u = sla.schur(a.T, output="real")
    lam = _schur_eigenvalues(t)
    mag = np.abs(lam)
    if np.any(np.abs(lam[:, None] + lam) <= EIG_PAIR_TOL * (mag[:, None] + mag)):
        raise ValueError(
            "Lyapunov equation is singular: eigenvalues of `a` contain a pair "
            "summing to zero (solution not unique)"
        )
    f = u.T.dot(c.dot(u))
    trsyl = sla.get_lapack_funcs("trsyl", (t, f))
    # info == 1 means trsyl perturbed a near-singular pair; the residual
    # check below judges the result.
    y, scale, info = trsyl(t, t, f, tranb="T")
    if info < 0:
        raise ValueError(f"trsyl rejected argument {-info}")
    y *= scale
    x = u.dot(y).dot(u.T)
    x = (x + x.T) / 2.0
    residual = np.abs(a.T @ x + x @ a - c).max()
    bound = LYAPUNOV_RESIDUAL_RTOL * (
        1.0 + np.abs(c).max() + 2.0 * np.abs(a).max() * np.abs(x).max()
    )
    if residual > bound:
        raise ValueError(
            f"Lyapunov residual {residual:.3e} exceeds {bound:.3e}; "
            "input is numerically pathological"
        )
    return x


def uncontrollable_modes(a, b):
    """Uncontrollable eigenvalues of the pair (a, b) by the PBH test.

    For each eigenvalue lambda of `a` the smallest singular value of
    ``[lambda I - a, b]`` is compared against `PBH_RTOL` times the largest;
    eigenvalues failing the rank test are returned (with multiplicity).
    """
    a = _as_square(a, "a")
    b = _as_matrix(b, "b")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: a is {a.shape}, b is {b.shape}")
    n = a.shape[0]
    modes = []
    for lam in eigenvalues(a):
        pencil = np.hstack([lam * np.eye(n) - a, b.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        if sv[-1] < PBH_RTOL * sv[0]:
            modes.append(complex(lam))
    return modes


def solve_care(a, b, w):
    """Stabilizing solution of  a^T X + X a - X b b^T X + w = 0.

    `w` must be symmetric positive definite and (a, b) stabilizable.  The
    Schur-based scipy solution is polished by up to `NEWTON_STEPS`
    Newton-Kleinman steps (one Lyapunov solve each) until the entrywise-max
    residual drops below ``CARE_RESIDUAL_RTOL * (1 + ||w||)``.  The returned
    X is verified symmetric positive definite with ``a - b b^T X`` Hurwitz.
    """
    import scipy.linalg as sla

    a = _as_square(a, "a")
    b = _as_matrix(b, "b")
    w = _symmetrize(w, "w")
    if b.shape[0] != a.shape[0] or w.shape != a.shape:
        raise ValueError(
            f"dimension mismatch: a is {a.shape}, b is {b.shape}, w is {w.shape}"
        )
    ok, detail, _ = definite_check(w)
    if not ok:
        raise ValueError(f"w is not positive definite ({detail})")
    unstable = [m for m in uncontrollable_modes(a, b) if m.real >= 0]
    if unstable:
        raise ValueError(
            f"(a, b) is not stabilizable: uncontrollable unstable modes {unstable}; "
            "no stabilizing Riccati solution exists"
        )
    try:
        x = sla.solve_continuous_are(a, b, w, np.eye(b.shape[1]))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ValueError(f"Riccati solve failed: {exc}") from exc
    x = (x + x.T) / 2.0
    bbt = b @ b.T
    bound = CARE_RESIDUAL_RTOL * (1.0 + np.abs(w).max())
    for _ in range(NEWTON_STEPS):
        residual = np.abs(a.T @ x + x @ a - x @ bbt @ x + w).max()
        if residual <= 0.01 * bound:
            break
        acl = a - bbt @ x
        # Newton-Kleinman step: acl^T X+ + X+ acl = -(w + X bbt X).
        x = solve_lyapunov(acl, -(w + x @ bbt @ x))
    residual = np.abs(a.T @ x + x @ a - x @ bbt @ x + w).max()
    if residual > bound:
        raise ValueError(
            f"Riccati residual {residual:.3e} exceeds {bound:.3e} after refinement"
        )
    ok, detail, _ = definite_check(x)
    if not ok:
        raise ValueError(f"Riccati solution is not positive definite ({detail})")
    closed_loop = eigenvalues(a - bbt @ x)
    if closed_loop.real.max() >= 0:
        raise ValueError(
            "Riccati solution is not stabilizing: closed-loop spectral abscissa "
            f"{closed_loop.real.max():.3e} >= 0"
        )
    return x


def _norm1(m):
    """Largest absolute column sum of a matrix."""
    return float(np.abs(m).sum(axis=0).max())


def expm(mode, steps):
    """``exp(h * mode)`` for every step h, as a stack ``(len(steps), n, n)``.

    Scaling and squaring with a Taylor polynomial of degree 18 (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33(2), 2011).  The powers ``P_1 .. P_6``
    of ``B = mode / nu`` are formed once for all steps; ``nu`` is the power
    of two that puts ``||B||_1`` in [1/2, 1).  They give the bound
    ``alpha = nu * max(||P_4||^(1/4), ||P_5||^(1/5))`` on the spectral
    radius of `mode`.  Step h is squared ``s = ceil(log2(|h| alpha /
    TAYLOR_THETA))`` times, at least 0 and enough that the scale ``c = h nu
    2^-s`` is at most `TAYLOR_MAX_SCALE`; then ``X = c B``, and
    ``T(X) = C_0 + X^6 (C_1 + X^6 C_2)``, where each block ``C_j`` combines
    ``I, P_1 .. P_6`` with the coefficients ``c^k / k!``.  So a step costs
    two products and its squarings, and the powers are shared.

    For an `n` of at least `FLUSH_MIN_ORDER`, each step about to be squared
    first has its entries below 2^-500 in magnitude set to a zero of their
    sign.  Every nonzero product of two kept entries is then at least
    2^-1000, a normal number, so no squaring spends time on subnormal
    arithmetic, and the flushed entries move each entry of the product by
    less than ``n 2^-500 max|entry|``.  NaN and +-inf are kept, so a step
    that overflows still comes back non-finite.

    Every step's arithmetic is its own: its coefficients and its flush are
    elementwise, and every product is one BLAS call per step of the same
    shape whatever the other steps are.  So a step's result is the same bit
    for bit alone or among others.  A step that overflows comes back
    non-finite; the others are unchanged.
    """
    mode = _as_square(mode, "mode")
    steps = np.asarray(steps, dtype=float)
    if steps.ndim != 1 or not np.all(np.isfinite(steps)):
        raise ValueError(f"steps must be a 1-d array of finite numbers, got {steps!r}")
    n = mode.shape[0]
    nu = math.ldexp(1.0, math.frexp(_norm1(mode))[1])
    powers = np.empty((TAYLOR_BLOCK, n, n))
    np.multiply(mode, 1.0 / nu, out=powers[0])
    # P_2 = P_1 P_1, P_3 = P_2 P_1, P_4 = P_2 P_2, P_5 = P_4 P_1, P_6 = P_3 P_3.
    for k, (i, j) in enumerate(((0, 0), (1, 0), (1, 1), (3, 0), (2, 2)), start=1):
        np.matmul(powers[i], powers[j], out=powers[k])
    alpha = nu * max(_norm1(powers[3]) ** 0.25, _norm1(powers[4]) ** 0.2)
    rate = max(alpha / TAYLOR_THETA, nu / TAYLOR_MAX_SCALE)
    # s = ceil(log2(|h| rate)), read exactly from the binary exponent.
    frac, exp = np.frexp(np.abs(steps) * rate)
    squarings = np.maximum(exp - (frac == 0.5), 0)
    # Most squarings first, so each round of squaring takes a leading slice.
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order]
    scale = np.ldexp(steps[order] * nu, -squarings)
    coeffs = np.empty((steps.size, TAYLOR_DEGREE + 1))
    coeffs[:, 0] = 1.0
    for k in range(1, TAYLOR_DEGREE + 1):
        coeffs[:, k] = coeffs[:, k - 1] * scale
    coeffs /= [math.factorial(k) for k in range(TAYLOR_DEGREE + 1)]
    flat = powers.reshape(TAYLOR_BLOCK, n * n)

    def block(first, count):
        """Per step, ``sum c^k / k! P_(k - first)``, k = first .. first + count."""
        terms = np.matmul(coeffs[:, None, first + 1 : first + 1 + count], flat[:count])
        terms = terms.reshape(steps.size, n, n)
        terms.reshape(steps.size, n * n)[:, :: n + 1] += coeffs[:, first, None]
        return terms

    with np.errstate(over="ignore", invalid="ignore"):
        # block(12, 6) is c^12 C_2 and block(6, 5) is c^6 C_1, so P_6, which
        # is X^6 / c^6, takes X^6's place: the first two lines give
        # c^6 (C_1 + X^6 C_2), the next two T(X).
        flows = np.matmul(powers[-1], block(12, 6))
        flows += block(6, 5)
        flows = np.matmul(powers[-1], flows)
        flows += block(0, 5)
        del powers, flat
        for k in range(1, int(squarings.max(initial=0)) + 1):
            count = int(np.count_nonzero(squarings >= k))
            if n >= FLUSH_MIN_ORDER:
                flows[:count] *= np.abs(flows[:count]) >= 2.0**-500
            if count == steps.size:
                flows = np.matmul(flows, flows)
            else:
                flows[:count] = np.matmul(flows[:count], flows[:count])
    if np.any(order != np.arange(steps.size)):
        flows[order] = flows.copy()
    return flows


def max_generalized_eigenvalue(q1, q2):
    """Largest lambda with  q2 v = lambda q1 v  for SPD q1, q2.

    Equals the largest eigenvalue of ``inv(q1) @ q2``.  Computed by Cholesky
    reduction of the symmetric-definite pencil (Golub and Van Loan, Matrix
    Computations, 8.7): with ``q1 = L L^T``, the pencil's eigenvalues are
    those of the symmetric ``C = inv(L) q2 inv(L)^T``, so the result is a
    real scalar with no complex round-off.  The solve itself tests both
    inputs: q1 is positive definite iff its Cholesky factorization exists,
    and q2 iff C's smallest eigenvalue is positive (Sylvester's law of
    inertia).  A failed test raises ValueError naming the matrix.

    C's smallest eigenvalue is exact only to round-off of C's largest, so
    when its sign fails, q2's own smallest eigenvalue decides; a pencil
    spread wider than 1 / eps does not reject a positive definite q2.
    """
    q1 = _symmetrize(q1, "q1")
    q2 = _symmetrize(q2, "q2")
    if q1.shape != q2.shape:
        raise ValueError(f"dimension mismatch: q1 is {q1.shape}, q2 is {q2.shape}")
    try:
        chol = np.linalg.cholesky(q1)
    except np.linalg.LinAlgError:
        detail = definite_check(q1)[1]
        raise ValueError(f"q1 is not positive definite ({detail})") from None
    # inv(L)^T = inv(L^T), and numpy's LU of the upper triangular L^T
    # neither pivots nor eliminates, so its inverse is back-substitution.
    z = np.linalg.inv(chol.T)
    c = z.T @ q2 @ z
    spectrum = np.linalg.eigvalsh((c + c.T) / 2.0)
    if not spectrum[0] > 0.0:
        ok, detail, _ = definite_check(q2)
        if not ok:
            raise ValueError(f"q2 is not positive definite ({detail})")
    return float(spectrum[-1])
