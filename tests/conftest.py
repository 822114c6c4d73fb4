import math
import os

# Pin BLAS to one thread before numpy loads it, so the test process runs
# one thread, like a pinned production run, and the CSV writer really forks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
import scipy.linalg as sla

from switched_consensus import linalg, simulator, synthesis, topology, vtol

# Reduced Laplacians of the two demo topologies, known in closed form
# (graph 1 is lower triangular after reduction, graph 2 block triangular).
LHAT_1 = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 1.0, 0.0],
        [1.0, 0.0, -1.0, 2.0],
    ]
)
LHAT_2 = np.array(
    [
        [2.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [1.0, -1.0, 1.0, 0.0],
        [1.0, -1.0, -1.0, 2.0],
    ]
)


@pytest.fixture(scope="session")
def vtol_graphs():
    return vtol.load_graphs()


@pytest.fixture(scope="session")
def vtol_reduced(vtol_graphs):
    return [
        topology.reduce_laplacian(topology.laplacian(g), pos)
        for pos, g in enumerate(vtol_graphs, start=1)
    ]


@pytest.fixture(scope="session")
def vtol_design(vtol_reduced):
    return synthesis.synthesize(
        vtol.A,
        vtol.B,
        vtol_reduced,
        vtol.BETA,
        c_values=[vtol.C_VALUE, vtol.C_VALUE],
        alpha=vtol.ALPHA,
    )


def xi_matrix(n_nodes):
    """Oracle: disagreement map Xi = [I_{N-1}, -1_{N-1}] to pairwise offsets."""
    return np.hstack([np.eye(n_nodes - 1), -np.ones((n_nodes - 1, 1))])


def pi_matrix(n_nodes):
    """Oracle: embedding Pi = [I_{N-1}; 0^T], right inverse of Xi."""
    return np.vstack([np.eye(n_nodes - 1), np.zeros((1, n_nodes - 1))])


def interval_count(signal):
    """Number of switching intervals of a signal (one per breakpoint)."""
    return signal.breakpoints.size


def active_index(signal, t):
    """Oracle: topology index sigma(t), right-continuous at the breakpoints."""
    if t < 0 or t > signal.horizon:
        raise ValueError(f"t={t} outside the signal domain [0, {signal.horizon}]")
    pos = int(np.searchsorted(signal.breakpoints, t, side="right")) - 1
    return int(signal.indices[pos])


def grid_targets(t_start, t_end, dt):
    """Oracle: sample instants inside (t_start, t_end) on the global dt grid,
    plus t_end, found by testing each grid point in turn."""
    eps = 1e-9 * dt
    targets = []
    k = int(np.floor(t_start / dt + 1e-9)) + 1
    while k * dt < t_end - eps:
        if k * dt > t_start + eps:
            targets.append(k * dt)
        k += 1
    targets.append(t_end)
    return targets


def random_spd(rng, n, shift=0.1):
    m = rng.normal(size=(n, n))
    return m @ m.T + shift * np.eye(n)


def three_certificates():
    rng = np.random.default_rng(14)
    return [synthesis.TopologyCertificate(i, 0.5, random_spd(rng, 4), 1.0)
            for i in (1, 2, 3)]


def random_stable(rng, n, gap=0.5):
    m = rng.normal(size=(n, n))
    return m - (np.linalg.eigvals(m).real.max() + gap) * np.eye(n)


def random_antistable(rng, n, gap=0.5):
    return -random_stable(rng, n, gap)


def draw_stabilizable(rng, max_n=5, pbh_floor=0.3):
    """Random stabilizable (a, b) with a comfortable controllability margin.

    Near-uncontrollable pairs make the Riccati solution arbitrarily large and
    its double-precision residual floor exceeds any fixed tolerance, so draws
    are filtered by the smallest PBH singular value.
    """
    while True:
        n = int(rng.integers(2, max_n + 1))
        m = int(rng.integers(1, 3))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        margin = min(
            (
                np.linalg.svd(
                    np.hstack([lam * np.eye(n) - a, b.astype(complex)]),
                    compute_uv=False,
                )[-1]
                for lam in linalg.eigenvalues(a)
            ),
            default=np.inf,
        )
        if margin >= pbh_floor:
            return a, b


def dense_modes(a, b, k, alpha, graphs):
    """Oracle: stacked full-state modes ``I_N kron A - alpha * (L kron BK)``."""
    bk = b @ k
    eye = np.eye(graphs.node_count)
    return [np.kron(eye, a) - alpha * np.kron(topology.laplacian(g), bk)
            for g in graphs]


def disagreement_transform(node_count, state_dim):
    """``(T, inv(T))`` with ``T x = (e, x_N)``, ``e_i = x_i - x_N``."""
    last = np.zeros((1, node_count))
    last[0, -1] = 1.0
    t = np.vstack([xi_matrix(node_count), last])
    t_inv = np.eye(node_count)
    t_inv[:, -1] = 1.0
    eye = np.eye(state_dim)
    return np.kron(t, eye), np.kron(t_inv, eye)


def dense_simulate(a, b, k, alpha, graphs, signal, x0, dt):
    """Oracle: piecewise-expm flow of the stacked state on the simulator's grid.

    Takes `build_closed_loop`'s arguments, then ``x0`` and ``dt``.  Returns
    ``(times, states, errors)`` with the disagreement recovered by
    subtraction, so it cancels to the round-off of the agreement component
    once that dominates.
    """
    modes = dense_modes(a, b, k, alpha, graphs)
    x = np.asarray(x0, dtype=float).ravel()
    times, states = [0.0], [x]
    cache = {}
    t = 0.0
    for j in range(interval_count(signal)):
        mode = int(signal.indices[j])
        is_last = j + 1 == interval_count(signal)
        t_end = signal.horizon if is_last else float(signal.breakpoints[j + 1])
        start = float(signal.breakpoints[j])
        for target in grid_targets(start, t_end, dt):
            key = (mode, target - t)
            if key not in cache:
                cache[key] = sla.expm(modes[mode - 1] * key[1])
            x = cache[key] @ x
            t = target
            times.append(t)
            states.append(x)
    states = np.vstack(states)
    xi_n = np.kron(xi_matrix(graphs.node_count), np.eye(len(a)))
    return np.array(times), states, states @ xi_n.T


def row_norms(errors):
    """Oracle: the Euclidean norm of each row, one row at a time.  A row
    whose largest ``|e_i|`` is below the square root of the smallest normal
    double is divided by it first, so its squares cannot underflow."""
    norms = []
    for row in errors:
        peak = float(np.abs(row).max(initial=0.0))
        if 0.0 < peak < math.sqrt(np.finfo(float).tiny):
            norms.append(np.linalg.norm(row[None] / peak, axis=1)[0] * peak)
        else:
            norms.append(np.linalg.norm(row[None], axis=1)[0])
    return np.array(norms)


def cached_simulate(closed_loop, x0, dt):
    """Oracle: the one-matrix-at-a-time simulator the blocked one replaced.

    Propagates ``z = (e, x_N)`` sample by sample, exponentiating each
    ``(mode, h)`` step once, on first use, into a cache kept for the whole
    run, and checks divergence at the end of every interval.
    """
    n_nodes = closed_loop.node_count
    n = closed_loop.state_dim
    m = (n_nodes - 1) * n
    e0, _ = simulator.disagreement(x0, n_nodes, n)
    z = np.concatenate([e0, np.asarray(x0, dtype=float).ravel()[m:]])
    signal = closed_loop.signal
    edges = signal.breakpoints.tolist() + [signal.horizon]
    grids = [grid_targets(t0, t1, dt) for t0, t1 in zip(edges[:-1], edges[1:])]
    times = np.array([0.0] + [t for grid in grids for t in grid])
    ends = np.cumsum([len(grid) for grid in grids])
    indices = np.repeat(signal.indices, np.diff(ends, prepend=-1))
    outgoing, incoming = signal.indices[:-1].tolist(), signal.indices[1:].tolist()
    indices[ends[:-1]] = incoming
    switches = list(zip(times[ends[:-1]].tolist(), outgoing, incoming))
    samples = np.empty((times.size, z.size))
    samples[0] = z
    cache = {}
    t = 0.0
    s = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for mode, grid in zip(signal.indices.tolist(), grids):
            first = s + 1
            for target in grid:
                h = target - t
                if abs(h - dt) <= 1e-9 * dt:
                    h = dt
                key = (mode, h)
                if key not in cache:
                    cache[key] = linalg.expm(closed_loop.modes[mode - 1], [h])[0]
                    cache[key][:m, m:] = 0.0
                s += 1
                z = samples[s] = cache[key] @ z
                t = target
            simulator._check_divergence(
                samples[first : s + 1], times[first : s + 1], m
            )
    errors = samples[:, :m]
    return simulator.TrajectoryRecord(
        times=times,
        errors=errors,
        agreement=samples[:, m:],
        error_norms=row_norms(errors),
        indices=indices,
        switches=switches,
        node_count=n_nodes,
        state_dim=n,
    )


def unflushed_expm(mode, steps):
    """Oracle: `linalg.expm` as it was before its squarings flushed.

    The same scaling, Taylor blocks and squarings, in the same order, with
    no entry zeroed; so it gives the kernel's bits wherever the flush
    changes nothing.
    """
    mode = np.asarray(mode, dtype=float)
    steps = np.asarray(steps, dtype=float)
    n = mode.shape[0]
    nu = math.ldexp(1.0, math.frexp(float(np.abs(mode).sum(axis=0).max()))[1])
    powers = [mode * (1.0 / nu)]
    for i, j in ((0, 0), (1, 0), (1, 1), (3, 0), (2, 2)):
        powers.append(powers[i] @ powers[j])
    powers = np.array(powers)
    alpha = nu * max(np.abs(powers[3]).sum(axis=0).max() ** 0.25,
                     np.abs(powers[4]).sum(axis=0).max() ** 0.2)
    rate = max(alpha / linalg.TAYLOR_THETA, nu / linalg.TAYLOR_MAX_SCALE)
    frac, exp = np.frexp(np.abs(steps) * rate)
    squarings = np.maximum(exp - (frac == 0.5), 0)
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order]
    scale = np.ldexp(steps[order] * nu, -squarings)
    coeffs = np.empty((steps.size, linalg.TAYLOR_DEGREE + 1))
    coeffs[:, 0] = 1.0
    for k in range(1, linalg.TAYLOR_DEGREE + 1):
        coeffs[:, k] = coeffs[:, k - 1] * scale
    coeffs /= [math.factorial(k) for k in range(linalg.TAYLOR_DEGREE + 1)]
    flat = powers.reshape(len(powers), n * n)

    def block(first, count):
        terms = np.matmul(coeffs[:, None, first + 1 : first + 1 + count], flat[:count])
        terms = terms.reshape(steps.size, n, n)
        terms.reshape(steps.size, n * n)[:, :: n + 1] += coeffs[:, first, None]
        return terms

    with np.errstate(over="ignore", invalid="ignore"):
        flows = np.matmul(powers[-1], block(12, 6))
        flows += block(6, 5)
        flows = np.matmul(powers[-1], flows)
        flows += block(0, 5)
        for k in range(1, int(squarings.max(initial=0)) + 1):
            count = int(np.count_nonzero(squarings >= k))
            flows[:count] = np.matmul(flows[:count], flows[:count])
    out = np.empty_like(flows)
    out[order] = flows
    return out


def single_process_csv(record, path, monitor=None):
    """Oracle: the one-pass trajectory writer the forked one replaced.

    Rebuilds the agent states ``x_i = e_i + x_N`` itself and formats every
    row in this process, each float with its own ``repr``.
    """
    header = ["t", "topology"]
    header += [
        f"x_{i + 1}_{j + 1}"
        for i in range(record.node_count)
        for j in range(record.state_dim)
    ]
    header.append("e_norm")
    states = np.tile(record.agreement, record.node_count)
    states[:, : (record.node_count - 1) * record.state_dim] += record.errors
    columns = [states, record.error_norms[:, None]]
    if monitor is not None:
        header += [f"V_{i}" for i in monitor.topology_indices]
        columns.append(monitor.values)
    data = np.hstack(columns)
    switch_at = {t: (old, new) for t, old, new in record.switches}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, index, row in zip(record.times.tolist(), record.indices.tolist(), data):
            body = ",".join(map(repr, row.tolist()))
            for i in switch_at.get(t, (index,)):
                fh.write(f"{t!r},{i},{body}\r\n")


def reference_schedule(signal, certificates, beta, kappa0):
    """Oracle: the per-interval loop the column `check_schedule` replaced.

    Returns ``(rows, passed)``; row k is ``(t_start, t_end, from_index,
    to_index, lambda_max, margin, passed)`` of the interval that ends in
    switch k, each margin taken with its own ``math.log``.
    """
    indices, table = synthesis.pair_lambdas(certificates)
    pos = {idx: a for a, idx in enumerate(indices)}
    for idx in np.unique(signal.indices):
        if int(idx) not in pos:
            raise ValueError(f"no certificate for topology index {int(idx)}")
    pairs = list(zip(signal.indices[:-1].tolist(), signal.indices[1:].tolist()))
    t = signal.breakpoints
    rows = []
    for k, (i_from, i_to) in enumerate(pairs):
        lam = table[pos[i_from], pos[i_to]]
        margin = beta * (t[k + 1] - t[k]) - math.log(lam)
        rows.append((float(t[k]), float(t[k + 1]), i_from, i_to, float(lam),
                     float(margin), bool(margin > kappa0)))
    return rows, all(row[-1] for row in rows)


def schedule_rows(report):
    """The columns of a `ScheduleReport` as `reference_schedule`'s rows."""
    return list(zip(report.t_start.tolist(), report.t_end.tolist(),
                    report.from_index.tolist(), report.to_index.tolist(),
                    report.lambda_max.tolist(), report.margin.tolist(),
                    report.checks.tolist()))


def reference_switch_jumps(record, certificates, values, order):
    """Oracle: the per-switch loop the column jump check of the monitor replaced.

    `values` and `order` are a monitor's energy columns and their topology
    indices.  Returns the ``(t, old, new, ratio, bound)`` rows, or raises
    RuntimeError at the first switch whose ratio exceeds its bound.
    """
    col = {idx: pos for pos, idx in enumerate(order)}
    indices, table = synthesis.pair_lambdas(certificates)
    row = {idx: a for a, idx in enumerate(indices)}
    at = np.searchsorted(record.times, [t for t, _, _ in record.switches])
    jumps = []
    for s, (t_s, old, new) in zip(at.tolist(), record.switches):
        v_old = values[s, col[old]]
        v_new = values[s, col[new]]
        bound = table[row[old], row[new]]
        ratio = float(v_new / v_old) if v_old > 0 else None
        if ratio is not None and ratio > bound * (1 + 1e-9):
            raise RuntimeError(
                f"energy jump ratio {ratio:.12g} exceeds its algebraic bound "
                f"{bound:.12g} at t={t_s:.6g}; certificates do not match the run"
            )
        jumps.append((float(t_s), old, new, ratio, float(bound)))
    return jumps
