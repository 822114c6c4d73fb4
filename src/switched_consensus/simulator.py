"""Exact simulation of the switched closed-loop multi-agent system.

The state is kept in disagreement coordinates ``z = (e, x_N)``: the offsets
``e_i = x_i - x_N`` of agents 1..N-1 from agent N, then agent N's state.
Each topology's closed loop is block lower triangular there,
``e' = (I kron A - alpha * Lh kron BK) e`` and
``x_N' = A x_N - alpha * (L[N, :N-1] kron BK) e``, so e evolves on its own.
Within an interval the state advances by the matrix exponential of the
active mode; switches hand the (continuous) state to the next mode.  No ODE
stepping error enters; the sample grid only chooses where the flow is seen.

Norms, verdicts, energies and the divergence rule use e itself, never a
difference of agent states, so they keep full precision while the agreement
grows.  A run diverges at the first sample whose disagreement max-norm
exceeds `DIVERGENCE_CUTOFF` or whose state is not finite.  The schedule is
run in blocks of switching intervals: each block's transition matrices
are exponentiated before it is propagated, one `linalg.expm` call per
topology, and its samples are checked for divergence at once, so a flow
that overflows is reported as a divergence too.  Agent states
``x_i = e_i + x_N`` are rebuilt for output only, and only the CSV writer
forks (see `write_trajectory_csv`).
"""

import contextlib
import functools
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass

import numpy as np

from . import linalg, synthesis, topology

# Abort threshold for diverging disagreement (infeasible designs blow up in
# finite time at double precision).
DIVERGENCE_CUTOFF = 1e12
# Switching intervals whose transition matrices are exponentiated together;
# bounds the flows held at once.
BLOCK_INTERVALS = 256
# Values a trajectory CSV part must format for its fork to pay.  In a 70 to
# 100 MB process, the fork, the child's exit and the page faults the parent
# takes afterwards, in this command and the next, cost about as much as
# formatting 20 000 floats.
MIN_PART_VALUES = 100_000

__all__ = [
    "LyapunovMonitor",
    "SimulationDiverged",
    "SwitchedClosedLoop",
    "TrajectoryRecord",
    "build_closed_loop",
    "consensus_verdict",
    "disagreement",
    "lyapunov_monitor",
    "simulate",
    "write_trajectory_csv",
]


class SimulationDiverged(RuntimeError):
    """Trajectory exceeded the divergence cutoff; carries the first bad time."""

    def __init__(self, t, norm):
        super().__init__(
            f"trajectory diverged at t={t:.6g} (disagreement max-norm {norm:.3e} "
            f"exceeds {DIVERGENCE_CUTOFF:.1e} or the state is not finite)"
        )
        self.t = t
        self.norm = norm


@dataclass
class SwitchedClosedLoop:
    """Per-topology closed-loop matrices in ``(e, x_N)`` coordinates.

    ``modes[i]`` is the block lower-triangular ``[[Ah_i, 0], [C_i, A]]`` of
    size N*n for topology i+1; its leading (N-1)*n block ``Ah_i`` drives the
    disagreement.
    """

    modes: list
    signal: topology.SwitchingSignal
    node_count: int
    state_dim: int


@dataclass
class TrajectoryRecord:
    """Sampled run of the switched system.

    Sample times are strictly increasing and include every switch instant;
    the stored topology index is right-continuous (the new mode at a switch).
    `switches` lists ``(t, old_index, new_index)`` so writers can also emit
    the left-sided limit.  `errors` is the propagated disagreement; `states`
    are reconstructed from it as ``x_i = e_i + x_N`` and carry e only to the
    round-off of the agreement component.
    """

    times: np.ndarray
    states: np.ndarray
    errors: np.ndarray
    error_norms: np.ndarray
    indices: np.ndarray
    switches: list
    node_count: int
    state_dim: int

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")


@dataclass
class LyapunovMonitor:
    """Per-topology energy traces V_i(t) = e^T (Q_i kron inv(P)) e.

    `values` holds one column per entry of `topology_indices`;
    `switch_jumps` holds the observed energy jump ratio at each switch next
    to its theoretical bound.  The ratio never exceeds the bound - that is
    enforced, not just reported.
    """

    topology_indices: list
    values: np.ndarray
    switch_jumps: list


def build_closed_loop(a, b, k_gain, alpha, graphs, signal):
    """Assemble the switched closed-loop matrices for a gain and graph set.

    Per topology, builds the ``(e, x_N)`` mode from the reduced Laplacian
    ``Lh`` and the last Laplacian row: ``Ah = I kron A - alpha * Lh kron BK``,
    ``C = -alpha * (L[N, :N-1] kron BK)``.  It is similar to the stacked
    ``I_N kron A - alpha * (L kron BK)`` through ``x -> (e, x_N)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k_gain = np.asarray(k_gain, dtype=float)
    if alpha < 0:
        raise ValueError(f"coupling strength must be non-negative, got {alpha}")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"state matrix must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"input matrix has {b.shape[0]} rows, expected {n}")
    if k_gain.shape != (b.shape[1], n):
        raise ValueError(
            f"gain must be {b.shape[1]}x{n} to match (A, B), got {k_gain.shape}"
        )
    n_nodes = graphs.node_count
    signal.validate_against(len(graphs))
    bk = b @ k_gain
    zero = np.zeros(((n_nodes - 1) * n, n))
    modes = []
    for g in graphs:
        lap = topology.laplacian(g)
        reduced = topology.reduce_laplacian(lap)
        ah = np.kron(np.eye(n_nodes - 1), a) - alpha * np.kron(reduced.matrix, bk)
        c = -alpha * np.kron(lap[-1:, :-1], bk)
        modes.append(np.block([[ah, zero], [c, a]]))
    return SwitchedClosedLoop(
        modes=modes, signal=signal, node_count=n_nodes, state_dim=n
    )


def _sample_grid(edges, dt):
    """Sample times of a run, and the sample that ends each interval.

    Interval j runs from ``edges[j]`` to ``edges[j + 1]``.  Its samples are
    the points ``k * dt`` of the global grid more than ``1e-9 * dt`` inside
    it, then its end.  ``times`` starts with 0; ``times[ends[j]]`` is the
    end of interval j.  Each interval's grid indices run from the first
    ``k > t0 / dt + 1e-9`` to the last ``k * dt < t1 - 1e-9 * dt``; both
    bounds are settled by comparing the floats ``k * dt`` themselves, so
    the times are those of testing each ``k * dt`` in turn, bit for bit.
    """
    edges = np.asarray(edges, dtype=float)
    t0, t1 = edges[:-1], edges[1:]
    eps = 1e-9 * dt
    lo = np.floor(t0 / dt + 1e-9) + 1
    hi = np.ceil((t1 - eps) / dt)
    # lo: the first k with k * dt > t0 + eps; hi: the first k with
    # k * dt >= t1 - eps.  Each estimate is at most a step or two off.
    while np.any(early := lo * dt <= t0 + eps):
        lo += early
    while np.any(late := (hi - 1) * dt >= t1 - eps):
        hi -= late
    while np.any(short := hi * dt < t1 - eps):
        hi += short
    counts = np.maximum(hi - lo, 0).astype(np.int64) + 1
    ends = np.cumsum(counts)
    # Sample p + 1 of the run is grid point p - shift of its interval.
    shift = np.repeat(ends - counts - lo.astype(np.int64), counts)
    times = np.empty(ends[-1] + 1)
    times[0] = 0.0
    times[1:] = (np.arange(ends[-1]) - shift) * dt
    times[ends] = t1
    return times, ends


def _check_divergence(block, times, m):
    """Raise SimulationDiverged at the first sample of `block` that diverged."""
    peaks = np.abs(block[:, :m]).max(axis=1)
    peaks[~np.isfinite(block[:, m:]).all(axis=1)] = np.inf
    bad = np.flatnonzero(~(peaks <= DIVERGENCE_CUTOFF))
    if bad.size:
        raise SimulationDiverged(float(times[bad[0]]), float(peaks[bad[0]]))


def _flows(modes, keys, m):
    """``{(mode, h): expm(mode * h)}`` for the distinct ``(mode, h)`` `keys`.

    One kernel call per topology, so its keys share its mode's powers; a
    flow is a view into its topology's stack.  The flows are block lower
    triangular like the modes; expm's round-off above the diagonal is
    cleared so x_N never leaks into e.  A flow that overflows is not finite.
    """
    by_mode = {}
    for mode, h in keys:
        by_mode.setdefault(mode, []).append(h)
    flows = {}
    for mode, steps in by_mode.items():
        stack = linalg.expm(modes[mode - 1], steps)
        stack[:, :m, m:] = 0.0
        flows.update(zip([(mode, h) for h in steps], stack))
    return flows


def _propagate(modes, samples, times, indices, steps, ends, m):
    """Fill ``samples[1:]`` from ``samples[0]``, one block of intervals at a time.

    Step s advances sample s by ``steps[s]`` under mode ``indices[s]``;
    ``ends[j]`` is the sample that ends interval j.  See `simulate`.
    """
    z = samples[0]
    first = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, ends.size, BLOCK_INTERVALS):
            last = int(ends[min(lo + BLOCK_INTERVALS, ends.size) - 1])
            keys = list(zip(indices[first - 1 : last].tolist(),
                            steps[first - 1 : last].tolist()))
            flows = _flows(modes, dict.fromkeys(keys), m)
            for s, key in enumerate(keys, start=first):
                z = np.dot(flows[key], z, out=samples[s])
            _check_divergence(samples[first : last + 1], times[first : last + 1], m)
            first = last + 1


def simulate(closed_loop, x0, dt):
    """Run the switched system from x0, sampled on the global dt grid.

    Propagates ``z = (e, x_N)`` with one mat-vec per sample, working through
    the schedule in blocks of `BLOCK_INTERVALS` switching intervals.  Each
    step is keyed ``(mode, h)``, with a step within 1e-9*dt of dt snapped to
    dt so float jitter on the grid never splits a key.  Per block, the
    distinct keys are exponentiated, one kernel call per topology (see
    `_flows`); a step's flow does not depend on the steps it shares a call
    with.  Then the block is propagated, its samples are checked for
    divergence at once, and its flows are dropped, so memory stays bounded.
    A flow that overflows is not finite, nor are the samples after it, so
    it ends the run as a divergence.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_nodes = closed_loop.node_count
    n = closed_loop.state_dim
    m = (n_nodes - 1) * n
    e0, _ = disagreement(x0, n_nodes, n)
    z = np.concatenate([e0, np.asarray(x0, dtype=float).ravel()[m:]])
    signal = closed_loop.signal
    # The ends before the horizon are the switches, whose stored index is
    # the incoming topology.
    times, ends = _sample_grid(signal.breakpoints.tolist() + [signal.horizon], dt)
    indices = np.repeat(signal.indices, np.diff(ends, prepend=-1))
    outgoing, incoming = signal.indices[:-1].tolist(), signal.indices[1:].tolist()
    indices[ends[:-1]] = incoming
    switches = list(zip(times[ends[:-1]].tolist(), outgoing, incoming))
    # Step s takes sample s to s + 1 under the mode stored at sample s (the
    # stored index is right-continuous).
    steps = np.diff(times)
    steps[np.abs(steps - dt) <= 1e-9 * dt] = dt
    samples = np.empty((times.size, z.size))
    samples[0] = z
    _propagate(closed_loop.modes, samples, times, indices, steps, ends, m)
    errors = samples[:, :m].copy()
    states = np.tile(samples[:, m:], n_nodes)
    states[:, :m] += errors
    return TrajectoryRecord(
        times=times,
        states=states,
        errors=errors,
        error_norms=np.linalg.norm(errors, axis=1),
        indices=indices,
        switches=switches,
        node_count=n_nodes,
        state_dim=n,
    )


def disagreement(x, node_count, state_dim):
    """Blockwise offsets from the last agent and their Euclidean norm.

    ``e_i = x_i - x_N`` for i < N; equals ``(Xi kron I_n) x``.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != node_count * state_dim:
        raise ValueError(
            f"state length {x.size} != node_count*state_dim = "
            f"{node_count * state_dim}"
        )
    blocks = x.reshape(node_count, state_dim)
    e = (blocks[:-1] - blocks[-1]).ravel()
    return e, float(np.linalg.norm(e))


def consensus_verdict(record, tol, window):
    """Finite-horizon consensus check on a recorded trajectory.

    Passes iff the final disagreement norm is below ``tol`` times the initial
    one and the peak norm over the final `window` seconds stays below the
    peak one window earlier (decay persistence).  A trajectory starting on
    the consensus subspace passes trivially.  Returns ``(verdict, ratio)``.
    """
    if tol <= 0 or window <= 0:
        raise ValueError("tol and window must be positive")
    norms = record.error_norms
    if norms.size == 0:
        raise ValueError("empty trajectory")
    if norms[0] == 0.0:
        return True, 0.0
    ratio = float(norms[-1] / norms[0])
    t_final = record.times[-1]
    w = min(window, t_final / 2.0)
    last = norms[record.times >= t_final - w]
    prev = norms[(record.times >= t_final - 2 * w) & (record.times < t_final - w)]
    if last.size == 0 or prev.size == 0:
        persistent = True
    elif prev.max() == 0.0:
        persistent = bool(last.max() == 0.0)
    else:
        persistent = bool(last.max() < prev.max())
    return bool(ratio <= tol and persistent), ratio


def lyapunov_monitor(record, certificates, p, lambdas=None):
    """Per-topology energy traces and switch-jump ratios.

    Columns follow the rows of the `synthesis.pair_lambdas` table of
    `certificates` (solved here unless the caller has it as `lambdas`), which
    every topology of the run needs, and each switch's observed jump ratio is
    checked against its bound there, all at once; a violation indicates
    corrupted inputs and raises RuntimeError at the first switch that breaks
    its bound.
    """
    order, lam = lambdas or synthesis.pair_lambdas(certificates)
    cols = synthesis.pair_rows(order, record.indices)
    q = {cert.index: cert.q for cert in certificates}
    p_inv = np.linalg.inv(np.asarray(p, dtype=float))
    p_inv = (p_inv + p_inv.T) / 2.0
    weights = [np.kron(q[i], p_inv) for i in order]
    errors = record.errors
    values = np.column_stack(
        [np.einsum("sj,sj->s", errors @ w, errors) for w in weights]
    )

    # Every switch is a sample time, and the sample before one holds its
    # outgoing topology.
    t_switch, outgoing, incoming = list(zip(*record.switches)) or ((), (), ())
    t_switch = [float(t) for t in t_switch]
    at = np.searchsorted(record.times, t_switch)
    old, new = cols[at - 1], cols[at]
    bounds = lam[old, new]
    v_old, v_new = values[at, old], values[at, new]
    observed = v_old > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(observed, v_new / v_old, np.nan)
    broken = np.flatnonzero(ratios > bounds * (1 + 1e-9))
    if broken.size:
        k = broken[0]
        raise RuntimeError(
            f"energy jump ratio {ratios[k]:.12g} exceeds its algebraic bound "
            f"{bounds[k]:.12g} at t={t_switch[k]:.6g}; certificates do "
            "not match the run"
        )
    seen = [r if ok else None for r, ok in zip(ratios.tolist(), observed.tolist())]
    switch_jumps = list(zip(t_switch, outgoing, incoming, seen, bounds.tolist()))
    return LyapunovMonitor(order, values, switch_jumps)


def _usable_cpus():
    """Number of CPUs this process may run on (Linux only)."""
    return len(os.sched_getaffinity(0))


def _part_bounds(count, units):
    """Bounds of the contiguous parts that split `count` samples of `units`
    values in all: one part per usable CPU, but no more than there are
    samples, each formatting at least `MIN_PART_VALUES`.  Off Linux, where
    ``os.fork`` is missing, or while another thread runs in this process,
    there is one part: that thread, a BLAS worker say, could hold a lock a
    child would wait on forever, and it competes with the children for the
    CPUs.  A process of one thread cannot start another before it forks,
    so the count cannot go stale.
    """
    parts = 1
    if sys.platform.startswith("linux") and hasattr(os, "fork"):
        parts = max(1, min(_usable_cpus(), count))
        # The smallest part holds count // parts samples.
        while parts > 1 and count // parts * units < MIN_PART_VALUES * count:
            parts -= 1
    if parts > 1:
        try:
            parts = parts if len(os.listdir("/proc/self/task")) == 1 else 1
        except OSError:  # no thread count: taken as threaded
            parts = 1
    return [count * k // parts for k in range(parts + 1)]


def _write_rows(fh, record, data, agree, lo, hi):
    """Write the CSV rows of samples ``lo .. hi - 1``; see `write_trajectory_csv`.

    ``data`` holds each sample's values after ``t`` and the topology; a
    sample flagged in ``agree`` formats agent N's block once (see `_split`).
    """
    n_nodes, n = record.node_count, record.state_dim
    last, tail = slice((n_nodes - 1) * n, n_nodes * n), n_nodes * n
    switch_at = {t: (old, new) for t, old, new in record.switches}
    # CRLF rows as csv.writer emits them; repr is the shortest round-trip
    # float form.  Rows are formatted and written one at a time.
    rows = zip(record.times[lo:hi].tolist(), record.indices[lo:hi].tolist(),
               data[lo:hi], agree[lo:hi])
    for t, index, row, same in rows:
        values = row.tolist()
        if same:
            block = ",".join(map(repr, values[last]))
            body = ",".join([block] * n_nodes + [repr(v) for v in values[tail:]])
        else:
            body = ",".join(map(repr, values))
        for i in switch_at.get(t, (index,)):
            fh.write(f"{t!r},{i},{body}\r\n")


@contextlib.contextmanager
def _parts(jobs, what):
    """Fork a child per ``(note, job)`` in `jobs`; yield their files in order.

    The children are parts 2 .. ``len(jobs) + 1`` of `what`; part 1 is the
    caller's own.  Each runs ``job(file)`` on an anonymous temporary file
    opened before its fork and leaves through ``os._exit``, so it runs no
    atexit handler and writes no inherited buffer a second time; on any
    exception it writes `note` and the traceback to stderr and exits 1.

    Yields an iterator that waits for each child in part order and gives its
    file, read from the start; a child that failed raises OSError naming its
    part.  On leaving, every child not yet waited for is waited for, and
    every file is closed.
    """
    children = []  # [pid, file] in part order; pid None once waited for

    def finished():
        for number, child in enumerate(children, start=2):
            pid, part = child
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if code != 0:
                raise OSError(f"{what}: part {number} of {len(jobs) + 1} failed in "
                              f"child process {pid} (exit code {code})")
            part.seek(0)
            yield part

    try:
        for note, job in jobs:
            part = tempfile.TemporaryFile()
            children.append([None, part])
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    job(part)
                    part.flush()
                    status = 0
                except BaseException:
                    os.write(2, f"{note}:\n{traceback.format_exc()}".encode())
                finally:
                    os._exit(status)
            children[-1][0] = pid
        yield finished()
    finally:
        for pid, part in children:
            if pid is not None:
                os.waitpid(pid, 0)
            part.close()


def _write_part(record, data, agree, lo, hi, part):
    """`_write_rows` of samples ``lo .. hi - 1`` into a child's binary file."""
    with open(part.fileno(), "w", newline="", closefd=False) as fh:
        _write_rows(fh, record, data, agree, lo, hi)


def _split(record, data):
    """Per-sample agreement flags and the sample bounds of the CSV parts.

    A sample agrees when every agent block equals agent N's bit for bit, so
    ``-0.0`` never stands in for ``0.0``; its row formats that block once.
    Each part formats at least `MIN_PART_VALUES` values (see `_part_bounds`).
    """
    size, n = record.times.size, record.state_dim
    states = np.ascontiguousarray(record.states, dtype=float)
    blocks = states.view(np.int64).reshape(size, record.node_count, n)
    agree = (blocks == blocks[:, -1:]).all(axis=(1, 2))
    skipped = (record.node_count - 1) * n * int(agree.sum())
    return agree.tolist(), _part_bounds(size, data.size - skipped)


def write_trajectory_csv(record, path, monitor=None):
    """Write the trajectory as CSV, one row per sample.

    Columns: ``t, topology, x_1_1 .. x_N_n, e_norm`` plus ``V_1 .. V_p`` when
    a monitor is given.  Switch instants produce two rows sharing t and x:
    first the outgoing topology, then the incoming one.  Floats are written
    with full round-trip precision.

    The samples are split into contiguous parts (see `_split`).  Before
    `path` is opened, one child is forked per part after the first (see
    `_parts`); the parent writes the first part itself, then waits for each
    child in order and appends its file.  A child that fails raises OSError
    naming its part, after every child has been waited for.  With one part,
    nothing is forked.  Each part formats exactly the rows a single pass
    would, so the bytes do not depend on the number of parts.
    """
    header = ["t", "topology"]
    header += [
        f"x_{i + 1}_{j + 1}"
        for i in range(record.node_count)
        for j in range(record.state_dim)
    ]
    header.append("e_norm")
    columns = [record.states, record.error_norms[:, None]]
    if monitor is not None:
        header += [f"V_{i}" for i in monitor.topology_indices]
        columns.append(monitor.values)
    data = np.hstack(columns)
    agree, bounds = _split(record, data)
    jobs = [(f"trajectory CSV samples {lo}..{hi - 1}",
             functools.partial(_write_part, record, data, agree, lo, hi))
            for lo, hi in zip(bounds[1:-1], bounds[2:])]
    with _parts(jobs, path) as finished:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            _write_rows(fh, record, data, agree, 0, bounds[1])
            fh.flush()
            for part in finished:
                shutil.copyfileobj(part, fh.buffer)
