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
exceeds `DIVERGENCE_CUTOFF` or whose state is not finite.

The schedule is run in blocks of `BLOCK_INTERVALS` switching intervals by
one producer, `simulate_blocks`: each block's sample grid is laid and its
transition matrices are exponentiated, one `linalg.expm` call per topology,
before it is propagated; its samples are checked for divergence at once,
so a flow that overflows is reported as a divergence too; then it is
handed on as a `TrajectoryRecord` of its own samples.  The consumers take
one block at a time: `EnergyMonitor`, `ConsensusCheck` and `TrajectoryCsv`.
A run consumed block by block holds one block at a time, so its memory is
bounded by `BLOCK_INTERVALS`, not by the horizon; `simulate` joins the
blocks into one record, and `lyapunov_monitor`, `consensus_verdict` and
`write_trajectory_csv` feed theirs one whole-run block.
Agent states ``x_i = e_i + x_N`` are never stored; `agent_states` rebuilds
them for output, and only the CSV writer forks (see `TrajectoryCsv`).
"""

import contextlib
import functools
import itertools
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
# The smallest magnitude whose square is a normal double, about 1.5e-154.
TINY_NORM = float(np.sqrt(np.finfo(float).tiny))
# Switching intervals propagated together: their transition matrices are
# exponentiated together, and a run consumed block by block holds one
# block's samples at a time.
BLOCK_INTERVALS = 256
# Values a trajectory CSV part must format for its fork to pay.  In a 70 to
# 100 MB process, the fork, the child's exit and the page faults the parent
# takes afterwards, in this command and the next, cost about as much as
# formatting 20 000 floats.
MIN_PART_VALUES = 100_000

__all__ = [
    "ConsensusCheck",
    "EnergyMonitor",
    "LyapunovMonitor",
    "SimulationDiverged",
    "SwitchedClosedLoop",
    "TrajectoryCsv",
    "TrajectoryRecord",
    "agent_states",
    "build_closed_loop",
    "consensus_verdict",
    "disagreement",
    "lyapunov_monitor",
    "simulate",
    "simulate_blocks",
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
    the left-sided limit.  Each sample is the propagated ``z = (e, x_N)``:
    `errors` is the disagreement e and `agreement` is agent N's state x_N.
    The agent states ``x_i = e_i + x_N`` are not stored; `agent_states`
    rebuilds them, and they carry e only to the round-off of the agreement
    component.  A block of a run (see `simulate_blocks`) is a record of its
    own samples and switches, its `errors` and `agreement` views of the one
    array they were propagated into.
    """

    times: np.ndarray
    errors: np.ndarray
    agreement: np.ndarray
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
    """Sample times of a stretch of a run, and the sample that ends each interval.

    Interval j runs from ``edges[j]`` to ``edges[j + 1]``.  Its samples are
    the points ``k * dt`` of the global grid more than ``1e-9 * dt`` inside
    it, then its end.  ``times`` starts with ``edges[0]``; ``times[ends[j]]``
    is the end of interval j.  Each interval's times depend on its own edges
    alone, so a stretch gives the whole run's times, bit for bit.  Each
    interval's grid indices run from the first
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
    times[0] = edges[0]
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


def _norms(errors):
    """Euclidean norm of each row of `errors`.

    ``np.linalg.norm`` squares each entry, so a row whose entries are all
    below ``TINY_NORM`` loses its squares to underflow, and reads 0 once
    they all flush.  Such a row is scaled by its largest ``|e_i|`` first;
    every other row keeps ``np.linalg.norm``'s bits.  Only a row whose norm
    reads below ``2 sqrt(m) TINY_NORM`` can be one, so only those are
    searched.
    """
    norms = np.linalg.norm(errors, axis=1)
    rows = np.flatnonzero(norms < 2.0 * np.sqrt(errors.shape[1]) * TINY_NORM)
    peaks = np.abs(errors[rows]).max(axis=1, initial=0.0)
    small = (peaks < TINY_NORM) & (peaks > 0.0)
    rows, peaks = rows[small], peaks[small, None]
    norms[rows] = np.linalg.norm(errors[rows] / peaks, axis=1) * peaks[:, 0]
    return norms


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


def _propagate(closed_loop, z, lo, dt, m):
    """The block of intervals ``lo .. lo + BLOCK_INTERVALS - 1``, propagated
    from the sample it starts at, ``z = (e, x_N)``; see `simulate_blocks`.

    Returns the block's record, which starts with that sample only for the
    run's first block, and the ``z`` of its last sample.
    """
    signal = closed_loop.signal
    modes = signal.indices
    hi = min(lo + BLOCK_INTERVALS, modes.size)
    edges = signal.breakpoints[lo : hi + 1]
    if hi == modes.size:
        edges = np.append(edges, signal.horizon)
    times, ends = _sample_grid(edges, dt)
    # The ends before the horizon are the switches, whose stored index is
    # the incoming topology.
    incoming = modes[lo + 1 : hi + 1]
    indices = np.repeat(modes[lo:hi], np.diff(ends, prepend=-1))
    indices[ends[: incoming.size]] = incoming
    # Step s takes sample s to s + 1 under the mode stored at sample s (the
    # stored index is right-continuous).
    steps = np.diff(times)
    steps[np.abs(steps - dt) <= 1e-9 * dt] = dt
    keys = list(zip(indices[:-1].tolist(), steps.tolist()))
    samples = np.empty((times.size, z.size))
    samples[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        flows = _flows(closed_loop.modes, dict.fromkeys(keys), m)
        for s, key in enumerate(keys):
            z = np.dot(flows[key], z, out=samples[s + 1])
        del flows
        _check_divergence(samples[1:], times[1:], m)
    first = 0 if lo == 0 else 1
    errors = samples[first:, :m]
    block = TrajectoryRecord(
        times=times[first:],
        errors=errors,
        agreement=samples[first:, m:],
        error_norms=_norms(errors),
        indices=indices[first:],
        switches=list(zip(times[ends[: incoming.size]].tolist(),
                          modes[lo : lo + incoming.size].tolist(),
                          incoming.tolist())),
        node_count=closed_loop.node_count,
        state_dim=closed_loop.state_dim,
    )
    return block, samples[-1].copy()


def simulate_blocks(closed_loop, x0, dt):
    """Run the switched system from x0 and yield it block by block.

    Yields one `TrajectoryRecord` per block of `BLOCK_INTERVALS` switching
    intervals, with the block's samples and switches; the first block also
    holds the initial sample.  Per block, the sample grid is laid (see
    `_sample_grid`) and each step is keyed ``(mode, h)``, with a step within
    1e-9*dt of dt snapped to dt so float jitter on the grid never splits a
    key.  The distinct keys are exponentiated, one kernel call per topology
    (see `_flows`); a step's flow does not depend on the steps it shares a
    call with.  Then ``z = (e, x_N)`` is propagated with one mat-vec per
    sample, the samples are checked for divergence at once, and the flows
    are dropped.  A flow that overflows is not finite, nor are the samples
    after it, so it ends the run as a divergence.  Beyond the block a
    consumer holds, only the schedule's own arrays are held.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_nodes = closed_loop.node_count
    n = closed_loop.state_dim
    m = (n_nodes - 1) * n
    e0 = disagreement(x0, n_nodes, n)
    z = np.concatenate([e0, np.asarray(x0, dtype=float).ravel()[m:]])
    for lo in range(0, closed_loop.signal.indices.size, BLOCK_INTERVALS):
        block, z = _propagate(closed_loop, z, lo, dt, m)
        yield block
        del block  # not held here while the next block is made


def simulate(closed_loop, x0, dt):
    """Run the switched system from x0, sampled on the global dt grid.

    The blocks of `simulate_blocks`, joined into one record of the run.
    """
    blocks = list(simulate_blocks(closed_loop, x0, dt))
    first = blocks[0]
    return TrajectoryRecord(
        *(np.concatenate([getattr(b, name) for b in blocks])
          for name in ("times", "errors", "agreement", "error_norms", "indices")),
        switches=[switch for b in blocks for switch in b.switches],
        node_count=first.node_count,
        state_dim=first.state_dim,
    )


def agent_states(record, out=None):
    """The agent states ``x_i = e_i + x_N`` of `record`'s samples, a row each.

    x_N is tiled over the N agent blocks, then e is added to the first N-1.
    Written into the leading N*n columns of `out`, a C-contiguous array,
    when given; returns them.
    """
    size, n_nodes, n = record.times.size, record.node_count, record.state_dim
    if out is None:
        out = np.empty((size, n_nodes * n))
    states = out[:, : n_nodes * n]
    states.reshape(size, n_nodes, n)[:] = record.agreement[:, None]
    states[:, : (n_nodes - 1) * n] += record.errors
    return states


def disagreement(x, node_count, state_dim):
    """Blockwise offsets from the last agent (their norm is `_norms`').

    ``e_i = x_i - x_N`` for i < N; equals ``(Xi kron I_n) x``.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != node_count * state_dim:
        raise ValueError(f"state length {x.size} != node_count*state_dim = "
                         f"{node_count * state_dim}")
    blocks = x.reshape(node_count, state_dim)
    return (blocks[:-1] - blocks[-1]).ravel()


class ConsensusCheck:
    """`consensus_verdict` over the blocks of a run that ends at `t_final`.

    `add` takes the blocks in order; it keeps the first and the last norm
    and the peak norm of each of the two windows, which `t_final` places in
    advance.  `verdict` gives ``(verdict, ratio)``.
    """

    def __init__(self, t_final, tol, window):
        if tol <= 0 or window <= 0:
            raise ValueError("tol and window must be positive")
        w = min(window, t_final / 2.0)
        self.tol, self.starts = tol, (t_final - 2 * w, t_final - w)
        self.first = self.final = None
        self.peaks = [None, None]  # of the window before the last, of the last

    def add(self, block):
        norms, times = block.error_norms, block.times
        if norms.size == 0:
            return
        if self.first is None:
            self.first = norms[0]
        self.final = norms[-1]
        prev, last = self.starts
        for k, inside in enumerate([(times >= prev) & (times < last), times >= last]):
            if inside.any():
                peak = norms[inside].max()
                if self.peaks[k] is not None:
                    peak = np.maximum(self.peaks[k], peak)
                self.peaks[k] = peak

    def verdict(self):
        if self.first is None:
            raise ValueError("empty trajectory")
        if self.first == 0.0:
            return True, 0.0
        ratio = float(self.final / self.first)
        prev, last = self.peaks
        if last is None or prev is None:
            persistent = True
        elif prev == 0.0:
            persistent = bool(last == 0.0)
        else:
            persistent = bool(last < prev)
        return bool(ratio <= self.tol and persistent), ratio


def consensus_verdict(record, tol, window):
    """Finite-horizon consensus check on a recorded trajectory.

    Passes iff the final disagreement norm is below ``tol`` times the initial
    one and the peak norm over the final `window` seconds stays below the
    peak one window earlier (decay persistence).  A trajectory starting on
    the consensus subspace passes trivially.  Returns ``(verdict, ratio)``;
    see `ConsensusCheck`.
    """
    check = ConsensusCheck(record.times[-1] if record.times.size else 0.0, tol, window)
    check.add(record)
    return check.verdict()


class EnergyMonitor:
    """`lyapunov_monitor` of the blocks of a run, one block at a time.

    Columns, rows and jump bounds are those of `table`, the
    `synthesis.PairTable` of `certificates` solved here, which every topology
    of the run needs.  The weights ``Q_i kron inv(P)`` are formed once, each
    at its certificate's row.  `add` gives a block's `LyapunovMonitor`: its
    energies, and each switch's observed jump ratio checked against its
    bound there, all at once; a violation indicates corrupted inputs and
    raises RuntimeError at the first switch that breaks its bound.  A switch
    is a sample of its block, and both its energies are read off that
    sample, so each block is checked on its own.
    """

    def __init__(self, certificates, p):
        self.table = synthesis.pair_lambdas(certificates)
        rows = self.table.rows([cert.index for cert in certificates]).tolist()
        q = dict(zip(rows, (cert.q for cert in certificates)))
        p_inv = np.linalg.inv(np.asarray(p, dtype=float))
        p_inv = (p_inv + p_inv.T) / 2.0
        self.weights = [np.kron(q[row], p_inv) for row in range(len(q))]

    def add(self, block):
        cols = self.table.rows(block.indices)
        errors = block.errors
        values = np.column_stack(
            [np.einsum("sj,sj->s", errors @ w, errors) for w in self.weights]
        )
        t_switch, outgoing, incoming = list(zip(*block.switches)) or ((), (), ())
        t_switch = [float(t) for t in t_switch]
        at = np.searchsorted(block.times, t_switch)
        old, new = self.table.rows(outgoing), cols[at]
        bounds = self.table.lam[old, new]
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
        jumps = list(zip(t_switch, outgoing, incoming, seen, bounds.tolist()))
        return LyapunovMonitor(self.table.indices, values, jumps)


def lyapunov_monitor(record, certificates, p):
    """Per-topology energy traces and switch-jump ratios of a whole run, with
    the pair table of `certificates` solved once; see `EnergyMonitor`."""
    return EnergyMonitor(certificates, p).add(record)


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
    """Write the CSV rows of samples ``lo .. hi - 1`` of a block; see `TrajectoryCsv`.

    ``data`` holds each sample's values after ``t`` and the topology, and
    ``agree`` flags the samples whose agent blocks all equal agent N's (see
    `_split`).  Rows are CRLF-terminated, as csv.writer emits them, and each
    float is its ``repr``, the shortest round-trip form.  The samples are
    taken in runs of equal flags.  A run that agrees is formatted a column
    at a time (see `_agreeing_rows`); a row that does not is formatted on
    its own.  Each row is written as soon as it is formatted, so a run's
    short columns are held, never its text.
    """
    if lo == hi:
        return
    switch_at = {t: (old, new) for t, old, new in record.switches}
    cuts = np.flatnonzero(np.diff(agree[lo:hi])) + lo + 1
    for p, q in zip([lo, *cuts.tolist()], [*cuts.tolist(), hi]):
        times = record.times[p:q].tolist()
        # The topologies of each sample's rows: a switch's outgoing, then
        # its incoming one.
        labels = list(map(switch_at.get, times, zip(record.indices[p:q].tolist())))
        if agree[p]:
            fh.writelines(_agreeing_rows(record, data, p, q, labels))
            continue
        for t, pair, row in zip(times, labels, data[p:q]):
            body = ",".join(map(repr, row.tolist()))
            for i in pair:
                fh.write(f"{t!r},{i},{body}\r\n")


def _agreeing_rows(record, data, p, q, labels):
    """The CSV rows of the agreeing samples ``p .. q - 1``, made one at a time.

    Formatted a column at a time: one pass of `_reprs` over the times, over
    each of agent N's n columns and over each column after the agent blocks
    (``e_norm``, ``V_i``).  Agent N's formatted block is joined once per
    row and repeated N times.  `labels` holds each sample's topologies (see
    `_write_rows`); a switch's two rows repeat its sample, whose values
    `_reprs` formats once.
    """
    n_nodes, n = record.node_count, record.state_dim
    at = np.repeat(np.arange(p, q), list(map(len, labels)))
    *columns, last = data[at, (n_nodes - 1) * n :].T
    columns = [_reprs(c) for c in columns]
    agent = list(map(",".join, zip(*columns[:n])))
    return map(",".join, zip(
        _reprs(record.times[at]),
        map(str, itertools.chain.from_iterable(labels)),
        *[agent] * n_nodes,
        *columns[n:],
        _reprs(last, "%r\r\n".__mod__),
    ))


def _reprs(column, form=repr):
    """`form` of each float of `column`, lazily.

    Each run of equal bits is formatted once, so a value that repeats from
    the sample before, a constant velocity or a zero energy say, costs no
    ``repr``; bits, not values, are compared, so ``-0.0`` never stands in
    for ``0.0``.  Once a run has converged most of its velocities,
    ``e_norm`` and ``V_i`` repeat, and their ``repr`` was most of the
    writer's time (README, "Trajectory CSV").
    """
    bits = column.view(np.int64)
    head = np.concatenate(([True], bits[1:] != bits[:-1]))
    text = list(map(form, column[head].tolist()))
    return map(text.__getitem__, (np.cumsum(head) - 1).tolist())


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
    size, n_nodes, n = record.times.size, record.node_count, record.state_dim
    blocks = data[:, : n_nodes * n].view(np.int64).reshape(size, n_nodes, n)
    agree = (blocks == blocks[:, -1:]).all(axis=(1, 2))
    skipped = (n_nodes - 1) * n * int(agree.sum())
    return agree, _part_bounds(size, data.size - skipped)


class TrajectoryCsv:
    """Writes a run as CSV into the open text file `fh`, one block at a time.

    Columns: ``t, topology, x_1_1 .. x_N_n, e_norm`` plus ``V_i`` for each
    of `topology_indices` when given.  The header is written at once; `add`
    appends a block's rows, with its energies as `values` when there are
    ``V_i`` columns.  Switch instants produce two rows sharing t and x:
    first the outgoing topology, then the incoming one.  Floats are written
    with full round-trip precision.  A sample whose agents all agree bit for
    bit takes the column path of `_write_rows`; any other is formatted a row
    at a time.  Beyond the block's one array of values, a part holds its
    short formatted columns, never its text.

    A block's samples are split into contiguous parts (see `_split`); one
    child is forked per part after the first (see `_parts`).  The parent
    appends the first part itself, then waits for each child in order and
    appends its file.  A child that fails raises OSError naming its part of
    `name`, after every child has been waited for.  With one part, nothing
    is forked.  Each part formats exactly the rows a single pass would, so
    the bytes depend neither on the number of parts nor on the blocks.
    """

    def __init__(self, fh, name, node_count, state_dim, topology_indices=None):
        self.fh, self.name = fh, name
        header = ["t", "topology"]
        header += [f"x_{i + 1}_{j + 1}" for i in range(node_count)
                   for j in range(state_dim)]
        header.append("e_norm")
        header += [f"V_{i}" for i in topology_indices or ()]
        fh.write(",".join(header) + "\r\n")

    def add(self, block, values=None):
        width = block.node_count * block.state_dim
        extra = 0 if values is None else values.shape[1]
        data = np.empty((block.times.size, width + 1 + extra))
        agent_states(block, data)
        data[:, width] = block.error_norms
        if extra:
            data[:, width + 1 :] = values
        agree, bounds = _split(block, data)
        times = block.times
        jobs = [(f"trajectory CSV rows at t={times[lo]!r}..{times[hi - 1]!r}",
                 functools.partial(_write_part, block, data, agree, lo, hi))
                for lo, hi in zip(bounds[1:-1], bounds[2:])]
        with _parts(jobs, self.name) as finished:
            _write_rows(self.fh, block, data, agree, 0, bounds[1])
            self.fh.flush()
            for part in finished:
                shutil.copyfileobj(part, self.fh.buffer)


def write_trajectory_csv(record, path, monitor=None):
    """Write a whole run as CSV at `path`, with the ``V_i`` columns of
    `monitor` when given; see `TrajectoryCsv`."""
    with open(path, "w", newline="") as fh:
        writer = TrajectoryCsv(fh, path, record.node_count, record.state_dim,
                               monitor and monitor.topology_indices)
        writer.add(record, monitor and monitor.values)
