"""`simulate` from the command line, consumed one block of intervals at a time."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switched_consensus import cli, simulator, synthesis
from switched_consensus.config import build_signal, load_config, make_x0

from conftest import single_process_csv

SRC = Path(__file__).resolve().parent.parent / "src"


def _graph(n, edges):
    return {"node_count": n,
            "edges": [{"from": s, "to": d, "weight": 1.0} for s, d in edges]}


# Seven intervals: with 1, 2 or 3 intervals a block, every block boundary is
# a switch and the last block holds one interval.  At dt = 0.25 the interval
# [2, 2.02) holds one sample, its end, so the switch at 2.02 finds its
# outgoing sample in the block before whenever a block starts there.
# Topology 3 is entered only at the last switch.
SCHEDULE = {"breakpoints": [0.0, 1.0, 1.5, 2.0, 2.02, 3.0, 3.5],
            "indices": [1, 2, 1, 2, 1, 2, 3], "horizon": 4.0}


def _config(switching, graphs, a=((0.0, 1.0), (0.0, 0.0)), b=((0.0,), (1.0,)),
            dt=0.25, window=1.0):
    return {
        "schema_version": 1,
        "system": {"a": [list(r) for r in a], "b": [list(r) for r in b]},
        "graphs": graphs,
        "switching": {"explicit": switching},
        "synthesis": {"beta": 1.0},
        "simulation": {"seed": 7, "dt": dt, "tolerance": 1e-2, "window": window},
    }


THREE_PATHS = [_graph(3, [(1, 2), (2, 3)]), _graph(3, [(3, 2), (2, 1)]),
               _graph(3, [(1, 3), (3, 2)])]


@pytest.fixture(scope="module")
def designed(tmp_path_factory):
    """A config over `SCHEDULE` and the directory of its synthesis report."""
    root = tmp_path_factory.mktemp("streamed")
    config = root / "config.json"
    config.write_text(json.dumps(_config(SCHEDULE, THREE_PATHS)))
    out = root / "design"
    assert cli.main(["synthesize", "--config", str(config), "--out", str(out)]) == 0
    return config, out / cli.REPORT_NAME


def _out_dir(tmp_path, report, old=None, mkdir=False):
    """A fresh output directory holding the report, and `old` as trajectory.csv."""
    out = tmp_path / "out"
    out.mkdir(parents=mkdir)
    (out / cli.REPORT_NAME).write_bytes(report.read_bytes())
    if old is not None:
        (out / cli.TRAJECTORY_NAME).write_bytes(old)
    return out


def _whole_run(config, out):
    """The run as one record, its monitor, its verdict and its config."""
    rc = load_config(str(config))
    design = cli._load_report(rc, str(out))
    cl = simulator.build_closed_loop(rc.a, rc.b, design.k, design.alpha, rc.graphs,
                                     build_signal(rc))
    record = simulator.simulate(cl, make_x0(rc), rc.dt)
    return record, design, rc


def _use_forks(monkeypatch, cpus):
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulator, "MIN_PART_VALUES", 1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _printed(path, record, rc, verdict, ratio):
    """What `simulate` prints for the run of `record` written to `path`."""
    return (f"trajectory written to {path} ({record.times.size} samples)\n"
            f"consensus: {'PASS' if verdict else 'FAIL'} (|e(T)|/|e(0)| = "
            f"{ratio:.3e}, tolerance {rc.tolerance:.3e})\n")


def _assert_jumps_match(got, want):
    """Equal switch jumps; the ratios are read off the V_i, so they share
    their tolerance."""
    assert len(got) == len(want)
    for (*got_row, got_ratio), (*want_row, want_ratio) in zip(
            [(t, o, i, b, r) for t, o, i, r, b in got],
            [(t, o, i, b, r) for t, o, i, r, b in want]):
        assert got_row == want_row
        if want_ratio is None:
            assert got_ratio is None
        else:
            assert got_ratio == pytest.approx(want_ratio, rel=1e-12, abs=0.0)


def _assert_csv_matches(path, oracle):
    """Every row of `path` is the oracle's, the V_i within the stated tolerance."""
    with open(path, newline="") as got_fh, open(oracle, newline="") as want_fh:
        got, want = list(csv.reader(got_fh)), list(csv.reader(want_fh))
    assert got[0] == want[0] and len(got) == len(want)
    v = [pos for pos, name in enumerate(want[0]) if name.startswith("V_")]
    assert len(v) == 3
    for got_row, want_row in zip(got[1:], want[1:]):
        assert got_row[: v[0]] == want_row[: v[0]]
        np.testing.assert_allclose(np.array(got_row[v[0]:], dtype=float),
                                   np.array(want_row[v[0]:], dtype=float),
                                   rtol=1e-12, atol=0.0)


class TestBlockBoundaries:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_streamed_run_matches_the_whole_run(self, tmp_path, designed, capsys,
                                                monkeypatch, block, cpus):
        config, report = designed
        out = _out_dir(tmp_path, report)
        record, design, rc = _whole_run(config, out)
        monitor = simulator.lyapunov_monitor(record, design.certificates, design.p)
        verdict, ratio = simulator.consensus_verdict(record, rc.tolerance, rc.window)
        oracle = tmp_path / "oracle.csv"
        single_process_csv(record, oracle, monitor)
        assert [t for t, _, _ in record.switches] == SCHEDULE["breakpoints"][1:]
        assert 2.02 in record.times and 2.0 in record.times
        assert not ((record.times > 2.0) & (record.times < 2.02)).any()

        jumps = []
        add = simulator.EnergyMonitor.add

        def recording_add(monitor, block):
            result = add(monitor, block)
            jumps.extend(result.switch_jumps)
            return result

        monkeypatch.setattr(simulator.EnergyMonitor, "add", recording_add)
        monkeypatch.setattr(simulator, "BLOCK_INTERVALS", block)
        _use_forks(monkeypatch, cpus)
        capsys.readouterr()
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == (cli.EXIT_OK if verdict else cli.EXIT_VERDICT)
        path = out / cli.TRAJECTORY_NAME
        assert capsys.readouterr().out == _printed(path, record, rc, verdict, ratio)
        assert len(monitor.switch_jumps) == 6
        _assert_jumps_match(jumps, monitor.switch_jumps)
        assert sorted(os.listdir(out)) == [cli.REPORT_NAME, cli.TRAJECTORY_NAME]
        _no_child_left()
        _assert_csv_matches(path, oracle)


# Single integrators on `THREE_PATHS`, sampled at dt = 0.5: a disagreement of
# a few subnormal units often underflows to exactly 0 within the run, and
# from there every row formats agent N's block once.  An interval of 0.1
# holds one sample, its end, so a block that starts there has a switch on
# its first sample; every block but the last ends on a switch.
SCALAR = {"a": ((0.0,),), "b": ((1.0,),), "dt": 0.5}
LENGTHS = [0.1, 0.5, 0.7, 1.0, 1.5]


@pytest.fixture(scope="module")
def scalar_report(tmp_path_factory):
    """The synthesis report of `SCALAR` on `THREE_PATHS`."""
    root = tmp_path_factory.mktemp("scalar")
    config = root / "config.json"
    config.write_text(json.dumps(_config(SCHEDULE, THREE_PATHS, **SCALAR)))
    assert cli.main(["synthesize", "--config", str(config), "--out", str(root)]) == 0
    return root / cli.REPORT_NAME


@settings(max_examples=100, deadline=None)
@given(block=st.sampled_from([1, 2, 3]), cpus=st.sampled_from([1, 2]),
       lengths=st.lists(st.sampled_from(LENGTHS), min_size=1, max_size=7),
       steps=st.lists(st.integers(1, 2), min_size=7, max_size=7),
       units=st.lists(st.integers(-20, 20), min_size=3, max_size=3),
       unit=st.sampled_from([5e-324, 0.25]))
# Blocks of 2 intervals: the second starts with the switch at t = 1.1, the
# one sample of [1.0, 1.1), and ends with the switch at t = 2.1; the third
# holds one interval.  e is exactly 0 from t = 2.0 on.
@example(block=2, cpus=2, lengths=[0.5, 0.5, 0.1, 1.0, 0.5], steps=[1] * 7,
         units=[7, -3, 12], unit=5e-324)
def test_streamed_csv_is_the_whole_run_csv(scalar_report, tmp_path_factory, block,
                                           cpus, lengths, steps, units, unit):
    root = tmp_path_factory.mktemp("case")
    switching = {"breakpoints": np.cumsum([0.0, *lengths[:-1]]).tolist(),
                 "indices": (np.cumsum(steps[: len(lengths)]) % 3 + 1).tolist(),
                 "horizon": float(np.sum(lengths))}
    doc = _config(switching, THREE_PATHS, **SCALAR)
    del doc["simulation"]["seed"]
    doc["simulation"]["x0"] = [k * unit for k in units]
    config = root / "config.json"
    config.write_text(json.dumps(doc))
    out = _out_dir(root, scalar_report)
    record, design, rc = _whole_run(config, out)
    monitor = simulator.lyapunov_monitor(record, design.certificates, design.p)
    verdict, ratio = simulator.consensus_verdict(record, rc.tolerance, rc.window)
    oracle = root / "oracle.csv"
    single_process_csv(record, oracle, monitor)

    jumps = []
    add = simulator.EnergyMonitor.add

    def recording_add(monitor, block):
        # e and x_N are column views of the one array of the block's samples.
        assert block.errors.base is block.agreement.base is not None
        result = add(monitor, block)
        jumps.extend(result.switch_jumps)
        return result

    printed = io.StringIO()
    with mock.patch.object(simulator.EnergyMonitor, "add", recording_add), \
            mock.patch.object(simulator, "BLOCK_INTERVALS", block), \
            mock.patch.object(simulator, "_usable_cpus", lambda: cpus), \
            mock.patch.object(simulator, "MIN_PART_VALUES", 1), \
            contextlib.redirect_stdout(printed):
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == (cli.EXIT_OK if verdict else cli.EXIT_VERDICT)
    path = out / cli.TRAJECTORY_NAME
    assert printed.getvalue() == _printed(path, record, rc, verdict, ratio)
    _assert_jumps_match(jumps, monitor.switch_jumps)
    _no_child_left()
    _assert_csv_matches(path, oracle)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40),
       cuts=st.lists(st.integers(1, 39), max_size=6),
       window=st.sampled_from([0.1, 0.5, 1.0, 3.0, 100.0]),
       zeros=st.floats(0.0, 1.0))
def test_verdict_over_blocks_is_the_whole_run_verdict(seed, size, cuts, window,
                                                      zeros):
    # Norms with repeats and zeros, on uneven times, cut into blocks at
    # random: the windows and their peaks span the cuts.
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 0.5, size))
    norms = rng.choice([0.0, 0.5, 1.0, 2.0], size) * (rng.random(size) > zeros)
    record = simulator.TrajectoryRecord(times, norms[:, None], np.zeros((size, 1)),
                                        norms, np.ones(size, dtype=int), [], 2, 1)
    check = simulator.ConsensusCheck(times[-1], 0.6, window)
    for lo, hi in zip([0, *sorted(set(cuts))], [*sorted(set(cuts)), size]):
        check.add(simulator.TrajectoryRecord(
            times[lo:hi], norms[lo:hi, None], np.zeros((max(hi - lo, 0), 1)),
            norms[lo:hi], np.ones(max(hi - lo, 0), dtype=int), [], 2, 1))
    assert check.verdict() == simulator.consensus_verdict(record, 0.6, window)


def test_tiny_disagreement_keeps_its_verdict(designed):
    # e_norm squared each entry, so a run started at x0 = s u with s <=
    # 1e-170 read e_norm 0 from its first sample and passed as a run that
    # starts in consensus.  Scaled, its verdict and ratio are those at s = 1
    # down to 1e-300; at 1e-320 e is subnormal, and the run still fails.
    config, report = designed
    rc = load_config(str(config))
    design = cli._load_report(rc, str(report.parent))
    cl = simulator.build_closed_loop(rc.a, rc.b, design.k, design.alpha, rc.graphs,
                                     build_signal(rc))
    u = np.random.default_rng(0).uniform(-1.0, 1.0, cl.node_count * cl.state_dim)

    def verdict(scale):
        record = simulator.simulate(cl, scale * u, rc.dt)
        return simulator.consensus_verdict(record, rc.tolerance, rc.window)

    want, ratio = verdict(1.0)
    assert rc.dt == 0.25 and not want
    for scale in (1e-170, 1e-300):
        got, got_ratio = verdict(scale)
        assert got == want
        assert got_ratio == pytest.approx(ratio, rel=1e-12)
    assert verdict(1e-320)[0] is False


class TestFailurePaths:
    """A run that fails leaves no partial file, and an older trajectory as it was."""

    OLD = b"t,topology\r\nolder run\r\n"

    def assert_left_as_it_was(self, out):
        assert sorted(os.listdir(out)) == [cli.REPORT_NAME, cli.TRAJECTORY_NAME]
        assert (out / cli.TRAJECTORY_NAME).read_bytes() == self.OLD
        _no_child_left()

    def test_divergence_in_a_late_block(self, tmp_path, capsys, monkeypatch):
        # No coupling, so e' = 4 e: e(t) = e(0) e^(4t) first exceeds the
        # cutoff near t = 7, in the last of seven blocks of two 0.5 s intervals.
        graphs = [_graph(2, [(1, 2)])] * 2
        switching = {"breakpoints": [0.5 * k for k in range(14)],
                     "indices": [1, 2] * 7, "horizon": 7.5}
        doc = _config(switching, graphs, a=((4.0,),), b=((1.0,),), dt=0.1)
        doc["gain"] = {"k": [[0.0]], "alpha": 1.0}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        (out / cli.TRAJECTORY_NAME).write_bytes(self.OLD)
        rc = load_config(str(config))
        cl = simulator.build_closed_loop(rc.a, rc.b, [[0.0]], 1.0, rc.graphs,
                                         build_signal(rc))
        with pytest.raises(simulator.SimulationDiverged) as want:
            simulator.simulate(cl, make_x0(rc), rc.dt)
        assert want.value.t > 6.0
        monkeypatch.setattr(simulator, "BLOCK_INTERVALS", 2)
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_VERDICT
        assert capsys.readouterr().out == f"simulation aborted: {want.value}\n"
        assert sorted(os.listdir(out)) == [cli.TRAJECTORY_NAME]
        assert (out / cli.TRAJECTORY_NAME).read_bytes() == self.OLD

    def test_jump_above_its_bound_in_a_late_block(self, tmp_path, designed, capsys,
                                                  monkeypatch):
        # The energies and the bounds come from the same Q_i, so a jump can
        # only break a bound that was tampered with: the one from topology 2
        # into topology 3, entered only at the last switch.
        config, report = designed
        out = _out_dir(tmp_path, report, self.OLD)
        record, design, _ = _whole_run(config, out)
        pair_lambdas = synthesis.pair_lambdas

        def tampered(certificates):
            indices, lam = pair_lambdas(certificates)
            lam = lam.copy()
            lam[indices.index(2), indices.index(3)] = 1e-6
            return indices, lam

        monkeypatch.setattr(synthesis, "pair_lambdas", tampered)
        with pytest.raises(RuntimeError) as want:
            simulator.lyapunov_monitor(record, design.certificates, design.p)
        assert "at t=3.5;" in str(want.value)
        monkeypatch.setattr(simulator, "BLOCK_INTERVALS", 1)
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {want.value}\n")
        self.assert_left_as_it_was(out)

    def test_failed_csv_child_in_a_late_block(self, tmp_path, designed, capfd,
                                              monkeypatch):
        config, report = designed
        out = _out_dir(tmp_path, report, self.OLD)
        write_rows = simulator._write_rows

        def failing_in_the_last_block(fh, record, data, agree, lo, hi):
            if lo != 0 and record.times[-1] == SCHEDULE["horizon"]:
                raise RuntimeError("formatter failed")
            write_rows(fh, record, data, agree, lo, hi)

        monkeypatch.setattr(simulator, "_write_rows", failing_in_the_last_block)
        monkeypatch.setattr(simulator, "BLOCK_INTERVALS", 2)
        _use_forks(monkeypatch, 2)
        capfd.readouterr()
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_INPUT
        captured = capfd.readouterr()
        path = re.escape(str(out / cli.TRAJECTORY_NAME))
        assert re.fullmatch(f"(?s).*RuntimeError: formatter failed\n"
                            f"error: {path}: part 2 of 2 failed in child process "
                            r"\d+ \(exit code 1\)\n", captured.err)
        assert captured.out == ""
        self.assert_left_as_it_was(out)


# N = 10 double integrators on a directed ring and a pinned path.
RING_AND_PATH = [_graph(10, [(i, i % 10 + 1) for i in range(1, 11)]),
                 _graph(10, [(i, i + 1) for i in range(1, 10)]
                        + [(i + 1, i) for i in range(1, 10)])]

# Runs the CLI in a child of its own and prints the child's peak RSS in KB.
# A process's ru_maxrss starts at the RSS of the process that spawned it,
# so the CLI is spawned from this small process, not from the test's.
PEAK_RSS = """
import resource, subprocess, sys
run = subprocess.run([sys.executable, "-m", "switched_consensus.cli", *sys.argv[1:]],
                     capture_output=True, text=True)
print(run.stdout, end="")
print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux")
def test_peak_memory_does_not_grow_with_the_horizon(tmp_path):
    # Four samples an interval.  Holding the whole run peaked about 58 MB
    # higher at 2e4 intervals than at 1e3; streamed, about 1 MB, from the
    # larger config and the schedule's own arrays.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_config(SCHEDULE | {"indices": [1, 2] * 3 + [1]},
                                         RING_AND_PATH)))
    design = tmp_path / "design"
    assert cli.main(["synthesize", "--config", str(config),
                     "--out", str(design)]) == 0
    tau = json.loads((design / cli.REPORT_NAME).read_text())["dwell_threshold"]
    peaks = []
    for intervals in (1_000, 20_000):
        out = _out_dir(tmp_path / str(intervals), design / cli.REPORT_NAME, mkdir=True)
        switching = {"breakpoints": [1.2 * tau * k for k in range(intervals)],
                     "indices": [1, 2] * (intervals // 2),
                     "horizon": 1.2 * tau * intervals}
        config.write_text(json.dumps(_config(switching, RING_AND_PATH, dt=0.3 * tau,
                                             window=20 * tau)))
        run = subprocess.run([sys.executable, "-c", PEAK_RSS, "simulate", "--config",
                              str(config), "--out", str(out)],
                             env=dict(os.environ, PYTHONPATH=str(SRC)),
                             capture_output=True, text=True, check=True)
        lines = run.stdout.splitlines()
        code, peak_kb = map(int, lines[-1].split())
        assert code == cli.EXIT_OK, run.stdout
        samples = int(re.search(r"\((\d+) samples\)", lines[0])[1])
        assert samples > 4 * intervals
        with open(out / cli.TRAJECTORY_NAME, "rb") as fh:
            assert sum(1 for _ in fh) == 1 + samples + intervals - 1
        peaks.append(peak_kb / 1024)
    assert peaks[1] - peaks[0] < 6.0, peaks
