"""Tests for the benchmark itself: generators, tracer arithmetic, runner.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from switched_consensus import cli, config, synthesis

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _bytes(workload, indices):
    return [json.dumps(workload.job(i).config, sort_keys=True) for i in indices]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    first = _bytes(cls(7), [0, 1, 5])
    # A fresh generator, jobs drawn in another order: same bytes per index.
    again = cls(7)
    assert [_bytes(again, [i])[0] for i in (5, 1, 0)] == first[::-1]
    assert _bytes(cls(8), [0]) != first[:1]


@pytest.mark.parametrize("name,count", [("vtol-sweep", 6), ("large-n", 1),
                                        ("long-schedule", 2)])
def test_generated_schedules_pass_check_schedule(name, count):
    workload = workloads.WORKLOADS[name](11)
    for index in range(count):
        job = workload.job(index)
        rc = config.parse_config(job.config)
        design = synthesis.synthesize(
            rc.a, rc.b, cli._reduced(rc), rc.beta, c_values=rc.c_values,
            alpha=rc.alpha,
        )
        report = synthesis.check_schedule(config.build_signal(rc),
                                          design.certificates, rc.beta, rc.kappa0)
        assert report.passed, f"{name} job {index}"
        assert design.dwell_threshold < job.min_gap
        assert len(report.checks) == job.switches


def test_vtol_sweep_horizon_blocks_hold_two_short_one_long():
    workload = workloads.VtolSweep(3)
    horizons = [workload.job(i).config["switching"]["periodic"]["horizon"]
                for i in range(30)]
    for block in range(10):
        assert sorted(horizons[3 * block:3 * block + 3]) == [10.0, 10.0, 30.0]


def _span(id, parent, start, end, name="x"):
    return spans.Span(0, id, parent, name, start, end)


def test_self_time_on_synthetic_span_tree():
    tree = [
        _span(0, -1, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 1, 2.0, 3.0, "leaf"),
        _span(3, 0, 3.0, 6.0, "b"),   # overlaps a on [3, 4]
        _span(4, 0, 9.0, 12.0, "c"),  # clipped to the root's end
    ]
    own = spans.self_times(tree)
    # Children of root cover [1, 6] and [9, 10].
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    profile = spans.job_profile(tree, {"simulator.samples": 5})
    assert profile["root.s"] == pytest.approx(10.0)
    assert profile["root.self_s"] == pytest.approx(4.0)
    assert profile["a.calls"] == 1
    assert profile["simulator.samples"] == 5


def test_tracer_wraps_calls_within_and_between_modules():
    import switched_consensus
    from switched_consensus import linalg

    t = spans.Tracer()
    t.job = 0
    original = linalg.expm
    t.install(switched_consensus)
    try:
        workload = workloads.VtolSweep(1)
        rc = config.parse_config(workload.job(0).config)
        synthesis.synthesize(rc.a, rc.b, cli._reduced(rc), rc.beta,
                             c_values=rc.c_values, alpha=rc.alpha)
    finally:
        t.uninstall()
    assert linalg.expm is original
    names = {s.name for s in t.spans}
    # synthesize -> solve_topology_lmi is a call inside one module.
    assert {"synthesis.synthesize", "synthesis.solve_topology_lmi",
            "linalg.solve_lyapunov", "topology.antistability_margin"} <= names
    by_id = {s.id: s for s in t.spans}
    lmi = next(s for s in t.spans if s.name == "synthesis.solve_topology_lmi")
    assert by_id[lmi.parent].name == "synthesis.synthesize"


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    percentile, value = run.tail(samples)
    assert sum(x > value for x in samples) == 10
    assert percentile == 75.0


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 15, 20, 21, 22])
def test_tail_never_falls_below_the_median(n):
    samples = [float(i) for i in range(n, 0, -1)]
    percentile, value = run.tail(samples)
    assert value >= statistics.median(samples)
    assert percentile >= 50.0
    assert sum(x > value for x in samples) <= 10


def _benchmark_doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_runner_metrics():
    doc = _benchmark_doc()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_smoke_run_prints_every_metric(name, trace):
    out = _run(["--workload", name, "--seed", "2", "--seconds", "1",
                "--trace", str(trace), "--scale", "small"], ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    assert doc["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    for metric in expected:
        assert any(line.startswith(f"{metric} = ") for line in lines)
    assert any(line.startswith("failed_share = ") for line in lines)


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(["--workload", "vtol-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
