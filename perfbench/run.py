#!/usr/bin/env python3
"""Benchmark: full CLI design-and-verify jobs on seeded workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload vtol-sweep --seed 1 --seconds 38 --trace 0

One job is the user's command sequence ``analyze -> synthesize -> simulate
-> verify`` on a generated config, run in-process through
``switched_consensus.cli.main``.  The loop is closed: one client, one job at
a time.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps
every layer's public functions in spans and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

COMMANDS = ("analyze", "synthesize", "simulate", "verify")
DESIGN_COMMANDS = ("analyze", "synthesize", "verify")
SETUP_REPEATS = 5
# One BLAS thread, never more than `nproc`: on a 2-core machine, N=200 jobs
# ran faster single-threaded (median 5.4 s) than with two threads (7.1 s).
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "job_s_p50": "s",
    "job_s_tail": "s",
    "design_s_p50": "s",
    "simulate_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.expm.s": "s",
    "linalg.expm.calls": "count",
    "simulator.transition_reuse": "ratio",
    "simulator.simulate.self_s": "s",
    "simulator.lyapunov_monitor.s": "s",
    "simulator.write_trajectory_csv.s": "s",
    "simulator.write_trajectory_csv.bytes": "bytes",
    "simulator.build_closed_loop.s": "s",
    "simulator.consensus_verdict.s": "s",
    "simulator.samples": "count",
    "simulator.switches": "count",
    "linalg.max_generalized_eigenvalue.s": "s",
    "linalg.max_generalized_eigenvalue.calls": "count",
    "synthesis.check_schedule.s": "s",
    "synthesis.dwell_threshold.s": "s",
    "synthesis.solve_topology_lmi.s": "s",
    "synthesis.solve_gain_lmi.s": "s",
    "linalg.solve_lyapunov.s": "s",
    "linalg.solve_lyapunov.calls": "count",
    "linalg.solve_care.s": "s",
    "linalg.uncontrollable_modes.calls": "count",
    "linalg.eigenvalues.calls": "count",
    "linalg.is_positive_definite.calls": "count",
    "topology.antistability_margin.calls": "count",
    "topology.has_spanning_tree.s": "s",
    "topology.reduce_laplacian.s": "s",
    "config.load_config.s": "s",
    "config.config_digest.s": "s",
    "cli.analyze.self_s": "s",
    "cli.synthesize.self_s": "s",
    "cli.simulate.self_s": "s",
    "cli.verify.self_s": "s",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="'small' shrinks every workload for smoke tests")
    return parser.parse_args(argv)


def blas_libraries():
    """``{library file: thread count}`` for every OpenBLAS loaded in-process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                found[os.path.basename(path)] = getter()
                break
    return found


def git_commit():
    """Commit of the checkout, read from ``.git`` without leaving ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args):
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": blas_libraries(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup():
    """Median wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import switched_consensus.cli"]
    samples = []
    for repeat in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        if repeat:  # the first import may compile bytecode
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def tail(samples):
    """Highest percentile with at least ten samples beyond it, and at least
    the median.

    Returns ``(percentile, value)``, the percentile being the share of
    samples at or below the value.  With 21 samples or more, ten samples lie
    beyond the value.  With fewer, no high percentile has ten beyond it, and
    the upper median is returned; a lower percentile would not be a tail.
    """
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 11, n // 2)
    return 100.0 * (k + 1) / n, xs[k]


@dataclass
class JobResult:
    job: object
    times: dict  # command -> seconds
    problems: list  # [(command, problem)]; empty when the job passed
    tolerated: bool  # every problem is the job's known defect
    traced: bool

    @property
    def known_defect(self):
        """The job failed, and only by its recorded known defect."""
        return bool(self.problems) and self.tolerated

    @property
    def failed(self):
        """The job failed in a way no known defect accounts for."""
        return not self.tolerated

    def wall(self, commands=COMMANDS):
        return sum(self.times.get(c, 0.0) for c in commands)


def _no_span(name):
    return contextlib.nullcontext()


def run_commands(cli, workdir, span):
    """Time the four CLI commands of one job; return times and outputs."""
    config = workdir / "config.json"
    outputs = {}
    times = {}
    with span("job"):
        for command in COMMANDS:
            buf = io.StringIO()
            start = time.perf_counter()
            with span(f"command.{command}"), contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                try:
                    code = cli.main([command, "--config", str(config),
                                     "--out", str(workdir)])
                except Exception:  # the job fails; the run goes on
                    traceback.print_exc(file=buf)
                    code = None
            times[command] = time.perf_counter() - start
            outputs[command] = (code, buf.getvalue())
            if command in ("analyze", "synthesize") and code != 0:
                break
    return times, outputs


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def check_job(job, outputs, workdir):
    """Compare one job's outputs with its certified expectation.

    Every command must exit 0, `simulate` must print a PASS verdict and
    `verify` must pass every check.  The synthesized tau* must lie below
    the smallest generated gap, and the trajectory CSV must hold one row
    per sample plus one per switch.  Returns ``[(command, problem)]``.
    """
    problems = []
    for command in COMMANDS:
        if command not in outputs:
            problems.append((command, "not run"))
            continue
        code, text = outputs[command]
        if code != 0:
            problems.append((command, f"exit {code}: {_last_line(text)}"))
    if "simulate" not in outputs:
        return problems
    try:
        tau_star = json.loads((workdir / "synthesis.json").read_text())["dwell_threshold"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(("synthesize", f"no readable report: {exc!r}"))
    else:
        if not tau_star < job.min_gap:
            problems.append(("synthesize", f"tau* {tau_star} not below the "
                             f"generated minimum gap {job.min_gap}"))
    code, text = outputs["simulate"]
    if code == 0 and "consensus: PASS" not in text:
        problems.append(("simulate", "exit 0 without a PASS verdict"))
    csv_path = workdir / "trajectory.csv"
    try:
        samples = int(text.split(" samples)")[0].rsplit("(", 1)[1])
        with open(csv_path, "rb") as fh:
            rows = sum(chunk.count(b"\n")
                       for chunk in iter(lambda: fh.read(1 << 20), b""))
    except (IndexError, ValueError, OSError) as exc:
        problems.append(("simulate", f"no trajectory to check: {exc}"))
    else:
        if rows != 1 + samples + job.switches:
            problems.append(("simulate", f"trajectory.csv has {rows} lines, expected "
                             f"1 + {samples} samples + {job.switches} switches"))
    if outputs["verify"][0] == 0 and \
            "verification: all checks passed" not in outputs["verify"][1]:
        problems.append(("verify", "exit 0 without every check passing"))
    return problems


def tolerated(job, outputs, problems):
    """Whether a failure is today's recorded baseline: the job carries a
    known defect and its one problem is a FAIL verdict from `simulate`."""
    code, text = outputs.get("simulate", (None, ""))
    return (job.known_defect is not None and code == 1
            and _last_line(text).startswith("consensus: FAIL")
            and [command for command, _ in problems] == ["simulate"])


def run_job(cli, package, job, workdir, tracer):
    """Run one job in a fresh work directory and check its outputs."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(json.dumps(job.config))
    gc.collect()  # garbage of earlier jobs is not this job's cost
    span = _no_span
    if tracer is not None:
        tracer.job = job.index
        tracer.install(package)
        span = tracer.span
    try:
        times, outputs = run_commands(cli, workdir, span)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = check_job(job, outputs, workdir)
    ok = not problems or tolerated(job, outputs, problems)
    shutil.rmtree(workdir, ignore_errors=True)
    return JobResult(job, times, problems, ok, tracer is not None)


def run_loop(cli, package, workload, seconds, tracer):
    """Closed loop: start the next job only while it should end in time.

    With a tracer, every other job is traced, so the same run also gives
    the untraced job time that the tracing overhead is measured against.
    """
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    results = []
    iterations = []
    start = time.perf_counter()
    while not iterations or (time.perf_counter() - start
                             + statistics.median(iterations) <= seconds):
        began = time.perf_counter()
        index = len(results)
        traced = tracer if index % 2 == 0 else None
        results.append(run_job(cli, package, workload.job(index), workdir, traced))
        iterations.append(time.perf_counter() - began)
    return results


def warm_up(cli, package, workloads, name, seed):
    """One small job first, so lazy imports and first-call set-up are paid."""
    job = workloads.WORKLOADS[name](seed, scale="small").job(0)
    run_job(cli, package, job, OUT / f"warmup-{os.getpid()}", None)


def end_to_end(results):
    jobs = [r.wall() for r in results]
    percentile, tail_value = tail(jobs)
    metrics = {
        "job_s_p50": statistics.median(jobs),
        "job_s_tail": tail_value,
        "design_s_p50": statistics.median(r.wall(DESIGN_COMMANDS) for r in results),
        "simulate_s_p50": statistics.median(r.wall(("simulate",)) for r in results),
    }
    notes = {"job_s_tail": f"p{percentile:.1f} of {len(jobs)} jobs"}
    return metrics, notes


def per_layer(results, tracer):
    by_job = {}
    for s in tracer.spans:
        by_job.setdefault(s.job, []).append(s)
    profiles = [
        spans.job_profile(by_job.get(r.job.index, []), tracer.counts[r.job.index])
        for r in results if r.traced
    ]
    for p in profiles:
        p["simulator.transition_reuse"] = (
            1.0 - p.get("linalg.expm.calls", 0) / p["simulator.steps"]
            if p.get("simulator.steps") else 0.0
        )
    metrics = {
        name: statistics.median(p.get(name, 0.0) for p in profiles)
        for name in PER_LAYER if name != "trace.overhead"
    }
    traced = statistics.median(r.wall() for r in results if r.traced)
    untraced = [r.wall() for r in results if not r.traced]
    baseline = statistics.median(untraced) if untraced else traced
    metrics["trace.overhead"] = traced / baseline
    steps = statistics.median(p.get("simulator.steps", 0) for p in profiles)
    notes = {
        "simulator.transition_reuse": f"base: {steps:g} propagation steps per job",
        "trace.overhead": (f"traced job_s_p50 {traced:.6g} s over untraced "
                           f"{baseline:.6g} s ({len(profiles)} traced, "
                           f"{len(untraced)} untraced jobs)"),
    }
    return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "switched_consensus" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'switched_consensus'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import switched_consensus
    from switched_consensus import cli

    import workloads

    if Path(switched_consensus.__file__).resolve().parent != SRC / "switched_consensus":
        print(f"error: imported {switched_consensus.__file__}, not the checkout's "
              "package", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup_s = measure_setup() if not args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, scale=args.scale)
    warm_up(cli, switched_consensus, workloads, args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    results = run_loop(cli, switched_consensus, workload, args.seconds, tracer)

    if args.trace:
        metrics, notes = per_layer(results, tracer)
        units = PER_LAYER
        tracer.write(OUT / f"spans-{args.workload}-{args.scale}-seed{args.seed}.csv")
    else:
        metrics, notes = end_to_end(results)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END

    failed = [r for r in results if r.failed]
    known = [r for r in results if r.known_defect]
    env = environment(args)
    print(f"env: {json.dumps(env)}")
    for r in results:
        kind = f"known defect: {r.job.known_defect}" if r.tolerated else "UNEXPECTED"
        for command, what in r.problems:
            print(f"failed job: workload={args.workload} job={r.job.index} "
                  f"({r.job.label}) command={command}: {what} [{kind}]")
    failing = len(failed) + len(known)
    print(f"failed_share = {failing / len(results):.4f} ratio "
          f"({failing} failed of {len(results)} attempted: "
          f"{len(known)} by a known defect, {len(failed)} unexpected)")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")

    # `failed` counts unexpected failures only. Known-defect failures recur
    # on the same jobs every run, and are reported above with their counts.
    doc = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(doc, env=env, notes=notes,
                  jobs=[{"job": r.job.index, "label": r.job.label,
                         "traced": r.traced, "seconds": r.times,
                         "problems": r.problems, "known_defect": r.known_defect}
                        for r in results])
    name = f"result-{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
