"""Command-line front end for the synthesis/verification pipeline.

Commands: ``analyze`` (topology assumptions), ``synthesize`` (gain and
certificates), ``simulate`` (trajectory + consensus verdict), ``verify``
(re-check every certificate and the switching condition), and ``demo-vtol``
(the built-in five-aircraft benchmark, end to end).

Exit status contract: 0 success/pass, 1 verdict failure, 2 infeasible design
or violated topology assumption, 3 input error.
"""

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import config as cfg
from . import linalg, schema, simulator, synthesis, topology, vtol

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3

REPORT_NAME = "synthesis.json"
TRAJECTORY_NAME = "trajectory.csv"
ANALYSIS_NAME = "analysis.json"


def _write_json(doc, path):
    """Write a report object with one top-level key per line.

    Each value is encoded as ``json.dumps`` encodes it without indentation,
    so the document parses exactly as an indented dump would.  Values are
    written one at a time, so only one is held as text.  See `_json` for
    the arrays a value may hold.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for pos, (key, value) in enumerate(doc.items()):
            fh.write(f"{',' if pos else ''}\n{json.dumps(key)}: ")
            fh.write(_json(value))
        fh.write("\n}\n")


def _json(value):
    """``json.dumps(value)``, where an ndarray held in an object or a list of
    objects stands for its ``.tolist()``; a square float64 one is formatted
    by `_square_json`."""
    if isinstance(value, np.ndarray):
        square = value.ndim == 2 and value.shape[0] == value.shape[1]
        if square and value.dtype == np.float64:
            return _square_json(value)
        return json.dumps(value.tolist())
    if isinstance(value, dict):
        items = (f"{json.dumps(key)}: {_json(item)}" for key, item in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return "[" + ", ".join(map(_json, value)) + "]"
    return json.dumps(value)


def _square_json(m):
    """``json.dumps(m.tolist())`` for a square float64 matrix, bytes included.

    The upper triangle is encoded in one C-encoder call, and its text for
    entry (i, j) stands for (j, i) too wherever the two are bitwise equal
    (compared as int64, so ``-0.0`` never stands for ``0.0``); any other
    entry below the diagonal is formatted on its own.  A symmetric Q_i is
    so formatted once per mirrored pair.
    """
    row = np.arange(len(m))[:, None]
    upper = row <= row.T
    text = np.array(json.dumps(m[upper].tolist())[1:-1].split(", "), dtype=object)
    # Entry (lo, hi), lo <= hi, is number lo n - lo (lo - 1) / 2 + hi - lo
    # of the upper triangle in row-major order.
    lo, hi = np.minimum(row, row.T), np.maximum(row, row.T)
    cells = text[lo * len(m) - lo * (lo - 1) // 2 + hi - lo]
    bits = m.view(np.int64)
    odd = (bits != bits.T) & ~upper
    if odd.any():
        cells[odd] = json.dumps(m[odd].tolist())[1:-1].split(", ")
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in cells.tolist()) + "]"


def _matrix_str(m):
    return np.array2string(np.asarray(m), precision=6, suppress_small=True)


def _reduced(rc):
    return [
        topology.reduce_laplacian(topology.laplacian(g), pos)
        for pos, g in enumerate(rc.graphs, start=1)
    ]


def cmd_analyze(rc, out_dir):
    """Check every topology against the spanning-tree assumption."""
    entries = []
    all_ok = True
    for pos, (g, red) in enumerate(zip(rc.graphs, _reduced(rc)), start=1):
        margin = topology.antistability_margin(red)
        ok, root = topology.has_spanning_tree(g)
        # spec(L) = {0} U spec(Lh); see ReducedLaplacian.spectrum.
        spectrum = [[0.0, 0.0]] + np.column_stack(
            [red.spectrum.real, red.spectrum.imag]).tolist()
        entries.append(
            {
                "index": pos,
                "spanning_tree": bool(ok),
                "root": root,
                "laplacian_spectrum": spectrum,
                "reduced_laplacian": red.matrix.tolist(),
                "antistability_margin": margin,
            }
        )
        all_ok = all_ok and ok
        status = f"spanning tree rooted at node {root}" if ok else "NO spanning tree"
        print(f"graph {pos}: {status}; antistability margin {margin:.6g}")
    _write_json({"graphs": entries, "all_pass": all_ok},
                os.path.join(out_dir, ANALYSIS_NAME))
    if not all_ok:
        print("assumption violated: every topology must contain a directed "
              "spanning tree")
    return EXIT_OK if all_ok else EXIT_INFEASIBLE


def cmd_synthesize(rc, out_dir, reference=None):
    """Solve both design inequalities and write the synthesis report."""
    for pos, g in enumerate(rc.graphs, start=1):
        ok, _ = topology.has_spanning_tree(g)
        if not ok:
            print(f"graph {pos} has no directed spanning tree; synthesis "
                  "is impossible")
            return EXIT_INFEASIBLE
    try:
        design = synthesis.synthesize(
            rc.a,
            rc.b,
            _reduced(rc),
            rc.beta,
            c_values=rc.c_values,
            c_fraction=rc.c_fraction or synthesis.DEFAULT_C_FRACTION,
            alpha=rc.alpha,
            alpha_margin=rc.alpha_margin or synthesis.DEFAULT_ALPHA_MARGIN,
        )
    except synthesis.InfeasibleError as exc:
        print(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    report = synthesis.design_to_dict(
        design, config_digest=cfg.config_digest(rc), reference=reference
    )
    path = os.path.join(out_dir, REPORT_NAME)
    _write_json(report, path)
    bound = design.beta_bound
    bound_str = "unbounded (controllable pair)" if np.isinf(bound) else f"{bound:.6g}"
    print(f"gain K =\n{_matrix_str(design.k)}")
    print(f"alpha = {design.alpha:.6g} (threshold 2/c0 = {design.alpha_min:.6g})")
    print(f"dwell threshold tau* = {design.dwell_threshold:.6g} s "
          f"(lambda_max = {design.lambda_max:.6g})")
    print(f"beta = {design.beta:.6g}, feasible range: beta < {bound_str}")
    print(f"report written to {path}")
    return EXIT_OK


def _load_report(rc, out_dir):
    """The design the synthesis report in `out_dir` holds.

    A report that is not valid JSON, breaks the report fields of the schema,
    holds no certificate, was written for another configuration, or holds a
    matrix whose shape does not fit the configuration is an input error
    naming it.
    """
    path = os.path.join(out_dir, REPORT_NAME)
    if not os.path.exists(path):
        raise cfg.ConfigError(
            f"no synthesis report at {path}; run `synthesize` first or supply "
            "an explicit gain in the config"
        )
    try:
        with open(path) as fh:
            doc = json.load(fh)
        design = synthesis.design_from_dict(doc)
    except ValueError as exc:  # ConfigError and JSONDecodeError included
        raise cfg.ConfigError(f"{path}: {exc}") from exc
    if not design.certificates:
        raise cfg.ConfigError(f"{path}: certificates: expected a non-empty list")
    stored = doc.get("config_digest")
    current = cfg.config_digest(rc)
    if stored != current:
        raise cfg.ConfigError(
            f"synthesis report {path} is stale: its config digest {stored!r} "
            f"does not match the current configuration {current!r}"
        )
    n, inputs = rc.b.shape
    size = rc.graphs.node_count - 1
    shapes = [("gain.k", design.k, (inputs, n)), ("gain.p", design.p, (n, n))]
    shapes += [(f"certificates[{pos}].q", cert.q, (size, size))
               for pos, cert in enumerate(design.certificates)]
    for field, m, shape in shapes:
        if m.shape != shape:
            raise cfg.ConfigError(f"{path}: {field}: expected shape {shape}, "
                                  f"got {m.shape}")
    return design


def cmd_simulate(rc, out_dir):
    """Run the closed loop, write the trajectory CSV, report the verdict.

    A report is checked before the run: `gain.p` must be positive definite,
    every pair of its certificates must solve, and every scheduled topology
    must have one in the monitor's pair table.  The run is consumed block by
    block (see `simulator.simulate_blocks`): each block's energies, verdict
    windows and CSV rows are taken before the next block is propagated, so
    one block is held at a time.
    """
    signal = cfg.build_signal(rc)
    monitor, report_path = None, os.path.join(out_dir, REPORT_NAME)
    if rc.gain is not None:
        k_gain, alpha = rc.gain["k"], rc.gain["alpha"]
    else:
        design = _load_report(rc, out_dir)
        k_gain, alpha = design.k, design.alpha
        spd, detail, _ = linalg.definite_check(design.p)
        if not spd:  # the monitor's energies need P > 0
            raise cfg.ConfigError(f"{report_path}: gain.p: not positive definite "
                                  f"({detail})")
        try:  # a Q_i that cannot be paired, or a topology without one
            monitor = simulator.EnergyMonitor(design.certificates, design.p)
            monitor.table.rows(signal.indices)
        except ValueError as exc:
            raise cfg.ConfigError(f"{report_path}: {exc}") from None
    closed_loop = simulator.build_closed_loop(
        rc.a, rc.b, k_gain, alpha, rc.graphs, signal
    )
    x0 = cfg.make_x0(rc)
    path = os.path.join(out_dir, TRAJECTORY_NAME)
    # The rows go to a file beside `path` that replaces it once the run is
    # through, so a run that fails leaves no partial file and an older
    # trajectory as it was.
    partial = os.path.join(out_dir, f".{TRAJECTORY_NAME}.{os.getpid()}.tmp")
    check = simulator.ConsensusCheck(signal.horizon, rc.tolerance, rc.window)
    samples = 0
    try:
        with open(partial, "w", newline="") as fh:
            writer = simulator.TrajectoryCsv(
                fh, path, closed_loop.node_count, closed_loop.state_dim,
                None if monitor is None else monitor.table.indices)
            for block in simulator.simulate_blocks(closed_loop, x0, rc.dt):
                values = None if monitor is None else monitor.add(block).values
                check.add(block)
                writer.add(block, values)
                samples += block.times.size
                del block, values  # not held while the next block is made
        os.replace(partial, path)
    except simulator.SimulationDiverged as exc:
        print(f"simulation aborted: {exc}")
        return EXIT_VERDICT
    except MemoryError:  # samples: the start, <= 1 per dt, each interval's end
        samples = 1 + int(np.ceil(signal.horizon / rc.dt)) + signal.breakpoints.size
        raise cfg.ConfigError(f"a run of horizon {signal.horizon:g} s at simulation.dt "
                              f"{rc.dt:g} s takes up to {samples:,} samples, more "
                              "than memory holds") from None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
    verdict, ratio = check.verdict()
    print(f"trajectory written to {path} ({samples} samples)")
    print(f"consensus: {'PASS' if verdict else 'FAIL'} "
          f"(|e(T)|/|e(0)| = {ratio:.3e}, tolerance {rc.tolerance:.3e})")
    return EXIT_OK if verdict else EXIT_VERDICT


def cmd_verify(rc, out_dir):
    """Re-validate a synthesis report from raw data, item by item."""
    checks = synthesis.design_checks(_load_report(rc, out_dir), rc.a, rc.b,
                                     _reduced(rc), cfg.build_signal(rc), rc.kappa0)
    all_ok = True
    for name, ok, detail in checks:
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    print(f"verification: {'all checks passed' if all_ok else 'FAILURES present'}")
    return EXIT_OK if all_ok else EXIT_VERDICT


def cmd_demo_vtol(rc, out_dir):
    """Full pipeline on the built-in VTOL benchmark."""
    _write_json(cfg.config_to_dict(rc), os.path.join(out_dir, "config.json"))
    for pos, g in enumerate(rc.graphs, start=1):
        topology.save_graph(g, os.path.join(out_dir, f"vtol_graph_{pos}.json"))

    print("== analyze ==")
    code = cmd_analyze(rc, out_dir)
    if code != EXIT_OK:
        return code
    print("== synthesize ==")
    code = cmd_synthesize(rc, out_dir, reference=vtol.REFERENCE)
    if code != EXIT_OK:
        return code
    print("== simulate ==")
    sim_code = cmd_simulate(rc, out_dir)
    print("== verify ==")
    ver_code = cmd_verify(rc, out_dir)

    design = _load_report(rc, out_dir)
    print("== computed vs published reference ==")
    print(f"{'quantity':<16}{'computed':>14}{'reference':>14}")
    rows = [
        ("lambda_max", design.lambda_max, vtol.REFERENCE["lambda_max"]),
        ("tau*", design.dwell_threshold, vtol.REFERENCE["dwell_threshold"]),
        ("alpha_min", design.alpha_min, vtol.REFERENCE["alpha_min"]),
    ]
    for name, computed, ref in rows:
        print(f"{name:<16}{computed:>14.6g}{ref:>14.6g}")
    print("(the design inequalities have non-unique solutions; reference "
          "values are reported for comparison, not matched)")
    return sim_code if sim_code != EXIT_OK else ver_code


def _add_common_flags(parser):
    parser.add_argument("--out", help="output directory (default: config or ./out)")
    parser.add_argument("--seed", type=int, help="override the simulation seed")
    parser.add_argument("--dwell", type=float,
                        help="override the periodic dwell time (seconds)")
    parser.add_argument("--beta", type=float, help="override beta")
    parser.add_argument("--alpha", type=float,
                        help="override the coupling strength alpha")
    parser.add_argument("--kappa0", type=float,
                        help="override the switch-margin buffer kappa0")


def _apply_overrides(rc, args):
    """Apply the flags that override config fields, each checked as its field."""
    if args.seed is not None:
        rc.seed = schema.check(args.seed, "simulation.seed", "--seed")
        rc.x0 = None
    if args.dwell is not None:
        dwell = schema.check(args.dwell, "switching.periodic.dwell", "--dwell")
        if rc.switching_kind != "periodic":
            raise cfg.ConfigError(
                "--dwell only applies to periodic switching specifications"
            )
        rc.switching["dwell"] = dwell
    for name in ("beta", "alpha", "kappa0"):
        if getattr(args, name) is not None:
            setattr(rc, name, schema.check(getattr(args, name), f"synthesis.{name}",
                                           f"--{name}"))
    if args.alpha is not None:
        rc.alpha_margin = None


# Command -> help.  `main` runs ``cmd_<command>`` (a dash read as an
# underscore), looked up when it runs, so a wrapper set on this module, such
# as a tracer's, is what runs.
_COMMANDS = {
    "analyze": "check the spanning-tree assumption per topology",
    "synthesize": "solve the design inequalities and write the report",
    "simulate": "run the switched closed loop and write the trajectory",
    "verify": "re-validate a synthesis report against the config",
    "demo-vtol": "run the built-in VTOL benchmark",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="switched-consensus",
        description="Synthesize and verify consensus protocols for linear "
        "multi-agent systems under switching directed topologies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        if name != "demo-vtol":
            p.add_argument("--config", required=True, help="run configuration JSON")
        _add_common_flags(p)
    return parser


# Built once: every `main` call parses into a fresh namespace.
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "demo-vtol":
            rc = cfg.parse_config(vtol.demo_config())
        else:
            rc = cfg.load_config(args.config)
        _apply_overrides(rc, args)
        out_dir = args.out or rc.out_dir or "out"
        os.makedirs(out_dir, exist_ok=True)
        return globals()[f"cmd_{args.command.replace('-', '_')}"](rc, out_dir)
    except (ValueError, OSError, RuntimeError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
