"""Command-line front end for the synthesis/verification pipeline.

Commands: ``analyze`` (topology assumptions), ``synthesize`` (gain and
certificates), ``simulate`` (trajectory + consensus verdict), ``verify``
(re-check every certificate and the switching condition), and ``demo-vtol``
(the built-in five-aircraft benchmark, end to end).

Exit status contract: 0 success/pass, 1 verdict failure, 2 infeasible design
or violated topology assumption, 3 input error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import config as cfg
from . import schema, simulator, synthesis, topology, vtol

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3

REPORT_NAME = "synthesis.json"
TRAJECTORY_NAME = "trajectory.csv"
ANALYSIS_NAME = "analysis.json"


def _write_json(doc, path):
    """Write a report object with one top-level key per line.

    Each value is encoded by ``json.dumps`` without indentation, which runs
    the C encoder; the document parses exactly as an indented dump would.
    Values are written one at a time, so only one is held as text.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for pos, (key, value) in enumerate(doc.items()):
            fh.write(f"{',' if pos else ''}\n{json.dumps(key)}: ")
            fh.write(json.dumps(value))
        fh.write("\n}\n")


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
    """The synthesis report in `out_dir`, as its document and its design.

    A report that is not valid JSON, breaks the report fields of the schema,
    or was written for another configuration is an input error naming it.
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
    stored = doc.get("config_digest")
    current = cfg.config_digest(rc)
    if stored != current:
        raise cfg.ConfigError(
            f"synthesis report {path} is stale: its config digest {stored!r} "
            f"does not match the current configuration {current!r}"
        )
    return doc, design


def cmd_simulate(rc, out_dir):
    """Run the closed loop, write the trajectory CSV, report the verdict."""
    signal = cfg.build_signal(rc)
    design = None
    if rc.gain is not None:
        k_gain, alpha = rc.gain["k"], rc.gain["alpha"]
    else:
        _, design = _load_report(rc, out_dir)
        k_gain, alpha = design.k, design.alpha
    closed_loop = simulator.build_closed_loop(
        rc.a, rc.b, k_gain, alpha, rc.graphs, signal
    )
    x0 = cfg.make_x0(rc)
    try:
        record = simulator.simulate(closed_loop, x0, rc.dt)
    except simulator.SimulationDiverged as exc:
        print(f"simulation aborted: {exc}")
        return EXIT_VERDICT
    monitor = None
    if design is not None:
        monitor = simulator.lyapunov_monitor(record, design.certificates, design.p)
    path = os.path.join(out_dir, TRAJECTORY_NAME)
    simulator.write_trajectory_csv(record, path, monitor)
    verdict, ratio = simulator.consensus_verdict(record, rc.tolerance, rc.window)
    print(f"trajectory written to {path} ({record.times.size} samples)")
    print(f"consensus: {'PASS' if verdict else 'FAIL'} "
          f"(|e(T)|/|e(0)| = {ratio:.3e}, tolerance {rc.tolerance:.3e})")
    return EXIT_OK if verdict else EXIT_VERDICT


def cmd_verify(rc, out_dir):
    """Re-validate a synthesis report from raw data, item by item."""
    report, design = _load_report(rc, out_dir)
    signal = cfg.build_signal(rc)
    try:
        schedule = synthesis.check_schedule(
            signal, design.certificates, design.beta, rc.kappa0
        ).checks
        unpaired = []
    except ValueError as exc:  # certificates that cannot be paired
        schedule, unpaired = [], [("switching condition", False, str(exc))]
    solved = {(chk.from_index, chk.to_index): chk.lambda_max for chk in schedule}
    checks = synthesis.design_checks(design, rc.a, rc.b, _reduced(rc), report,
                                     solved)
    checks += unpaired + [
        (f"switch margin on [{chk.t_start:g}, {chk.t_end:g}) "
         f"({chk.from_index}->{chk.to_index})",
         chk.passed, f"margin {chk.margin:.6g} vs kappa0 {rc.kappa0:g}")
        for chk in schedule
    ]

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

    report, _ = _load_report(rc, out_dir)
    print("== computed vs published reference ==")
    print(f"{'quantity':<16}{'computed':>14}{'reference':>14}")
    rows = [
        ("lambda_max", report["lambda_max"], vtol.REFERENCE["lambda_max"]),
        ("tau*", report["dwell_threshold"], vtol.REFERENCE["dwell_threshold"]),
        ("alpha_min", report["alpha_min"], vtol.REFERENCE["alpha_min"]),
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
    except synthesis.InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, RuntimeError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
