"""Run configuration: a single JSON document driving the pipeline commands.

The document carries the agent model, the candidate topologies, the
switching specification, and the synthesis/simulation parameters.  Parsing
is strict: each field is checked against the table in :mod:`.schema`, and
then against the others (explicit signal vs periodic spec, fixed x0 vs
seed, matrix shapes); the offending field is named.

A canonical digest over the synthesis inputs (system, graphs, synthesis
parameters except `kappa0`) ties reports to the configuration they came
from, so stale reports are detected instead of silently re-verified.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import schema, synthesis, topology
from .schema import SCHEMA_VERSION, ConfigError

__all__ = [
    "ConfigError",
    "RunConfig",
    "build_signal",
    "config_digest",
    "config_to_dict",
    "load_config",
    "make_x0",
    "parse_config",
]


@dataclass
class RunConfig:
    """A validated run configuration.

    `parse_config` is its only constructor.  The synthesis and simulation
    fields carry the names of their config fields; an optional field the
    document leaves out is None, or for `kappa0` the designer's default.
    """

    a: np.ndarray
    b: np.ndarray
    graphs: topology.GraphSet
    switching_kind: str  # "periodic" or "explicit"
    switching: dict
    beta: float
    dt: float
    tolerance: float
    window: float
    c_values: list = None
    c_fraction: float = None
    alpha: float = None
    alpha_margin: float = None
    kappa0: float = synthesis.DEFAULT_KAPPA0
    x0: np.ndarray = None
    seed: int = None
    gain: dict = None  # None, or an explicit {"k": ndarray, "alpha": float}
    out_dir: str = None


def parse_config(doc, base_dir="."):
    """Parse a configuration document into a validated :class:`RunConfig`.

    Each field is checked against `schema.FIELDS`; what follows checks the
    fields against each other.  Graph entries may be inline documents or
    paths (resolved against `base_dir`).
    """
    doc = schema.fields(doc)
    a, b = doc["system"]["a"], doc["system"]["b"]
    if a.shape[0] != a.shape[1]:
        raise ConfigError(f"system.a: must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ConfigError(
            f"system.b: row count {b.shape[0]} must match system.a order {a.shape[0]}"
        )

    if not doc["graphs"]:
        raise ConfigError("graphs: expected a non-empty list")
    graphs = []
    for pos, entry in enumerate(doc["graphs"]):
        where = f"graphs[{pos}]"
        try:
            if isinstance(entry, str):
                graphs.append(topology.load_graph(os.path.join(base_dir, entry)))
            else:
                graphs.append(topology.graph_from_dict(entry))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if graphs[-1].node_count < 2:
            raise ConfigError(f"{where}: consensus needs at least two nodes, "
                              f"got {graphs[-1].node_count}")
    graph_set = topology.GraphSet(tuple(graphs))

    kinds = [k for k in ("periodic", "explicit") if k in doc["switching"]]
    if len(kinds) != 1:
        raise ConfigError(
            "switching: exactly one of 'periodic' or 'explicit' must be present"
        )

    synth = doc["synthesis"]
    if "c_values" in synth and "c_fraction" in synth:
        raise ConfigError("synthesis: give c_values or c_fraction, not both")
    if "c_values" in synth and len(synth["c_values"]) not in (1, len(graph_set)):
        raise ConfigError(
            f"synthesis.c_values: expected 1 or {len(graph_set)} values, "
            f"got {len(synth['c_values'])}"
        )
    if "alpha" in synth and "alpha_margin" in synth:
        raise ConfigError("synthesis: give alpha or alpha_margin, not both")

    sim = doc["simulation"]
    if ("x0" in sim) == ("seed" in sim):
        raise ConfigError("simulation: exactly one of 'x0' or 'seed' must be given")
    if "x0" in sim:
        sim["x0"] = sim["x0"].ravel()
        expected = graph_set.node_count * a.shape[0]
        if sim["x0"].size != expected:
            raise ConfigError(
                f"simulation.x0: expected length {expected} "
                f"(= nodes * state dim), got {sim['x0'].size}"
            )

    gain = doc.get("gain")
    if gain is not None and gain["k"].shape != (b.shape[1], a.shape[0]):
        raise ConfigError(
            f"gain.k: expected shape {(b.shape[1], a.shape[0])}, got {gain['k'].shape}"
        )

    return RunConfig(a=a, b=b, graphs=graph_set, switching_kind=kinds[0],
                     switching=doc["switching"][kinds[0]], **synth, **sim, gain=gain,
                     out_dir=doc.get("output", {}).get("dir"))


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
    return parse_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def config_to_dict(rc):
    """Canonical document for a config; parse(config_to_dict(rc)) == rc."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "system": {"a": rc.a.tolist(), "b": rc.b.tolist()},
        "graphs": [topology.graph_to_dict(g) for g in rc.graphs],
        "switching": {rc.switching_kind: dict(rc.switching)},
        "synthesis": {key: getattr(rc, key) for key in (
            "beta", "kappa0", "c_values", "c_fraction", "alpha", "alpha_margin")},
        "simulation": {"dt": rc.dt, "tolerance": rc.tolerance, "window": rc.window,
                       "x0": None if rc.x0 is None else rc.x0.tolist(),
                       "seed": rc.seed},
        "gain": None if rc.gain is None else {"k": rc.gain["k"].tolist(),
                                              "alpha": rc.gain["alpha"]},
        "output": None if rc.out_dir is None else {"dir": rc.out_dir},
    }
    for section in (doc, doc["synthesis"], doc["simulation"]):
        for key in [key for key, value in section.items() if value is None]:
            del section[key]
    return doc


def config_digest(rc):
    """Hex digest of the synthesis inputs (system, graphs, synthesis section).

    Simulation and switching parameters and `kappa0`, the switch-margin buffer
    only `verify` reads, are excluded on purpose: re-checking a design under
    another schedule or buffer is a supported workflow, not a staleness error.
    """
    doc = config_to_dict(rc)
    del doc["synthesis"]["kappa0"]
    payload = {key: doc[key] for key in ("system", "graphs", "synthesis")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_signal(rc):
    """Materialize the switching signal described by the configuration."""
    try:
        if rc.switching_kind == "periodic":
            signal = topology.periodic_signal(len(rc.graphs), **rc.switching)
        else:
            signal = topology.SwitchingSignal(**rc.switching)
        signal.validate_against(len(rc.graphs))
    except ValueError as exc:
        raise ConfigError(f"switching.{rc.switching_kind}: {exc}") from exc
    except MemoryError:  # an explicit signal's arrays are already held
        horizon, dwell = rc.switching["horizon"], rc.switching["dwell"]
        raise ConfigError(f"switching.periodic: a horizon of {horizon:g} s at dwell "
                          f"{dwell:g} s takes {int(np.ceil(horizon / dwell)):,} "
                          "intervals, more than memory holds") from None
    return signal


def make_x0(rc):
    """Initial condition: explicit vector, or seeded uniform [-1, 1] draws."""
    if rc.x0 is not None:
        return rc.x0.copy()
    size = rc.graphs.node_count * rc.a.shape[0]
    return np.random.default_rng(rc.seed).uniform(-1.0, 1.0, size=size)
