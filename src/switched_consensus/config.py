"""Run configuration: a single JSON document driving the pipeline commands.

The document carries the agent model, the candidate topologies, the
switching specification, and the synthesis/simulation parameters.  Parsing
is strict: sections that are not objects, numbers that are not JSON
numbers (array elements included), unknown switching kinds, conflicting
alternatives (explicit signal vs periodic spec, fixed x0 vs seed), and
out-of-range scalars are rejected with the offending field named.

A canonical digest over the synthesis inputs (system, graphs, synthesis
parameters except `kappa0`) ties reports to the configuration they came
from, so stale reports are detected instead of silently re-verified.
"""

import hashlib
import json
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import synthesis, topology

SCHEMA_VERSION = 1

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


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    """A validated run configuration.

    `parse_config` is its only constructor and applies every default; the
    optional fields it leaves unset are None.
    """

    a: np.ndarray
    b: np.ndarray
    graphs: topology.GraphSet
    switching_kind: str  # "periodic" or "explicit"
    switching: dict
    beta: float
    c_values: list
    c_fraction: float
    alpha: float
    alpha_margin: float
    kappa0: float
    x0: np.ndarray
    seed: int
    dt: float
    tolerance: float
    window: float
    gain: dict  # None, or an explicit {"k": ndarray, "alpha": float}
    out_dir: str


def _require(doc, key, where):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return doc[key]


def _object(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    return value


def _number(value, where):
    """`value` as a float: a JSON number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _positive(value, where):
    value = _number(value, where)
    if not np.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {value}")
    if not value > 0:
        raise ConfigError(f"{where}: must be positive, got {value}")
    return value


def _integer(value, where):
    """`value` as an int: an int or an integral float, but not a bool."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ConfigError(f"{where}: expected an integer, got {value!r}")


def _numbers(value, where):
    """`value`, a number or nested lists of numbers, as a float array.

    Every element must be a JSON number (see `_number`); the first that is
    not is named by its indices, as ``where[i][j]``.
    """
    def check(value, where):
        if isinstance(value, list):
            return [check(v, f"{where}[{i}]") for i, v in enumerate(value)]
        return _number(value, where)

    checked = check(value, where)
    try:
        return np.asarray(checked, dtype=float)
    except ValueError:  # ragged nesting
        raise ConfigError(f"{where}: expected a nested numeric array") from None


def _matrix(doc, where):
    m = _numbers(doc, where)
    if m.ndim != 2:
        raise ConfigError(f"{where}: expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"{where}: contains non-finite entries")
    return m


def parse_config(doc, base_dir="."):
    """Parse a configuration document into a validated :class:`RunConfig`.

    Graph entries may be inline documents or paths (resolved against
    `base_dir`).
    """
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    system = _object(_require(doc, "system", "top level"), "system")
    a = _matrix(_require(system, "a", "system"), "system.a")
    b = _matrix(_require(system, "b", "system"), "system.b")
    if a.shape[0] != a.shape[1]:
        raise ConfigError(f"system.a: must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ConfigError(
            f"system.b: row count {b.shape[0]} must match system.a order {a.shape[0]}"
        )

    graph_docs = _require(doc, "graphs", "top level")
    if not isinstance(graph_docs, list) or not graph_docs:
        raise ConfigError("graphs: expected a non-empty list")
    graphs = []
    for pos, entry in enumerate(graph_docs):
        where = f"graphs[{pos}]"
        try:
            if isinstance(entry, str):
                graphs.append(topology.load_graph(os.path.join(base_dir, entry)))
            elif isinstance(entry, dict):
                graphs.append(topology.graph_from_dict(entry))
            else:
                raise ConfigError(f"{where}: expected a path or an inline graph")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if graphs[-1].node_count < 2:
            raise ConfigError(f"{where}: consensus needs at least two nodes, "
                              f"got {graphs[-1].node_count}")
    graph_set = topology.GraphSet(tuple(graphs))

    switching = _object(_require(doc, "switching", "top level"), "switching")
    kinds = [k for k in ("periodic", "explicit") if k in switching]
    if len(kinds) != 1:
        raise ConfigError(
            "switching: exactly one of 'periodic' or 'explicit' must be present"
        )
    kind = kinds[0]
    spec = dict(_object(switching[kind], f"switching.{kind}"))
    if kind == "periodic":
        spec["dwell"] = _positive(_require(spec, "dwell", "switching.periodic"),
                                  "switching.periodic.dwell")
        spec["horizon"] = _positive(
            _require(spec, "horizon", "switching.periodic"),
            "switching.periodic.horizon",
        )
    else:
        for key in ("breakpoints", "indices", "horizon"):
            _require(spec, key, "switching.explicit")
        indices = spec["indices"]
        if not isinstance(indices, list):
            raise ConfigError("switching.explicit.indices: expected a list")
        if not set(map(type, indices)) <= {int}:  # the fast check of the usual case
            spec["indices"] = [_integer(i, f"switching.explicit.indices[{k}]")
                               for k, i in enumerate(indices)]
        spec["horizon"] = _positive(spec["horizon"], "switching.explicit.horizon")
        for key in ("tau0", "tau1"):
            if spec.get(key) is not None:
                spec[key] = _number(spec[key], f"switching.explicit.{key}")

    synth = _object(_require(doc, "synthesis", "top level"), "synthesis")
    beta = _positive(_require(synth, "beta", "synthesis"), "synthesis.beta")
    c_values = synth.get("c_values")
    c_fraction = synth.get("c_fraction")
    if c_values is not None and c_fraction is not None:
        raise ConfigError("synthesis: give c_values or c_fraction, not both")
    if c_values is not None:
        if not isinstance(c_values, list):
            raise ConfigError(f"synthesis.c_values: expected a list, got {c_values!r}")
        c_values = [
            _positive(c, f"synthesis.c_values[{i}]") for i, c in enumerate(c_values)
        ]
        if len(c_values) not in (1, len(graph_set)):
            raise ConfigError(
                f"synthesis.c_values: expected 1 or {len(graph_set)} values, "
                f"got {len(c_values)}"
            )
    if c_fraction is not None:
        c_fraction = _number(c_fraction, "synthesis.c_fraction")
        if not 0 < c_fraction < 1:
            raise ConfigError(
                f"synthesis.c_fraction: must lie in (0, 1), got {c_fraction}"
            )
    alpha = synth.get("alpha")
    alpha_margin = synth.get("alpha_margin")
    if alpha is not None and alpha_margin is not None:
        raise ConfigError("synthesis: give alpha or alpha_margin, not both")
    if alpha is not None:
        alpha = _positive(alpha, "synthesis.alpha")
    if alpha_margin is not None:
        alpha_margin = _number(alpha_margin, "synthesis.alpha_margin")
        if not 1 < alpha_margin < np.inf:
            raise ConfigError(f"synthesis.alpha_margin: must exceed 1 and be "
                              f"finite, got {alpha_margin}")
    kappa0 = _positive(synth.get("kappa0", synthesis.DEFAULT_KAPPA0),
                       "synthesis.kappa0")

    sim = _object(_require(doc, "simulation", "top level"), "simulation")
    x0 = sim.get("x0")
    seed = sim.get("seed")
    if (x0 is None) == (seed is None):
        raise ConfigError("simulation: exactly one of 'x0' or 'seed' must be given")
    if x0 is not None:
        x0 = _numbers(x0, "simulation.x0").ravel()
        if not np.all(np.isfinite(x0)):
            raise ConfigError("simulation.x0: contains non-finite entries")
        expected = graph_set.node_count * a.shape[0]
        if x0.size != expected:
            raise ConfigError(
                f"simulation.x0: expected length {expected} "
                f"(= nodes * state dim), got {x0.size}"
            )
    if seed is not None:
        seed = _integer(seed, "simulation.seed")
        if seed < 0:
            raise ConfigError(f"simulation.seed: must be non-negative, got {seed}")
    dt = _positive(sim.get("dt", 0.01), "simulation.dt")
    tolerance = _positive(sim.get("tolerance", 1e-2), "simulation.tolerance")
    window = _positive(sim.get("window", 2.0), "simulation.window")

    gain = doc.get("gain")
    if gain is not None:
        k = _matrix(_require(_object(gain, "gain"), "k", "gain"), "gain.k")
        if k.shape != (b.shape[1], a.shape[0]):
            raise ConfigError(
                f"gain.k: expected shape {(b.shape[1], a.shape[0])}, got {k.shape}"
            )
        gain = {"k": k, "alpha": _positive(_require(gain, "alpha", "gain"),
                                           "gain.alpha")}

    out = doc.get("output", {})
    out_dir = out.get("dir") if isinstance(out, dict) else None

    return RunConfig(
        a=a,
        b=b,
        graphs=graph_set,
        switching_kind=kind,
        switching=spec,
        beta=beta,
        c_values=c_values,
        c_fraction=c_fraction,
        alpha=alpha,
        alpha_margin=alpha_margin,
        kappa0=kappa0,
        x0=x0,
        seed=seed,
        dt=dt,
        tolerance=tolerance,
        window=window,
        gain=gain,
        out_dir=out_dir,
    )


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
        "synthesis": {"beta": rc.beta, "kappa0": rc.kappa0},
        "simulation": {
            "dt": rc.dt,
            "tolerance": rc.tolerance,
            "window": rc.window,
        },
    }
    for key in ("c_values", "c_fraction", "alpha", "alpha_margin"):
        if getattr(rc, key) is not None:
            doc["synthesis"][key] = getattr(rc, key)
    if rc.x0 is not None:
        doc["simulation"]["x0"] = rc.x0.tolist()
    if rc.seed is not None:
        doc["simulation"]["seed"] = rc.seed
    if rc.gain is not None:
        doc["gain"] = {"k": rc.gain["k"].tolist(), "alpha": rc.gain["alpha"]}
    if rc.out_dir is not None:
        doc["output"] = {"dir": rc.out_dir}
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
    if rc.switching_kind == "periodic":
        signal = topology.periodic_signal(
            len(rc.graphs), rc.switching["dwell"], rc.switching["horizon"]
        )
    else:
        spec = rc.switching
        try:
            signal = topology.SwitchingSignal(
                np.asarray(spec["breakpoints"], dtype=float),
                np.asarray(spec["indices"], dtype=int),
                spec["horizon"],
                tau0=spec.get("tau0"),
                tau1=spec.get("tau1"),
            )
        except ValueError as exc:
            raise ConfigError(f"switching.explicit: {exc}") from exc
    try:
        signal.validate_against(len(rc.graphs))
    except ValueError as exc:
        raise ConfigError(f"switching: {exc}") from exc
    return signal


def make_x0(rc):
    """Initial condition: explicit vector, or seeded uniform [-1, 1] draws."""
    if rc.x0 is not None:
        return rc.x0.copy()
    size = rc.graphs.node_count * rc.a.shape[0]
    return np.random.default_rng(rc.seed).uniform(-1.0, 1.0, size=size)
