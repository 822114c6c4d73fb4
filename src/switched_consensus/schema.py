"""The accepted input fields, and the one validator that reads them.

`FIELDS` lists each field of a run configuration, and under ``graphs[]``
each field of a graph document, inline or loaded from a path.  A list's
elements are at its path plus ``[]``.  A field the table does not list,
and a value of the wrong kind (``null`` included), are rejected by name,
down to the element (``system.a[1][2]``, ``edges[3].from``).  An integer
is an int, or a float with an integral value, and never a bool; a number
is an int or a float, never a bool, and finite unless its kind says
otherwise.
"""

import math

import numpy as np


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


SCHEMA_VERSION = 1
REQUIRED = "required"

# A rule on a value.  Each is an interval, so a list of values keeps it
# when its least and greatest do.
RULES = {
    str(SCHEMA_VERSION): lambda v: v == SCHEMA_VERSION,
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    "above 1": lambda v: v > 1,
}

# path: (kind, rule, default).  A default of None leaves the field unset.
FIELDS = {
    "schema_version": ("integer", str(SCHEMA_VERSION), REQUIRED),
    "system": ("object", None, REQUIRED),
    "system.a": ("matrix", None, REQUIRED),
    "system.b": ("matrix", None, REQUIRED),
    "graphs": ("list", None, REQUIRED),
    "graphs[]": ("path or graph", None, REQUIRED),
    "graphs[].node_count": ("integer", "positive", REQUIRED),
    "graphs[].edges": ("list", None, REQUIRED),
    "graphs[].edges[]": ("object", None, REQUIRED),
    "graphs[].edges[].from": ("integer", None, REQUIRED),
    "graphs[].edges[].to": ("integer", None, REQUIRED),
    "graphs[].edges[].weight": ("number", "non-negative", REQUIRED),
    "switching": ("object", None, REQUIRED),
    "switching.periodic": ("object", None, None),
    "switching.periodic.dwell": ("number", "positive", REQUIRED),
    "switching.periodic.horizon": ("number", "positive", REQUIRED),
    "switching.explicit": ("object", None, None),
    "switching.explicit.breakpoints": ("list", None, REQUIRED),
    "switching.explicit.breakpoints[]": ("number", None, REQUIRED),
    "switching.explicit.indices": ("list", None, REQUIRED),
    "switching.explicit.indices[]": ("integer", None, REQUIRED),
    "switching.explicit.horizon": ("number", "positive", REQUIRED),
    "switching.explicit.tau0": ("number", "positive", None),
    "switching.explicit.tau1": ("number or Infinity", "positive", None),
    "synthesis": ("object", None, REQUIRED),
    "synthesis.beta": ("number", "positive", REQUIRED),
    "synthesis.c_values": ("list", None, None),
    "synthesis.c_values[]": ("number", "positive", REQUIRED),
    "synthesis.c_fraction": ("number", "in (0, 1)", None),
    "synthesis.alpha": ("number", "positive", None),
    "synthesis.alpha_margin": ("number", "above 1", None),
    "synthesis.kappa0": ("number", "positive", None),
    "simulation": ("object", None, REQUIRED),
    "simulation.x0": ("array", None, None),
    "simulation.seed": ("integer", "non-negative", None),
    "simulation.dt": ("number", "positive", 0.01),
    "simulation.tolerance": ("number", "positive", 0.01),
    "simulation.window": ("number", "positive", 2.0),
    "gain": ("object", None, None),
    "gain.k": ("matrix", None, REQUIRED),
    "gain.alpha": ("number", "positive", REQUIRED),
    "output": ("object", None, None),
    "output.dir": ("string", None, None),
}

# What a document's root is called in errors, by the table path of its fields.
ROOTS = {"": "top level", "graphs[]": "malformed graph document"}

_CHILDREN = {}  # object path -> {key: field path}
for _path in FIELDS:
    if not _path.endswith("[]"):
        _parent, _, _key = _path.rpartition(".")
        _CHILDREN.setdefault(_parent, {})[_key] = _path


def fields(doc, path="", where=""):
    """The object `doc` at table `path` as a dict of checked, converted fields.

    Fields `doc` leaves out get their defaults.  `where` names `doc` in
    errors; a document's root has no name of its own (see `ROOTS`).
    """
    name = where or ROOTS[path]
    if not isinstance(doc, dict):
        raise ConfigError(f"{name}: expected an object, got {doc!r}")
    children, out = _CHILDREN[path], {}
    for key, value in doc.items():
        inner = f"{where}.{key}" if where else key
        if key not in children:
            raise ConfigError(f"{inner}: unknown field")
        out[key] = check(value, children[key], inner)
    for key, child in children.items():
        if key not in out and FIELDS[child][2] is REQUIRED:
            raise ConfigError(f"{name}: missing required field '{key}'")
        if key not in out and FIELDS[child][2] is not None:
            out[key] = FIELDS[child][2]
    return out


def check(value, path, where):
    """`value`, the field at table `path`, checked and converted.

    Numbers come back as floats, matrices and arrays as float ndarrays, and
    a list of objects as one list per field.
    """
    kind, rule, _ = FIELDS[path]
    if kind == "object":
        return fields(value, path, where)
    if kind in ("matrix", "array"):
        value = _numbers(value, where)
        try:
            array = np.asarray(value, dtype=float)
        except ValueError:  # ragged
            raise ConfigError(f"{where}: expected a nested numeric array") from None
        if kind == "matrix" and array.ndim != 2:
            raise ConfigError(f"{where}: expected a 2-d matrix, "
                              f"got shape {array.shape}")
        return array
    if kind != "list":
        return _scalar(value, kind, rule, where)
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    item = path + "[]"
    if FIELDS[item][0] == "object":
        return _columns(value, item, where)
    return _elements(value, *FIELDS[item][:2],
                     lambda i, v: check(v, item, f"{where}[{i}]"))


def _scalar(value, kind, rule, where):
    if kind == "integer":
        if type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not int:
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
    elif kind.startswith("number"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf if value > 0 else -math.inf
        if kind == "number" and not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite, got {value}")
    elif not isinstance(value, str if kind == "string" else (str, dict)):
        raise ConfigError(f"{where}: expected a {kind}, got {value!r}")
    if rule is not None and not RULES[rule](value):
        raise ConfigError(f"{where}: must be {rule}, got {value}")
    return value


def _elements(values, kind, rule, each):
    """The list `values` of scalars of `kind`, each kept by `rule`.

    The fast check passes floats (ints, for an integer kind) that are finite
    and keep the rule.  Only a list it fails runs the naming loop, which
    returns ``each(i, value)`` for every element and raises at a bad one.
    """
    plain = {"number": float, "integer": int}.get(kind)
    # Counting the types is quicker than a set of them for long lists.
    if (list(map(type, values)).count(plain) == len(values)
            and (kind == "integer" or math.isfinite(sum(values)))
            and (rule is None or not values
                 or RULES[rule](min(values)) and RULES[rule](max(values)))):
        return values
    return [each(i, v) for i, v in enumerate(values)]


def _columns(items, path, where):
    """A list of objects as ``{field: [value per object]}``; all fields are required."""
    children = _CHILDREN[path]
    # The fast check: objects with as many fields as the table lists, all of them.
    plain = (set(map(type, items)) <= {dict}
             and set(map(len, items)) <= {len(children)})
    try:
        columns = {key: [item[key] for item in items]
                   for key in children} if plain else None
    except KeyError:  # a field the table does not list, in place of one it does
        columns = None
    if columns is None:  # the naming loop
        items = [fields(item, path, f"{where}[{i}]") for i, item in enumerate(items)]
        columns = {key: [item[key] for item in items] for key in children}
    for key, child in children.items():
        columns[key] = _elements(columns[key], *FIELDS[child][:2],
                                 lambda i, v: check(v, child, f"{where}[{i}].{key}"))
    return columns


def _numbers(value, where):
    """`value`, a number or nested lists of finite numbers, checked."""
    if isinstance(value, list):
        return _elements(value, "number", None,
                         lambda i, v: _numbers(v, f"{where}[{i}]"))
    return _scalar(value, "number", None, where)
