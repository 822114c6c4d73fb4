import copy
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switched_consensus import (cli, linalg, schema, simulator, synthesis, topology,
                                vtol)
from switched_consensus.config import (
    ConfigError,
    build_signal,
    config_digest,
    config_to_dict,
    make_x0,
    parse_config,
)


@pytest.fixture
def demo_doc():
    return vtol.demo_config()


@pytest.fixture
def demo_config_file(tmp_path, demo_doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(demo_doc))
    return str(path)


class TestConfigParsing:
    def test_round_trip_values_identical(self, demo_doc):
        rc1 = parse_config(demo_doc)
        rc2 = parse_config(config_to_dict(rc1))
        assert np.array_equal(rc1.a, rc2.a)
        assert np.array_equal(rc1.b, rc2.b)
        for g1, g2 in zip(rc1.graphs, rc2.graphs):
            assert np.array_equal(g1.weights, g2.weights)
        assert rc1.switching == rc2.switching
        assert (rc1.beta, rc1.alpha, rc1.kappa0) == (rc2.beta, rc2.alpha, rc2.kappa0)
        assert rc1.c_values == rc2.c_values
        assert (rc1.seed, rc1.dt, rc1.tolerance, rc1.window) == (
            rc2.seed, rc2.dt, rc2.tolerance, rc2.window,
        )
        assert config_to_dict(rc1) == config_to_dict(rc2)

    def test_rejects_missing_system(self, demo_doc):
        del demo_doc["system"]
        with pytest.raises(ConfigError, match="system"):
            parse_config(demo_doc)

    def test_rejects_wrong_schema_version(self, demo_doc):
        demo_doc["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(demo_doc)

    def test_rejects_both_switching_kinds(self, demo_doc):
        demo_doc["switching"]["explicit"] = {
            "breakpoints": [0.0], "indices": [1], "horizon": 1.0,
        }
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(demo_doc)

    def test_rejects_seed_and_x0_together(self, demo_doc):
        demo_doc["simulation"]["x0"] = [0.0] * 20
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(demo_doc)

    def test_rejects_neither_seed_nor_x0(self, demo_doc):
        del demo_doc["simulation"]["seed"]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(demo_doc)

    def test_rejects_wrong_x0_length(self, demo_doc):
        del demo_doc["simulation"]["seed"]
        demo_doc["simulation"]["x0"] = [0.0] * 7
        with pytest.raises(ConfigError, match="x0"):
            parse_config(demo_doc)

    def test_rejects_nonpositive_beta(self, demo_doc):
        demo_doc["synthesis"]["beta"] = -1.0
        with pytest.raises(ConfigError, match="beta"):
            parse_config(demo_doc)

    def test_rejects_alpha_and_margin_together(self, demo_doc):
        demo_doc["synthesis"]["alpha_margin"] = 1.1
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(demo_doc)

    def test_rejects_c_values_and_fraction_together(self, demo_doc):
        demo_doc["synthesis"]["c_fraction"] = 0.5
        with pytest.raises(ConfigError, match="c_values"):
            parse_config(demo_doc)

    def test_graph_paths_resolved_against_config_dir(self, tmp_path, demo_doc):
        topology.save_graph(
            topology.graph_from_dict(demo_doc["graphs"][0]),
            tmp_path / "g1.json",
        )
        demo_doc["graphs"][0] = "g1.json"
        rc = parse_config(demo_doc, base_dir=str(tmp_path))
        assert rc.graphs[0].weights[1, 0] == 1.0

    def test_rejects_missing_graph_file(self, demo_doc):
        demo_doc["graphs"][0] = "does_not_exist.json"
        with pytest.raises(ConfigError, match="graphs"):
            parse_config(demo_doc, base_dir="/nonexistent")

    def test_rejects_single_node_graph(self, tmp_path, demo_doc, capsys):
        demo_doc["graphs"] = [{"node_count": 1, "edges": []}]
        with pytest.raises(ConfigError, match=r"graphs\[0\].*two nodes"):
            parse_config(demo_doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo_doc))
        for command in ("analyze", "synthesize"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / "out")]) == 3
            assert "graphs[0]" in capsys.readouterr().err

    def test_explicit_gain_accepted(self, demo_doc):
        demo_doc["gain"] = {"k": vtol.K_PUBLISHED.tolist(), "alpha": 8.1}
        rc = parse_config(demo_doc)
        assert np.array_equal(rc.gain["k"], vtol.K_PUBLISHED)


class TestDigest:
    def test_stable_across_equivalent_configs(self, demo_doc):
        d1 = config_digest(parse_config(demo_doc))
        d2 = config_digest(parse_config(copy.deepcopy(demo_doc)))
        assert d1 == d2

    def test_sensitive_to_synthesis_inputs(self, demo_doc):
        base = config_digest(parse_config(demo_doc))
        changed = copy.deepcopy(demo_doc)
        changed["synthesis"]["beta"] = 2.5
        assert config_digest(parse_config(changed)) != base

    def test_insensitive_to_simulation_parameters(self, demo_doc):
        base = config_digest(parse_config(demo_doc))
        changed = copy.deepcopy(demo_doc)
        changed["simulation"]["dt"] = 0.002
        changed["switching"]["periodic"]["dwell"] = 0.25
        changed["synthesis"]["kappa0"] = 0.01
        assert config_digest(parse_config(changed)) == base


class TestSignalAndSeed:
    def test_periodic_signal_built(self, demo_doc):
        rc = parse_config(demo_doc)
        signal = build_signal(rc)
        assert signal.horizon == 10.0
        assert list(signal.indices[:4]) == [1, 2, 1, 2]

    def test_explicit_signal_built(self, demo_doc):
        demo_doc["switching"] = {
            "explicit": {
                "breakpoints": [0.0, 0.6, 1.4],
                "indices": [2, 1, 2],
                "horizon": 2.0,
            }
        }
        signal = build_signal(parse_config(demo_doc))
        assert list(signal.indices) == [2, 1, 2]
        assert signal.tau0 == pytest.approx(0.6)

    def test_explicit_signal_index_out_of_range(self, demo_doc):
        demo_doc["switching"] = {
            "explicit": {
                "breakpoints": [0.0, 0.6],
                "indices": [1, 3],
                "horizon": 2.0,
            }
        }
        with pytest.raises(ConfigError, match="topology"):
            build_signal(parse_config(demo_doc))

    def test_seeded_x0_deterministic(self, demo_doc):
        rc = parse_config(demo_doc)
        assert np.array_equal(make_x0(rc), make_x0(rc))
        assert make_x0(rc).shape == (20,)
        assert np.abs(make_x0(rc)).max() <= 1.0


def _nan_x0(doc):
    del doc["simulation"]["seed"]
    doc["simulation"]["x0"] = [math.nan] + [0.0] * 19


def _switching(doc, **explicit):
    doc["switching"] = {"explicit": {"breakpoints": [0.0, 0.6], "indices": [1, 2],
                                     "horizon": 2.0, **explicit}}


# An edit of the demo document, and the error it must give.
BAD_NUMBERS = [
    pytest.param(lambda d: d["switching"]["periodic"].update(horizon=math.inf),
                 "switching.periodic.horizon: must be finite", id="inf-horizon"),
    pytest.param(_nan_x0, "simulation.x0[0]: must be finite, got nan",
                 id="nan-x0"),
    pytest.param(lambda d: d["synthesis"].update(beta=math.inf),
                 "synthesis.beta: must be finite", id="inf-beta"),
    pytest.param(lambda d: d["simulation"].update(dt=math.inf),
                 "simulation.dt: must be finite", id="inf-dt"),
    pytest.param(lambda d: d["synthesis"].update(kappa0=math.inf),
                 "synthesis.kappa0: must be finite", id="inf-kappa0"),
    pytest.param(lambda d: _switching(d, breakpoints=[0.0, math.nan]),
                 "switching.explicit.breakpoints[1]: must be finite, got nan",
                 id="nan-breakpoint"),
    pytest.param(lambda d: _switching(d, tau0=math.inf),
                 "switching.explicit.tau0: must be finite, got inf",
                 id="inf-tau0"),
    pytest.param(lambda d: _switching(d, tau1=math.nan),
                 "switching.explicit.tau1: must be positive, got nan",
                 id="nan-tau1"),
    pytest.param(lambda d: _switching(d, indices=[1.7, 2.2]),
                 "switching.explicit.indices[0]: expected an integer, got 1.7",
                 id="fractional-indices"),
    pytest.param(lambda d: d["simulation"].update(seed=3.9),
                 "simulation.seed: expected an integer, got 3.9",
                 id="fractional-seed"),
    pytest.param(lambda d: d["simulation"].update(seed="abc"),
                 "simulation.seed: expected an integer, got 'abc'", id="text-seed"),
]


class TestBadNumbers:
    """Non-finite and non-integral numbers fail as input errors, by name."""

    @pytest.mark.parametrize("edit, named", BAD_NUMBERS)
    def test_simulate_and_verify_name_the_field(self, demo_config_file, demo_doc,
                                                tmp_path, capsys, edit, named):
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", demo_config_file,
                         "--out", out]) == 0
        edit(demo_doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(demo_doc))
        capsys.readouterr()
        for command in ("simulate", "verify"):
            assert cli.main([command, "--config", str(path), "--out", out]) == 3
            assert f"error: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--dwell", "--beta", "--alpha", "--kappa0"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_override_names_its_flag(self, demo_config_file,
                                                tmp_path, capsys, flag, value):
        assert cli.main(["analyze", "--config", demo_config_file,
                         "--out", str(tmp_path / "o"), flag, value]) == 3
        assert f"error: {flag}: must be finite, got {value}" in \
            capsys.readouterr().err

    def test_integral_floats_are_integers(self, demo_doc):
        demo_doc["simulation"]["seed"] = 7.0
        _switching(demo_doc, indices=[2.0, 1])
        rc = parse_config(demo_doc)
        assert rc.seed == 7 and isinstance(rc.seed, int)
        assert list(build_signal(rc).indices) == [2, 1]


def _edit(section, **fields):
    return lambda d: d[section].update(fields)


def _without(section, key, edit):
    return lambda d: (d[section].pop(key), edit(d))


# A demo document edit that puts a value of the wrong JSON type in a field.
WRONG_TYPES = [
    pytest.param(_edit("synthesis", c_values=0.25),
                 "synthesis.c_values: expected a list, got 0.25", id="c_values"),
    pytest.param(_without("synthesis", "c_values",
                          _edit("synthesis", c_fraction=[0.5])),
                 "synthesis.c_fraction: expected a number, got [0.5]",
                 id="c_fraction"),
    pytest.param(_without("synthesis", "alpha",
                          _edit("synthesis", alpha_margin=[2])),
                 "synthesis.alpha_margin: expected a number, got [2]",
                 id="alpha_margin"),
    pytest.param(lambda d: d.update(simulation=[1]),
                 "simulation: expected an object, got [1]", id="simulation"),
    pytest.param(lambda d: d.update(synthesis=[1]),
                 "synthesis: expected an object, got [1]", id="synthesis"),
    pytest.param(_edit("switching", periodic=[1]),
                 "switching.periodic: expected an object, got [1]", id="periodic"),
    pytest.param(lambda d: d["graphs"][0]["edges"][0].update({"from": "a"}),
                 "graphs[0]: edges[0].from: expected an integer, got 'a'",
                 id="edge-from"),
    pytest.param(_edit("synthesis", beta=True),
                 "synthesis.beta: expected a number, got True", id="bool-beta"),
    pytest.param(_edit("simulation", dt=True),
                 "simulation.dt: expected a number, got True", id="bool-dt"),
    pytest.param(lambda d: _switching(d, tau0=True),
                 "switching.explicit.tau0: expected a number, got True",
                 id="bool-tau0"),
    pytest.param(_edit("simulation", tolerance="0.01"),
                 "simulation.tolerance: expected a number, got '0.01'",
                 id="text-tolerance"),
    pytest.param(_without("simulation", "seed",
                          _edit("simulation", x0=[True] + [0.0] * 19)),
                 "simulation.x0[0]: expected a number, got True", id="bool-x0"),
    pytest.param(_without("simulation", "seed",
                          _edit("simulation", x0=[[0.0] * 4] * 4 + [[0.0, "1"]])),
                 "simulation.x0[4][1]: expected a number, got '1'",
                 id="text-nested-x0"),
    pytest.param(lambda d: d["system"]["a"][1].__setitem__(2, True),
                 "system.a[1][2]: expected a number, got True", id="bool-a"),
    pytest.param(lambda d: d["system"]["b"][3].__setitem__(0, "1.0"),
                 "system.b[3][0]: expected a number, got '1.0'", id="text-b"),
    pytest.param(lambda d: d.update(gain={"k": [[0.0] * 4, [0.0, None, 0.0, 0.0]],
                                          "alpha": 1.0}),
                 "gain.k[1][1]: expected a number, got None", id="null-k"),
    pytest.param(lambda d: d["graphs"][0]["edges"][2].update(weight="2.5"),
                 "graphs[0]: edges[2].weight: expected a number, got '2.5'",
                 id="text-weight"),
    pytest.param(lambda d: d["graphs"][1]["edges"][0].update(weight=True),
                 "graphs[1]: edges[0].weight: expected a number, got True",
                 id="bool-weight"),
    pytest.param(lambda d: d["graphs"][0].update(node_count=5.7),
                 "graphs[0]: node_count: expected an integer, got 5.7",
                 id="fractional-node-count"),
    pytest.param(lambda d: d["graphs"][0].update(node_count=True),
                 "graphs[0]: node_count: expected an integer, got True",
                 id="bool-node-count"),
    pytest.param(lambda d: d["graphs"][0]["edges"][1].update({"to": True}),
                 "graphs[0]: edges[1].to: expected an integer, got True",
                 id="bool-edge-end"),
    pytest.param(lambda d: d["graphs"][1]["edges"].append(
                     dict(d["graphs"][1]["edges"][2], weight=7.0)),
                 "graphs[1]: edges[2] and edges[5] are both the edge (2, 3)",
                 id="repeated-edge"),
    pytest.param(lambda d: d["graphs"][1]["edges"].append(
                     {"from": 2, "to": 2, "weight": 1.0}),
                 "graphs[1]: edges[5]: (2, 2) is a self-loop", id="self-loop"),
    pytest.param(lambda d: d["graphs"][0]["edges"].append(
                     {"from": 1, "to": 1, "weight": 0.0}),
                 "graphs[0]: edges[5]: (1, 1) is a self-loop",
                 id="zero-weight-self-loop"),
    pytest.param(lambda d: d["system"]["a"][2].__setitem__(3, math.inf),
                 "system.a[2][3]: must be finite, got inf", id="infinite-a"),
    pytest.param(lambda d: d["graphs"][0].update(edges="abc"),
                 "graphs[0]: edges: expected a list, got 'abc'", id="text-edges"),
    pytest.param(lambda d: _switching(d, breakpoints=["0", "0.6"]),
                 "switching.explicit.breakpoints[0]: expected a number, got '0'",
                 id="text-breakpoints"),
    pytest.param(lambda d: _switching(d, breakpoints=[False, 0.6]),
                 "switching.explicit.breakpoints[0]: expected a number, got False",
                 id="bool-breakpoint"),
    pytest.param(lambda d: d.update(output={"dir": 5}),
                 "output.dir: expected a string, got 5", id="number-output-dir"),
    pytest.param(lambda d: d.update(output="somewhere"),
                 "output: expected an object, got 'somewhere'", id="text-output"),
    pytest.param(_edit("simulation", dtt=0.5), "simulation.dtt: unknown field",
                 id="unknown-field"),
    pytest.param(lambda d: d["graphs"][0]["edges"][0].update(wieght=1.0),
                 "graphs[0]: edges[0].wieght: unknown field", id="unknown-edge-field"),
]


@pytest.mark.parametrize("value", [
    [[0.5, -2.0], [1e300, 3.0]], [[0, 1], [2, 3]], [[1.0, 2], [3.0, 4.0]],
    [[7.5]], [[]], [[], []],
], ids=["floats", "ints", "mixed", "one-entry", "empty-row", "empty-rows"])
def test_matrix_fast_check_reads_as_the_naming_walk(value):
    got = schema.check(value, "system.a", "system.a")
    want = np.asarray(schema._numbers(value, "system.a"), dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("edit, named", WRONG_TYPES)
def test_wrong_json_type_names_the_field(tmp_path, demo_doc, capsys, edit, named):
    edit(demo_doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(demo_doc))
    assert cli.main(["analyze", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert f"error: {named}" in capsys.readouterr().err


def test_output_dir_of_wrong_type_is_input_error(tmp_path, demo_doc, capsys,
                                                 monkeypatch):
    # Without --out the config's output.dir is used, so it must be checked
    # before any directory is made.
    monkeypatch.chdir(tmp_path)
    demo_doc["output"] = {"dir": 5}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(demo_doc))
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_INPUT
    assert "error: output.dir: expected a string, got 5" in capsys.readouterr().err


def test_graph_file_fields_are_named(tmp_path, demo_doc, capsys):
    demo_doc["graphs"][1]["edges"][3]["from"] = True
    (tmp_path / "g2.json").write_text(json.dumps(demo_doc["graphs"][1]))
    demo_doc["graphs"][1] = "g2.json"
    with pytest.raises(ConfigError, match=r"^graphs\[1\]: edges\[3\]\.from: expected "
                                          r"an integer, got True$"):
        parse_config(demo_doc, base_dir=str(tmp_path))


def test_integral_float_edge_ends_are_integers(demo_doc):
    edges = demo_doc["graphs"][0]["edges"]
    expected = parse_config(demo_doc).graphs[0].weights
    edges[0].update({"from": float(edges[0]["from"]), "to": float(edges[0]["to"])})
    assert np.array_equal(parse_config(demo_doc).graphs[0].weights, expected)


def _at(doc, path, value):
    """Put `value` at table `path` of `doc`, making what is missing; ``[]`` is [0]."""
    *sections, last = path.split(".")
    for section in sections:
        key = section.removesuffix("[]")
        doc = doc.setdefault(key, [{}] if section.endswith("[]") else {})
        if section.endswith("[]"):
            doc = doc[0]
    if last.endswith("[]"):
        doc.setdefault(last.removesuffix("[]"), [None])[0] = value
    else:
        doc[last] = value


def _named(path):
    """The name an error gives the table `path` at element 0 of each list."""
    return path.replace("[]", "[0]").replace("graphs[0].", "graphs[0]: ")


def _wrong_values(report):
    """A wrong value per field of the configuration table, or of its report part."""
    return [
        pytest.param(path, value, id=f"{path}={value!r}")
        for path, (kind, _, _) in schema.FIELDS.items()
        if path.startswith("report.") == report
        for value in (True, "text", None, math.nan)
        if not (kind == "string" and value == "text")
        and not (kind == "number or null" and value is None)
    ]


TABLE_CASES = _wrong_values(report=False)


@pytest.mark.parametrize("path, value", TABLE_CASES)
def test_every_table_field_rejects_wrong_values(tmp_path, demo_doc, capsys, path,
                                                value):
    # Driven by the table, so a field added to it later is covered too.
    _at(demo_doc, path, value)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(demo_doc))
    assert cli.main(["analyze", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert f"error: {_named(path)}" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", _wrong_values(report=True))
def test_every_report_field_rejects_wrong_values(vtol_design, path, value):
    # Driven by the table's report fields, like the configuration's above.
    doc = json.loads(cli._json(synthesis.design_to_dict(
        vtol_design, config_digest="digest", reference=vtol.REFERENCE)))
    path = path.removeprefix("report.")
    _at(doc, path, value)
    with pytest.raises(ConfigError) as info:
        synthesis.design_from_dict(doc)
    assert str(info.value).startswith(f"{_named(path)}: ")


@pytest.fixture(scope="module")
def demo_synthesized(tmp_path_factory):
    """The demo config's path and the text of the report `synthesize` wrote."""
    root = tmp_path_factory.mktemp("demo")
    config = root / "config.json"
    config.write_text(json.dumps(vtol.demo_config()))
    assert cli.main(["synthesize", "--config", str(config),
                     "--out", str(root)]) == 0
    return str(config), (root / "synthesis.json").read_text()


# One wrong report per kind of field, with the name its error must give.
REPORT_KIND_CASES = {
    "integer": (lambda r: r["certificates"][0].update(index=True),
                "certificates[0].index: expected an integer, got True"),
    "number": (lambda r: r.update(alpha=str(r["alpha"])),
               "alpha: expected a number, got '8.1'"),
    "number-or-null": (lambda r: r.update(beta_bound="inf"),
                       "beta_bound: expected a number, got 'inf'"),
    "matrix": (lambda r: r["gain"].update(k=[[1.0, 2.0], [3.0]]),
               "gain.k: expected a nested numeric array"),
    "list": (lambda r: r.update(certificates={}),
             "certificates: expected a list, got {}"),
    "empty-list": (lambda r: r.update(certificates=[]),
                   "certificates: expected a non-empty list"),
    "object": (lambda r: r.update(gain=[]), "gain: expected an object, got []"),
    "string": (lambda r: r.update(config_digest=5),
               "config_digest: expected a string, got 5"),
    "unknown": (lambda r: r.update(lamda_max=1.0), "lamda_max: unknown field"),
    "missing": (lambda r: r.pop("c0"),
                "malformed synthesis report: missing required field 'c0'"),
}


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("kind", REPORT_KIND_CASES)
def test_malformed_report_is_input_error(demo_synthesized, tmp_path, capsys,
                                         command, kind):
    # A report field is read by the same table as a config field: a string
    # alpha or a bool index is not coerced into a design that then passes.
    config, text = demo_synthesized
    tamper, named = REPORT_KIND_CASES[kind]
    report = json.loads(text)
    tamper(report)
    path = tmp_path / "synthesis.json"
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert cli.main([command, "--config", config,
                     "--out", str(tmp_path)]) == cli.EXIT_INPUT
    assert f"error: {path}: {named}" in capsys.readouterr().err


def test_report_that_is_not_json_is_named(demo_synthesized, tmp_path, capsys):
    config, text = demo_synthesized
    path = tmp_path / "synthesis.json"
    path.write_text(text[:-10])
    assert cli.main(["verify", "--config", config,
                     "--out", str(tmp_path)]) == cli.EXIT_INPUT
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, field, value, shapes", [
    ("verify", "gain.p", np.eye(3), "expected shape (4, 4), got (3, 3)"),
    ("simulate", "gain.p", np.eye(3), "expected shape (4, 4), got (3, 3)"),
    ("verify", "certificates[0].q", np.eye(1), "expected shape (4, 4), got (1, 1)"),
    ("verify", "gain.k", np.ones((1, 3)), "expected shape (2, 4), got (1, 3)"),
], ids=["p-verify", "p-simulate", "q-verify", "k-verify"])
def test_report_matrix_of_wrong_shape_is_named(demo_synthesized, tmp_path, capsys,
                                               command, field, value, shapes):
    config, text = demo_synthesized
    report = json.loads(text)
    section, name = field.split(".")
    entry = report["certificates"][0] if "[" in section else report[section]
    entry[name] = value.tolist()
    path = tmp_path / "synthesis.json"
    path.write_text(json.dumps(report))
    assert cli.main([command, "--config", config,
                     "--out", str(tmp_path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: {field}: {shapes}\n"


def test_readme_lists_every_table_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    missing = [path for path in schema.FIELDS if f"`{path}`" not in section]
    assert not missing


class TestCommandExitCodes:
    def test_analyze_passes_on_demo(self, demo_config_file, tmp_path, capsys):
        code = cli.main(["analyze", "--config", demo_config_file,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "rooted at node 1" in out and "rooted at node 2" in out
        assert (tmp_path / "out" / "analysis.json").exists()

    def test_analyze_fails_on_treeless_graph(self, tmp_path, demo_doc, capsys):
        demo_doc["graphs"][1] = {"node_count": 5, "edges": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(demo_doc))
        code = cli.main(["analyze", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "NO spanning tree" in capsys.readouterr().out

    def test_treeless_graph_with_a_positive_margin_exits_2(self, tmp_path,
                                                            demo_doc, capsys):
        # Two strongly connected parts, 1->2->3->1 and 4<->5: no spanning
        # tree, though round-off can leave the computed margin positive, so
        # only the verdicts are asserted, not the margin's sign.
        demo_doc["graphs"][1] = _edges_doc(5, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0),
                                               (4, 5, 1.0), (5, 4, 1.0)])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo_doc))
        for command, verdict in (("analyze", "graph 2: NO spanning tree;"),
                                 ("synthesize", "graph 2 has no directed spanning "
                                                "tree; synthesis is impossible")):
            code = cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / "out")])
            assert code == 2
            assert verdict in capsys.readouterr().out
        assert not (tmp_path / "out" / "synthesis.json").exists()

    def test_full_pipeline(self, demo_config_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", demo_config_file,
                         "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "synthesis.json").read_text())
        assert report["alpha_min"] == 8.0
        assert report["beta_bound"] is None
        assert cli.main(["simulate", "--config", demo_config_file,
                         "--out", out]) == 0
        assert "consensus: PASS" in capsys.readouterr().out
        assert cli.main(["verify", "--config", demo_config_file,
                         "--out", out]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_demo_passes_at_long_horizon(self, tmp_path, demo_doc, capsys):
        # The agreement component grows (A is unstable); the verdict must
        # still see the decaying disagreement.
        demo_doc["switching"]["periodic"]["horizon"] = 30.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo_doc))
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", str(path), "--out", out]) == 0
        assert cli.main(["simulate", "--config", str(path), "--out", out]) == 0
        assert "consensus: PASS" in capsys.readouterr().out

    def test_simulate_without_report_is_input_error(self, demo_config_file,
                                                    tmp_path):
        code = cli.main(["simulate", "--config", demo_config_file,
                         "--out", str(tmp_path / "empty")])
        assert code == 3

    def test_verify_detects_tampered_gain(self, demo_config_file, tmp_path,
                                          capsys):
        def double_k(report):
            report["gain"]["k"] = (2 * np.array(report["gain"]["k"])).tolist()

        out = _verify_tampered(demo_config_file, tmp_path, capsys, double_k)
        assert "FAIL  gain identity" in out

    @pytest.mark.parametrize("tamper, failed", [
        (lambda r: r["certificates"][0].update(c=10.0),
         "certificate 1: c below antistability margin"),
        (lambda r: r["certificates"][0].update(
            q=(-np.array(r["certificates"][0]["q"])).tolist()),
         "certificate 1: Q positive definite"),
        (lambda r: r["certificates"][1].update(lmi_margin=2.0),
         "certificate 2: inequality margin"),
        (lambda r: r.update(alpha=7.9), "coupling strength alpha > 2/c0"),
        (lambda r: r["certificates"][1].update(index=3),
         "certificate 3: topology exists"),
        (lambda r: r["certificates"][0]["q"][0].__setitem__(
            1, r["certificates"][0]["q"][0][1] + 1.0),
         "certificate 1: Q positive definite"),
        (lambda r: r.update(c0=123.0), "report c0 = min c_i"),
        (lambda r: r.update(alpha_min=0.0), "report alpha_min = 2/c0"),
        (lambda r: r.update(beta_bound=0.5),
         "report beta_bound = sup feasible beta"),
        (lambda r: r.update(dwell_threshold=0.001),
         "report dwell_threshold = ln(lambda_max)/beta"),
        (lambda r: r.update(lambda_max=1.0001),
         "report lambda_max = max lambda_ij over ordered pairs"),
        (lambda r: r["gain"].update(p=np.zeros_like(r["gain"]["p"]).tolist()),
         "gain identity K = (1/2) B^T inv(P)"),
    ], ids=["c-above-margin", "q-negated", "lmi-margin", "alpha-low",
            "unknown-index", "q-asymmetric", "c0", "alpha-min", "beta-bound",
            "dwell-threshold", "lambda-max", "p-zeroed"])
    def test_verify_fails_the_tampered_check(self, demo_config_file, tmp_path,
                                             capsys, tamper, failed):
        out = _verify_tampered(demo_config_file, tmp_path, capsys, tamper)
        assert f"FAIL  {failed}  [" in out
        assert "verification: FAILURES present" in out

    def test_verify_checks_lambda_max_over_pairs_the_schedule_skips(
        self, tmp_path, capsys, monkeypatch
    ):
        # The schedule 1 -> 2 -> 1 switches through (1, 2) and (2, 1) only;
        # the largest lambda_ij is that of (3, 1).  A report that states the
        # largest used pair's lambda, with its dwell threshold, understates
        # both and must fail.
        doc = _double_integrator_doc([
            _edges_doc(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)]),
            _edges_doc(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 2, 1.0)]),
            _edges_doc(3, [(1, 2, 10.0), (1, 3, 0.1)]),
        ], 3.0, 9.0)
        doc["switching"] = {"explicit": {"breakpoints": [0.0, 3.0, 6.0],
                                         "indices": [1, 2, 1], "horizon": 9.0}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))

        def understate(report):
            certificates = synthesis.design_from_dict(report).certificates
            indices, table = synthesis.pair_lambdas(certificates)
            assert indices == [1, 2, 3]
            used = max(table[0, 1], table[1, 0])
            assert table[2, 0] == report["lambda_max"] > 5 * used
            report.update(lambda_max=used, dwell_threshold=math.log(used))
            monkeypatch.setattr(linalg, "max_generalized_eigenvalue",
                                lambda *q: solves.append(q) or solve(*q))

        solves, solve = [], linalg.max_generalized_eigenvalue
        out = _verify_tampered(str(path), tmp_path, capsys, understate)
        # Each of the six ordered pairs is solved once; the schedule's margins
        # and lambda_max read the same table.
        assert len(solves) == 6
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  report lambda_max = max lambda_ij over ordered "
                         "pairs  [stored 12.6589, derived 81.1286]"]

    def test_verify_repeated_topology_is_not_a_switch(self, tmp_path, capsys):
        # cond(Q) ~ 2e13: solving the pencil (Q, Q) would give 1.00124, so
        # tau* would not be 0; and no breakpoint after the first switches.
        doc = _double_integrator_doc(
            [_edges_doc(3, [(1, 2, 1e-6), (2, 3, 1e6)])], 1.0, 3.0)
        doc["switching"] = {"explicit": {"breakpoints": [0.0, 1.0, 2.0],
                                         "indices": [1, 1, 1], "horizon": 3.0}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", str(path), "--out", out]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--config", str(path), "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "switch margin" in line] == []
        assert ("PASS  report dwell_threshold = ln(lambda_max)/beta  "
                "[stored 0, derived 0]") in lines

    @staticmethod
    def _scalar_doc(graphs, switching, dt):
        """N=2 scalar integrators: a = [[0]], b = [[1]], beta = 1."""
        return {"schema_version": 1, "system": {"a": [[0.0]], "b": [[1.0]]},
                "graphs": [_edges_doc(2, [edge]) for edge in graphs],
                "switching": switching, "synthesis": {"beta": 1.0},
                "simulation": {"seed": 1, "dt": dt, "tolerance": 1e-2,
                               "window": 10 * dt}}

    @pytest.mark.parametrize("case", ["one topology", "repeated index"])
    def test_breakpoint_keeping_the_topology_is_no_switch(self, tmp_path, capsys,
                                                           case):
        # Each kept breakpoint is 0.0005 s after the one before it, a margin
        # of 0.0005 < kappa0 were it a switch.
        if case == "one topology":
            doc = self._scalar_doc([(1, 2, 1.0)], {"periodic": {
                "dwell": 0.0005, "horizon": 0.01}}, 0.0005)
            switches, samples = [], 21
        else:
            doc = self._scalar_doc([(1, 2, 1.0), (2, 1, 1.0)], {"explicit": {
                "breakpoints": [0, 1, 1.0005, 2], "indices": [1, 2, 2, 1],
                "horizon": 3}}, 0.1)
            switches, samples = ["1->2", "2->1"], 31
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["synthesize", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        margins = [line for line in lines if "switch margin" in line]
        if switches:
            assert margins == ["PASS  switch margins > kappa0  [2 switches, "
                               "smallest margin 1 on [0, 1) (1->2) vs kappa0 0.001]"]
        else:
            assert margins == []
        cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert f"({samples} samples)" in capsys.readouterr().out
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        # Two rows per switch, one per other sample.
        assert len(rows) == samples + len(switches)
        topologies = [row.split(",")[1] for row in rows]
        assert [f"{old}->{new}" for old, new in zip(topologies, topologies[1:])
                if old != new] == switches

    def test_verify_fails_an_indefinite_p(self, tmp_path, capsys):
        # K = (1/2) B^T inv(P) holds and the gain inequality's largest
        # eigenvalue is -2, so only P > 0 catches this report; the K identity,
        # which needs P > 0 to take inv(P), fails with it.
        doc = _double_integrator_doc(PATH_3, 6.0, 60.0)
        doc["system"] = {"a": [[0.5, 0.0], [0.0, -1.5]], "b": [[1.0], [1.0]]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))

        def indefinite_p(report):
            report["gain"].update(p=[[-1.0, 0.0], [0.0, 1.0]], k=[[-0.5, 0.5]])

        out = _verify_tampered(str(path), tmp_path, capsys, indefinite_p)
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  P positive definite  [smallest eigenvalue -1.000e+00]",
                         "FAIL  gain identity K = (1/2) B^T inv(P)  "
                         "[P is not positive definite]"]
        assert ("PASS  gain inequality A P + P A^T - B B^T + beta P < 0  "
                "[largest eigenvalue -2.000e+00]") in out

    def test_verify_fails_a_topology_without_certificate(self, tmp_path, demo_doc,
                                                         capsys):
        # Topology 2 is configured but never scheduled; with its certificate
        # gone, every stored number is consistent with certificate 1 alone
        # (c0 = 0.25, so alpha 8.1 clears 2/c0 = 8, not the true 20).
        demo_doc["synthesis"].update(c_values=[0.25, 0.1], alpha=21.0)
        demo_doc["switching"] = {"explicit": {"breakpoints": [0.0], "indices": [1],
                                              "horizon": 10.0}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo_doc))

        def drop_certificate_2(report):
            del report["certificates"][1]
            report.update(c0=0.25, alpha_min=8.0, lambda_max=1.0,
                          dwell_threshold=0.0, alpha=8.1)

        out = _verify_tampered(str(path), tmp_path, capsys, drop_certificate_2)
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  certificate 2: one per topology  [0 found]"]

    def test_verify_fails_a_topology_with_two_certificates(self, demo_config_file,
                                                           tmp_path, capsys):
        def duplicate_certificate_1(report):
            report["certificates"][1] = copy.deepcopy(report["certificates"][0])

        out = _verify_tampered(demo_config_file, tmp_path, capsys,
                               duplicate_certificate_1)
        assert "FAIL  certificate 1: one per topology  [2 found]" in out
        assert "FAIL  certificate 2: one per topology  [0 found]" in out

    @pytest.mark.parametrize("three_topologies", [False, True],
                             ids=["demo", "three-topology-explicit"])
    def test_design_checks_rows_are_the_printed_rows(self, tmp_path, demo_doc,
                                                     capsys, three_topologies):
        doc = demo_doc
        if three_topologies:
            doc = _double_integrator_doc([
                _edges_doc(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)]),
                _edges_doc(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 2, 1.0)]),
                _edges_doc(3, [(1, 2, 10.0), (1, 3, 0.1)]),
            ], 3.0, 12.0)
            doc["switching"] = {"explicit": {"breakpoints": [0.0, 3.0, 4.0, 8.0],
                                             "indices": [1, 3, 2, 1],
                                             "horizon": 12.0}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", str(path), "--out", out]) == 0
        capsys.readouterr()
        code = cli.main(["verify", "--config", str(path), "--out", out])
        printed = capsys.readouterr().out.splitlines()
        rc = parse_config(doc)
        rows = synthesis.design_checks(cli._load_report(rc, out), rc.a, rc.b,
                                       cli._reduced(rc), build_signal(rc), rc.kappa0)
        assert printed[:-1] == [f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]"
                                for name, ok, detail in rows]
        # A row per failing switch (two of the three-topology schedule's three),
        # then one summary row; a passing switch has no row of its own.
        expected = ([f"FAIL  switch margin on {where}  [margin " for where in
                     ("[0, 3) (1->3)", "[3, 4) (3->2)")]
                    + ["FAIL  switch margins > kappa0  [3 switches, smallest margin "]
                    if three_topologies else
                    ["PASS  switch margins > kappa0  [19 switches, smallest margin "])
        switch_rows = [line for line in printed if "switch margin" in line]
        assert [line[:len(head)] for line, head in zip(switch_rows, expected)] == expected
        assert len(switch_rows) == len(expected)
        passed = all(ok for _, ok, _ in rows)
        assert code == (cli.EXIT_OK if passed else cli.EXIT_VERDICT)

    @pytest.mark.parametrize("p", [np.zeros((4, 4)), np.diag([-1.0, 1.0, 1.0, 1.0])],
                             ids=["zero", "indefinite"])
    def test_simulate_refuses_a_p_not_positive_definite(self, demo_config_file,
                                                        tmp_path, capsys, p):
        out = tmp_path / "out"
        assert cli.main(["synthesize", "--config", demo_config_file,
                         "--out", str(out)]) == 0
        report_path = out / "synthesis.json"
        report = json.loads(report_path.read_text())
        report["gain"]["p"] = p.tolist()
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert cli.main(["simulate", "--config", demo_config_file,
                         "--out", str(out)]) == cli.EXIT_INPUT
        smallest = np.linalg.eigvalsh(p)[0]
        assert capsys.readouterr().err == (
            f"error: {report_path}: gain.p: not positive definite "
            f"(smallest eigenvalue {smallest:.3e})\n")
        assert not (out / "trajectory.csv").exists()

    def test_unused_indefinite_q_fails_verify_and_simulate(self, tmp_path, demo_doc,
                                                           capsys):
        # Topology 2 is never scheduled, but its Q_2 = -I still enters the
        # pair table: verify fails the pairing and simulate refuses the report.
        demo_doc["switching"] = {"explicit": {"breakpoints": [0.0], "indices": [1],
                                              "horizon": 10.0}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(demo_doc))
        out = tmp_path / "out"
        assert cli.main(["synthesize", "--config", str(config), "--out", str(out)]) == 0
        report_path = out / "synthesis.json"
        report = json.loads(report_path.read_text())
        report["certificates"][1]["q"] = (-np.eye(4)).tolist()
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert ("FAIL  switching condition  [topologies 1 -> 2: q2 is not positive "
                "definite (smallest eigenvalue -1.000e+00)]") in printed
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {report_path}: topologies 1 -> 2: q2 is not positive definite "
            "(smallest eigenvalue -1.000e+00)\n")
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("index, q, scheduled, reason", [
        (2, -np.eye(4), 1, "topologies 1 -> 2: q2 is not positive definite "
                           "(smallest eigenvalue -1.000e+00)"),
        (3, None, 2, "no certificate for topology index 2"),
    ], ids=["indefinite-q", "topology-without-certificate"])
    def test_simulate_refuses_an_unusable_report_before_propagating(
            self, tmp_path, demo_doc, capsys, monkeypatch, index, q, scheduled, reason):
        # The pair table is solved, once per ordered pair, before the run: a
        # 500 s horizon is refused without one matrix exponential.
        demo_doc["switching"] = {"explicit": {"breakpoints": [0.0],
                                              "indices": [scheduled],
                                              "horizon": 500.0}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(demo_doc))
        out = tmp_path / "out"
        assert cli.main(["synthesize", "--config", str(config), "--out", str(out)]) == 0
        report_path = out / "synthesis.json"
        report = json.loads(report_path.read_text())
        report["certificates"][1]["index"] = index
        if q is not None:
            report["certificates"][1]["q"] = q.tolist()
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        calls = []
        for name in ("expm", "max_generalized_eigenvalue"):
            fn = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {report_path}: {reason}\n"
        # An indefinite Q_2 stops the table at its first pencil.
        assert calls == ["max_generalized_eigenvalue"] * (1 if q is not None else 2)
        assert not (out / "trajectory.csv").exists()

    def test_verify_error_path_solves_each_pair_once(self, demo_config_file,
                                                     tmp_path, capsys, monkeypatch):
        # Certificate 2 is filed under topology 3, so the schedule cannot be
        # checked; lambda_max still reads the one table of the two pencils.
        def misfile_certificate_2(report):
            report["certificates"][1]["index"] = 3
            monkeypatch.setattr(linalg, "max_generalized_eigenvalue",
                                lambda *q: solves.append(q) or solve(*q))

        solves, solve = [], linalg.max_generalized_eigenvalue
        out = _verify_tampered(demo_config_file, tmp_path, capsys,
                               misfile_certificate_2)
        assert len(solves) == 2
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL  certificate 3: topology exists  [index not in config]",
            "FAIL  certificate 2: one per topology  [0 found]",
            "FAIL  switching condition  [no certificate for topology index 2]",
        ]

    def test_verify_prints_every_failing_switch_and_the_smallest_margin(
            self, tmp_path, demo_doc, capsys):
        # Gaps of 0.5, 0.1, 1.0, 0.05 and 1.3 s: the two switches 2 -> 1 after
        # the short gaps fail, the smallest margin is the second one's.
        demo_doc["switching"] = {"explicit": {
            "breakpoints": [0.0, 0.5, 0.6, 1.6, 1.65, 2.95],
            "indices": [1, 2, 1, 2, 1, 2], "horizon": 4.0}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(demo_doc))
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", str(config), "--out", out]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--config", str(config), "--out", out]) == 1
        printed = capsys.readouterr().out.splitlines()
        rc = parse_config(demo_doc)
        design = cli._load_report(rc, out)
        s = synthesis.check_schedule(build_signal(rc), design.certificates, rc.beta,
                                     rc.kappa0)
        assert s.checks.tolist() == [True, False, True, False, True]
        m = s.margin.tolist()
        assert m[3] == min(m) < m[1] < 0
        assert [line for line in printed if "switch margin" in line] == [
            f"FAIL  switch margin on [0.5, 0.6) (2->1)  [margin {m[1]:.6g} vs "
            "kappa0 0.001]",
            f"FAIL  switch margin on [1.6, 1.65) (2->1)  [margin {m[3]:.6g} vs "
            "kappa0 0.001]",
            f"FAIL  switch margins > kappa0  [5 switches, smallest margin "
            f"{m[3]:.6g} on [1.6, 1.65) (2->1) vs kappa0 0.001]",
        ]
        assert printed[-1] == "verification: FAILURES present"

    def test_verify_output_does_not_grow_with_the_schedule(self, demo_config_file,
                                                          tmp_path, capsys):
        # The demo design at its 0.5 s dwell: 19 switches over 10 s, and
        # 999 999 over 5e5 s, with one summary row each.
        doc = json.loads(Path(demo_config_file).read_text())
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", demo_config_file, "--out", out]) == 0
        capsys.readouterr()
        printed = []
        for horizon in (10.0, 5e5):
            doc["switching"]["periodic"]["horizon"] = horizon
            config = tmp_path / f"config_{horizon:g}.json"
            config.write_text(json.dumps(doc))
            assert cli.main(["verify", "--config", str(config), "--out", out]) == 0
            printed.append(capsys.readouterr().out.splitlines())
        assert len(printed[0]) == len(printed[1]) == 17
        assert ("PASS  switch margins > kappa0  [999999 switches, smallest margin "
                "0.297059 on [0, 0.5) (1->2) vs kappa0 0.001]") in printed[1]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("horizon, dwell, count", [
        (10.0, 1e-12, "10,000,000,000,000"), (1e12, 0.5, "2,000,000,000,000")])
    def test_periodic_schedule_too_long_to_hold_is_input_error(
            self, demo_config_file, tmp_path, capsys, command, horizon, dwell, count):
        # numpy refuses so large an array at once, so nothing is allocated.
        doc = json.loads(Path(demo_config_file).read_text())
        doc["switching"]["periodic"].update(horizon=horizon, dwell=dwell)
        config = tmp_path / "long.json"
        config.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", str(config), "--out", out]) == 0
        capsys.readouterr()
        assert cli.main([command, "--config", str(config),
                         "--out", out]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: switching.periodic: a horizon of {horizon:g} s at dwell "
            f"{dwell:g} s takes {count} intervals, more than memory holds\n")

    def test_run_too_large_to_hold_is_input_error(self, demo_config_file,
                                                  tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", demo_config_file,
                         "--out", out]) == 0

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(simulator, "simulate_blocks", out_of_memory)
        assert cli.main(["simulate", "--config", demo_config_file,
                         "--out", out]) == 3
        assert capsys.readouterr().err == (
            "error: a run of horizon 10 s at simulation.dt 0.01 s takes up to "
            "1,021 samples, more than memory holds\n")
        assert sorted(os.listdir(out)) == ["synthesis.json"]

    def test_kappa0_override_keeps_report_fresh(self, demo_config_file,
                                                tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", demo_config_file,
                         "--out", out]) == 0
        for command in ("verify", "simulate"):
            assert cli.main([command, "--config", demo_config_file, "--out", out,
                             "--kappa0", "0.01"]) == 0, command
        assert "vs kappa0 0.01]" in capsys.readouterr().out

    def test_verify_detects_stale_report(self, tmp_path, demo_doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo_doc))
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", str(path), "--out", out]) == 0
        demo_doc["synthesis"]["beta"] = 2.0
        path.write_text(json.dumps(demo_doc))
        assert cli.main(["verify", "--config", str(path), "--out", out]) == 3

    def test_verify_flags_short_dwell(self, demo_config_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--config", demo_config_file,
                         "--out", out]) == 0
        code = cli.main(["verify", "--config", demo_config_file, "--out", out,
                         "--dwell", "0.01"])
        assert code == 1
        printed = capsys.readouterr().out.splitlines()
        # The 10 s horizon at dwell 0.01 s has 999 switches, and every one fails.
        switch_rows = [line for line in printed if "switch margin" in line]
        assert len(switch_rows) == 1000
        assert all(line.startswith("FAIL  switch margin on [") for line in switch_rows[:-1])
        assert switch_rows[-1].startswith(
            "FAIL  switch margins > kappa0  [999 switches, smallest margin -1.17294 on ")
        assert printed[-1] == "verification: FAILURES present"

    def test_synthesize_infeasible_beta_names_mode(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "system": {"a": [[-1.0, 0.0], [0.0, 0.0]], "b": [[0.0], [1.0]]},
            "graphs": [
                {"node_count": 2,
                 "edges": [{"from": 1, "to": 2, "weight": 1.0}]},
            ],
            "switching": {"periodic": {"dwell": 0.5, "horizon": 4.0}},
            "synthesis": {"beta": 3.0},
            "simulation": {"seed": 1, "dt": 0.01},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["synthesize", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "uncontrollable" in capsys.readouterr().out

    def test_simulate_with_explicit_gain(self, tmp_path, demo_doc, capsys):
        demo_doc["gain"] = {"k": vtol.K_PUBLISHED.tolist(), "alpha": vtol.ALPHA}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo_doc))
        code = cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert "consensus: PASS" in capsys.readouterr().out

    def test_simulate_from_consensus_subspace(self, tmp_path, demo_doc, capsys):
        del demo_doc["simulation"]["seed"]
        demo_doc["simulation"]["x0"] = np.tile([1.0, -0.5, 0.25, 2.0], 5).tolist()
        demo_doc["gain"] = {"k": vtol.K_PUBLISHED.tolist(), "alpha": vtol.ALPHA}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo_doc))
        code = cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert "0.000e+00" in capsys.readouterr().out

    def test_failed_trajectory_part_is_input_error(self, tmp_path, demo_doc,
                                                   capsys, monkeypatch):
        write_rows = simulator._write_rows

        def failing_after_first_part(fh, record, data, agree, lo, hi):
            if lo != 0:
                raise RuntimeError("formatter failed")
            write_rows(fh, record, data, agree, lo, hi)

        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(simulator, "MIN_PART_VALUES", 1)
        monkeypatch.setattr(simulator, "_write_rows", failing_after_first_part)
        demo_doc["gain"] = {"k": vtol.K_PUBLISHED.tolist(), "alpha": vtol.ALPHA}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo_doc))
        code = cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_INPUT
        assert "part 2 of 2 failed" in capsys.readouterr().err

    def test_overflowing_flow_aborts_simulation(self, tmp_path, capsys):
        # The flow over the 1 s interval on graph 2 overflows, so its
        # sample at t = 1 is not finite: the first divergence.
        doc = {
            "schema_version": 1,
            "system": {"a": [[1.0]], "b": [[1.0]]},
            "graphs": [
                {"node_count": 2, "edges": [{"from": 1, "to": 2, "weight": w}]}
                for w in (1.0, 1000.0)
            ],
            "switching": {"explicit": {"breakpoints": [0.0, 1.0],
                                       "indices": [2, 1], "horizon": 3.0}},
            "synthesis": {"beta": 1.0},
            "simulation": {"x0": [1.0, 0.0], "dt": 1.0},
            "gain": {"k": [[-1.0]], "alpha": 1.0},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "simulation aborted: trajectory diverged at t=1 " in \
            capsys.readouterr().out

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["analyze", "--config", str(path)])
        assert code == 3
        assert "line" in capsys.readouterr().err

    def test_flag_overrides_validated(self, demo_config_file, tmp_path):
        assert cli.main(["analyze", "--config", demo_config_file,
                         "--out", str(tmp_path / "o"), "--beta", "-3"]) == 3

    def test_negative_seed_override_names_its_flag(self, demo_config_file,
                                                   tmp_path, capsys):
        assert cli.main(["analyze", "--config", demo_config_file,
                         "--out", str(tmp_path / "o"), "--seed", "-1"]) == 3
        assert "error: --seed: must be non-negative, got -1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--dwell", "--beta", "--alpha", "--kappa0"])
    def test_nonpositive_override_names_its_flag(self, demo_config_file,
                                                  tmp_path, capsys, flag):
        assert cli.main(["analyze", "--config", demo_config_file,
                         "--out", str(tmp_path / "o"), flag, "0"]) == 3
        assert f"error: {flag}: must be positive, got 0.0" in \
            capsys.readouterr().err


def _verify_tampered(config, tmp_path, capsys, tamper):
    """Synthesize, edit the report with `tamper`, verify; return its stdout."""
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", config, "--out", str(out)]) == 0
    report_path = out / "synthesis.json"
    report = json.loads(report_path.read_text())
    tamper(report)
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert cli.main(["verify", "--config", config, "--out", str(out)]) == 1
    return capsys.readouterr().out


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, demo_config_file, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for out in (out1, out2):
            for command in ("analyze", "synthesize", "simulate"):
                assert cli.main([command, "--config", demo_config_file,
                                 "--out", out]) == 0
        for name in ("analysis.json", "synthesis.json", "trajectory.csv"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, name

    def test_parser_built_once_keeps_no_flag_between_calls(
        self, demo_config_file, tmp_path, capsys, monkeypatch
    ):
        # Each step runs in a directory of its own, after the steps before it.
        steps = [
            ("synthesize", []),
            ("simulate", ["--seed", "7"]),
            ("simulate", []),
            ("synthesize", ["--beta", "2.5"]),
            ("synthesize", ["--alpha", "9"]),
            ("verify", ["--alpha", "9"]),
        ]

        def run(root, fresh_parser):
            results = []
            for pos, (command, flags) in enumerate(steps):
                out = root / str(pos)
                if pos:
                    shutil.copytree(root / str(pos - 1), out)
                if fresh_parser:
                    monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
                code = cli.main([command, "--config", demo_config_file,
                                 "--out", str(out)] + flags)
                text = capsys.readouterr().out.replace(str(out), "OUT")
                files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                results.append((code, text, files))
            return results

        parser = cli._PARSER
        back_to_back = run(tmp_path / "shared", fresh_parser=False)
        assert cli._PARSER is parser
        assert back_to_back == run(tmp_path / "fresh", fresh_parser=True)
        assert [code for code, _, _ in back_to_back] == [0] * len(steps)
        # The seed and beta overrides were not carried into the next call.
        assert back_to_back[1][2] != back_to_back[2][2]
        assert back_to_back[3][2] != back_to_back[4][2]

    @pytest.mark.parametrize("command", ["analyze", "synthesize", "simulate",
                                         "verify", "demo-vtol"])
    def test_main_runs_the_command_set_on_the_module(self, command, tmp_path,
                                                     monkeypatch):
        # A wrapper set on the module after import (a tracer's) must run.
        ran = []
        monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}",
                            lambda rc, out: ran.append(out) or 0)
        config = [] if command == "demo-vtol" else ["--config", "unused.json"]
        monkeypatch.setattr(cli.cfg, "load_config",
                            lambda path: parse_config(vtol.demo_config()))
        assert cli.main([command, "--out", str(tmp_path)] + config) == 0
        assert ran == [str(tmp_path)]


class TestDemoCommand:
    def test_demo_runs_clean(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = cli.main(["demo-vtol", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "computed vs published reference" in text
        assert "3.3225" in text and "0.4002" in text
        for name in (
            "config.json",
            "vtol_graph_1.json",
            "vtol_graph_2.json",
            "analysis.json",
            "synthesis.json",
            "trajectory.csv",
        ):
            assert (out / name).exists(), name

    def test_demo_config_reproduces_its_design(self, tmp_path, demo_doc):
        out = tmp_path / "demo"
        assert cli.main(["demo-vtol", "--beta", "2.5", "--out", str(out)]) == 0
        config = str(out / "config.json")
        assert cli.main(["verify", "--config", config, "--out", str(out)]) == 0
        demo_doc["synthesis"]["beta"] = 2.5
        emitted = parse_config(json.loads((out / "config.json").read_text()))
        assert config_to_dict(emitted) == config_to_dict(parse_config(demo_doc))

    def test_demo_emitted_graphs_reduce_to_known_matrices(self, tmp_path):
        from conftest import LHAT_1, LHAT_2

        out = tmp_path / "demo"
        assert cli.main(["demo-vtol", "--out", str(out)]) == 0
        g1 = topology.load_graph(out / "vtol_graph_1.json")
        g2 = topology.load_graph(out / "vtol_graph_2.json")
        red1 = topology.reduce_laplacian(topology.laplacian(g1))
        red2 = topology.reduce_laplacian(topology.laplacian(g2))
        assert np.array_equal(red1.matrix, LHAT_1)
        assert np.array_equal(red2.matrix, LHAT_2)


def _double_integrator_doc(graphs, dwell, horizon, dt=0.05, tolerance=1e-2):
    return {
        "schema_version": 1,
        "system": {"a": [[0.0, 1.0], [0.0, 0.0]], "b": [[0.0], [1.0]]},
        "graphs": graphs,
        "switching": {"periodic": {"dwell": dwell, "horizon": horizon}},
        "synthesis": {"beta": 1.0},
        "simulation": {"seed": 1, "dt": dt, "tolerance": tolerance,
                       "window": 2.0},
    }


def _edges_doc(n, edges):
    return {"node_count": n,
            "edges": [{"from": s, "to": d, "weight": w} for s, d, w in edges]}


RING_6 = _edges_doc(6, [(i, i % 6 + 1, 1.0) for i in range(1, 7)])
PINNED_PATH_6 = _edges_doc(
    6, [(i, i + 1, 1.0) for i in range(1, 5)]
    + [(i + 1, i, 1.0) for i in range(1, 5)] + [(6, 1, 1.0)])


class TestSpectralFacts:
    def test_one_eigensolve_per_topology(self, tmp_path, monkeypatch):
        # N=6 agents with n=2 states: every solve larger than 2x2 is of a
        # reduced (5x5) or full (6x6) Laplacian or a shifted copy of one.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            _double_integrator_doc([RING_6, PINNED_PATH_6], 40.0, 100.0)))
        orders = []
        solve = linalg.eigenvalues
        monkeypatch.setattr(linalg, "eigenvalues",
                            lambda m: orders.append(len(m)) or solve(m))
        # verify certifies each margin from its certificate (Q, G), so it
        # solves no reduced spectrum at all.
        for command, solves in (("analyze", [5, 5]), ("synthesize", [5, 5]),
                                ("verify", [])):
            orders.clear()
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / "out")]) == 0, command
            assert [k for k in orders if k > 2] == solves, command

    def test_each_check_runs_once_per_command(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            _double_integrator_doc([RING_6, PINNED_PATH_6], 40.0, 100.0)))
        calls = []
        for name in ("certificate_checks", "gain_checks"):
            fn = getattr(synthesis, name)
            monkeypatch.setattr(synthesis, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(
            len(m)) or eigvalsh(m))
        pairs, solve = [], linalg.max_generalized_eigenvalue
        monkeypatch.setattr(linalg, "max_generalized_eigenvalue", lambda q1, q2: (
            pairs.append((q1.tobytes(), q2.tobytes())) or solve(q1, q2)))
        checks = ["certificate_checks"] * 2 + ["gain_checks"]
        # Order N-1 = 5: Q > 0 and the inequality margin per topology (not in
        # simulate), then one pencil per ordered pair, for tau*, the switch
        # margins or the monitor's jump bounds; the pencil reads both
        # definiteness facts from its own solve.
        for command, names, order_5 in (("synthesize", checks, 6),
                                        ("verify", checks, 6), ("simulate", [], 2)):
            calls.clear()
            pairs.clear()
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / "out")]) == 0, command
            assert [c for c in calls if isinstance(c, str)] == names, command
            assert [c for c in calls if c == 5] == [5] * order_5, command
            (q1, q2), *_ = pairs
            assert q1 != q2 and sorted(pairs) == sorted([(q1, q2), (q2, q1)]), command

    def test_analysis_spectrum_is_laplacian_spectrum(self, tmp_path):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.1, 3.0, size=(6, 6)) * (rng.random((6, 6)) < 0.4)
        np.fill_diagonal(w, 0.0)
        graphs = [
            RING_6,
            _edges_doc(6, [(1, 2, 0.3), (3, 4, 2.0), (5, 6, 7.5)]),  # no tree
            topology.graph_to_dict(topology.DirectedGraph(w)),
        ]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_double_integrator_doc(graphs, 1.0, 4.0)))
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", str(path), "--out", str(out)]) == 2
        report = json.loads((out / "analysis.json").read_text())
        for doc, entry in zip(graphs, report["graphs"]):
            lap = topology.laplacian(topology.graph_from_dict(doc))
            expected = np.linalg.eigvals(lap)
            reported = np.array([complex(*z) for z in entry["laplacian_spectrum"]])
            assert reported.size == expected.size
            assert [0.0, 0.0] in entry["laplacian_spectrum"]
            gaps = np.abs(reported[:, None] - expected[None, :])
            tol = 1e-9 * max(1.0, np.abs(lap).max())
            assert gaps.min(axis=0).max() <= tol
            assert gaps.min(axis=1).max() <= tol
        assert [e["spanning_tree"] for e in report["graphs"]][:2] == [True, False]

    def test_extreme_weights_pass_end_to_end(self, tmp_path, capsys):
        # Reduced spectra near 1e-6 and 1e6: the shifted matrices are
        # antistable, so the Lyapunov solves are regular.
        graphs = [
            _edges_doc(3, [(1, 2, 1e-6), (2, 3, 1e6)]),
            _edges_doc(3, [(3, 2, 1e6), (2, 1, 1e-6)]),
        ]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            _double_integrator_doc(graphs, 40.0, 100.0, dt=0.5, tolerance=0.5)))
        out = str(tmp_path / "out")
        for command in ("analyze", "synthesize", "simulate", "verify"):
            assert cli.main([command, "--config", str(path), "--out", out]) == 0, \
                command
        text = capsys.readouterr().out
        assert "antistability margin 1e-06" in text
        assert "consensus: PASS" in text and "all checks passed" in text

    def test_report_layout(self, tmp_path):
        # One top-level key per line; values compact, floats as repr.
        doc = {"a": [0.1, -0.0, 1e-300, 2.0 ** 0.5], "b": None,
               "c": {"nested": [True, "s"]}, "d": 3}
        path = tmp_path / "report.json"
        cli._write_json(doc, path)
        text = path.read_text()
        assert json.loads(text) == doc
        assert text == (
            '{\n"a": [0.1, -0.0, 1e-300, 1.4142135623730951],\n"b": null,\n'
            '"c": {"nested": [true, "s"]},\n"d": 3\n}\n'
        )


# Where repr switches notation (exponents -5 and 16), signed zeros,
# subnormals and integral values.
REPR_EDGES = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1.0, -3.0,
              2.0 ** 53, 1e16, -1e16, 9999999999999998.0, 1e-4, -1e-4,
              9.999999999999999e-05, 0.00010000000000000002]


@st.composite
def mirrored_matrices(draw):
    """Square matrices of order 1 to 8 drawn symmetric, then given mirrored
    ``0.0``/``-0.0`` pairs and a few entries that break symmetry."""
    n = draw(st.integers(1, 8))
    index = st.integers(0, n - 1)
    value = (st.sampled_from(REPR_EDGES) | st.floats()
             | st.floats(-2.3e-308, 2.3e-308) | st.integers(-10**6, 10**6).map(float)
             | st.floats(1e15, 1e17) | st.floats(-1e-3, -1e-5) | st.floats(1e-5, 1e-3))
    upper = np.triu_indices(n)
    m = np.zeros((n, n))
    m[upper] = m[upper[::-1]] = draw(st.lists(value, min_size=upper[0].size,
                                              max_size=upper[0].size))
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        m[i, j], m[j, i] = 0.0, -0.0
    for i, j, v in draw(st.lists(st.tuples(index, index, value), max_size=3)):
        m[i, j] = v
    return m


def _dumps_layout(doc):
    """The report layout written by ``json.dumps`` alone."""
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items())
    return "{\n" + lines + "\n}\n"


class TestMatrixEncoder:
    @settings(max_examples=300, deadline=None)
    @given(m=mirrored_matrices())
    def test_text_is_json_dumps_of_the_nested_list(self, m):
        assert cli._square_json(m) == json.dumps(m.tolist())

    def test_arrays_in_lists_of_objects_are_written_as_nested_lists(self, tmp_path):
        q = np.array([[2.0, -0.0, 0.1], [0.0, 1e-300, 3.0], [0.1, 3.0, 1e16]])
        doc = {"certificates": [{"index": 1, "q": q}, {"index": 2, "q": q.T}],
               "n": 3}
        cli._write_json(doc, tmp_path / "report.json")
        plain = {"certificates": [{"index": 1, "q": q.tolist()},
                                  {"index": 2, "q": q.T.tolist()}], "n": 3}
        assert (tmp_path / "report.json").read_text() == _dumps_layout(plain)

    def test_design_document_is_written_as_its_nested_lists(self, vtol_design,
                                                            tmp_path):
        doc = synthesis.design_to_dict(vtol_design, config_digest="digest",
                                       reference=vtol.REFERENCE)
        assert vtol_design.k.shape == (2, 4)
        cli._write_json(doc, tmp_path / "report.json")
        plain = {**doc, "gain": {"k": vtol_design.k.tolist(),
                                 "p": vtol_design.p.tolist()},
                 "certificates": [{**entry, "q": entry["q"].tolist()}
                                  for entry in doc["certificates"]]}
        assert (tmp_path / "report.json").read_text() == _dumps_layout(plain)

    def test_synthesis_report_is_the_json_dumps_layout(self, demo_config_file,
                                                       tmp_path):
        out = tmp_path / "out"
        assert cli.main(["synthesize", "--config", demo_config_file,
                         "--out", str(out)]) == 0
        text = (out / "synthesis.json").read_text()
        assert text == _dumps_layout(json.loads(text))


PATH_3 = [_edges_doc(3, [(1, 2, 1.0), (2, 3, 1.0)]),
          _edges_doc(3, [(3, 2, 1.0), (2, 1, 1.0)])]


def _scalar_pair_doc():
    doc = _double_integrator_doc([_edges_doc(2, [(1, 2, 1.0)])], 1.0, 10.0)
    doc["system"] = {"a": [[0.0]], "b": [[1.0]]}
    return doc


class TestEdgeCases:
    # tau* = 5.56 s for PATH_3 with the double integrator at beta = 1.
    @pytest.mark.parametrize("doc, tau_star", [
        (_scalar_pair_doc(), 0.0),
        (_double_integrator_doc(PATH_3, 6.0, 60.0, dt=7.0), 5.5594),
        (_double_integrator_doc(PATH_3, 6.0, 60.0, dt=0.35), 5.5594),
    ], ids=["two-nodes-one-state-one-topology", "dt-above-dwell",
            "dt-not-dividing-dwell"])
    def test_pipeline_passes(self, tmp_path, capsys, doc, tau_star):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for command in ("analyze", "synthesize", "simulate", "verify"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(out)]) == 0, command
        report = json.loads((out / "synthesis.json").read_text())
        assert report["dwell_threshold"] == pytest.approx(tau_star, rel=1e-4)
        text = capsys.readouterr().out
        assert "consensus: PASS" in text and "all checks passed" in text
