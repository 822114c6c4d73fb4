import copy
import json

import numpy as np
import pytest

from switched_consensus import cli, topology, vtol
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
        out = tmp_path / "out"
        assert cli.main(["synthesize", "--config", demo_config_file,
                         "--out", str(out)]) == 0
        report_path = out / "synthesis.json"
        report = json.loads(report_path.read_text())
        report["gain"]["k"] = (2 * np.array(report["gain"]["k"])).tolist()
        report_path.write_text(json.dumps(report))
        code = cli.main(["verify", "--config", demo_config_file,
                         "--out", str(out)])
        assert code == 1
        assert "FAIL  gain identity" in capsys.readouterr().out

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
        assert "FAIL  switch margin" in capsys.readouterr().out

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

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["analyze", "--config", str(path)])
        assert code == 3
        assert "line" in capsys.readouterr().err

    def test_flag_overrides_validated(self, demo_config_file, tmp_path):
        assert cli.main(["analyze", "--config", demo_config_file,
                         "--out", str(tmp_path / "o"), "--beta", "-3"]) == 3


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, demo_config_file, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for out in (out1, out2):
            assert cli.main(["synthesize", "--config", demo_config_file,
                             "--out", out]) == 0
            assert cli.main(["simulate", "--config", demo_config_file,
                             "--out", out]) == 0
        for name in ("synthesis.json", "trajectory.csv"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, name


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
