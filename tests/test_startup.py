"""Start-up cost: only `synthesize` loads scipy.

Each case runs in a fresh interpreter, because this test process has scipy
loaded already (`conftest.py` imports it for its oracles).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from switched_consensus import cli, vtol

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in the fresh interpreter after the case's own code: its exit code, if
# it ran a command, and the scipy modules it holds.
REPORT = """
import json, sys
print(json.dumps({"code": globals().get("code"), "scipy": sorted(
    m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


def fresh_run(code, cwd):
    """``{"code": ..., "scipy": [...]}`` from a new interpreter that ran `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + REPORT], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    """The demo config, and the report an earlier process (this one) wrote."""
    root = tmp_path_factory.mktemp("startup")
    (root / "config.json").write_text(json.dumps(vtol.demo_config()))
    assert cli.main(["synthesize", "--config", str(root / "config.json"),
                     "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize("module", ["switched_consensus", "switched_consensus.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert fresh_run(f"import {module}", tmp_path)["scipy"] == []


def _command(command, root):
    return (f"from switched_consensus import cli\n"
            f"code = cli.main([{command!r}, '--config', {str(root / 'config.json')!r},"
            f" '--out', {str(root)!r}])")


@pytest.mark.parametrize("command", ["analyze", "simulate", "verify"])
def test_commands_without_synthesis_load_no_scipy(command, demo_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(demo_dir, out)
    assert fresh_run(_command(command, out), tmp_path) == {"code": 0, "scipy": []}


def test_synthesize_loads_scipy(demo_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(demo_dir, out)
    ran = fresh_run(_command("synthesize", out), tmp_path)
    assert ran["code"] == 0
    assert "scipy.linalg" in ran["scipy"]
