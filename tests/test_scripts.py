"""Every script under scripts/ runs at its smallest size and exits 0.

Each runs in a fresh interpreter from a temporary directory, so a script
that writes files writes them there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script name -> its arguments at the smallest size; "{tmp}" is the run's
# temporary directory
ARGS = {
    "decode_ab.py": ["--n", "40", "--steps", "4", "--rounds", "1", "--policy", "fix-head"],
    "encode_memory.py": ["--n", "300"],
    "rank_top_shapes.py": ["--repeats", "1"],
    "selection_quality.py": ["--m-list", "16", "--trials", "2", "--out", "{tmp}/quality"],
    "store_gather.py": [],
}


def test_every_script_has_smoke_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_script_runs_at_its_smallest_size(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    args = [a.replace("{tmp}", str(tmp_path)) for a in ARGS[name]]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
