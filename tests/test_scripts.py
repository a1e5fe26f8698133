import csv
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize("script, args, first_column", [
    ("run_expansion_demo.py", ["--N", "16"], "tau"),
    ("run_admissibility_sweep.py", ["--n-rs", "4", "--n-alpha", "3"], "r_s"),
    ("run_flow_study.py", ["--n-alpha", "2"], "alpha"),
], ids=["expansion-demo", "admissibility-sweep", "flow-study"])
def test_script_writes_csv(tmp_path, script, args, first_column):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args,
         "--out", str(out)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header[0] == first_column
