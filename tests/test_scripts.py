"""The study scripts run end to end at tiny sizes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import takayama

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = {
    "coverage_study.py": ["--model", "uniform:0,1", "--model", "lognormal:0,0.8",
                          "--z", "1", "--sizes", "60,120", "--reps", "20", "--seed", "2"],
    "gap_study.py": ["--model", "exponential:1", "--model", "uniform:0,2",
                     "--weights", "0.6,0.4", "--z", "1", "--n", "200", "--reps", "10",
                     "--seed", "3"],
    "representation_decay.py": ["--model", "lognormal:0,0.8", "--z", "1",
                                "--sizes", "50,100", "--reps", "5", "--seed", "4"],
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    source = os.path.dirname(os.path.dirname(takayama.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *RUNS[script]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
