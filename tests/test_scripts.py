import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["decomposition_demo.py", "volume_sweep.py"])
def test_script_runs(name):
    result = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
