import os
import subprocess
import sys
from pathlib import Path

import fuzzyspectrum

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_every_demo_runs_cleanly(tmp_path):
    # demos 03 and 04 write surfaces/ and documents/ into the current
    # directory, so each runs in a scratch one
    package_root = str(Path(fuzzyspectrum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) == 4
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
        assert proc.stderr == "", demo.name
