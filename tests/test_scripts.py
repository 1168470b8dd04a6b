import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_scripts_run_end_to_end(tmp_path):
    """Each script in scripts/ exits 0 on small inputs, so a CLI change that
    breaks one fails here. The 48 px patch covers the 3 x 15 px that the
    estimator needs for the largest demo kernel."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for argv in (
        ["make_demo_inputs.py", "--out-dir", "demo", "--scenes", "2", "--side", "96"],
        ["run_pipeline.py", "--inputs", "demo", "--workspace", "ws", "--patch-size", "48",
         "--stride", "48", "--kernel-size", "15", "--epochs", "1"],
        ["calibrate_estimator.py", "--image-side", "64"],
    ):
        result = subprocess.run([sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
                                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
