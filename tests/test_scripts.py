import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def test_scripts_run_end_to_end(tmp_path):
    """Each script in scripts/ exits 0 on small inputs, so a CLI change that
    breaks one fails here. The 48 px patch covers the 3 x 15 px that the
    estimator needs for the largest demo kernel."""
    for argv in (
        ["make_demo_inputs.py", "--out-dir", "demo", "--scenes", "2", "--side", "96"],
        ["run_pipeline.py", "--inputs", "demo", "--workspace", "ws", "--patch-size", "48",
         "--stride", "48", "--kernel-size", "15", "--epochs", "1"],
        ["calibrate_estimator.py", "--image-side", "64"],
    ):
        result = subprocess.run([sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
                                cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


def test_calibration_script_measures_the_roundtrip_cases(roundtrip_cases, tmp_path):
    """calibrate_estimator.py at its defaults is the calibration source for
    the round-trip acceptance bar, so it prints the sides and similarities
    (to its 4 decimals) of the ten `roundtrip_cases`, in order."""
    result = subprocess.run([sys.executable, str(REPO / "scripts" / "calibrate_estimator.py")],
                            cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    printed = re.findall(r"^case \d+: (\d+)x\d+ kernel, similarity (\d\.\d{4})", result.stdout, re.M)
    assert printed == [(str(c["side"]), f"{c['similarity']:.4f}") for c in roundtrip_cases]
