import os
import subprocess
import sys
from pathlib import Path

import regiondeblur


def test_every_exported_name_resolves():
    assert [name for name in regiondeblur.__all__ if not hasattr(regiondeblur, name)] == []
    namespace = {}
    exec("from regiondeblur import *", namespace)
    assert set(regiondeblur.__all__) <= set(namespace)


def test_cli_import_loads_no_heavy_scipy_subpackage():
    """`import regiondeblur.cli` in a fresh interpreter loads no scipy module:
    every CLI command and every worker process pays its start-up, and scipy
    would load a second OpenBLAS beside numpy's."""
    src = str(Path(regiondeblur.__file__).resolve().parents[1])
    probe = "import sys, regiondeblur.cli; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "regiondeblur.cli" in loaded
    assert sorted(name for name in loaded if name == "scipy" or name.startswith("scipy.")) == []
