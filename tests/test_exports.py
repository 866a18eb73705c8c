"""Every name a module exports resolves after a star import.

A stale ``__all__`` entry (a name deleted but still listed) only fails when
someone runs ``from vbsa.<module> import *``.  The check runs in a subprocess
so that importing ``vbsa.cli`` here does not make later ``python -m vbsa.cli``
runs warn.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import pkgutil, sys
sys.path.insert(0, sys.argv[1])
import vbsa
for name in ["vbsa"] + [f"vbsa.{m.name}" for m in pkgutil.iter_modules(vbsa.__path__)]:
    exec(f"from {name} import *", {})   # AttributeError on a stale __all__ entry
"""


def test_every_exported_name_resolves():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
