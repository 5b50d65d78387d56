"""The library stands apart from the test oracles."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Run in a fresh interpreter with both src/ and tests/ importable, so an
# import of an oracle from the library would succeed and show here.
CHECK = """
import pkgutil, sys
import drtaut
names = ["drtaut"] + ["drtaut." + m.name for m in pkgutil.iter_modules(drtaut.__path__)]
for name in names:
    __import__(name)
tests = sys.argv[1]
from_tests = sorted(
    name for name, module in list(sys.modules.items())
    if name == "oracles" or (getattr(module, "__file__", None) or "").startswith(tests)
)
with_rpoly = sorted(name for name in names if hasattr(sys.modules[name], "RPoly"))
print(len(names), from_tests, with_rpoly)
"""


def test_library_imports_no_oracle():
    # Every drtaut module imports without pulling in a module of tests/ and
    # holds no RPoly, the oracles' polynomial type.
    run = subprocess.run(
        [sys.executable, "-c", CHECK, str(TESTS)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(TESTS)))},
    )
    assert run.returncode == 0, run.stderr
    modules = len(list((SRC / "drtaut").glob("*.py")))
    assert run.stdout == f"{modules} [] []\n", run.stdout
