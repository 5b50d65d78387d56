"""The benchmark's span targets exist: every per-layer metric is reported.

``perfbench/tracing.py`` binds library functions by module and name, and
a target that is renamed or loses a parameter the tracer reads drops its
metrics from a traced result while the pass still succeeds.  Installing
the tracer registers every counter a present target feeds, so the
metrics can be checked with no workload run.  The tracer rebinds library
functions, so it runs in a subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import drtaut

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import json, sys
import drtaut.chiodo, drtaut.cli, drtaut.intersect, drtaut.pixton
from tracing import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
print(json.dumps(sorted(layer_metrics(tracer.counts))))
"""


def test_tracer_reports_every_per_layer_metric():
    src = os.path.dirname(os.path.dirname(drtaut.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(ROOT / "perfbench")]))
    out = subprocess.run(
        [sys.executable, "-c", CODE], env=env, capture_output=True, text=True, check=True
    )
    reported = set(json.loads(out.stdout))
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = [m["name"] for m in per_layer if not m["name"].startswith("run.")]
    assert len(wanted) > 20
    assert [name for name in wanted if name not in reported] == []
