"""Benchmark of the drtaut pipeline: end-to-end time and memory, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload {graphs,dr,rspin} --seed N --seconds S --trace {0,1}

Every pass runs in a fresh interpreter (``worker.py``), one at a time, and
executes all the seeded items of the workload in order in that process,
the way a library session runs them, then checks every output against the
exact references stored in ``references.json``.

``--trace 0`` repeats passes until ``--seconds`` is used up and reports
the end-to-end metrics as medians over the passes: ``setup_s`` (launch to
inputs ready, sampled on every pass and on extra set-up-only launches),
``wall_s`` (the measured phase of one pass) and ``peak_rss_mb``.  Both
times are normalized to the nominal speed of the reference loop in
``worker.py``; the raw medians are printed next to them.  ``fail_ratio``
is printed as well; in the result line it is ``failed / attempted``.

``--trace 1`` runs one untraced pass and two traced passes of the same
seed.  The traced passes must agree on every count and every output
digest.  It reports the per-layer metrics of ``tracing.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up-only launches before each pass, on top of the one every pass
# makes; spread over the run, they sample set-up time at many moments.
SETUP_PROBES = 2
# Every run, passes included, ends within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def launch(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Set-up is timed with cached bytecode, as an installed CLI runs.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launched = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode, repr(launched), str(SRC)]
    timeout = max(1.0, deadline - launched)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["lifetime_s"] = time.monotonic() - launched
    return report


def problems(passes: list[dict]) -> list[str]:
    return [
        f"{r['item']}: {r['problem']}"
        for p in passes
        for r in p["records"]
        if r["problem"] is not None
    ]


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"


def normalized_setup(report: dict, ref_s: float) -> float:
    return report["setup_s"] * REF_S / ref_s


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    launch(workload, seed, "setup", deadline)  # unmeasured: compiles bytecode on a fresh checkout
    setups: list[float] = []
    raw_setups: list[float] = []
    passes: list[dict] = []
    while True:
        for _ in range(SETUP_PROBES):
            probe = launch(workload, seed, "setup", deadline)
            setups.append(normalized_setup(probe, probe["ref_s"]))
            raw_setups.append(probe["setup_s"])
        passes.append(launch(workload, seed, "pass", deadline))
        typical = statistics.median(p["lifetime_s"] for p in passes)
        if time.monotonic() - start + typical > seconds:
            break
    setups += [normalized_setup(p, p["ref_s"][0]) for p in passes]
    raw_setups += [p["setup_s"] for p in passes]
    walls = [p["norm_wall_s"] for p in passes]
    raw_walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    n_items = len(passes[0]["item_s"])
    for i, rec in enumerate(passes[0]["records"]):
        times = [p["item_s"][i] for p in passes]
        print(f"  item {rec['item']}: raw median {statistics.median(times):.4f} s ({spread(times)})")
    print(f"  setup_s      {metrics['setup_s']:.4f} s   normalized median, {spread(setups)}; raw median {statistics.median(raw_setups):.4f} s")
    print(f"  wall_s       {metrics['wall_s']:.4f} s   normalized median over passes of {n_items} items, {spread(walls)}; raw median {statistics.median(raw_walls):.4f} s")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB   median, {spread(rss)}")
    print(f"  passes wall_s normalized {[round(w, 4) for w in walls]} raw {[round(w, 4) for w in raw_walls]}")
    return passes, metrics


def traced(workload: str, seed: int, deadline: float):
    from tracing import PER_LAYER, layer_metrics

    plain = launch(workload, seed, "pass", deadline)
    runs = [launch(workload, seed, "traced", deadline) for _ in range(2)]

    def fixed(run: dict) -> dict:
        counts = {k: v for k, v in run["counts"].items() if not k.endswith("_s")}
        return {"counts": counts, "digests": [r["digest"] for r in run["records"]]}

    deterministic = fixed(runs[0]) == fixed(runs[1])
    if not deterministic:
        print("  determinism: the two traced passes differ in counts or output digests", file=sys.stderr)

    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    # Counts repeat exactly (checked above); times are medians.
    per_run = [layer_metrics(r["counts"]) for r in runs]
    metrics = {
        name: statistics.median(m[name] for m in per_run) if units[name] == "s" else value
        for name, value in per_run[0].items()
    }
    metrics["run.cpu_s"] = statistics.median(r["cpu_s"] for r in runs)
    metrics["run.unattributed_s"] = statistics.median(r["unattributed_s"] for r in runs)
    metrics["run.trace_overhead_s"] = statistics.median(r["norm_wall_s"] for r in runs) - plain["norm_wall_s"]
    for name, (unit, _sources) in PER_LAYER.items():
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    if runs[0]["missing"]:
        omitted = [name for name in PER_LAYER if name not in metrics]
        print(f"  missing: {', '.join(runs[0]['missing'])}; metrics left out: {', '.join(omitted) or 'none'}")
    print(f"  determinism: {'counts and digests identical' if deterministic else 'MISMATCH'} over two traced passes")
    return [plain] + runs, {k: (v, units[k]) for k, v in metrics.items()}, deterministic


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("graphs", "dr", "rspin"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "drtaut" / "__init__.py").is_file():
        print(f"no drtaut sources under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            passes, metrics, correct = traced(args.workload, args.seed, deadline)
        else:
            passes, values = untraced(args.workload, args.seed, args.seconds, deadline)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            correct = True
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    bad = problems(passes)
    for line in bad:
        print(f"  FAILED {line}", file=sys.stderr)
    attempted = sum(len(p["records"]) for p in passes)
    print(f"  fail_ratio   {len(bad) / attempted:.4g} ratio   ({len(bad)} failed of {attempted} items attempted)")
    result = {
        "correct": correct and not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
