"""One pass of a workload in a fresh interpreter; prints one JSON line.

Modes:

* ``setup``: import ``drtaut``, build the seeded inputs, time the speed
  reference once, exit.
* ``pass``: run every item in order in this process, the way a library
  session would, then check each output against the stored references.
* ``traced``: the same pass with the layer wrappers of ``tracing.py``
  installed, reporting the per-layer counters as well.

Usage: ``worker.py WORKLOAD SEED MODE LAUNCHED SRC``.  ``LAUNCHED`` is
the parent's ``time.monotonic()`` just before it started this interpreter;
the monotonic clock is shared by all processes on Linux, so the difference
to the moment the inputs are ready is the set-up time a command-line user
pays.  ``SRC`` is the directory the ``drtaut`` package must come from.
Arguments are positional so that no parser adds to the set-up time.

Speed reference.  On a shared machine the speed of pure Python code moves
by up to half within seconds and between minutes, in step for all code.
A fixed loop, ``reference()``, is timed before the first item, between
items and after the last.  Each item's time is rescaled by ``REF_S``
over the mean of the two reference times around it, giving the time the
item would take on a machine where the loop takes ``REF_S``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

# Time of ``reference()`` at the nominal speed the normalized times refer
# to: about what it takes on an unloaded 2-core x86 VM with Python 3.11.
REF_S = 0.025


def reference() -> float:
    """Best of two timings of a fixed loop of the kinds of work drtaut does.

    Tuples, sorting, dict updates and ``Fraction`` sums.  The collector is
    off while it runs, so the heap the pass has built cannot slow it.
    """
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            acc, seen = Fraction(0), {}
            for i in range(10000):
                key = tuple(sorted((i % 7, i % 5, i % 3)))
                seen[key] = seen.get(key, 0) + 1
                acc += Fraction(i % 11, 1 + i % 13)
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        gc.enable()


def main() -> int:
    workload, seed, mode, launched, src = sys.argv[1:]

    import drtaut

    if Path(drtaut.__file__).resolve().parent.parent != Path(src).resolve():
        print(f"imported drtaut from {drtaut.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads  # imports every layer module of drtaut

    items = workloads.items_for(workload, int(seed))
    setup_s = time.monotonic() - float(launched)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "ref_s": reference()}))
        return 0

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    outputs, errors, item_s, cpu_s = [], [], [], 0.0
    ref_s = [reference()]
    children0 = os.times()
    for item in items:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outputs.append(workloads.run_item(item))
            errors.append(None)
        except Exception as exc:  # a raising item is a failed item; keep going
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        item_s.append(time.perf_counter() - t0)
        cpu_s += time.process_time() - cpu0
        ref_s.append(reference())
    children1 = os.times()
    cpu_s += (children1.children_user - children0.children_user) + (
        children1.children_system - children0.children_system
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall_s = sum(item_s)
    norm_wall_s = sum(
        t * REF_S / ((before + after) / 2) for t, before, after in zip(item_s, ref_s, ref_s[1:])
    )

    references = json.loads((Path(__file__).parent / "references.json").read_text())
    records = []
    for item, output, error in zip(items, outputs, errors):
        record = None if error else workloads.digest(item, output)
        problem = error or workloads.check(item, record, references)
        records.append({"item": workloads.item_id(item), "digest": record, "problem": problem})

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "norm_wall_s": norm_wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "item_s": item_s,
        "ref_s": ref_s,
        "records": records,
    }
    if tracer is not None:
        result["counts"] = tracer.counts
        result["missing"] = tracer.missing
        result["unattributed_s"] = wall_s - tracer.spans_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
