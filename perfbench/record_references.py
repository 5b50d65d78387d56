"""Record the exact reference output of every item in every workload pool.

Run from the repository root, once, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record_references.py

It writes ``perfbench/references.json``: per item, the graph count and a
sha256 of the graph list, or the term count, a sha256 of the byte-stable
class JSON and the psi pairings, or the ``ok`` flag of a two-route check.
It also checks the full (3, 0) graph count against the literature's 42.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    references = {}
    for workload in workloads.WORKLOADS:
        for item in workloads.pool(workload):
            record = workloads.digest(item, workloads.run_item(item))
            references[workloads.item_id(item)] = record
            print(workloads.item_id(item), record.get("count", record.get("terms", record.get("ok"))), flush=True)
    # The graphs workload stops (3, 0) at 5 edges; check the full list once.
    from drtaut.graphs import enumerate_stable_graphs

    full = len(enumerate_stable_graphs(3, 0))
    if full != 42:
        print(f"(3, 0) has {full} stable graphs, not the literature's 42", file=sys.stderr)
        return 1
    path = Path(__file__).parent / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
