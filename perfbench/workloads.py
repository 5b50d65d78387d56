"""Workload pools, seeded item lists, item execution and output digests.

Every item calls public ``drtaut`` functions only.  An item is a tuple
``(kind, args)``; its id is ``repr`` of that tuple, which keys the stored
exact references in ``references.json``.

The seed picks inputs from the pools below and shuffles the item order;
the library only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random

# Functions are looked up on their modules at call time, so the wrappers a
# traced pass installs there are the ones called.
from drtaut import chiodo, exact, graphs, intersect, pixton, weightings

WORKLOADS = ("graphs", "dr", "rspin")

# graphs: (g, n, max_edges) enumerated with the automorphism order of every
# graph.  (3, 0) stops at 5 edges: its 6-edge level alone takes about 10 s,
# which would leave too few passes in a run to take a steady median.
GRAPH_TYPES = ((3, 0, 5), (2, 2, None), (1, 4, None), (0, 6, None))

# Known stable-graph counts checked on every run, whatever the references
# say: Schroeder's 236 for (0, 6), and the 42 graphs of (3, 0) less its 5
# trivalent ones, which are exactly those with 6 edges.
LITERATURE_COUNTS = {(3, 0, 5): 42 - 5, (0, 6, None): 236}

# dr: r-free classes, each paired against every complementary psi monomial.
DR_G3_AA = tuple((a, -a) for a in range(1, 6))
DR_G3_N3 = ((2, -1, -1), (3, -2, -1), (4, -2, -2))
DR_G2_N4 = ((3, -1, -1, -1), (2, 2, -1, -3))
DR_G2_AA = tuple((a, -a) for a in range(1, 9))
DR_G2_AA_PICKS = 4

# rspin: two-route checks (g, A, d) of the r-spin constant term.
# The (g=2, d=3) item is a third of a pass; its pool holds mirror images of
# one vector, which cost the same, so the seed does not move wall_s.
RSPIN_G2_D3 = ((1, -1), (-1, 1))
RSPIN_G3 = ((0,),)
RSPIN_G1 = ((1, 1, -2), (1, 2, -3), (2, 2, -4), (2, -1, -1), (3, -1, -2))
RSPIN_G2_D2 = tuple((a, -a) for a in (1, 2, 3))


def pool(workload: str) -> list[tuple]:
    """Every item any seed can draw for ``workload``."""
    if workload == "graphs":
        return [("graphs", gn) for gn in GRAPH_TYPES]
    if workload == "dr":
        items = [("lambda", 4)]
        items += [("dr", (3, A)) for A in DR_G3_AA + DR_G3_N3]
        items += [("dr", (2, A)) for A in DR_G2_N4 + DR_G2_AA]
        return items
    if workload == "rspin":
        items = [("rspin", (2, A, 3)) for A in RSPIN_G2_D3]
        items += [("rspin", (3, A, 3)) for A in RSPIN_G3]
        items += [("rspin", (1, A, 2)) for A in RSPIN_G1]
        items += [("rspin", (2, A, 2)) for A in RSPIN_G2_D2]
        return items
    raise ValueError(f"unknown workload {workload!r}")


def items_for(workload: str, seed: int) -> list[tuple]:
    """The seeded item list of one pass, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "graphs":
        items = [("graphs", gn) for gn in GRAPH_TYPES]
    elif workload == "dr":
        items = [
            ("lambda", 4),
            ("dr", (3, rng.choice(DR_G3_AA))),
            ("dr", (3, rng.choice(DR_G3_N3))),
            ("dr", (2, rng.choice(DR_G2_N4))),
        ]
        items += [("dr", (2, A)) for A in rng.sample(DR_G2_AA, DR_G2_AA_PICKS)]
    elif workload == "rspin":
        items = [
            ("rspin", (2, rng.choice(RSPIN_G2_D3), 3)),
            ("rspin", (3, rng.choice(RSPIN_G3), 3)),
            ("rspin", (1, rng.choice(RSPIN_G1), 2)),
            ("rspin", (2, rng.choice(RSPIN_G2_D2), 2)),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def item_id(item: tuple) -> str:
    return repr(item)


# -- execution --------------------------------------------------------
#
# ``run_item`` is the timed library work; ``digest`` turns its output into
# the byte-stable record compared against the references, outside the
# timed phase.


def run_item(item: tuple):
    kind, args = item
    if kind == "graphs":
        return [
            {
                "graph": graphs.graph_to_json(G),
                "betti": graphs.first_betti(G),
                "aut": graphs.automorphism_order(G),
            }
            for G in graphs.enumerate_stable_graphs(*args)
        ]
    if kind in ("lambda", "dr"):
        if kind == "lambda":
            cls, degree = pixton.lambda_expression(args), args
        else:
            g, A = args
            cls, degree = pixton.dr_cycle(weightings.DRVector(g, A)), g
        monomials = intersect.complementary_psi_monomials(cls.g, cls.n, degree)
        return cls, [intersect.pair_with_psi(cls, m) for m in monomials]
    if kind == "rspin":
        g, A, d = args
        return chiodo.verify_samefreeterm(weightings.DRVector(g, A), d)
    raise ValueError(f"unknown item kind {kind!r}")


def _sha256_json(payload) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(item: tuple, output) -> dict:
    """Byte-stable record of an item's output, as stored in the references."""
    kind, args = item
    if kind == "graphs":
        return {"count": len(output), "sha256": _sha256_json(output)}
    if kind in ("lambda", "dr"):
        cls, pairings = output
        return {
            "terms": cls.n_terms,
            "sha256": _sha256_json(cls.to_json()),
            "pairings": [exact.rat_to_str(v) for v in pairings],
        }
    ok, _report = output
    return {"ok": ok}


def check(item: tuple, record: dict, references: dict) -> str | None:
    """``None`` when the record matches the stored reference, else why not."""
    ref = references.get(item_id(item))
    if ref is None:
        return "no stored reference"
    if record != ref:
        return f"output {record} differs from reference {ref}"
    kind, args = item
    if kind == "graphs" and args in LITERATURE_COUNTS and record["count"] != LITERATURE_COUNTS[args]:
        return f"count {record['count']} differs from the literature value {LITERATURE_COUNTS[args]}"
    if kind == "rspin" and record["ok"] is not True:
        return "the two routes disagree"
    return None
