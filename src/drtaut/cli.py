"""Command-line interface to the graph-sum calculus.

One verb per library entry point: ``graphs`` enumerates stable graphs,
``pixton`` and ``dr`` compute the weighting graph sums, ``lambda`` the
Hodge class expressions, ``chiodo`` the r-th root pushforward, and
``integrate`` pairs a serialized class against a psi monomial.  The
``verify`` verb groups the consistency checks.  The shared options
(``--json``, ``--g``, the vector ``--a``, ``--d``, ``--k``) come from a
chain of parent parsers, each adding one to the one before, and a verb
declares only its own options.

Exit codes: 0 success, 1 verification failure, 2 usage error (malformed
vectors, unstable types, inadmissible congruences, inputs whose recursion
runs too deep, such as psi pairings in genus in the hundreds).  Only
:func:`main` maps exceptions to exit codes.  An ``ArithmeticError`` is a
failed self-check or a disagreement of two routes: a check that declares
a ``failure`` label prints ``FAIL <label>`` and the route's message, and
every other verb prints ``error:`` on stderr.  ``--json`` switches every
verb to schema-versioned, byte-stable JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chiodo import chiodo_constant, chiodo_pushforward, verify_samefreeterm
from .exact import rat_to_str
from .graphs import automorphism_order, enumerate_stable_graphs, first_betti, graph_to_json
from .intersect import (
    complementary_psi_monomials,
    dr_ab_integral,
    hodge_triple,
    pair_with_psi,
    psi_sum_lambda,
    socle_integral,
    vanishing_probe,
)
from .pixton import (
    dr_cycle,
    lambda_expression,
    pixton_class,
    pixton_fixed_r,
    verify_polynomiality,
)
from .tautclass import TautClass
from .weightings import DRVector

__all__ = ["main"]

SCHEMA_GRAPHLIST = "graphlist/1"
SCHEMA_VERIFY = "verify/1"
SCHEMA_INTEGRAL = "integral/1"


def parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def emit_class(args: argparse.Namespace, cls: TautClass) -> None:
    if getattr(args, "json", False):
        emit_json(cls.to_json())
    else:
        print(cls.text())


def emit_verify(args: argparse.Namespace, ok: bool, value: str, detail: str = "") -> int:
    """Print a verification outcome and return the exit code."""
    if getattr(args, "json", False):
        payload = {"version": SCHEMA_VERIFY, "ok": ok, "value": value}
        if detail:
            payload["detail"] = detail
        emit_json(payload)
    else:
        print(f"OK {value}" if ok else f"FAIL {value}")
        if detail:
            print(detail)
    return 0 if ok else 1


# -- verb implementations ---------------------------------------------


def ramification(args: argparse.Namespace) -> DRVector:
    """The verb's ramification data; a verb without ``--k`` is untwisted."""
    return DRVector(args.g, args.a, getattr(args, "k", 0))


def cmd_graphs(args) -> int:
    graphs = enumerate_stable_graphs(args.g, args.n, max_edges=args.max_edges)
    if getattr(args, "json", False):
        emit_json(
            {
                "version": SCHEMA_GRAPHLIST,
                "ambient": {"g": args.g, "n": args.n},
                "count": len(graphs),
                "graphs": [
                    {
                        "graph": graph_to_json(G),
                        "betti": first_betti(G),
                        "aut": automorphism_order(G),
                    }
                    for G in graphs
                ],
            }
        )
    else:
        for G in graphs:
            print(
                f"genera={G.genera} edges={G.edges} legs={G.legs} "
                f"betti={first_betti(G)} aut={automorphism_order(G)}"
            )
        print(f"total: {len(graphs)}")
    return 0


def cmd_pixton(args) -> int:
    dr = ramification(args)
    if args.r is not None:
        cls = pixton_fixed_r(dr, args.d, args.r)
    else:
        cls = pixton_class(dr, args.d)
    emit_class(args, cls)
    return 0


def cmd_dr(args) -> int:
    emit_class(args, dr_cycle(ramification(args)))
    return 0


def cmd_lambda(args) -> int:
    emit_class(args, lambda_expression(args.g, args.n))
    return 0


def cmd_chiodo(args) -> int:
    dr = ramification(args)
    if args.constant:
        cls = chiodo_constant(dr, args.d)
    else:
        cls = chiodo_pushforward(dr, args.d, args.r)
    emit_class(args, cls)
    return 0


def cmd_integrate(args) -> int:
    with open(args.class_file, "r", encoding="utf-8") as fh:
        cls = TautClass.from_json(json.load(fh))
    exponents = list(args.psi) if args.psi is not None else [0] * cls.n
    value = pair_with_psi(cls, exponents)
    if getattr(args, "json", False):
        emit_json({"version": SCHEMA_INTEGRAL, "value": rat_to_str(value)})
    else:
        print(rat_to_str(value))
    return 0


def cmd_verify_samefreeterm(args) -> int:
    ok, report = verify_samefreeterm(ramification(args), args.d)
    return emit_verify(args, ok, "constant terms agree" if ok else "", report)


def cmd_verify_vanishing(args) -> int:
    # The probe checks the type and the degree window before any monomial
    # is listed: an unstable type with many parts has a vast monomial list.
    dr = ramification(args)
    values = vanishing_probe(dr, args.d)
    sets = complementary_psi_monomials(dr.genus, dr.n, args.d)
    bad = [
        f"  psi^{list(e)} -> {rat_to_str(v)}"
        for e, v in zip(sets, values)
        if v != 0
    ]
    ok = not bad
    return emit_verify(
        args,
        ok,
        f"0 on {len(sets)} pairings" if ok else f"{len(bad)} nonzero pairings",
        "" if ok else "\n".join(bad),
    )


def cmd_verify_hodge_triple(args) -> int:
    return emit_verify(args, True, rat_to_str(hodge_triple(args.g)))


def cmd_verify_dr_ab(args) -> int:
    return emit_verify(args, True, rat_to_str(dr_ab_integral(args.g, args.a)))


def cmd_verify_socle(args) -> int:
    g = args.g
    lines = [
        f"  socle({g},{p},{g - p}) = {rat_to_str(socle_integral(g, p, g - p))}"
        for p in range(g + 1)
    ]
    return emit_verify(args, True, rat_to_str(psi_sum_lambda(g)), "\n".join(lines))


def cmd_verify_polynomiality(args) -> int:
    fits, bad = verify_polynomiality(ramification(args), args.d)
    return emit_verify(
        args,
        not bad,
        f"{len(bad)} bad fits" if bad else f"{fits} fits divisible and verified",
        "\n".join(f"  {line}" for line in bad),
    )


# -- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Each parent adds one shared option to the one before it: a verb takes
    # the shortest chain that carries its shared options and declares only
    # its own.  --d comes before --k because vanishing takes no twist.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit schema-versioned JSON on stdout",
    )
    genus = argparse.ArgumentParser(add_help=False, parents=[common])
    genus.add_argument("--g", type=int, required=True)
    vector = argparse.ArgumentParser(add_help=False, parents=[genus])
    vector.add_argument("--a", type=parse_vector, required=True)
    degree = argparse.ArgumentParser(add_help=False, parents=[vector])
    degree.add_argument("--d", type=int, required=True)
    twisted = argparse.ArgumentParser(add_help=False, parents=[degree])
    twisted.add_argument("--k", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="drtaut",
        description="Exact graph-sum calculus for ramification cycles.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("graphs", parents=[genus], help="enumerate stable graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-edges", type=int, default=None)
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser("pixton", parents=[twisted], help="weighting graph-sum class")
    p.add_argument("--r", type=int, default=None, help="fixed modulus (default: r-free constant term)")
    p.set_defaults(func=cmd_pixton)

    sub.add_parser("dr", parents=[vector], help="double ramification cycle").set_defaults(func=cmd_dr)

    p = sub.add_parser("lambda", parents=[genus], help="Hodge class expression")
    p.add_argument("--n", type=int, default=0)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("chiodo", parents=[twisted], help="r-th root pushforward class")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--r", type=int, default=None, help="evaluate at this modulus")
    mode.add_argument(
        "--constant", action="store_true", help="r-constant term after scaling"
    )
    p.set_defaults(func=cmd_chiodo)

    p = sub.add_parser("integrate", parents=[common], help="pair a class with psi powers")
    p.add_argument("--class", dest="class_file", required=True, metavar="FILE")
    p.add_argument("--psi", type=parse_vector, default=None, help="exponents b_1,...,b_n")
    p.set_defaults(func=cmd_integrate)

    v = sub.add_parser("verify", parents=[common], help="consistency checks")
    vsub = v.add_subparsers(dest="check", required=True)

    # A check with a ``failure`` label reports an ArithmeticError from its
    # routes as ``FAIL <label>``; in any other check it is an ``error:``.
    vsub.add_parser(
        "samefreeterm", parents=[twisted], help="two constant-term routes agree"
    ).set_defaults(func=cmd_verify_samefreeterm)
    vsub.add_parser(
        "vanishing", parents=[degree], help="above-genus pairings vanish"
    ).set_defaults(func=cmd_verify_vanishing)
    vsub.add_parser(
        "hodge-triple", parents=[genus], help="two-route triple Hodge integral"
    ).set_defaults(func=cmd_verify_hodge_triple, failure="route disagreement")
    p = vsub.add_parser("dr-ab", parents=[genus], help="two-route two-point cycle pairing")
    p.add_argument("--a", type=int, required=True, help="ramification order")
    p.set_defaults(func=cmd_verify_dr_ab, failure="route disagreement")
    vsub.add_parser(
        "socle", parents=[genus], help="socle values against the psi-sum identity"
    ).set_defaults(func=cmd_verify_socle, failure="route disagreement")
    vsub.add_parser(
        "polynomiality", parents=[twisted], help="certified fits divisible by r^betti"
    ).set_defaults(func=cmd_verify_polynomiality, failure="fit rejected")

    return parser


def _join_vector_values(argv: list[str]) -> list[str]:
    """Attach a value that starts with a minus sign to the vector option before it.

    argparse takes ``-1,1`` for an option, since it is not a single
    negative number, so ``--a -1,1`` becomes ``--a=-1,1``.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--a", "--psi") and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_vector_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        if getattr(args, "failure", None):
            return emit_verify(args, False, args.failure, str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input too large: recursion depth exceeded", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
