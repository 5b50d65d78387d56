"""End-to-end tests of the command-line surface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import drtaut
from drtaut import cli, intersect, pixton, weightings
from drtaut.cli import main
from drtaut.graphs import StableGraph
from drtaut.pixton import dr_cycle, pixton_class
from drtaut.tautclass import DecoratedGraph, TautClass


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassVerbs:
    def test_dr_json_contract(self, capsys):
        code, out, _ = run(capsys, ["dr", "--g", "1", "--a", "1,-1", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["version"] == "tautclass/1"
        assert data["ambient"] == {"g": 1, "n": 2}
        coeffs = sorted(t["coeff"] for t in data["terms"])
        assert coeffs == ["-1/24", "1/2", "1/2"]
        loop_terms = [t for t in data["terms"] if t["graph"]["edges"]]
        assert len(loop_terms) == 1
        assert loop_terms[0]["coeff"] == "-1/24"
        psi_terms = [t for t in data["terms"] if t["psi"]]
        assert {frozenset(t["psi"]) for t in psi_terms} == {
            frozenset({"0"}),
            frozenset({"1"}),
        }

    def test_lambda_table(self, capsys):
        code, out, _ = run(capsys, ["lambda", "--g", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert any(line.startswith("1/1152 * ") for line in lines)
        assert any(line.startswith("1/240 * ") for line in lines)

    def test_pixton_fixed_modulus(self, capsys):
        code, out, _ = run(
            capsys, ["pixton", "--g", "1", "--a", "0", "--d", "1", "--r", "5"]
        )
        assert code == 0
        assert out.startswith("2 * ")

    def test_chiodo_constant(self, capsys):
        code, out, _ = run(
            capsys, ["chiodo", "--g", "1", "--a", "1,-1", "--d", "1", "--constant"]
        )
        assert code == 0
        assert "-1/24" in out and "1/2" in out

    def test_chiodo_fixed_modulus(self, capsys):
        code, out, _ = run(
            capsys,
            ["chiodo", "--g", "1", "--k", "1", "--a", "1", "--d", "1", "--r", "3"],
        )
        assert code == 0
        assert "kappa{v0:[1]}" in out

    def test_graphs(self, capsys):
        code, out, _ = run(capsys, ["graphs", "--g", "2", "--n", "0"])
        assert code == 0
        assert out.strip().endswith("total: 7")
        code, out, _ = run(capsys, ["graphs", "--g", "2", "--n", "0", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["version"] == "graphlist/1"
        assert data["count"] == 7
        assert len(data["graphs"]) == 7


class TestIntegrate:
    def test_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["dr", "--g", "1", "--a", "1,-1", "--json"])
        assert code == 0
        path = tmp_path / "cls.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, ["integrate", "--class", str(path), "--psi", "1,0"])
        assert code == 0
        assert out.strip() == "0"
        code, out, _ = run(
            capsys, ["integrate", "--class", str(path), "--psi", "1,0", "--json"]
        )
        assert code == 0
        assert json.loads(out) == {"version": "integral/1", "value": "0"}

    @pytest.mark.parametrize("kappa, value", [([1, 1], "5"), ([2], "1")], ids=["kappa1-squared", "kappa2"])
    def test_kappa_list_holds_indices(self, capsys, tmp_path, kappa, value):
        # On Mbar_{0,5}, kappa_1^2 = 5 and kappa_2 = 1: a vertex's kappa list
        # holds one index m per factor kappa_m, not exponents.
        graph = {
            "version": "stablegraph/1",
            "vertices": [{"genus": 0, "half_edges": [0, 1, 2, 3, 4]}],
            "edges": [],
            "legs": [{"half_edge": h, "marking": h + 1} for h in range(5)],
        }
        term = {"coeff": "1", "graph": graph, "psi": {}, "kappa": {"0": kappa}}
        payload = {"version": "tautclass/1", "ambient": {"g": 0, "n": 5}, "terms": [term]}
        path = tmp_path / "cls.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, ["integrate", "--class", str(path)]) == (0, value + "\n", "")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["integrate", "--class", "/nonexistent.json"])
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_hodge_triple_format(self, capsys):
        code, out, _ = run(capsys, ["verify", "hodge-triple", "--g", "2"])
        assert code == 0
        assert out == "OK 1/1451520\n"

    def test_samefreeterm(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "samefreeterm", "--g", "1", "--a", "0", "--d", "1"]
        )
        assert code == 0
        assert out.startswith("OK")

    def test_vanishing(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "vanishing", "--g", "1", "--a", "1,-1", "--d", "2"]
        )
        assert code == 0
        assert out.startswith("OK 0 on")

    def test_vanishing_pairs_complementary_degree(self, capsys):
        # dim Mbar_{2,2} = 5: a degree-3 class meets the 3 monomials of degree 2.
        code, out, _ = run(
            capsys, ["verify", "vanishing", "--g", "2", "--a", "1,-1", "--d", "3"]
        )
        assert code == 0
        assert out == "OK 0 on 3 pairings\n"

    def test_vanishing_detects_nonzero_class(self, capsys, monkeypatch):
        # psi_1^2 on Mbar_{1,2} integrates to 1/24 against the degree-0 monomial.
        smooth = DecoratedGraph(StableGraph([1], [], [0, 0]), leg_psi=(2, 0))
        fake = TautClass(1, 2, [(smooth, Fraction(1))])
        monkeypatch.setattr(intersect, "pixton_class", lambda dr, d: fake)
        code, out, _ = run(
            capsys, ["verify", "vanishing", "--g", "1", "--a", "1,-1", "--d", "2"]
        )
        assert code == 1
        assert out == "FAIL 1 nonzero pairings\n  psi^[0, 0] -> 1/24\n"

    def test_socle(self, capsys):
        code, out, _ = run(capsys, ["verify", "socle", "--g", "3"])
        assert code == 0
        assert out.startswith("OK 1/3780")
        assert "socle(3,1,2) = 1/24192" in out

    def test_socle_json_carries_detail_on_success(self, capsys):
        code, out, _ = run(capsys, ["verify", "socle", "--g", "2", "--json"])
        assert code == 0
        assert json.loads(out) == {
            "version": "verify/1",
            "ok": True,
            "value": "1/360",
            "detail": "  socle(2,0,2) = 1/2880\n  socle(2,1,1) = 1/960\n  socle(2,2,0) = 1/2880",
        }

    def test_dr_ab(self, capsys):
        code, out, _ = run(capsys, ["verify", "dr-ab", "--g", "1", "--a", "2"])
        assert code == 0
        assert out == "OK 1/6\n"

    def test_polynomiality(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "polynomiality", "--g", "1", "--a", "2,-2", "--d", "1"]
        )
        assert code == 0
        assert "divisible and verified" in out

    def test_polynomiality_fit_rejected(self, capsys, monkeypatch):
        # A spike at one modulus on the last profile of graphs with several:
        # the first is graph#6, whose fit of key #1 fails verification.
        real = weightings.edge_profile_sums

        def spiked(graph, r, dr, profiles):
            sums = real(graph, r, dr, profiles)
            if r == 4 and len(sums) > 1:
                sums[-1] += 1
            return sums

        monkeypatch.setattr(weightings, "edge_profile_sums", spiked)
        code, out, _ = run(
            capsys, ["verify", "polynomiality", "--g", "2", "--a", "1,-1", "--d", "2"]
        )
        assert code == 1
        first, message = out.splitlines()
        assert first == "FAIL fit rejected"
        assert "P(g=2,n=2,k=0,d=2) graph#6:" in message
        assert message.endswith("fails verification at fresh sample moduli on #1")

    def test_polynomiality_routes_differ(self, capsys, monkeypatch):
        # A unit added to the top entry of every tree-route weight, the
        # coefficient of r^0 there, keeps each sum divisible by r^b, so only
        # the comparison with the sampled route rejects it.  Every graph
        # here has a tree quotient: all 11 profiles are named.
        _tree_route_moved(monkeypatch)
        code, out, _ = run(
            capsys, ["verify", "polynomiality", "--g", "2", "--a", "1,-1", "--d", "2"]
        )
        assert code == 1
        first, message = out.splitlines()
        assert first == "FAIL fit rejected"
        assert message.startswith("sampled and exact polynomials differ on P(g=2,n=2,k=0,d=2) graph#")
        assert "graph#7 profile (1,)" in message
        assert message.count(" profile ") == 11

    def test_polynomiality_bad_fits(self, capsys, monkeypatch):
        # A constant added to every sum keeps it a polynomial in r, but not
        # divisible by r^b on graphs with loops.
        real = weightings.edge_profile_sums

        def shifted(graph, r, dr, profiles):
            return [s + 1 for s in real(graph, r, dr, profiles)]

        monkeypatch.setattr(weightings, "edge_profile_sums", shifted)
        code, out, _ = run(
            capsys, ["verify", "polynomiality", "--g", "2", "--a", "1,-1", "--d", "2"]
        )
        assert code == 1
        first, *lines = out.splitlines()
        assert first == f"FAIL {len(lines)} bad fits"
        assert len(lines) == 8
        for line in lines:
            assert re.fullmatch(
                r"  P\(g=2,n=2,k=0,d=2\) graph#\d+ profile \([\d, ]*\): not divisible by r\^[12]",
                line,
            ), line
        assert "  P(g=2,n=2,k=0,d=2) graph#7 profile (1,): not divisible by r^1" in lines

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, ["--json", "verify", "hodge-triple", "--g", "1"])
        assert code == 0
        assert json.loads(out) == {
            "version": "verify/1",
            "ok": True,
            "value": "1/5760",
        }


def _off_by_one(monkeypatch, module, name):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) + 1)


def _tree_route_moved(monkeypatch):
    # A unit on the r^0 entry of every tree-route weight, which only the
    # comparison with the sampled route sees.
    real = pixton.tree_profile_weights

    def moved(graph, dr, profiles, terms, cap, label=None):
        contracted = real(graph, dr, profiles, terms, cap, label)
        if contracted is None:
            return None
        weights, den = contracted
        return [[*w[:-1], w[-1] + den] for w in weights], den

    monkeypatch.setattr(pixton, "tree_profile_weights", moved)


class TestFailurePath:
    # Each case moves one route of a labelled check; the route's own
    # message, raised by the library under the same fault, is the detail.
    CASES = {
        "hodge-triple": (
            ["verify", "hodge-triple", "--g", "2"],
            "route disagreement",
            lambda mp: _off_by_one(mp, intersect, "_power_sum_linear_coefficient"),
            lambda: intersect.hodge_triple(2),
            "triple-product routes disagree at g=2: ",
        ),
        "dr-ab": (
            ["verify", "dr-ab", "--g", "2", "--a", "3"],
            "route disagreement",
            lambda mp: _off_by_one(mp, intersect, "psi_sum_lambda"),
            lambda: intersect.dr_ab_integral(2, 3),
            "cycle-pairing routes disagree at (g=2, a=3): ",
        ),
        "socle": (
            ["verify", "socle", "--g", "3"],
            "route disagreement",
            lambda mp: _off_by_one(mp, intersect, "socle_integral"),
            lambda: intersect.psi_sum_lambda(3),
            "psi-sum routes disagree at g=3: ",
        ),
        "polynomiality": (
            ["verify", "polynomiality", "--g", "2", "--a", "1,-1", "--d", "2"],
            "fit rejected",
            _tree_route_moved,
            lambda: pixton.verify_polynomiality(weightings.DRVector(2, (1, -1)), 2),
            "sampled and exact polynomials differ on P(g=2,n=2,k=0,d=2) graph#",
        ),
    }

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("check", list(CASES))
    def test_failed_route_prints_fail(self, capsys, monkeypatch, check, as_json):
        argv, label, fault, route, start = self.CASES[check]
        fault(monkeypatch)
        with pytest.raises(ArithmeticError) as raised:
            route()
        message = str(raised.value)
        assert message.startswith(start)
        code, out, err = run(capsys, argv + ["--json"] * as_json)
        assert code == 1
        assert err == ""
        if as_json:
            assert json.loads(out) == {"version": "verify/1", "ok": False, "value": label, "detail": message}
        else:
            assert out == f"FAIL {label}\n{message}\n"


def _one_vertex_class(vertex=None, term=None, **fields):
    """The genus-1 one-leg point class as JSON, with some fields replaced."""
    graph = {
        "version": "stablegraph/1",
        "vertices": [{"genus": 1, "half_edges": [0], **(vertex or {})}],
        "edges": [],
        "legs": [{"half_edge": 0, "marking": 1}],
    }
    terms = [{"coeff": "1", "graph": graph, "psi": {}, "kappa": {}, **(term or {})}]
    return {"version": "tautclass/1", "ambient": {"g": 1, "n": 1}, "terms": terms, **fields}


def _loop_class(edges=([0, 1],), legs=((2, 1), (3, 2)), half_edges=(0, 1, 2, 3), coeff="1"):
    """The genus-1 two-leg loop-graph class as JSON, with some fields replaced."""
    graph = {
        "version": "stablegraph/1",
        "vertices": [{"genus": 0, "half_edges": list(half_edges)}],
        "edges": [list(e) for e in edges],
        "legs": [{"half_edge": h, "marking": m} for h, m in legs],
    }
    terms = [{"coeff": coeff, "graph": graph, "psi": {}, "kappa": {}}]
    return {"version": "tautclass/1", "ambient": {"g": 1, "n": 2}, "terms": terms}


class TestErrorPaths:
    @staticmethod
    def _raised_class(monkeypatch):
        # A class polynomial one degree above its bound.
        real = weightings._class_at

        def raised(observables, residue):
            nums, den = real(observables, residue)
            bound = sum(map(sum, observables)) + len(observables) - 1
            return nums + [0] * (bound + 1 - len(nums)) + [1], den

        monkeypatch.setattr(weightings, "_class_at", raised)
        return "class polynomial above its degree bound"

    @staticmethod
    def _underfit(monkeypatch):
        # Every sampled fit certified with degree bound 0, which the sums
        # of dr --g 3 exceed, so the doubled window fails too.
        real = weightings.certified_fit

        def underfit(evaluate, degree_bound, r_min, **options):
            return real(evaluate, 0, r_min, **options)

        monkeypatch.setattr(weightings, "certified_fit", underfit)
        return "fails verification at fresh sample moduli on #0"

    @staticmethod
    def _not_divisible(monkeypatch):
        # A unit r^1 term added to every weighting sum, which the two-loop
        # graph's sum, divisible by r^2, no longer is.
        real = pixton.profile_weights

        def shifted(graph, dr, profiles, terms, cap, label=None):
            weights, den = real(graph, dr, profiles, terms, cap, label)
            b = graph.n_edges - graph.n_vertices + 1
            for m, w in zip(profiles, weights):
                w[cap - 2 * (sum(m) + len(m)) - b + 1] += den
            return weights, den

        monkeypatch.setattr(pixton, "profile_weights", shifted)
        return "profile (0, 0)"

    @pytest.mark.parametrize(
        "argv, fault",
        [
            (["chiodo", "--g", "2", "--a", "1,-1", "--d", "2", "--constant"], "_raised_class"),
            (["dr", "--g", "2", "--a", "1,-1"], "_raised_class"),
            (["dr", "--g", "3", "--a", "1,-1"], "_underfit"),
            (["dr", "--g", "2", "--a", "1,-1"], "_not_divisible"),
            (["verify", "samefreeterm", "--g", "2", "--a", "1,-1", "--d", "2"], "_raised_class"),
            (["verify", "samefreeterm", "--g", "2", "--a", "1,-1", "--d", "2", "--json"], "_raised_class"),
        ],
        ids=["chiodo-constant", "dr", "dr-fit-rejected", "dr-not-divisible", "samefreeterm", "samefreeterm-json"],
    )
    def test_failed_self_check_exits_one(self, capsys, monkeypatch, argv, fault):
        # A self-check that fails inside the class computation is a
        # verification failure that names the graph, with no traceback and
        # nothing on stdout: a sum above its degree bound, a sampled fit
        # that fails verification, a sum not divisible by r^b.  A check
        # with no failure label, such as samefreeterm, reports it the same
        # way, with --json too.
        ending = getattr(self, fault)(monkeypatch)
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.endswith(ending + "\n")
        assert " graph#" in err
        assert "Traceback" not in err

    def test_power_sum_fit_off_zero_exits_one(self, capsys, monkeypatch):
        # A power sum vanishes at r = 0, so a fit with a nonzero constant
        # term is a disagreement of the Hodge routes, not a usage error.
        monkeypatch.setattr(intersect, "interpolate", lambda samples: ([1, 0, 1], 1))
        code, out, err = run(capsys, ["verify", "hodge-triple", "--g", "2"])
        assert code == 1
        assert out.startswith("FAIL route disagreement\n")
        assert "nonzero constant term" in out
        assert "Traceback" not in out + err

    def test_unbalanced_vector(self, capsys):
        code, _, err = run(capsys, ["dr", "--g", "1", "--a", "1,2"])
        assert code == 2
        assert "defect" in err

    def test_malformed_vector(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dr", "--g", "1", "--a", "1,x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["dr", "--g", "1", "--a", "-1,1"],
            ["dr", "--g", "1", "--a", "-1,1", "--json"],
            ["chiodo", "--g", "2", "--k", "-1", "--a", "-3,-1", "--d", "1", "--constant"],
        ],
        ids=["dr", "dr-json", "chiodo-twisted"],
    )
    def test_vector_starting_with_minus(self, capsys, argv):
        # argparse alone reads "-1,1" as an option and rejects "--a -1,1".
        i = argv.index("--a")
        joined = argv[:i] + [f"--a={argv[i + 1]}"] + argv[i + 2 :]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == run(capsys, joined)
        assert code == 0 and out

    def test_psi_starting_with_minus(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["dr", "--g", "1", "--a", "1,-1", "--json"])
        path = tmp_path / "cls.json"
        path.write_text(out, encoding="utf-8")
        code, out, err = run(capsys, ["integrate", "--class", str(path), "--psi", "-1,2"])
        assert (code, out, err) == run(
            capsys, ["integrate", "--class", str(path), "--psi=-1,2"]
        )
        assert code == 2 and "non-negative" in err

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dr", "--g", "1", "--a", "0", "--bogus"])
        assert exc.value.code == 2

    def test_unstable_type(self, capsys):
        code, _, err = run(capsys, ["lambda", "--g", "1"])
        assert code == 2
        assert "stable" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dr", "--g", "-1", "--a", "1"],
            ["dr", "--g", "0", "--a", "1,1"],
            ["pixton", "--g", "-1", "--a", "1", "--d", "0"],
            ["chiodo", "--g", "-1", "--a", "1", "--d", "0", "--constant"],
            ["verify", "polynomiality", "--g", "-1", "--a", "1", "--d", "0"],
            ["verify", "samefreeterm", "--g", "-1", "--a", "1", "--d", "0"],
        ],
        ids=["dr", "dr-genus-0", "pixton", "chiodo-constant", "polynomiality", "samefreeterm"],
    )
    def test_r_free_unstable_type(self, capsys, argv):
        # Unbalanced as well: the type is checked first, as on the fixed-r
        # routes, so no imbalance of a genus that does not exist is reported.
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "no stable curves" in err

    def test_graphs_unstable_type(self, capsys):
        code, out, err = run(capsys, ["graphs", "--g", "1", "--n", "0"])
        assert code == 2
        assert out == ""
        assert "stable" in err

    def test_vanishing_degree_too_low(self, capsys):
        code, _, err = run(
            capsys, ["verify", "vanishing", "--g", "1", "--a", "1,-1", "--d", "1"]
        )
        assert code == 2
        assert err == "error: vanishing holds for degree > genus; got d=1, g=1\n"

    def test_vanishing_degree_above_dimension(self, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("a class was built")

        monkeypatch.setattr(intersect, "pixton_class", build)
        code, _, err = run(
            capsys, ["verify", "vanishing", "--g", "1", "--a", "1,-1", "--d", "9"]
        )
        assert code == 2
        assert "dim Mbar_{1,2} = 2" in err

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["verify", "vanishing", "--g", "0", "--a", "1,-1", "--d", "1"], "(0, 2)"),
            (["verify", "vanishing", "--g", "-1", "--a", "1", "--d", "1"], "(-1, 1)"),
        ],
        ids=["genus-0", "negative-genus"],
    )
    def test_vanishing_unstable_type(self, capsys, argv, kind):
        # The type is checked before the degree, whose bound 3g - 3 + n is
        # negative on these types.
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"no stable curves of type (g, n) = {kind}" in err

    def test_vanishing_unstable_type_lists_no_monomials(self, capsys, monkeypatch):
        # On (-1, 40) the complementary degree is 33 over 40 parts, far too
        # many monomials to list: the type must be rejected first.
        def listing(*args, **kwargs):
            raise AssertionError("monomials were listed")

        monkeypatch.setattr(cli, "complementary_psi_monomials", listing)
        monkeypatch.setattr(intersect, "complementary_psi_monomials", listing)
        argv = ["verify", "vanishing", "--g", "-1", "--a", ",".join(["0"] * 40), "--d", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: no stable curves of type (g, n) = (-1, 40)")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda", "--g", "-1", "--n", "5"],
            ["dr", "--g", "-1", "--a", "1,-1,0,0"],
        ],
    )
    def test_negative_genus(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "stable" in err

    def test_chiodo_needs_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chiodo", "--g", "1", "--a", "1,-1", "--d", "1"])
        assert exc.value.code == 2

    def test_inadmissible_modulus(self, capsys):
        # Pixton's fixed-r class and Chiodo's pushforward share one rule.
        for verb in ("chiodo", "pixton"):
            argv = [verb, "--g", "1", "--a", "1", "--d", "1", "--r", "2"]
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert err == "error: no r-th roots exist: k(2g-2+n) - sum(a) is not divisible by 2\n", argv

    def test_negative_edge_cap(self, capsys):
        code, out, err = run(
            capsys, ["graphs", "--g", "2", "--n", "0", "--max-edges", "-3"]
        )
        assert code == 2
        assert out == ""
        assert "non-negative" in err

    def test_negative_degree(self, capsys):
        for d in ("-1", "-2"):
            argv = ["pixton", "--g", "1", "--a", "1,-1", "--d", d]
            for extra in ([], ["--r", "5"]):
                code, out, err = run(capsys, argv + extra)
                assert code == 2
                assert out == ""
                assert "degree" in err and "non-negative" in err

    def test_chiodo_constant_negative_degree(self, capsys):
        # Chiodo's routes reject the degree before they build a table: at
        # d = -2 the tables would be cut at a negative degree.
        for d in ("-1", "-2"):
            for argv in (
                ["chiodo", "--g", "2", "--a", "1,-1", "--d", d, "--constant"],
                ["chiodo", "--g", "1", "--a", "1,-1", "--d", d, "--r", "3"],
                ["verify", "samefreeterm", "--g", "1", "--a", "1,-1", "--d", d],
            ):
                code, out, err = run(capsys, argv)
                assert (code, out) == (2, ""), argv
                assert err.strip() == "error: degree must be non-negative", argv

    def test_polynomiality_unbalanced_vector(self, capsys):
        code, out, err = run(
            capsys, ["verify", "polynomiality", "--g", "1", "--a", "1,1", "--d", "1"]
        )
        assert code == 2
        assert out == ""
        assert "defect" in err

    def test_polynomiality_unstable_type(self, capsys):
        code, out, err = run(
            capsys, ["verify", "polynomiality", "--g", "0", "--a", "1,-1", "--d", "1"]
        )
        assert code == 2
        assert out == ""
        assert "stable" in err

    def test_polynomiality_negative_degree(self, capsys):
        code, out, err = run(
            capsys, ["verify", "polynomiality", "--g", "1", "--a", "1,-1", "--d", "-1"]
        )
        assert code == 2
        assert out == ""
        assert "non-negative" in err


    def _integrate(self, capsys, tmp_path, payload):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return run(capsys, ["integrate", "--class", str(path)])

    def test_pairing_too_deep(self, capsys, tmp_path):
        # The one-vertex class of genus 400 paired with psi^1198 runs the
        # correlator recursion past Python's depth limit.
        path = tmp_path / "cls.json"
        payload = _one_vertex_class(vertex={"genus": 400}, ambient={"g": 400, "n": 1})
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, ["integrate", "--class", str(path), "--psi", "1198"])
        assert (code, out) == (2, "")
        assert err == "error: input too large: recursion depth exceeded\n"

    def test_class_edge_names_unlisted_half_edge(self, capsys, tmp_path):
        graph = {
            "version": "stablegraph/1",
            "vertices": [{"genus": 0, "half_edges": [0, 1, 2]}],
            "edges": [[0, 5]],
            "legs": [{"half_edge": 2, "marking": 1}],
        }
        payload = {
            "version": "tautclass/1",
            "ambient": {"g": 1, "n": 1},
            "terms": [{"coeff": "1", "graph": graph, "psi": {}, "kappa": {}}],
        }
        code, out, err = self._integrate(capsys, tmp_path, payload)
        assert code == 2
        assert out == ""
        assert "edges: half-edge 5" in err

    @pytest.mark.parametrize("g, n", [(-3, 0), (1, 0)])
    def test_class_unstable_ambient(self, capsys, tmp_path, g, n):
        payload = {"version": "tautclass/1", "ambient": {"g": g, "n": n}, "terms": []}
        code, out, err = self._integrate(capsys, tmp_path, payload)
        assert code == 2
        assert out == ""
        assert "stable" in err

    def test_class_without_ambient(self, capsys, tmp_path):
        payload = {"version": "tautclass/1", "terms": []}
        code, out, err = self._integrate(capsys, tmp_path, payload)
        assert code == 2
        assert out == ""
        assert "ambient" in err

    def test_class_not_an_object(self, capsys, tmp_path):
        code, out, err = self._integrate(capsys, tmp_path, [{"version": "tautclass/1"}])
        assert code == 2
        assert out == ""
        assert "JSON object" in err

    def test_class_zero_denominator(self, capsys, tmp_path):
        code, out, err = self._integrate(capsys, tmp_path, _loop_class(coeff="1/0"))
        assert code == 2
        assert out == ""
        assert "zero denominator" in err

    # Fraction() reads each of these, as 3/2, 10**400, 3/2, 1, 1000 and 3.
    @pytest.mark.parametrize("coeff", ["1.5", "1e400", " 3/2 ", "+1", "1_000", "\u0663"])
    def test_class_coefficient_not_rational(self, capsys, tmp_path, coeff):
        code, out, err = self._integrate(capsys, tmp_path, _loop_class(coeff=coeff))
        assert code == 2
        assert out == ""
        assert "expected a rational 'p/q' or 'n'" in err

    @pytest.mark.parametrize(
        "coeff, value", [("-7/3", "-7/3"), ("2", "2"), ("0", "0"), ("2/4", "1/2")]
    )
    def test_class_coefficient_forms(self, capsys, tmp_path, coeff, value):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps(_loop_class(coeff=coeff)), encoding="utf-8")
        argv = ["integrate", "--class", str(path), "--psi", "1,0"]
        assert run(capsys, argv) == (0, value + "\n", "")

    @pytest.mark.parametrize(
        "payload, message",
        [
            (_loop_class(legs=((0, 1), (3, 2))), "legs: half-edge 0 is used twice"),
            (_loop_class(edges=([0, 0],)), "edges: half-edge 0 is used twice"),
            (
                _loop_class(legs=((2, 1), (3, 2), (4, 2)), half_edges=(0, 1, 2, 3, 4)),
                "marking: 2 appears twice",
            ),
            (_loop_class(half_edges=(0, 1, 2, 3, 4)), "half_edges: half-edge 4 is not used"),
        ],
        ids=["edge-end-and-leg", "edge-to-itself", "marking-twice", "half-edge-unused"],
    )
    def test_class_half_edge_not_used_once(self, capsys, tmp_path, payload, message):
        code, out, err = self._integrate(capsys, tmp_path, payload)
        assert code == 2
        assert out == ""
        assert message in err

    def test_class_well_formed_loop(self, capsys, tmp_path):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps(_loop_class()), encoding="utf-8")
        assert run(capsys, ["integrate", "--class", str(path), "--psi", "1,0"]) == (0, "1\n", "")

    @pytest.mark.parametrize(
        "payload, field",
        [
            (_one_vertex_class(terms=5), "terms"),
            (_one_vertex_class(vertex={"half_edges": 7}), "half_edges"),
            (_one_vertex_class(term={"kappa": {"3": [1]}}), "kappa"),
            (_one_vertex_class(vertex={"genus": 1.5}), "genus"),
            (_one_vertex_class(ambient={"g": "x", "n": 1}, terms=[]), "ambient.g"),
            # int() reads each of these ids as 0, or fails with its own message:
            # two keys naming one id would silently lose one entry.
            (_one_vertex_class(term={"psi": {"0": 1, "00": 0}}), "psi"),
            (_one_vertex_class(term={"psi": {"-0": 1}}), "psi"),
            (_one_vertex_class(term={"psi": {" 0": 1}}), "psi"),
            (_one_vertex_class(term={"psi": {"0_0": 1}}), "psi"),
            (_one_vertex_class(term={"psi": {"x": 1}}), "psi"),
            (_one_vertex_class(term={"kappa": {"0": [1], "00": []}}), "kappa"),
            (_one_vertex_class(term={"kappa": {"-0": [1]}}), "kappa"),
            (_one_vertex_class(term={"kappa": {"x": [1]}}), "kappa"),
        ],
        ids=[
            "terms-int", "half-edges-int", "kappa-vertex", "genus-float", "ambient-g-str",
            "psi-00", "psi-minus-0", "psi-space-0", "psi-0_0", "psi-x",
            "kappa-00", "kappa-minus-0", "kappa-x",
        ],
    )
    def test_class_wrong_value_type(self, capsys, tmp_path, payload, field):
        code, out, err = self._integrate(capsys, tmp_path, payload)
        assert code == 2
        assert out == ""
        assert f"{field}:" in err


# Documents for the --class fuzz test: an untwisted cycle (edges, loops and
# leg psi exponents) and a twisted class (kappa decorations).
_FUZZ_BASES = [
    json.dumps(dr_cycle(weightings.DRVector(1, (1, -1))).to_json()),
    json.dumps(pixton_class(weightings.DRVector(1, (1, 1), 1), 1).to_json()),
]
# Small integers keep every mutated class cheap to pair.
_FUZZ_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "1", "-3/4", "1/0", "x", "tautclass/1", "stablegraph/1"]),
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "genus", "half_edges", "marking"]), inner, max_size=3),
    max_leaves=6,
)


def _containers(doc, path=()):
    """The path of every object and array in ``doc``, ``doc`` itself first."""
    if isinstance(doc, (dict, list)):
        yield path
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _containers(value, path + (key,))


@st.composite
def _mutated_class(draw):
    """A class document with one to three values replaced, deleted or inserted."""
    doc = json.loads(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        for key in draw(st.sampled_from(list(_containers(doc)))):
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if keys and action == "replace":
            node[draw(st.sampled_from(keys))] = draw(_FUZZ_VALUES)
        elif keys and action == "delete":
            del node[draw(st.sampled_from(keys))]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(keys + ["0", "2", "extra"]))] = draw(_FUZZ_VALUES)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(_FUZZ_VALUES))
    return doc


class TestIntegrateFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(doc=_mutated_class(), psi=st.none() | st.lists(st.integers(0, 3), max_size=3))
    def test_mutated_class_exits_cleanly(self, capsys, tmp_path, doc, psi):
        # Any mutation of a valid document either pairs (exit 0) or is a
        # usage error (exit 2); an exception escaping main is a traceback.
        path = tmp_path / "cls.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["integrate", "--class", str(path)]
        if psi is not None:
            argv += ["--psi", ",".join(map(str, psi)) or "0"]
        code, out, err = run(capsys, argv)
        assert code in (0, 2), (code, err)
        assert "Traceback" not in err
        assert (out != "") == (code == 0)


# One cheap invocation of every verb and every check, with the schema
# version its --json output carries; integrate reads the class file.
EVERY_VERB = [
    (["graphs", "--g", "1", "--n", "1"], "graphlist/1"),
    (["pixton", "--g", "1", "--a", "0", "--d", "1", "--r", "5"], "tautclass/1"),
    (["dr", "--g", "1", "--a", "2,-2"], "tautclass/1"),
    (["lambda", "--g", "2"], "tautclass/1"),
    (["chiodo", "--g", "1", "--a", "1,-1", "--d", "1", "--constant"], "tautclass/1"),
    (["integrate", "--class", "{class}", "--psi", "1,0"], "integral/1"),
    (["verify", "samefreeterm", "--g", "1", "--a", "0", "--d", "1"], "verify/1"),
    (["verify", "vanishing", "--g", "1", "--a", "1,-1", "--d", "2"], "verify/1"),
    (["verify", "hodge-triple", "--g", "1"], "verify/1"),
    (["verify", "dr-ab", "--g", "1", "--a", "2"], "verify/1"),
    (["verify", "socle", "--g", "2"], "verify/1"),
    (["verify", "polynomiality", "--g", "1", "--a", "2,-2", "--d", "1"], "verify/1"),
]


class TestGlobalFlags:
    def test_help_everywhere(self, capsys):
        # The verify group's own page lists every check with its help text.
        for argv in [["verify"]] + [argv for argv, _ in EVERY_VERB]:
            with pytest.raises(SystemExit) as exc:
                main(argv[: 2 if argv[0] == "verify" else 1] + ["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out

    def test_json_byte_stable(self, capsys, tmp_path):
        # --json gives the same bytes wherever it stands: after the verb,
        # before it, and between verify and its check.
        path = tmp_path / "cls.json"
        path.write_text(run(capsys, ["dr", "--g", "1", "--a", "1,-1", "--json"])[1], encoding="utf-8")
        for argv, version in EVERY_VERB:
            argv = [str(path) if a == "{class}" else a for a in argv]
            first = run(capsys, argv + ["--json"])
            assert first == run(capsys, ["--json"] + argv), argv
            if argv[0] == "verify":
                assert first == run(capsys, argv[:1] + ["--json"] + argv[1:]), argv
            code, out, err = first
            assert (code, err) == (0, ""), argv
            data = json.loads(out)
            assert data["version"] == version, argv
            assert data.get("ok", True) is True, argv
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--json", "--threads", "4"])
            assert exc.value.code == 2
            capsys.readouterr()

    def test_launch_loads_no_introspection_modules(self):
        # dataclasses pulls inspect, ast, dis and tokenize into every launch.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drtaut.__file__)))
        code = (
            "import sys, drtaut.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
