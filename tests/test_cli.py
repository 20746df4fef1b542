import json
import os
import subprocess
import sys

import pytest

import rauzykit.algebra as algebra
import rauzykit.bpa as bpa
from conftest import kbonacci
from oracles import reference_export_csv, reference_render_svg, sympy_factor_list
from rauzykit import (
    IntPolynomial,
    incidence_matrix,
    intersection_cloud,
    projection_operator,
    rauzy_cloud,
    reverse_substitution,
    run_bpa,
    spectral_split,
    substitution_from_dict,
    substitution_to_dict,
)
from rauzykit.cli import main

TRIB = {"alphabet": ["a", "b", "c"], "rules": {"a": "ab", "b": "ac", "c": "a"}}
TRIB_REV = {"alphabet": ["a", "b", "c"], "rules": {"a": "ba", "b": "ca", "c": "a"}}
FAMILY_3 = {"alphabet": ["a", "b", "c"], "rules": {"a": "aaab", "b": "aaac", "c": "a"}}
GROWTH = {"alphabet": ["a", "b", "c"], "rules": {"a": "abc", "b": "a", "c": "ac"}}
FLIPPED = {"alphabet": ["a", "b", "c"], "rules": {"a": "ab", "b": "ca", "c": "a"}}
INTERVAL = {"alphabet": ["a", "b"], "rules": {"a": "aba", "b": "ab"}}
INTERVAL_2 = {"alphabet": ["a", "b"], "rules": {"a": "aba", "b": "ba"}}


def family(i):
    return {"alphabet": ["a", "b", "c"], "rules": {"a": "a" * i + "b", "b": "a" * i + "c", "c": "a"}}


def reversed_rules(data):
    return {"alphabet": data["alphabet"], "rules": {a: w[::-1] for a, w in data["rules"].items()}}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in (("trib", TRIB), ("trib_rev", TRIB_REV), ("fam3", FAMILY_3), ("growth", GROWTH)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_tribonacci_flags(self, files, capsys):
        code, out, _ = run(capsys, ["analyze", files["trib"]])
        assert code == 0
        report = json.loads(out)
        flags = report["classification"]
        assert flags["is_pisot"] and flags["is_irreducible"] and flags["is_unimodular"]
        assert report["seed"] == {"letter": "a", "power": 1}
        assert report["char_poly"]["text"] == "x^3 - x^2 - x - 1"
        # the echoed substitution parses back
        assert substitution_from_dict(report["substitution"]) is not None

    def test_family_char_poly(self, files, capsys):
        code, out, _ = run(capsys, ["analyze", files["fam3"]])
        assert code == 0
        assert json.loads(out)["char_poly"]["text"] == "x^3 - 3x^2 - 3x - 1"

    def test_malformed_json_exits_one(self, files, capsys):
        bad = files["dir"] / "bad.json"
        bad.write_text('{"alphabet": ["a"', encoding="utf-8")
        code, _, err = run(capsys, ["analyze", str(bad)])
        assert code == 1
        assert "line" in err

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 1

    def test_indeterminate_classification_exits_two(self, files, capsys, monkeypatch):
        import rauzykit.cli as cli_module
        from rauzykit import IndeterminateClassification

        def refuse(_):
            raise IndeterminateClassification("a conjugate modulus is within 1e-12 of 1")

        monkeypatch.setattr(cli_module, "classify_pisot", refuse)
        code, _, err = run(capsys, ["analyze", files["trib"]])
        assert code == 2
        assert "indeterminate" in err


class TestReverse:
    def test_writes_reversed_file(self, files, capsys):
        out_path = files["dir"] / "rev.json"
        code, _, _ = run(capsys, ["reverse", files["trib"], str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["rules"] == {"a": "ba", "b": "ca", "c": "a"}


class TestFractal:
    def test_writes_csv_and_svg(self, files, capsys):
        csv_path = files["dir"] / "cloud.csv"
        svg_path = files["dir"] / "cloud.svg"
        code, out, _ = run(
            capsys,
            ["fractal", files["trib"], "--n", "1500", "--csv", str(csv_path), "--svg", str(svg_path)],
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["points"] == 1500 and summary["dimension"] == 2
        assert csv_path.read_text().startswith("n,letter,x1,x2")
        assert svg_path.read_text().startswith("<?xml")


class TestExportFiles:
    @staticmethod
    def inputs(command, files):
        return [files["trib"]] if command == "fractal" else [files["trib"], files["trib_rev"]]

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    @pytest.mark.parametrize("command", ["fractal", "intersect"])
    def test_csv_and_svg_naming_one_file_is_a_usage_error(self, command, spelling, files, capsys):
        out = files["dir"] / "cloud.out"
        other = files["dir"] / "." / "cloud.out" if spelling == "dotted" else out
        args = [command, *self.inputs(command, files), "--n", "100", "--csv", str(out), "--svg", str(other)]
        code, stdout, err = run(capsys, args)
        assert code == 1
        assert "same file" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["fractal", "intersect"])
    def test_exports_match_the_loop_oracle_on_the_library_cloud(self, command, files, capsys):
        trib = substitution_from_dict(TRIB)
        op = projection_operator(spectral_split(incidence_matrix(trib)))
        if command == "fractal":
            cloud = rauzy_cloud(trib, 5000, op)
        else:
            cloud = intersection_cloud(run_bpa(trib, substitution_from_dict(TRIB_REV)), op, 5000)
        out = {name: files["dir"] / f"out.{name}" for name in ("csv", "svg")}
        args = [command, *self.inputs(command, files), "--n", "5000", "--csv", str(out["csv"]), "--svg", str(out["svg"])]
        code, _, _ = run(capsys, args)
        assert code == 0
        ref = {name: files["dir"] / f"ref.{name}" for name in ("csv", "svg")}
        reference_export_csv(cloud, ref["csv"])
        reference_render_svg([cloud], ref["svg"])
        for name in ("csv", "svg"):
            assert out[name].read_bytes() == ref[name].read_bytes()


class TestBpaCommand:
    def test_interval_rules(self, files, capsys):
        s1 = files["dir"] / "s1.json"
        s2 = files["dir"] / "s2.json"
        s1.write_text(json.dumps({"alphabet": ["a", "b"], "rules": {"a": "aba", "b": "ab"}}))
        s2.write_text(json.dumps({"alphabet": ["a", "b"], "rules": {"a": "aba", "b": "ba"}}))
        out_path = files["dir"] / "pairs.json"
        code, out, _ = run(capsys, ["bpa", str(s1), str(s2), "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["rules"] == {"A": "ABA", "B": "C", "C": "CAC"}
        assert payload["char_poly"]["text"] == "x^3 - 4x^2 + 4x - 1"
        assert payload["factor_report"]["p_divides"]
        assert json.loads(out_path.read_text()) == payload

    @pytest.mark.parametrize(
        "first, second",
        [(INTERVAL, INTERVAL_2)] + [(family(i), reversed_rules(family(i))) for i in (1, 2, 3, 4)]
        + [(FLIPPED, reversed_rules(FLIPPED))],
        ids=["interval", "family1", "family2", "family3", "family4", "flipped"],
    )
    def test_factorization_matches_sympy(self, first, second, files, capsys):
        pytest.importorskip("sympy")
        paths = []
        for name, data in (("first", first), ("second", second)):
            path = files["dir"] / f"{name}.json"
            path.write_text(json.dumps(data))
            paths.append(str(path))
        code, out, _ = run(capsys, ["bpa", *paths])
        assert code == 0
        payload = json.loads(out)
        factors = payload["factorization"]
        big = IntPolynomial(tuple(payload["char_poly"]["coeffs"]))
        assert sorted((tuple(f["coeffs"]), f["multiplicity"]) for f in factors) == sympy_factor_list(big)
        report = payload["factor_report"]
        for f in factors:
            assert f["text"] == str(IntPolynomial(tuple(f["coeffs"])))
            assert ("p" in f["tags"]) is (f["coeffs"] == report["p"]["coeffs"])
            assert ("q" in f["tags"]) is (f["coeffs"] == report["q"]["coeffs"])
        if first is FLIPPED:
            # (x - 1)(x + 1)(x^2 - x + 1) p q (x^5 + x^4 - 2x^2 - 3x + 1)
            assert [(f["text"], f["multiplicity"], f["tags"]) for f in factors] == [
                ("x - 1", 1, ["cyclotomic"]),
                ("x + 1", 1, ["cyclotomic"]),
                ("x^2 - x + 1", 1, ["cyclotomic"]),
                ("x^3 - x^2 - x - 1", 1, ["p"]),
                ("x^3 + x^2 + x - 1", 1, ["q"]),
                ("x^5 + x^4 - 2x^2 - 3x + 1", 1, []),
            ]

    def test_analyze_classifies_the_pair_system(self, files, capsys):
        # flipped tribonacci's pair system has 15 letters and a reducible char poly
        first, second = files["dir"] / "flipped.json", files["dir"] / "flipped_rev.json"
        first.write_text(json.dumps(FLIPPED))
        second.write_text(json.dumps(reversed_rules(FLIPPED)))
        pairs = files["dir"] / "pairs.json"
        assert run(capsys, ["bpa", str(first), str(second), "--out", str(pairs)])[0] == 0
        code, out, _ = run(capsys, ["analyze", str(pairs)])
        assert code == 0
        report = json.loads(out)
        assert len(report["substitution"]["alphabet"]) == 15
        assert report["classification"]["is_irreducible"] is False
        assert report["spectral"]["contracting_dimension"] == 2

    def test_no_balanced_prefix_exits_four(self, files, capsys):
        rev_path = files["dir"] / "growth_rev.json"
        assert run(capsys, ["reverse", files["growth"], str(rev_path)])[0] == 0
        code, out, _ = run(
            capsys, ["bpa", files["growth"], str(rev_path), "--prefix-cutoff", "100000"]
        )
        assert code == 4
        assert json.loads(out) == {"status": "no-balanced-prefix", "cutoff": 100000}

    def test_limit_hit_reports_partial_state(self, files, capsys):
        flipped = files["dir"] / "flipped.json"
        flipped.write_text(
            json.dumps({"alphabet": ["a", "b", "c"], "rules": {"a": "ab", "b": "ca", "c": "a"}})
        )
        flipped_rev = files["dir"] / "flipped_rev.json"
        run(capsys, ["reverse", str(flipped), str(flipped_rev)])
        code, out, _ = run(
            capsys, ["bpa", str(flipped), str(flipped_rev), "--max-pairs", "4"]
        )
        assert code == 4
        payload = json.loads(out)
        assert payload["status"] == "non-termination"
        assert payload["limit"] == "max_pairs"
        assert payload["pairs_found"] <= 4

    def test_mismatched_matrices_exit_three(self, files, capsys):
        fib = files["dir"] / "fib.json"
        fib.write_text(json.dumps({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}}))
        code, _, err = run(capsys, ["bpa", files["trib"], str(fib)])
        assert code == 3
        assert "incidence" in err


class TestIntersect:
    def test_chains_bpa_and_cloud(self, files, capsys):
        rev_path = files["dir"] / "trib_rev.json"
        run(capsys, ["reverse", files["trib"], str(rev_path)])
        csv_path = files["dir"] / "inter.csv"
        code, out, _ = run(
            capsys,
            ["intersect", files["trib"], str(rev_path), "--n", "2000", "--csv", str(csv_path)],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pairs"] == 6
        assert payload["points"] == 2000
        assert csv_path.exists()


class TestExactInvariantsComputedOnce:
    @pytest.fixture
    def searches(self, monkeypatch):
        """Factorisations made from here on, and those of one classification of TRIB."""
        calls = []
        factor = algebra.factor_over_z

        def counting(p):
            calls.append(p)
            return factor(p)

        monkeypatch.setattr(algebra, "factor_over_z", counting)
        m = incidence_matrix(substitution_from_dict(TRIB))
        algebra.classify_pisot(m)
        one_chain = list(calls)
        calls.clear()
        assert one_chain
        return calls, one_chain

    @pytest.mark.parametrize("command", ["analyze", "fractal", "intersect"])
    def test_one_factor_search_chain_per_command(self, command, files, capsys, searches):
        calls, one_chain = searches
        args = {
            "analyze": ["analyze", files["trib"]],
            "fractal": ["fractal", files["trib"], "--n", "100"],
            "intersect": ["intersect", files["trib"], files["trib_rev"], "--n", "100"],
        }[command]
        assert run(capsys, args)[0] == 0
        assert calls == one_chain

    def test_bpa_computes_one_pair_char_poly(self, files, capsys, monkeypatch):
        dims = []
        char_poly = bpa.char_poly

        def counting(m):
            dims.append(m.dim)
            return char_poly(m)

        monkeypatch.setattr(bpa, "char_poly", counting)
        code, out, _ = run(capsys, ["bpa", files["trib"], files["trib_rev"]])
        assert code == 0
        assert dims.count(len(json.loads(out)["pairs"])) == 1


class TestRootsComputedOnce:
    @pytest.fixture
    def brackets(self, monkeypatch):
        """Polynomials whose dominant root is bracketed from here on."""
        calls = []
        bracket = algebra.dominant_real_root

        def counting(p):
            calls.append(p)
            return bracket(p)

        monkeypatch.setattr(algebra, "dominant_real_root", counting)
        return calls

    @pytest.mark.parametrize("command", ["analyze", "fractal", "intersect"])
    def test_one_bracket_per_command(self, command, files, capsys, brackets):
        args = {
            "analyze": ["analyze", files["trib"]],
            "fractal": ["fractal", files["trib"], "--n", "100"],
            "intersect": ["intersect", files["trib"], files["trib_rev"], "--n", "100"],
        }[command]
        assert run(capsys, args)[0] == 0
        assert len(brackets) == 1

    def test_reducible_char_poly_adds_only_the_cofactor(self, files, capsys, brackets):
        # one bracket classifies and seeds the conjugates, one seeds the
        # cofactor's roots in the spectral split
        path = files["dir"] / "reducible.json"
        rules = {"z": "gh", "h": "gr", "q": "gh", "g": "zr", "r": "hq"}
        path.write_text(json.dumps({"alphabet": list("zhqgr"), "rules": rules}))
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        assert json.loads(out)["spectral"]["complementary_dimension"] > 0
        assert len(brackets) == 2


class TestRefusals:
    """Bad option values and impossible renderings exit with typed errors."""

    @pytest.mark.parametrize(
        "args",
        [
            ["fractal", "{trib}", "--n", "0"],
            ["intersect", "{trib}", "{trib_rev}", "--n", "-5"],
            ["bpa", "{trib}", "{trib_rev}", "--max-pairs", "0"],
            ["bpa", "{trib}", "{trib_rev}", "--prefix-cutoff", "0"],
            ["intersect", "{trib}", "{trib_rev}", "--max-pair-length", "0"],
        ],
    )
    def test_nonpositive_counts_are_usage_errors(self, args, files, capsys):
        code, out, err = run(capsys, [a.format(**files) for a in args])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err and "range" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "args",
        [["analyze", "{trib}"], ["fractal", "{trib}", "--n", "10"], ["intersect", "{trib}", "{trib_rev}", "--n", "10"]],
        ids=["analyze", "fractal", "intersect"],
    )
    def test_tolerance_must_be_finite_and_positive(self, args, tol, files, capsys):
        code, out, err = run(capsys, [a.format(**files) for a in args] + ["--tol", tol])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err and "--tol" in err

    @pytest.mark.parametrize(
        "rules, message",
        [({"a": [["a"]], "b": "a"}, "unknown letter ['a']"), ({"a": "ac", "b": "a"}, "unknown letter 'c'")],
        ids=["nested-array", "unknown-letter"],
    )
    def test_bad_image_letter_is_a_parse_error(self, rules, message, files, capsys):
        path = files["dir"] / "bad.json"
        path.write_text(json.dumps({"alphabet": ["a", "b"], "rules": rules}), encoding="utf-8")
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert out == ""
        assert err == f"error: {message} (field 'rules.a')\n"

    @pytest.mark.parametrize("command", ["fractal", "intersect"])
    def test_svg_above_two_dimensions_writes_nothing(self, command, files, capsys):
        sub = kbonacci(4)  # contracting dimension 3
        paths = []
        for name, data in (("k4", sub), ("k4_rev", reverse_substitution(sub))):
            path = files["dir"] / f"{name}.json"
            path.write_text(json.dumps(substitution_to_dict(data)))
            paths.append(str(path))
        csv_path, svg_path = files["dir"] / "out.csv", files["dir"] / "out.svg"
        inputs = paths[:1] if command == "fractal" else paths
        args = [command, *inputs, "--n", "100", "--csv", str(csv_path), "--svg", str(svg_path)]
        code, out, err = run(capsys, args)
        assert code == 3
        assert out == "" and "svg" in err
        assert not csv_path.exists() and not svg_path.exists()


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        assert "FAIL" not in out
        lines = [line for line in out.splitlines() if line.startswith("[PASS]")]
        assert len(lines) >= 25


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    import rauzykit

    src = os.path.dirname(os.path.dirname(os.path.abspath(rauzykit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, rauzykit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
    # factoring does not load sympy either: analyze 12-bonacci in a fresh process
    letters = "abcdefghijkl"
    rules = {a: "a" + b for a, b in zip(letters, letters[1:])}
    rules["l"] = "a"
    path = tmp_path / "kbonacci12.json"
    path.write_text(json.dumps({"alphabet": list(letters), "rules": rules}))
    code = (
        "import contextlib, io, sys, rauzykit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = rauzykit.cli.main(['analyze', sys.argv[1]])\n"
        "print(code, 'sympy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "False"]
