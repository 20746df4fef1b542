import errno
import hashlib
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import rauzykit.algebra as algebra
import rauzykit.bpa as bpa
import rauzykit.cli as cli
import rauzykit.selfcheck as selfcheck
from conftest import kbonacci, package_env
from oracles import reference_export_csv, reference_render_svg, sympy_factor_list
from rauzykit import (
    IntPolynomial,
    NotFound,
    NotPisot,
    classify_pisot,
    incidence_matrix,
    intersection_cloud,
    projection_operator,
    rauzy_cloud,
    reverse_substitution,
    run_bpa,
    spectral_split,
    stream_for,
    substitution_from_dict,
    substitution_to_dict,
)
from rauzykit.cli import main
from rauzykit.selfcheck import CheckResult

TRIB = {"alphabet": ["a", "b", "c"], "rules": {"a": "ab", "b": "ac", "c": "a"}}
TRIB_REV = {"alphabet": ["a", "b", "c"], "rules": {"a": "ba", "b": "ca", "c": "a"}}
FAMILY_3 = {"alphabet": ["a", "b", "c"], "rules": {"a": "aaab", "b": "aaac", "c": "a"}}
GROWTH = {"alphabet": ["a", "b", "c"], "rules": {"a": "abc", "b": "a", "c": "ac"}}
FLIPPED = {"alphabet": ["a", "b", "c"], "rules": {"a": "ab", "b": "ca", "c": "a"}}
FLIPPED_MULTI = {"alphabet": ["a1", "b1", "c1"], "rules": {"a1": ["a1", "b1"], "b1": ["c1", "a1"], "c1": ["a1"]}}
INTERVAL = {"alphabet": ["a", "b"], "rules": {"a": "aba", "b": "ab"}}
INTERVAL_2 = {"alphabet": ["a", "b"], "rules": {"a": "aba", "b": "ba"}}
FIB = {"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}}
FIB_REV = {"alphabet": ["a", "b"], "rules": {"a": "ba", "b": "a"}}
DET_2 = {"alphabet": ["a", "b"], "rules": {"a": "ba", "b": "babb"}}
REPEATED_COFACTOR = {"alphabet": list("abcde"), "rules": {"a": "eaa", "b": "a", "c": "ccb", "d": "c", "e": "bcd"}}


def family(i):
    return {"alphabet": ["a", "b", "c"], "rules": {"a": "a" * i + "b", "b": "a" * i + "c", "c": "a"}}


def reversed_rules(data):
    return {"alphabet": data["alphabet"], "rules": {a: w[::-1] for a, w in data["rules"].items()}}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in (
        ("trib", TRIB), ("trib_rev", TRIB_REV), ("fam3", FAMILY_3), ("growth", GROWTH), ("fib", FIB), ("fib_rev", FIB_REV),
        ("flipped", FLIPPED), ("flipped_rev", reversed_rules(FLIPPED)), ("det2", DET_2), ("det2_rev", reversed_rules(DET_2)),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    paths["bad"] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text('{"alphabet": ["a"', encoding="utf-8")
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
        code, _, err = run(capsys, ["analyze", files["bad"]])
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


    def test_salem_quartic_is_decided_not_pisot(self, files, capsys):
        # x^4 - x^3 - x^2 - x + 1 has conjugates on the unit circle: analyze
        # decides "not Pisot" exactly, and fractal refuses the non-Pisot input
        salem = files["dir"] / "salem.json"
        rules = {"a": "c", "b": "a", "c": "dba", "d": "ad"}
        salem.write_text(json.dumps({"alphabet": list(rules), "rules": rules}), encoding="utf-8")
        code, out, _ = run(capsys, ["analyze", str(salem)])
        assert code == 0
        assert json.loads(out)["classification"]["is_pisot"] is False
        code, _, err = run(capsys, ["fractal", str(salem), "--n", "100"])
        assert code == 3
        assert "Pisot" in err


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

    def test_label_counts_are_the_bincount_of_the_letters(self, files, capsys):
        code, out, _ = run(capsys, ["fractal", files["trib"], "--n", "10000"])
        assert code == 0
        trib = substitution_from_dict(TRIB)
        counts = np.bincount(stream_for(trib).prefix_indices(10 ** 4), minlength=3).tolist()
        expected = sorted(zip(trib.alphabet, counts))
        assert list(json.loads(out)["labels"].items()) == expected
        assert sum(counts) == 10 ** 4


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


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["fork", "no-fork"])
def fork(request, monkeypatch):
    """Run a test with os.fork, and as on a platform without it."""
    if request.param == "fork":
        if not hasattr(os, "fork"):
            pytest.skip("os.fork is missing on this platform")
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    return request.param


class TestConcurrentExport:
    """With --csv and --svg, a forked child writes the SVG while the CSV is
    written: the files, the exit codes and the errors are those of writing
    the SVG and then the CSV in one process."""

    INPUTS = {
        "fractal": ["trib"],
        "fractal-1d": ["fib"],
        "intersect": ["trib", "trib_rev"],
        "intersect-1d": ["fib", "fib_rev"],
    }
    EXPORT = ["--n", "5000", "--csv", "{dir}/out.csv", "--svg", "{dir}/out.svg"]

    @classmethod
    def args(cls, case, files, n, **paths):
        args = [case.split("-")[0], *(files[name] for name in cls.INPUTS[case]), "--n", str(n)]
        for option, path in paths.items():
            args += [f"--{option}", str(path)]
        return args

    @pytest.fixture(autouse=True)
    def no_child_before(self):
        # a child left by another test would answer the waitpid checks here
        assert_no_child_left()

    @pytest.mark.parametrize("case", list(INPUTS))
    def test_both_files_match_each_written_alone(self, case, fork, files, capsys):
        # 4097 points: two blocks of the writers' 4096 rows per format call
        d = files["dir"]
        both = {"csv": d / "both.csv", "svg": d / "both.svg"}
        code, out, err = run(capsys, self.args(case, files, 4097, **both))
        assert (code, err) == (0, "")
        assert json.loads(out)["points"] == 4097
        assert_no_child_left()
        for name, path in both.items():
            alone = d / f"alone.{name}"
            assert run(capsys, self.args(case, files, 4097, **{name: alone}))[0] == 0
            assert sha256(path) == sha256(alone)

    @pytest.mark.parametrize("case", ["fractal", "intersect"])
    def test_an_svg_that_cannot_be_opened_writes_no_file(self, case, fork, files, capsys):
        d = files["dir"]
        before = sorted(d.iterdir())
        svg = d / "missing" / "out.svg"
        code, out, err = run(capsys, self.args(case, files, 5000, csv=d / "out.csv", svg=svg))
        assert code == 1 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{svg}'\n"
        assert sorted(d.iterdir()) == before
        assert_no_child_left()

    @pytest.mark.parametrize("case", ["fractal", "intersect"])
    def test_a_csv_that_cannot_be_opened_leaves_the_svg_in_full(self, case, fork, files, capsys):
        d = files["dir"]
        csv = d / "missing" / "out.csv"
        code, out, err = run(capsys, self.args(case, files, 5000, csv=csv, svg=d / "out.svg"))
        assert code == 1 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{csv}'\n"
        assert not csv.parent.exists()
        assert_no_child_left()
        assert run(capsys, self.args(case, files, 5000, svg=d / "alone.svg"))[0] == 0
        assert sha256(d / "out.svg") == sha256(d / "alone.svg")

    @pytest.mark.parametrize(
        "error, exit_code, message",
        [
            (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 1, f"[Errno 28] {os.strerror(errno.ENOSPC)}"),
            (NotPisot("raised while writing"), 3, "raised while writing"),
        ],
        ids=["os-error", "rauzykit-error"],
    )
    def test_an_error_while_writing_the_svg_is_raised_by_the_command(
        self, error, exit_code, message, fork, files, capsys, monkeypatch
    ):
        def failing_render_svg(clouds, path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("<?xml")
            raise error

        monkeypatch.setattr(cli, "render_svg", failing_render_svg)
        d = files["dir"]
        code, out, err = run(capsys, self.args("fractal", files, 5000, csv=d / "out.csv", svg=d / "out.svg"))
        assert (code, out, err) == (exit_code, "", f"error: {message}\n")
        assert (d / "out.svg").read_text() == "<?xml"
        # the CSV is written beside the SVG, or not begun when both run here
        assert (d / "out.csv").exists() == (fork == "fork")
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing on this platform")
    def test_a_killed_svg_writer_fails_the_command(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "render_svg", lambda clouds, path: os.kill(os.getpid(), signal.SIGKILL))
        d = files["dir"]
        code, out, err = run(capsys, self.args("fractal", files, 100, csv=d / "out.csv", svg=d / "out.svg"))
        assert (code, out) == (1, "")
        assert err == f"error: the SVG writer exited with status {-signal.SIGKILL}\n"
        assert_no_child_left()

    @pytest.mark.parametrize(
        "args, code",
        [
            (["fractal", "{trib}", *EXPORT], 0),
            (["intersect", "{trib}", "{trib_rev}", *EXPORT], 0),
            (["analyze", "{bad}"], 1),
            (["fractal", "{det2}"], 3),
            (["bpa", "{flipped}", "{flipped_rev}", "--max-pairs", "2"], 4),
        ],
        ids=["fractal", "intersect", "malformed", "non-unimodular", "limit-hit"],
    )
    def test_the_entry_point_prints_and_exits_as_main_returns(self, args, code, files, capsys):
        # piped stdout is block-buffered: a child that flushed what it
        # inherited, or returned into the command, would print a second
        # object; and run() passes main's code to sys.exit
        env = package_env()
        args = [a.format(**files) for a in args]
        proc = subprocess.run(
            [sys.executable, "-c", "from rauzykit.cli import run; run()", *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.returncode == code
        if code in (0, 4):
            json.loads(proc.stdout)  # a second object is "Extra data"
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, args)


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
        pairs = files["dir"] / "pairs.json"
        assert run(capsys, ["bpa", files["flipped"], files["flipped_rev"], "--out", str(pairs)])[0] == 0
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

    @pytest.mark.parametrize(
        "data, longer",
        [(FLIPPED, []), (FLIPPED_MULTI, []), (substitution_to_dict(kbonacci(17)), ["--max-pairs", "40"])],
        ids=["single", "multi", "17-letters"],
    )
    def test_limit_hit_reports_partial_state(self, data, longer, files, capsys):
        # a limit report writes its pairs as the complete report does: strings
        # over one-character letters, arrays of names otherwise; its pairs are
        # the first of a longer run, in that run's order (17 letters make
        # two-byte letter-pair codes)
        first, second = files["dir"] / "first.json", files["dir"] / "second.json"
        first.write_text(json.dumps(data))
        run(capsys, ["reverse", str(first), str(second)])
        code, out, _ = run(capsys, ["bpa", str(first), str(second), "--max-pairs", "5"])
        assert code == 4
        payload = json.loads(out)
        assert (payload["status"], payload["limit"], payload["pairs_found"]) == ("non-termination", "max_pairs", 5)
        code, out, _ = run(capsys, ["bpa", str(first), str(second), *longer])
        full = json.loads(out)
        assert (code, full.get("pairs_found")) == ((4, 40) if longer else (0, None))
        assert list(payload["pairs"].items()) == list(full["pairs"].items())[:5]

    def test_mismatched_matrices_exit_three(self, files, capsys):
        code, _, err = run(capsys, ["bpa", files["trib"], files["fib"]])
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

    @pytest.mark.parametrize("command", ["fractal", "intersect"])
    def test_non_unimodular_input_exits_three(self, command, files, capsys):
        # a -> ba, b -> babb: Pisot, char poly x^2 - 4x + 2, det 2; three pairs
        # against its reverse, and both commands refuse it before writing
        csv_path = files["dir"] / "out.csv"
        paths = [files["det2"]] if command == "fractal" else [files["det2"], files["det2_rev"]]
        code, out, err = run(capsys, [command, *paths, "--n", "100", "--csv", str(csv_path)])
        assert code == 3
        assert out == "" and not csv_path.exists()
        assert err.splitlines() == ["error: fractal generation needs a unimodular Pisot substitution"]

    def test_rules_are_those_of_bpa_past_twenty_six_pairs(self, files, capsys):
        # 59 pairs: names past Z have two letters, so rules are arrays of names
        first, second = files["dir"] / "c8.json", files["dir"] / "c8_other.json"
        first.write_text(json.dumps({"alphabet": ["a", "b", "c"], "rules": {"a": "baa", "b": "acb", "c": "a"}}))
        second.write_text(json.dumps({"alphabet": ["a", "b", "c"], "rules": {"a": "baa", "b": "cab", "c": "a"}}))
        paths = [str(first), str(second)]
        code, out, _ = run(capsys, ["bpa", *paths])
        assert code == 0
        bpa_rules = json.loads(out)["rules"]
        code, out, _ = run(capsys, ["intersect", *paths, "--n", "100"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pairs"] == len(bpa_rules) == 59
        assert payload["rules"] == bpa_rules
        assert payload["rules"]["AB"] == ["AS", "D", "V"]
        pairs = substitution_from_dict({"alphabet": list(bpa_rules), "rules": payload["rules"]})
        assert substitution_to_dict(pairs)["rules"] == bpa_rules

    def test_limit_hit_prints_the_bpa_payload(self, files, capsys):
        paths = [files["flipped"], files["flipped_rev"]]
        bpa_code, bpa_out, _ = run(capsys, ["bpa", *paths, "--max-pairs", "2"])
        code, out, err = run(capsys, ["intersect", *paths, "--n", "100", "--max-pairs", "2"])
        assert code == bpa_code == 4
        assert out == bpa_out and err == ""
        assert json.loads(out)["limit"] == "max_pairs"


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

    def test_reducible_char_poly_brackets_once(self, files, capsys, brackets):
        # one bracket classifies and seeds the conjugates; the spectral split
        # reads the cofactor's part off the factorisation and finds no root
        path = files["dir"] / "reducible.json"
        rules = {"z": "gh", "h": "gr", "q": "gh", "g": "zr", "r": "hq"}
        path.write_text(json.dumps({"alphabet": list("zhqgr"), "rules": rules}))
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        assert json.loads(out)["spectral"]["complementary_dimension"] > 0
        assert len(brackets) == 1


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

    @pytest.mark.parametrize("command", ["bpa", "intersect"])
    @pytest.mark.parametrize(
        "second",
        [
            {"alphabet": ["b", "a"], "rules": {"a": "aab", "b": "abb"}},
            {"alphabet": ["x", "y"], "rules": {"x": "xxy", "y": "xyy"}},
        ],
        ids=["letters-reordered", "other-letters"],
    )
    def test_mismatched_alphabets_exit_three(self, command, second, files, capsys):
        # both incidence matrices are [[2, 1], [1, 2]], so only the alphabets
        # tell the two substitutions apart
        first, other = files["dir"] / "first.json", files["dir"] / "second.json"
        first.write_text(json.dumps({"alphabet": ["a", "b"], "rules": {"a": "aab", "b": "abb"}}))
        other.write_text(json.dumps(second))
        code, out, err = run(capsys, [command, str(first), str(other)])
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["error: the substitutions have different alphabets (letters or their order)"]

    @pytest.mark.parametrize(
        "args",
        [["analyze", "{trib}"], ["fractal", "{trib}", "--n", "10"], ["intersect", "{trib}", "{trib_rev}", "--n", "10"]],
        ids=["analyze", "fractal", "intersect"],
    )
    def test_tol_is_an_unknown_option(self, args, files, capsys):
        # the projector checks use a fixed bound; there is no tolerance to set
        code, out, err = run(capsys, [a.format(**files) for a in args] + ["--tol", "1e-10"])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err and "No such option '--tol'" in err

    @pytest.mark.parametrize("command", ["analyze", "fractal"])
    @pytest.mark.parametrize(
        "data, dimension", [(substitution_to_dict(kbonacci(5)), 4), (REPEATED_COFACTOR, 2)], ids=["k5", "repeated-cofactor"]
    )
    def test_the_fixed_projector_checks_pass(self, data, dimension, command, files, capsys):
        # at --tol 1e-15 5-bonacci used to exit 3 with a stalled root; the
        # other char poly, (x - 1)^2 (x^3 - 2x^2 - x - 1), makes the
        # projector's Bezout part E differ from the identity
        path = files["dir"] / "input.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        args = [command, str(path)] + (["--n", "100"] if command == "fractal" else [])
        code, out, err = run(capsys, args)
        assert code == 0 and err == ""
        report = json.loads(out)
        if command == "analyze":
            assert report["spectral"]["contracting_dimension"] == dimension
        else:
            assert (report["points"], report["dimension"]) == (100, dimension)

    @pytest.mark.parametrize("k, i", [(16, 2), (8, 8)])
    def test_a_large_perron_root_classifies_projects_and_draws(self, k, i, files, capsys):
        # x_t -> a^i x_(t+1), last letter -> a: lambda^deg is too large for a
        # float residual test on lambda to pass, so classification must take
        # lambda from its exact bracket alone
        sub = kbonacci(k, i)
        report = classify_pisot(sub)
        assert report.is_pisot and report.is_irreducible and report.is_unimodular
        assert projection_operator(spectral_split(report)).chart.shape == (k - 1, k)
        path = files["dir"] / "large_root.json"
        path.write_text(json.dumps(substitution_to_dict(sub)), encoding="utf-8")
        code, out, err = run(capsys, ["fractal", str(path), "--n", "100"])
        assert code == 0 and err == ""
        assert (json.loads(out)["points"], json.loads(out)["dimension"]) == (100, k - 1)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 0 and err == ""
        assert json.loads(out)["spectral"]["contracting_dimension"] == k - 1

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

    def test_out_of_memory_is_one_line_and_exit_four(self, files, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (10000000000,)")

        monkeypatch.setattr(cli, "rauzy_cloud", exhausted)
        code, out, err = run(capsys, ["fractal", files["trib"], "--n", "10"])
        assert (code, out) == (4, "")
        assert err == "error: out of memory: Unable to allocate 7.45 GiB for an array with shape (10000000000,)\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc")
    def test_an_allocation_past_the_address_space_limit_exits_four(self, files):
        # the process caps its own address space 256 MiB above its size after
        # import; a 10^9-letter fixed-point prefix cannot fit
        env = package_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        code = (
            "import re, resource, sys\n"
            "import rauzykit.cli\n"
            "size = int(re.search(r'VmSize:\\s+(\\d+)', open('/proc/self/status').read()).group(1)) * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + (256 << 20),) * 2)\n"
            "sys.exit(rauzykit.cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "fractal", files["trib"], "--n", str(10 ** 9)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (4, "")
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: out of memory: ")

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
        assert len(lines) >= 32

    def test_a_failing_check_exits_one(self, capsys, monkeypatch):
        failing = [CheckResult("stand-in check", False, "forced failure")]
        monkeypatch.setattr(cli, "run_all_checks", lambda: failing)
        code, out, err = run(capsys, ["selftest"])
        assert code == 1
        assert out.splitlines() == ["[FAIL] stand-in check :: forced failure", "0/1 checks passed"]
        assert err == "error: 1 selftest checks failed\n"

    def test_a_result_that_is_not_a_pair_substitution_fails_its_checks(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(selfcheck, "run_bpa", lambda first, second: NotFound(10))
        code, out, err = run(capsys, ["selftest"])
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert f"[FAIL] interval: run_bpa finds a pair substitution :: {NotFound(10)}" in failed
        assert not any("raised" in line for line in failed)
        assert err.startswith("error: ")

    def test_a_group_that_raises_fails_once_and_the_others_still_run(
        self, capsys, monkeypatch
    ):
        def raising():
            yield CheckResult("first: before the raise", True)
            raise RuntimeError("boom")

        def passing():
            yield CheckResult("second: after the raise", True)

        monkeypatch.setattr(selfcheck, "CHECK_GROUPS", {"first": raising, "second": passing})
        code, out, err = run(capsys, ["selftest"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "[PASS] first: before the raise"
        assert lines[1].startswith("[FAIL] first: raised RuntimeError: boom :: at ")
        assert lines[1].endswith(" in raising")
        assert lines[2:] == ["[PASS] second: after the raise", "2/3 checks passed"]
        assert err == "error: 1 selftest checks failed\n"


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    env = package_env()
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
