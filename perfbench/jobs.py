"""The timed jobs of each workload, and the checks of their outputs.

A job's ``run`` is the only timed part: a CLI command through
``rauzykit.cli.main(argv)`` in-process, or calls to rauzykit's public
functions.  ``summarize`` turns its raw result into small plain data right
after the job, untimed, so that no job's output stays alive.  The checks run
after the last round and compare each summary with computations from
``oracle``, which does not use rauzykit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import oracle

CLI_LIMITS = {"prefix_cutoff": 10 ** 6, "max_pairs": 10 ** 4, "max_pair_length": 10 ** 5}
PALETTE_SIZE = 12  # rauzykit's SVG palette has 12 colours and then repeats


class Job:
    def __init__(self, spec: dict, run, summarize):
        self.spec = spec
        self.name = spec["name"]
        self.run = run
        self.summarize = summarize


def _sha(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def build(manifest: dict, subs: dict, out: str) -> list[Job]:
    """Jobs of the manifest; subs maps each input name to its loaded Substitution."""
    rk = sys.modules["rauzykit"]
    files = dict(zip(manifest["subs"], manifest["files"]))
    os.makedirs(os.path.join(out, "files"), exist_ok=True)
    jobs = []
    for spec in manifest["jobs"]:
        kind = spec["kind"]
        if kind in ("fractal", "intersect", "analyze", "bpa"):
            argv = [kind, files[spec["sub"]]]
            if "sub2" in spec:
                argv.append(files[spec["sub2"]])
            if "n" in spec:
                argv += ["--n", str(spec["n"])]
            if spec.get("export"):
                stem = os.path.join(out, "files", spec["name"])
                argv += ["--csv", stem + ".csv", "--svg", stem + ".svg"]
            if "cutoff" in spec:
                argv += ["--prefix-cutoff", str(spec["cutoff"])]
            jobs.append(Job(spec, _cli_runner(argv), _cli_summary(argv)))
        elif kind == "symmetry":
            first, second = subs[spec["sub"]], subs[spec["sub2"]]
            jobs.append(Job(spec, _symmetry_runner(rk, first, second, spec["n"]), lambda raw: raw))
        elif kind == "pairs":
            first, second = subs[spec["sub"]], subs[spec["sub2"]]
            limits = spec["limits"]
            jobs.append(Job(spec, _pairs_runner(rk, first, second, limits), _pairs_summary(rk, first)))
        elif kind == "verify":
            first, second = subs[spec["sub"]], subs[spec["sub2"]]
            jobs.append(Job(spec, _verify_runner(rk, first, second, spec["n"]), _verify_summary))
        else:
            raise ValueError(f"unknown job kind {kind!r}")
    return jobs


# ---------------------------------------------------------------------------
# runners (timed) and summaries (untimed)


def _cli_runner(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = sys.modules["rauzykit.cli"].main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_summary(argv):
    paths = [argv[i + 1] for i, a in enumerate(argv) if a in ("--csv", "--svg")]

    def summarize(raw):
        code, out, err = raw
        return {
            "rc": code,
            "out": json.loads(out) if out.strip() else None,
            "err": err,
            "sha": [_sha(p) for p in paths if code == 0],
        }

    return summarize


def _symmetry_runner(rk, first, second, n):
    """The C6 computation: both clouds, Hausdorff distance to the reflection,
    and the grid intersection."""

    def run():
        op = rk.projection_operator(rk.spectral_split(rk.incidence_matrix(first)))
        cloud = rk.rauzy_cloud(first, n, op)
        cloud_rev = rk.rauzy_cloud(second, n, op)
        diameter = cloud.diameter()
        eps = 0.02 * diameter
        h = rk.hausdorff_distance(cloud_rev, rk.reflect_cloud(cloud), eps)
        inter = rk.grid_intersection_estimate(cloud, cloud_rev, eps)
        return {
            "chart": op.chart.tolist(),
            "diameter": diameter,
            "eps": eps,
            "hausdorff": h,
            "cells": sorted(inter.cells),
        }

    return run


def _pairs_runner(rk, first, second, limits):
    def run():
        result = rk.run_bpa(first, second, rk.BpaLimits(**limits))
        if isinstance(result, rk.PairSubstitution):
            return result, rk.pair_incidence(result), rk.reciprocal_factor_report(first, result)
        return result, None, None

    return run


def _pairs(pairs) -> list[list[str]]:
    return [[str(p.top), str(p.bottom)] for p in pairs]


def _pairs_summary(rk, first):
    def summarize(raw):
        result, incidence, report = raw
        if isinstance(result, rk.NotFound):
            return {"status": "not_found", "cutoff": result.cutoff}
        if isinstance(result, rk.NonTermination):
            return {
                "status": result.limit,
                "limit_value": result.limit_value,
                "pairs": _pairs(result.pairs),
                "rules": {i: list(r) for i, r in result.completed_rules.items()},
            }
        return {
            "status": "ok",
            "pairs": _pairs(result.pairs),
            "rules": {i: list(r) for i, r in enumerate(result.rules)},
            "char_poly": list(incidence.char_polynomial.coeffs),
            "report": report.to_dict(),
        }

    return summarize


def _verify_runner(rk, first, second, n):
    def run():
        pair_sub = rk.run_bpa(first, second)
        return pair_sub, rk.verify_common_points(pair_sub, first, second, n)

    return run


def _verify_summary(raw):
    pair_sub, result = raw
    return {
        "pairs": _pairs(pair_sub.pairs),
        "ok": result.ok,
        "first_failure": result.first_failure,
        "checked": result.checked,
    }


# ---------------------------------------------------------------------------
# checks; each returns a list of problems, empty when the output is right


class Problems(list):
    def expect(self, ok, what: str) -> None:
        if not ok:
            self.append(what)


def check(spec: dict, summary: dict, subs: dict, out: str) -> list[str]:
    """Problems with one job's output, from computations made apart from rauzykit."""
    return CHECKS[spec["kind"]](spec, summary, subs, out)


def _cli_ok(p: Problems, s: dict, code: int = 0) -> bool:
    p.expect(s["rc"] == code, f"exit code {s['rc']} (expected {code}): {s['err'].strip()[:200]}")
    return s["rc"] == code and s["out"] is not None


def _projected(letters, rules, word):
    """Exact prefix-count vectors of word, projected by numpy's eigenvector projector."""
    return oracle.broken_line(word, letters) @ oracle.contracting_projector(letters, rules).T


def _check_cloud(p: Problems, data: dict, points, n: int, dim: int) -> None:
    """Chart-independent checks of a cloud that the CLI reports only by its
    size, bounding box and diameter: the box must lie within the largest
    point norm, and the diameter between the farthest point from the first
    one and the diagonal of the box that norm allows."""
    norms = oracle.np.linalg.norm(points, axis=1)
    radius = float(norms.max())
    spread = float(oracle.np.linalg.norm(points - points[0], axis=1).max())
    p.expect(data["points"] == n, f"points {data['points']} != {n}")
    p.expect(data.get("dimension", dim) == dim, f"dimension {data.get('dimension')} != {dim}")
    p.expect(
        spread * (1 - 1e-9) <= data["diameter"] <= 2 * math.sqrt(dim) * radius * (1 + 1e-9),
        f"diameter {data['diameter']} outside [{spread}, {2 * math.sqrt(dim) * radius}]",
    )
    for side in ("min", "max"):
        p.expect(
            all(abs(v) <= radius * (1 + 1e-9) for v in data["bounding_box"][side]),
            f"bounding box {side} outside the cloud's radius {radius}",
        )
    head = float(norms[: max(1, n // 10)].max())
    p.expect(radius <= 1.5 * head, f"cloud unbounded: radius {radius} vs {head} on the first tenth")


def _check_files(p: Problems, spec: dict, out: str, labels: list[str], points, dim: int) -> None:
    """CSV and SVG against the independent points: norms and inner products
    (chart-independent), labels, and one fill colour per label."""
    np = oracle.np
    n = len(points)
    radius = float(np.linalg.norm(points, axis=1).max())
    stem = os.path.join(out, "files", spec["name"])
    with open(stem + ".csv", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    p.expect(lines[0] == ",".join(["n", "letter"] + [f"x{i + 1}" for i in range(dim)]), f"csv header {lines[0]}")
    p.expect(len(lines) == n + 1, f"csv has {len(lines) - 1} rows, expected {n}")
    if len(lines) != n + 1:
        return
    p.expect([line.split(",", 2)[1] for line in lines[1:]] == labels, "csv labels differ from the fixed point")
    table = np.loadtxt(lines[1:], delimiter=",", usecols=[0] + list(range(2, dim + 2)), ndmin=2)
    p.expect((table[:, 0] == np.arange(n)).all(), "csv indices are not 0..n-1")
    coords = table[:, 1:]
    err = np.abs(np.linalg.norm(coords, axis=1) - np.linalg.norm(points, axis=1)).max()
    p.expect(err <= 1e-7 * max(1.0, radius), f"csv point norms off by {err}")
    pick = np.linspace(0, n - 1, 64).astype(int)
    gram = np.abs(coords[pick] @ coords[pick].T - points[pick] @ points[pick].T).max()
    p.expect(gram <= 1e-6 * max(1.0, radius) ** 2, f"csv inner products off by {gram}")

    with open(stem + ".svg", encoding="utf-8") as handle:
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="[^"]+" fill="([^"]+)"/>', handle.read())
    p.expect(len(circles) == n, f"svg has {len(circles)} circles, expected {n}")
    if len(circles) != n:
        return
    planar = np.array([v for x, y, _ in circles for v in (x, y)], dtype=float).reshape(n, 2)[:, :dim]
    err = np.abs(np.linalg.norm(planar, axis=1) - np.linalg.norm(points, axis=1)).max()
    p.expect(err <= 2e-5 * max(1.0, radius), f"svg point norms off by {err}")
    colours = set(zip(labels, (fill for _, _, fill in circles)))
    p.expect(len(colours) == len(set(labels)), "a label has more than one svg colour")
    used = len({fill for _, fill in colours})
    p.expect(used == min(len(colours), PALETTE_SIZE), f"{used} svg colours for {len(colours)} labels")


def check_fractal(spec, s, subs, out) -> list[str]:
    p = Problems()
    if not _cli_ok(p, s):
        return p
    sub = subs[spec["sub"]]
    letters, rules, n = sub["letters"], sub["rules"], spec["n"]
    word = oracle.fixed_point(letters, rules, n)
    data = s["out"]
    p.expect(
        data["labels"] == {a: word.count(a) for a in sorted(set(word))},
        f"label counts {data['labels']} differ from the fixed-point prefix",
    )
    points = _projected(letters, rules, word)
    _check_cloud(p, data, points, n, len(letters) - 1)
    if spec.get("export"):
        _check_files(p, spec, out, list(word), points, len(letters) - 1)
    return p


def _bpa_oracle(sub1, sub2, limits):
    return oracle.bpa(sub1["letters"], sub1["rules"], sub2["rules"], **limits)


def check_intersect(spec, s, subs, out) -> list[str]:
    p = Problems()
    if not _cli_ok(p, s):
        return p
    sub1, sub2 = subs[spec["sub"]], subs[spec["sub2"]]
    o = _bpa_oracle(sub1, sub2, CLI_LIMITS)
    data, n = s["out"], spec["n"]
    names = [oracle.pair_name(i) for i in range(len(o.pairs))]
    p.expect(o.status == "ok", f"oracle run ended with {o.status}")
    p.expect(data["pairs"] == len(o.pairs), f"{data['pairs']} pairs, oracle finds {len(o.pairs)}")
    p.expect(
        data["rules"] == {names[i]: "".join(names[j] for j in o.rules[i]) for i in range(len(names))},
        "rule table differs from the string-level run",
    )
    matrix = oracle.pair_matrix(o.rules, len(o.pairs))
    p.expect(data["char_poly"]["coeffs"] == oracle.char_poly(matrix), "pair char poly differs from sympy's")
    letters = sub1["letters"]
    walk = oracle.pair_fixed_point(o.pairs, o.rules, n)
    steps = oracle.np.array([[top.count(a) for a in letters] for top, _ in o.pairs], dtype=float)
    proj = oracle.contracting_projector(letters, sub1["rules"])
    points = oracle.np.cumsum(steps[walk], axis=0) @ proj.T
    _check_cloud(p, data, points, n, len(letters) - 1)
    if spec.get("export"):
        _check_files(p, spec, out, [names[i] for i in walk], points, len(letters) - 1)
    return p


def check_symmetry(spec, s, subs, out) -> list[str]:
    """C6: chart orthonormal in the contracting space, grid cells and the
    Hausdorff distance recomputed from independently projected clouds, and
    the reflection symmetry the paper claims at grid scale."""
    np = oracle.np
    p = Problems()
    sub1, sub2, n = subs[spec["sub"]], subs[spec["sub2"]], spec["n"]
    letters = sub1["letters"]
    proj = oracle.contracting_projector(letters, sub1["rules"])
    chart = np.array(s["chart"])
    p.expect(np.abs(chart @ chart.T - np.eye(chart.shape[0])).max() < 1e-9, "chart rows not orthonormal")
    p.expect(np.abs(chart @ proj.T - chart).max() < 1e-9, "chart rows leave the contracting space")
    clouds = [
        oracle.broken_line(oracle.fixed_point(letters, sub["rules"], n), letters) @ proj.T @ chart.T
        for sub in (sub1, sub2)
    ]
    diameter = float(np.linalg.norm(clouds[0].max(axis=0) - clouds[0].min(axis=0)))
    p.expect(abs(s["diameter"] - diameter) <= 1e-9 * diameter, f"diameter {s['diameter']} vs {diameter}")
    eps = s["eps"]
    p.expect(abs(eps - 0.02 * s["diameter"]) <= 1e-12 * eps, "eps is not 2% of the diameter")
    forward, backward = (set(map(tuple, np.floor(c / eps).astype(np.int64).tolist())) for c in clouds)
    common = forward & backward
    got = set(map(tuple, s["cells"]))
    p.expect(len(got ^ common) <= 0.005 * len(common), f"{len(got ^ common)} intersection cells differ")
    reflected = np.array(sorted(set(map(tuple, np.floor(-clouds[0] / eps).astype(np.int64).tolist()))), float)
    h = eps * _hausdorff(np.array(sorted(backward), float), reflected)
    p.expect(abs(s["hausdorff"] - h) <= eps, f"hausdorff {s['hausdorff']} vs {h}")
    p.expect(s["hausdorff"] <= 3 * eps, "reflected cloud farther than 3 cells from the reverse cloud")
    mirror = {tuple(-v - 1 for v in c) for c in got}
    p.expect(got and len(got ^ mirror) <= 0.05 * len(got), "intersection not centrally symmetric")
    return p


def _hausdorff(a, b) -> float:
    np = oracle.np

    def one_way(x, y):
        worst = 0.0
        for start in range(0, len(x), 512):
            d = np.sqrt(((x[start : start + 512, None, :] - y[None, :, :]) ** 2).sum(axis=2))
            worst = max(worst, float(d.min(axis=1).max()))
        return worst

    return max(one_way(a, b), one_way(b, a))


def check_analyze(spec, s, subs, out) -> list[str]:
    p = Problems()
    if not _cli_ok(p, s):
        return p
    sub = subs[spec["sub"]]
    letters, rules = sub["letters"], sub["rules"]
    data = s["out"]
    matrix = oracle.incidence(letters, rules)
    coeffs = oracle.char_poly(matrix)
    info = oracle.classify(coeffs)
    c = data["classification"]
    p.expect(data["incidence_matrix"] == matrix, "incidence matrix differs")
    p.expect(data["char_poly"]["coeffs"] == coeffs, "char poly differs from sympy's")
    p.expect(c["is_primitive"] is oracle.is_primitive(matrix), "primitivity differs")
    for flag in ("is_irreducible", "is_unimodular", "is_pisot"):
        p.expect(c[flag] is info[flag], f"{flag} is {c[flag]}, oracle says {info[flag]}")
    lam = info["perron_root"]
    p.expect(abs(c["perron_root"] - lam) <= 1e-9 * lam, f"perron root {c['perron_root']} vs {lam}")
    margin = math.inf if c["margin"] is None else c["margin"]
    p.expect(
        math.isinf(margin) == math.isinf(info["margin"])
        and (math.isinf(margin) or abs(margin - info["margin"]) <= 1e-7 * (1 + margin)),
        f"margin {c['margin']} vs {info['margin']}",
    )
    seed_letter, power = oracle.fixed_point_seed(letters, rules)
    p.expect(data["seed"] == {"letter": seed_letter, "power": power}, f"seed {data['seed']}")
    spectral = data["spectral"]
    if spectral is not None:
        np = oracle.np
        degree = info["minpoly_degree"]
        p.expect(info["is_pisot"], "spectral split reported for a non-Pisot substitution")
        p.expect(spectral["contracting_dimension"] == degree - 1, "contracting dimension")
        p.expect(spectral["complementary_dimension"] == len(letters) - degree, "complementary dimension")
        chart = np.array(spectral["chart_rows"], dtype=float).reshape(degree - 1, len(letters))
        if degree > 1:
            p.expect(np.abs(chart @ chart.T - np.eye(degree - 1)).max() < 1e-9, "chart rows not orthonormal")
            defect = oracle.span_defect(chart, matrix, info["contracting"])
            p.expect(defect < 1e-8, f"chart rows leave the contracting space by {defect}")
    k = spec.get("kbonacci")
    if k:
        p.expect(coeffs == [-1] * k + [1], "k-bonacci char poly is not x^k - x^(k-1) - ... - 1")
        p.expect(info["is_irreducible"] and info["is_pisot"] and info["is_unimodular"], "k-bonacci facts")
        p.expect(2 - 2 ** (1 - k) < c["perron_root"] < 2, f"k-bonacci root {c['perron_root']}")
        p.expect(spectral is not None, "no spectral split for k-bonacci")
    return p


def _check_pair_system(p: Problems, sub1, sub2, pairs, rules, complete: bool) -> None:
    """Properties of a pair system from rauzykit's own output, checked on strings:
    minimal balanced pairs, rule images by concatenation, exact intertwining."""
    r1, r2 = sub1["rules"], sub2["rules"]
    p.expect(all(oracle.is_minimal_balanced(t, b) for t, b in pairs), "a pair is not minimal balanced")
    for i, rule in rules.items():
        top = "".join(pairs[j][0] for j in rule)
        bottom = "".join(pairs[j][1] for j in rule)
        p.expect(
            (top, bottom) == (oracle.rewrite(r1, pairs[i][0]), oracle.rewrite(r2, pairs[i][1])),
            f"rule {i} does not concatenate to the image of its pair",
        )
    if complete:
        p.expect(oracle.intertwines(sub1["letters"], r1, pairs, rules), "H M_pairs != M H")


def _check_report(p: Problems, letters, rules, big, report) -> None:
    base = oracle.char_poly(oracle.incidence(letters, rules))
    recip = list(reversed(base))
    while recip and recip[-1] == 0:  # x^deg p(1/x) drops in degree when p(0) = 0
        recip.pop()
    if recip[-1] < 0:
        recip = [-c for c in recip]
    p.expect(report["p"]["coeffs"] == base, "factor report p differs")
    p.expect(report["q"]["coeffs"] == recip, "factor report q differs")
    p.expect(report["p_divides"] is oracle.divides(base, big), "p_divides differs from sympy")
    p.expect(report["q_divides"] is oracle.divides(recip, big), "q_divides differs from sympy")
    p.expect(report["p_equals_q"] is (base == recip), "p_equals_q differs")


def check_bpa(spec, s, subs, out) -> list[str]:
    p = Problems()
    sub1, sub2 = subs[spec["sub"]], subs[spec["sub2"]]
    if "cutoff" in spec:
        if not _cli_ok(p, s, code=4):
            return p
        cutoff = spec["cutoff"]
        p.expect(s["out"] == {"status": "no-balanced-prefix", "cutoff": cutoff}, f"payload {s['out']}")
        top = oracle.fixed_point(sub1["letters"], sub1["rules"], cutoff)
        bottom = oracle.fixed_point(sub2["letters"], sub2["rules"], cutoff)
        p.expect(oracle.first_balanced_prefix(top, bottom) is None, "a balanced prefix exists")
        return p
    if not _cli_ok(p, s):
        return p
    data = s["out"]
    o = _bpa_oracle(sub1, sub2, CLI_LIMITS)
    p.expect(o.status == "ok", f"oracle run ended with {o.status}")
    names = [oracle.pair_name(i) for i in range(len(o.pairs))]
    got = [(name, pair["top"], pair["bottom"]) for name, pair in data["pairs"].items()]
    p.expect(got == [(names[i], t, b) for i, (t, b) in enumerate(o.pairs)], "pairs or discovery order differ")
    p.expect(data["alphabet"] == names, "pair alphabet differs")
    index = {name: i for i, name in enumerate(names)}
    # a rule is a string of one-letter pair names, or a list once names get longer
    rules = {index[name]: [index[x] for x in rule] for name, rule in data["rules"].items()}
    p.expect(rules == o.rules, "rules differ from the string-level run")
    big = oracle.char_poly(oracle.pair_matrix(o.rules, len(o.pairs)))
    p.expect(data["char_poly"]["coeffs"] == big, "pair char poly differs from sympy's")
    _check_report(p, sub1["letters"], sub1["rules"], big, data["factor_report"])
    _check_pair_system(p, sub1, sub2, [(t, b) for _, t, b in got], rules, complete=True)
    return p


def check_pairs(spec, s, subs, out) -> list[str]:
    p = Problems()
    sub1, sub2, limits = subs[spec["sub"]], subs[spec["sub2"]], spec["limits"]
    o = _bpa_oracle(sub1, sub2, limits)
    p.expect(s["status"] == o.status, f"status {s['status']}, oracle says {o.status}")
    if s["status"] != o.status:
        return p
    if o.status == "not_found":
        p.expect(s["cutoff"] == limits["prefix_cutoff"], "NotFound cutoff differs")
        return p
    pairs = [tuple(x) for x in s["pairs"]]
    rules = {int(i): r for i, r in s["rules"].items()}
    p.expect(pairs == o.pairs, "pairs or discovery order differ")
    p.expect(rules == o.rules, "rules differ from the string-level run")
    _check_pair_system(p, sub1, sub2, pairs, rules, complete=o.status == "ok")
    if o.status == "ok":
        big = oracle.char_poly(oracle.pair_matrix(rules, len(pairs)))
        p.expect(s["char_poly"] == big, "pair char poly differs from sympy's")
        _check_report(p, sub1["letters"], sub1["rules"], big, s["report"])
    else:
        p.expect(s["limit_value"] == limits[o.status], "limit value differs")
        p.expect(all(len(t) <= limits["max_pair_length"] for t, _ in pairs), "a kept pair exceeds the cap")
        if o.status == "max_pairs":
            p.expect(len(pairs) == limits["max_pairs"], "stopped before reaching max_pairs")
    return p


def check_verify(spec, s, subs, out) -> list[str]:
    """The claim verify_common_points makes, re-derived on strings: every
    cumulative top count along the pair fixed point is a prefix count of
    both parent fixed points, at the cumulative pair length."""
    p = Problems()
    sub1, sub2, n = subs[spec["sub"]], subs[spec["sub2"]], spec["n"]
    o = _bpa_oracle(sub1, sub2, CLI_LIMITS)
    p.expect([tuple(x) for x in s["pairs"]] == o.pairs, "pairs differ from the string-level run")
    p.expect(s["ok"] is True and s["checked"] == n, f"verify_common_points returned {s}")
    letters = sub1["letters"]
    walk = oracle.pair_fixed_point(o.pairs, o.rules, n)
    np = oracle.np
    steps = np.array([[top.count(a) for a in letters] for top, _ in o.pairs])
    targets = np.cumsum(steps[walk], axis=0)
    ends = np.cumsum([len(o.pairs[i][0]) for i in walk])
    seed_top, seed_bottom = o.pairs[walk[0]]
    for sub, start in ((sub1, seed_top[0]), (sub2, seed_bottom[0])):
        power = oracle.letter_power(sub["rules"], start)
        word = oracle.fixed_point_from(sub["rules"], start, power, int(ends[-1]))
        reached = oracle.prefix_counts(word, letters)[ends - 1]
        p.expect((reached == targets).all(), "an intersection point is not on a parent broken line")
    return p


CHECKS = {
    "fractal": check_fractal,
    "intersect": check_intersect,
    "symmetry": check_symmetry,
    "analyze": check_analyze,
    "bpa": check_bpa,
    "pairs": check_pairs,
    "verify": check_verify,
}
