"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 indeterminate
classification, 3 precondition violation, 4 search or termination limit.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click

from . import __version__
from .algebra import classify_pisot, factor_over_z
from .bpa import (
    BpaLimits,
    NonTermination,
    NotFound,
    intersection_cloud,
    pair_incidence,
    reciprocal_factor_report,
    run_bpa,
)
from .errors import (
    IllConditioned,
    IndeterminateClassification,
    NoSeedFound,
    NotPisot,
    NotPrimitive,
    RauzykitError,
    SubstitutionParseError,
)
from .fractal import export_csv, rauzy_cloud, render_svg
from .selfcheck import run_all_checks
from .spectral import projection_operator, spectral_split
from .words import (
    find_fixed_point_seed,
    incidence_matrix,
    load_substitution,
    reverse_substitution,
    save_substitution,
    substitution_to_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INDETERMINATE = 2
EXIT_PRECONDITION = 3
EXIT_LIMIT = 4


#: Type of the point-count and BPA-limit options: a value below 1 is a usage error.
_POSITIVE = click.IntRange(min=1)


class _Tolerance(click.ParamType):
    """Type of the --tol options, a finite float above 0 (click.FloatRange lets
    nan and inf through, and with either every residual check passes)."""

    name = "float"

    def convert(self, value, param, ctx):
        tol = click.FLOAT.convert(value, param, ctx)
        if not (math.isfinite(tol) and tol > 0):
            self.fail(f"{value!r} is not a finite number above 0.", param, ctx)
        return tol


_TOLERANCE = _Tolerance()


def _emit(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=False))


def _poly_payload(poly) -> dict:
    return {"coeffs": list(poly.coeffs), "text": str(poly)}


def _factorization_payload(poly, report) -> list[dict]:
    """Irreducible factors of poly with multiplicities; tags mark the factors
    equal to the report's p or q and the cyclotomic ones."""
    payload = []
    for f in factor_over_z(poly):
        tags = [name for name, g in (("p", report.p), ("q", report.q)) if f.poly == g]
        tags += ["cyclotomic"] if f.cyclotomic else []
        payload.append({**_poly_payload(f.poly), "multiplicity": f.multiplicity, "tags": tags})
    return payload


@click.group(name="rauzykit")
@click.version_option(version=__version__, prog_name="rauzykit")
def cli():
    """Substitution dynamics toolkit."""


@cli.command("analyze")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=_TOLERANCE, default=1e-10, show_default=True, help="Spectral residual tolerance.")
def cmd_analyze(path, tol):
    """Classify a substitution file and print a JSON report."""
    sub = load_substitution(path)
    report = classify_pisot(sub)
    try:
        seed_letter, power = find_fixed_point_seed(sub)
        seed = {"letter": sub.alphabet[seed_letter], "power": power}
    except NoSeedFound:
        seed = None
    spectral = None
    try:
        split = spectral_split(report, tol)
        op = projection_operator(split)
        spectral = {
            "contracting_dimension": split.stable_dim,
            "complementary_dimension": split.basis_c.shape[1],
            "condition_number": split.condition_number,
            "residuals": list(split.residuals),
            "chart_rows": [list(row) for row in op.chart],
        }
    except (NotPisot, NotPrimitive, IllConditioned):
        pass
    _emit(
        {
            "version": __version__,
            "substitution": substitution_to_dict(sub),
            "incidence_matrix": [list(row) for row in report.matrix.rows],
            "char_poly": _poly_payload(report.char_poly),
            "classification": {
                "perron_root": report.perron_root,
                "is_primitive": report.is_primitive,
                "is_pisot": report.is_pisot,
                "is_irreducible": report.is_irreducible,
                "is_unimodular": report.is_unimodular,
                "margin": report.margin if report.margin != float("inf") else None,
            },
            "seed": seed,
            "spectral": spectral,
        }
    )


def _check_export_paths(csv_path, svg_path) -> None:
    """Refuse --csv and --svg naming one file, before any work is done."""
    if csv_path and svg_path and os.path.realpath(csv_path) == os.path.realpath(svg_path):
        raise click.UsageError("--csv and --svg name the same file")


def _export(cloud, csv_path, svg_path) -> None:
    """Write the cloud's SVG, then its CSV: render_svg refuses a cloud above
    two dimensions before any file is written."""
    if svg_path:
        render_svg([cloud], svg_path)
    if csv_path:
        export_csv(cloud, csv_path)


@cli.command("reverse")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out", type=click.Path(dir_okay=False, writable=True))
def cmd_reverse(path, out):
    """Write the reversed substitution (every image read backwards)."""
    save_substitution(reverse_substitution(load_substitution(path)), out)
    click.echo(f"wrote {out}")


@cli.command("fractal")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", type=_POSITIVE, default=10 ** 5, show_default=True, help="Number of points.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False, writable=True), help="Write the cloud as CSV.")
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False, writable=True), help="Render the cloud as SVG.")
@click.option("--tol", type=_TOLERANCE, default=1e-10, show_default=True)
def cmd_fractal(path, n, csv_path, svg_path, tol):
    """Generate the fractal point cloud of a substitution file."""
    _check_export_paths(csv_path, svg_path)
    sub = load_substitution(path)
    op = projection_operator(spectral_split(incidence_matrix(sub), tol))
    cloud = rauzy_cloud(sub, n, op)
    _export(cloud, csv_path, svg_path)
    lo, hi = cloud.bounding_box()
    _emit(
        {
            "version": __version__,
            "points": len(cloud),
            "dimension": cloud.dimension,
            "diameter": cloud.diameter(),
            "bounding_box": {"min": list(lo), "max": list(hi)},
            "labels": {label: cloud.labels.count(label) for label in cloud.label_set()},
            "csv": csv_path,
            "svg": svg_path,
        }
    )


def _bpa_failure_payload(result) -> dict:
    if isinstance(result, NotFound):
        return {"status": "no-balanced-prefix", "cutoff": result.cutoff}
    return {
        "status": "non-termination",
        "limit": result.limit,
        "limit_value": result.limit_value,
        "pairs_found": len(result.pairs),
        "pairs": {
            name: {"top": str(pair.top), "bottom": str(pair.bottom)}
            for name, pair in zip(result.names, result.pairs)
        },
        "detail": result.detail,
    }


class _LimitHit(Exception):
    def __init__(self, payload: dict):
        super().__init__(payload["status"])
        self.payload = payload


def _run_bpa_or_fail(first, second, limits):
    result = run_bpa(first, second, limits)
    if isinstance(result, (NotFound, NonTermination)):
        raise _LimitHit(_bpa_failure_payload(result))
    return result


@cli.command("bpa")
@click.argument("path1", type=click.Path(exists=True, dir_okay=False))
@click.argument("path2", type=click.Path(exists=True, dir_okay=False))
@click.option("--prefix-cutoff", type=_POSITIVE, default=10 ** 6, show_default=True)
@click.option("--max-pairs", type=_POSITIVE, default=10 ** 4, show_default=True)
@click.option("--max-pair-length", type=_POSITIVE, default=10 ** 5, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), help="Write the pair substitution as JSON.")
def cmd_bpa(path1, path2, prefix_cutoff, max_pairs, max_pair_length, out):
    """Run the balanced pair algorithm on two substitution files."""
    first = load_substitution(path1)
    second = load_substitution(path2)
    limits = BpaLimits(prefix_cutoff=prefix_cutoff, max_pairs=max_pairs, max_pair_length=max_pair_length)
    ps = _run_bpa_or_fail(first, second, limits)
    inc = pair_incidence(ps)
    payload = dict(ps.to_dict())
    payload["version"] = __version__
    payload["char_poly"] = _poly_payload(inc.char_polynomial)
    report = reciprocal_factor_report(first, ps)
    payload["factor_report"] = report.to_dict()
    payload["factorization"] = _factorization_payload(inc.char_polynomial, report)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    _emit(payload)


@cli.command("intersect")
@click.argument("path1", type=click.Path(exists=True, dir_okay=False))
@click.argument("path2", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", type=_POSITIVE, default=10 ** 5, show_default=True, help="Number of intersection points.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False, writable=True))
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False, writable=True))
@click.option("--tol", type=_TOLERANCE, default=1e-10, show_default=True)
@click.option("--prefix-cutoff", type=_POSITIVE, default=10 ** 6, show_default=True)
@click.option("--max-pairs", type=_POSITIVE, default=10 ** 4, show_default=True)
@click.option("--max-pair-length", type=_POSITIVE, default=10 ** 5, show_default=True)
def cmd_intersect(path1, path2, n, csv_path, svg_path, tol, prefix_cutoff, max_pairs, max_pair_length):
    """Balanced pair algorithm plus the projected intersection cloud."""
    _check_export_paths(csv_path, svg_path)
    first = load_substitution(path1)
    second = load_substitution(path2)
    limits = BpaLimits(prefix_cutoff=prefix_cutoff, max_pairs=max_pairs, max_pair_length=max_pair_length)
    ps = _run_bpa_or_fail(first, second, limits)
    op = projection_operator(spectral_split(incidence_matrix(first), tol))
    cloud = intersection_cloud(ps, op, n)
    _export(cloud, csv_path, svg_path)
    lo, hi = cloud.bounding_box()
    _emit(
        {
            "version": __version__,
            "pairs": ps.size,
            "rules": ps.rule_table(),
            "char_poly": _poly_payload(pair_incidence(ps).char_polynomial),
            "points": len(cloud),
            "diameter": cloud.diameter(),
            "bounding_box": {"min": list(lo), "max": list(hi)},
            "csv": csv_path,
            "svg": svg_path,
        }
    )


@cli.command("selftest")
def cmd_selftest():
    """Run the built-in verification suite over the embedded worked examples."""
    results = run_all_checks()
    failures = 0
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        line = f"[{status}] {result.name}"
        if result.detail and not result.ok:
            line += f" :: {result.detail}"
        click.echo(line)
        failures += 0 if result.ok else 1
    click.echo(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        raise _SelftestFailed(failures)


class _SelftestFailed(Exception):
    def __init__(self, count):
        super().__init__(f"{count} selftest checks failed")


def main(argv=None) -> int:
    """Dispatch with the documented exit-code mapping; returns the exit code."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:  # --help / --version
        return int(exc.exit_code)
    except click.ClickException as exc:  # usage errors included
        exc.show()
        return EXIT_USAGE
    except (SubstitutionParseError, OSError, _SelftestFailed) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except IndeterminateClassification as exc:
        click.echo(f"error: indeterminate classification: {exc}", err=True)
        return EXIT_INDETERMINATE
    except _LimitHit as exc:
        _emit(exc.payload)
        return EXIT_LIMIT
    except NoSeedFound as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_LIMIT
    except RauzykitError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_PRECONDITION


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
