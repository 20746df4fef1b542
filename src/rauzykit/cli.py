"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 indeterminate
classification, 3 precondition violation, 4 search or termination limit.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pickle
import sys

import click

from . import __version__
from .algebra import classify_pisot, factor_over_z
from .bpa import (
    BpaLimits,
    NotFound,
    PairSubstitution,
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
from .fractal import export_csv, rauzy_cloud, render_svg, require_planar
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


def _limit_options(command):
    """The BPA limit options of bpa and intersect, with BpaLimits' defaults."""
    defaults = BpaLimits()
    # the option applied last is listed first in --help
    for name in ("max_pair_length", "max_pairs", "prefix_cutoff"):
        option = click.option(
            "--" + name.replace("_", "-"), type=_POSITIVE, default=getattr(defaults, name), show_default=True
        )
        command = option(command)
    return command


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
def cmd_analyze(path):
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
        split = spectral_split(report)
        op = projection_operator(split)
        spectral = {
            "contracting_dimension": split.stable_dim,
            "complementary_dimension": split.complementary_dim,
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


@contextlib.contextmanager
def _svg_beside(cloud, svg_path):
    """Write the cloud's SVG with render_svg while the with-block runs.

    Where os.fork exists, a forked child process writes it, sharing this
    process's pages copy-on-write, and leaving the block reaps the child
    and re-raises here what render_svg raised there.  What render_svg
    refuses or cannot open is raised before the fork, so the block never
    runs then.  Where os.fork is missing, render_svg runs in this process
    before the block.
    """
    if not hasattr(os, "fork"):
        render_svg(cloud, svg_path)
        yield
        return
    require_planar(cloud)
    open(svg_path, "w", encoding="utf-8").close()  # render_svg's open: its OSError is raised here
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child only formats and writes, and leaves through os._exit: it
        # never returns into the caller, flushes inherited buffers or runs
        # exit handlers
        status = 1
        try:
            gc.disable()  # no finaliser of the parent's garbage runs here
            os.close(read_end)
            try:
                render_svg(cloud, svg_path)
                status = 0
            except BaseException as exc:
                with open(write_end, "wb") as pipe:
                    pipe.write(pickle.dumps(exc))
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        yield
    finally:
        try:
            with open(read_end, "rb") as pipe:
                raised = pipe.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        # an SVG error wins over one from the block, as when the SVG was
        # written before the CSV
        if raised:
            raise pickle.loads(raised)
        if status:
            raise ChildProcessError(f"the SVG writer exited with status {status}")


def _export(cloud, csv_path, svg_path) -> None:
    """Write the cloud's CSV and SVG.

    With both, the SVG is written at the same time as the CSV, by a forked
    child process where os.fork exists (see _svg_beside); the bytes are
    those of render_svg and export_csv alone.  The errors are those of
    writing the SVG first: a cloud above two dimensions, or an SVG path
    that cannot be opened, writes no file, and a CSV path that fails leaves
    the SVG written in full.  This process's peak RSS does not grow:
    the child shares its pages copy-on-write.
    """
    if csv_path and svg_path:
        with _svg_beside(cloud, svg_path):
            export_csv(cloud, csv_path)
    elif svg_path:
        render_svg(cloud, svg_path)
    elif csv_path:
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
def cmd_fractal(path, n, csv_path, svg_path):
    """Generate the fractal point cloud of a substitution file."""
    _check_export_paths(csv_path, svg_path)
    sub = load_substitution(path)
    op = projection_operator(spectral_split(incidence_matrix(sub)))
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
            "labels": cloud.label_counts(),
            "csv": csv_path,
            "svg": svg_path,
        }
    )


def _limit_hit(result) -> int:
    """Print the partial state of a BPA run that hit a limit; returns EXIT_LIMIT."""
    if isinstance(result, NotFound):
        payload = {"status": "no-balanced-prefix", "cutoff": result.cutoff}
    else:
        payload = {
            "status": "non-termination",
            "limit": result.limit,
            "limit_value": result.limit_value,
            "pairs_found": len(result.pairs),
            "pairs": {name: pair.to_dict() for name, pair in zip(result.names, result.pairs)},
            "detail": result.detail,
        }
    _emit(payload)
    return EXIT_LIMIT


@cli.command("bpa")
@click.argument("path1", type=click.Path(exists=True, dir_okay=False))
@click.argument("path2", type=click.Path(exists=True, dir_okay=False))
@_limit_options
@click.option("--out", type=click.Path(dir_okay=False, writable=True), help="Write the pair substitution as JSON.")
def cmd_bpa(path1, path2, prefix_cutoff, max_pairs, max_pair_length, out):
    """Run the balanced pair algorithm on two substitution files."""
    first = load_substitution(path1)
    second = load_substitution(path2)
    ps = run_bpa(first, second, BpaLimits(prefix_cutoff, max_pairs, max_pair_length))
    if not isinstance(ps, PairSubstitution):
        return _limit_hit(ps)
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
@_limit_options
def cmd_intersect(path1, path2, n, csv_path, svg_path, prefix_cutoff, max_pairs, max_pair_length):
    """Balanced pair algorithm plus the projected intersection cloud."""
    _check_export_paths(csv_path, svg_path)
    first = load_substitution(path1)
    second = load_substitution(path2)
    ps = run_bpa(first, second, BpaLimits(prefix_cutoff, max_pairs, max_pair_length))
    if not isinstance(ps, PairSubstitution):
        return _limit_hit(ps)
    op = projection_operator(spectral_split(incidence_matrix(first)))
    cloud = intersection_cloud(ps, op, n)
    _export(cloud, csv_path, svg_path)
    lo, hi = cloud.bounding_box()
    _emit(
        {
            "version": __version__,
            "pairs": ps.size,
            "rules": substitution_to_dict(ps.substitution)["rules"],
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
        click.echo(f"error: {failures} selftest checks failed", err=True)
        return EXIT_USAGE


def main(argv=None) -> int:
    """Dispatch with the documented exit-code mapping; returns the exit code.

    A command returns its exit code, or None for success; click returns
    that value, and the exit code of --help and --version.
    """
    try:
        return cli.main(args=argv, standalone_mode=False) or EXIT_OK
    except click.ClickException as exc:  # usage errors included
        exc.show()
        return EXIT_USAGE
    except (SubstitutionParseError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except IndeterminateClassification as exc:
        click.echo(f"error: indeterminate classification: {exc}", err=True)
        return EXIT_INDETERMINATE
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
