"""Slow, independent oracles for the algebra and export tests.

Each follows its textbook definition, or is the plain loop the library
replaced, and shares no code path with the library routine it checks.
"""

import csv
import io
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from rauzykit import DimensionMismatch, IntMatrix, IntPolynomial
from rauzykit.fractal import PALETTE


def char_poly_via_cofactors(m: IntMatrix) -> IntPolynomial:
    """det(xI - M) by Laplace expansion; exponential in the dimension."""
    k = m.dim
    entries = [
        [
            IntPolynomial((-m.rows[i][j], 1)) if i == j else IntPolynomial((-m.rows[i][j],))
            for j in range(k)
        ]
        for i in range(k)
    ]
    return _poly_det(entries)


def _poly_det(rows: list[list[IntPolynomial]]) -> IntPolynomial:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = IntPolynomial(())
    for j, head in enumerate(rows[0]):
        if head.is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = head * _poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def bareiss_determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = m.dim
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        pivot = next((r for r in range(i, n) if a[r][i] != 0), None)
        if pivot is None:
            return 0
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                # Bareiss update: the division by the previous pivot is exact
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def evaluate_at_matrix(p: IntPolynomial, m: IntMatrix) -> IntMatrix:
    """p(M) by Horner's rule on integer matrices: acc <- acc M + c I."""
    k = m.dim
    acc = [[0] * k for _ in range(k)]
    for c in reversed(p.coeffs):
        acc = [
            [sum(acc[i][t] * m.rows[t][j] for t in range(k)) + (c if i == j else 0) for j in range(k)]
            for i in range(k)
        ]
    return IntMatrix(acc)


def fraction_dominant_real_root(p: IntPolynomial) -> tuple[float, Fraction, Fraction]:
    """(value, lower, upper) of the largest real root of p, by the former
    Fraction bisection of dominant_real_root: numpy's largest real estimate
    r0 seeds the bracket r0 -/+ 1e-7 (1 + |r0|), widened by 16 at most six
    times until p changes sign exactly over it, then bisected in Fraction
    arithmetic to a width of max(1, ceil |r0|) / 2^80."""

    def sign(x: Fraction) -> int:
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        return (acc > 0) - (acc < 0)

    est = np.roots(np.array(p.coeffs[::-1], dtype=float))
    r0 = max(z.real for z in est if abs(z.imag) <= 1e-7 * (1 + abs(z)))
    approx = Fraction(r0).limit_denominator(10 ** 18)
    delta = Fraction(1e-7 * (1 + abs(r0))).limit_denominator(10 ** 18)
    for _ in range(6):
        lo, hi = approx - delta, approx + delta
        s_lo, s_hi = sign(lo), sign(hi)
        if s_lo == 0:
            return float(lo), lo, lo
        if s_hi == 0:
            return float(hi), hi, hi
        if s_lo != s_hi:
            break
        delta *= 16
    else:
        raise ArithmeticError(f"no exact sign change near {r0!r}")
    width_target = Fraction(max(1, math.ceil(abs(r0)))) / (1 << 80)
    while hi - lo > width_target:
        mid = (lo + hi) / 2
        s_mid = sign(mid)
        if s_mid == 0:
            return float(mid), mid, mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2), lo, hi


# sympy-backed oracles: callers skip first with pytest.importorskip("sympy")


def sympy_char_poly(m: IntMatrix) -> tuple[int, ...]:
    import sympy

    x = sympy.Symbol("x")
    return tuple(int(c) for c in reversed(sympy.Matrix(m.rows).charpoly(x).all_coeffs()))


def sympy_factor_list(p: IntPolynomial) -> list[tuple[tuple[int, ...], int]]:
    """sympy's irreducible factors of p with multiplicities, sorted; each
    factor primitive with positive leading coefficient, content dropped."""
    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x))
    out = []
    for f, k in factors:
        c = tuple(int(v) for v in reversed(f.all_coeffs()))
        out.append((tuple(-v for v in c) if c[-1] < 0 else c, k))
    return sorted(out)


def sympy_largest_real_root(p: IntPolynomial, digits: int = 40):
    """The largest of sympy's isolated real roots of p, as a sympy Float
    with the given number of digits."""
    import sympy

    x = sympy.Symbol("x")
    return max(sympy.real_roots(sympy.Poly(list(reversed(p.coeffs)), x))).evalf(digits)


def sympy_contracting_projector(m: IntMatrix, f: IntPolynomial, digits: int = 50):
    """The projector onto M's contracting space along the rest, as an mpmath
    matrix to `digits` digits, for a primitive M whose Perron root has the
    minimal polynomial f: E - v w^T / (w^T v).

    E = e(M) in rationals, with e = t c rem p for sympy's gcdex(f, c) = (s, t, 1)
    and c = p / f, p from sympy's charpoly; v and w are the right and left
    Perron vectors, solved in mpmath with v_0 = w_0 = 1 at the largest real
    root of f, found by mpmath's Newton steps from numpy's estimate.
    """
    import mpmath
    import sympy

    x = sympy.Symbol("x")
    a = sympy.Matrix(m.rows)
    p = a.charpoly(x).as_expr()
    fx = sympy.Poly(list(reversed(f.coeffs)), x).as_expr()
    c = sympy.quo(p, fx, x)
    _, t, g = sympy.gcdex(fx, c, x)
    assert g == 1
    e = sympy.Poly(sympy.rem(t * c, p, x), x).all_coeffs()
    idem = sympy.zeros(m.dim, m.dim)
    for coeff in e:
        idem = idem * a + coeff * sympy.eye(m.dim)
    start = max(z.real for z in np.roots(f.coeffs[::-1]) if abs(z.imag) < 1e-9)
    with mpmath.workdps(digits + 10):
        lam = mpmath.findroot(lambda z: mpmath.polyval(list(reversed(f.coeffs)), z), start)
        shifted = mpmath.matrix(m.rows) - lam * mpmath.eye(m.dim)
        vectors = []
        for b in (shifted, shifted.T):
            rest = mpmath.lu_solve(b[1:, 1:], -b[1:, 0])
            vectors.append([mpmath.mpf(1)] + [rest[i] for i in range(m.dim - 1)])
        v, w = vectors
        scale = mpmath.fsum(vi * wi for vi, wi in zip(v, w))
        return mpmath.matrix(
            [
                [mpmath.mpf(idem[i, j].p) / idem[i, j].q - v[i] * w[j] / scale for j in range(m.dim)]
                for i in range(m.dim)
            ]
        )


# grid oracles: cells as a Python set of floor tuples, distances by pairwise
# minima; neither grids nor searches through the library


def floor_cells(coords, eps: float) -> set[tuple[int, ...]]:
    """The distinct cells floor(x / eps) of the rows of coords."""
    return {tuple(math.floor(v / eps) for v in row) for row in np.asarray(coords, dtype=float).tolist()}


def cell_hausdorff(a_coords, b_coords, eps: float) -> float:
    """eps times the Hausdorff distance between the two clouds' cell sets:
    the larger directed maximum, over the cells of one set, of the distance to
    the nearest cell of the other, searched by brute force."""
    a, b = (np.array(sorted(floor_cells(c, eps)), dtype=float) for c in (a_coords, b_coords))
    if not len(a) or not len(b):
        return 0.0 if len(a) == len(b) else math.inf

    def one_way(x, y):
        worst = 0.0
        for start in range(0, len(x), 256):
            squared = ((x[start:start + 256, None, :] - y[None, :, :]) ** 2).sum(axis=2)
            worst = max(worst, float(squared.min(axis=1).max()))
        return worst

    return eps * math.sqrt(max(one_way(a, b), one_way(b, a)))


# export oracles: the row-at-a-time loop writers that export_csv and
# render_svg must match byte for byte


def reference_export_csv(cloud, path) -> None:
    """Columns n, letter, x1..xd with 9 significant digits; byte deterministic.

    Each row is quoted as the csv module quotes it under '\\r\\n' line ends
    (so a field holding '\\r' or '\\n' is quoted) and ends in '\\n'.
    """
    d = cloud.dimension
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(["n", "letter"] + [f"x{i + 1}" for i in range(d)]) + "\n")
        for n, (letter, row) in enumerate(zip(cloud.letters, cloud.coords)):
            buffer = io.StringIO()
            label = cloud.alphabet[int(letter)]
            csv.writer(buffer, lineterminator="\r\n").writerow([n, label] + [format(v, ".9g") for v in row])
            handle.write(buffer.getvalue()[:-2] + "\n")


# ---------------------------------------------------------------------------
# negative controls


def corrupt_rule(pair_sub, rule_index: int, position: int, new_letter: int):
    """Copy of a PairSubstitution with one rule letter replaced."""
    rules = list(pair_sub.rules)
    rule = list(rules[rule_index])
    rule[position] = new_letter
    rules[rule_index] = tuple(rule)
    return replace(pair_sub, rules=tuple(rules))


def _fmt(v: float) -> str:
    return format(v, ".6g")


def reference_render_svg(clouds, path) -> None:
    """One circle per point, one group per cloud, deterministic palette per letter."""
    planar: list[np.ndarray] = []
    for cloud in clouds:
        if cloud.dimension > 2:
            raise DimensionMismatch("svg rendering supports 1-d and 2-d clouds only")
        pts = cloud.coords
        if cloud.dimension < 2:
            pad = np.zeros((pts.shape[0], 2 - cloud.dimension))
            pts = np.hstack([pts.reshape(pts.shape[0], cloud.dimension), pad])
        planar.append(np.column_stack([pts[:, 0], -pts[:, 1]]))  # svg y grows downward

    occupied = [p for p in planar if p.shape[0]]
    if occupied:
        alldata = np.vstack(occupied)
        lo, hi = alldata.min(axis=0), alldata.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        margin = 0.05 * span
        lo, hi = lo - margin, hi + margin
        diam = float(np.linalg.norm(hi - lo))
    else:
        lo, hi = np.zeros(2), np.ones(2)
        diam = math.sqrt(2.0)
    radius = 0.01 * diam

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(lo[0])} {_fmt(lo[1])} '
        f'{_fmt(hi[0] - lo[0])} {_fmt(hi[1] - lo[1])}">',
    ]
    color_cursor = 0
    for ci, (cloud, pts) in enumerate(zip(clouds, planar)):
        labels = sorted({cloud.alphabet[int(letter)] for letter in cloud.letters})
        colors = {
            label: PALETTE[(color_cursor + rank) % len(PALETTE)]
            for rank, label in enumerate(labels)
        }
        color_cursor += len(labels)
        lines.append(f'<g id="cloud{ci}">')
        for (x, y), letter in zip(pts, cloud.letters):
            lines.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
                f'fill="{colors[cloud.alphabet[int(letter)]]}"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
