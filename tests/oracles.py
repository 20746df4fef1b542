"""Slow, independent oracles for the algebra and export tests.

Each follows its textbook definition, or is the plain loop the library
replaced, and shares no code path with the library routine it checks.
"""

import csv
import math

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
    total = IntPolynomial.zero()
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
    return IntMatrix.from_rows(acc)


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


# export oracles: the row-at-a-time loop writers that export_csv and
# render_svg must match byte for byte


def reference_export_csv(cloud, path) -> None:
    """Columns n, letter, x1..xd with 9 significant digits; byte deterministic."""
    d = cloud.dimension
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "letter"] + [f"x{i + 1}" for i in range(d)])
        for n, label, row in zip(cloud.indices, cloud.labels, cloud.coords):
            writer.writerow([int(n), label] + [format(v, ".9g") for v in row])


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
        labels = cloud.label_set()
        colors = {
            label: PALETTE[(color_cursor + rank) % len(PALETTE)]
            for rank, label in enumerate(labels)
        }
        color_cursor += len(labels)
        lines.append(f'<g id="cloud{ci}">')
        for (x, y), label in zip(pts, cloud.labels):
            lines.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
                f'fill="{colors[label]}"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
