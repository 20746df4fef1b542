"""Slow, independent exact oracles for the algebra tests.

Each follows its textbook definition and shares no code path with the
library routine it checks.
"""

from rauzykit import IntMatrix, IntPolynomial


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
