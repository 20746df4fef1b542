"""Exact integer matrices, integer polynomials, and Pisot classification.

Everything that feeds an equality assertion stays in arbitrary-precision
integer (or Fraction) arithmetic.  Floating point appears only in root
estimates, and those are refined or bracketed against the exact
coefficients before they are used for classification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegreeTooLarge,
    DivideByZeroPoly,
    IndeterminateClassification,
    NegativeEntry,
    NoConvergence,
)

#: Refusal margin for Pisot classification: a non-dominant root modulus
#: within this distance of 1 raises IndeterminateClassification.
CLASSIFICATION_MARGIN = 1e-9

#: Hard cap on exact irreducibility / factor searches.
IRREDUCIBILITY_DEGREE_CAP = 12


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix with arbitrary-precision integer entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("matrix must have dimension >= 1")
        k = len(self.rows)
        rows = tuple(tuple(int(e) for e in row) for row in self.rows)
        for row in rows:
            if len(row) != k:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(e) for e in row) for row in rows))

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.dim))

    def add_scaled_identity(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(
            tuple(e + c if i == j else e for j, e in enumerate(row))
            for i, row in enumerate(self.rows)
        ))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows
        ))

    def mat_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * e for e in row) for row in self.rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
        ))

    def to_numpy(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def __str__(self):
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def determinant(m: IntMatrix) -> int:
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


def is_unimodular(m: IntMatrix) -> bool:
    return abs(determinant(m)) == 1


def is_primitive(m: IntMatrix) -> bool:
    """True iff some power of the nonnegative matrix is entrywise positive.

    Checked at the Wielandt bound k^2 - 2k + 2 via boolean squaring; a zero
    row or column rules primitivity out immediately (and is what makes
    positivity monotone under further powers).
    """
    k = m.dim
    for row in m.rows:
        for e in row:
            if e < 0:
                raise NegativeEntry(f"entry {e} < 0")
    b = np.array([[1 if e > 0 else 0 for e in row] for row in m.rows], dtype=np.int64)
    if not b.any(axis=1).all() or not b.any(axis=0).all():
        return False
    bound = k * k - 2 * k + 2
    power = 1
    while power < bound:
        b = ((b @ b) > 0).astype(np.int64)
        power *= 2
    return bool((b > 0).all())


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0 * x if self.is_zero else self.coeffs[-1] + 0 * x
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPolynomial"):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "IntPolynomial"):
        return self + (-other)

    def __mul__(self, other: "IntPolynomial"):
        if self.is_zero or other.is_zero:
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                xs = "x" if power == 1 else f"x^{power}"
                body = xs if mag == 1 else f"{mag}{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _frac_divmod(p: Sequence[Fraction], d: Sequence[Fraction]):
    """Long division over Q; returns (quotient, remainder) coefficient lists."""
    rem = list(p)
    dd = len(d) - 1
    quot = [Fraction(0)] * max(1, len(rem) - dd)
    lead = d[-1]
    for i in range(len(rem) - 1, dd - 1, -1):
        if rem[i] == 0:
            continue
        c = rem[i] / lead
        quot[i - dd] = c
        for j in range(dd + 1):
            rem[i - dd + j] -= c * d[j]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def poly_divides(d: IntPolynomial, p: IntPolynomial) -> bool:
    """True iff division of p by d over Q leaves zero remainder (sign-insensitive)."""
    if d.is_zero:
        raise DivideByZeroPoly("division by the zero polynomial")
    if p.is_zero:
        return True
    if d.degree > p.degree:
        return False
    _, rem = _frac_divmod([Fraction(c) for c in p.coeffs], [Fraction(c) for c in d.coeffs])
    return all(r == 0 for r in rem)


def poly_exact_div(p: IntPolynomial, d: IntPolynomial) -> IntPolynomial:
    """Exact quotient p / d; requires integer quotient and zero remainder."""
    if d.is_zero:
        raise DivideByZeroPoly("division by the zero polynomial")
    quot, rem = _frac_divmod([Fraction(c) for c in p.coeffs], [Fraction(c) for c in d.coeffs])
    if any(r != 0 for r in rem):
        raise ArithmeticError("division is not exact")
    if any(q.denominator != 1 for q in quot):
        raise ArithmeticError("quotient is not an integer polynomial")
    return IntPolynomial(tuple(int(q) for q in quot))


def reciprocal_poly(p: IntPolynomial) -> IntPolynomial:
    """Coefficient reversal x^deg * p(1/x)."""
    return IntPolynomial(tuple(reversed(p.coeffs)))


def positive_leading(p: IntPolynomial) -> IntPolynomial:
    """Sign normalization: flip so the leading coefficient is positive."""
    if p.is_zero or p.leading > 0:
        return p
    return -p


def primitive_part(p: IntPolynomial) -> IntPolynomial:
    if p.is_zero:
        return p
    g = 0
    for c in p.coeffs:
        g = math.gcd(g, abs(c))
    return IntPolynomial(tuple(c // g for c in p.coeffs))


def evaluate_at_matrix(p: IntPolynomial, m: IntMatrix) -> IntMatrix:
    """Exact Horner evaluation of p at a square integer matrix."""
    k = m.dim
    acc = IntMatrix.identity(k).scaled(p.coeffs[-1]) if not p.is_zero else IntMatrix.identity(k).scaled(0)
    for c in reversed(p.coeffs[:-1]):
        acc = (acc @ m).add_scaled_identity(c)
    return acc


# ---------------------------------------------------------------------------
# characteristic polynomials


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), exact over the integers.

    Faddeev-LeVerrier recurrence; the division by the step index is exact,
    so no fractions ever appear.
    """
    k = m.dim
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    a = m
    c = -a.trace()
    coeffs[k - 1] = c
    for step in range(2, k + 1):
        a = m @ a.add_scaled_identity(c)
        t = a.trace()
        q, r = divmod(t, step)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        c = -q
        coeffs[k - step] = c
    return IntPolynomial(tuple(coeffs))


def char_poly_via_cofactors(m: IntMatrix) -> IntPolynomial:
    """Independent characteristic-polynomial oracle: Laplace expansion of det(xI - M).

    Exponential in the dimension; intended for cross-checks at small sizes.
    """
    k = m.dim
    entries = [
        [
            IntPolynomial((-m.entry(i, j), 1)) if i == j else IntPolynomial((-m.entry(i, j),))
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


# ---------------------------------------------------------------------------
# factor search (rational roots + Kronecker interpolation)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _interpolate_integer(points: Sequence[int], values: Sequence[int]) -> IntPolynomial | None:
    """Newton interpolation; None unless all coefficients are integers."""
    n = len(points)
    table = [Fraction(v) for v in values]
    # divided differences in place
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (points[i] - points[i - level])
    coeffs = [Fraction(0)] * n
    coeffs[0] = table[0]
    basis = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for level in range(1, n):
        # basis *= (x - points[level-1])
        new = [Fraction(0)] * n
        for i in range(level):
            new[i] -= basis[i] * points[level - 1]
            new[i + 1] += basis[i]
        basis = new
        for i in range(level + 1):
            coeffs[i] += table[level] * basis[i]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return IntPolynomial(tuple(int(c) for c in coeffs))


def _find_nontrivial_factor(p: IntPolynomial) -> IntPolynomial | None:
    """A nonconstant proper integer divisor of p, or None when p is irreducible over Q.

    Rational-root test first; then Kronecker interpolation over divisor
    tuples, pruned by the Landau-Mignotte coefficient bound.
    """
    q = positive_leading(primitive_part(p))
    n = q.degree
    if n <= 1:
        return None
    if q.coeffs[0] == 0:
        return IntPolynomial((0, 1))
    lead, const = q.leading, q.coeffs[0]
    for r in _divisors(const):
        for s in _divisors(lead):
            if math.gcd(r, s) != 1:
                continue
            for root in (Fraction(r, s), Fraction(-r, s)):
                if q.evaluate(root) == 0:
                    return positive_leading(IntPolynomial((-root.numerator, root.denominator)))
    if n <= 3:
        return None
    norm2 = math.isqrt(sum(c * c for c in q.coeffs)) + 1
    point_pool = [0] + [s * v for v in range(1, n + 2) for s in (1, -1)]
    for d in range(2, n // 2 + 1):
        points = point_pool[: d + 1]
        bound = (2 ** d) * norm2
        candidate_values = []
        for idx, x in enumerate(points):
            v = q.evaluate(x)
            cap = bound * sum(abs(x) ** j for j in range(d + 1))
            divs = [t for t in _divisors(v) if t <= cap]
            if idx == 0:
                # fix the sign of g(points[0]) > 0: g and -g divide together
                candidate_values.append(divs)
            else:
                candidate_values.append([t for t in divs] + [-t for t in divs])
        for combo in itertools.product(*candidate_values):
            g = _interpolate_integer(points, combo)
            if g is None or g.degree < 1 or g.degree >= n:
                continue
            if poly_divides(g, q):
                return positive_leading(primitive_part(g))
    return None


def _check_degree_cap(p: IntPolynomial) -> None:
    if p.degree > IRREDUCIBILITY_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {p.degree} exceeds cap {IRREDUCIBILITY_DEGREE_CAP}")


def is_irreducible_over_q(p: IntPolynomial) -> bool:
    """Irreducibility over Q by bounded exact search; degree capped at 12."""
    if p.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    _check_degree_cap(p)
    return _find_nontrivial_factor(p) is None


# ---------------------------------------------------------------------------
# roots


@dataclass(frozen=True)
class Root:
    value: complex
    residual: float


@dataclass(frozen=True)
class DominantRoot:
    value: float
    lower: Fraction
    upper: Fraction
    verified: bool  # True when the bracket carries an exact sign change


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def dominant_real_root(p: IntPolynomial, *, bits: int = 80) -> DominantRoot:
    """Largest real root, refined by sign bisection with exact evaluation.

    A floating estimate seeds the bracket; the bracket is then verified and
    shrunk using Fraction arithmetic on the exact coefficients.  Falls back
    to the Cauchy-bound interval (1, 1 + max|coeff|) when the local bracket
    cannot be verified, and returns an unverified estimate (e.g. at an
    even-multiplicity root) as a last resort.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    q = positive_leading(primitive_part(p))
    est = np.roots(np.array(q.coeffs[::-1], dtype=float))
    reals = [z.real for z in est if abs(z.imag) <= 1e-7 * (1 + abs(z))]
    if not reals:
        raise NoConvergence("no real root found")
    r0 = max(reals)

    def bisect(lo: Fraction, hi: Fraction) -> DominantRoot:
        s_lo = _sign(q.evaluate(lo))
        width_target = Fraction(max(1, math.ceil(abs(r0)))) / (1 << bits)
        while hi - lo > width_target:
            mid = (lo + hi) / 2
            s_mid = _sign(q.evaluate(mid))
            if s_mid == 0:
                lo = hi = mid
                break
            if s_mid == s_lo:
                lo = mid
            else:
                hi = mid
        return DominantRoot(float((lo + hi) / 2), lo, hi, True)

    delta = Fraction(1e-7 * (1 + abs(r0))).limit_denominator(10 ** 18)
    for _ in range(6):
        lo = Fraction(r0).limit_denominator(10 ** 18) - delta
        hi = Fraction(r0).limit_denominator(10 ** 18) + delta
        s_lo, s_hi = _sign(q.evaluate(lo)), _sign(q.evaluate(hi))
        if s_lo == 0:
            return DominantRoot(float(lo), lo, lo, True)
        if s_hi == 0:
            return DominantRoot(float(hi), hi, hi, True)
        if s_lo != s_hi:
            return bisect(lo, hi)
        delta *= 16
    cauchy_hi = Fraction(1 + max(abs(c) for c in q.coeffs))
    if _sign(q.evaluate(Fraction(1))) * _sign(q.evaluate(cauchy_hi)) < 0:
        return bisect(Fraction(1), cauchy_hi)
    approx = Fraction(r0).limit_denominator(10 ** 18)
    return DominantRoot(r0, approx - delta, approx + delta, False)


def all_roots(p: IntPolynomial, tol: float = 1e-10) -> list[Root]:
    """All deg(p) complex roots, Newton-refined until |p(z)| / ||p|| < tol.

    The dominant real root, when present, is snapped to its sign-bisected
    value.  Raises NoConvergence (with the residual) if refinement stalls.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    coeffs = [float(c) for c in p.coeffs]
    norm = math.sqrt(sum(c * c for c in coeffs))
    deriv = p.derivative()

    def pval(z: complex) -> complex:
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * z + c
        return acc

    def dval(z: complex) -> complex:
        dcs = [float(c) for c in deriv.coeffs]
        if not dcs:
            return 0.0
        acc = dcs[-1]
        for c in reversed(dcs[:-1]):
            acc = acc * z + c
        return acc

    estimates = list(np.roots(np.array(p.coeffs[::-1], dtype=float)))
    try:
        dom = dominant_real_root(p)
        nearest = min(range(len(estimates)), key=lambda i: abs(estimates[i] - dom.value))
        estimates[nearest] = complex(dom.value)
    except NoConvergence:
        pass

    roots = []
    for z in estimates:
        z = complex(z)
        residual = abs(pval(z)) / norm
        for _ in range(60):
            if residual < tol:
                break
            d = dval(z)
            if abs(d) < 1e-300:
                z += 1e-8 * (1 + abs(z))
                d = dval(z)
            z = z - pval(z) / d
            residual = abs(pval(z)) / norm
        if residual >= tol:
            raise NoConvergence(f"root refinement stalled at residual {residual:.3e}")
        roots.append(Root(z, residual))
    return roots


def minimal_polynomial_of_dominant_root(
    p: IntPolynomial, dom: DominantRoot | None = None
) -> IntPolynomial:
    """Monic-up-to-sign irreducible factor of p vanishing at its largest real root.

    Factors are peeled off with the bounded Kronecker search; the side
    containing the root is selected by an exact sign change over the
    bisection bracket whenever the bracket is verified, or by an exact zero
    when the bracket has collapsed onto the root.
    """
    if dom is None:
        dom = dominant_real_root(p)
    q = positive_leading(primitive_part(p))
    while True:
        _check_degree_cap(q)
        g = _find_nontrivial_factor(q)
        if g is None:
            return positive_leading(q)
        h = positive_leading(primitive_part(poly_exact_div(q, g)))
        if dom.verified and dom.lower == dom.upper:
            q = g if g.evaluate(dom.lower) == 0 else h
        elif dom.verified:
            if _sign(g.evaluate(dom.lower)) * _sign(g.evaluate(dom.upper)) < 0:
                q = g
            else:
                q = h
        else:
            q = min((g, h), key=lambda f: abs(complex(f.evaluate(dom.value))))


# ---------------------------------------------------------------------------
# Pisot classification


@dataclass(frozen=True)
class PisotReport:
    """Classification flags for a substitution's incidence matrix.

    matrix is the incidence matrix classified.  margin is the smallest
    distance of a non-dominant minimal-polynomial root modulus from 1 (inf
    when the dominant root has no conjugates).  char_poly is the
    characteristic polynomial and minimal_polynomial its irreducible factor
    vanishing at the Perron root.
    """

    perron_root: float
    is_primitive: bool
    is_pisot: bool
    is_irreducible: bool
    is_unimodular: bool
    margin: float
    char_poly: IntPolynomial
    minimal_polynomial: IntPolynomial
    matrix: IntMatrix


def _as_incidence(value) -> IntMatrix:
    if isinstance(value, IntMatrix):
        return value
    from .words import incidence_matrix  # deferred: words depends on this module

    return incidence_matrix(value)


def classify_pisot(substitution_or_matrix) -> PisotReport:
    """Assemble primitivity, unimodularity, irreducibility and the Pisot flag.

    Raises IndeterminateClassification when a root modulus (dominant or
    conjugate) sits within CLASSIFICATION_MARGIN of 1 without being exactly 1.
    """
    m = _as_incidence(substitution_or_matrix)
    primitive = is_primitive(m)
    unimodular = is_unimodular(m)
    p = char_poly(m)
    _check_degree_cap(p)  # refuse before any root work
    dom = dominant_real_root(p)
    minpoly = minimal_polynomial_of_dominant_root(p, dom)
    irreducible = minpoly.degree == p.degree
    lam = dom.value

    if abs(lam - 1) <= CLASSIFICATION_MARGIN:
        if p.evaluate(1) == 0:
            # dominant root is exactly 1: decidable, not Pisot
            return PisotReport(1.0, primitive, False, irreducible, unimodular, math.inf, p, minpoly, m)
        raise IndeterminateClassification(
            f"dominant root {lam!r} within {CLASSIFICATION_MARGIN} of 1"
        )

    conj = all_roots(minpoly)
    nearest = min(range(len(conj)), key=lambda i: abs(conj[i].value - lam))
    moduli = [abs(r.value) for i, r in enumerate(conj) if i != nearest]
    margin = min((abs(1 - mu) for mu in moduli), default=math.inf)
    if margin <= CLASSIFICATION_MARGIN:
        raise IndeterminateClassification(
            f"a conjugate modulus is within {margin:.3e} of 1"
        )
    pisot = lam > 1 and all(mu < 1 for mu in moduli)
    return PisotReport(lam, primitive, pisot, irreducible, unimodular, margin, p, minpoly, m)
