"""The projector onto the contracting space, read off the factorisation.

Let M be primitive with characteristic polynomial p = f c, where f is the
minimal polynomial of the Perron root lambda.  Lambda is a simple root of p
(Perron-Frobenius), so f divides p once and gcd(f, c) = 1 over Q.

Bezout: s f + t c = 1 for some s, t in Q[x].  Then e = t c mod p, which is
c (c^-1 mod f), gives E = e(M), the projector onto ker f(M) along ker c(M):
on ker f(M), t(M) c(M) = 1 - s(M) f(M) = 1, and on ker c(M) it is 0; the
two kernels span R^k because p(M) = 0.  E = I when p is irreducible.  E is
exact: e has rational coefficients, and e(M) is evaluated by Horner's rule
in integers over one common denominator.

On ker f(M), M has the distinct eigenvalues lambda and its conjugates.  With
h = f / (x - lambda), h(M) kills every conjugate eigenvector and multiplies
the lambda-eigenvector by h(lambda) != 0, so P_lambda = h(M) E / h(lambda)
is the projector onto the expanding line along the conjugate eigenvectors
and ker c(M), and P = E - P_lambda is the projector onto the contracting
space (spanned by the conjugate eigenvectors) along the expanding line and
the complementary space ker c(M).  Both are evaluated exactly at the
midpoint a / 2^t of the Perron root's bracket, in integers scaled by powers
of 2^t, and each entry is rounded once to double; P^2 = P and P P_lambda = 0
are checked to within CHECK_LIMIT.

The chart of the contracting space is the QR factorisation of the
conjugate eigenvectors, one SVD null vector of M - mu per conjugate mu;
a complex pair gives its (real, imaginary) column pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import IntMatrix, PisotReport, _qinverse, _zmul, classify_pisot, poly_exact_div
from .errors import IllConditioned, NotPisot, NotPrimitive

#: Largest entry of P^2 - P and of P P_lambda that projection_operator accepts.
CHECK_LIMIT = 1e-10


@dataclass(frozen=True)
class SpectralSplit:
    """The contracting projector P, the expanding projector P_lambda, and the
    conjugate eigenvectors (columns of basis_s) that span the image of P."""

    report: PisotReport
    basis_s: np.ndarray
    projector: np.ndarray
    expanding: np.ndarray

    @property
    def stable_dim(self) -> int:
        return self.basis_s.shape[1]

    @property
    def complementary_dim(self) -> int:
        """deg c, the dimension of ker c(M)."""
        return self.report.char_poly.degree - self.report.minimal_polynomial.degree


@dataclass(frozen=True)
class ProjectionOperator:
    """Projection P onto the contracting space along the other two, plus an
    orthonormal chart of that space and the classification it was built from."""

    matrix: np.ndarray  # k x k
    chart: np.ndarray   # d x k, rows orthonormal
    report: PisotReport

    def project_many(self, vectors: np.ndarray) -> np.ndarray:
        """Row-wise projection of an (n, k) array to (n, d) chart coordinates.

        Float64 input, such as the column-major prefix_counts sums of one
        block of the cloud walk, is read without a copy; integer input is
        converted first.  The result is row-major; the walk writes it into
        its column-major coordinates, and LabeledPointCloud stores any other
        input column-major.
        """
        vs = np.asarray(vectors, dtype=float)
        return (vs @ self.matrix.T) @ self.chart.T


def _canonical_sign(column: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(column)))
    return -column if column[j] < 0 else column


def _null_column(a: np.ndarray) -> np.ndarray:
    """The right-singular vector of smallest singular value."""
    return np.linalg.svd(a)[2][-1].conj()


def _matrix_horner(coeffs: Sequence[int], m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] m^j x in integers (object arrays), by Horner's rule."""
    acc = coeffs[-1] * x
    for coeff in reversed(coeffs[:-1]):
        acc = m @ acc + coeff * x
    return acc


def _bezout_idempotent(report: PisotReport) -> tuple[np.ndarray, int]:
    """(A, D) with E = A / D exactly: A an integer (object) array, D >= 1."""
    f = report.minimal_polynomial.coeffs
    c = poly_exact_div(report.char_poly, report.minimal_polynomial).coeffs
    u = _qinverse(c, f)
    den = math.lcm(*(x.denominator for x in u))
    e = _zmul(c, [int(x * den) for x in u])
    m = np.array(report.matrix.rows, dtype=object)
    return _matrix_horner(e, m, np.identity(len(m), dtype=object)), den


def spectral_split(matrix_or_report: IntMatrix | PisotReport) -> SpectralSplit:
    """P and P_lambda from the factorisation p = f c, and the conjugate eigenvectors.

    Takes a classify_pisot report, or a matrix that is classified here.
    Requires a primitive matrix whose dominant root is Pisot.  P and P_lambda
    are exact at lambda = a / s (s a power of 2), the midpoint of the report's
    perron_bracket, and rounded once: with E = A / D and n = deg f,
    s^(n-1) h(M) A and s^(n-1) h(lambda) are integers.  The conjugates come
    from the report.
    """
    if isinstance(matrix_or_report, PisotReport):
        report = matrix_or_report
    else:
        report = classify_pisot(matrix_or_report)
    if not report.is_primitive:
        raise NotPrimitive("spectral split needs a primitive matrix")
    if not report.is_pisot:
        raise NotPisot("spectral split needs a Pisot dominant root")

    k = report.matrix.dim
    mf = report.matrix.to_numpy()
    minpoly = report.minimal_polynomial
    a, s = ((report.perron_bracket.lower + report.perron_bracket.upper) / 2).as_integer_ratio()

    numerator, den = _bezout_idempotent(report)
    h, h_lam = [minpoly.coeffs[-1]], minpoly.coeffs[-1]  # s^i h_(n-1-i), and s^(n-1) h(lambda)
    for i, coeff in enumerate(minpoly.coeffs[-2:0:-1], 1):  # synthetic division by x - a / s
        h.append(coeff * s**i + a * h[-1])
        h_lam = h_lam * a + h[-1]
    h_a = _matrix_horner([c * s**j for j, c in enumerate(h[::-1])], np.array(report.matrix.rows, dtype=object), numerator)

    conjugates = sorted((r.value for r in report.conjugates), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    cols = []
    for mu in conjugates:
        if mu.imag < -1e-9:
            continue  # a conjugate partner handled with imag > 0
        if abs(mu.imag) <= 1e-9:
            cols.append(_canonical_sign(_null_column(mf - mu.real * np.eye(k)).real))
        else:
            w = _null_column(mf - mu * np.eye(k, dtype=complex))
            j = int(np.argmax(np.abs(w)))
            w = w * np.exp(-1j * np.angle(w[j]))
            cols.extend([w.real, w.imag])
    basis_s = np.column_stack(cols) if cols else np.zeros((k, 0))
    if basis_s.shape[1] != minpoly.degree - 1:
        raise IllConditioned("contracting dimension disagrees with the conjugate count")

    return SpectralSplit(
        report=report,
        basis_s=basis_s,
        projector=((h_lam * numerator - h_a) / (den * h_lam)).astype(float),
        expanding=(h_a / (den * h_lam)).astype(float),
    )


def projection_operator(split: SpectralSplit) -> ProjectionOperator:
    """P with an orthonormal chart of the contracting space (QR of basis_s)."""
    k = split.report.matrix.dim
    d = split.stable_dim
    p = split.projector

    q, r = np.linalg.qr(split.basis_s) if d else (np.zeros((k, 0)), np.zeros((0, 0)))
    if d:
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs
    chart = q.T

    idem = float(np.max(np.abs(p @ p - p)))
    if idem > CHECK_LIMIT:
        raise IllConditioned(f"projector idempotency defect {idem:.3e} above {CHECK_LIMIT:.1e}")
    kernel = float(np.max(np.abs(p @ split.expanding)))
    if kernel > CHECK_LIMIT:
        raise IllConditioned(f"projector does not annihilate the expanding line ({kernel:.3e})")
    return ProjectionOperator(matrix=p, chart=chart, report=split.report)
