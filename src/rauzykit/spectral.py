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
the complementary space ker c(M).  Floating point enters only through
lambda, the float Perron root sharpened by one exact Newton step and held
in long double, in which h and h(M) E are evaluated before P is rounded to
double; P^2 = P and P P_lambda = 0 are checked to within CHECK_LIMIT.

The chart of the contracting space is the QR factorisation of the
conjugate eigenvectors, one SVD null vector of M - mu per conjugate mu;
a complex pair gives its (real, imaginary) column pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

        The product reads column-major input, as prefix_counts returns it,
        without a copy; its result is row-major, and LabeledPointCloud stores
        it column-major.
        """
        vs = np.asarray(vectors, dtype=float)
        return (vs @ self.matrix.T) @ self.chart.T


def _canonical_sign(column: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(column)))
    return -column if column[j] < 0 else column


def _null_column(a: np.ndarray) -> np.ndarray:
    """The right-singular vector of smallest singular value."""
    return np.linalg.svd(a)[2][-1].conj()


def _bezout_idempotent(report: PisotReport) -> tuple[np.ndarray, int]:
    """(A, D) with E = A / D exactly: A an integer (object) array, D >= 1."""
    f = report.minimal_polynomial.coeffs
    c = poly_exact_div(report.char_poly, report.minimal_polynomial).coeffs
    u = _qinverse(c, f)
    den = math.lcm(*(x.denominator for x in u))
    e = _zmul(c, [int(x * den) for x in u])
    m = np.array(report.matrix.rows, dtype=object)
    ones = np.identity(len(m), dtype=object)
    acc = e[-1] * ones
    for coeff in reversed(e[:-1]):
        acc = acc @ m + coeff * ones
    return acc, den


def spectral_split(matrix_or_report: IntMatrix | PisotReport) -> SpectralSplit:
    """P and P_lambda from the factorisation p = f c, and the conjugate eigenvectors.

    Takes a classify_pisot report, or a matrix that is classified here.
    Requires a primitive matrix whose dominant root is Pisot.  The
    conjugates come from the report, already Newton-refined.
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
    lam = report.perron_root
    minpoly = report.minimal_polynomial

    numerator, den = _bezout_idempotent(report)
    idem = numerator.astype(np.longdouble) / den
    at = Fraction(lam)
    step = -minpoly.evaluate(at) / minpoly.derivative().evaluate(at)
    lam_ld = np.longdouble(lam) + np.longdouble(float(step))
    h = [np.longdouble(minpoly.coeffs[-1])]  # f / (x - lambda), highest degree first
    for coeff in minpoly.coeffs[-2:0:-1]:
        h.append(coeff + lam_ld * h[-1])
    m_ld = mf.astype(np.longdouble)
    acc, h_lam = h[0] * idem, h[0]
    for coeff in h[1:]:
        acc = m_ld @ acc + coeff * idem
        h_lam = h_lam * lam_ld + coeff
    expanding = acc / h_lam

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
        projector=(idem - expanding).astype(float),
        expanding=expanding.astype(float),
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
