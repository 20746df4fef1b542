"""Invariant-subspace splitting and projection onto the contracting plane.

The ambient space R^k decomposes into the expanding line of the dominant
eigenvalue, the contracting space spanned by the eigenvectors of its
conjugates, and the complementary space of the remaining eigenvalues.
Floating point (binary64) with explicit residual checks; complex eigenpairs
become (real, imaginary) column pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import IntMatrix, PisotReport, _newton, all_roots, classify_pisot, poly_exact_div
from .errors import IllConditioned, NoConvergence, NotPisot, NotPrimitive

DEFAULT_TOL = 1e-10
CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class SpectralSplit:
    """Bases of the expanding, contracting, and complementary subspaces.

    Columns of [basis_u | basis_s | basis_c] span R^k; residuals record
    per-column invariance defects; report classifies the matrix split.
    """

    report: PisotReport
    basis_u: np.ndarray
    basis_s: np.ndarray
    basis_c: np.ndarray
    residuals: tuple[float, ...]
    condition_number: float
    tol: float

    @property
    def stable_dim(self) -> int:
        return self.basis_s.shape[1]

    def full_basis(self) -> np.ndarray:
        return np.hstack([self.basis_u, self.basis_s, self.basis_c])


@dataclass(frozen=True)
class ProjectionOperator:
    """Projection P onto the contracting space along the other two, plus an
    orthonormal chart of that space and the classification it was built from."""

    matrix: np.ndarray  # k x k
    chart: np.ndarray   # d x k, rows orthonormal
    tol: float
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


def _null_columns(a: np.ndarray, count: int) -> np.ndarray:
    """The `count` right-singular vectors of smallest singular value."""
    _, _, vh = np.linalg.svd(a)
    return vh[-count:].conj().T


def spectral_split(matrix_or_report: IntMatrix | PisotReport, tol: float = DEFAULT_TOL) -> SpectralSplit:
    """Split R^k by the dominant eigenvalue, its conjugates, and the rest.

    Takes a classify_pisot report, or a matrix that is classified here.
    Requires a primitive matrix whose dominant root is Pisot; the
    complementary block is empty exactly when the characteristic polynomial
    is irreducible.  tol, which bounds every residual check, must be finite and > 0.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
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
    cofactor = poly_exact_div(report.char_poly, minpoly)

    basis_u = _null_columns(mf - lam * np.eye(k), 1).real
    basis_u = _canonical_sign(basis_u[:, 0]).reshape(k, 1)
    if np.sum(basis_u) < 0:
        basis_u = -basis_u
    residuals = [float(np.linalg.norm(mf @ basis_u[:, 0] - lam * basis_u[:, 0]))]

    def eig_columns(found, skip_value=None):
        cols = []
        res = []
        roots = sorted(
            (r.value for r in found),
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        if skip_value is not None:
            nearest = min(range(len(roots)), key=lambda i: abs(roots[i] - skip_value))
            roots = [z for i, z in enumerate(roots) if i != nearest]
        # cluster equal roots to handle multiplicities
        clusters: list[list[complex]] = []
        for z in roots:
            for cluster in clusters:
                if abs(z - cluster[0]) < 1e-6 * (1 + abs(z)):
                    cluster.append(z)
                    break
            else:
                clusters.append([z])
        for cluster in clusters:
            mu = sum(cluster) / len(cluster)
            mult = len(cluster)
            if mu.imag < -1e-9:
                continue  # conjugate partner handled with imag > 0
            if abs(mu.imag) <= 1e-9:
                mu_r = mu.real
                a = np.linalg.matrix_power(mf - mu_r * np.eye(k), mult)
                vecs = _null_columns(a, mult).real
                for idx in range(mult):
                    v = _canonical_sign(vecs[:, idx])
                    cols.append(v.reshape(k, 1))
                    res.append(float(np.linalg.norm(a @ v)))
            else:
                a = np.linalg.matrix_power(mf - mu * np.eye(k, dtype=complex), mult)
                vecs = _null_columns(a, mult)
                for idx in range(mult):
                    w = vecs[:, idx]
                    j = int(np.argmax(np.abs(w)))
                    w = w * np.exp(-1j * np.angle(w[j]))
                    block = np.column_stack([w.real, w.imag])
                    cols.append(block)
                    r = float(np.linalg.norm(a @ w))
                    res.extend([r, r])
        if cols:
            return np.hstack(cols), res
        return np.zeros((k, 0)), res

    # the report's roots are refined to 1e-10 already; a tighter tol goes on
    # from them along the same Newton steps
    root_tol = min(tol, 1e-10)
    basis_s, res_s = eig_columns(_newton(minpoly, (r.value for r in report.roots), root_tol), lam)
    basis_c, res_c = eig_columns(all_roots(cofactor, root_tol) if cofactor.degree >= 1 else [])
    residuals.extend(res_s)
    residuals.extend(res_c)

    full = np.hstack([basis_u, basis_s, basis_c])
    if full.shape != (k, k):
        raise IllConditioned("eigenbasis does not span the ambient space")
    cond = float(np.linalg.cond(full))
    if cond > CONDITION_LIMIT:
        raise IllConditioned(f"basis condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    if residuals[0] > tol:
        raise NoConvergence(f"dominant eigenvector residual {residuals[0]:.3e} above {tol:.1e}")
    if basis_s.shape[1] != minpoly.degree - 1:
        raise IllConditioned("contracting dimension disagrees with the conjugate count")

    return SpectralSplit(
        report=report,
        basis_u=basis_u,
        basis_s=basis_s,
        basis_c=basis_c,
        residuals=tuple(residuals),
        condition_number=cond,
        tol=tol,
    )


def projection_operator(split: SpectralSplit) -> ProjectionOperator:
    """P = B diag(0, I_d, 0) B^{-1} with an orthonormal chart of the contracting block."""
    k = split.report.matrix.dim
    d = split.stable_dim
    b = split.full_basis()
    selector = np.zeros((k, k))
    for i in range(1, 1 + d):
        selector[i, i] = 1.0
    p = b @ selector @ np.linalg.inv(b)

    q, r = np.linalg.qr(split.basis_s) if d else (np.zeros((k, 0)), np.zeros((0, 0)))
    if d:
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs
    chart = q.T

    tol = split.tol
    idem = float(np.max(np.abs(p @ p - p))) if k else 0.0
    if idem > tol:
        raise IllConditioned(f"projector idempotency defect {idem:.3e} above {tol:.1e}")
    kernel = float(np.linalg.norm(p @ split.basis_u))
    if kernel > tol:
        raise IllConditioned(f"projector does not annihilate the expanding line ({kernel:.3e})")
    return ProjectionOperator(matrix=p, chart=chart, tol=tol, report=split.report)

