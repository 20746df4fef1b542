import math
import random

import numpy as np
import pytest

import rauzykit.spectral as spectral
from conftest import fibonacci, kbonacci, random_primitive_substitution, tribonacci
from rauzykit import (
    IndeterminateClassification,
    IntMatrix,
    NoConvergence,
    NotPisot,
    all_roots,
    classify_pisot,
    incidence_matrix,
    prefix_counts,
    projection_operator,
    spectral_split,
    stream_for,
)


def tribonacci_operator():
    split = spectral_split(incidence_matrix(tribonacci()))
    return split, projection_operator(split)


def project(op, v):
    """Chart coordinates of one vector, through the row-wise projection."""
    return op.project_many(np.atleast_2d(v))[0]


class TestSpectralSplit:
    def test_tribonacci_dimensions(self):
        split, _ = tribonacci_operator()
        assert split.basis_u.shape == (3, 1)
        assert split.stable_dim == 2
        assert split.basis_c.shape == (3, 0)  # irreducible: no complementary space
        assert max(split.residuals) < 1e-10
        assert split.condition_number < 1e8

    def test_fibonacci_line(self):
        split = spectral_split(incidence_matrix(fibonacci()))
        assert split.stable_dim == 1
        assert split.basis_c.shape == (2, 0)

    def test_reducible_three_by_three(self):
        # char poly (x^2 - 3x + 1)(x - 1): one expanding, one contracting,
        # one complementary direction
        m = IntMatrix([[2, 0, 1], [1, 0, 0], [0, 1, 2]])
        split = spectral_split(m)
        assert (split.basis_u.shape[1], split.stable_dim, split.basis_c.shape[1]) == (1, 1, 1)
        assert split.report.perron_root == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)

    def test_factor_search_runs_once_per_split(self, monkeypatch):
        # the split reuses classify_pisot's minimal polynomial instead of
        # factoring the char poly again
        import rauzykit.algebra as algebra

        m = IntMatrix([[2, 0, 1], [1, 0, 0], [0, 1, 2]])
        calls = []
        factor = algebra.factor_over_z

        def counting(p):
            calls.append(p)
            return factor(p)

        monkeypatch.setattr(algebra, "factor_over_z", counting)
        algebra.classify_pisot(m)
        one_search = len(calls)
        calls.clear()
        spectral_split(m)
        assert len(calls) == one_search

    def test_perron_vector_positive(self):
        split, _ = tribonacci_operator()
        assert (split.basis_u > 0).all() or (split.basis_u < 0).all()
        assert np.sum(split.basis_u) > 0

    def test_rejects_non_pisot(self):
        # char poly x^2 - x - 3: conjugate modulus (sqrt(13) - 1) / 2 > 1
        with pytest.raises(NotPisot):
            spectral_split(IntMatrix([[1, 3], [1, 0]]))

    def test_integer_dominant_root_gives_empty_chart(self):
        # roots 3 and 1: the dominant root has no conjugates, so the
        # contracting space is trivial and the rest is complementary
        split = spectral_split(IntMatrix([[2, 1], [1, 2]]))
        assert split.stable_dim == 0
        assert split.basis_c.shape == (2, 1)
        op = projection_operator(split)
        assert op.chart.shape == (0, 2)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError):
            spectral_split(incidence_matrix(tribonacci()), tol)


class TestProjectionOperator:
    def test_idempotent(self):
        _, op = tribonacci_operator()
        p = op.matrix
        assert np.max(np.abs(p @ p - p)) < 1e-10

    def test_kills_expanding_direction(self):
        split, op = tribonacci_operator()
        assert np.linalg.norm(op.matrix @ split.basis_u) < 1e-10

    def test_fixes_contracting_space(self):
        split, op = tribonacci_operator()
        assert np.max(np.abs(op.matrix @ split.basis_s - split.basis_s)) < 1e-10

    def test_commutes_with_matrix(self):
        split, op = tribonacci_operator()
        m = split.report.matrix.to_numpy()
        assert np.max(np.abs(op.matrix @ m - m @ op.matrix)) < 10 * split.tol

    def test_chart_isometry(self):
        _, op = tribonacci_operator()
        d = op.chart.shape[0]
        assert np.max(np.abs(op.chart @ op.chart.T - np.eye(d))) < 1e-12


class TestProject:
    def test_zero_vector(self):
        _, op = tribonacci_operator()
        assert np.allclose(project(op, [0, 0, 0]), 0.0)

    def test_odd_symmetry(self):
        _, op = tribonacci_operator()
        v = np.array([3, -1, 2])
        assert np.allclose(project(op, -v), -project(op, v), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        _, op = tribonacci_operator()
        for _ in range(50):
            v, w = rng.integers(-9, 9, size=3), rng.integers(-9, 9, size=3)
            assert np.allclose(
                project(op, v + w), project(op, v) + project(op, w), atol=1e-10
            )

    def test_contracting_block_is_a_scaled_rotation(self):
        # in eigenbasis coordinates the contracting action is an exact
        # rotation scaled by the conjugate modulus 1/sqrt(lambda)
        split, _ = tribonacci_operator()
        m = split.report.matrix.to_numpy()
        coeff_rep = np.linalg.pinv(split.basis_s) @ m @ split.basis_s
        modulus = 1 / math.sqrt(split.report.perron_root)
        gram = coeff_rep.T @ coeff_rep
        assert np.max(np.abs(gram - (modulus ** 2) * np.eye(2))) < 1e-9

    def test_iterated_contraction(self):
        # the restricted operator need not contract in one Euclidean step,
        # but its iterates decay at the conjugate-modulus rate
        split, op = tribonacci_operator()
        m = split.report.matrix.to_numpy()
        restricted = op.chart @ m @ op.chart.T
        modulus = 1 / math.sqrt(split.report.perron_root)
        power = np.linalg.matrix_power(restricted, 12)
        assert np.linalg.norm(power, 2) < 3 * modulus ** 12
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.integers(-9, 9, size=3)
            if np.linalg.norm(project(op, v)) < 1e-9:
                continue
            iterated = np.linalg.matrix_power(m, 12) @ v
            assert np.linalg.norm(project(op, iterated)) < np.linalg.norm(project(op, v))


class TestBoundedness:
    def test_projected_prefix_sums_stay_bounded(self):
        sub = tribonacci()
        _, op = tribonacci_operator()
        stream = stream_for(sub)
        sums = prefix_counts(stream.prefix_indices(300_000), np.eye(3, dtype=np.int64))
        coords = op.project_many(sums)
        norms = np.linalg.norm(coords, axis=1)
        early = norms[:100_000].max()
        assert norms.max() <= early * 1.01  # no growth trend


class TestRandomizedResiduals:
    def test_projector_residuals_on_random_pisot_inputs(self):
        rng = random.Random(61)
        checked = 0
        while checked < 40:
            sub = random_primitive_substitution(rng)
            try:
                report = classify_pisot(sub)
            except IndeterminateClassification:
                continue
            if not report.is_pisot:
                continue
            split = spectral_split(report)
            op = projection_operator(split)
            p = op.matrix
            assert np.max(np.abs(p @ p - p)) < 1e-9
            assert np.linalg.norm(p @ split.basis_u) < 1e-9
            checked += 1


def random_pisot_substitutions(seed, count):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        sub = random_primitive_substitution(rng, k=rng.choice([2, 3, 4, 5]), max_len=4)
        try:
            if classify_pisot(sub).is_pisot:
                found.append(sub)
        except IndeterminateClassification:
            continue
    return found


def without_nearest(values, target):
    nearest = min(range(len(values)), key=lambda i: abs(values[i] - target))
    return [z for i, z in enumerate(values) if i != nearest]


class TestContractingRootsFromReport:
    """spectral_split refines the conjugates carried by the report instead of
    recomputing the minimal polynomial's roots."""

    SUBSTITUTIONS = [kbonacci(k) for k in range(3, 9)] + random_pisot_substitutions(71, 30)

    # at 1e-15 some roots take further Newton steps and some stall
    @pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-15])
    def test_equal_to_fresh_roots(self, tol, monkeypatch):
        refined, fresh = [], []
        newton, roots_of = spectral._newton, spectral.all_roots

        def recording_newton(p, starts, t):
            roots = newton(p, starts, t)
            refined.append((p, [r.value for r in roots]))
            return roots

        def recording_all_roots(p, tol):
            fresh.append(p)
            return roots_of(p, tol=tol)

        monkeypatch.setattr(spectral, "_newton", recording_newton)
        monkeypatch.setattr(spectral, "all_roots", recording_all_roots)
        for sub in self.SUBSTITUTIONS:
            report = classify_pisot(sub)
            refined.clear()
            fresh.clear()
            try:
                spectral_split(report, tol)
            except NoConvergence:  # a stalled root, or an eigenvector residual above tol
                pass
            assert report.minimal_polynomial not in fresh
            if not refined:
                with pytest.raises(NoConvergence):
                    all_roots(report.minimal_polynomial, tol)
                continue
            [(p, values)] = refined
            assert p == report.minimal_polynomial
            lam = report.perron_root
            want = [r.value for r in all_roots(report.minimal_polynomial, tol)]
            assert without_nearest(values, lam) == without_nearest(want, lam)
