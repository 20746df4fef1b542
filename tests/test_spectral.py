import dataclasses
import math
import random

import numpy as np
import pytest

import rauzykit.spectral as spectral
from conftest import fibonacci, kbonacci, random_primitive_substitution, tribonacci
from oracles import evaluate_at_matrix, sympy_contracting_projector
from rauzykit import (
    IllConditioned,
    IndeterminateClassification,
    IntMatrix,
    NotPisot,
    Substitution,
    classify_pisot,
    export_csv,
    factor_over_z,
    incidence_matrix,
    prefix_counts,
    projection_operator,
    rauzy_cloud,
    spectral_split,
    stream_for,
    substitution_to_dict,
)
from rauzykit.selfcheck import family_substitution, flipped_tribonacci


def tribonacci_operator():
    split = spectral_split(incidence_matrix(tribonacci()))
    return split, projection_operator(split)


def project(op, v):
    """Chart coordinates of one vector, through the row-wise projection."""
    return op.project_many(np.atleast_2d(v))[0]


def perron_vector(m: IntMatrix) -> np.ndarray:
    """numpy's eigenvector of the eigenvalue of largest real part, the Perron
    root of a primitive matrix."""
    values, vectors = np.linalg.eig(m.to_numpy())
    return vectors[:, np.argmax(values.real)].real


class TestSpectralSplit:
    def test_tribonacci_dimensions(self):
        split, op = tribonacci_operator()
        assert np.trace(split.expanding) == pytest.approx(1.0, abs=1e-12)  # one expanding line
        assert split.stable_dim == 2
        assert split.complementary_dim == 0  # irreducible: no complementary space
        m = split.report.matrix.to_numpy()
        # the conjugate eigenvectors span an invariant plane
        block = np.linalg.lstsq(split.basis_s, m @ split.basis_s, rcond=None)[0]
        assert np.max(np.abs(m @ split.basis_s - split.basis_s @ block)) < 1e-10
        assert np.linalg.norm(op.matrix @ perron_vector(split.report.matrix)) < 1e-12

    def test_fibonacci_line(self):
        split = spectral_split(incidence_matrix(fibonacci()))
        assert split.stable_dim == 1
        assert split.complementary_dim == 0

    def test_reducible_three_by_three(self):
        # char poly (x^2 - 3x + 1)(x - 1): one expanding, one contracting,
        # one complementary direction
        m = IntMatrix([[2, 0, 1], [1, 0, 0], [0, 1, 2]])
        split = spectral_split(m)
        assert np.trace(split.expanding) == pytest.approx(1.0, abs=1e-12)
        assert (split.stable_dim, split.complementary_dim) == (1, 1)
        assert np.linalg.matrix_rank(split.projector) == 1
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

    def test_expanding_projector_positive(self):
        # P_lambda = v w^T / (w^T v) for the positive right and left Perron vectors
        split, _ = tribonacci_operator()
        assert (split.expanding > 0).all()

    def test_rejects_non_pisot(self):
        # char poly x^2 - x - 3: conjugate modulus (sqrt(13) - 1) / 2 > 1
        with pytest.raises(NotPisot):
            spectral_split(IntMatrix([[1, 3], [1, 0]]))

    def test_integer_dominant_root_gives_empty_chart(self):
        # roots 3 and 1: the dominant root has no conjugates, so the
        # contracting space is trivial and the rest is complementary
        split = spectral_split(IntMatrix([[2, 1], [1, 2]]))
        assert split.stable_dim == 0
        assert split.complementary_dim == 1
        op = projection_operator(split)
        assert op.chart.shape == (0, 2)
        assert np.max(np.abs(op.matrix)) < 1e-15


class TestRemovedToleranceNames:
    """The tolerance setting is gone: the split takes no tol, neither
    dataclass carries one, and there is no module default."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: spectral_split(m, 1e-10),
            lambda m: spectral_split(m, tol=1e-10),
        ],
        ids=["positional", "keyword"],
    )
    def test_spectral_split_takes_no_tol(self, call):
        with pytest.raises(TypeError):
            call(incidence_matrix(tribonacci()))

    @pytest.mark.parametrize("cls", [spectral.SpectralSplit, spectral.ProjectionOperator], ids=lambda c: c.__name__)
    def test_dataclass_has_no_tol_field(self, cls):
        assert "tol" not in {f.name for f in dataclasses.fields(cls)}

    def test_no_default_tol(self):
        assert not hasattr(spectral, "DEFAULT_TOL")


class TestProjectionOperator:
    def test_idempotent(self):
        _, op = tribonacci_operator()
        p = op.matrix
        assert np.max(np.abs(p @ p - p)) < 1e-10

    def test_kills_expanding_direction(self):
        split, op = tribonacci_operator()
        assert np.linalg.norm(op.matrix @ perron_vector(split.report.matrix)) < 1e-10

    def test_fixes_contracting_space(self):
        split, op = tribonacci_operator()
        assert np.max(np.abs(op.matrix @ split.basis_s - split.basis_s)) < 1e-10

    def test_commutes_with_matrix(self):
        split, op = tribonacci_operator()
        m = split.report.matrix.to_numpy()
        assert np.max(np.abs(op.matrix @ m - m @ op.matrix)) < 10 * spectral.CHECK_LIMIT

    @pytest.mark.parametrize(
        "field, message",
        [("projector", "idempotency defect"), ("expanding", "does not annihilate the expanding line")],
    )
    def test_checks_refuse_a_perturbed_split(self, field, message):
        # negative control: one entry off by 1e-6 breaks P^2 = P, or P P_lambda = 0
        split, _ = tribonacci_operator()
        perturbed = getattr(split, field).copy()
        perturbed[0, 0] += 1e-6
        with pytest.raises(IllConditioned, match=message):
            projection_operator(dataclasses.replace(split, **{field: perturbed}))

    @pytest.mark.parametrize("field", ["projector", "expanding"])
    def test_checks_accept_a_defect_below_the_limit(self, field):
        # positive control: one entry off by 1e-12 stays inside CHECK_LIMIT
        split, _ = tribonacci_operator()
        perturbed = getattr(split, field).copy()
        perturbed[0, 0] += 1e-12
        op = projection_operator(dataclasses.replace(split, **{field: perturbed}))
        assert np.max(np.abs(op.matrix @ op.matrix - op.matrix)) < spectral.CHECK_LIMIT

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
            assert np.linalg.norm(p @ perron_vector(report.matrix)) < 1e-9
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


class TestContractingRootsFromReport:
    """spectral_split takes the conjugates carried by the report instead of
    recomputing the minimal polynomial's roots: it finds no root at all."""

    SUBSTITUTIONS = [kbonacci(k) for k in range(3, 9)] + random_pisot_substitutions(71, 30)

    def test_conjugates_are_the_reports_roots(self, monkeypatch):
        fresh, shifted = [], []
        roots_of, null_column = np.roots, spectral._null_column

        def recording_roots(coeffs):
            fresh.append(coeffs)
            return roots_of(coeffs)

        def recording_null_column(a):
            shifted.append(a)
            return null_column(a)

        monkeypatch.setattr(np, "roots", recording_roots)
        monkeypatch.setattr(spectral, "_null_column", recording_null_column)
        for sub in self.SUBSTITUTIONS:
            report = classify_pisot(sub)  # finds the roots
            fresh.clear()
            shifted.clear()
            spectral_split(report)
            assert not fresh
            # one M - mu per conjugate mu of the report, a complex pair once
            mf = report.matrix.to_numpy()
            eye = np.eye(report.matrix.dim)
            want = [
                mf - mu.real * eye if abs(mu.imag) <= 1e-9 else mf - mu * eye
                for mu in (r.value for r in report.conjugates)
                if mu.imag >= -1e-9
            ]
            assert len(shifted) == len(want)
            assert all(any(np.array_equal(a, w) for w in want) for a in shifted)


def reducible_pisot_substitutions(seed, count):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        sub = random_primitive_substitution(rng, k=rng.choice([4, 5, 6]), max_len=3)
        try:
            report = classify_pisot(sub)
        except IndeterminateClassification:
            continue
        if report.is_pisot and not report.is_irreducible:
            found.append(sub)
    return found


# p = (x - 1)^2 (x^3 - 2x^2 - x - 1): the first Pisot substitution with a
# repeated cofactor factor that random_primitive_substitution(rng,
# k=rng.choice([4, 5, 6]), max_len=3) draws from rng = random.Random(8)
REPEATED_COFACTOR = Substitution.from_rules(
    list("abcde"), {"a": "eaa", "b": "a", "c": "ccb", "d": "c", "e": "bcd"}
)

EXACT_PROJECTOR_INPUTS = (
    [kbonacci(k) for k in range(3, 21)]
    + [tribonacci(), flipped_tribonacci()]
    + [family_substitution(i) for i in range(1, 5)]
    + reducible_pisot_substitutions(17, 24)
    + [REPEATED_COFACTOR]
)


def rules_id(sub):
    return "-".join("".join(image) for image in substitution_to_dict(sub)["rules"].values())


class TestExactProjector:
    """P = E - P_lambda, with E = e(M) from Bezout's identity for f and c = p / f."""

    def test_repeated_cofactor_input(self):
        report = classify_pisot(REPEATED_COFACTOR)
        assert report.is_pisot and report.is_unimodular
        assert [(f.poly.coeffs, f.multiplicity) for f in factor_over_z(report.char_poly)] == [
            ((-1, 1), 2),
            ((-1, -1, -2, 1), 1),
        ]

    @pytest.mark.parametrize("sub", EXACT_PROJECTOR_INPUTS, ids=rules_id)
    def test_idempotent_is_exact(self, sub):
        report = classify_pisot(sub)
        numerator, den = spectral._bezout_idempotent(report)
        m = np.array(report.matrix.rows, dtype=object)
        k = report.matrix.dim
        assert (numerator @ numerator == den * numerator).all()  # E^2 = E
        assert (numerator @ m == m @ numerator).all()  # E M = M E
        f_of_m = np.array(evaluate_at_matrix(report.minimal_polynomial, report.matrix).rows, dtype=object)
        assert not (f_of_m @ numerator).any()  # the image of E lies in ker f(M)
        assert np.trace(numerator) == den * report.minimal_polynomial.degree  # and fills it
        if report.is_irreducible:
            assert den == 1 and (numerator == np.eye(k, dtype=int)).all()

    def test_matches_a_fifty_digit_projector(self):
        # P is exact at the midpoint of the Perron root's 80-bit bracket and
        # rounded once, so each entry is the 50-digit projector rounded once
        # (mpmath's float() rounds to nearest)
        pytest.importorskip("sympy")
        pytest.importorskip("mpmath")
        reducible = 0
        for sub in EXACT_PROJECTOR_INPUTS + [kbonacci(k) for k in range(21, 25)]:
            report = classify_pisot(sub)
            reducible += not report.is_irreducible
            p = projection_operator(spectral_split(report)).matrix
            want = sympy_contracting_projector(report.matrix, report.minimal_polynomial)
            k = report.matrix.dim
            for i in range(k):
                for j in range(k):
                    assert p[i, j] == float(want[i, j]), (rules_id(sub), i, j, p[i, j] - float(want[i, j]))
        assert reducible >= 21


class TestNoLongDouble:
    """P is computed in integers and rounded once, so a build whose long
    double is binary64 (MSVC, Apple arm64) gets the same P, chart and CSV."""

    @pytest.mark.parametrize("sub", [tribonacci(), flipped_tribonacci(), kbonacci(10)], ids=rules_id)
    def test_binary64_long_double_changes_nothing(self, sub, tmp_path, monkeypatch):
        def outputs(name):
            op = projection_operator(spectral_split(classify_pisot(sub)))
            export_csv(rauzy_cloud(sub, 5000, op), tmp_path / name)
            return op.matrix, op.chart, (tmp_path / name).read_bytes()

        native = outputs("native.csv")
        monkeypatch.setattr(np, "longdouble", np.float64)
        binary64 = outputs("binary64.csv")
        assert np.array_equal(binary64[0], native[0])
        assert np.array_equal(binary64[1], native[1])
        assert binary64[2] == native[2]
