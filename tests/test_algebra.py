import math
import random

import pytest

from conftest import fibonacci, kbonacci, random_substitution, tribonacci
from oracles import (
    bareiss_determinant,
    char_poly_via_cofactors,
    evaluate_at_matrix,
    fraction_dominant_real_root,
    sympy_char_poly,
    sympy_factor_list,
    sympy_largest_real_root,
)
from rauzykit import (
    MODULAR_FACTOR_CAP,
    BpaLimits,
    DivideByZeroPoly,
    IndeterminateClassification,
    IntMatrix,
    IntPolynomial,
    NegativeEntry,
    NoConvergence,
    Substitution,
    TooManyModularFactors,
    char_poly,
    classify_pisot,
    dominant_real_root,
    factor_over_z,
    incidence_matrix,
    is_irreducible_over_q,
    is_primitive,
    poly_divides,
    poly_exact_div,
    positive_leading,
    reciprocal_poly,
    reverse_substitution,
    run_bpa,
)
from rauzykit.algebra import _add, _ddf, _edf, _good_primes, _powmod, _squarefree_mod, _xgcd, _zdivmod, _zmul, _zreduce

TRIB_POLY = IntPolynomial((-1, -1, -1, 1))  # x^3 - x^2 - x - 1
GOLDEN_POLY = IntPolynomial((-1, -1, 1))  # x^2 - x - 1
IDENTITY_2 = IntMatrix([[1, 0], [0, 1]])


def rules(text):
    """Substitution from 'a:ab b:a' style rules, letters in order of appearance."""
    table = dict(part.split(":") for part in text.split())
    return Substitution.from_rules(list(table), table)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_matrix(rng, k, lo=-5, hi=5):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)])


def factor_pairs(p):
    return sorted((f.poly.coeffs, f.multiplicity) for f in factor_over_z(p))


def swinnerton_dyer_blocks():
    """Block-diagonal nonnegative matrix whose char poly is the product of the
    minimal polynomials x^4 - 2(a + b)x^2 + (a - b)^2 of sqrt(a) + sqrt(b) for
    nine pairs of primes.  Each splits into at least two factors mod every
    prime, so the product has at least 18 modular factors."""
    pairs = [(2, 3), (2, 5), (2, 7), (2, 11), (3, 5), (3, 7), (3, 11), (5, 7), (5, 11)]
    k = 4 * len(pairs)
    rows = [[0] * k for _ in range(k)]
    for n, (a, b) in enumerate(pairs):
        o = 4 * n
        # [[0, I], [C, 0]] has char poly det(x^2 I - C), C = [[a + b, 4ab], [1, a + b]]
        rows[o][o + 2] = rows[o + 1][o + 3] = 1
        rows[o + 2][o], rows[o + 2][o + 1] = a + b, 4 * a * b
        rows[o + 3][o], rows[o + 3][o + 1] = 1, a + b
    return IntMatrix(rows)


class TestIntMatrix:
    ROWS = [[2, 0, 1], [1, 0, 0], [0, 1, 2]]

    def test_rows_from_an_iterator(self):
        assert IntMatrix(iter(self.ROWS)) == IntMatrix(self.ROWS)

    def test_rows_from_a_generator(self):
        m = IntMatrix(iter(row) for row in self.ROWS)
        assert m.rows == ((2, 0, 1), (1, 0, 0), (0, 1, 2))

    @pytest.mark.parametrize("rows", [[], iter([]), (row for row in [])])
    def test_refuses_no_rows(self, rows):
        with pytest.raises(ValueError, match="dimension >= 1"):
            IntMatrix(rows)

    @pytest.mark.parametrize("rows", [[[1, 2]], iter([[1, 2], [3]]), ([1, 2, 3] for _ in range(2))])
    def test_refuses_rows_that_are_not_square(self, rows):
        with pytest.raises(ValueError, match="square"):
            IntMatrix(rows)


class TestCharPoly:
    def test_tribonacci(self):
        assert char_poly(incidence_matrix(tribonacci())) == TRIB_POLY

    def test_identity_2x2(self):
        assert char_poly(IDENTITY_2) == IntPolynomial((1, -2, 1))

    def test_interval_pair_matrix(self):
        m = IntMatrix([[2, 0, 1], [1, 0, 0], [0, 1, 2]])
        expected = char_poly_via_cofactors(m)
        assert expected == IntPolynomial((-1, 4, -4, 1))
        assert char_poly(m) == expected

    def test_agrees_with_cofactor_oracle(self):
        rng = random.Random(21)
        for _ in range(120):
            k = rng.randint(1, 5)
            m = random_matrix(rng, k)
            assert char_poly(m) == char_poly_via_cofactors(m)

    def test_cayley_hamilton(self):
        rng = random.Random(22)
        for _ in range(60):
            k = rng.randint(1, 5)
            m = random_matrix(rng, k)
            image = evaluate_at_matrix(char_poly(m), m)
            assert all(e == 0 for row in image.rows for e in row)

    def test_string_form(self):
        assert str(TRIB_POLY) == "x^3 - x^2 - x - 1"
        assert str(IntPolynomial((-1, 4, -4, 1))) == "x^3 - 4x^2 + 4x - 1"
        assert str(IntPolynomial(())) == "0"


class TestDeterminant:
    def test_interval_matrix(self):
        m = IntMatrix([[2, 1], [1, 1]])
        assert bareiss_determinant(m) == 1 and classify_pisot(m).is_unimodular

    def test_zero_matrix(self):
        m = IntMatrix([[0, 0], [0, 0]])
        assert bareiss_determinant(m) == 0 and not classify_pisot(m).is_unimodular

    def test_family_always_unimodular(self):
        for i in range(1, 7):
            m = IntMatrix([[i, i, 1], [1, 0, 0], [0, 1, 0]])
            assert abs(bareiss_determinant(m)) == 1 and classify_pisot(m).is_unimodular

    def test_matches_charpoly_constant(self):
        rng = random.Random(23)
        for _ in range(80):
            k = rng.randint(1, 5)
            m = random_matrix(rng, k)
            p = char_poly(m)
            const = p.coeffs[0] if p.coeffs else 0
            assert bareiss_determinant(m) == (-1) ** k * const

    def test_unimodular_constant_term(self):
        # random products of integer shears have determinant +-1
        rng = random.Random(24)
        for _ in range(50):
            k = rng.randint(2, 4)
            m = [[int(i == j) for j in range(k)] for i in range(k)]
            for _ in range(6):
                i, j = rng.randrange(k), rng.randrange(k)
                if i == j:
                    continue
                shear = [[int(r == c) for c in range(k)] for r in range(k)]
                shear[i][j] = rng.randint(-2, 2)
                m = matmul(m, shear)
            p = char_poly(IntMatrix(m))
            assert abs(p.coeffs[0]) == 1


class TestPrimitivity:
    def test_tribonacci(self):
        assert is_primitive(incidence_matrix(tribonacci()))

    def test_identity_not_primitive(self):
        assert not is_primitive(IDENTITY_2)

    def test_permutation_not_primitive(self):
        assert not is_primitive(IntMatrix([[0, 1], [1, 0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            is_primitive(IntMatrix([[1, -1], [1, 1]]))


class TestPolynomialOps:
    def test_product_example(self):
        assert IntPolynomial((1, -3, 1)) * IntPolynomial((-1, 1)) == IntPolynomial(
            (-1, 4, -4, 1)
        )

    def test_reciprocal_with_normalization(self):
        raw = reciprocal_poly(TRIB_POLY)
        assert raw == IntPolynomial((1, -1, -1, -1))  # -x^3 - x^2 - x + 1 flipped low-first
        assert positive_leading(raw) == IntPolynomial((-1, 1, 1, 1))  # x^3 + x^2 + x - 1

    def test_reciprocal_drops_degree_at_zero_constant(self):
        assert reciprocal_poly(IntPolynomial((0, 1, 1))) == IntPolynomial((1, 1))

    def test_divides(self):
        assert poly_divides(IntPolynomial((-1, 1)), IntPolynomial((-1, 0, 1)))
        assert not poly_divides(IntPolynomial((1, 1)), IntPolynomial((1, 0, 1)))

    def test_divide_by_zero(self):
        with pytest.raises(DivideByZeroPoly):
            poly_divides(IntPolynomial(()), TRIB_POLY)

    def test_divides_products(self):
        rng = random.Random(31)
        for _ in range(200):
            d = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4))))
            q = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4))))
            if d.is_zero:
                continue
            assert poly_divides(d, d * q)

    def test_exact_div_recovers_cofactor(self):
        prod = TRIB_POLY * IntPolynomial((-1, 1, 1, 1))
        assert poly_exact_div(prod, TRIB_POLY) == IntPolynomial((-1, 1, 1, 1))


class TestIrreducibility:
    def test_tribonacci_irreducible(self):
        assert is_irreducible_over_q(TRIB_POLY)

    def test_difference_of_squares(self):
        assert not is_irreducible_over_q(IntPolynomial((-1, 0, 1)))

    def test_quadratic_with_irrational_roots(self):
        assert is_irreducible_over_q(IntPolynomial((1, -6, 1)))

    def test_quartic_without_rational_roots(self):
        # (x^2 + x + 1)(x^2 + 2) has no rational roots but factors
        p = IntPolynomial((1, 1, 1)) * IntPolynomial((2, 0, 1))
        assert not is_irreducible_over_q(p)

    def test_irreducible_quartic(self):
        assert is_irreducible_over_q(IntPolynomial((1, 0, 0, 0, 1)))  # x^4 + 1

    def test_degree_thirteen_factors_exactly(self):
        # x^13 + 1 = (x + 1) Phi_26(x), past the degree cap of the former search
        pytest.importorskip("sympy")
        p = IntPolynomial((1,) + (0,) * 12 + (1,))
        assert factor_pairs(p) == sympy_factor_list(p)
        assert not is_irreducible_over_q(p)

    @pytest.mark.parametrize(
        "cyclotomic, exponent", [((-1, 1), 1000), ((1, 1, 1), 1100)], ids=["x-1", "x^2+x+1"]
    )
    def test_cyclotomic_factor_beside_a_coefficient_past_the_float_range(self, cyclotomic, exponent):
        # the root-of-unity filter reads the coefficients over the largest one,
        # so it still runs when a coefficient does not fit in a float
        big = IntPolynomial((-(2 ** exponent), 1))
        factors = factor_over_z(IntPolynomial(cyclotomic) * big)
        assert {(f.poly, f.multiplicity, f.cyclotomic) for f in factors} == {
            (IntPolynomial(cyclotomic), 1, True),
            (big, 1, False),
        }

    def test_minimal_polynomial_extraction(self):
        p = IntPolynomial((-1, 4, -4, 1))  # (x^2 - 3x + 1)(x - 1)
        rep = classify_pisot(IntMatrix([[2, 0, 1], [1, 0, 0], [0, 1, 2]]))
        assert rep.char_poly == p
        assert rep.minimal_polynomial == IntPolynomial((1, -3, 1))

    def test_minimal_polynomial_at_exact_integer_root(self):
        # x^5 - 2x^3 - 4x^2 = x^2 (x - 2) (x^2 + 2x + 2): bisection lands on 2
        # exactly, and the factor vanishing there is kept, not its cofactor
        p = IntPolynomial((0, 0, -4, -2, 0, 1))
        dom = dominant_real_root(p)
        assert dom.lower == dom.upper == 2
        rep = classify_pisot(rules("z:gh h:gr q:gh g:zr r:hq"))
        assert rep.char_poly == p
        assert rep.minimal_polynomial == IntPolynomial((-2, 1))
        assert dominant_real_root(rep.minimal_polynomial).lower == 2


# primes 101..199 and the largest prime below 2^31
MODULAR_PRIMES = [q for q in range(101, 200, 2) if all(q % d for d in range(3, 15, 2))] + [2 ** 31 - 1]


def random_poly_mod(rng, p, degree, monic=False):
    """A polynomial mod p of the given degree, as a list of residues."""
    return [rng.randrange(p) for _ in range(degree)] + [1 if monic else rng.randrange(1, p)]


def mul_mod(p, *polys):
    out = [1]
    for a in polys:
        out = _zreduce(_zmul(out, a), p)
    return out


class TestModularLayer:
    """The mod-p list helpers behind factor_over_z, against their definitions."""

    def test_xgcd_satisfies_bezout(self):
        rng = random.Random(71)
        for p in MODULAR_PRIMES:
            for _ in range(6):
                common = random_poly_mod(rng, p, rng.randint(0, 3))
                a = mul_mod(p, common, random_poly_mod(rng, p, rng.randint(0, 6)))
                b = mul_mod(p, common, random_poly_mod(rng, p, rng.randint(0, 6)))
                s, t = _xgcd(a, b, p)
                g = _zreduce(_add(_zmul(s, a), _zmul(t, b)), p)
                # a monic combination of a and b that divides both is their gcd
                assert g[-1] == 1
                assert _zdivmod(a, g, p)[1] == [] and _zdivmod(b, g, p)[1] == []
                assert len(g) >= len(common)

    def test_powmod_matches_repeated_multiplication(self):
        rng = random.Random(72)
        for p in MODULAR_PRIMES:
            f = random_poly_mod(rng, p, rng.randint(1, 8), monic=True)
            a = random_poly_mod(rng, p, len(f) - 2)
            expected = [1]
            for e in range(40):
                assert _powmod(a, e, f, p) == expected, (p, f, a, e)
                expected = _zdivmod(_zmul(expected, a), f, p)[1]

    def squarefree_samples(self, rng, p, count):
        samples = []
        while len(samples) < count:
            f = random_poly_mod(rng, p, rng.randint(2, 10), monic=True)
            if f[0] and _squarefree_mod(f, p):
                samples.append(f)
        return samples

    def modular_factors(self, f, p):
        """Monic irreducible factors mod p of the monic squarefree f, checked
        to multiply back: the distinct-degree parts to f, each part's
        equal-degree factors (all of its degree) to the part."""
        parts = _ddf(f, p)
        assert mul_mod(p, *(g for g, _ in parts)) == f
        factors = []
        for g, d in parts:
            assert g[-1] == 1 and (len(g) - 1) % d == 0
            split = _edf(g, d, p, random.Random(p))
            assert all(len(u) - 1 == d and u[-1] == 1 for u in split)
            assert mul_mod(p, *split) == g
            factors += split
        return factors

    def test_ddf_and_edf_multiply_back(self):
        rng = random.Random(73)
        for p in MODULAR_PRIMES:
            for f in self.squarefree_samples(rng, p, 4):
                self.modular_factors(f, p)

    def test_modular_factor_degrees_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(74)
        for p in MODULAR_PRIMES[::4] + [2 ** 31 - 1]:
            for f in self.squarefree_samples(rng, p, 3):
                _, expected = sympy.Poly(f[::-1], x, modulus=p).factor_list()
                assert all(k == 1 for _, k in expected)
                got = sorted(len(u) - 1 for u in self.modular_factors(f, p))
                assert got == sorted(g.degree() for g, _ in expected), (p, f)


def roots_of(report):
    """The Perron root (real, from its exact bracket) and the report's conjugates."""
    return [complex(report.perron_root)] + [r.value for r in report.conjugates]


def classified_sample(seed, count):
    """Reports of seeded random substitutions on 2 to 6 letters, refusals skipped."""
    rng = random.Random(seed)
    reports = []
    for _ in range(count):
        try:
            reports.append(classify_pisot(random_substitution(rng, k=rng.randint(2, 6))))
        except IndeterminateClassification:
            continue
    return reports


class TestRoots:
    """The Perron root is dominant_real_root's exact bracket, never refined;
    the other roots of the minimal polynomial are classify_pisot's
    Newton-refined conjugates."""

    def test_golden_quadratic(self):
        rep = classify_pisot(IntMatrix([[2, 1], [1, 1]]))  # x^2 - 3x + 1
        assert rep.minimal_polynomial == IntPolynomial((1, -3, 1))
        assert rep.perron_root == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        (mu,) = rep.conjugates
        assert mu.value == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)

    def test_linear(self):
        dom = dominant_real_root(IntPolynomial((-1, 1)))
        assert dom.value == 1.0 and dom.lower == dom.upper == 1
        # a Perron root of exactly 1 has no conjugates and is not Pisot
        rep = classify_pisot(IntMatrix([[1]]))
        assert rep.perron_root == 1.0 and rep.conjugates == ()
        assert rep.is_primitive and not rep.is_pisot and rep.margin == math.inf

    def test_tribonacci_roots(self):
        rep = classify_pisot(tribonacci())
        lam = rep.perron_root
        assert lam == pytest.approx(1.839286755214161, abs=1e-12)
        pair = [r.value for r in rep.conjugates]
        assert len(pair) == 2 and all(abs(z.imag) > 1e-9 for z in pair)
        # |conjugate pair product| = 1/lambda because |det| = 1
        assert abs(pair[0] * pair[1]) == pytest.approx(1 / lam, abs=1e-12)
        assert abs(pair[0]) == pytest.approx(0.7373527, abs=1e-6)

    def test_residuals_below_tolerance(self):
        reports = [classify_pisot(IntMatrix([[2, 0, 1], [1, 0, 0], [0, 1, 2]]))]
        reports += [classify_pisot(kbonacci(k)) for k in (5, 20, 40)] + classified_sample(43, 40)
        for rep in reports:
            f = rep.minimal_polynomial
            norm = math.sqrt(sum(c * c for c in f.coeffs))
            assert len(rep.conjugates) == f.degree - 1
            for r in rep.conjugates:
                assert r.residual < 1e-10
                assert abs(f.evaluate(r.value)) / norm == pytest.approx(r.residual, rel=1e-6, abs=1e-15)

    def test_root_sum_and_product(self):
        # Vieta over the Perron root and its conjugates
        reports = [classify_pisot(kbonacci(k)) for k in (3, 12, 27)] + classified_sample(41, 60)
        for rep in reports:
            f = rep.minimal_polynomial
            roots = roots_of(rep)
            assert len(roots) == f.degree
            prod = 1
            for z in roots:
                prod *= z
            root_sum = -f.coeffs[-2] / f.leading
            root_product = (-1) ** f.degree * f.coeffs[0] / f.leading
            assert abs(sum(roots) - root_sum) < 1e-9 * f.degree * max(1.0, rep.perron_root)
            assert abs(prod - root_product) < 1e-9 * max(1.0, abs(root_product))

    def test_roots_match_sympy_nroots(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        reports = [classify_pisot(kbonacci(k)) for k in (3, 12, 27, 40)] + classified_sample(44, 60)
        for rep in reports:
            f = rep.minimal_polynomial
            got = roots_of(rep)
            for w in sympy.Poly(f.coeffs[::-1], x).nroots(n=30):
                w = complex(w)
                i = min(range(len(got)), key=lambda j: abs(got[j] - w))
                assert abs(got.pop(i) - w) < 1e-9 * max(1.0, abs(w)), (str(f), w)
            assert not got

    def test_dominant_root_bracket(self):
        dom = dominant_real_root(TRIB_POLY)
        assert dom.lower < dom.upper
        assert float(dom.upper - dom.lower) < 1e-20
        # the float value is the midpoint of the exact bracket, to rounding
        assert dom.value == pytest.approx(float(dom.lower), abs=1e-15)
        assert TRIB_POLY.evaluate(dom.lower) * TRIB_POLY.evaluate(dom.upper) < 0

    def test_dyadic_bracket_matches_the_fraction_bisection(self):
        rng = random.Random(14)
        polys = [char_poly(incidence_matrix(kbonacci(k))) for k in range(2, 21)]
        for _ in range(150):
            head = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 10)))
            polys.append(IntPolynomial(head + (rng.choice([1, -1, 2, 3]),)))
        compared = 0
        for p in polys:
            try:
                value, lower, upper = fraction_dominant_real_root(p)
            except ValueError:  # numpy finds no real root
                continue
            except ArithmeticError:  # no exact sign change
                with pytest.raises(NoConvergence):
                    dominant_real_root(p)
                continue
            dom = dominant_real_root(p)
            assert dom.value == value
            for lo, hi in ((dom.lower, dom.upper), (lower, upper)):
                assert p.evaluate(lo) * p.evaluate(hi) < 0 or (lo == hi and p.evaluate(lo) == 0)
            compared += 1
        assert compared >= 19 + 100

    def test_even_multiplicity_root_is_refused_not_guessed(self):
        # (x^2 - x - 1)^2 has no sign change at its largest root
        square = GOLDEN_POLY * GOLDEN_POLY
        with pytest.raises(NoConvergence):
            dominant_real_root(square)
        # classification brackets the squarefree factor instead
        rep = classify_pisot(rules("a:ab b:a c:cd d:c"))
        assert rep.char_poly == square and rep.minimal_polynomial == GOLDEN_POLY
        phi = (1 + math.sqrt(5)) / 2
        assert rep.perron_root == pytest.approx(phi, rel=1e-15)
        (mu,) = rep.conjugates
        assert mu.value == pytest.approx(1 - phi, rel=1e-15)


# substitutions whose minimal polynomial is reciprocal, with that polynomial
RECIPROCAL_CASES = [
    # x^4 - x^3 - x^2 - x + 1, a Salem quartic: two conjugates on the circle
    ({"a": "c", "b": "a", "c": "dba", "d": "ad"}, (1, -1, -1, -1, 1)),
    # x^6 - x^5 - 4x^4 - 4x^2 - x + 1
    ({"a": "dec", "b": "eec", "c": "bd", "d": "fe", "e": "bae", "f": "e"}, (1, -1, -4, 0, -4, -1, 1)),
]


class TestClassification:
    def test_tribonacci_all_flags(self):
        rep = classify_pisot(tribonacci())
        assert rep.is_primitive and rep.is_pisot and rep.is_irreducible and rep.is_unimodular
        assert rep.margin > 1e-9

    def test_fibonacci(self):
        rep = classify_pisot(fibonacci())
        assert rep.is_pisot and rep.is_irreducible and rep.is_unimodular
        assert rep.perron_root == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)

    def test_thue_morse_like(self):
        # a -> ab, b -> ba: primitive, reducible char poly x(x-2), determinant 0
        sub = Substitution.from_rules(["a", "b"], {"a": "ab", "b": "ba"})
        rep = classify_pisot(sub)
        assert rep.is_primitive
        assert not rep.is_irreducible
        assert not rep.is_unimodular
        assert rep.perron_root == pytest.approx(2.0, abs=1e-12)
        # dominant root is a rational integer: no conjugates, Pisot by the
        # strict definition, with infinite margin
        assert rep.is_pisot and rep.margin == math.inf

    def test_integer_perron_root_with_reducible_char_poly(self):
        sub = Substitution.from_rules(
            ["z", "h", "q", "g", "r"],
            {"z": "gh", "h": "gr", "q": "gh", "g": "zr", "r": "hq"},
        )
        rep = classify_pisot(sub)
        assert rep.perron_root == 2.0
        assert rep.is_primitive and rep.is_pisot and not rep.is_irreducible
        assert rep.margin == math.inf
        assert rep.char_poly == IntPolynomial((0, 0, -4, -2, 0, 1))
        assert rep.minimal_polynomial == IntPolynomial((-2, 1))

    def test_report_carries_polynomials(self):
        rep = classify_pisot(tribonacci())
        assert rep.char_poly == TRIB_POLY and rep.minimal_polynomial == TRIB_POLY
        # reducible: (x^2 - 3x + 1)(x - 1)
        rep = classify_pisot(IntMatrix([[2, 0, 1], [1, 0, 0], [0, 1, 2]]))
        assert not rep.is_irreducible
        assert rep.minimal_polynomial == IntPolynomial((1, -3, 1))

    def test_thirteen_cycle_classifies_exactly(self):
        # I + P for the 13-cycle P: char poly (x - 1)^13 - 1 = (x - 2) Phi_13(x - 1)
        pytest.importorskip("sympy")
        k = 13
        cycle = IntMatrix(
            [[1 if j in (i, (i + 1) % k) else 0 for j in range(k)] for i in range(k)]
        )
        rep = classify_pisot(cycle)
        assert rep.char_poly.coeffs == sympy_char_poly(cycle)
        factors = sympy_factor_list(rep.char_poly)
        assert factor_pairs(rep.char_poly) == factors
        assert [(len(f) - 1, k) for f, k in factors] == [(1, 1), (12, 1)]
        assert rep.is_primitive and not rep.is_irreducible
        assert rep.minimal_polynomial == IntPolynomial((-2, 1)) and rep.perron_root == 2.0

    def test_recombination_cap_refuses_before_root_work(self, monkeypatch):
        import rauzykit.algebra as algebra

        def no_roots(*args, **kwargs):
            raise AssertionError("root work before the recombination refusal")

        monkeypatch.setattr(algebra, "dominant_real_root", no_roots)
        monkeypatch.setattr(algebra, "_conjugates", no_roots)
        m = swinnerton_dyer_blocks()
        assert m.dim // 2 > MODULAR_FACTOR_CAP  # two or more factors per quartic block
        with pytest.raises(TooManyModularFactors):
            classify_pisot(m)
        with pytest.raises(TooManyModularFactors):
            is_irreducible_over_q(char_poly(m))

    def test_spare_primes_keep_a_pair_char_poly_under_the_cap(self):
        # the char poly of 11-bonacci's pair system against its reverse has
        # 18 factors mod its first good prime, 101, more than the cap; the
        # next good primes leave as few as 6, so it factors without refusal
        sub = kbonacci(11)
        p = char_poly(incidence_matrix(run_bpa(sub, reverse_substitution(sub)).substitution))
        assert next(_good_primes(list(p.coeffs)))[:2] == (18, 101) and 18 > MODULAR_FACTOR_CAP
        factors = factor_over_z(p)
        assert [(f.poly.degree, f.multiplicity) for f in factors] == [(11, 1), (55, 1)]
        assert factors[0].poly == IntPolynomial((-1,) * 11 + (1,))
        assert factors[0].poly * factors[1].poly == p

    @pytest.mark.parametrize("k", range(3, 41))
    def test_kbonacci_classifies_without_refusal(self, k):
        rep = classify_pisot(kbonacci(k))
        assert rep.char_poly == IntPolynomial((-1,) * k + (1,))
        assert rep.is_irreducible and rep.is_pisot and rep.is_unimodular
        assert rep.minimal_polynomial == rep.char_poly

    @pytest.mark.parametrize(
        "text, char_poly_factors, perron_root, minimal_polynomial, pisot",
        [
            # (x^2 - x - 1)^2 (x^3 - x - 1): doubled Fibonacci beside the
            # plastic number; the golden ratio is a root of even multiplicity
            ("a:ab b:a c:cd d:c e:f f:g g:ef", [(-1, -1, 1), (-1, -1, 1), (-1, -1, 0, 1)],
             (1 + math.sqrt(5)) / 2, (-1, -1, 1), True),
            # (x - 1)^2 (x + 1): the Perron root is exactly 1, so not Pisot
            ("a:b b:a c:ca", [(-1, 1), (-1, 1), (1, 1)], 1.0, (-1, 1), False),
            # (x - 2)^2 (x^2 - x - 1): the integer Perron root 2 is a double root
            ("a:aa b:d c:acc d:adb", [(-2, 1), (-2, 1), (-1, -1, 1)], 2.0, (-2, 1), True),
        ],
    )
    def test_perron_root_of_even_multiplicity(
        self, text, char_poly_factors, perron_root, minimal_polynomial, pisot
    ):
        rep = classify_pisot(rules(text))
        expected = IntPolynomial((1,))
        for coeffs in char_poly_factors:
            expected = expected * IntPolynomial(coeffs)
        assert rep.char_poly == expected
        assert rep.perron_root == pytest.approx(perron_root, rel=1e-15)
        assert rep.minimal_polynomial == IntPolynomial(minimal_polynomial)
        assert rep.is_pisot == pisot and not rep.is_primitive and not rep.is_irreducible

    @pytest.mark.parametrize("table, minimal_polynomial", RECIPROCAL_CASES)
    def test_reciprocal_minimal_polynomial_is_not_pisot(self, table, minimal_polynomial):
        # the float margin sits within CLASSIFICATION_MARGIN of 0, but a
        # reciprocal minimal polynomial of degree >= 3 decides "not Pisot" exactly
        rep = classify_pisot(Substitution.from_rules(list(table), table))
        assert rep.minimal_polynomial == rep.char_poly == IntPolynomial(minimal_polynomial)
        assert rep.is_irreducible and not rep.is_pisot
        assert rep.margin < 1e-9

    @pytest.mark.parametrize("table, minimal_polynomial", RECIPROCAL_CASES)
    def test_reciprocal_minimal_polynomial_has_a_second_root_on_or_outside_the_circle(
        self, table, minimal_polynomial
    ):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        moduli = sorted(abs(z) for z in sympy.Poly(minimal_polynomial[::-1], x).nroots(n=50))
        assert moduli[-1] > 1
        assert any(abs(mu - 1) < sympy.Float(10) ** -40 or mu > 1 for mu in moduli[:-1])

    def test_identity_substitution(self):
        sub = Substitution.from_rules(["a", "b"], {"a": "a", "b": "b"})
        rep = classify_pisot(sub)
        assert not rep.is_primitive and not rep.is_pisot and rep.is_unimodular

    def test_reverse_has_same_char_poly(self):
        rng = random.Random(51)
        for _ in range(60):
            sub = random_substitution(rng)
            assert char_poly(incidence_matrix(sub)) == char_poly(
                incidence_matrix(reverse_substitution(sub))
            )


class TestAgainstSympy:
    def test_char_poly_matches_sympy(self):
        pytest.importorskip("sympy")
        rng = random.Random(61)
        for k, hi in [(1, 9), (2, 10 ** 6), (5, 3), (9, 10 ** 6), (17, 1), (30, 50), (45, 10 ** 6), (60, 2)]:
            for lo in (0, -hi):
                m = random_matrix(rng, k, lo, hi)
                assert char_poly(m).coeffs == sympy_char_poly(m), (k, lo, hi)

    def test_char_poly_of_the_c8_59_pair_system(self):
        pytest.importorskip("sympy")
        first = Substitution.from_rules(["a", "b", "c"], {"a": "baa", "b": "acb", "c": "a"})
        second = Substitution.from_rules(["a", "b", "c"], {"a": "baa", "b": "cab", "c": "a"})
        pairs = run_bpa(first, second, BpaLimits(prefix_cutoff=20000, max_pairs=80, max_pair_length=20000))
        m = incidence_matrix(pairs.substitution)
        assert m.dim == 59
        p = char_poly(m)
        assert p.coeffs == sympy_char_poly(m)
        assert factor_pairs(p) == sympy_factor_list(p)

    def test_factorization_matches_sympy(self):
        # seeded products of planted factors, with repeats and reciprocal
        # pairs; then char polys of seeded 0/1 matrices, nine of ten
        # irreducible with 2 to 7 factors mod the chosen prime, so that
        # Hensel lifting and recombination prove them irreducible
        pytest.importorskip("sympy")
        rng = random.Random(62)
        polys = []
        for _ in range(80):
            p = IntPolynomial((rng.choice([1, 2, 6]),))
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(1, 7)
                f = IntPolynomial(tuple([rng.choice([-3, -1, 1, 2, 5])] + [rng.randint(-6, 6) for _ in range(d - 1)] + [rng.choice([1, 1, 2, 3])]))
                p = p * f
                if rng.random() < 0.3:
                    p = p * f
                if rng.random() < 0.3:
                    p = p * reciprocal_poly(f)
            polys.append(p)
        rng = random.Random(64)
        polys += [char_poly(random_matrix(rng, k, 0, 1)) for k in (17, 20, 23, 26, 29, 31, 34, 36, 38, 40)]
        for p in polys:
            factors = factor_over_z(p)
            assert factor_pairs(p) == sympy_factor_list(p), str(p)
            keys = [(f.poly.degree, f.poly.coeffs) for f in factors]
            assert keys == sorted(keys)

    def test_perron_root_matches_sympy_on_random_substitutions(self):
        # the largest real root of the char poly, whatever its multiplicity,
        # is the Perron root, and the minimal polynomial vanishes there
        pytest.importorskip("sympy")
        rng = random.Random(9)
        classified = 0
        for _ in range(200):
            k = rng.randint(2, 7)
            letters = "abcdefg"[:k]
            table = {a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for a in letters}
            try:
                rep = classify_pisot(Substitution.from_rules(list(letters), table))
            except IndeterminateClassification:
                continue
            lam = sympy_largest_real_root(rep.char_poly)
            assert rep.perron_root == pytest.approx(float(lam), rel=1e-12, abs=0), table
            assert abs(rep.minimal_polynomial.evaluate(lam)) < 1e-25, table
            classified += 1
        assert classified > 190
