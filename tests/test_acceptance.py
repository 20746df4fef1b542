"""Acceptance suite: one printed pass/fail line per criterion.

Criteria C4b and C5c check values that are derived inside the suite from
the substitution rules alone, by plain string rewriting, before they are
compared with the implementation.  Two commonly printed references for these
criteria are errata refuted by the definitions; each is kept as a comment
next to its criterion with a one-line refutation.
"""

import random
from collections import Counter

import numpy as np

from conftest import (
    iterate,
    random_primitive_substitution,
    random_substitution,
    shuffled_images_copy,
)
from oracles import evaluate_at_matrix
from rauzykit import (
    BpaLimits,
    IndeterminateClassification,
    IntPolynomial,
    PairSubstitution,
    Word,
    abelianization,
    char_poly,
    classify_pisot,
    dominant_real_root,
    grid_intersection_estimate,
    hausdorff_distance,
    incidence_matrix,
    negate_cells,
    pair_incidence,
    projection_operator,
    rauzy_cloud,
    reciprocal_factor_report,
    reflect_cloud,
    reverse_substitution,
    run_bpa,
    spectral_split,
    stream_for,
    substitution_to_dict,
    verify_common_points,
)
from rauzykit.selfcheck import (
    FAMILY_I1_RULES,
    FLIPPED_CHARPOLY_FACTORS,
    FLIPPED_RULES,
    FORWARD_PREFIX_24,
    INTERVAL_CHARPOLY_FACTORS,
    INTERVAL_PAIRS,
    INTERVAL_RULES,
    NONPALINDROMIC_CHARPOLY,
    NONPALINDROMIC_DISCOVERY_PAIRS,
    NONPALINDROMIC_DISCOVERY_RULES,
    NONPALINDROMIC_LISTED_PAIRS,
    NONPALINDROMIC_LISTED_RULES,
    REVERSE_PREFIX_24_DERIVED,
    family_charpoly,
    family_expected_pairs,
    family_expected_rules,
    family_substitution,
    flipped_tribonacci,
    interval_pair,
    no_balanced_prefix_substitution,
    nonpalindromic_pair,
)


def criterion(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def pair_contents(ps: PairSubstitution):
    return {ps.name(i): (str(ps.pairs[i].top), str(ps.pairs[i].bottom)) for i in range(ps.size)}


def poly_product(factors):
    out = IntPolynomial((1,))
    for coeffs in factors:
        out = out * IntPolynomial(coeffs)
    return out


# ---------------------------------------------------------------------------
# string-level oracles: substitutions as plain {letter: image} dicts


def reversed_rules(rules: dict[str, str]) -> dict[str, str]:
    return {letter: image[::-1] for letter, image in rules.items()}


def rewrite(rules: dict[str, str], word: str) -> str:
    return "".join(rules[ch] for ch in word)


def fixed_point_prefix(rules: dict[str, str], n: int) -> str:
    """First n letters of the unique right-infinite fixed point of rules."""
    (seed,) = [ch for ch, image in rules.items() if image[0] == ch and len(image) > 1]
    word = seed
    while len(word) < n:
        word = rewrite(rules, word)
    return word[:n]


def split_minimal_pairs(top: str, bottom: str) -> list[tuple[str, str]]:
    """Cut (top, bottom) at every point where the prefixes have equal letter counts."""
    pairs, start, excess = [], 0, Counter()
    for end, (t, b) in enumerate(zip(top, bottom), 1):
        excess[t] += 1
        excess[b] -= 1
        if not any(excess.values()):
            pairs.append((top[start:end], bottom[start:end]))
            start = end
    return pairs


def fifo_pair_system(first: dict[str, str], second: dict[str, str]):
    """Pairs in FIFO left-to-right discovery order, and the rules named A, B, ...

    The seed is the first minimal balanced pair of the two fixed points.
    """
    top, bottom = fixed_point_prefix(first, 64), fixed_point_prefix(second, 64)
    seed = split_minimal_pairs(top, bottom)[0]
    order, images = [seed], {}
    for pair in order:  # appending while iterating visits pairs first-in, first-out
        images[pair] = split_minimal_pairs(rewrite(first, pair[0]), rewrite(second, pair[1]))
        for factor in images[pair]:
            if factor not in order:
                order.append(factor)
    names = {pair: chr(ord("A") + rank) for rank, pair in enumerate(order)}
    return order, {names[p]: "".join(names[f] for f in images[p]) for p in order}


# ---------------------------------------------------------------------------
# C1


def test_criterion_1_interval_pair_exact():
    first, second = interval_pair()
    ps = run_bpa(first, second)
    ok = (
        isinstance(ps, PairSubstitution)
        and ps.size == 3
        and pair_contents(ps) == INTERVAL_PAIRS
        and ps.rule_table() == INTERVAL_RULES
        and pair_incidence(ps).char_polynomial == poly_product(INTERVAL_CHARPOLY_FACTORS)
    )
    criterion("C1 interval pair: pairs, rules, exact polynomial", ok, str(ps.rule_table()))


# ---------------------------------------------------------------------------
# C2


def test_criterion_2_family_exact():
    details = []
    ok = True
    for i in (1, 2, 3, 4):
        first = family_substitution(i)
        ps = run_bpa(first, reverse_substitution(first))
        good = (
            ps.size == 6
            and pair_contents(ps) == family_expected_pairs(i)
            and ps.rule_table() == family_expected_rules(i)
            and pair_incidence(ps).char_polynomial == family_charpoly(i)
        )
        if i == 1:
            good = good and ps.rule_table() == FAMILY_I1_RULES
        ok = ok and good
        details.append(f"i={i}:{'ok' if good else 'BAD'}")
    criterion("C2 three-letter family i=1..4: tables and exact polynomials", ok, " ".join(details))


# ---------------------------------------------------------------------------
# C3


def test_criterion_3_flipped_tribonacci_exact():
    first = flipped_tribonacci()
    ps = run_bpa(first, reverse_substitution(first))
    rep = reciprocal_factor_report(first, ps)
    ok = (
        ps.size == 15
        and ps.rule_table() == FLIPPED_RULES
        and pair_incidence(ps).char_polynomial == poly_product(FLIPPED_CHARPOLY_FACTORS)
        and rep.p_divides
        and rep.q_divides
    )
    criterion("C3 flipped tribonacci: 15-pair table, polynomial, factor divisibility", ok)


# ---------------------------------------------------------------------------
# C4


def test_criterion_4a_nonpalindromic_system():
    first, second = nonpalindromic_pair()
    ps = run_bpa(first, second)
    found = {(str(p.top), str(p.bottom)) for p in ps.pairs}
    listed_names = {
        contents: chr(ord("A") + rank) for rank, contents in enumerate(NONPALINDROMIC_LISTED_PAIRS)
    }
    rename = {
        ps.name(i): listed_names[(str(ps.pairs[i].top), str(ps.pairs[i].bottom))]
        for i in range(ps.size)
    }
    relabeled = {
        rename[name]: "".join(rename[ch] for ch in word) for name, word in ps.rule_table().items()
    }
    ok = (
        ps.size == 5
        and found == set(NONPALINDROMIC_LISTED_PAIRS)
        and relabeled == NONPALINDROMIC_LISTED_RULES
        and pair_incidence(ps).char_polynomial.coeffs == NONPALINDROMIC_CHARPOLY
        and all(rule != rule[::-1] for rule in ps.rules)
    )
    criterion("C4a two-letter pair: pair set, rule system, polynomial, no palindromes", ok)


def test_criterion_4b_discovery_order_matches_listing():
    # Erratum: a printed listing names (abab, bbaa) second, as in
    # NONPALINDROMIC_LISTED_PAIRS.  The seed image splits as
    # aabb.aab.abaabb.aabab.abab, so no left-to-right pass can name it before
    # the fifth place; the listing is a relabeling (checked by C4a), not an order.
    first, second = nonpalindromic_pair()
    rules = substitution_to_dict(first)["rules"]
    derived_pairs, derived_rules = fifo_pair_system(rules, reversed_rules(rules))
    ps = run_bpa(first, second)
    discovered = [(str(p.top), str(p.bottom)) for p in ps.pairs]
    ok = (
        derived_pairs == NONPALINDROMIC_DISCOVERY_PAIRS
        and derived_rules == NONPALINDROMIC_DISCOVERY_RULES
        and discovered == derived_pairs
        and ps.rule_table() == derived_rules
    )
    criterion(
        "C4b two-letter pair: pairs discovered in FIFO left-to-right order",
        ok,
        f"run_bpa {discovered} {ps.rule_table()}; "
        f"string-level derivation {derived_pairs} {derived_rules}",
    )


# ---------------------------------------------------------------------------
# C5


def test_criterion_5a_no_initial_pair_within_cutoff():
    from rauzykit import NotFound

    first = no_balanced_prefix_substitution()
    result = run_bpa(first, reverse_substitution(first))
    ok = isinstance(result, NotFound) and result.cutoff == 10 ** 6
    criterion("C5a growth example: no balanced prefix pair within 10^6", ok, str(result))


def test_criterion_5b_forward_prefix_matches_printed_value():
    first = no_balanced_prefix_substitution()
    got = str(stream_for(first).prefix(24))
    criterion("C5b growth example: forward 24-letter prefix", got == FORWARD_PREFIX_24, got)


def test_criterion_5c_reverse_prefix_matches_printed_value():
    # Erratum: a printed value of this prefix, "cacbcaacbacacbacbacaacba", drops
    # the 'a' at index 4.  It contains "bc", which no concatenation of the
    # images cba, a, ca contains: b occurs only inside cba, followed by a.
    first = no_balanced_prefix_substitution()
    rules = reversed_rules(substitution_to_dict(first)["rules"])
    derived = fixed_point_prefix(rules, 24)
    got = str(stream_for(reverse_substitution(first)).prefix(24))
    ok = (
        derived == REVERSE_PREFIX_24_DERIVED
        and rewrite(rules, derived)[:24] == derived
        and got == derived
    )
    criterion(
        "C5c growth example: reverse 24-letter prefix equals the derived fixed point",
        ok,
        f"stream {got}, string iteration of {rules} {derived}",
    )


# ---------------------------------------------------------------------------
# C6


def test_criterion_6_reflection_symmetry_at_grid_scale():
    first = family_substitution(1)
    second = reverse_substitution(first)
    op = projection_operator(spectral_split(incidence_matrix(first)))
    n = 2 * 10 ** 5
    cloud = rauzy_cloud(first, n, op)
    cloud_rev = rauzy_cloud(second, n, op)
    eps = 0.02 * cloud.diameter()
    h = hausdorff_distance(cloud_rev, reflect_cloud(cloud), eps)
    criterion(
        "C6 tribonacci symmetry: reversed cloud within 3 cells of the reflection",
        h <= 3 * eps,
        f"hausdorff {h:.5f}, 3*eps {3 * eps:.5f}",
    )
    inter = grid_intersection_estimate(cloud, cloud_rev, eps)
    sym = len(inter.cells ^ negate_cells(inter.cells)) / max(1, inter.cell_count)
    criterion(
        "C6 tribonacci symmetry: intersection cells nonempty and centrally symmetric",
        inter.cell_count > 0 and sym <= 0.05,
        f"{inter.cell_count} cells, symmetric difference {sym:.3%}",
    )


# ---------------------------------------------------------------------------
# C7


def test_criterion_7_exact_common_points():
    cases = [("interval", *interval_pair())]
    for i in (1, 2):
        first = family_substitution(i)
        cases.append((f"family i={i}", first, reverse_substitution(first)))
    for name, first, second in cases:
        ps = run_bpa(first, second)
        result = verify_common_points(ps, first, second, 10 ** 3)
        criterion(
            f"C7 exact common-point membership ({name}, 10^3 pair letters)",
            result.ok,
            f"first failure {result.first_failure}" if not result.ok else "exact",
        )


# ---------------------------------------------------------------------------
# C8: randomized property suites, at least 200 cases each


CASES = 200


def test_criterion_8_reversal_identity():
    rng = random.Random(101)
    for _ in range(CASES):
        sub = random_substitution(rng, k=rng.choice([2, 3, 4]))
        rev = reverse_substitution(sub)
        k = sub.alphabet.size
        word = Word(sub.alphabet, tuple(rng.randrange(k) for _ in range(rng.randint(1, 5))))
        n = rng.randint(1, 8)
        assert iterate(sub, n, word).reversed_() == iterate(rev, n, word.reversed_())
    criterion("C8 reversal identity on random substitutions", True, f"{CASES} cases")


def test_criterion_8_abelianization_homomorphism():
    rng = random.Random(102)
    for _ in range(CASES):
        sub = random_substitution(rng, k=rng.choice([2, 3, 4]))
        k = sub.alphabet.size
        word = Word(sub.alphabet, tuple(rng.randrange(k) for _ in range(rng.randint(0, 10))))
        m = incidence_matrix(sub)
        assert abelianization(sub.apply(word)) == tuple(sum(row[i] for i in word) for row in m.rows)
    criterion("C8 abelianization homomorphism", True, f"{CASES} cases")


def test_criterion_8_incidence_matrix_reversal_invariant():
    rng = random.Random(103)
    for _ in range(CASES):
        sub = random_substitution(rng, k=rng.choice([2, 3, 4]))
        assert incidence_matrix(sub) == incidence_matrix(reverse_substitution(sub))
    criterion("C8 incidence matrix invariant under reversal", True, f"{CASES} cases")


def test_criterion_8_cayley_hamilton():
    from rauzykit import IntMatrix

    rng = random.Random(104)
    for _ in range(CASES):
        k = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)])
        image = evaluate_at_matrix(char_poly(m), m)
        assert all(e == 0 for row in image.rows for e in row)
    criterion("C8 Cayley-Hamilton for k <= 5", True, f"{CASES} cases")


def test_criterion_8_projector_residuals():
    rng = random.Random(105)
    checked = 0
    attempts = 0
    while checked < CASES:
        attempts += 1
        assert attempts < 30 * CASES, "sampling stalled"
        sub = random_primitive_substitution(rng)
        try:
            report = classify_pisot(sub)
        except IndeterminateClassification:
            continue
        if not report.is_pisot:
            continue
        op = projection_operator(spectral_split(report))
        p = op.matrix
        assert np.max(np.abs(p @ p - p)) < 1e-9
        checked += 1
    criterion("C8 projector idempotency below 1e-9", True, f"{checked} cases in {attempts} attempts")


def _bpa_sample_runs(seed: int, count: int):
    rng = random.Random(seed)
    limits = BpaLimits(prefix_cutoff=20000, max_pairs=80, max_pair_length=20000)
    runs = []
    attempts = 0
    while len(runs) < count:
        attempts += 1
        assert attempts < 30 * count, "sampling stalled"
        first = random_primitive_substitution(rng)
        second = shuffled_images_copy(rng, first)
        result = run_bpa(first, second, limits)
        if isinstance(result, PairSubstitution):
            runs.append((first, result))
    return runs, attempts


def test_criterion_8_intertwining_exact_and_eigenvalue_match():
    runs, attempts = _bpa_sample_runs(106, CASES)
    for first, ps in runs:
        h = ps.letter_images.T  # column j counts the letters of pair j's top word
        m_pairs = np.array(pair_incidence(ps).matrix.rows, dtype=object)
        m_first = np.array(incidence_matrix(first).rows, dtype=object)
        assert np.array_equal(h @ m_pairs, m_first @ h)
        lam_first = dominant_real_root(char_poly(incidence_matrix(first))).value
        lam_pairs = dominant_real_root(pair_incidence(ps).char_polynomial).value
        assert abs(lam_first - lam_pairs) < 1e-9
    criterion(
        "C8 exact intertwining and dominant eigenvalue agreement",
        True,
        f"{len(runs)} terminating runs in {attempts} attempts",
    )


def test_criterion_8_self_run_reproduces_substitution():
    rng = random.Random(107)
    limits = BpaLimits(prefix_cutoff=1000, max_pairs=50, max_pair_length=1000)
    for _ in range(CASES):
        sub = random_primitive_substitution(rng)
        ps = run_bpa(sub, sub, limits)
        assert isinstance(ps, PairSubstitution)
        assert ps.size == sub.alphabet.size
        assert all(pair.length == 1 for pair in ps.pairs)
        to_letter = {i: ps.pairs[i].top.indices[0] for i in range(ps.size)}
        for i in range(ps.size):
            image = tuple(to_letter[j] for j in ps.rules[i])
            assert image == sub.images[to_letter[i]].indices
    criterion("C8 self-run reproduces the substitution up to relabeling", True, f"{CASES} cases")
