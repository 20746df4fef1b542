"""Acceptance suite.

The worked-example criteria are `rauzykit selftest`'s check groups
(`rauzykit.selfcheck.CHECK_GROUPS`), run here as one pytest case per group:
the interval pair, the family a -> a^i b, flipped tribonacci, the
non-palindromic pair, the growth example without a balanced prefix, the
symmetry of the intersection, exact common points and the classification of
a double Perron root.  Each check is written once, in `selfcheck`.

C4b and C5c stay here: they derive the expected tables of two groups from
the substitution rules alone, by plain string rewriting, and compare the
derivation with the tables the groups check the implementation against.  Two
commonly printed references for these tables are errata refuted by the
definitions; each is kept as a comment next to its criterion with a one-line
refutation.  The C8 randomized property suites stay here too.
"""

import random
from collections import Counter

import numpy as np
import pytest

import rauzykit.selfcheck as selfcheck
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
    PairSubstitution,
    Word,
    abelianization,
    char_poly,
    classify_pisot,
    dominant_real_root,
    incidence_matrix,
    pair_incidence,
    projection_operator,
    reverse_substitution,
    run_bpa,
    spectral_split,
    substitution_to_dict,
)
from rauzykit.cli import main
from rauzykit.selfcheck import (
    CHECK_GROUPS,
    NONPALINDROMIC_DISCOVERY_PAIRS,
    NONPALINDROMIC_DISCOVERY_RULES,
    REVERSE_PREFIX_24_DERIVED,
    no_balanced_prefix_substitution,
    nonpalindromic_pair,
)


def group_failures(name: str) -> list[str]:
    return [f"{r.name} :: {r.detail}" for r in CHECK_GROUPS[name]() if not r.ok]


# ---------------------------------------------------------------------------
# worked examples: one case per selftest check group


@pytest.mark.parametrize("name", list(CHECK_GROUPS))
def test_worked_example_group(name):
    failures = group_failures(name)
    assert not failures, "\n".join(failures)


def test_a_corrupted_table_fails_its_group_case_and_selftest(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, "INTERVAL_RULES", {**selfcheck.INTERVAL_RULES, "C": "CAB"})
    assert [f.split(" :: ")[0] for f in group_failures("interval")] == ["interval: rule table"]
    assert main(["selftest"]) == 1
    assert "[FAIL] interval: rule table :: " in capsys.readouterr().out


# Each table below backs a check that replaced a deleted unit or acceptance
# test; corrupting it must fail exactly the checks that read it.
CORRUPTED_TABLES = {
    "interval-pair-alphabet-order": (
        "interval",
        "INTERVAL_PAIRS",
        {"B": ("b", "b"), "A": ("a", "a"), "C": ("ab", "ba")},
        ["interval: three pairs with the expected contents"],
    ),
    "interval-factor": (
        "interval",
        "INTERVAL_CHARPOLY_FACTORS",
        ((1, -3, 2), (-1, 1)),
        [
            "interval: characteristic polynomial (exact)",
            "interval: factor x^2 - 3x + 1 is self-reciprocal and divides",
        ],
    ),
    "family-i1-rules": (
        "family",
        "FAMILY_I1_RULES",
        {**selfcheck.FAMILY_I1_RULES, "E": "D"},
        ["family i=1: independently derived rule table"],
    ),
    "discovery-pairs": (
        "nonpalindromic",
        "NONPALINDROMIC_DISCOVERY_PAIRS",
        sorted(NONPALINDROMIC_DISCOVERY_PAIRS),
        ["nonpalindromic: pairs and rules in FIFO left-to-right discovery order"],
    ),
    "discovery-rules": (
        "nonpalindromic",
        "NONPALINDROMIC_DISCOVERY_RULES",
        {**NONPALINDROMIC_DISCOVERY_RULES, "E": "AEDCB"},
        ["nonpalindromic: pairs and rules in FIFO left-to-right discovery order"],
    ),
    "forward-prefix": (
        "no-balanced-prefix",
        "FORWARD_PREFIX_24",
        selfcheck.FORWARD_PREFIX_24[:23] + "b",
        ["no-balanced-prefix: forward fixed-point prefix"],
    ),
}


@pytest.mark.parametrize("case", list(CORRUPTED_TABLES))
def test_a_corrupted_table_fails_the_checks_that_read_it(case, monkeypatch):
    group, table, corrupted, failing = CORRUPTED_TABLES[case]
    monkeypatch.setattr(selfcheck, table, corrupted)
    assert [f.split(" :: ")[0] for f in group_failures(group)] == failing


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
# C4b, C5c: the expected tables, derived by string rewriting


def test_criterion_4b_discovery_order_matches_listing():
    # Erratum: a printed listing names (abab, bbaa) second, as in
    # NONPALINDROMIC_LISTED_PAIRS.  The seed image splits as
    # aabb.aab.abaabb.aabab.abab, so no left-to-right pass can name it before
    # the fifth place; the listing is a relabeling, not an order.  The
    # nonpalindromic group checks run_bpa against the derived tables.
    first, _ = nonpalindromic_pair()
    rules = substitution_to_dict(first)["rules"]
    derived_pairs, derived_rules = fifo_pair_system(rules, reversed_rules(rules))
    assert derived_pairs == NONPALINDROMIC_DISCOVERY_PAIRS
    assert derived_rules == NONPALINDROMIC_DISCOVERY_RULES


def test_criterion_5c_reverse_prefix_matches_printed_value():
    # Erratum: a printed value of this prefix, "cacbcaacbacacbacbacaacba", drops
    # the 'a' at index 4.  It contains "bc", which no concatenation of the
    # images cba, a, ca contains: b occurs only inside cba, followed by a.
    # The no-balanced-prefix group checks the stream against the derived prefix.
    rules = reversed_rules(substitution_to_dict(no_balanced_prefix_substitution())["rules"])
    derived = fixed_point_prefix(rules, 24)
    assert derived == REVERSE_PREFIX_24_DERIVED
    assert rewrite(rules, derived)[:24] == derived


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


def test_criterion_8_abelianization_homomorphism():
    rng = random.Random(102)
    for _ in range(CASES):
        sub = random_substitution(rng, k=rng.choice([2, 3, 4]))
        k = sub.alphabet.size
        word = Word(sub.alphabet, tuple(rng.randrange(k) for _ in range(rng.randint(0, 10))))
        m = incidence_matrix(sub)
        assert abelianization(sub.apply(word)) == tuple(sum(row[i] for i in word) for row in m.rows)


def test_criterion_8_incidence_matrix_reversal_invariant():
    rng = random.Random(103)
    for _ in range(CASES):
        sub = random_substitution(rng, k=rng.choice([2, 3, 4]))
        assert incidence_matrix(sub) == incidence_matrix(reverse_substitution(sub))


def test_criterion_8_cayley_hamilton():
    from rauzykit import IntMatrix

    rng = random.Random(104)
    for _ in range(CASES):
        k = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)])
        image = evaluate_at_matrix(char_poly(m), m)
        assert all(e == 0 for row in image.rows for e in row)


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
    return runs


def test_criterion_8_intertwining_exact_and_eigenvalue_match():
    runs = _bpa_sample_runs(106, CASES)
    for first, ps in runs:
        h = ps.letter_images.T  # column j counts the letters of pair j's top word
        m_pairs = np.array(pair_incidence(ps).matrix.rows, dtype=object)
        m_first = np.array(incidence_matrix(first).rows, dtype=object)
        assert np.array_equal(h @ m_pairs, m_first @ h)
        lam_first = dominant_real_root(char_poly(incidence_matrix(first))).value
        lam_pairs = dominant_real_root(pair_incidence(ps).char_polynomial).value
        assert abs(lam_first - lam_pairs) < 1e-9


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
