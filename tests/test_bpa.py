import dataclasses
import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import (
    kbonacci,
    random_primitive_substitution,
    shuffled_images_copy,
    traced_peak_mb,
    tracked_balance_points,
    tribonacci,
)
from oracles import corrupt_rule
from rauzykit import (
    Alphabet,
    BalancedPair,
    BpaLimits,
    MatrixMismatch,
    NonTermination,
    NotBalanced,
    NotFound,
    NotPisot,
    NotPrimitive,
    PairSubstitution,
    Substitution,
    Word,
    abelianization,
    first_minimal_balanced_pair,
    hausdorff_distance,
    incidence_matrix,
    intersection_cloud,
    minimal_split,
    pair_incidence,
    pair_letter_name,
    projection_operator,
    reciprocal_factor_report,
    reflect_cloud,
    reverse_substitution,
    run_bpa,
    spectral_split,
    stream_for,
    substitution_from_dict,
    verify_common_points,
)
from rauzykit.bpa import _codes, _imbalance
from rauzykit.selfcheck import (
    family_substitution,
    flipped_tribonacci,
    interval_pair,
    no_balanced_prefix_substitution,
    nonpalindromic_pair,
)
from rauzykit.words import _trusted, letter_dtype

AB = Alphabet(("a", "b"))


def w(text, alphabet=AB):
    return Word.from_letters(alphabet, text)


def intertwines(ps, first):
    """H M_pairs == M_first H, exactly, with column j of H counting the
    letters of pair j's top word."""
    h = ps.letter_images.T
    m_pairs = np.array(pair_incidence(ps).matrix.rows, dtype=object)
    m_first = np.array(incidence_matrix(first).rows, dtype=object)
    return np.array_equal(h @ m_pairs, m_first @ h)


class TestBalancedPairs:
    def test_is_balanced_examples(self):
        assert abelianization(w("ab")) == abelianization(w("ba"))
        assert abelianization(w("a")) == abelianization(w("a"))
        assert abelianization(w("ab")) != abelianization(w("aa"))

    def test_constructor_rejects_unbalanced(self):
        with pytest.raises(NotBalanced):
            BalancedPair(w("ab"), w("aa"))
        with pytest.raises(NotBalanced):
            BalancedPair(w("ab"), w("aba"))
        with pytest.raises(NotBalanced):
            BalancedPair(w(""), w(""))

    def test_minimal_split_interval_image(self):
        factors = minimal_split(BalancedPair(w("abaab"), w("baaba")))
        assert [(str(f.top), str(f.bottom)) for f in factors] == [
            ("ab", "ba"),
            ("a", "a"),
            ("ab", "ba"),
        ]

    def test_minimal_split_already_minimal(self):
        factors = minimal_split(BalancedPair(w("a"), w("a")))
        assert len(factors) == 1 and factors[0].length == 1

    def test_identical_words_split_to_singletons(self):
        word = w("abaabab")
        factors = minimal_split(BalancedPair(word, word))
        assert len(factors) == 7
        assert all(f.length == 1 for f in factors)

    def test_split_points_match_tracker(self):
        rng = random.Random(23)
        for k in range(1, 7):
            alphabet = Alphabet(tuple("abcdef"[:k]))
            for _ in range(40):
                top = [rng.randrange(k) for _ in range(rng.randint(1, 200))]
                bottom = top[:]
                rng.shuffle(bottom)
                pair = BalancedPair(Word(alphabet, tuple(top)), Word(alphabet, tuple(bottom)))
                factors = minimal_split(pair)
                ends = [sum(f.length for f in factors[: i + 1]) for i in range(len(factors))]
                assert ends == tracked_balance_points(top, bottom, k)

    def test_split_reconstructs_input(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 12)
            top = [rng.randrange(2) for _ in range(n)]
            bottom = top[:]
            rng.shuffle(bottom)
            pair = BalancedPair(Word(AB, tuple(top)), Word(AB, tuple(bottom)))
            factors = minimal_split(pair)
            rebuilt_top = sum((list(f.top.indices) for f in factors), [])
            rebuilt_bottom = sum((list(f.bottom.indices) for f in factors), [])
            assert rebuilt_top == top and rebuilt_bottom == bottom
            for f in factors:
                # strict prefix counts differ inside a minimal pair
                for m in range(1, f.length):
                    top_prefix = Word(AB, f.top.indices[:m])
                    bottom_prefix = Word(AB, f.bottom.indices[:m])
                    assert abelianization(top_prefix) != abelianization(bottom_prefix)


class TestImbalance:
    def test_rows_are_the_running_count_difference(self):
        rng = random.Random(14)
        for k in (1, 2, 3, 6, 17):
            for _ in range(20):
                n = rng.randint(1, 300)
                top = [rng.randrange(k) for _ in range(n)]
                bottom = [rng.randrange(k) for _ in range(n)]
                counts, expected = [0] * k, []
                for a, b in zip(top, bottom):
                    counts[a] += 1
                    counts[b] -= 1
                    expected.append(list(counts))
                # uint8 letters, as Word.array holds them: the codes top * k + bottom pass 255 at k = 17
                got = _imbalance(_codes(np.array(top, dtype=np.uint8), np.array(bottom, dtype=np.uint8), k), k)
                assert got.dtype == np.int64 and got.tolist() == expected


class TestCodes:
    @pytest.mark.parametrize("k", [2, 16, 17, 256])
    def test_one_dtype_whatever_the_letters(self, k):
        # callers pass letters in letter_dtype(k), narrower than the codes'
        # dtype from k = 17 on: the cast widens them before the product, and
        # letters of any integer dtype give the same registry key bytes
        rng = random.Random(k)
        top = [rng.randrange(k) for _ in range(50)]
        bottom = [rng.randrange(k) for _ in range(50)]
        from_int64 = _codes(np.array(top, dtype=np.int64), np.array(bottom, dtype=np.int64), k)
        from_letters = _codes(np.array(top, dtype=letter_dtype(k)), np.array(bottom, dtype=letter_dtype(k)), k)
        assert from_int64.dtype == from_letters.dtype == letter_dtype(k * k)
        assert from_int64.tobytes() == from_letters.tobytes()
        assert from_int64.tolist() == [a * k + b for a, b in zip(top, bottom)]


class TestReturnedPairs:
    """Pairs come back as words whose arrays are read-only views of one
    copy of their letters, in the alphabet's letter dtype."""

    @staticmethod
    def pairs(source):
        if source == "split":
            pair = BalancedPair(w("abaabbab"), w("baababba"))
            return minimal_split(pair)
        first, second = _against_reverse(flipped_tribonacci())
        limits = BpaLimits(max_pairs=5) if source == "limit" else BpaLimits()
        return run_bpa(first, second, limits).pairs

    @pytest.mark.parametrize("source", ["complete", "limit", "split"])
    def test_words_share_one_read_only_copy(self, source):
        pairs = self.pairs(source)
        arrays = [word.array for pair in pairs for word in (pair.top, pair.bottom)]
        assert len(pairs) > 1
        assert all(array.base is not None for array in arrays)
        assert len({id(array.base) for array in arrays}) == 1
        for pair in pairs:
            for word in (pair.top, pair.bottom):
                assert word.array.dtype == letter_dtype(word.alphabet.size)
                assert not word.array.flags.writeable
                assert word.array.tolist() == list(word.indices)


class _ArrayStream:
    """Stand-in for an InfiniteWordStream that reads a fixed index array."""

    def __init__(self, alphabet, indices):
        self.substitution = SimpleNamespace(alphabet=alphabet)
        self._indices = np.array(indices, dtype=np.int64)

    def indices_range(self, start, stop):
        return self._indices[start:stop]

    def prefix(self, n):
        return Word(self.substitution.alphabet, tuple(self._indices[:n].tolist()))


class TestSeedSearchBlocks:
    """The seed search counts in blocks of 1024 letters, then 4096, ...,
    carrying the imbalance from one block into the next."""

    @pytest.mark.parametrize("n", [1500, 3000])
    def test_balance_past_the_first_block(self, n):
        # a^n b^n against b^n a^n balances first after all 2n letters
        top = _ArrayStream(AB, [0] * n + [1] * n)
        bottom = _ArrayStream(AB, [1] * n + [0] * n)
        pair = first_minimal_balanced_pair(top, bottom, 2 * n)
        assert (str(pair.top), str(pair.bottom)) == ("a" * n + "b" * n, "b" * n + "a" * n)
        assert first_minimal_balanced_pair(top, bottom, 2 * n - 1) == NotFound(2 * n - 1)

    def test_a_block_is_freed_before_the_next(self):
        # at 2^18-letter blocks one block's imbalance rows take 6.3 MB; with
        # the streams already grown, holding two blocks' rows at once
        # peaked at 15.2 MB, and one block's rows at 8.7 MB
        sub = no_balanced_prefix_substitution()
        top, bottom = stream_for(sub), stream_for(reverse_substitution(sub))
        top.prefix_indices(10 ** 6)
        bottom.prefix_indices(10 ** 6)
        result, peak = traced_peak_mb(lambda: first_minimal_balanced_pair(top, bottom, 10 ** 6))
        assert result == NotFound(10 ** 6)
        assert peak < 11


class TestKeptChecks:
    """Checks that remain after words and pairs built inside the library
    stopped revalidating themselves."""

    @pytest.mark.parametrize("top, bottom", [("ab", "aa"), ("abab", "aabba"), ("", ""), ("b", "a")])
    def test_minimal_split_refuses_unbalanced_pair_built_past_the_constructor(self, top, bottom):
        pair = _trusted(BalancedPair, top=w(top), bottom=w(bottom))
        with pytest.raises(NotBalanced):
            minimal_split(pair)


def _perfbench_oracle():
    """perfbench/oracle.py: the balanced pair algorithm on plain strings."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _against_reverse(sub):
    return sub, reverse_substitution(sub)


WORKED_SYSTEMS = {
    "interval-pair": interval_pair,
    "flipped-tribonacci": lambda: _against_reverse(flipped_tribonacci()),
    "nonpalindromic": nonpalindromic_pair,
    **{f"family-{i}": (lambda i=i: _against_reverse(family_substitution(i))) for i in range(1, 5)},
}


def _rules_text(sub):
    return {a: str(img) for a, img in zip(sub.alphabet, sub.images)}


def _assert_matches_string_oracle(oracle, first, second, limits):
    """run_bpa and the string oracle agree on the outcome, the limit, the
    pairs in discovery order and the rules of the pairs whose images were
    split; returns the oracle's status."""
    expected = oracle.bpa(
        "".join(first.alphabet),
        _rules_text(first),
        _rules_text(second),
        limits.prefix_cutoff,
        limits.max_pairs,
        limits.max_pair_length,
    )
    result = run_bpa(first, second, limits)
    if expected.status == "not_found":
        assert result == NotFound(limits.prefix_cutoff)
        return expected.status
    assert [(str(p.top), str(p.bottom)) for p in result.pairs] == expected.pairs
    if expected.status == "ok":
        assert isinstance(result, PairSubstitution)
        assert {i: list(rule) for i, rule in enumerate(result.rules)} == expected.rules
    else:
        assert isinstance(result, NonTermination)
        assert result.limit == expected.status
        assert result.limit_value == getattr(limits, expected.status)
        assert result.names == tuple(pair_letter_name(i) for i in range(len(result.pairs)))
        assert {i: list(rule) for i, rule in result.completed_rules.items()} == expected.rules
    return expected.status


@pytest.mark.parametrize("name", sorted(WORKED_SYSTEMS))
def test_run_bpa_matches_string_oracle(name):
    oracle = _perfbench_oracle()
    first, second = WORKED_SYSTEMS[name]()
    assert _assert_matches_string_oracle(oracle, first, second, BpaLimits()) == "ok"


@pytest.mark.parametrize("name", sorted(WORKED_SYSTEMS))
def test_limit_runs_match_string_oracle(name):
    # limits just below what the complete run needs, and far below it, so
    # that each stops inside a batch of queued pairs
    oracle = _perfbench_oracle()
    first, second = WORKED_SYSTEMS[name]()
    full = run_bpa(first, second)
    longest = max(pair.length for pair in full.pairs)
    stopped = 0
    for max_pairs in sorted({1, 2, full.size // 2, full.size - 1} - {0}):
        assert _assert_matches_string_oracle(oracle, first, second, BpaLimits(max_pairs=max_pairs)) == "max_pairs"
        stopped += 1
    for cap in sorted({1, longest // 2, longest - 1} - {0}):
        stopped += _assert_matches_string_oracle(oracle, first, second, BpaLimits(max_pair_length=cap)) != "ok"
    assert stopped >= 3


def test_c8_sample_limit_runs_match_string_oracle():
    # shuffled-copy systems as criterion C8 draws them, at its limits and at
    # small ones
    oracle = _perfbench_oracle()
    rng = random.Random(83)
    statuses = []
    for _ in range(60):
        first = random_primitive_substitution(rng)
        second = shuffled_images_copy(rng, first)
        for limits in (
            BpaLimits(prefix_cutoff=20000, max_pairs=80, max_pair_length=20000),
            BpaLimits(prefix_cutoff=20000, max_pairs=6, max_pair_length=20000),
            BpaLimits(prefix_cutoff=20000, max_pairs=80, max_pair_length=12),
            # both limits bind: the cap is checked first
            BpaLimits(prefix_cutoff=20000, max_pairs=5, max_pair_length=5),
        ):
            statuses.append(_assert_matches_string_oracle(oracle, first, second, limits))
    assert min(statuses.count(status) for status in ("ok", "max_pairs", "max_pair_length")) >= 10


def _long_pairs():
    """A system whose run splits the images of pairs of 19683 and 39366
    letters before it stops at BpaLimits(max_pair_length=40000)."""
    return (
        Substitution.from_rules(["a", "b"], {"a": "abb", "b": "aab"}),
        Substitution.from_rules(["a", "b"], {"a": "bab", "b": "baa"}),
    )


@pytest.mark.parametrize("budget", [1, 5])
def test_results_do_not_depend_on_the_batch_budget(monkeypatch, budget):
    import rauzykit.bpa as bpa

    runs = [(*make(), limits) for make in WORKED_SYSTEMS.values() for limits in (BpaLimits(), BpaLimits(max_pairs=4))]
    runs.append((*_long_pairs(), BpaLimits(max_pair_length=40000)))
    expected = [run_bpa(*run) for run in runs]
    long_run = expected[-1]
    assert isinstance(long_run, NonTermination)
    assert max(long_run.pairs[i].length for i in long_run.completed_rules) > bpa._BATCH_LETTERS
    assert any(pair.length > budget for pair in long_run.pairs)
    monkeypatch.setattr(bpa, "_BATCH_LETTERS", budget)
    for run, want in zip(runs, expected):
        assert run_bpa(*run) == want


def test_long_pairs_match_string_oracle():
    first, second = _long_pairs()
    limits = BpaLimits(max_pair_length=40000)
    assert _assert_matches_string_oracle(_perfbench_oracle(), first, second, limits) == "max_pair_length"


@pytest.mark.parametrize(
    "limits, status",
    [
        (BpaLimits(), "ok"),
        (BpaLimits(max_pairs=70), "max_pairs"),
        (BpaLimits(max_pair_length=65535), "max_pair_length"),
    ],
    ids=["complete", "max-pairs", "max-pair-length"],
)
def test_two_byte_codes_match_string_oracle(limits, status):
    # 17-bonacci has 17 letters, so its letter-pair codes pass 255 and the
    # worklist stores, keys and slices two bytes per code
    first, second = _against_reverse(kbonacci(17))
    assert letter_dtype(17 * 17).itemsize == 2
    assert _assert_matches_string_oracle(_perfbench_oracle(), first, second, limits) == status
    if status == "ok":
        assert run_bpa(first, second).size == 153


class TestFirstMinimalPair:
    def test_interval_pair_starts_at_one(self):
        first, second = interval_pair()
        pair = first_minimal_balanced_pair(stream_for(first), stream_for(second), 100)
        assert (str(pair.top), str(pair.bottom)) == ("a", "a")

    def test_identical_streams(self):
        sub = tribonacci()
        pair = first_minimal_balanced_pair(stream_for(sub), stream_for(sub), 100)
        assert pair.length == 1

    def test_not_found_reports_cutoff(self):
        sub = no_balanced_prefix_substitution()
        rev = reverse_substitution(sub)
        result = first_minimal_balanced_pair(stream_for(sub), stream_for(rev), 10 ** 4)
        assert result == NotFound(10 ** 4)

    @pytest.mark.parametrize(
        "letters, rules",
        [(["b", "a"], {"a": "aab", "b": "abb"}), (["x", "y"], {"x": "xxy", "y": "xyy"})],
        ids=["letters-reordered", "other-letters"],
    )
    def test_streams_over_two_alphabets_are_a_mismatch(self, letters, rules):
        first = Substitution.from_rules(["a", "b"], {"a": "aab", "b": "abb"})
        other = Substitution.from_rules(letters, rules)
        with pytest.raises(MatrixMismatch, match="different alphabets"):
            first_minimal_balanced_pair(stream_for(first), stream_for(other), 100)

    def test_a_cutoff_below_one_is_a_value_error(self):
        sub = tribonacci()
        with pytest.raises(ValueError, match="cutoff"):
            first_minimal_balanced_pair(stream_for(sub), stream_for(sub), 0)


class TestRunBpa:
    def test_matrix_mismatch(self):
        first, _ = interval_pair()
        other = Substitution.from_rules(["a", "b"], {"a": "ab", "b": "a"})
        with pytest.raises(MatrixMismatch):
            run_bpa(first, other)

    @pytest.mark.parametrize(
        "letters, rules",
        [(["b", "a"], {"a": "aab", "b": "abb"}), (["x", "y"], {"x": "xxy", "y": "xyy"})],
        ids=["letters-reordered", "other-letters"],
    )
    def test_alphabet_mismatch(self, letters, rules):
        # equal incidence matrices [[2, 1], [1, 2]]: the alphabets alone differ
        first = Substitution.from_rules(["a", "b"], {"a": "aab", "b": "abb"})
        other = Substitution.from_rules(letters, rules)
        assert incidence_matrix(first) == incidence_matrix(other)
        with pytest.raises(MatrixMismatch, match="different alphabets"):
            run_bpa(first, other)

    def test_not_primitive_rejected(self):
        stuck = Substitution.from_rules(["a", "b"], {"a": "ab", "b": "b"})
        with pytest.raises(NotPrimitive):
            run_bpa(stuck, stuck)

    def test_max_pairs_limit(self):
        sub = flipped_tribonacci()
        result = run_bpa(sub, reverse_substitution(sub), BpaLimits(max_pairs=5))
        assert isinstance(result, NonTermination)
        assert result.limit == "max_pairs" and result.limit_value == 5
        assert 0 < len(result.pairs) <= 5

    def test_max_pair_length_limit(self):
        first, second = nonpalindromic_pair()
        result = run_bpa(first, second, BpaLimits(max_pair_length=3))
        assert isinstance(result, NonTermination)
        assert result.limit == "max_pair_length"

    def test_content_reconstruction(self):
        first, second = nonpalindromic_pair()
        ps = run_bpa(first, second)
        for i, pair in enumerate(ps.pairs):
            image_top = first.apply(pair.top).indices
            image_bottom = second.apply(pair.bottom).indices
            rebuilt_top = sum((list(ps.pairs[j].top.indices) for j in ps.rules[i]), [])
            rebuilt_bottom = sum((list(ps.pairs[j].bottom.indices) for j in ps.rules[i]), [])
            assert tuple(rebuilt_top) == image_top
            assert tuple(rebuilt_bottom) == image_bottom

    def test_determinism(self):
        first, second = nonpalindromic_pair()
        a = run_bpa(first, second)
        b = run_bpa(first, second)
        assert a == b

    def test_pair_letter_names_extend_past_z(self):
        assert pair_letter_name(0) == "A"
        assert pair_letter_name(25) == "Z"
        assert pair_letter_name(26) == "AA"
        assert pair_letter_name(27) == "AB"


class TestPairIncidence:
    def test_one_public_spelling_and_no_unread_field(self):
        first, second = interval_pair()
        ps = run_bpa(first, second)
        assert "base_alphabet" not in {f.name for f in dataclasses.fields(PairSubstitution)}
        assert not hasattr(ps, "incidence")
        assert pair_incidence(ps) is pair_incidence(ps)

    def test_homomorphism_exact(self):
        first, second = interval_pair()
        ps = run_bpa(first, second)
        assert intertwines(ps, first)

    def test_one_pair_char_poly_per_pair_system(self, monkeypatch):
        import rauzykit.bpa as bpa

        first, second = interval_pair()
        ps = run_bpa(first, second)
        dims = []
        char_poly = bpa.char_poly

        def counting(m):
            dims.append(m.dim)
            return char_poly(m)

        monkeypatch.setattr(bpa, "char_poly", counting)
        inc = pair_incidence(ps)
        rep = reciprocal_factor_report(first, ps)
        assert dims.count(ps.size) == 1
        assert pair_incidence(ps) is inc and rep.p_divides

    def test_corrupted_copy_gets_its_own_incidence(self):
        first, second = interval_pair()
        ps = run_bpa(first, second)
        before = pair_incidence(ps).matrix
        bad = corrupt_rule(ps, rule_index=2, position=1, new_letter=1)  # C -> CBC
        assert pair_incidence(bad).matrix == incidence_matrix(bad.substitution)
        assert pair_incidence(bad).matrix != before
        assert pair_incidence(ps).matrix == before


class TestPairSystemBuiltOnce:
    def test_one_pair_substitution_per_object(self, monkeypatch):
        first = tribonacci()
        second = reverse_substitution(first)
        ps = run_bpa(first, second)
        op = projection_operator(spectral_split(incidence_matrix(first)))
        built = []
        post_init = Substitution.__post_init__

        def counting(self):
            built.append(self.alphabet)
            post_init(self)

        monkeypatch.setattr(Substitution, "__post_init__", counting)
        assert ps.substitution is ps.substitution
        assert built == [ps.pair_alphabet]
        intersection_cloud(ps, op, 500)
        verify_common_points(ps, first, second, 500)
        ps.to_dict()
        pair_incidence(ps)
        assert built == [ps.pair_alphabet]

    def test_letter_images_are_the_top_word_counts(self):
        first, second = interval_pair()
        ps = run_bpa(first, second)
        images = ps.letter_images
        assert images is ps.letter_images
        assert images.dtype == np.int64 and images.shape == (ps.size, first.alphabet.size)
        assert [tuple(row) for row in images.tolist()] == [abelianization(p.top) for p in ps.pairs]
        assert not images.flags.writeable


class TestIntersectionCloud:
    def setup_method(self):
        self.first = tribonacci()
        self.second = reverse_substitution(self.first)
        self.ps = run_bpa(self.first, self.second)
        self.op = projection_operator(spectral_split(incidence_matrix(self.first)))

    def test_single_point(self):
        cloud = intersection_cloud(self.ps, self.op, 1)
        stream = stream_for(self.ps.substitution)
        first_letter = int(stream.prefix_indices(1)[0])
        expected = self.op.project_many(self.ps.letter_images[[first_letter]])[0]
        assert np.allclose(cloud.coords[0], expected)
        assert cloud.alphabet[cloud.letters[0]] == self.ps.name(first_letter)

    def test_symmetry_at_grid_scale(self):
        cloud = intersection_cloud(self.ps, self.op, 10 ** 5)
        eps = 0.02 * cloud.diameter()
        assert hausdorff_distance(cloud, reflect_cloud(cloud), eps) < 3 * eps

    def test_refuses_a_non_unimodular_pair_system(self):
        # a -> ba, b -> babb: char poly x^2 - 4x + 2, Pisot with det 2; the
        # pair system with its reverse has three letters
        first = Substitution.from_rules(["a", "b"], {"a": "ba", "b": "babb"})
        ps = run_bpa(first, reverse_substitution(first))
        op = projection_operator(spectral_split(incidence_matrix(first)))
        assert ps.size == 3 and op.report.is_pisot and not op.report.is_unimodular
        with pytest.raises(NotPisot, match="unimodular"):
            intersection_cloud(ps, op, 100)

    def test_refuses_the_operator_of_another_matrix(self):
        op = projection_operator(spectral_split(incidence_matrix(family_substitution(2))))
        with pytest.raises(MatrixMismatch, match="another incidence matrix"):
            intersection_cloud(self.ps, op, 100)

    def test_refuses_an_operator_of_another_dimension(self):
        op = projection_operator(spectral_split(incidence_matrix(interval_pair()[0])))
        with pytest.raises(MatrixMismatch, match="another incidence matrix"):
            intersection_cloud(self.ps, op, 100)

    def test_checks_the_operator_before_the_point_count(self):
        with pytest.raises(ValueError, match="at least one point"):
            intersection_cloud(self.ps, self.op, 0)
        op = projection_operator(spectral_split(incidence_matrix(family_substitution(2))))
        with pytest.raises(MatrixMismatch):
            intersection_cloud(self.ps, op, 0)

    def test_points_lie_on_both_parent_clouds(self):
        from rauzykit import rauzy_cloud

        n = 4 * 10 ** 4
        cloud = intersection_cloud(self.ps, self.op, 10 ** 3)
        for sub in (self.first, self.second):
            parent = rauzy_cloud(sub, n, self.op)
            dists, _ = cKDTree(parent.coords).query(cloud.coords)
            assert dists.max() < 0.02 * parent.diameter()


class TestVerifyCommonPoints:
    def test_interval_pair_passes(self):
        first, second = interval_pair()
        ps = run_bpa(first, second)
        result = verify_common_points(ps, first, second, 1000)
        assert result.ok and result.first_failure is None

    def test_single_prefix_letter(self):
        first, second = interval_pair()
        ps = run_bpa(first, second)
        assert verify_common_points(ps, first, second, 1).ok

    def test_corrupted_rules_fail_with_index(self):
        first, second = interval_pair()
        ps = run_bpa(first, second)
        bad = corrupt_rule(ps, rule_index=2, position=1, new_letter=1)  # C -> CBC
        result = verify_common_points(bad, first, second, 1000)
        assert not result.ok
        assert result.first_failure is not None and result.first_failure >= 0


class TestSelfRun:
    def test_reproduces_substitution_up_to_relabeling(self):
        sub = tribonacci()
        ps = run_bpa(sub, sub)
        assert ps.size == sub.alphabet.size
        assert all(pair.length == 1 for pair in ps.pairs)
        to_letter = {i: ps.pairs[i].top.indices[0] for i in range(ps.size)}
        for i in range(ps.size):
            image = tuple(to_letter[j] for j in ps.rules[i])
            assert image == sub.images[to_letter[i]].indices


class TestSerialization:
    def test_pair_json_has_pairs_section(self):
        first, second = interval_pair()
        ps = run_bpa(first, second)
        data = ps.to_dict()
        assert data["pairs"]["C"] == {"top": "ab", "bottom": "ba"}
        assert data["rules"]["A"] == "ABA"
        # the base substitution format still parses, ignoring the extra key
        again = substitution_from_dict(data)
        assert again == ps.substitution


class TestRandomizedRuns:
    def test_shuffled_copies_terminate_and_intertwine(self):
        rng = random.Random(71)
        limits = BpaLimits(prefix_cutoff=20000, max_pairs=80, max_pair_length=20000)
        successes = 0
        attempts = 0
        while successes < 25 and attempts < 400:
            attempts += 1
            first = random_primitive_substitution(rng)
            second = shuffled_images_copy(rng, first)
            result = run_bpa(first, second, limits)
            if not isinstance(result, PairSubstitution):
                continue
            assert intertwines(result, first)
            successes += 1
        assert successes >= 25
