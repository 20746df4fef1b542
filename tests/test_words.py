import json
import random

import numpy as np
import pytest

from conftest import iterate, random_substitution, tracked_balance_points, tribonacci
from rauzykit import (
    Alphabet,
    InfiniteWordStream,
    NoSeedFound,
    Substitution,
    SubstitutionParseError,
    Word,
    abelianization,
    check_strong_coincidence,
    find_fixed_point_seed,
    incidence_matrix,
    parse_substitution,
    prefix_counts,
    reverse_substitution,
    seed_power,
    stream_for,
    substitution_from_dict,
    substitution_to_dict,
)
from rauzykit.selfcheck import FORWARD_PREFIX_24, REVERSE_PREFIX_24_DERIVED


def word(alphabet, text):
    return Word.from_string(alphabet, text)


AB = Alphabet(("a", "b"))


class TestAbelianization:
    def test_empty(self):
        assert abelianization(word(AB, "")) == (0, 0)

    def test_aba(self):
        assert abelianization(word(AB, "aba")) == (2, 1)

    def test_abaab(self):
        assert abelianization(word(AB, "abaab")) == (3, 2)


class TestApply:
    def test_tribonacci_digits(self):
        sub = Substitution.from_rules(["1", "2", "3"], {"1": "12", "2": "13", "3": "1"})
        w = Word.from_string(sub.alphabet, "12")
        assert str(sub.apply(w)) == "1213"

    def test_empty_word(self):
        sub = tribonacci()
        assert len(sub.apply(Word(sub.alphabet, ()))) == 0

    def test_interval_image(self):
        sub = Substitution.from_rules(["a", "b"], {"a": "aba", "b": "ab"})
        assert str(sub.apply(word(sub.alphabet, "ab"))) == "abaab"

    def test_homomorphism_on_random_words(self):
        rng = random.Random(7)
        for _ in range(100):
            sub = random_substitution(rng)
            k = sub.alphabet.size
            w = Word(sub.alphabet, tuple(rng.randrange(k) for _ in range(rng.randint(0, 8))))
            m = incidence_matrix(sub)
            assert abelianization(sub.apply(w)) == tuple(sum(row[i] for i in w) for row in m.rows)


def kernel_balance_points(top, bottom, k):
    eye = np.eye(k, dtype=np.int64)
    equal = (prefix_counts(top, eye) == prefix_counts(bottom, eye)).all(axis=1)
    return (np.flatnonzero(equal) + 1).tolist()


class TestPrefixCounts:
    def test_one_hot_rows_are_prefix_abelianizations(self):
        sub = tribonacci()
        w = stream_for(sub).prefix(60)
        rows = prefix_counts(w.indices, np.eye(3, dtype=np.int64))
        for m in range(60):
            assert tuple(rows[m]) == abelianization(Word(sub.alphabet, w.indices[: m + 1]))

    def test_weighted_rows_are_running_sums(self):
        rng = random.Random(3)
        weights = np.array([[rng.randint(-3, 9) for _ in range(4)] for _ in range(5)])
        idx = [rng.randrange(5) for _ in range(80)]
        running = np.zeros(4, dtype=np.int64)
        rows = prefix_counts(idx, weights)
        assert rows.dtype == np.int64 and rows.shape == (80, 4)
        for m, i in enumerate(idx):
            running = running + weights[i]
            assert (rows[m] == running).all()

    def test_empty_sequence(self):
        assert prefix_counts([], np.eye(2, dtype=np.int64)).shape == (0, 2)

    def test_balance_points_match_tracker(self):
        rng = random.Random(11)
        for k in range(1, 7):
            for length in list(range(0, 12)) + [rng.randint(12, 200) for _ in range(30)] + [200]:
                top = [rng.randrange(k) for _ in range(length)]
                shuffled = top[:]
                rng.shuffle(shuffled)
                for bottom in (top[:], shuffled, [rng.randrange(k) for _ in range(length)]):
                    assert kernel_balance_points(top, bottom, k) == tracked_balance_points(
                        top, bottom, k
                    )

    def test_identical_words_balance_everywhere(self):
        rng = random.Random(12)
        for k in range(1, 7):
            w = [rng.randrange(k) for _ in range(200)]
            assert kernel_balance_points(w, w, k) == list(range(1, 201))


class TestIncidenceMatrix:
    def test_family_i3(self):
        sub = Substitution.from_rules(["a", "b", "c"], {"a": "aaab", "b": "aaac", "c": "a"})
        assert incidence_matrix(sub).rows == ((3, 3, 1), (1, 0, 0), (0, 1, 0))

    def test_identity_substitution(self):
        sub = Substitution.from_rules(["a", "b"], {"a": "a", "b": "b"})
        assert incidence_matrix(sub).rows == ((1, 0), (0, 1))

    def test_interval_first(self):
        sub = Substitution.from_rules(["a", "b"], {"a": "aba", "b": "ab"})
        assert incidence_matrix(sub).rows == ((2, 1), (1, 1))


class TestReverseSubstitution:
    def test_tribonacci(self):
        rev = reverse_substitution(tribonacci())
        assert substitution_to_dict(rev)["rules"] == {"a": "ba", "b": "ca", "c": "a"}

    def test_single_palindromic_letter(self):
        sub = Substitution.from_rules(["a"], {"a": "a"})
        assert substitution_to_dict(reverse_substitution(sub))["rules"] == {"a": "a"}

    def test_family_reverse_is_mirrored_family(self):
        for i in (1, 2, 3):
            forward = Substitution.from_rules(
                ["a", "b", "c"], {"a": "a" * i + "b", "b": "a" * i + "c", "c": "a"}
            )
            mirrored = Substitution.from_rules(
                ["a", "b", "c"], {"a": "b" + "a" * i, "b": "c" + "a" * i, "c": "a"}
            )
            assert reverse_substitution(forward) == mirrored

    def test_involution_and_incidence_invariance(self):
        rng = random.Random(11)
        for _ in range(100):
            sub = random_substitution(rng, k=rng.choice([2, 3, 4]))
            rev = reverse_substitution(sub)
            assert reverse_substitution(rev) == sub
            assert incidence_matrix(rev) == incidence_matrix(sub)

    def test_reversal_identity_small(self):
        rng = random.Random(13)
        for _ in range(60):
            sub = random_substitution(rng, k=rng.choice([2, 3, 4]))
            rev = reverse_substitution(sub)
            k = sub.alphabet.size
            w = Word(sub.alphabet, tuple(rng.randrange(k) for _ in range(rng.randint(1, 5))))
            n = rng.randint(1, 5)
            assert iterate(sub, n, w).reversed_() == iterate(rev, n, w.reversed_())


class TestFixedPointSeed:
    def test_tribonacci(self):
        assert find_fixed_point_seed(tribonacci()) == (0, 1)

    def test_pair_alphabet_needs_power_three(self):
        pair_rules = {"A": "B", "B": "C", "C": "ADAEADA", "D": "F", "E": "A", "F": "ADA"}
        sub = Substitution.from_rules(list("ABCDEF"), pair_rules)
        assert find_fixed_point_seed(sub) == (0, 3)

    def test_reverse_of_growth_example(self):
        sub = Substitution.from_rules(["a", "b", "c"], {"a": "abc", "b": "a", "c": "ac"})
        rev = reverse_substitution(sub)
        assert find_fixed_point_seed(rev) == (2, 1)

    def test_no_seed_for_pure_cycle(self):
        swap = Substitution.from_rules(["a", "b"], {"a": "b", "b": "a"})
        with pytest.raises(NoSeedFound):
            find_fixed_point_seed(swap)


def rewriting_seed_power(rules, letter, limit=64):
    """sigma^l(letter) cut to its first two letters, by string rewriting: the
    first two letters of sigma(u) depend only on those of u."""
    word = letter
    for power in range(1, limit + 1):
        word = "".join(rules[a] for a in word)[:2]
        if word[0] == letter and len(word) == 2:
            return power
    return None


class TestSeedSearchOracle:
    def test_matches_string_rewriting(self):
        rng = random.Random(29)
        seeded = refused = 0
        for _ in range(300):
            k = rng.randint(1, 5)
            sub = random_substitution(rng, k=k, max_len=rng.choice([1, 2, 3]))
            rules = {a: str(img) for a, img in zip(sub.alphabet, sub.images)}
            powers = [rewriting_seed_power(rules, a) for a in sub.alphabet]
            assert [seed_power(sub, i) for i in range(k)] == powers
            found = [(p, i) for i, p in enumerate(powers) if p is not None]
            if found:
                power, letter = min(found)
                assert find_fixed_point_seed(sub) == (letter, power)
                seeded += 1
            else:
                with pytest.raises(NoSeedFound):
                    find_fixed_point_seed(sub)
                refused += 1
        assert seeded >= 100 and refused >= 20


class TestStreams:
    def test_growth_example_prefix(self):
        sub = Substitution.from_rules(["a", "b", "c"], {"a": "abc", "b": "a", "c": "ac"})
        stream = stream_for(sub)
        assert str(stream.prefix(24)) == FORWARD_PREFIX_24

    def test_zero_prefix(self):
        stream = stream_for(tribonacci())
        assert len(stream.prefix(0)) == 0

    def test_reverse_prefix_satisfies_recurrence(self):
        # the fixed point is pinned by v = rules(v); check consistency directly
        sub = Substitution.from_rules(["a", "b", "c"], {"a": "abc", "b": "a", "c": "ac"})
        rev = reverse_substitution(sub)
        stream = stream_for(rev)
        got = stream.prefix(24)
        assert str(got) == REVERSE_PREFIX_24_DERIVED
        image = rev.apply(got)
        assert image.indices[:24] == got.indices

    def test_prefix_consistency(self):
        stream = stream_for(tribonacci())
        long = stream.prefix(400).indices
        for n in (0, 1, 5, 57, 400):
            assert stream.prefix(n).indices == long[:n]

    def test_substitution_fixes_prefix(self):
        sub = tribonacci()
        stream = stream_for(sub)
        w = stream.prefix(50)
        assert sub.apply(w).indices[:50] == w.indices

    def test_reversed_window_property(self):
        sub = tribonacci()
        rev = reverse_substitution(sub)
        seed_letter, power = find_fixed_point_seed(sub)
        seed = Word(sub.alphabet, (seed_letter,))
        for n in range(1, 5):
            assert iterate(sub, power * n, seed).reversed_() == iterate(rev, power * n, seed)

    def test_invalid_seed_rejected(self):
        with pytest.raises(ValueError):
            InfiniteWordStream(tribonacci(), seed_letter=1, power=1)

    @pytest.mark.parametrize(
        "read",
        [
            lambda s: s.prefix(-1),
            lambda s: s.prefix_indices(-1),
            lambda s: s.indices_range(-1, 3),
            lambda s: s.indices_range(5, 4),
        ],
        ids=["prefix", "prefix_indices", "indices_range-negative", "indices_range-reversed"],
    )
    def test_readers_refuse_out_of_range_bounds(self, read):
        stream = stream_for(tribonacci())
        buffered = len(stream)
        with pytest.raises(ValueError):
            read(stream)
        assert len(stream) == buffered

    def test_seed_must_grow(self):
        # a -> a is a fixed letter that never grows; b -> ba grows at every power
        sub = Substitution.from_rules(["a", "b"], {"a": "a", "b": "ba"})
        with pytest.raises(ValueError):
            InfiniteWordStream(sub, seed_letter=0, power=1)
        assert str(InfiniteWordStream(sub, seed_letter=1, power=2).prefix(4)) == "baaa"

    def test_concurrent_readers_see_consistent_prefixes(self):
        import concurrent.futures

        stream = stream_for(tribonacci())
        reference = stream.prefix(5000).indices

        def read(n):
            return stream.prefix(n).indices

        fresh = stream_for(tribonacci())
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda n: (n, fresh.prefix(n).indices), [4999, 12, 777, 5000] * 8))
        for n, got in results:
            assert got == reference[:n]


class TestStrongCoincidence:
    def test_tribonacci_prefix_all_at_one(self):
        result = check_strong_coincidence(tribonacci(), "prefix", 4)
        assert result.satisfied
        for witness in result.witnesses.values():
            assert (witness.power, witness.letter) == (1, 0)

    def test_single_letter_vacuous(self):
        sub = Substitution.from_rules(["a"], {"a": "aa"})
        result = check_strong_coincidence(sub, "prefix", 2)
        assert result.satisfied and result.witnesses == {}

    def test_prefix_suffix_duality(self):
        rng = random.Random(5)
        for _ in range(40):
            sub = random_substitution(rng, k=rng.choice([2, 3]))
            rev = reverse_substitution(sub)
            n_max = 5
            forward = check_strong_coincidence(sub, "prefix", n_max).witnesses
            backward = check_strong_coincidence(rev, "suffix", n_max).witnesses
            assert forward == backward

    def test_witnesses_match_string_scan(self):
        # plain string rewriting: the first position t of sigma^n(i), sigma^n(j)
        # (read backwards for suffixes) where the first t letters have equal
        # counts and letter t agrees
        def scan(sub, mode, n_max):
            rules = {name: "".join(img.letters()) for name, img in zip(sub.alphabet, sub.images)}
            letters = list(sub.alphabet)
            words = dict(zip(letters, letters))
            found = {}
            for n in range(1, n_max + 1):
                words = {a: "".join(rules[c] for c in w) for a, w in words.items()}
                for i in range(len(letters)):
                    for j in range(i + 1, len(letters)):
                        if (i, j) in found:
                            continue
                        w1, w2 = words[letters[i]], words[letters[j]]
                        if mode == "suffix":
                            w1, w2 = w1[::-1], w2[::-1]
                        for t in range(min(len(w1), len(w2))):
                            if w1[t] == w2[t] and sorted(w1[:t]) == sorted(w2[:t]):
                                found[(i, j)] = (n, letters.index(w1[t]))
                                break
            return found

        rng = random.Random(17)
        for _ in range(60):
            sub = random_substitution(rng, k=rng.choice([2, 3, 4]))
            for mode in ("prefix", "suffix"):
                result = check_strong_coincidence(sub, mode, 5)
                got = {
                    pair: (w.power, w.letter)
                    for pair, w in result.witnesses.items()
                    if w is not None
                }
                assert got == scan(sub, mode, 5)

    def test_not_found_is_a_value(self):
        # the two letters never align: images stay disjoint under iteration
        sub = Substitution.from_rules(["a", "b"], {"a": "ab", "b": "ba"})
        result = check_strong_coincidence(sub, "prefix", 1)
        assert not result.satisfied
        assert result.witnesses[(0, 1)] is None


class TestJsonInterchange:
    def test_round_trip(self):
        sub = tribonacci()
        again = substitution_from_dict(substitution_to_dict(sub))
        assert again == sub

    def test_parse_string_rules(self):
        sub = parse_substitution(
            '{"alphabet": ["a", "b", "c"], "rules": {"a": "abc", "b": "a", "c": "ac"}}'
        )
        assert sub.image(0).letters() == ("a", "b", "c")

    def test_multicharacter_symbols_need_arrays(self):
        data = {"alphabet": ["x1", "x2"], "rules": {"x1": ["x1", "x2"], "x2": ["x1"]}}
        sub = substitution_from_dict(data)
        assert sub.alphabet.letters == ("x1", "x2")
        with pytest.raises(SubstitutionParseError) as err:
            substitution_from_dict({"alphabet": ["x1", "x2"], "rules": {"x1": "x1x2", "x2": "x1"}})
        assert err.value.field == "rules.x1"

    def test_syntax_error_reports_line(self):
        with pytest.raises(SubstitutionParseError) as err:
            parse_substitution('{"alphabet": ["a"],\n "rules": {')
        assert err.value.line is not None

    def test_missing_rule_reports_field(self):
        with pytest.raises(SubstitutionParseError) as err:
            substitution_from_dict({"alphabet": ["a", "b"], "rules": {"a": "ab"}})
        assert err.value.field == "rules.b"

    def test_unknown_symbol_reports_field(self):
        with pytest.raises(SubstitutionParseError) as err:
            substitution_from_dict({"alphabet": ["a"], "rules": {"a": "ax"}})
        assert err.value.field == "rules.a"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"alphabet": ["a", "b"], "rules": {"a": [["a"]], "b": "a"}}', "unknown letter ['a']"),
            ('{"alphabet": ["a", "b"], "rules": {"a": "ac", "b": "a"}}', "unknown letter 'c'"),
        ],
        ids=["nested-array", "unknown-letter"],
    )
    def test_bad_image_letter_names_the_rule(self, text, message):
        with pytest.raises(SubstitutionParseError) as err:
            parse_substitution(text)
        assert err.value.field == "rules.a"
        assert str(err.value) == f"{message} (field 'rules.a')"

    def test_empty_image_rejected(self):
        with pytest.raises(SubstitutionParseError):
            substitution_from_dict({"alphabet": ["a", "b"], "rules": {"a": "", "b": "a"}})

    def test_duplicate_letters_rejected(self):
        with pytest.raises(SubstitutionParseError) as err:
            substitution_from_dict({"alphabet": ["a", "a"], "rules": {"a": "a"}})
        assert err.value.field == "alphabet"

    def test_extra_top_level_keys_ignored(self):
        data = substitution_to_dict(tribonacci())
        data["pairs"] = {"A": {"top": "a", "bottom": "a"}}
        assert substitution_from_dict(data) == tribonacci()

    def test_loader_on_file(self, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(substitution_to_dict(tribonacci())), encoding="utf-8")
        from rauzykit import load_substitution

        assert load_substitution(path) == tribonacci()
