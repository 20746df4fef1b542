import json
import random
import time

import numpy as np
import pytest

from conftest import (
    iterate,
    random_primitive_substitution,
    random_substitution,
    traced_peak_mb,
    tracked_balance_points,
    tribonacci,
)
from rauzykit import (
    Alphabet,
    InfiniteWordStream,
    NoSeedFound,
    Substitution,
    SubstitutionParseError,
    Word,
    abelianization,
    find_fixed_point_seed,
    incidence_matrix,
    parse_substitution,
    prefix_counts,
    reverse_substitution,
    run_bpa,
    seed_power,
    stream_for,
    substitution_from_dict,
    substitution_to_dict,
)
from rauzykit.selfcheck import REVERSE_PREFIX_24_DERIVED, flipped_tribonacci
from rauzykit.words import letter_dtype


def word(alphabet, text):
    return Word.from_letters(alphabet, text)


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
        w = Word.from_letters(sub.alphabet, "12")
        assert str(sub.apply(w)) == "1213"

    def test_long_images_are_gathered_a_block_at_a_time(self):
        # one gather pads 10^5 letters to the longest image, 255: 51.8 MB
        sub = Substitution.from_rules(["a", "b"], {"a": "a" + "b" * 254, "b": "a"})
        idx = np.ones(10 ** 5, dtype=np.uint8)
        idx[::997] = 0
        image, peak = traced_peak_mb(lambda: sub.apply_indices(idx))
        assert peak < 12
        assert image.tolist() == [j for i in idx.tolist() for j in sub.image(i).indices]

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

    def test_float_weights_sum_in_float64_to_the_integer_sums(self):
        rng = random.Random(5)
        weights = np.array([[rng.randint(-3, 9) for _ in range(4)] for _ in range(5)])
        idx = [rng.randrange(5) for _ in range(300)]
        exact = prefix_counts(idx, weights)
        rows = prefix_counts(idx, weights.astype(np.float64))
        assert rows.dtype == np.float64 and rows.flags.f_contiguous
        assert np.array_equal(rows, exact)
        assert prefix_counts(idx, weights.astype(bool)).dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_blocks_with_a_carry_give_the_one_shot_sums(self, dtype):
        rng = np.random.default_rng(17)
        weights = rng.integers(-4, 9, size=(5, 3)).astype(dtype)
        idx = rng.integers(0, 5, size=1000).astype(np.uint8)
        whole = prefix_counts(idx, weights)
        for cuts in ([0, 1, 1000], [0, 7, 500, 999, 1000], [0, 999, 1000], [0, 0, 400, 400, 1000]):
            carry, blocks = None, []
            for a, b in zip(cuts, cuts[1:]):
                rows = prefix_counts(idx[a:b], weights, carry)
                assert rows.dtype == dtype and rows.flags.f_contiguous and rows.shape == (b - a, 3)
                blocks.append(rows)
                carry = rows[-1].copy() if b > a else carry
            assert np.array_equal(np.concatenate(blocks), whole)

    def test_a_carry_is_added_to_every_row(self):
        weights = np.eye(3, dtype=np.int64)
        idx = [2, 0, 0, 1]
        carry = np.array([5, -1, 7])
        assert np.array_equal(prefix_counts(idx, weights, carry), prefix_counts(idx, weights) + carry)
        assert prefix_counts([], weights, carry).shape == (0, 3)

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

    @pytest.mark.parametrize("k", [70, 100])
    def test_a_cycle_through_every_letter_seeds_at_the_alphabet_size(self, k):
        # the first-letter map is one k-cycle, so each letter returns to the
        # front at power k and no sooner
        sub = first_letter_chain(k, 0)
        assert find_fixed_point_seed(sub) == (0, k)
        assert seed_power(sub, 0) == seed_power(sub, k - 1) == k

    def test_a_long_tail_into_a_short_cycle_is_searched_in_linear_time(self):
        # x_0 -> x_1 -> ... -> x_9999 -> x_9997 under the first-letter map: only
        # the last three letters seed.  A search that walks from every letter
        # afresh, or rereads every rule per letter, takes seconds at this size.
        k = 10 ** 4
        sub = first_letter_chain(k, k - 3)
        start = time.perf_counter()
        assert find_fixed_point_seed(sub) == (k - 3, 3)
        assert time.perf_counter() - start < 0.5
        assert seed_power(sub, 0) is None and seed_power(sub, k - 1) == 3


def first_letter_chain(k, last):
    """x_t -> x_(t+1) x_0 for t < k - 1, and x_(k-1) -> x_last."""
    names = [f"x{t}" for t in range(k)]
    rules = {names[t]: [names[t + 1], names[0]] for t in range(k - 1)}
    rules[names[-1]] = [names[last]]
    return Substitution.from_rules(names, rules)


def rewriting_seed_power(rules, letter, limit=None):
    """sigma^l(letter) cut to its first two letters, by string rewriting: the
    first two letters of sigma(u) depend only on those of u.  The search
    stops at power limit, by default the alphabet size."""
    limit = len(rules) if limit is None else limit
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
            # no letter returns to the front growing past the alphabet size
            assert [rewriting_seed_power(rules, a, limit=4 * k) for a in sub.alphabet] == powers
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
        # b -> ac: the first-letter map sends b to a, which is fixed, so b
        # never returns to the front
        with pytest.raises(NoSeedFound, match="letter index 1 seeds no growing fixed point"):
            InfiniteWordStream(tribonacci(), seed_letter=1)

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
        with pytest.raises(NoSeedFound):
            InfiniteWordStream(sub, seed_letter=0)
        assert str(InfiniteWordStream(sub, seed_letter=1).prefix(4)) == "baaa"

    @pytest.mark.parametrize(
        "rules",
        [
            {"a": "ab", "b": "ac", "c": "a"},
            {"A": "B", "B": "C", "C": "ADAEADA", "D": "F", "E": "A", "F": "ADA"},
            {"a": "cba", "b": "a", "c": "ca"},
            {"a": "a", "b": "ba"},
        ],
        ids=["tribonacci", "pair-alphabet", "reversed-growth", "fixed-letter"],
    )
    def test_power_is_the_seed_power(self, rules):
        # the stream works out sigma^power itself; each letter either seeds the
        # fixed point of sigma^seed_power or is refused
        sub = Substitution.from_rules(list(rules), rules)
        for letter in range(sub.alphabet.size):
            power = seed_power(sub, letter)
            if power is None:
                with pytest.raises(NoSeedFound):
                    InfiniteWordStream(sub, letter)
                continue
            stream = InfiniteWordStream(sub, letter)
            assert stream.power == power
            want = Word(sub.alphabet, (letter,))
            while len(want) < 40:
                want = iterate(sub, power, want)
            assert stream.prefix(40).indices == want.indices[:40]

    def test_power_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            InfiniteWordStream(tribonacci(), 0, 1)
        with pytest.raises(TypeError):
            InfiniteWordStream(tribonacci(), seed_letter=0, power=1)

    @pytest.mark.parametrize(
        "rules, power",
        [
            ({"a": "ab", "b": "a"}, 1),
            ({"a": "b", "b": "ab"}, 2),
            ({"a": "b", "b": "c", "c": "ab"}, 3),
        ],
        ids=["power-1", "power-2", "power-3"],
    )
    def test_each_growth_step_holds_the_next_power_image(self, rules, power):
        # a growth step rewrites only the letters the step before appended,
        # yet after j steps the buffer is sigma^(power j)(seed), as when each
        # step rewrote the whole buffer
        sub = Substitution.from_rules(list(rules), rules)
        stream = stream_for(sub)
        assert stream.power == power
        want = sub.alphabet[stream.seed_letter]
        assert len(stream) == 1
        while len(want) < 20_000:
            for _ in range(power):
                want = "".join(rules[a] for a in want)
            stream.prefix_indices(len(stream) + 1)  # one letter past the buffer: one step
            assert len(stream) == len(want)
            assert str(stream.prefix(len(want))) == want

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

    @pytest.mark.parametrize("k", [3, 300])
    def test_readers_are_read_only_views_of_the_buffer(self, k):
        names = [f"x{i}" for i in range(k)]
        rules = {name: [names[0], names[(i + 1) % k]] for i, name in enumerate(names)}
        stream = stream_for(Substitution.from_rules(names, rules))
        for read in (lambda: stream.prefix_indices(1), lambda: stream.prefix_indices(5000),
                     lambda: stream.indices_range(100, 4000)):
            got = read()
            assert got.dtype == letter_dtype(k)
            assert np.shares_memory(got, stream._state[0])
            with pytest.raises(ValueError):
                got[0] = 0

    def test_threads_growing_one_stream_under_fast_switching(self):
        # the buffer and the start of its unexpanded tail change together; a
        # thread that read one of them new and the other old would append
        # the wrong image, or spin on an empty tail until the timeout
        import concurrent.futures
        import sys

        sub = Substitution.from_rules(["a", "b", "c"], {"a": "b", "b": "c", "c": "ab"})
        reference = stream_for(sub).prefix_indices(60_000).tolist()
        lengths = [7, 60_000, 300, 2_000, 31, 15_000, 60_000, 1] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                stream = stream_for(sub)
                with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
                    futures = [pool.submit(stream.prefix_indices, n) for n in lengths]
                    for n, future in zip(lengths, futures):
                        assert future.result(timeout=60).tolist() == reference[:n]
        finally:
            sys.setswitchinterval(interval)


class TestValidation:
    def test_public_constructor_refuses_out_of_range_index(self):
        for bad in ((0, 2), (-1,), (1, 0, 5), (256,)):
            with pytest.raises(ValueError, match="out of range"):
                Word(AB, bad)

    def test_public_constructor_refuses_non_integer_indices(self):
        for bad in ((1.7, True), (0, 1.0), (True,), (np.bool_(False),), ("1",), (None,), (np.float64(0),)):
            with pytest.raises(TypeError, match="not an integer"):
                Word(AB, bad)

    @pytest.mark.parametrize("names", [(1, 2), ("a", 2)], ids=["ints", "mixed"])
    def test_alphabet_refuses_names_that_are_not_strings(self, names):
        # str() would rename 1 to "1", after which index(1) raises KeyError
        with pytest.raises(ValueError, match="nonempty strings"):
            Alphabet(names)

    def test_public_constructor_keeps_numpy_integers_as_int(self):
        w = Word(AB, np.array([0, 1, 1], dtype=np.uint8))
        assert w.indices == (0, 1, 1) and all(type(i) is int for i in w.indices)
        assert Word(AB, (i for i in (1, 0))).indices == (1, 0)

    def test_parse_boundary_refuses_unknown_letters(self):
        with pytest.raises(KeyError):
            Word.from_letters(AB, ["a", "z"])

    def test_array_is_read_only_and_matches_indices(self):
        w = word(AB, "abba")
        assert w.array.tolist() == [0, 1, 1, 0] and w.array.dtype == np.uint8
        with pytest.raises(ValueError):
            w.array[0] = 1
        image = tribonacci().apply(Word(tribonacci().alphabet, (0, 1, 2)))
        assert image.array.tolist() == list(image.indices)
        with pytest.raises(ValueError):
            image.array[0] = 1


def rewrite_names(rules, names):
    """Plain rewriting on a list of letter names."""
    return [b for a in names for b in rules[a]]


def rewritten_fixed_point(rules, seed, power, n):
    """First n letters of the fixed point of sigma^power at seed, by rewriting."""
    w = [seed]
    while len(w) < n:
        for _ in range(power):
            w = rewrite_names(rules, w)
    return w[:n]


def rules_of(sub):
    return {a: list(img.letters()) for a, img in zip(sub.alphabet, sub.images)}


class TestArrayKernelsAgainstRewriting:
    """The numpy gather in Substitution.apply and the stream buffer against
    rewriting lists of letter names."""

    def test_apply_matches_rewriting(self):
        rng = random.Random(41)
        for _ in range(200):
            sub = random_substitution(rng, k=rng.randint(1, 6), max_len=rng.choice([1, 2, 3, 5]))
            names = [rng.choice(sub.alphabet.letters) for _ in range(rng.randint(0, 40))]
            image = sub.apply(Word.from_letters(sub.alphabet, names))
            assert list(image.letters()) == rewrite_names(rules_of(sub), names)
            assert image.array.tolist() == list(image.indices)
            assert image.array.dtype == letter_dtype(sub.alphabet.size)

    def test_stream_prefix_matches_rewriting(self):
        rng = random.Random(43)
        for _ in range(40):
            sub = random_primitive_substitution(rng, k=rng.randint(2, 6))
            stream = stream_for(sub)
            n = rng.randint(1, 3000)
            got = stream.prefix_indices(n)
            assert got.dtype == letter_dtype(sub.alphabet.size)
            want = rewritten_fixed_point(
                rules_of(sub), sub.alphabet[stream.seed_letter], stream.power, n
            )
            assert [sub.alphabet[i] for i in got.tolist()] == want
            assert stream.indices_range(n // 2, n).tolist() == got[n // 2 :].tolist()
            assert len(stream) >= n

    def test_300_letter_alphabet_crosses_the_uint8_boundary(self):
        assert letter_dtype(256) == np.uint8 and letter_dtype(257) == np.uint16
        names = [f"x{i}" for i in range(300)]
        rng = random.Random(47)
        rules = {name: [names[(i + 1) % 300], rng.choice(names)] for i, name in enumerate(names)}
        rules["x0"] = ["x0", "x299", "x256"]
        sub = Substitution.from_rules(names, rules)
        stream = stream_for(sub)
        got = stream.prefix_indices(20_000)
        assert stream._state[0].dtype == np.uint16
        assert got.max() > 255
        want = rewritten_fixed_point(rules, names[stream.seed_letter], stream.power, 20_000)
        assert [names[i] for i in got.tolist()] == want
        w = Word.from_letters(sub.alphabet, ["x299", "x255", "x256", "x0"])
        assert list(sub.apply(w).letters()) == rewrite_names(rules, w.letters())

    def test_pair_substitution_stream_matches_rewriting(self):
        sub = flipped_tribonacci()
        ps = run_bpa(sub, reverse_substitution(sub))
        pair_sub = ps.substitution
        stream = stream_for(pair_sub)
        got = stream.prefix_indices(5000)
        names = pair_sub.alphabet.letters
        want = rewritten_fixed_point(rules_of(pair_sub), names[stream.seed_letter], stream.power, 5000)
        assert [names[i] for i in got.tolist()] == want
        # the rules read off the pairs, not off the Substitution built from them
        rules = {ps.name(i): [ps.name(j) for j in rule] for i, rule in enumerate(ps.rules)}
        assert rules == rules_of(pair_sub)


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

    def test_from_rules_checks_as_json_parsing_does(self):
        with pytest.raises(SubstitutionParseError) as err:
            Substitution.from_rules(["a", "b"], {"a": "ab", "b": "a", "z": "a"})
        assert err.value.field == "rules.z"
        with pytest.raises(SubstitutionParseError) as err:
            Substitution.from_rules(["a", "b"], {"a": "ab"})
        assert err.value.field == "rules.b"
        tupled = Substitution.from_rules(("x1", "x2"), {"x1": ("x1", "x2"), "x2": ("x1",)})
        listed = substitution_from_dict({"alphabet": ["x1", "x2"], "rules": {"x1": ["x1", "x2"], "x2": ["x1"]}})
        assert tupled == listed

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
