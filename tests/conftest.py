import random
import string
import tracemalloc

from rauzykit import Substitution, incidence_matrix, is_primitive

LETTERS = "abcdef"


def tribonacci() -> Substitution:
    return Substitution.from_rules(["a", "b", "c"], {"a": "ab", "b": "ac", "c": "a"})


def fibonacci() -> Substitution:
    return Substitution.from_rules(["a", "b"], {"a": "ab", "b": "a"})


def kbonacci(k: int, i: int = 1, j: int = 1) -> Substitution:
    """x_t -> a^i x_(t+1) for t < k - 1 and x_(k-1) -> a^j, with a = x_0, on
    the letters a..z, A..Z (k <= 52); i = j = 1 is the k-bonacci substitution."""
    letters = list(string.ascii_letters[:k])
    rules = {letters[t]: letters[0] * i + letters[t + 1] for t in range(k - 1)}
    rules[letters[-1]] = letters[0] * j
    return Substitution.from_rules(letters, rules)


def random_substitution(rng: random.Random, k: int | None = None, max_len: int = 3) -> Substitution:
    if k is None:
        k = rng.choice([2, 3])
    letters = list(LETTERS[:k])
    rules = {
        letter: [letters[rng.randrange(k)] for _ in range(rng.randint(1, max_len))]
        for letter in letters
    }
    return Substitution.from_rules(letters, rules)


def traced_peak_mb(call):
    """call()'s result, and the peak in MB of what Python and numpy allocate
    while it runs."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def iterate(sub: Substitution, n: int, word):
    """sigma^n(word), by n calls of Substitution.apply."""
    for _ in range(n):
        word = sub.apply(word)
    return word


def random_primitive_substitution(
    rng: random.Random, k: int | None = None, max_len: int = 3
) -> Substitution:
    for _ in range(1000):
        sub = random_substitution(rng, k, max_len)
        if is_primitive(incidence_matrix(sub)):
            return sub
    raise AssertionError("could not sample a primitive substitution")


def shuffled_images_copy(rng: random.Random, sub: Substitution) -> Substitution:
    """Same incidence matrix: each image word is an in-place shuffle of the original."""
    rules = {}
    for letter, image in zip(sub.alphabet, sub.images):
        names = list(image.letters())
        rng.shuffle(names)
        rules[letter] = names
    return Substitution.from_rules(list(sub.alphabet), rules)


def tracked_balance_points(top, bottom, k):
    """Reference: lengths t at which top[:t] and bottom[:t] have equal letter
    counts, found by tracking the count difference and the number of letters
    on which it is nonzero."""
    diff = [0] * k
    mismatched = 0
    points = []
    for t in range(min(len(top), len(bottom))):
        a, b = top[t], bottom[t]
        if a != b:
            for letter, delta in ((a, 1), (b, -1)):
                before = diff[letter]
                diff[letter] += delta
                if before == 0 and diff[letter] != 0:
                    mismatched += 1
                elif before != 0 and diff[letter] == 0:
                    mismatched -= 1
        if mismatched == 0:
            points.append(t + 1)
    return points
