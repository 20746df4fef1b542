"""Alphabets, finite words, substitutions, and fixed-point streams.

Letters are arbitrary strings mapped to dense indices at construction time;
all computation runs on indices.  Substitutions act by concatenation of
per-letter image words.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import IntMatrix
from .errors import NoSeedFound, SubstitutionParseError


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct letter names; iteration order is definition order."""

    letters: tuple[str, ...]
    _index: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        letters = tuple(str(x) for x in self.letters)
        if not letters:
            raise ValueError("alphabet must contain at least one letter")
        if any(not name for name in letters):
            raise ValueError("letter names must be nonempty strings")
        if len(set(letters)) != len(letters):
            raise ValueError("letter names must be distinct")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(letters)})

    @property
    def size(self) -> int:
        return len(self.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i: int) -> str:
        return self.letters[i]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name, say a list
            raise KeyError(f"unknown letter {name!r}") from None

    @property
    def single_char(self) -> bool:
        return all(len(name) == 1 for name in self.letters)


@dataclass(frozen=True)
class Word:
    """Finite word stored as letter indices into its alphabet."""

    alphabet: Alphabet
    indices: tuple[int, ...]

    def __post_init__(self):
        indices = tuple(int(i) for i in self.indices)
        k = self.alphabet.size
        for i in indices:
            if not 0 <= i < k:
                raise ValueError(f"letter index {i} out of range for alphabet of size {k}")
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_letters(cls, alphabet: Alphabet, names: Iterable[str]) -> "Word":
        return cls(alphabet, tuple(alphabet.index(n) for n in names))

    @classmethod
    def from_string(cls, alphabet: Alphabet, text: str) -> "Word":
        """Parse a word from a plain string; requires single-character letter names."""
        if not alphabet.single_char:
            raise ValueError("string form needs single-character letter names")
        return cls.from_letters(alphabet, text)

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, i):
        return self.indices[i]

    def __iter__(self):
        return iter(self.indices)

    def letters(self) -> tuple[str, ...]:
        return tuple(self.alphabet[i] for i in self.indices)

    def reversed_(self) -> "Word":
        return Word(self.alphabet, self.indices[::-1])

    def __str__(self):
        names = self.letters()
        return "".join(names) if self.alphabet.single_char else ",".join(names)


def abelianization(word: Word) -> tuple[int, ...]:
    """Occurrence counts per letter; component i counts letter i."""
    counts = [0] * word.alphabet.size
    for i in word.indices:
        counts[i] += 1
    return tuple(counts)


def prefix_counts(indices, weights) -> np.ndarray:
    """Running sums of weights[indices]: row m is weights[indices[0]] + ... + weights[indices[m]].

    With the k x k identity as weights, row m counts each letter of the first
    m + 1 letters (a broken-line vertex); two words balance after m + 1
    letters exactly where their rows m are equal.  Exact int64 arithmetic.
    """
    rows = np.asarray(weights, dtype=np.int64)[np.asarray(indices, dtype=np.intp)]
    return np.cumsum(rows, axis=0, out=rows)


@dataclass(frozen=True)
class Substitution:
    """Map from letters to nonempty finite words, extended by concatenation."""

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.alphabet.size:
            raise ValueError("need exactly one image per letter")
        for img in self.images:
            if img.alphabet is not self.alphabet and img.alphabet != self.alphabet:
                raise ValueError("image words must live over the same alphabet")
            if len(img) == 0:
                raise ValueError("images must be nonempty")

    @classmethod
    def from_rules(
        cls, letters: Sequence[str], rules: Mapping[str, str | Sequence[str]]
    ) -> "Substitution":
        """Build from a rule mapping; string values require single-character names."""
        alphabet = Alphabet(tuple(letters))
        images = []
        for name in alphabet:
            if name not in rules:
                raise ValueError(f"missing rule for letter {name!r}")
            value = rules[name]
            if isinstance(value, str):
                images.append(Word.from_string(alphabet, value))
            else:
                images.append(Word.from_letters(alphabet, value))
        return cls(alphabet, tuple(images))

    def image(self, letter_index: int) -> Word:
        return self.images[letter_index]

    def image_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(img.indices for img in self.images)

    def apply_indices(self, indices: Iterable[int]) -> list[int]:
        images = self.image_indices()
        out: list[int] = []
        for i in indices:
            out.extend(images[i])
        return out

    def apply(self, word: Word) -> Word:
        return Word(self.alphabet, tuple(self.apply_indices(word.indices)))

    def rule_text(self) -> str:
        sep = "" if self.alphabet.single_char else ","
        return ";".join(
            f"{self.alphabet[i]}->{sep.join(img.letters())}" for i, img in enumerate(self.images)
        )


def incidence_matrix(substitution: Substitution) -> IntMatrix:
    """Matrix whose column j is the abelianization of the image of letter j."""
    k = substitution.alphabet.size
    cols = [abelianization(substitution.image(j)) for j in range(k)]
    return IntMatrix(tuple(tuple(cols[j][i] for j in range(k)) for i in range(k)))


def reverse_substitution(substitution: Substitution) -> Substitution:
    """Letterwise reversal of every image word; incidence matrix is unchanged."""
    return Substitution(
        substitution.alphabet, tuple(img.reversed_() for img in substitution.images)
    )


#: Largest power the fixed-point seed search tries.
SEED_POWER_LIMIT = 64


def seed_power(substitution: Substitution, letter: int) -> int | None:
    """Smallest power l <= SEED_POWER_LIMIT with sigma^l(letter) starting at
    letter and |sigma^l(letter)| >= 2, or None when there is none.

    sigma^l(a) = sigma^(l-1)(sigma(a)) begins with f^l(a), f the first-letter
    map, and is at least two letters long once one of a, f(a), ...,
    f^(l-1)(a) has an image that long: only the first letters and the image
    lengths of the rules are read.
    """
    images = substitution.image_indices()
    current, grown = letter, False
    for l in range(1, SEED_POWER_LIMIT + 1):
        grown = grown or len(images[current]) >= 2
        current = images[current][0]
        if current == letter and grown:
            return l
    return None


def find_fixed_point_seed(substitution: Substitution) -> tuple[int, int]:
    """Smallest power l, then smallest letter a, with sigma^l(a) starting at a
    and |sigma^l(a)| >= 2.

    Deterministic search order makes every downstream fixed point reproducible.
    """
    found = [
        (power, a)
        for a in range(substitution.alphabet.size)
        if (power := seed_power(substitution, a)) is not None
    ]
    if not found:
        raise NoSeedFound(
            f"no growing fixed point seed within power {SEED_POWER_LIMIT}; "
            "the substitution may not be primitive"
        )
    power, letter = min(found)
    return letter, power


class InfiniteWordStream:
    """Lazily materialized prefix of the one-sided fixed point of sigma^power at a seed letter.

    The buffer only ever grows, by applying the substitution to the whole
    buffer, so it is always a prefix of the fixed point.  Growth happens
    under a lock; readers see a consistent prefix.
    """

    def __init__(self, substitution: Substitution, seed_letter: int, power: int):
        k = substitution.alphabet.size
        if not 0 <= seed_letter < k:
            raise ValueError("seed letter out of range")
        if power < 1:
            raise ValueError("power must be >= 1")
        # a growing seed's least power is its cycle length under the first-letter
        # map, so sigma^power(seed) begins with the seed, and is longer, exactly
        # at the multiples of that power: _grow_to gains letters every round
        least = seed_power(substitution, seed_letter)
        if least is None or power % least:
            raise ValueError("sigma^power(seed) does not begin with the seed letter and grow")
        self.substitution = substitution
        self.seed_letter = seed_letter
        self.power = power
        self._buffer: list[int] = [seed_letter]
        self._lock = threading.Lock()

    def _grow_to(self, n: int) -> None:
        with self._lock:
            while len(self._buffer) < n:
                for _ in range(self.power):
                    self._buffer = self.substitution.apply_indices(self._buffer)

    def __len__(self):
        return len(self._buffer)

    def _letters(self, start: int, stop: int) -> list[int]:
        # every public reader comes here and none calls another, so a wrapper
        # that counts growth per call (perfbench's tracer) counts it once
        if start < 0 or stop < start:
            raise ValueError(f"letter range [{start}, {stop}) needs 0 <= start <= stop")
        self._grow_to(stop)
        return self._buffer[start:stop]

    def prefix(self, n: int) -> Word:
        return Word(self.substitution.alphabet, tuple(self._letters(0, n)))

    def prefix_indices(self, n: int) -> np.ndarray:
        return np.array(self._letters(0, n), dtype=np.int64)

    def indices_range(self, start: int, stop: int) -> np.ndarray:
        return np.array(self._letters(start, stop), dtype=np.int64)


def stream_for(substitution: Substitution) -> InfiniteWordStream:
    """Stream of the canonical fixed point chosen by find_fixed_point_seed."""
    seed, power = find_fixed_point_seed(substitution)
    return InfiniteWordStream(substitution, seed, power)


# ---------------------------------------------------------------------------
# strong coincidence


@dataclass(frozen=True)
class CoincidenceWitness:
    power: int
    letter: int


@dataclass(frozen=True)
class StrongCoincidenceResult:
    mode: str
    n_max: int
    witnesses: dict[tuple[int, int], CoincidenceWitness | None]

    @property
    def satisfied(self) -> bool:
        return all(w is not None for w in self.witnesses.values())


def check_strong_coincidence(
    substitution: Substitution, mode: str = "prefix", n_max: int = 12
) -> StrongCoincidenceResult:
    """For each letter pair, the least power aligning a common letter with
    equal prefix (or suffix) abelianizations; not-found is a value.
    """
    if mode not in ("prefix", "suffix"):
        raise ValueError("mode must be 'prefix' or 'suffix'")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    k = substitution.alphabet.size
    eye = np.eye(k, dtype=np.int64)
    pending = {(i, j) for i in range(k) for j in range(i + 1, k)}
    witnesses: dict[tuple[int, int], CoincidenceWitness | None] = {p: None for p in pending}
    words: list[list[int]] = [[i] for i in range(k)]
    for n in range(1, n_max + 1):
        if not pending:
            break
        words = [substitution.apply_indices(w) for w in words]
        view = [np.array(w[::-1] if mode == "suffix" else w, dtype=np.int64) for w in words]
        counts = [prefix_counts(w, eye) for w in view]
        for pair in sorted(pending):
            i, j = pair
            length = min(len(view[i]), len(view[j]))
            w1 = view[i][:length]
            # position t is a witness when letter t agrees and the first t + 1
            # letters balance (equivalently, the first t letters do)
            balanced = (counts[i][:length] == counts[j][:length]).all(axis=1)
            hits = np.flatnonzero(balanced & (w1 == view[j][:length]))
            if hits.size:
                witnesses[pair] = CoincidenceWitness(n, int(w1[hits[0]]))
        pending = {p for p in pending if witnesses[p] is None}
    return StrongCoincidenceResult(mode, n_max, witnesses)


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}}
# Rule values are strings of letter names when every name is a single
# character, otherwise arrays of names.  Unknown top-level keys are ignored.


def substitution_from_dict(data) -> Substitution:
    if not isinstance(data, dict):
        raise SubstitutionParseError("top level must be a JSON object", field="$")
    if "alphabet" not in data:
        raise SubstitutionParseError("missing key", field="alphabet")
    raw_letters = data["alphabet"]
    if not isinstance(raw_letters, list) or not raw_letters:
        raise SubstitutionParseError("must be a nonempty array of strings", field="alphabet")
    for idx, name in enumerate(raw_letters):
        if not isinstance(name, str) or not name:
            raise SubstitutionParseError(
                "letter names must be nonempty strings", field=f"alphabet[{idx}]"
            )
    try:
        alphabet = Alphabet(tuple(raw_letters))
    except ValueError as exc:
        raise SubstitutionParseError(str(exc), field="alphabet") from None
    if "rules" not in data:
        raise SubstitutionParseError("missing key", field="rules")
    rules = data["rules"]
    if not isinstance(rules, dict):
        raise SubstitutionParseError("must be an object", field="rules")
    for name in rules:
        if name not in alphabet.letters:
            raise SubstitutionParseError("rule for unknown letter", field=f"rules.{name}")
    images = []
    for name in alphabet:
        if name not in rules:
            raise SubstitutionParseError("missing rule", field=f"rules.{name}")
        value = rules[name]
        fieldname = f"rules.{name}"
        if isinstance(value, str):
            if not alphabet.single_char:
                raise SubstitutionParseError(
                    "string rule values need single-character letter names; use an array",
                    field=fieldname,
                )
            symbols = list(value)
        elif isinstance(value, list):
            symbols = value
        else:
            raise SubstitutionParseError("rule value must be a string or array", field=fieldname)
        if not symbols:
            raise SubstitutionParseError("image must be nonempty", field=fieldname)
        try:
            images.append(Word.from_letters(alphabet, symbols))
        except KeyError as exc:
            raise SubstitutionParseError(exc.args[0], field=fieldname) from None
    return Substitution(alphabet, tuple(images))


def parse_substitution(text: str) -> Substitution:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SubstitutionParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    return substitution_from_dict(data)


def load_substitution(path) -> Substitution:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_substitution(handle.read())


def substitution_to_dict(substitution: Substitution) -> dict:
    single = substitution.alphabet.single_char
    rules = {}
    for i, img in enumerate(substitution.images):
        names = img.letters()
        rules[substitution.alphabet[i]] = "".join(names) if single else list(names)
    return {"alphabet": list(substitution.alphabet.letters), "rules": rules}


def save_substitution(substitution: Substitution, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(substitution_to_dict(substitution), handle, indent=2, sort_keys=False)
        handle.write("\n")
