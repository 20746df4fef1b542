"""Alphabets, finite words, substitutions, and fixed-point streams.

Letters are arbitrary strings mapped to dense indices at construction time;
all computation runs on indices.  Substitutions act by concatenation of
per-letter image words, gathered in numpy from a padded image table.

A word is validated once, where it enters: ``Word(...)``, ``from_letters``
and JSON parsing.  Slices, reversals and images of words that are already
valid are built by ``_trusted``, which skips the checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import IntMatrix
from .errors import NoSeedFound, SubstitutionParseError


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as given,
    without running __post_init__: for values valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def letter_dtype(k: int) -> np.dtype:
    """Smallest unsigned integer dtype that holds the letter indices 0..k-1."""
    return np.min_scalar_type(k - 1)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
    """Finite word stored as a tuple of letter indices into its alphabet.

    The constructor checks every index; library code that slices or maps a
    valid word builds the result with _trusted instead.  ``array`` holds the
    same indices as a read-only numpy array of letter_dtype(alphabet size),
    made on first use unless the word was built from one.
    """

    alphabet: Alphabet
    indices: tuple[int, ...]

    def __post_init__(self):
        k = self.alphabet.size
        indices = tuple(self.indices)
        for i in indices:
            # bool is an int subclass, and int() would truncate a float
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise TypeError(f"letter index {i!r} is not an integer")
            if not 0 <= i < k:
                raise ValueError(f"letter index {i} out of range for alphabet of size {k}")
        object.__setattr__(self, "indices", tuple(map(int, indices)))

    @classmethod
    def from_letters(cls, alphabet: Alphabet, names: Iterable[str]) -> "Word":
        # Alphabet.index refuses an unknown name, so the indices are valid
        return _trusted(cls, alphabet=alphabet, indices=tuple(alphabet.index(n) for n in names))

    @cached_property
    def array(self) -> np.ndarray:
        return _frozen(np.array(self.indices, dtype=letter_dtype(self.alphabet.size)))

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, i):
        return self.indices[i]

    def __iter__(self):
        return iter(self.indices)

    def letters(self) -> tuple[str, ...]:
        return tuple(self.alphabet[i] for i in self.indices)

    def reversed_(self) -> "Word":
        return _trusted(Word, alphabet=self.alphabet, indices=self.indices[::-1])

    def __str__(self):
        names = self.letters()
        return "".join(names) if self.alphabet.single_char else ",".join(names)

    def to_json(self) -> str | list[str]:
        """The JSON form: a string over single-character letter names, else an array."""
        names = self.letters()
        return "".join(names) if self.alphabet.single_char else list(names)


def abelianization(word: Word) -> tuple[int, ...]:
    """Occurrence counts per letter; component i counts letter i."""
    return tuple(np.bincount(word.array, minlength=word.alphabet.size).tolist())


def prefix_counts(indices, weights, carry=None) -> np.ndarray:
    """Running sums of weights[indices]: row m is carry + weights[indices[0]] + ... + weights[indices[m]].

    With the k x k identity as weights, row m counts each letter of the first
    m + 1 letters (a broken-line vertex); two words balance after m + 1
    letters exactly where their rows m are equal.  Float weights are summed
    in float64 (exact while every sum is an integer below 2^53), others in int64.

    carry, a row of k sums (zero when None), is the running sum before
    indices[0]: with it, a long sequence is summed a block at a time, each
    block carrying the previous block's last row, to the one-shot rows.

    The (n, k) result is column-major: the columns of weights.T are gathered
    into a (k, n) array, summed along its rows and returned transposed, so a
    reduction over the k entries of each row, or over the n rows of one
    column, reads contiguous memory.
    """
    weights = np.asarray(weights)
    weights = weights.astype(np.float64 if weights.dtype.kind == "f" else np.int64, copy=False)
    columns = weights.T.take(np.asarray(indices, dtype=np.intp), axis=1)
    if carry is not None and columns.shape[1]:
        columns[:, 0] += carry
    return np.cumsum(columns, axis=1, out=columns).T


#: Padded table entries per block of apply_indices: the gather's table and
#: mask temporaries stay near 8 MB however long the images are; in one piece,
#: 10^5 letters at a longest image of 255 letters take 51.8 MB.
_GATHER_CELLS = 1 << 22


@dataclass(frozen=True)
class Substitution:
    """Map from letters to nonempty finite words, extended by concatenation.

    apply_indices gathers images from a table padded to the longest image
    and a mask of its real entries, both built on first use, at most
    _GATHER_CELLS table entries at a time.
    """

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
        """Build from a rule mapping, checked as substitution_from_dict checks
        JSON: tuple values are read as lists, string values need
        single-character names, and errors are SubstitutionParseError."""
        return substitution_from_dict(
            {
                "alphabet": list(letters),
                "rules": {name: list(v) if isinstance(v, tuple) else v for name, v in rules.items()},
            }
        )

    def image(self, letter_index: int) -> Word:
        return self.images[letter_index]

    @cached_property
    def _image_table(self) -> tuple[np.ndarray, np.ndarray]:
        # entries of the smallest unsigned dtype that holds every letter, so
        # that a gather's (n, longest image) temporaries stay small
        width = max(len(img) for img in self.images)
        table = np.zeros((self.alphabet.size, width), dtype=letter_dtype(self.alphabet.size))
        mask = np.zeros((self.alphabet.size, width), dtype=bool)
        for i, img in enumerate(self.images):
            table[i, : len(img)] = img.indices
            mask[i, : len(img)] = True
        return table, mask

    def apply_indices(self, indices) -> np.ndarray:
        """The image of a sequence of letter indices, as a numpy array of
        letter_dtype(alphabet size)."""
        table, mask = self._image_table
        rows = max(1, _GATHER_CELLS // table.shape[1])
        if len(indices) <= rows:
            return table.take(indices, axis=0)[mask.take(indices, axis=0)]
        return np.concatenate([self.apply_indices(indices[i : i + rows]) for i in range(0, len(indices), rows)])

    def apply(self, word: Word) -> Word:
        image = _frozen(self.apply_indices(word.array))
        return _trusted(Word, alphabet=self.alphabet, indices=tuple(image.tolist()), array=image)


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


def seed_power(substitution: Substitution, letter: int) -> int | None:
    """Smallest power l >= 1 with sigma^l(letter) starting at letter and
    |sigma^l(letter)| >= 2, or None when there is none.

    sigma^l(a) begins with f^l(a), f the first-letter map, and has two
    letters or more once one of a, f(a), ..., f^(l-1)(a) has an image that
    long.  If f^l(a) = a for some l >= 1, let c be the least: a, ...,
    f^(c-1)(a) are distinct, so c <= k = alphabet size, and f^l(a) = a
    exactly when c divides l; a, ..., f^(l-1)(a) are then the letters of the
    first lap again, so sigma^l(a) grows exactly when sigma^c(a) does.  The
    answer is c or None, decided at step c, and f never returns to a when it
    does not within k steps.
    """
    images = substitution.images
    current, grown = letter, False
    for l in range(1, len(images) + 1):
        grown = grown or len(images[current]) >= 2
        current = images[current].indices[0]
        if current == letter:
            return l if grown else None
    return None


def find_fixed_point_seed(substitution: Substitution) -> tuple[int, int]:
    """Smallest power l, then smallest letter a, with sigma^l(a) starting at a
    and |sigma^l(a)| >= 2: by seed_power, the smallest letter of a shortest
    cycle of the first-letter map that holds a growing letter.

    Each letter is marked by the first walk along that map to reach it, so
    the search is linear in the alphabet size.  Deterministic search order
    makes every downstream fixed point reproducible.
    """
    first = [image.indices[0] for image in substitution.images]
    walk = [-1] * len(first)  # the walk that first reached each letter
    found = []
    for start in range(len(first)):
        a = start
        while walk[a] < 0:
            walk[a] = start
            a = first[a]
        # a walk that stops at a letter it marked has closed a new cycle
        if walk[a] == start and (power := seed_power(substitution, a)):
            cycle = [a]
            while len(cycle) < power:
                cycle.append(first[cycle[-1]])
            found.append((power, min(cycle)))
    if not found:
        raise NoSeedFound("no growing fixed point seed; the substitution may not be primitive")
    power, letter = min(found)
    return letter, power


class InfiniteWordStream:
    """Lazily materialized prefix of the one-sided fixed point at a seed letter,
    grown by sigma^power with power = seed_power(substitution, seed_letter);
    a letter that seeds no growing fixed point raises NoSeedFound.

    The buffer is a numpy array of letter_dtype(alphabet size), always a
    prefix of the fixed point: the seed letter, then sigma^power of the
    seed, sigma^(2 power) of the seed, and so on.  Past the seed, the buffer
    is sigma^power(buffer[:source]), so growth applies the substitution only
    to the unexpanded tail buffer[source:] and appends the image.  The
    buffer and source are held as one tuple, replaced in one assignment, so
    a reader in another thread sees a consistent pair; two threads may grow
    the same stream at once, at the cost of duplicated work.  Each buffer is
    read-only; prefix_indices and indices_range return views of it, so a kept
    array (a cloud's letters) keeps the buffer alive: at most one growth
    round past the letters read, one byte per letter up to 256 letters.
    """

    def __init__(self, substitution: Substitution, seed_letter: int):
        k = substitution.alphabet.size
        if not 0 <= seed_letter < k:
            raise ValueError("seed letter out of range")
        # sigma^power(seed) begins with the seed and is longer, so _grow_to
        # gains letters every round
        power = seed_power(substitution, seed_letter)
        if power is None:
            raise NoSeedFound(f"letter index {seed_letter} seeds no growing fixed point")
        self.substitution = substitution
        self.seed_letter = seed_letter
        self.power = power
        # source 0: the buffer is the seed itself, the one state that is no image
        self._state = (_frozen(np.array([seed_letter], dtype=letter_dtype(k))), 0)

    def _grow_to(self, n: int) -> np.ndarray:
        buffer, source = self._state
        while len(buffer) < n:
            tail = buffer[source:]
            for _ in range(self.power):
                tail = self.substitution.apply_indices(tail)
            # sigma^power(buffer) = sigma^power(buffer[:source]) + sigma^power(tail),
            # and the first part is the buffer itself, or nothing in the seed state
            buffer, source = _frozen(np.concatenate((buffer, tail)) if source else tail), len(buffer)
            self._state = (buffer, source)
        return buffer

    def __len__(self):
        return len(self._state[0])

    def _letters(self, start: int, stop: int) -> np.ndarray:
        # every public reader comes here and none calls another, so a wrapper
        # that counts growth per call (perfbench's tracer) counts it once
        if start < 0 or stop < start:
            raise ValueError(f"letter range [{start}, {stop}) needs 0 <= start <= stop")
        return self._grow_to(stop)[start:stop]

    def prefix(self, n: int) -> Word:
        return _trusted(Word, alphabet=self.substitution.alphabet, indices=tuple(self._letters(0, n).tolist()))

    def prefix_indices(self, n: int) -> np.ndarray:
        return self._letters(0, n)

    def indices_range(self, start: int, stop: int) -> np.ndarray:
        return self._letters(start, stop)


def stream_for(substitution: Substitution) -> InfiniteWordStream:
    """Stream of the canonical fixed point chosen by find_fixed_point_seed."""
    seed, _ = find_fixed_point_seed(substitution)
    return InfiniteWordStream(substitution, seed)


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
    rules = {name: img.to_json() for name, img in zip(substitution.alphabet, substitution.images)}
    return {"alphabet": list(substitution.alphabet.letters), "rules": rules}


def save_substitution(substitution: Substitution, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(substitution_to_dict(substitution), handle, indent=2, sort_keys=False)
        handle.write("\n")
