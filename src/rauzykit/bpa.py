"""Balanced pairs, their minimal decomposition, and the intersection substitution.

Two substitutions with equal incidence matrices act on pairs of words
(top under the first, bottom under the second).  Starting from the first
balanced prefix pair of their fixed points, iterated image-and-split
generates a finite pair alphabet and a substitution on it whose projected
broken line runs through exactly the common points of the two parent
broken lines (Sirvent, Bull. Belg. Math. Soc. 7, 2000).

BalancedPair(...) checks its words.  Inside this module a pair is its
letter-pair codes top * k + bottom (_codes): run_bpa keeps the code bytes
of the pairs it finds end to end in one store, keyed by those bytes, takes
the images of a batch of queued pairs at once and splits them with one
imbalance pass, checking each image's balance on that pass's rows.
BalancedPair and Word objects (built with words._trusted, since they are
balanced by construction) are made only for the pairs returned.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    is_primitive,
    poly_divides,
    positive_leading,
    reciprocal_poly,
)
from .errors import MatrixMismatch, NotBalanced, NotPrimitive
from .fractal import LabeledPointCloud, _walk_cloud
from .spectral import ProjectionOperator
from .words import (
    Alphabet,
    InfiniteWordStream,
    Substitution,
    Word,
    _frozen,
    _trusted,
    abelianization,
    incidence_matrix,
    letter_dtype,
    prefix_counts,
    stream_for,
    substitution_to_dict,
)


@dataclass(frozen=True)
class BalancedPair:
    """Two words of equal length and equal letter counts."""

    top: Word
    bottom: Word

    def __post_init__(self):
        if self.top.alphabet != self.bottom.alphabet:
            raise NotBalanced("pair members must share an alphabet")
        if len(self.top) == 0:
            raise NotBalanced("pair members must be nonempty")
        if len(self.top) != len(self.bottom):
            raise NotBalanced("pair members must have equal length")
        if abelianization(self.top) != abelianization(self.bottom):
            raise NotBalanced("pair members must have equal letter counts")

    @property
    def length(self) -> int:
        return len(self.top)

    def __str__(self):
        return f"({self.top}/{self.bottom})"

    def to_dict(self) -> dict:
        """The pair's JSON form, written alike by complete and limit-hit reports."""
        return {"top": self.top.to_json(), "bottom": self.bottom.to_json()}


def _codes(top, bottom, k: int) -> np.ndarray:
    """Letter-pair codes top * k + bottom, in letter_dtype(k * k) whatever
    the dtype of the letters: one byte per code up to k = 16, two up to 256."""
    dtype = letter_dtype(k * k)
    return np.asarray(top, dtype=dtype) * k + np.asarray(bottom, dtype=dtype)


def _imbalance(codes, k: int, carry=None) -> np.ndarray:
    """Running letter counts of top minus bottom, row m after m + 1 letters,
    starting from the imbalance carry (zero when None).

    A row is zero exactly where the two prefixes balance.  One prefix_counts
    pass over the letter-pair codes, weighted by the k^2-row table whose row
    a * k + b is e_a - e_b.
    """
    eye = np.eye(k, dtype=np.int64)
    table = (eye[:, None, :] - eye[None, :, :]).reshape(k * k, k)
    return prefix_counts(codes, table, carry)


def _cuts(codes, k: int, ends) -> list[int]:
    """Ends of the minimal balanced factors of balanced pairs laid end to end.

    codes are the pairs' letter-pair codes, concatenated; ends lists where
    each pair ends.  The running imbalance returns to zero at every pair's
    end, so its zero rows are all the cut points, ascending.  NotBalanced
    when the row at one of the ends is not zero.
    """
    unbalanced = _imbalance(codes, k).any(axis=1)
    if unbalanced[np.asarray(ends) - 1].any():
        raise NotBalanced("pair members must have equal letter counts")
    return (np.flatnonzero(~unbalanced) + 1).tolist()


def _balanced_pairs(codes: np.ndarray, ends, alphabet: Alphabet) -> tuple[BalancedPair, ...]:
    """The pairs whose codes lie end to end in codes, pair i at
    codes[ends[i]:ends[i + 1]], as BalancedPair objects whose words' arrays
    are read-only views of one copy of the letters, in letter_dtype(k)."""
    letters = np.array(np.divmod(codes, alphabet.size), dtype=letter_dtype(alphabet.size))
    tops, bottoms = _frozen(letters)

    def word(row: np.ndarray) -> Word:
        return _trusted(Word, alphabet=alphabet, indices=tuple(row.tolist()), array=row)

    return tuple(
        _trusted(BalancedPair, top=word(tops[a:b]), bottom=word(bottoms[a:b]))
        for a, b in zip(ends, ends[1:])
    )


def minimal_split(pair: BalancedPair) -> list[BalancedPair]:
    """Split at every index where the prefix counts agree.

    Consecutive factors between balance points are minimal balanced pairs;
    their concatenation reproduces the input in order.  The input's balance
    is checked once, on the last imbalance row (NotBalanced when it is not
    zero); the factors are balanced by construction and not recounted.
    """
    alphabet = pair.top.alphabet
    n = len(pair.top)
    if n != len(pair.bottom) or not n:
        raise NotBalanced("pair members must be nonempty and of equal length")
    codes = _codes(pair.top.array, pair.bottom.array, alphabet.size)
    return list(_balanced_pairs(codes, [0, *_cuts(codes, alphabet.size, [n])], alphabet))


@dataclass(frozen=True)
class NotFound:
    """No balanced prefix pair up to the cutoff."""

    cutoff: int


def first_minimal_balanced_pair(
    top_stream: InfiniteWordStream, bottom_stream: InfiniteWordStream, cutoff: int
):
    """Shortest pair of equal-count prefixes of the two fixed points.

    Minimal by construction (it is the first balance point).  Returns
    NotFound(cutoff) when no prefix pair balances within the cutoff;
    MatrixMismatch refuses streams over two alphabets.
    """
    alphabet = top_stream.substitution.alphabet
    if alphabet != bottom_stream.substitution.alphabet:
        raise MatrixMismatch("the substitutions have different alphabets (letters or their order)")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    k = alphabet.size
    carry = np.zeros(k, dtype=np.int64)  # top minus bottom counts before the block, where its sums start
    start = 0
    block = 1024
    while start < cutoff:
        stop = min(cutoff, start + block)
        codes = _codes(top_stream.indices_range(start, stop), bottom_stream.indices_range(start, stop), k)
        imbalance = _imbalance(codes, k, carry)
        balanced = ~imbalance.any(axis=1)
        if balanced.any():
            m = start + int(np.argmax(balanced)) + 1
            return _trusted(BalancedPair, top=top_stream.prefix(m), bottom=bottom_stream.prefix(m))
        carry = imbalance[-1].copy()
        del imbalance, balanced  # free this block's rows before the next block's are made
        start = stop
        block = min(block * 4, 1 << 18)
    return NotFound(cutoff)


@dataclass(frozen=True)
class BpaLimits:
    """Termination safeguards; the algorithm is not guaranteed to halt."""

    prefix_cutoff: int = 10 ** 6
    max_pairs: int = 10 ** 4
    max_pair_length: int = 10 ** 5

    def __post_init__(self):
        if min(self.prefix_cutoff, self.max_pairs, self.max_pair_length) < 1:
            raise ValueError("limits must be positive")


def pair_letter_name(i: int) -> str:
    """A, B, ..., Z, AA, AB, ... in discovery order."""
    name = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        name = chr(ord("A") + r) + name
    return name


@dataclass(frozen=True)
class PairSubstitution:
    """The intersection substitution on the discovered minimal balanced pairs.

    rules[i] lists pair indices whose concatenated contents reproduce the
    image of pair i under (first, second).  The pair Substitution, the
    letter images and the pair incidence (read it with pair_incidence) are
    each built once per object, on first use.
    """

    pair_alphabet: Alphabet
    pairs: tuple[BalancedPair, ...]
    rules: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    @cached_property
    def substitution(self) -> Substitution:
        """The substitution on the pair alphabet given by the rules."""
        images = tuple(Word(self.pair_alphabet, rule) for rule in self.rules)
        return Substitution(self.pair_alphabet, images)

    @cached_property
    def letter_images(self) -> np.ndarray:
        """(m, k) int64, read-only: row i counts each base letter in pair i's top word."""
        return _frozen(np.array([abelianization(pair.top) for pair in self.pairs], dtype=np.int64))

    @cached_property
    def _incidence(self) -> PairIncidence:
        m = incidence_matrix(self.substitution)
        return PairIncidence(m, char_poly(m))

    def name(self, i: int) -> str:
        return self.pair_alphabet[i]

    def to_dict(self) -> dict:
        data = substitution_to_dict(self.substitution)
        data["pairs"] = {self.name(i): pair.to_dict() for i, pair in enumerate(self.pairs)}
        return data


@dataclass(frozen=True)
class NonTermination:
    """Partial state returned when a run exceeds one of its limits."""

    limit: str
    limit_value: int
    pairs: tuple[BalancedPair, ...]
    names: tuple[str, ...]
    completed_rules: dict[int, tuple[int, ...]]
    detail: str


#: Top letters the worklist takes images of at once: whole queued pairs
#: until their tops reach this many letters, and always at least one pair.
#: Measured on the run_bpa calls of the bpa benchmark workload (seeds 1 and
#: 2, median of 7 passes, 2 CPUs), the runs that stop at a limit took
#: 0.23 s pair by pair with a Word per image, 0.14-0.16 s with one pair per
#: batch, and 0.10-0.13 s at every budget from 2^10 to 2^16 letters, with
#: no clear order among those.  2^14 keeps a batch's temporaries at a few MB.
_BATCH_LETTERS = 1 << 14


def run_bpa(first: Substitution, second: Substitution, limits: BpaLimits = BpaLimits()):
    """Run the balanced pair algorithm for two substitutions with one
    alphabet, letters in the same order, and equal incidence matrices;
    MatrixMismatch refuses any other two.

    FIFO worklist seeded with the first balanced prefix pair of the two
    fixed points; each pair maps to (first(top), second(bottom)), which is
    decomposed at its balance points.  New pairs are named left to right in
    discovery order.  Returns a PairSubstitution on success, NotFound when
    no initial pair exists within the cutoff, or NonTermination when a
    limit is hit.

    The queue always holds the pairs from the next one to the last one
    found, in order, so it is worked off in batches of consecutive pairs
    (_BATCH_LETTERS).  A batch's images are gathered with one apply_indices
    call per side and split by one imbalance pass (_cuts), which also
    checks that each image is balanced.  Equal incidence matrices give
    every letter images of equal lengths, so a pair's two images end at the
    same place.  Its factors are then registered one by one, left to right,
    keyed by their code bytes, which a new pair appends to the store of the
    pairs found, so a limit stops the run at the same factor as
    pair-by-pair processing.
    """
    m1 = incidence_matrix(first)
    m2 = incidence_matrix(second)
    if m1 != m2:
        raise MatrixMismatch("the substitutions have different incidence matrices")
    if first.alphabet != second.alphabet:
        raise MatrixMismatch("the substitutions have different alphabets (letters or their order)")
    if not is_primitive(m1):
        raise NotPrimitive("the balanced pair algorithm needs primitive substitutions")

    top_stream = stream_for(first)
    bottom_stream = stream_for(second)
    seed = first_minimal_balanced_pair(top_stream, bottom_stream, limits.prefix_cutoff)
    if isinstance(seed, NotFound):
        return seed

    alphabet = first.alphabet
    k = alphabet.size
    seed_codes = _codes(seed.top.array, seed.bottom.array, k)
    width = seed_codes.itemsize  # bytes per code
    found = bytearray(seed_codes.tobytes())  # the store: every pair's codes, end to end
    ends = [0, len(seed_codes)]  # pair i is codes ends[i]:ends[i + 1] of found
    registry = {bytes(found): 0}
    rules: dict[int, tuple[int, ...]] = {}
    image_lengths = np.array([len(image) for image in first.images], dtype=np.int64)

    def pairs() -> tuple[BalancedPair, ...]:
        return _balanced_pairs(np.frombuffer(found, seed_codes.dtype), ends, alphabet)

    def partial(limit: str, value: int, detail: str) -> NonTermination:
        return NonTermination(
            limit=limit,
            limit_value=value,
            pairs=pairs(),
            names=tuple(pair_letter_name(i) for i in range(len(registry))),
            completed_rules=dict(rules),
            detail=detail,
        )

    i = 0  # the next queued pair
    while i < len(registry):
        start = ends[i]
        batch_stop = bisect_left(ends, start + _BATCH_LETTERS, i + 1, len(registry))
        # from a copy: a view of found would stop it from growing
        codes = np.frombuffer(found[start * width : ends[batch_stop] * width], seed_codes.dtype)
        tops, bottoms = np.divmod(codes, k)
        image_ends = np.cumsum(image_lengths[tops])[np.array(ends[i + 1 : batch_stop + 1]) - start - 1]
        image_codes = _codes(first.apply_indices(tops), second.apply_indices(bottoms), k)
        cuts = _cuts(image_codes, k, image_ends)
        image_bytes = image_codes.tobytes()

        pair_ends = iter(image_ends.tolist())
        pair_end = next(pair_ends)
        rule: list[int] = []
        begin = 0
        for stop in cuts:
            key = image_bytes[begin * width : stop * width]
            idx = registry.get(key)
            if idx is None:
                if stop - begin > limits.max_pair_length:
                    return partial(
                        "max_pair_length",
                        limits.max_pair_length,
                        f"minimal pair of length {stop - begin} exceeds the cap",
                    )
                if len(registry) >= limits.max_pairs:
                    return partial(
                        "max_pairs",
                        limits.max_pairs,
                        f"more than {limits.max_pairs} distinct minimal pairs",
                    )
                idx = len(registry)
                registry[key] = idx
                found += key
                ends.append(ends[-1] + stop - begin)
            rule.append(idx)
            begin = stop
            if stop == pair_end:
                rules[i] = tuple(rule)
                rule = []
                i += 1
                pair_end = next(pair_ends, None)

    names = tuple(pair_letter_name(i) for i in range(len(registry)))
    return PairSubstitution(
        pair_alphabet=Alphabet(names),
        pairs=pairs(),
        rules=tuple(rules[i] for i in range(len(registry))),
    )


@dataclass(frozen=True)
class PairIncidence:
    matrix: IntMatrix
    char_polynomial: IntPolynomial


def pair_incidence(pair_sub: PairSubstitution) -> PairIncidence:
    """Incidence matrix over the pair alphabet and its exact characteristic polynomial."""
    return pair_sub._incidence


@dataclass(frozen=True)
class ReciprocalFactorReport:
    """Divisibility of a substitution's characteristic polynomial and its
    reciprocal in the pair system's characteristic polynomial."""

    p: IntPolynomial
    q: IntPolynomial
    p_divides: bool
    q_divides: bool
    p_equals_q: bool

    def to_dict(self) -> dict:
        return {
            "p": {"coeffs": list(self.p.coeffs), "text": str(self.p)},
            "q": {"coeffs": list(self.q.coeffs), "text": str(self.q)},
            "p_divides": self.p_divides,
            "q_divides": self.q_divides,
            "p_equals_q": self.p_equals_q,
        }


def reciprocal_factor_report(
    substitution: Substitution, pair_sub: PairSubstitution
) -> ReciprocalFactorReport:
    p = positive_leading(char_poly(incidence_matrix(substitution)))
    q = positive_leading(reciprocal_poly(p))
    big = pair_incidence(pair_sub).char_polynomial
    return ReciprocalFactorReport(
        p=p,
        q=q,
        p_divides=poly_divides(p, big),
        q_divides=poly_divides(q, big),
        p_equals_q=p == q,
    )


def intersection_cloud(
    pair_sub: PairSubstitution, op: ProjectionOperator, n: int
) -> LabeledPointCloud:
    """Projected cumulative letter-image sums along the pair fixed point,
    labeled by pair letters: rauzy_cloud's walk and checks, stepping by each
    pair's top-word counts; op is built for the parents' incidence matrix."""
    return _walk_cloud(pair_sub.substitution, pair_sub.letter_images, op, n)


@dataclass(frozen=True)
class CommonPointsResult:
    ok: bool
    first_failure: int | None
    checked: int


def verify_common_points(
    pair_sub: PairSubstitution, first: Substitution, second: Substitution, n: int
) -> CommonPointsResult:
    """Exact integer test that the pair system walks common broken-line points.

    The cumulative top-count sums over the pair fixed-point prefix must
    occur among the prefix count sequences of both parent fixed points at
    strictly increasing indices; the parent streams are seeded at the first
    letters of the seed pair so all three fixed points line up.
    """
    if n < 1:
        raise ValueError("need at least one prefix letter")
    stream = stream_for(pair_sub.substitution)
    prefix = stream.prefix_indices(n)
    targets = prefix_counts(prefix, pair_sub.letter_images)
    checkpoints = targets.sum(axis=1)  # parent prefix length at each pair-prefix end

    seed_pair = pair_sub.pairs[stream.seed_letter]
    failure = None
    for substitution, start_letter in (
        (first, seed_pair.top.indices[0]),
        (second, seed_pair.bottom.indices[0]),
    ):
        parent = InfiniteWordStream(substitution, start_letter)
        eye = np.eye(substitution.alphabet.size, dtype=np.int64)
        counts = prefix_counts(parent.prefix_indices(int(checkpoints[-1])), eye)
        achieved = counts[checkpoints - 1]
        matches = (achieved == targets).all(axis=1)
        if not matches.all():
            idx = int(np.argmin(matches))
            failure = idx if failure is None else min(failure, idx)
    return CommonPointsResult(ok=failure is None, first_failure=failure, checked=n)
