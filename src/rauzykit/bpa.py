"""Balanced pairs, their minimal decomposition, and the intersection substitution.

Two substitutions with equal incidence matrices act on pairs of words
(top under the first, bottom under the second).  Starting from the first
balanced prefix pair of their fixed points, iterated image-and-split
generates a finite pair alphabet and a substitution on it whose projected
broken line runs through exactly the common points of the two parent
broken lines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
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
from .errors import MatrixMismatch, NoSeedFound, NotBalanced, NotPrimitive
from .fractal import CloudMeta, LabeledPointCloud, chart_id_of, letter_labels
from .spectral import ProjectionOperator
from .words import (
    SEED_POWER_LIMIT,
    Alphabet,
    InfiniteWordStream,
    Substitution,
    Word,
    abelianization,
    incidence_matrix,
    prefix_counts,
    seed_power,
    stream_for,
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

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.top.indices, self.bottom.indices)

    def __str__(self):
        return f"({self.top}/{self.bottom})"


def minimal_split(pair: BalancedPair) -> list[BalancedPair]:
    """Split at every index where the prefix counts agree.

    Consecutive factors between balance points are minimal balanced pairs;
    their concatenation reproduces the input in order.
    """
    eye = np.eye(pair.top.alphabet.size, dtype=np.int64)
    top, bottom = pair.top.indices, pair.bottom.indices
    equal = (prefix_counts(top, eye) == prefix_counts(bottom, eye)).all(axis=1)
    factors: list[BalancedPair] = []
    start = 0
    for stop in (np.flatnonzero(equal) + 1).tolist():
        factors.append(
            BalancedPair(
                Word(pair.top.alphabet, top[start:stop]),
                Word(pair.bottom.alphabet, bottom[start:stop]),
            )
        )
        start = stop
    return factors


@dataclass(frozen=True)
class NotFound:
    """No balanced prefix pair up to the cutoff."""

    cutoff: int


def first_minimal_balanced_pair(
    top_stream: InfiniteWordStream, bottom_stream: InfiniteWordStream, cutoff: int
):
    """Shortest pair of equal-count prefixes of the two fixed points.

    Minimal by construction (it is the first balance point).  Returns
    NotFound(cutoff) when no prefix pair balances within the cutoff.
    """
    alphabet = top_stream.substitution.alphabet
    if alphabet != bottom_stream.substitution.alphabet:
        raise ValueError("streams must share an alphabet")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    eye = np.eye(alphabet.size, dtype=np.int64)
    carry = np.zeros(alphabet.size, dtype=np.int64)  # top minus bottom counts before the block
    start = 0
    block = 1024
    while start < cutoff:
        stop = min(cutoff, start + block)
        top = prefix_counts(top_stream.indices_range(start, stop), eye)
        top += carry
        bottom = prefix_counts(bottom_stream.indices_range(start, stop), eye)
        balanced = (top == bottom).all(axis=1)
        if balanced.any():
            m = start + int(np.argmax(balanced)) + 1
            return BalancedPair(top_stream.prefix(m), bottom_stream.prefix(m))
        carry = top[-1] - bottom[-1]
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
    image of pair i under (first, second); letter_image(i) is the exact
    integer count vector of pair i's top word.  The pair incidence is
    computed once per object, on first use.
    """

    base_alphabet: Alphabet
    pair_alphabet: Alphabet
    pairs: tuple[BalancedPair, ...]
    rules: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    @cached_property
    def incidence(self) -> PairIncidence:
        m = incidence_matrix(self.as_substitution())
        return PairIncidence(m, char_poly(m))

    def name(self, i: int) -> str:
        return self.pair_alphabet[i]

    def rule_word(self, i: int) -> str:
        return "".join(self.pair_alphabet[j] for j in self.rules[i])

    def rule_table(self) -> dict[str, str]:
        return {self.name(i): self.rule_word(i) for i in range(self.size)}

    def letter_image(self, i: int) -> tuple[int, ...]:
        return abelianization(self.pairs[i].top)

    def letter_image_columns(self) -> tuple[tuple[int, ...], ...]:
        """k x m matrix rows: column j is the count vector of pair j's top word."""
        cols = [self.letter_image(i) for i in range(self.size)]
        k = self.base_alphabet.size
        return tuple(tuple(cols[j][i] for j in range(self.size)) for i in range(k))

    def as_substitution(self) -> Substitution:
        images = tuple(Word(self.pair_alphabet, rule) for rule in self.rules)
        return Substitution(self.pair_alphabet, images)

    def to_dict(self) -> dict:
        sub = self.as_substitution()
        single = self.base_alphabet.single_char
        pairs = {}
        for i, pair in enumerate(self.pairs):
            top, bottom = pair.top.letters(), pair.bottom.letters()
            pairs[self.name(i)] = {
                "top": "".join(top) if single else list(top),
                "bottom": "".join(bottom) if single else list(bottom),
            }
        from .words import substitution_to_dict

        data = substitution_to_dict(sub)
        data["pairs"] = pairs
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


def run_bpa(first: Substitution, second: Substitution, limits: BpaLimits = BpaLimits()):
    """Run the balanced pair algorithm for two substitutions with equal
    incidence matrices.

    FIFO worklist seeded with the first balanced prefix pair of the two
    fixed points; each pair maps to (first(top), second(bottom)), which is
    decomposed by minimal_split.  New pairs are named left to right in
    discovery order.  Returns a PairSubstitution on success, NotFound when
    no initial pair exists within the cutoff, or NonTermination when a
    limit is hit.
    """
    m1 = incidence_matrix(first)
    m2 = incidence_matrix(second)
    if m1 != m2:
        raise MatrixMismatch("the substitutions have different incidence matrices")
    if not is_primitive(m1):
        raise NotPrimitive("the balanced pair algorithm needs primitive substitutions")

    top_stream = stream_for(first)
    bottom_stream = stream_for(second)
    seed = first_minimal_balanced_pair(top_stream, bottom_stream, limits.prefix_cutoff)
    if isinstance(seed, NotFound):
        return seed

    pairs: list[BalancedPair] = [seed]
    registry = {seed.key(): 0}
    queue: deque[int] = deque([0])
    rules: dict[int, tuple[int, ...]] = {}

    def partial(limit: str, value: int, detail: str) -> NonTermination:
        return NonTermination(
            limit=limit,
            limit_value=value,
            pairs=tuple(pairs),
            names=tuple(pair_letter_name(i) for i in range(len(pairs))),
            completed_rules=dict(rules),
            detail=detail,
        )

    while queue:
        i = queue.popleft()
        pair = pairs[i]
        image = BalancedPair(first.apply(pair.top), second.apply(pair.bottom))
        rule: list[int] = []
        for factor in minimal_split(image):
            key = factor.key()
            idx = registry.get(key)
            if idx is None:
                if factor.length > limits.max_pair_length:
                    return partial(
                        "max_pair_length",
                        limits.max_pair_length,
                        f"minimal pair of length {factor.length} exceeds the cap",
                    )
                if len(pairs) >= limits.max_pairs:
                    return partial(
                        "max_pairs",
                        limits.max_pairs,
                        f"more than {limits.max_pairs} distinct minimal pairs",
                    )
                idx = len(pairs)
                registry[key] = idx
                pairs.append(factor)
                queue.append(idx)
            rule.append(idx)
        rules[i] = tuple(rule)

    names = tuple(pair_letter_name(i) for i in range(len(pairs)))
    return PairSubstitution(
        base_alphabet=first.alphabet,
        pair_alphabet=Alphabet(names),
        pairs=tuple(pairs),
        rules=tuple(rules[i] for i in range(len(pairs))),
    )


def corrupt_rule(pair_sub: PairSubstitution, rule_index: int, position: int, new_letter: int):
    """Copy with one rule letter replaced; negative-control helper for tests."""
    rules = list(pair_sub.rules)
    rule = list(rules[rule_index])
    rule[position] = new_letter
    rules[rule_index] = tuple(rule)
    return replace(pair_sub, rules=tuple(rules))


@dataclass(frozen=True)
class PairIncidence:
    matrix: IntMatrix
    char_polynomial: IntPolynomial


def pair_incidence(pair_sub: PairSubstitution) -> PairIncidence:
    """Incidence matrix over the pair alphabet and its exact characteristic polynomial."""
    return pair_sub.incidence


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


def check_incidence_homomorphism(pair_sub: PairSubstitution, first: Substitution) -> bool:
    """Exact check of H M_pairs = M_first H with H the letter-image matrix."""
    h = pair_sub.letter_image_columns()  # k rows, m cols
    mp = incidence_matrix(pair_sub.as_substitution()).rows  # m x m
    mf = incidence_matrix(first).rows  # k x k
    k, m = len(h), pair_sub.size
    left = [
        [sum(h[i][t] * mp[t][j] for t in range(m)) for j in range(m)]
        for i in range(k)
    ]
    right = [
        [sum(mf[i][t] * h[t][j] for t in range(k)) for j in range(m)]
        for i in range(k)
    ]
    return left == right


def _pair_stream(pair_sub: PairSubstitution) -> InfiniteWordStream:
    return stream_for(pair_sub.as_substitution())


def _letter_image_rows(pair_sub: PairSubstitution) -> np.ndarray:
    """Row i is the count vector of pair i's top word."""
    return np.array([pair_sub.letter_image(i) for i in range(pair_sub.size)], dtype=np.int64)


def intersection_cloud(
    pair_sub: PairSubstitution, op: ProjectionOperator, n: int
) -> LabeledPointCloud:
    """Projected cumulative letter-image sums along the pair fixed point.

    Points are labeled by pair letters; the projector is the one attached to
    the parent substitutions' common incidence matrix.
    """
    if n < 1:
        raise ValueError("need at least one point")
    stream = _pair_stream(pair_sub)
    prefix = stream.prefix_indices(n)
    coords = op.project_many(prefix_counts(prefix, _letter_image_rows(pair_sub)))
    labels = letter_labels(pair_sub.pair_alphabet.letters, prefix)
    meta = CloudMeta(
        source_id="pairs:" + pair_sub.as_substitution().rule_text(),
        chart_id=chart_id_of(op),
        n_points=n,
    )
    return LabeledPointCloud(coords, labels, np.arange(n, dtype=np.int64), meta)


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
    stream = _pair_stream(pair_sub)
    prefix = stream.prefix_indices(n)
    targets = prefix_counts(prefix, _letter_image_rows(pair_sub))
    checkpoints = targets.sum(axis=1)  # parent prefix length at each pair-prefix end

    seed_pair = pair_sub.pairs[stream.seed_letter]
    failure = None
    for substitution, start_letter in (
        (first, seed_pair.top.indices[0]),
        (second, seed_pair.bottom.indices[0]),
    ):
        power = seed_power(substitution, start_letter)
        if power is None:
            raise NoSeedFound(
                f"letter index {start_letter} seeds no growing fixed point within power {SEED_POWER_LIMIT}"
            )
        parent = InfiniteWordStream(substitution, start_letter, power)
        eye = np.eye(substitution.alphabet.size, dtype=np.int64)
        counts = prefix_counts(parent.prefix_indices(int(checkpoints[-1])), eye)
        achieved = counts[checkpoints - 1]
        matches = (achieved == targets).all(axis=1)
        if not matches.all():
            idx = int(np.argmin(matches))
            failure = idx if failure is None else min(failure, idx)
    return CommonPointsResult(ok=failure is None, first_failure=failure, checked=n)
