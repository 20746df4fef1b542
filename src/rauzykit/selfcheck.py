"""Built-in verification suite over classical worked examples.

Five fixed substitution pairs with known balanced-pair systems, exact
characteristic polynomial identities, fixed-point prefixes, grid-level
symmetry estimates, and the classification of a char poly whose largest
root is a double root.  Everything here is embedded; no files are read.
These checks are the only ones written for the worked examples:
`rauzykit selftest` runs every group of CHECK_GROUPS, and the acceptance
tests run each group as one pytest case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .algebra import IntPolynomial, classify_pisot
from .bpa import (
    NotFound,
    PairSubstitution,
    pair_incidence,
    reciprocal_factor_report,
    run_bpa,
    verify_common_points,
)
from .fractal import (
    grid_intersection_estimate,
    hausdorff_distance,
    negate_cells,
    rauzy_cloud,
    reflect_cloud,
)
from .spectral import projection_operator, spectral_split
from .words import Substitution, incidence_matrix, reverse_substitution, stream_for, substitution_to_dict


# ---------------------------------------------------------------------------
# fixtures


def interval_pair() -> tuple[Substitution, Substitution]:
    """Two-letter pair whose fractals are intervals."""
    first = Substitution.from_rules(["a", "b"], {"a": "aba", "b": "ab"})
    second = Substitution.from_rules(["a", "b"], {"a": "aba", "b": "ba"})
    return first, second


def family_substitution(i: int) -> Substitution:
    """Three-letter family a -> a^i b, b -> a^i c, c -> a; i = 1 is tribonacci."""
    if i < 1:
        raise ValueError("family parameter must be >= 1")
    return Substitution.from_rules(
        ["a", "b", "c"], {"a": "a" * i + "b", "b": "a" * i + "c", "c": "a"}
    )


def flipped_tribonacci() -> Substitution:
    return Substitution.from_rules(["a", "b", "c"], {"a": "ab", "b": "ca", "c": "a"})


def nonpalindromic_pair() -> tuple[Substitution, Substitution]:
    """Two-letter pair whose pair substitution has no palindromic images."""
    first = Substitution.from_rules(["a", "b"], {"a": "aabbaabab", "b": "ab"})
    return first, reverse_substitution(first)


def no_balanced_prefix_substitution() -> Substitution:
    """Three-letter substitution conjectured to admit no initial balanced pair
    against its reverse."""
    return Substitution.from_rules(["a", "b", "c"], {"a": "abc", "b": "a", "c": "ac"})


def doubled_fibonacci_plastic() -> Substitution:
    """Two copies of Fibonacci beside the plastic-number substitution: char
    poly (x^2 - x - 1)^2 (x^3 - x - 1), whose largest root is a double root."""
    return Substitution.from_rules(
        list("abcdefg"),
        {"a": "ab", "b": "a", "c": "cd", "d": "c", "e": "f", "f": "g", "g": "ef"},
    )


# expected outcomes, hand-derived and machine-cross-checked

INTERVAL_PAIRS = {"A": ("a", "a"), "B": ("b", "b"), "C": ("ab", "ba")}
INTERVAL_RULES = {"A": "ABA", "B": "C", "C": "CAC"}
INTERVAL_CHARPOLY_FACTORS = ((1, -3, 1), (-1, 1))  # (x^2-3x+1)(x-1)

FAMILY_I1_RULES = {"A": "B", "B": "C", "C": "ADAEADA", "D": "F", "E": "A", "F": "ADA"}

FLIPPED_RULES = {
    "A": "B", "B": "ACA", "C": "D", "D": "E", "E": "AFA",
    "F": "DGHGD", "G": "I", "H": "JKJ", "I": "J", "J": "ALA",
    "K": "AMAMA", "L": "DGD", "M": "N", "N": "AOA", "O": "AMAMAMA",
}
FLIPPED_PAIRS = {
    "A": ("a", "a"), "B": ("ab", "ba"), "C": ("bc", "cb"), "D": ("caa", "aac"),
    "E": ("aabab", "babaa"), "F": ("babcaabc", "cbaacbab"), "G": ("b", "b"),
    "H": ("caaaba", "abaaac"), "I": ("ca", "ac"), "J": ("aab", "baa"),
    "K": ("ababc", "cbaba"), "L": ("babc", "cbab"), "M": ("bca", "acb"),
    "N": ("caaab", "baaac"), "O": ("abababc", "cbababa"),
}
FLIPPED_CHARPOLY_FACTORS = (
    (-1, 1), (1, 1), (1, -1, 1), (-1, -1, -1, 1), (-1, 1, 1, 1), (1, -3, -2, 0, 1, 1),
)

# the five pairs of the nonpalindromic example, in a commonly tabulated order
NONPALINDROMIC_LISTED_PAIRS = [
    ("aabb", "baba"), ("abab", "bbaa"), ("aab", "baa"),
    ("abaabb", "bbaaba"), ("aabab", "babaa"),
]
NONPALINDROMIC_LISTED_RULES = {
    "A": "ACDEB", "B": "AEDCB", "C": "ACDCB", "D": "AEDCDEB", "E": "ACDEDCB",
}
# The same five pairs in the order run_bpa discovers them.  The image of the
# seed pair splits as aabb.aab.abaabb.aabab.abab, so a FIFO left-to-right pass
# must name (abab, bbaa) last; the listed order is a presentation relabeling
# under which every rule reads A...B, not a discovery order.
NONPALINDROMIC_DISCOVERY_PAIRS = [
    ("aabb", "baba"), ("aab", "baa"), ("abaabb", "bbaaba"),
    ("aabab", "babaa"), ("abab", "bbaa"),
]
NONPALINDROMIC_DISCOVERY_RULES = {
    "A": "ABCDE", "B": "ABCBE", "C": "ADCBCDE", "D": "ABCDCBE", "E": "ADCBE",
}
NONPALINDROMIC_CHARPOLY = (0, 0, -1, 7, -7, 1)  # x^2 (x-1) (x^2-6x+1)

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
GOLDEN_MINIMAL_POLYNOMIAL = (-1, -1, 1)  # x^2 - x - 1

FORWARD_PREFIX_24 = "abcaacabcabcacabcaacabca"
# Derived from the fixed-point recurrence v = reverse-rules(v); a commonly
# printed value for this prefix drops the letter at index 4 and so contains
# the factor "bc", which no concatenation of cba, a, ca can produce.
REVERSE_PREFIX_24_DERIVED = "cacbacaacbacacbacbacaacb"

NO_PREFIX_CUTOFF = 10 ** 6

SYMMETRY_POINTS = 2 * 10 ** 5
COMMON_POINT_PREFIX = 10 ** 3


def family_expected_rules(i: int) -> dict[str, str]:
    ad = "AD" * i
    block = ad + "A" + "E"
    return {
        "A": "B",
        "B": "C",
        "C": block * i + ad + "A",
        "D": "F",
        "E": "AD" * (i - 1) + "A",
        "F": block * (i - 1) + ad + "A",
    }


def family_expected_pairs(i: int) -> dict[str, tuple[str, str]]:
    ab, ba = "a" * i + "b", "b" + "a" * i
    return {
        "A": ("a", "a"),
        "B": (ab, ba),
        "C": (ab * i + "a" * i + "c", "c" + "a" * i + ba * i),
        "D": ("a" * (i - 1) + "b", "b" + "a" * (i - 1)),
        "E": ("a" * (i - 1) + "c", "c" + "a" * (i - 1)),
        "F": (ab * (i - 1) + "a" * i + "c", "c" + "a" * i + ba * (i - 1)),
    }


def family_charpoly(i: int) -> IntPolynomial:
    return IntPolynomial((-1, -i, -i, 1)) * IntPolynomial((-1, i, i, 1))


def _poly_product(factor_coeffs) -> IntPolynomial:
    out = IntPolynomial((1,))
    for coeffs in factor_coeffs:
        out = out * IntPolynomial(coeffs)
    return out


def _pair_contents(pair_sub) -> dict[str, tuple[str, str]]:
    return {
        pair_sub.name(i): (str(pair_sub.pairs[i].top), str(pair_sub.pairs[i].bottom))
        for i in range(pair_sub.size)
    }


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), detail)


def _pair_system(group: str, first: Substitution, second: Substitution):
    """run_bpa(first, second) when it finds a pair substitution; otherwise
    yields a failing check and returns None, so that the group reports the
    result instead of reading pairs it does not have.  Use as
    ``ps = yield from _pair_system(...)``."""
    result = run_bpa(first, second)
    if isinstance(result, PairSubstitution):
        return result
    yield _check(f"{group}: run_bpa finds a pair substitution", False, str(result))
    return None


def _interval_checks() -> Iterator[CheckResult]:
    first, second = interval_pair()
    ps = yield from _pair_system("interval", first, second)
    if ps is None:
        return
    yield _check(
        "interval: three pairs with the expected contents",
        ps.pair_alphabet.letters == tuple(INTERVAL_PAIRS) and _pair_contents(ps) == INTERVAL_PAIRS,
        str(_pair_contents(ps)),
    )
    rules = substitution_to_dict(ps.substitution)["rules"]
    yield _check("interval: rule table", rules == INTERVAL_RULES, str(rules))
    expect = _poly_product(INTERVAL_CHARPOLY_FACTORS)
    got = pair_incidence(ps).char_polynomial
    yield _check("interval: characteristic polynomial (exact)", got == expect, str(got))
    rep = reciprocal_factor_report(first, ps)
    yield _check(
        "interval: factor x^2 - 3x + 1 is self-reciprocal and divides",
        rep.p == IntPolynomial(INTERVAL_CHARPOLY_FACTORS[0])
        and rep.p_equals_q
        and rep.p_divides
        and rep.q_divides,
        str(rep.p),
    )


def _family_checks() -> Iterator[CheckResult]:
    for i in (1, 2, 3, 4):
        first = family_substitution(i)
        ps = yield from _pair_system(f"family i={i}", first, reverse_substitution(first))
        if ps is None:
            continue
        rules = substitution_to_dict(ps.substitution)["rules"]
        ok_size = ps.size == 6
        ok_pairs = _pair_contents(ps) == family_expected_pairs(i)
        ok_rules = rules == family_expected_rules(i)
        got = pair_incidence(ps).char_polynomial
        ok_poly = got == family_charpoly(i)
        yield _check(
            f"family i={i}: six pairs, expected table, exact polynomial",
            ok_size and ok_pairs and ok_rules and ok_poly,
            str(rules),
        )
        if i == 1:
            yield _check(
                "family i=1: independently derived rule table",
                rules == FAMILY_I1_RULES,
                str(rules),
            )
            rep = reciprocal_factor_report(first, ps)
            yield _check(
                "family i=1: polynomial and reciprocal both divide",
                rep.p_divides and rep.q_divides and not rep.p_equals_q,
            )


def _flipped_checks() -> Iterator[CheckResult]:
    first = flipped_tribonacci()
    ps = yield from _pair_system("flipped", first, reverse_substitution(first))
    if ps is None:
        return
    yield _check("flipped: fifteen pairs", ps.size == 15, str(ps.size))
    rules = substitution_to_dict(ps.substitution)["rules"]
    yield _check("flipped: rule table", rules == FLIPPED_RULES, str(rules))
    yield _check(
        "flipped: pair contents", _pair_contents(ps) == FLIPPED_PAIRS, str(_pair_contents(ps))
    )
    got = pair_incidence(ps).char_polynomial
    yield _check(
        "flipped: characteristic polynomial (exact)",
        got == _poly_product(FLIPPED_CHARPOLY_FACTORS),
        str(got),
    )
    rep = reciprocal_factor_report(first, ps)
    yield _check(
        "flipped: polynomial and reciprocal both divide",
        rep.p_divides and rep.q_divides and not rep.p_equals_q,
    )


def _nonpalindromic_checks() -> Iterator[CheckResult]:
    first, second = nonpalindromic_pair()
    ps = yield from _pair_system("nonpalindromic", first, second)
    if ps is None:
        return
    found = [(str(pair.top), str(pair.bottom)) for pair in ps.pairs]
    rules = substitution_to_dict(ps.substitution)["rules"]
    yield _check(
        "nonpalindromic: the five known pairs are found",
        ps.size == 5 and set(found) == set(NONPALINDROMIC_LISTED_PAIRS),
        str(sorted(found)),
    )
    yield _check(
        "nonpalindromic: pairs and rules in FIFO left-to-right discovery order",
        found == NONPALINDROMIC_DISCOVERY_PAIRS
        and rules == NONPALINDROMIC_DISCOVERY_RULES,
        f"{found} {rules}",
    )
    # compare rule systems under the content-based relabeling A..E of the listed order
    listed_names = {
        contents: chr(ord("A") + rank) for rank, contents in enumerate(NONPALINDROMIC_LISTED_PAIRS)
    }
    rename = {ps.name(i): listed_names.get(contents, "?") for i, contents in enumerate(found)}
    relabeled = {
        rename[name]: "".join(rename[ch] for ch in word)
        for name, word in rules.items()
    }
    yield _check(
        "nonpalindromic: rule system matches under content relabeling",
        relabeled == NONPALINDROMIC_LISTED_RULES,
        str(relabeled),
    )
    got = pair_incidence(ps).char_polynomial
    yield _check(
        "nonpalindromic: characteristic polynomial (exact)",
        got.coeffs == NONPALINDROMIC_CHARPOLY,
        str(got),
    )
    yield _check(
        "nonpalindromic: no rule image is a palindrome",
        all(rule != rule[::-1] for rule in ps.rules),
    )


def _no_prefix_checks() -> Iterator[CheckResult]:
    first = no_balanced_prefix_substitution()
    second = reverse_substitution(first)
    forward = stream_for(first)
    backward = stream_for(second)
    yield _check(
        "no-balanced-prefix: forward fixed-point prefix",
        str(forward.prefix(24)) == FORWARD_PREFIX_24,
        str(forward.prefix(24)),
    )
    yield _check(
        "no-balanced-prefix: reverse fixed-point prefix (derived)",
        str(backward.prefix(24)) == REVERSE_PREFIX_24_DERIVED,
        str(backward.prefix(24)),
    )
    result = run_bpa(first, second)
    yield _check(
        f"no-balanced-prefix: no initial pair within {NO_PREFIX_CUTOFF}",
        isinstance(result, NotFound) and result.cutoff == NO_PREFIX_CUTOFF,
        str(result),
    )


def _symmetry_checks() -> Iterator[CheckResult]:
    # Tribonacci is conjugate to its reverse, so its Omega is itself
    # centrally symmetric up to translation; flipped tribonacci's is not, so
    # only there is the symmetry of the intersection a finding.
    cases = (("tribonacci", family_substitution(1)), ("flipped tribonacci", flipped_tribonacci()))
    for name, first in cases:
        second = reverse_substitution(first)
        op = projection_operator(spectral_split(incidence_matrix(first)))
        cloud = rauzy_cloud(first, SYMMETRY_POINTS, op)
        cloud_rev = rauzy_cloud(second, SYMMETRY_POINTS, op)
        eps = 0.02 * cloud.diameter()
        h = hausdorff_distance(cloud_rev, reflect_cloud(cloud), eps)
        yield _check(
            f"symmetry: {name} reflected cloud within 3 cells of the reverse cloud",
            h <= 3 * eps,
            f"hausdorff {h:.5f} vs 3*eps {3 * eps:.5f}",
        )
        inter = grid_intersection_estimate(cloud, cloud_rev, eps)
        count = len(inter.cells)
        sym_frac = len(inter.cells ^ negate_cells(inter.cells)) / count if count else 1.0
        yield _check(
            f"symmetry: {name} intersection grid is nonempty and centrally symmetric",
            count > 0 and sym_frac <= 0.05,
            f"{count} cells, symmetric difference {sym_frac:.3%}",
        )


def _common_point_checks() -> Iterator[CheckResult]:
    cases: list[tuple[str, Substitution, Substitution]] = []
    first, second = interval_pair()
    cases.append(("interval", first, second))
    for i in (1, 2):
        fam = family_substitution(i)
        cases.append((f"family i={i}", fam, reverse_substitution(fam)))
    for name, first, second in cases:
        ps = yield from _pair_system(f"common points: {name}", first, second)
        if ps is None:
            continue
        res = verify_common_points(ps, first, second, COMMON_POINT_PREFIX)
        yield _check(
            f"common points: {name} exact lattice membership",
            res.ok,
            f"first failure at {res.first_failure}" if not res.ok else f"{res.checked} checked",
        )


def _classification_checks() -> Iterator[CheckResult]:
    rep = classify_pisot(doubled_fibonacci_plastic())
    yield _check(
        "classification: doubled Fibonacci beside plastic, Perron root (1+sqrt5)/2",
        abs(rep.perron_root - GOLDEN_RATIO) <= 1e-12 * GOLDEN_RATIO,
        repr(rep.perron_root),
    )
    yield _check(
        "classification: doubled Fibonacci beside plastic, minimal polynomial x^2 - x - 1",
        rep.minimal_polynomial.coeffs == GOLDEN_MINIMAL_POLYNOMIAL,
        str(rep.minimal_polynomial),
    )


# The one place the worked examples are checked: `rauzykit selftest` runs
# every group, and the pytest suite runs each group as one case.
CHECK_GROUPS: dict[str, Callable[[], Iterator[CheckResult]]] = {
    "interval": _interval_checks,
    "family": _family_checks,
    "flipped": _flipped_checks,
    "nonpalindromic": _nonpalindromic_checks,
    "no-balanced-prefix": _no_prefix_checks,
    "symmetry": _symmetry_checks,
    "common-points": _common_point_checks,
    "classification": _classification_checks,
}


def run_all_checks() -> list[CheckResult]:
    """Every group's checks; a group that raises keeps the checks it gave
    before, adds one failing check naming the exception and the line that
    raised it, and the other groups still run."""
    results: list[CheckResult] = []
    for name, group in CHECK_GROUPS.items():
        try:
            results.extend(group())  # keeps what the group gave before it raised
        except Exception as exc:
            import traceback  # only on failure, so it stays off cli's import path

            where = traceback.extract_tb(exc.__traceback__)[-1]
            results.append(
                _check(
                    f"{name}: raised {type(exc).__name__}: {exc}",
                    False,
                    f"at {where.filename}:{where.lineno} in {where.name}",
                )
            )
    return results
