"""Computations made apart from rauzykit, used to check its outputs.

Everything here works on plain strings of single-character letters, Python
integers, numpy's eigendecomposition and sympy.  Nothing imports rauzykit,
and nothing compares against a stored copy of an earlier output.
"""

from __future__ import annotations

from collections import deque

import numpy as np

# ---------------------------------------------------------------------------
# words and fixed points by plain string rewriting


def rewrite(rules: dict[str, str], word: str) -> str:
    """Replace every letter by its image (str.translate does it in one pass)."""
    return word.translate({ord(a): image for a, image in rules.items()})


def incidence(letters: str, rules: dict[str, str]) -> list[list[int]]:
    """Row i, column j: occurrences of letter i in the image of letter j."""
    return [[rules[b].count(a) for b in letters] for a in letters]


def is_primitive(matrix) -> bool:
    """Some power is entrywise positive; checked at the Wielandt exponent."""
    k = len(matrix)
    b = (np.array(matrix) > 0).astype(np.int64)
    p = np.eye(k, dtype=np.int64)
    for _ in range(k * k - 2 * k + 2):
        p = ((p @ b) > 0).astype(np.int64)
    return bool(p.all())


def fixed_point_seed(letters: str, rules: dict[str, str], l_max: int = 64) -> tuple[str, int]:
    """Least power l, then first letter a, with sigma^l(a) starting with a and
    at least two letters long: the canonical fixed point rauzykit documents."""
    heads = {a: a for a in letters}  # first two letters of sigma^l(a)
    for power in range(1, l_max + 1):
        heads = {a: rewrite(rules, h)[:2] for a, h in heads.items()}
        for a in letters:
            if heads[a][0] == a and len(heads[a]) >= 2:
                return a, power
    raise ValueError("no growing fixed point")


def fixed_point_from(rules: dict[str, str], letter: str, power: int, n: int) -> str:
    word = letter
    while len(word) < n:
        for _ in range(power):
            word = rewrite(rules, word[:n])
    return word[:n]


def fixed_point(letters: str, rules: dict[str, str], n: int) -> str:
    letter, power = fixed_point_seed(letters, rules)
    return fixed_point_from(rules, letter, power, n)


def letter_power(rules: dict[str, str], letter: str, l_max: int = 64) -> int:
    """Least l with sigma^l(letter) starting with letter and at least two long."""
    head = letter
    for power in range(1, l_max + 1):
        head = rewrite(rules, head)[:2]
        if head[0] == letter and len(head) >= 2:
            return power
    raise ValueError("letter seeds no growing fixed point")


def prefix_counts(word: str, letters: str) -> np.ndarray:
    """Row m: letter counts of word[:m + 1]."""
    codes = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    return np.stack([np.cumsum(codes == ord(a)) for a in letters], axis=1)


# ---------------------------------------------------------------------------
# balanced pairs by a FIFO worklist on strings


def balance_cuts(top: str, bottom: str) -> list[int]:
    """End positions of the minimal balanced factors of a balanced pair."""
    diff: dict[str, int] = {}
    cuts = []
    for t, (a, b) in enumerate(zip(top, bottom)):
        if a != b:
            diff[a] = diff.get(a, 0) + 1
            if diff[a] == 0:
                del diff[a]
            diff[b] = diff.get(b, 0) - 1
            if diff[b] == 0:
                del diff[b]
        if not diff:
            cuts.append(t + 1)
    return cuts


def first_balanced_prefix(top: str, bottom: str) -> int | None:
    """Length of the shortest nonempty balanced prefix pair, or None."""
    letters = sorted(set(top) | set(bottom))
    if not letters:
        return None
    diff = prefix_counts(top, "".join(letters)) - prefix_counts(bottom, "".join(letters))
    hits = np.flatnonzero(~diff.any(axis=1))
    return int(hits[0]) + 1 if hits.size else None


def pair_name(i: int) -> str:
    name = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        name = chr(ord("A") + r) + name
    return name


class BpaResult:
    """Outcome of the string-level balanced pair algorithm.

    status is "ok", "not_found", "max_pairs" or "max_pair_length"; pairs
    are (top, bottom) strings in discovery order; rules map a pair index to
    the indices its image splits into (complete runs only have all of them);
    letters counts the letters of all the images split.
    """

    def __init__(self, status, pairs, rules, letters=0):
        self.status = status
        self.pairs = pairs
        self.rules = rules
        self.letters = letters


def bpa(letters, rules1, rules2, prefix_cutoff, max_pairs, max_pair_length) -> BpaResult:
    """FIFO balanced pair algorithm, left to right, with rauzykit's limit order:
    a new pair longer than max_pair_length stops the run first, then a new
    pair beyond max_pairs."""
    n = min(prefix_cutoff, 1024)
    while True:
        top = fixed_point(letters, rules1, n)
        bottom = fixed_point(letters, rules2, n)
        m = first_balanced_prefix(top, bottom)
        if m is not None:
            break
        if n == prefix_cutoff:
            return BpaResult("not_found", [], {})
        n = min(prefix_cutoff, 16 * n)
    pairs = [(top[:m], bottom[:m])]
    index = {pairs[0]: 0}
    queue = deque([0])
    out: dict[int, list[int]] = {}
    letters = 0
    while queue:
        i = queue.popleft()
        a, b = rewrite(rules1, pairs[i][0]), rewrite(rules2, pairs[i][1])
        letters += len(a)
        rule = []
        start = 0
        for cut in balance_cuts(a, b):
            factor = (a[start:cut], b[start:cut])
            start = cut
            j = index.get(factor)
            if j is None:
                if len(factor[0]) > max_pair_length:
                    return BpaResult("max_pair_length", pairs, out, letters)
                if len(pairs) >= max_pairs:
                    return BpaResult("max_pairs", pairs, out, letters)
                j = len(pairs)
                index[factor] = j
                pairs.append(factor)
                queue.append(j)
            rule.append(j)
        out[i] = rule
    return BpaResult("ok", pairs, out, letters)


def is_minimal_balanced(top: str, bottom: str) -> bool:
    return len(top) == len(bottom) > 0 and balance_cuts(top, bottom) == [len(top)]


def pair_matrix(rules: dict[int, list[int]], size: int) -> list[list[int]]:
    """Incidence matrix of the pair substitution: entry (i, j) counts i in rule j."""
    return [[rules[j].count(i) for j in range(size)] for i in range(size)]


def intertwines(letters, rules1, pairs, rules) -> bool:
    """H M_pairs == M H exactly, H the letter counts of the pair tops."""
    m = incidence(letters, rules1)
    h = [[top.count(a) for top, _ in pairs] for a in letters]
    mp = pair_matrix(rules, len(pairs))
    k, n = len(letters), len(pairs)
    left = [[sum(h[i][t] * mp[t][j] for t in range(n)) for j in range(n)] for i in range(k)]
    right = [[sum(m[i][t] * h[t][j] for t in range(k)) for j in range(n)] for i in range(k)]
    return left == right


def pair_fixed_point(pairs, rules, n: int) -> list[int]:
    """First n letters (as pair indices) of the canonical pair fixed point."""
    names = [chr(0x4E00 + i) for i in range(len(pairs))]  # one character per pair
    srules = {names[i]: "".join(names[j] for j in rules[i]) for i in range(len(pairs))}
    word = fixed_point("".join(names), srules, n)
    return [ord(c) - 0x4E00 for c in word]


# ---------------------------------------------------------------------------
# exact polynomials through sympy


def char_poly(matrix) -> list[int]:
    """Coefficients of det(xI - M), lowest degree first."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Matrix(matrix).charpoly(x)
    return [int(c) for c in reversed(poly.all_coeffs())]


def divides(d, p) -> bool:
    import sympy

    x = sympy.Symbol("x")
    _, r = sympy.div(sympy.Poly(list(reversed(p)), x), sympy.Poly(list(reversed(d)), x))
    return r.is_zero


def classify(coeffs) -> dict:
    """Perron root, irreducibility, unimodularity and the Pisot flag of a char
    poly, from sympy's factorisation and numpy roots of the factor that
    vanishes at the largest real root.  margin is the least distance of a
    conjugate modulus from 1."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    _, factors = sympy.factor_list(poly)
    lam = max(float(r) for r in sympy.real_roots(poly))
    minpoly = next(f for f, _ in factors if any(abs(float(r) - lam) < 1e-9 for r in sympy.real_roots(f)))
    roots = np.roots([float(c) for c in minpoly.all_coeffs()])
    nearest = int(np.argmin(np.abs(roots - lam)))
    moduli = [abs(z) for i, z in enumerate(roots) if i != nearest]
    return {
        "perron_root": lam,
        "is_irreducible": len(factors) == 1 and factors[0][1] == 1,
        "is_unimodular": abs(coeffs[0]) == 1,
        "is_pisot": lam > 1 and all(mu < 1 for mu in moduli),
        "margin": min((abs(1 - mu) for mu in moduli), default=float("inf")),
        "minpoly_degree": minpoly.degree(),
        "contracting": [complex(z) for i, z in enumerate(roots) if i != nearest],
    }


# ---------------------------------------------------------------------------
# the contracting projector from numpy's eigendecomposition


def projector(matrix, contracting) -> np.ndarray:
    """Projection onto the span of the eigenvectors of the eigenvalues nearest
    to `contracting`, along all the other eigenvectors; M must be diagonalisable
    (every benchmark input that is projected has an irreducible char poly)."""
    m = np.array(matrix, dtype=float)
    values, vectors = np.linalg.eig(m)
    keep = np.zeros(len(values))
    for z in contracting:
        keep[int(np.argmin(np.abs(values - z)))] = 1.0
    p = vectors @ np.diag(keep) @ np.linalg.inv(vectors)
    return p.real


def span_defect(rows, matrix, roots) -> float:
    """Largest distance of a row from the span of the eigenvectors of `roots`.

    The roots are simple (they are the conjugates of an irreducible factor), so
    each has a one-dimensional null space of M - zI, whatever the other
    eigenvalues do; the smallest right singular vector spans it."""
    m = np.array(matrix, dtype=complex)
    basis = np.column_stack(
        [np.linalg.svd(m - z * np.eye(len(m)))[2][-1].conj() for z in roots]
    )
    rows = np.array(rows, dtype=complex).reshape(-1, len(m))
    coef = np.linalg.lstsq(basis, rows.T, rcond=None)[0]
    return float(np.abs(basis @ coef - rows.T).max()) if rows.size else 0.0


def contracting_projector(letters: str, rules: dict[str, str]) -> np.ndarray:
    m = incidence(letters, rules)
    info = classify(char_poly(m))
    return projector(m, info["contracting"])


def broken_line(word: str, letters: str) -> np.ndarray:
    """Integer prefix-count vectors of every prefix of word, as float rows."""
    return prefix_counts(word, letters).astype(float)
