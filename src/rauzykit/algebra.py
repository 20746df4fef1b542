"""Exact integer matrices, integer polynomials, and Pisot classification.

Everything that feeds an equality assertion stays in arbitrary-precision
integer (or Fraction) arithmetic.  Floating point appears only in root
estimates, and those are refined or bracketed against the exact
coefficients before they are used for classification, and in filters that
only decide which exact division to try.

Every polynomial, over Z or mod m (a prime or a prime power), is a list of
Python ints handled by one set of helpers (multiply, divide, gcd, power);
numpy holds only matrices: the Hessenberg reduction mod p, the primitivity
test, and the float root estimates and filters.  char_poly is a Hessenberg
reduction mod several primes joined by the Chinese remainder theorem under
a proven coefficient bound; factor_over_z is Zassenhaus' algorithm mod one
good prime (distinct-degree and Cantor-Zassenhaus splitting, Hensel lifting,
subset recombination).  No degree is capped: the subset search refuses when
more than MODULAR_FACTOR_CAP modular factors remain after the single ones are
taken out.

classify_pisot reads every exact flag off the char poly p and its
factorisation: unimodularity off p(0), irreducibility off the factor list.
It picks the minimal polynomial first, as the factor with the largest float
estimate of a real root, and brackets the Perron root once, by exact sign
bisection on that squarefree factor alone, and never refines it; numpy's
other root estimates, its conjugates, are Newton-refined for the PisotReport.
A reciprocal minimal polynomial of degree >= 3 is decided "not Pisot" exactly.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DivideByZeroPoly,
    IndeterminateClassification,
    NegativeEntry,
    NoConvergence,
    TooManyModularFactors,
)

#: Refusal margin for Pisot classification: a non-dominant root modulus
#: within this distance of 1 raises IndeterminateClassification.
CLASSIFICATION_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix with arbitrary-precision integer entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # any iterable of rows, an iterator or a generator included, is read once
        rows = tuple(tuple(int(e) for e in row) for row in self.rows)
        if not rows:
            raise ValueError("matrix must have dimension >= 1")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def to_numpy(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def __str__(self):
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def is_primitive(m: IntMatrix) -> bool:
    """True iff some power of the nonnegative matrix is entrywise positive.

    Checked at the Wielandt bound k^2 - 2k + 2 via boolean squaring; a zero
    row or column rules primitivity out immediately (and is what makes
    positivity monotone under further powers).
    """
    k = m.dim
    for row in m.rows:
        for e in row:
            if e < 0:
                raise NegativeEntry(f"entry {e} < 0")
    b = np.array([[1 if e > 0 else 0 for e in row] for row in m.rows], dtype=np.int64)
    if not b.any(axis=1).all() or not b.any(axis=0).all():
        return False
    bound = k * k - 2 * k + 2
    power = 1
    while power < bound:
        b = ((b @ b) > 0).astype(np.int64)
        power *= 2
    return bool((b > 0).all())


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0 * x if self.is_zero else self.coeffs[-1] + 0 * x
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPolynomial"):
        return IntPolynomial(tuple(_add(self.coeffs, other.coeffs)))

    def __sub__(self, other: "IntPolynomial"):
        return self + (-other)

    def __mul__(self, other: "IntPolynomial"):
        return IntPolynomial(tuple(_zmul(self.coeffs, other.coeffs)))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                xs = "x" if power == 1 else f"x^{power}"
                body = xs if mag == 1 else f"{mag}{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# Internally, integer polynomials are lists of ints, lowest degree first,
# without trailing zeros; reduced mod m, their entries lie in [0, m).


def _zmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zreduce(a: Sequence[int], m: int) -> list[int]:
    out = [c % m for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _add(*polys: Sequence[int]) -> list[int]:
    out = [0] * max(len(a) for a in polys)
    for a in polys:
        for i, c in enumerate(a):
            out[i] += c
    return out


def _zsub(a: list[int], b: list[int], m: int) -> list[int]:
    return _zreduce(_add(a, [-c for c in b]), m)


def _zdivmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m of a by b, whose leading coefficient is a unit mod m."""
    r = [c % m for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % m
        if c:
            q[i - db] = c
            for j in range(db):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % m
    return _zreduce(q, m), _zreduce(r[:db], m)


def _zprimitive(a: Sequence[int]) -> list[int]:
    """The primitive part of the nonzero a, with positive leading coefficient."""
    g = math.gcd(*a)
    g = -g if a[-1] < 0 else g
    return [c // g for c in a]


def _zdiv(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """The quotient a / b when b divides a in Z[x], else None."""
    db = len(b) - 1
    if not a:
        return []
    if len(a) - 1 < db:
        return None
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c, rem = divmod(r[i], b[-1])
        if rem:
            return None
        if c:
            q[i - db] = c
            for j in range(db):
                r[i - db + j] -= c * b[j]
    return None if any(r[:db]) else q


def _monic(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd(a: list[int], b: list[int], m: int) -> list[int]:
    """Monic gcd mod m of a and b, not both zero."""
    while b:
        a, b = b, _zdivmod(a, b, m)[1]
    return _monic(a, m)


def _xgcd(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """(s, t) with s a + t b = gcd(a, b), monic, mod m."""
    s0, s1, t0, t1 = [1], [], [], [1]
    while b:
        q, r = _zdivmod(a, b, m)
        a, b = b, r
        s0, s1 = s1, _zsub(s0, _zmul(q, s1), m)
        t0, t1 = t1, _zsub(t0, _zmul(q, t1), m)
    inv = pow(a[-1], -1, m)
    return _zreduce([c * inv for c in s0], m), _zreduce([c * inv for c in t0], m)


def _squarefree_mod(f: list[int], m: int) -> bool:
    """gcd(f, f') = 1 mod the prime m; with m not dividing lc(f), this proves f squarefree over Q."""
    return len(_gcd(f, _zreduce([i * c for i, c in enumerate(f)][1:], m), m)) == 1


def _powmod(a: list[int], e: int, f: list[int], m: int) -> list[int]:
    """a^e mod (f, m) by repeated squaring."""
    result = [1]
    while e:
        if e & 1:
            result = _zdivmod(_zmul(result, a), f, m)[1]
        e >>= 1
        if e:
            a = _zdivmod(_zmul(a, a), f, m)[1]
    return result


def _qinverse(a: Sequence[int], f: Sequence[int]) -> list[Fraction]:
    """The inverse over Q of a modulo f, of degree below deg f, for coprime a
    and f: extended Euclid on Fraction lists, keeping r = u a (mod f) along
    the remainder sequence of f and a until r is a nonzero constant."""
    r0, r1 = [Fraction(c) for c in f], [Fraction(c) for c in a]
    u0, u1 = [], [Fraction(1)]
    while len(r1) > 1:
        r, q = list(r0), [Fraction(0)] * max(len(r0) - len(r1) + 1, 0)
        for i in range(len(q) - 1, -1, -1):
            q[i] = r[i + len(r1) - 1] / r1[-1]
            for j, c in enumerate(r1):
                r[i + j] -= q[i] * c
        r = r[:len(r1) - 1]
        while r and not r[-1]:
            r.pop()
        r0, r1 = r1, r
        u0, u1 = u1, _add(u0, [-c for c in _zmul(q, u1)])
    while u1 and not u1[-1]:
        u1.pop()
    return [c / r1[0] for c in u1]


def poly_divides(d: IntPolynomial, p: IntPolynomial) -> bool:
    """True iff d divides p over Q (sign-insensitive)."""
    if d.is_zero:
        raise DivideByZeroPoly("division by the zero polynomial")
    # Gauss's lemma: over Q, d divides p iff its primitive part does in Z[x]
    return _zdiv(p.coeffs, _zprimitive(d.coeffs)) is not None


def poly_exact_div(p: IntPolynomial, d: IntPolynomial) -> IntPolynomial:
    """Exact quotient p / d; requires integer quotient and zero remainder."""
    if d.is_zero:
        raise DivideByZeroPoly("division by the zero polynomial")
    q = _zdiv(p.coeffs, d.coeffs)
    if q is None:
        raise ArithmeticError("division is not exact over Z")
    return IntPolynomial(tuple(q))


def reciprocal_poly(p: IntPolynomial) -> IntPolynomial:
    """Coefficient reversal x^deg * p(1/x)."""
    return IntPolynomial(tuple(reversed(p.coeffs)))


def positive_leading(p: IntPolynomial) -> IntPolynomial:
    """Sign normalization: flip so the leading coefficient is positive."""
    if p.is_zero or p.leading > 0:
        return p
    return -p


# ---------------------------------------------------------------------------
# primes and matrices mod p
#
# A matrix mod p is a numpy int64 array of residues.  Every prime is below
# 2^31, so the product of two residues fits in int64; where products are
# summed, one operand is split into 16-bit halves so that no partial sum
# overflows.


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3.2 * 10^9."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(start: int, step: int):
    """The primes start, start + step, ... in that order (step is +2 or -2)."""
    n = start
    while True:
        if _is_prime(n):
            yield n
        n += step


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, for residues below 2^31 and an inner dimension below 2^16."""
    return (a @ (b & 0xFFFF) % p + (a @ (b >> 16) % p << 16)) % p


# ---------------------------------------------------------------------------
# characteristic polynomials


def _char_poly_mod(rows: tuple[tuple[int, ...], ...], p: int) -> list[int]:
    """det(xI - M) mod p: reduction to Hessenberg form by similarity, then
    the Hessenberg recurrence (Cohen, GTM 138, Algorithm 2.2.9)."""
    n = len(rows)
    h = np.array([[e % p for e in row] for row in rows], dtype=np.int64)
    for j in range(1, n - 1):
        nz = np.flatnonzero(h[j:, j - 1])
        if not len(nz):
            continue
        i = j + int(nz[0])
        if i != j:
            h[[i, j]] = h[[j, i]]
            h[:, [i, j]] = h[:, [j, i]]
        u = h[j + 1 :, j - 1] * pow(int(h[j, j - 1]), -1, p) % p
        h[j + 1 :] = (h[j + 1 :] - np.outer(u, h[j]) % p) % p  # row i -= u_i row j
        h[:, j] = (h[:, j] + _dot(h[:, j + 1 :], u, p)) % p  # column j += u_i column i
    hl = h.tolist()
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)  # row j: char poly of the leading j x j block
    polys[0, 0] = 1
    for j in range(n):
        c, t = [0] * j, 1
        for i in range(j - 1, -1, -1):
            t = t * hl[i + 1][i] % p
            c[i] = hl[i][j] * t % p
        tail = _dot(polys[:j].T, np.array(c, dtype=np.int64), p) if j else 0
        polys[j + 1] = (np.roll(polys[j], 1) - hl[j][j] * polys[j] % p - tail) % p
    return polys[n].tolist()


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), exact over the integers.

    Computed mod primes below 2^31 and combined by the Chinese remainder
    theorem into symmetric residues.  Every eigenvalue is at most rho, the
    smaller of the largest absolute row and column sums, so |c_j| <=
    C(k, j) rho^j (Cohen, GTM 138, section 2.2); primes are added until
    their product exceeds twice that bound.
    """
    k = m.dim
    rho = min(
        max(sum(abs(e) for e in row) for row in m.rows),
        max(sum(abs(e) for e in col) for col in zip(*m.rows)),
    )
    bound = max(math.comb(k, j) * rho ** j for j in range(k + 1))
    coeffs: list[int] = []
    modulus = 1
    for p in _primes(2 ** 31 - 1, -2):
        residues = _char_poly_mod(m.rows, p)
        if coeffs:
            inv = pow(modulus, -1, p)
            residues = [c + modulus * ((r - c) * inv % p) for c, r in zip(coeffs, residues)]
        coeffs = residues
        modulus *= p
        if modulus > 2 * bound:
            break
    return IntPolynomial(tuple(c - modulus if 2 * c > modulus else c for c in coeffs))


# ---------------------------------------------------------------------------
# factorisation over Z

#: Zassenhaus recombination tries subsets of the modular factors, so its cost
#: is exponential in their number; past this many left after the single
#: factors are taken out, it refuses.
MODULAR_FACTOR_CAP = 16

#: Good primes factored after the first when it leaves more than
#: MODULAR_FACTOR_CAP modular factors; the prime with the fewest is used.
_SPARE_PRIMES = 4


@dataclass(frozen=True)
class Factor:
    """An irreducible factor over Z, primitive with positive leading coefficient."""

    poly: IntPolynomial
    multiplicity: int
    cyclotomic: bool


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[x] by the primitive remainder sequence."""
    a, b = _zprimitive(a), _zprimitive(b)
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):  # pseudo-division: r <- lc(b) r - r_top x^k b
            top, shift = r[-1], len(r) - len(b)
            r = [b[-1] * c for c in r[:-1]]
            for j in range(len(b) - 1):
                r[shift + j] -= top * b[j]
            while r and not r[-1]:
                r.pop()
        a, b = b, _zprimitive(r) if r else []
    return [1] if b else a


def _cyclotomic_orders(n: int) -> list[tuple[int, int]]:
    """Every (m, phi(m)) with phi(m) <= n, built from prime powers."""
    orders = [(1, 1)]
    for q in range(2, n + 2):
        if not _is_prime(q):
            continue
        for m, phi in list(orders):
            qe, step = q, q - 1
            while phi * step <= n:
                orders.append((m * qe, phi * step))
                qe, step = qe * q, step * q
    return orders


def _mobius(n: int) -> int:
    mu, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            mu = -mu
        q += 1
    return -mu if n > 1 else mu


def _cyclotomic(m: int, phi: int) -> list[int]:
    """Phi_m, from the power series of prod over d | m of (1 - x^d)^mu(m/d)."""
    if m == 1:
        return [-1, 1]
    c = [1] + [0] * phi
    for d in range(1, m + 1):
        mu = 0 if m % d else _mobius(m // d)
        if mu == 1:  # times (1 - x^d)
            for i in range(phi, d - 1, -1):
                c[i] -= c[i - d]
        elif mu == -1:  # divided by (1 - x^d)
            for i in range(d, phi + 1):
                c[i] += c[i - d]
    return c


def _frobenius(f: list[int], p: int) -> list[list[int]]:
    """Rows x^(i p) mod f for i < deg f: h^p mod f is the sum of h_i times row i."""
    xp = _powmod([0, 1], p, f, p)
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(_zdivmod(_zmul(rows[-1], xp), f, p)[1])
    return rows


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorisation of the monic squarefree f mod p: pairs
    (g, d) with g the product of f's irreducible factors of degree d."""
    x = [0, 1]
    parts = []
    h, d = x, 0
    frobenius = _frobenius(f, p)
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _zreduce(_add(*([c * e for e in row] for c, row in zip(h, frobenius))), p)  # x^(p^d) mod f
        g = _gcd(f, _zsub(h, x, p), p)
        if len(g) > 1:
            parts.append((g, d))
            f = _zdivmod(f, g, p)[0]
            h = _zdivmod(h, f, p)[1]
            # the new f divides the old, so x^(i p) mod f is the old row mod f
            frobenius = [_zdivmod(row, f, p)[1] for row in frobenius[: len(f) - 1]]
    if len(f) > 1:
        parts.append((f, len(f) - 1))
    return parts


def _edf(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus equal-degree splitting of g mod an odd prime p into
    its monic irreducible factors, all of degree d."""
    n = len(g) - 1
    if n == d:
        return [g]
    while True:
        a = _zreduce([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        s = _gcd(g, _zsub(_powmod(a, (p ** d - 1) // 2, g, p), [1], p), p)
        if 1 < len(s) < len(g):
            return _edf(s, d, p, rng) + _edf(_zdivmod(g, s, p)[0], d, p, rng)


def _hensel_step(f, g, h, s, t, m):
    """From f = g h and s g + t h = 1 mod m, with h monic, to the same
    identities mod m^2 (von zur Gathen and Gerhard, Algorithm 15.10)."""
    m2 = m * m
    e = _zsub(f, _zmul(g, h), m2)
    q, r = _zdivmod(_zmul(s, e), h, m2)
    g = _zreduce(_add(g, _zmul(t, e), _zmul(q, g)), m2)
    h = _zreduce(_add(h, r), m2)
    b = _zsub(_add(_zmul(s, g), _zmul(t, h)), [1], m2)
    c, d = _zdivmod(_zmul(s, b), h, m2)
    s = _zsub(s, d, m2)
    t = _zsub(t, _add(_zmul(t, b), _zmul(c, g)), m2)
    return g, h, s, t


def _hensel(f: list[int], factors: list[list[int]], p: int, modulus: int) -> list[list[int]]:
    """Monic lifts mod `modulus`, a power p^(2^j), of the monic factors mod p
    of f = lc(f) * prod(factors) mod p, by a balanced factor tree."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, modulus)
        return [_zreduce([c * inv for c in f], modulus)]
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = _zreduce(_zmul(g, u), p)
    h = [1]
    for u in factors[half:]:
        h = _zreduce(_zmul(h, u), p)
    s, t = _xgcd(g, h, p)
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel(g, factors[:half], p, modulus) + _hensel(h, factors[half:], p, modulus)


def _recombine(f: list[int], lifted: list[list[int]], modulus: int) -> list[list[int]]:
    """Zassenhaus recombination: true factors of f are the subsets of the
    lifted factors whose product, times lc(f) and taken symmetrically mod
    `modulus`, divides f.  Single factors, among them every rational root,
    are taken out first; subsets of two or more, exponential in number, are
    tried only for at most MODULAR_FACTOR_CAP factors."""
    found = []
    size = 1
    while 2 * size <= len(lifted):
        if size > 1 and len(lifted) > MODULAR_FACTOR_CAP:
            raise TooManyModularFactors(
                f"{len(lifted)} modular factors left after the single ones; "
                f"recombination is capped at {MODULAR_FACTOR_CAP}"
            )
        for subset in itertools.combinations(range(len(lifted)), size):
            c0 = f[-1]
            for i in subset:
                c0 = c0 * lifted[i][0] % modulus
            c0 = c0 - modulus if 2 * c0 > modulus else c0
            if not c0 or (f[-1] * f[0]) % c0:
                continue
            g = [f[-1]]
            for i in subset:
                g = _zreduce(_zmul(g, lifted[i]), modulus)
            g = _zprimitive([c - modulus if 2 * c > modulus else c for c in g])
            q = _zdiv(f, g)
            if q is not None:
                found.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _good_primes(f: list[int]):
    """(number of modular factors, p, distinct-degree parts of f mod p) for
    each prime p >= 101, in order, that divides neither lc(f) nor the
    discriminant."""
    for p in _primes(101, 2):
        fp = _zreduce(f, p)
        if f[-1] % p and _squarefree_mod(fp, p):
            parts = _ddf(_monic(fp, p), p)
            yield sum((len(g) - 1) // d for g, d in parts), p, parts


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors of the primitive squarefree f with positive leading
    coefficient and f(0) != 0, factored mod the good prime that
    factor_over_z describes."""
    n = len(f) - 1
    if n == 1:
        return [f]
    primes = _good_primes(f)
    count, p, parts = next(primes)
    if count > MODULAR_FACTOR_CAP:
        count, p, parts = min([(count, p, parts), *itertools.islice(primes, _SPARE_PRIMES)])
    if count == 1:
        return [f]  # one modular factor: f is irreducible
    rng = random.Random(p)
    modular = [u for g, d in parts for u in _edf(g, d, p, rng)]
    bound = 2 * (math.isqrt(n + 1) + 1) * 2 ** n * f[-1] * max(abs(c) for c in f)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    return _recombine(f, _hensel(f, modular, p, modulus), modulus)


def factor_over_z(p: IntPolynomial) -> tuple[Factor, ...]:
    """Irreducible factors of p over Z with multiplicities; the content is dropped.

    The factors x and the cyclotomic polynomials are divided out exactly
    first.  The squarefree rest is factored mod one good prime
    (distinct-degree then Cantor-Zassenhaus splitting), Hensel-lifted past
    the coefficient bound and recombined (Zassenhaus 1969), single lifted
    factors first, so that every rational root is taken out before any
    subset search.  The prime is the first p >= 101 that divides neither
    the leading coefficient nor the discriminant; only where it leaves more
    than MODULAR_FACTOR_CAP modular factors are the next _SPARE_PRIMES good
    primes factored too, and the one with the fewest factors used.
    Raises TooManyModularFactors when subsets of more than
    MODULAR_FACTOR_CAP modular factors would have to be searched.
    Deterministic; factors come sorted by degree, then by coefficients.
    """
    if p.degree < 1:
        return ()
    rest = _zprimitive(p.coeffs)
    factors = []

    def take(g: list[int], cyclotomic: bool) -> None:
        nonlocal rest
        k = 0
        while (q := _zdiv(rest, g)) is not None:
            rest, k = q, k + 1
        if k:
            factors.append(Factor(IntPolynomial(tuple(g)), k, cyclotomic))

    take([0, 1], False)
    scale = max(abs(c) for c in rest)  # int / int rounds correctly at any size
    coeffs = np.array([c / scale for c in rest[::-1]])
    orders = _cyclotomic_orders(len(rest) - 1)
    with np.errstate(all="ignore"):
        values = np.abs(np.polyval(coeffs, np.exp(2j * np.pi / np.array([m for m, _ in orders]))))
    # a root of unity is a root of rest only where its float value is
    # within rounding of 0; the division decides exactly
    tol = 1e-9 * float(np.abs(coeffs).sum())
    for (m, phi), v in zip(orders, values):
        if not v > tol and phi < len(rest):
            take(_cyclotomic(m, phi), True)
    if len(rest) > 1:
        prime = next(q for q in _primes(101, 2) if rest[-1] % q)
        if not _squarefree_mod(_zreduce(rest, prime), prime):
            rest_derivative = [i * c for i, c in enumerate(rest)][1:]
            core = _zdiv(rest, _zgcd(rest, rest_derivative))
        else:
            core = rest
        for g in _zassenhaus(core):
            take(g, False)
    return tuple(sorted(factors, key=lambda f: (f.poly.degree, f.poly.coeffs)))


def is_irreducible_over_q(p: IntPolynomial) -> bool:
    """Irreducibility over Q: p has one irreducible factor, of p's degree."""
    if p.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    factors = factor_over_z(p)
    return len(factors) == 1 and factors[0].poly.degree == p.degree


# ---------------------------------------------------------------------------
# roots


@dataclass(frozen=True)
class Root:
    value: complex
    residual: float


@dataclass(frozen=True)
class DominantRoot:
    """Largest real root: value lies in [lower, upper], over which the
    polynomial changes sign exactly (or vanishes, when lower == upper)."""

    value: float
    lower: Fraction
    upper: Fraction


def _largest_real_estimate(p: IntPolynomial) -> float:
    """numpy's estimate of the largest real root of p, -inf when it finds none."""
    est = np.roots(np.array(p.coeffs[::-1], dtype=float))
    return max((z.real for z in est if abs(z.imag) <= 1e-7 * (1 + abs(z))), default=-math.inf)


def _sign_at(coeffs: Sequence[int], a: int, e: int) -> int:
    """Sign of q(a / 2^e), q the polynomial with these coefficients: the sign
    of the integer 2^(e n) q(a / 2^e) = sum_j c_j a^j 2^(e (n - j)), n = deg q,
    summed by Horner's rule."""
    acc, shift = coeffs[-1], e
    for c in reversed(coeffs[:-1]):
        acc = acc * a + (c << shift)
        shift += e
    return (acc > 0) - (acc < 0)


def dominant_real_root(p: IntPolynomial) -> DominantRoot:
    """Largest real root, bracketed by an exact sign change and bisected.

    The bracket's ends are dyadic, a / 2^e with one e per call, so each sign
    of p is the sign of an integer sum (_sign_at).  The grid step 2^-e is at
    most max(1, ceil |r|) / 2^80 for the floating estimate r, which seeds a
    bracket, widened at most six times until p changes sign over it;
    bisection then narrows it to one grid step (80 bits).  A simple root,
    such as every root of a squarefree p, always has such a bracket; when
    none is found (at a root of even multiplicity, say), NoConvergence is
    raised rather than a guess returned.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    q = IntPolynomial(tuple(_zprimitive(p.coeffs)))
    r0 = _largest_real_estimate(q)
    if r0 == -math.inf:
        raise NoConvergence("no real root found")
    e = max(0, 81 - max(1, math.ceil(abs(r0))).bit_length())
    center = int(math.ldexp(r0, e))
    delta = max(1, int(math.ldexp(1e-7 * (1 + abs(r0)), e)))
    for _ in range(6):
        lo, hi = center - delta, center + delta
        s_lo, s_hi = _sign_at(q.coeffs, lo, e), _sign_at(q.coeffs, hi, e)
        if s_lo * s_hi <= 0:
            break
        delta *= 16
    else:
        raise NoConvergence(f"no exact sign change near the root estimate {r0!r}")
    while s_lo * s_hi and hi - lo > 1:
        mid = (lo + hi) // 2
        s_mid = _sign_at(q.coeffs, mid, e)
        if s_mid == s_lo:
            lo = mid
        else:
            hi, s_hi = mid, s_mid
    if not s_lo:  # an exact root
        hi = lo
    elif not s_hi:
        lo = hi
    return DominantRoot(float(Fraction(lo + hi, 2 << e)), Fraction(lo, 1 << e), Fraction(hi, 1 << e))


def _conjugates(p: IntPolynomial, lam: float) -> list[Root]:
    """The deg(p) - 1 roots of p other than lam: numpy's estimates less the
    one nearest lam, each Newton-refined until |p(z)| / ||p|| < 1e-10, in at
    most 60 steps.

    p and p' are evaluated by IntPolynomial.evaluate at the complex z.  An
    estimate already below 1e-10 takes no step.  Raises NoConvergence (with
    the residual) if refinement stalls.
    """
    estimates = list(np.roots(np.array(p.coeffs[::-1], dtype=float)))
    del estimates[min(range(len(estimates)), key=lambda i: abs(estimates[i] - lam))]
    dp = p.derivative()
    norm = math.sqrt(sum(c * c for c in map(float, p.coeffs)))
    roots = []
    for z in estimates:
        z = complex(z)
        residual = abs(p.evaluate(z)) / norm
        for _ in range(60):
            if residual < 1e-10:
                break
            d = dp.evaluate(z)
            if abs(d) < 1e-300:
                z += 1e-8 * (1 + abs(z))
                d = dp.evaluate(z)
            z = z - p.evaluate(z) / d
            residual = abs(p.evaluate(z)) / norm
        if residual >= 1e-10:
            raise NoConvergence(f"root refinement stalled at residual {residual:.3e}")
        roots.append(Root(z, residual))
    return roots


# ---------------------------------------------------------------------------
# Pisot classification


@dataclass(frozen=True)
class PisotReport:
    """Classification flags for a substitution's incidence matrix.

    matrix is the incidence matrix classified.  perron_root is the midpoint
    of perron_bracket, its exact bracket, never refined.  margin is the
    smallest distance of a conjugate's modulus from 1 (inf when the Perron
    root has no conjugates).  char_poly is the characteristic polynomial and
    minimal_polynomial its irreducible factor vanishing at the Perron root;
    conjugates are the minimal polynomial's other roots, Newton-refined to a
    residual below 1e-10 (empty when the minimal polynomial is linear).
    """

    perron_root: float
    is_primitive: bool
    is_pisot: bool
    is_irreducible: bool
    is_unimodular: bool
    margin: float
    char_poly: IntPolynomial
    minimal_polynomial: IntPolynomial
    matrix: IntMatrix
    conjugates: tuple[Root, ...]
    perron_bracket: DominantRoot


def _as_incidence(value) -> IntMatrix:
    if isinstance(value, IntMatrix):
        return value
    from .words import incidence_matrix  # deferred: words depends on this module

    return incidence_matrix(value)


def classify_pisot(substitution_or_matrix) -> PisotReport:
    """Primitivity, unimodularity, irreducibility and the Pisot flag, read
    off the char poly p and its factorisation over Z.

    det M = (-1)^k p(0) settles unimodularity.  The minimal polynomial is the
    distinct irreducible factor with the largest float estimate of a real
    root; being squarefree, it changes sign at its largest real root, the
    Perron root, which is bracketed on it alone.

    A reciprocal minimal polynomial f (f* = f, coefficients palindromic) of
    degree n >= 3 is never Pisot, exactly.  Proof: f(0) equals the leading
    coefficient, so 0 is no root, and f(1/w) = w^-n f(w) makes the roots
    closed under w -> 1/w.  Being irreducible over Q, f has n distinct
    roots, so some root w is neither lambda nor 1/lambda.  Either |w| >= 1,
    or 1/w is a root of modulus above 1 that is neither lambda (as w is not
    1/lambda) nor 1/lambda (as w is not lambda).  Either way a conjugate of
    lambda lies on or outside the unit circle.  Such an f, a Salem
    polynomial among others, sets is_pisot to False without the margin test;
    margin is still the float distance.

    lambda needs no refusal margin: a k x k nonnegative integer matrix has
    spectral radius 0, 1 or at least 2^(1/k^2), so lambda != 1 lies within
    1e-9 of 1 only if k > 2.6 * 10^4.  Proof: lambda is the largest radius
    of M's irreducible diagonal blocks.  A zero 1 x 1 block has radius 0, a
    block with unit row sums is a cycle, of radius 1.  In any other block,
    of size s, some index i has two distinct first steps (two entries, or
    one >= 2), each closing into a walk back to i of length l1, l2 <= s.
    Repeated l2 and l1 times, they give (M^N)_ii >= 2 at N = l1 l2 <= s^2,
    so lambda^N >= 2.  At lambda = 1, f = x - 1 has no conjugates: not Pisot.

    Raises IndeterminateClassification when a conjugate of a non-reciprocal
    minimal polynomial has a modulus within CLASSIFICATION_MARGIN of 1, and
    TooManyModularFactors, before any root work, when p cannot be factored
    within MODULAR_FACTOR_CAP.
    """
    m = _as_incidence(substitution_or_matrix)
    primitive = is_primitive(m)
    p = char_poly(m)
    unimodular = abs(p.coeffs[0]) == 1
    factors = [f.poly for f in factor_over_z(p)]
    minpoly = factors[0] if len(factors) == 1 else max(factors, key=_largest_real_estimate)
    irreducible = minpoly.degree == p.degree
    bracket = dominant_real_root(minpoly)
    conjugates = tuple(_conjugates(minpoly, bracket.value))
    moduli = [abs(r.value) for r in conjugates]
    margin = min((abs(1 - mu) for mu in moduli), default=math.inf)
    reciprocal = minpoly.degree >= 3 and minpoly.coeffs == minpoly.coeffs[::-1]
    if margin <= CLASSIFICATION_MARGIN and not reciprocal:
        raise IndeterminateClassification(
            f"a conjugate modulus is within {margin:.3e} of 1"
        )
    pisot = not reciprocal and bracket.value > 1 and all(mu < 1 for mu in moduli)
    return PisotReport(bracket.value, primitive, pisot, irreducible, unimodular, margin, p, minpoly, m, conjugates, bracket)
