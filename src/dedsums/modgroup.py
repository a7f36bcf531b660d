"""SL2(Z) matrices, congruence subgroups, cusps, polynomial slash actions.

Also holds the Fricke flip on cusps, the G_j(N) matrix families, Schreier
generators of Gamma_1(N) from one coset BFS per level (built once and cached),
and continued-fraction partial quotients.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Sequence

from .exactnum import CertificateError, CyclotomicElement, factorize


class MatrixFormatError(ValueError):
    """Matrix text that is not a 2x2 array of integers."""


@dataclass(frozen=True)
class Mat2:
    """Integer matrix (a b; c d) with det 1, enforced at construction."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant of {self} is not 1")

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_str(cls, s: str) -> "Mat2":
        """Parse ``[[a,b],[c,d]]``; anything but a 2x2 array of ints is a MatrixFormatError."""
        try:
            rows = json.loads(s)
        except ValueError:
            rows = None
        if not (
            isinstance(rows, list)
            and len(rows) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in rows)
            and all(type(x) is int for row in rows for x in row)
        ):
            raise MatrixFormatError(f"expected a 2x2 array of integers, got {s!r}")
        return cls(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


MAT_I = Mat2.identity()
MAT_S = Mat2(0, -1, 1, 0)
MAT_T = Mat2(1, 1, 0, 1)


def translation(n: int) -> Mat2:
    return Mat2(1, n, 0, 1)


def in_gamma0(gamma: Mat2, n: int) -> bool:
    return gamma.c % n == 0


def in_gamma1(gamma: Mat2, n: int) -> bool:
    return gamma.c % n == 0 and gamma.a % n == 1 and gamma.d % n == 1


@dataclass(frozen=True)
class Cusp:
    """Reduced point p/q of P^1(Q) with q >= 0; (1, 0) encodes infinity."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if q == 0:
            p = 1
        else:
            g = gcd(p, q) if q > 0 else -gcd(p, q)
            p //= g
            q //= g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def infinity(cls) -> "Cusp":
        return cls(1, 0)

    def is_infinity(self) -> bool:
        return self.q == 0

    def to_fraction(self) -> Fraction:
        if self.q == 0:
            raise ValueError("infinity has no rational value")
        return Fraction(self.p, self.q)

    def __str__(self):
        return "inf" if self.q == 0 else f"{self.p}/{self.q}"


CUSP_INF = Cusp.infinity()


def cusp_apply(gamma: Mat2, cusp: Cusp) -> Cusp:
    p = gamma.a * cusp.p + gamma.b * cusp.q
    q = gamma.c * cusp.p + gamma.d * cusp.q
    return Cusp(p, q)


def fricke_apply(n: int, cusp: Cusp) -> Cusp:
    """omega(z) = -1/(Nz) on cusps: infinity -> 0, p/q -> -q/(Np)."""
    if cusp.is_infinity():
        return Cusp(0, 1)
    if cusp.p == 0:
        return Cusp.infinity()
    return Cusp(-cusp.q, n * cusp.p)


def cocycle_j(gamma: Mat2, cusp: Cusp) -> Fraction:
    """j(gamma, a) = c*a + d at a finite cusp; the pole a = gamma^-1(inf) is an error."""
    if cusp.is_infinity():
        raise ValueError("cocycle j needs a finite cusp")
    val = Fraction(gamma.c * cusp.p, cusp.q) + gamma.d
    if val == 0:
        raise ValueError("cusp is the pole gamma^-1(inf) of the cocycle")
    return val


# -- G_j(N) families and cusp nodes ---------------------------------------


def iter_G_pairs(n: int, j: int) -> Iterator[tuple[int, int]]:
    """(a, c) of G_j(N): a in [1, jN) with a = 1 mod N, c in [N, jN) with N | c, coprime."""
    for a in range(1, j * n, n):
        for c in range(n, j * n, n):
            if gcd(a, c) == 1:
                yield a, c


def g_witness(a: int, c: int, n: int) -> Mat2:
    """Canonical (b, d) completion: least d >= 1 with d = a^-1 mod c."""
    d = pow(a, -1, c)
    if d == 0:
        d = c
    b = (a * d - 1) // c
    return Mat2(a, b, c, d)


# -- Gamma_1(N) coset BFS and Schreier generators ---------------------------


def gamma1_index(n: int) -> int:
    """[SL2(Z) : Gamma_1(N)] = prod p^(2e-2) (p^2 - 1) over p^e || N, for N >= 5."""
    index = 1
    for p, e in factorize(n):
        index *= p ** (2 * e - 2) * (p * p - 1)
    return index


def _coset_key(g: Mat2, n: int) -> tuple[int, int]:
    # right cosets Gamma_1(N) g are classified by the bottom row mod N
    return (g.c % n, g.d % n)


@dataclass(frozen=True)
class _Gamma1Cosets:
    """One level's coset BFS: the transversal, its Schreier generators and the
    S/T edges between cosets.

    ``edges[2 i + x]`` is (target coset, generator index) for coset i of the
    transversal and letter x (0 = S, 1 = T); the index is -1 where the edge
    reads the identity.
    """

    reps: dict[tuple[int, int], Mat2]
    generators: tuple[Mat2, ...]
    generator_set: frozenset[Mat2]
    edges: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _gamma1_cosets(n: int) -> _Gamma1Cosets:
    """BFS over S, T, T^-1 from the identity coset, then the Schreier
    generators r x rep(r x)^-1 for x in S, T in transversal order."""
    if n < 5:
        raise ValueError("coset keying by bottom row needs N >= 5 (so -I is not in Gamma_1)")
    reps: dict[tuple[int, int], Mat2] = {_coset_key(MAT_I, n): MAT_I}
    queue = deque([MAT_I])
    while queue:
        r = queue.popleft()
        for x in (MAT_S, MAT_T, MAT_T.inverse()):
            g = r * x
            key = _coset_key(g, n)
            if key not in reps:
                reps[key] = g
                queue.append(g)
    if len(reps) != gamma1_index(n):
        raise CertificateError(f"coset BFS found {len(reps)} cosets of Gamma_1({n}), not the index")
    position = {key: i for i, key in enumerate(reps)}
    gens: dict[Mat2, int] = {}
    edges = []
    for r in reps.values():
        for x in (MAT_S, MAT_T):
            g = r * x
            key = _coset_key(g, n)
            u = g * reps[key].inverse()
            label = -1
            if u != MAT_I:
                label = gens.get(u, -1)
                if label < 0:
                    if not in_gamma1(u, n):
                        raise CertificateError(f"Schreier generator {u} is not in Gamma_1({n})")
                    label = gens[u] = len(gens)
            edges.append((position[key], label))
    return _Gamma1Cosets(reps, tuple(gens), frozenset(gens), tuple(edges))


def gamma1_coset_table(n: int) -> dict[tuple[int, int], Mat2]:
    """BFS transversal of Gamma_1(N)\\SL2(Z), keyed by bottom row mod N (a copy)."""
    return dict(_gamma1_cosets(n).reps)


def gamma1_generators(n: int) -> list[Mat2]:
    """Schreier generating set of Gamma_1(N) from the coset BFS (N >= 5), as a new list."""
    return list(_gamma1_cosets(n).generators)


# the relators of SL2(Z) = <S, T | S^4, (ST)^3 S^2> in the letters 0 = S, 1 = T
_RELATORS = ((0, 0, 0, 0), (0, 1, 0, 1, 0, 1, 0, 0))


@lru_cache(maxsize=None)
def gamma1_relations(n: int) -> tuple[tuple[int, ...], ...]:
    """Relations among the Schreier generators of Gamma_1(N) (N >= 5), as
    words of indices into :func:`gamma1_generators`.

    Reidemeister-Schreier: a relator w walked from coset r along the S/T
    edges of the coset BFS reads generators u_1 ... u_L with
    u_1 ... u_L = r w r^-1 = I (an edge inside the transversal reads I and is
    dropped).  Walks from every coset, each word kept once up to rotation (at
    its least rotation), in order of first appearance.  Together they present
    Gamma_1(N) on the Schreier generators.
    """
    edges = _gamma1_cosets(n).edges
    words: dict[tuple[int, ...], None] = {}
    for start in range(len(edges) // 2):
        for relator in _RELATORS:
            coset, word = start, []
            for letter in relator:
                coset, label = edges[2 * coset + letter]
                if label >= 0:
                    word.append(label)
            if coset != start:
                raise CertificateError(
                    f"relator walk from coset {start} of Gamma_1({n}) does not close"
                )
            if word:
                words[min(tuple(word[i:] + word[:i]) for i in range(len(word)))] = None
    return tuple(words)


def word_in_ST(m: Mat2) -> list[Mat2]:
    """Factor m exactly into a list of S / T^(+-1) letters (left-to-right product)."""
    letters: list[Mat2] = []
    cur = m
    t_inv = MAT_T.inverse()
    s_inv = MAT_S.inverse()

    def emit_T(power: int):
        letter = MAT_T if power > 0 else t_inv
        for _ in range(abs(power)):
            letters.append(letter)

    while cur.c != 0:
        q = cur.a // cur.c
        emit_T(q)
        cur = translation(-q) * cur
        letters.append(MAT_S)
        cur = s_inv * cur
    if cur.a == 1:
        emit_T(cur.b)
    else:
        # residual is -T^(-b); -I = S^2
        letters.append(MAT_S)
        letters.append(MAT_S)
        emit_T(-cur.b)
    check = MAT_I
    for w in letters:
        check = check * w
    if check != m:
        raise CertificateError(f"S/T word multiplies to {check}, not {m}")
    return letters


def express_in_gamma1_generators(m: Mat2, n: int) -> list[Mat2]:
    """Rewrite m in Gamma_1(N) as a product of Schreier generators and inverses.

    Standard Reidemeister rewriting through the coset table: each emitted
    factor is a Schreier generator (letters S, T) or the inverse of one
    (letters T^-1).  The word multiplies back to m exactly (checked, else
    CertificateError), certifying membership in the generated subgroup.
    """
    if not in_gamma1(m, n):
        raise ValueError(f"matrix is not in Gamma_1({n})")
    cosets = _gamma1_cosets(n)
    reps, gens = cosets.reps, cosets.generator_set
    word = word_in_ST(m)
    r = MAT_I
    used: list[Mat2] = []
    for x in word:
        g = r * x
        rep = reps[_coset_key(g, n)]
        u = g * rep.inverse()
        if u != MAT_I:
            if u not in gens and u.inverse() not in gens:
                raise CertificateError(f"{u} is not a Schreier generator of Gamma_1({n}) or an inverse")
            used.append(u)
        r = rep
    if r != MAT_I:
        raise CertificateError(f"coset walk for {m} ends at {r}, not the identity coset")
    prod = MAT_I
    for u in used:
        prod = prod * u
    if prod != m:
        raise CertificateError(f"generator word multiplies to {prod}, not {m}")
    return used


# -- polynomials of degree <= k-2 and the weight (2-k) slash -----------------


class Poly:
    """Polynomial sum(coeffs[n] x^(k-n-2)) of degree <= k-2.

    coeffs[0] multiplies the top power x^(k-2).  Entries are Fractions or
    CyclotomicElements (both compare equal to 0 when they vanish).
    """

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight: int, coeffs: Sequence):
        if weight < 2:
            raise ValueError("weight must be >= 2")
        coeffs = list(coeffs)
        if len(coeffs) != weight - 1:
            raise ValueError(f"need {weight - 1} coefficients for weight {weight}")
        self.weight = weight
        self.coeffs = [c if isinstance(c, CyclotomicElement) else Fraction(c) for c in coeffs]

    @classmethod
    def zero(cls, weight: int) -> "Poly":
        return cls(weight, [Fraction(0)] * (weight - 1))

    @classmethod
    def from_ascending(cls, weight: int, ascending: Sequence) -> "Poly":
        """Build from coefficients [x^0, x^1, ...] padded to degree k-2."""
        asc = list(ascending) + [Fraction(0)] * (weight - 1 - len(ascending))
        return cls(weight, list(reversed(asc)))

    def eval(self, x):
        x = Fraction(x) if not isinstance(x, CyclotomicElement) else x
        acc = None
        for c in self.coeffs:
            acc = c if acc is None else acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        if self.weight != other.weight:
            raise ValueError("weights differ")
        return Poly(self.weight, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Poly") -> "Poly":
        if self.weight != other.weight:
            raise ValueError("weights differ")
        return Poly(self.weight, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.weight == other.weight
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def slash(self, gamma: Mat2) -> "Poly":
        """Weight (2-k) action: sum a_n (c x + d)^n (a x + b)^(k-n-2)."""
        k = self.weight
        out = [Fraction(0)] * (k - 1)
        for coeff, row in zip(self.coeffs, slash_matrix(gamma, k)):
            if coeff == 0:
                continue
            for i, t in enumerate(row):
                if t:
                    out[i] = out[i] + coeff * t
        return Poly(k, out)

    def __str__(self):
        from .exactnum import rational_to_str

        out = ""
        k = self.weight
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = k - n - 2
            if isinstance(c, CyclotomicElement):
                cs, neg = f"({c!r})", False
            else:
                neg = c < 0
                cs = rational_to_str(-c if neg else c)
            if power == 1:
                cs += "*x"
            elif power > 1:
                cs += f"*x^{power}"
            if not out:
                out = ("-" if neg else "") + cs
            else:
                out += (" - " if neg else " + ") + cs
        return out or "0"


def slash_matrix(gamma: Mat2, k: int) -> tuple[tuple[int, ...], ...]:
    """The weight (2-k) slash by gamma on coefficient vectors, in integers.

    Row n holds the descending coefficients of (c x + d)^n (a x + b)^(k-n-2),
    so p|gamma has coefficients sum over n of p.coeffs[n] * row n.
    """
    # ascending coefficients of the powers 0..k-2 of c x + d and of a x + b
    lower, upper = [[1]], [[1]]
    for _ in range(k - 2):
        lower.append(_poly_mul(lower[-1], [gamma.d, gamma.c]))
        upper.append(_poly_mul(upper[-1], [gamma.b, gamma.a]))
    return tuple(tuple(reversed(_poly_mul(lower[n], upper[k - 2 - n]))) for n in range(k - 1))


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                if qj:
                    out[i + j] += pi * qj
    return out


# -- continued fractions -----------------------------------------------------


def partial_quotients(x) -> list[int]:
    """Canonical continued fraction [a0; a1, ..., an] with final quotient >= 2."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    out = []
    while q:
        a = p // q
        out.append(a)
        p, q = q, p - a * q
    return out


def partial_quotient_max(x) -> int:
    """M(x) = max of a1..an; integers have no partial quotients and get 1."""
    quots = partial_quotients(x)[1:]
    return max(quots) if quots else 1


# -- seeded random congruence-subgroup elements ------------------------------


def random_gamma0(rng, n: int, size: int = 6) -> Mat2:
    """Random element of Gamma_0(N) with entries of moderate size."""
    while True:
        c = n * rng.randint(-size, size)
        d = rng.randint(-size * n, size * n)
        if gcd(abs(c), abs(d)) != 1:
            continue
        if c == 0:
            d = rng.choice((1, -1))
            return Mat2(d, rng.randint(-size, size) * d, 0, d)
        a = pow(d, -1, abs(c))
        a += abs(c) * rng.randint(0, 1)
        b = (a * d - 1) // c
        return Mat2(a, b, c, d)


def random_gamma1(rng, n: int, size: int = 6) -> Mat2:
    """Random element of Gamma_1(N) with entries of moderate size."""
    while True:
        c = n * rng.randint(1, size)
        d = 1 + n * rng.randint(-size, size)
        if gcd(c, abs(d)) != 1:
            continue
        # d = 1 mod N and N | c force a = d^-1 = 1 mod N as well
        a = pow(d, -1, c)
        b = (a * d - 1) // c
        m = Mat2(a, b, c, d)
        if not in_gamma1(m, n):
            raise CertificateError(f"random_gamma1 drew {m}, which is not in Gamma_1({n})")
        return m
