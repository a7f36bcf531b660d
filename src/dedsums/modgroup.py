"""SL2(Z) matrices, congruence subgroups, cusps, polynomial slash actions
(one vector by :func:`slash_vector`, the integer matrix by :func:`slash_matrix`).

Also holds the Fricke flip on cusps, the G_j(N) matrix families, the S/T
coset graph of Gamma_1(N), or of any group between it and Gamma_0(N) cut
out by a subgroup K of the units (Schreier generators, edges, BFS tree),
from one cached coset walk per level and K, and continued-fraction partial
quotients.  Matrices are built from integers; the text of a
``--matrix`` option is parsed by the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Sequence

from .exactnum import CertificateError, CyclotomicElement, Record, factorize


class Mat2(Record):
    """Integer matrix (a b; c d) with det 1, enforced at construction."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        super().__init__(a, b, c, d)
        if a * d - b * c != 1:
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


def in_gamma0(gamma: Mat2, n: int) -> bool:
    return gamma.c % n == 0


def in_gamma1(gamma: Mat2, n: int) -> bool:
    return gamma.c % n == 0 and gamma.a % n == 1 and gamma.d % n == 1


class Cusp(Record):
    """Reduced point p/q of P^1(Q) with q >= 0; (1, 0) encodes infinity."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        if q == 0:
            p = 1
        else:
            g = gcd(p, q) if q > 0 else -gcd(p, q)
            p //= g
            q //= g
        super().__init__(p, q)

    @classmethod
    def infinity(cls) -> "Cusp":
        return cls(1, 0)

    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self):
        return "inf" if self.q == 0 else f"{self.p}/{self.q}"


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


# -- coset BFS and Schreier generators ---------------------------------------


def gamma1_index(n: int) -> int:
    """[SL2(Z) : Gamma_1(N)] = prod p^(2e-2) (p^2 - 1) over p^e || N, for N >= 5."""
    index = 1
    for p, e in factorize(n):
        index *= p ** (2 * e - 2) * (p * p - 1)
    return index


# the relators of SL2(Z) = <S, T | S^4, (ST)^3 S^2> in the letters 0 = S, 1 = T
RELATORS = ((0, 0, 0, 0), (0, 1, 0, 1, 0, 1, 0, 0))


class CosetWalk(Record):
    """The S/T coset graph of :func:`coset_walk`.  ``edges[2 r + x]`` is
    (target, label) for coset r and letter x (0 = S, 1 = T), the label an
    index into ``generators``, or -1 where the edge reads I; ``back[t]`` is
    the coset whose T edge enters t, which is how T^-1 is read; ``tree[t]``
    is the BFS (parent, letter), letter 2 = T^-1, with rep(t) = rep(parent)
    letter, and (-1, -1) at the identity coset."""

    _fields = ("generators", "edges", "back", "tree")


@lru_cache(maxsize=None)
def coset_walk(n: int, kernel: tuple[int, ...] = (1,)) -> CosetWalk:
    """Right cosets of Gamma_K = {(a b; c d) in Gamma_0(N) : d mod N in K},
    K a subgroup of the units mod N as a tuple ((1,) gives Gamma_1(N)), by
    one BFS over S, T, T^-1 from the identity coset.  A coset is its K-orbit
    of bottom rows (u c, u d) mod N: when a coset is first met, every row
    of its orbit is keyed to it, so each later edge is one lookup of its
    own row.  The BFS labels each S and T edge r -> r x as it crosses it by
    the Schreier generator rep(r) x rep(r x)^-1, numbered in order of first
    appearance, and keeps the coset of r T^-1 as back[r]: its T edge enters
    r.  Certified: the cosets times |K| are the index of Gamma_1(N), and
    every generator has N | c and d mod N in K.  The walk runs on integer
    tuples; only the generators become Mat2s.
    """
    if n < 5:
        raise ValueError("coset keying by bottom row needs N >= 5 (so -I is not in Gamma_1)")
    # (index, rep) by every bottom row mod N of the coset's K-orbit
    cosets = dict.fromkeys([(0, u % n) for u in kernel], (0, (1, 0, 0, 1)))
    queue = [(1, 0, 0, 1)]  # the reps in index order, read as they are appended
    tree = [(-1, -1)]
    gens: dict[tuple[int, int, int, int], int] = {}
    edges, back = [], []
    for r, (a, b, c, d) in enumerate(queue):
        # r S, r T and r T^-1; the S and T edges are labelled
        for x, g in enumerate(((b, -a, d, -c), (a, a + b, c, c + d), (a, b - a, c, d - c))):
            entry = cosets.get((g[2] % n, g[3] % n))
            if entry is None:
                entry = (len(queue), g)
                for u in kernel:
                    cosets[u * g[2] % n, u * g[3] % n] = entry
                queue.append(g)
                tree.append((r, x))
            if x < 2:
                # u = g rep^-1, with rep^-1 = (d', -b'; -c', a')
                target, (ra, rb, rc, rd) = entry
                u = (g[0] * rd - g[1] * rc, g[1] * ra - g[0] * rb,
                     g[2] * rd - g[3] * rc, g[3] * ra - g[2] * rb)
                edges.append((target, -1 if u == (1, 0, 0, 1) else gens.setdefault(u, len(gens))))
            else:
                back.append(entry[0])
    if len(queue) * len(kernel) != gamma1_index(n):
        raise CertificateError(f"{len(queue)} cosets times |K| = {len(kernel)} is not the index")
    for u in gens:
        if u[2] % n or u[3] % n not in kernel:
            raise CertificateError(f"Schreier generator {u} is not in the group at level {n}")
    return CosetWalk(tuple(Mat2(*u) for u in gens), tuple(edges), tuple(back), tuple(tree))


def gamma1_generators(n: int) -> list[Mat2]:
    """Schreier generating set of Gamma_1(N) from the coset BFS (N >= 5), as a new list."""
    return list(coset_walk(n).generators)


# -- polynomials of degree <= k-2 and the weight (2-k) slash -----------------


class Poly(Record):
    """Polynomial sum(coeffs[n] x^(k-n-2)) of degree <= k-2.

    coeffs[0] multiplies the top power x^(k-2).  Fractions and
    CyclotomicElements (both 0 when they vanish) are kept; ints become Fractions.
    """

    _fields = ("weight", "coeffs")

    def __init__(self, weight: int, coeffs: Sequence):
        if weight < 2:
            raise ValueError("weight must be >= 2")
        coeffs = [c if isinstance(c, (Fraction, CyclotomicElement)) else Fraction(c) for c in coeffs]
        if len(coeffs) != weight - 1:
            raise ValueError(f"need {weight - 1} coefficients for weight {weight}")
        super().__init__(weight, coeffs)

    def eval(self, x):
        x = Fraction(x)
        acc = None
        for c in self.coeffs:
            acc = c if acc is None else acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        if self.weight != other.weight:
            raise ValueError("weights differ")
        return Poly(self.weight, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def slash(self, gamma: Mat2) -> "Poly":
        """Weight (2-k) action: sum a_n (c x + d)^n (a x + b)^(k-n-2)."""
        return Poly(self.weight, slash_vector(self.coeffs, (gamma.a, gamma.b, gamma.c, gamma.d)))

    def __str__(self):
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
                cs = str(-c if neg else c)
            if power == 1:
                cs += "*x"
            elif power > 1:
                cs += f"*x^{power}"
            if not out:
                out = ("-" if neg else "") + cs
            else:
                out += (" - " if neg else " + ") + cs
        return out or "0"


def slash_vector(coeffs: Sequence, gamma: tuple[int, int, int, int]) -> list:
    """The weight (2-k) slash of one coefficient vector (k = len(coeffs) + 1,
    coeffs[0] on x^(k-2)) by gamma = (a, b, c, d), in the coefficients' own
    arithmetic (ints, Fractions or CyclotomicElements): homogeneous Horner,
    sum coeffs[n] X^(k-2-n) Y^n with X = a x + b and Y = c x + d, in
    O(k^2) products where :func:`slash_matrix` takes O(k^3).
    """
    a, b, c, d = gamma
    acc, power = [coeffs[0]], [1]  # descending in x; power is Y^n
    for coeff in coeffs[1:]:
        power = [x * c + y * d for x, y in zip(power + [0], [0] + power)]
        acc = [x * a + y * b + coeff * p for x, y, p in zip(acc + [0], [0] + acc, power)]
    return acc


def slash_matrix(gamma: Mat2, k: int) -> tuple[tuple[int, ...], ...]:
    """The weight (2-k) slash by gamma on coefficient vectors, in integers,
    as its columns.

    Entry n of column i is the coefficient of x^(k-2-i) in
    (c x + d)^n (a x + b)^(k-n-2), so p|gamma has coefficient i equal to
    the sum over n of p.coeffs[n] * column i entry n.
    """
    # ascending coefficients of the powers 0..k-2 of c x + d and of a x + b
    lower, upper = [[1]], [[1]]
    for _ in range(k - 2):
        lower.append(_poly_mul(lower[-1], [gamma.d, gamma.c]))
        upper.append(_poly_mul(upper[-1], [gamma.b, gamma.a]))
    rows = [_poly_mul(lower[n], upper[k - 2 - n]) for n in range(k - 1)]
    # the rows ascend in x, so the columns come out from x^0 up; reverse them
    return tuple(zip(*rows))[::-1]


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                if qj:
                    out[i + j] += pi * qj
    return out


# -- continued fractions -----------------------------------------------------


def partial_quotients(p: int, q: int) -> list[int]:
    """Canonical continued fraction [a0; a1, ..., an] of p/q, final quotient >= 2."""
    if q == 0:
        raise ZeroDivisionError("continued fraction of p/0")
    out = []
    while q:
        a = p // q
        out.append(a)
        p, q = q, p - a * q
    return out


def partial_quotient_max(p: int, q: int) -> int:
    """M(p/q) = max of a1..an; integers have no partial quotients and get 1."""
    quots = partial_quotients(p, q)[1:]
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
