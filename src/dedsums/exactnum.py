"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Rationals are plain ``fractions.Fraction`` (always reduced, positive
denominator).  Cyclotomic numbers are kept in the power basis of Q(zeta_m)
modulo the m-th cyclotomic polynomial, so equality of canonical forms is
equality of field elements.  Every canonical form is reached one way: an
integer vector of exponents is reduced top down by the sparse Phi_m, whose
nonzero coefficients are cached once per order with the certificate that
Phi_m divides x^m - 1.  Products pack both numerator vectors into one integer
each (Kronecker substitution) and multiply once.  At orders 1 and 2, where
the field is Q, one signed sum of the weights stands in for the reduction.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable


class CertificateError(AssertionError):
    """An exact certificate failed; raised explicitly, so ``python -O`` keeps it."""


class Record:
    """A plain class with the attributes named in ``_fields``, bound once by the
    constructor from positional values, then keywords, in that order: equality
    (within one class), the hash and the repr read them in that order, and
    assignment or deletion raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values):]
            if len(values) > len(fields) or named.keys() != set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
            values += tuple([named[name] for name in rest])
        self.__dict__.update(zip(fields, values))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (p, e) pairs, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial Phi_m."""
    if m < 1:
        raise ValueError("order must be positive")
    # Phi_m = prod over d | m of (x^d - 1)^mu(m/d), and mu(m/d) != 0 only
    # for m/d a product of distinct primes of m: multiply by the binomials
    # with mu = +1, then divide exactly by those with mu = -1.
    mobius = [(1, 1)]
    for p, _ in factorize(m):
        mobius += [(e * p, -mu) for e, mu in mobius]
    poly = [1]
    for e, mu in mobius:
        if mu > 0:  # times x^d - 1
            d = m // e
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for e, mu in mobius:
        if mu < 0:  # divided by x^d - 1: quot[i] = quot[i - d] - poly[i]
            d = m // e
            quot = [-c for c in poly[: len(poly) - d]]
            for i in range(d, len(quot)):
                quot[i] += quot[i - d]
            # the top d coefficients of quot * (x^d - 1) must be poly's
            if poly[len(quot) :] != ([0] * d + quot)[-d:]:
                raise CertificateError(f"x^{d} - 1 does not divide the product for Phi_{m} exactly")
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_terms(m: int) -> tuple[tuple[int, int], ...]:
    """The nonzero coefficients (i, c) of Phi_m below its leading 1.

    Certified once per order: reducing x^m - 1 by them must leave 0, so that
    zeta_m^m = 1 in the field they define.
    """
    phi = cyclotomic_polynomial(m)
    terms = tuple([(i, c) for i, c in enumerate(phi[:-1]) if c])
    if any(_reduce([-1] + [0] * (m - 1) + [1], len(phi) - 1, terms)):
        raise CertificateError(f"Phi_{m} does not divide x^{m} - 1: zeta^{m} != 1")
    return terms


def _reduce(vec: list[int], deg: int, terms) -> list[int]:
    """The remainder of the integer polynomial ``vec`` (ascending, changed in
    place) modulo the monic x^deg + sum(c x^i for i, c in terms), top down."""
    for top in range(len(vec) - 1, deg - 1, -1):
        x = vec[top]
        if x:
            shift = top - deg
            for i, c in terms:
                vec[shift + i] -= x * c
    return vec[:deg]


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The coefficients of the product of two integer polynomials of equal
    length n, from one big-integer product (Kronecker substitution).

    Each is packed into signed slots of w bits, w two bits wider than the
    bound max|a| max|b| n on every product coefficient; the 2n - 1 slots of
    the product are read back low to high with borrows, and a nonzero
    remainder raises CertificateError.
    """
    n = len(a)
    w = (max(map(abs, a)) * max(map(abs, b)) * n).bit_length() + 2
    pa = pb = 0
    for x, y in zip(reversed(a), reversed(b)):
        pa = (pa << w) + x
        pb = (pb << w) + y
    prod = pa * pb
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    for _ in range(2 * n - 1):
        x = prod & mask
        if x >= half:
            x -= mask + 1
        out.append(x)
        prod = (prod - x) >> w
    if prod:
        raise CertificateError(f"the packed product leaves {prod} past its {2 * n - 1} slots")
    return out


def _numerators(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class CyclotomicElement:
    """An element of Q(zeta_m) as sum(coeffs[i] * zeta_m^i, i < phi(m)).

    Immutable.  Addition and multiplication require both operands to live in
    the same order m; use :meth:`embed` to lift first.  Plain ints and
    Fractions mix freely as constants.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Fraction]):
        deg = euler_phi(order)
        cs = tuple([c if type(c) is Fraction else Fraction(c) for c in coeffs])
        if len(cs) != deg:
            raise ValueError(f"expected {deg} coefficients for order {order}, got {len(cs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *args):
        raise AttributeError("CyclotomicElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicElement":
        deg = euler_phi(order)
        return cls(order, [value] + [0] * (deg - 1))

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicElement":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicElement":
        return cls.from_rational(1, order)

    @classmethod
    def root_of_unity(cls, order: int, exponent: int = 1) -> "CyclotomicElement":
        """zeta_order^exponent in canonical form."""
        return cls.from_terms(order, [(exponent, 1)])

    @classmethod
    def from_terms(cls, order: int, terms, denom: int = 1) -> "CyclotomicElement":
        """sum(w * zeta_order^e for (e, w) in terms) / denom in canonical form.

        Weights (ints or Fractions) are summed per exponent mod order into
        one integer vector over their common denominator, which
        :func:`_reduce` takes modulo Phi_order.  At orders 1 and 2 the field
        is Q and zeta^e is 1 or (-1)^e: the value is one signed sum of the
        weights over denom, with no reduction.
        """
        if order <= 2:
            total = sum([-w if e % order else w for e, w in terms])
            return cls(order, [Fraction(total, denom)])
        sums: dict[int, Fraction] = {}
        for e, w in terms:
            if w:
                e %= order
                sums[e] = sums.get(e, 0) + w
        nums, den = _numerators(sums.values())
        vec = [0] * order
        for e, n in zip(sums, nums):
            vec[e] = n
        return cls._reduced(order, vec, den * denom)

    @classmethod
    def _reduced(cls, order: int, vec: list[int], den: int) -> "CyclotomicElement":
        """The integer vector ``vec`` of exponents below ``order``, over den,
        reduced modulo Phi_order."""
        coeffs = _reduce(vec, euler_phi(order), _phi_terms(order))
        return cls(order, [Fraction(x, den) for x in coeffs])

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        m = self.order
        return sum(
            float(c) * cmath.exp(2j * cmath.pi * i / m)
            for i, c in enumerate(self.coeffs)
            if c
        ) + 0j

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "CyclotomicElement":
        if isinstance(other, CyclotomicElement):
            if other.order != self.order:
                raise ValueError(
                    f"mixed cyclotomic orders {self.order} and {other.order}; "
                    "lift with embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.from_rational(other, self.order)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CyclotomicElement(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CyclotomicElement(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CyclotomicElement(self.order, [a * q for a in self.coeffs])
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        m = self.order
        if m <= 2:
            return CyclotomicElement(m, [self.coeffs[0] * o.coeffs[0]])
        a, da = _numerators(self.coeffs)
        b, db = _numerators(o.coeffs)
        vec = _convolve(a, b)
        for e in range(m, len(vec)):  # zeta^e = zeta^(e - m)
            vec[e - m] += vec[e]
        return CyclotomicElement._reduced(m, vec[:m], da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CyclotomicElement(self.order, [a / q for a in self.coeffs])
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        result = CyclotomicElement.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "CyclotomicElement":
        """Complex conjugation, zeta_m -> zeta_m^(-1)."""
        terms = ((-i, c) for i, c in enumerate(self.coeffs))
        return CyclotomicElement.from_terms(self.order, terms)

    def embed(self, new_order: int) -> "CyclotomicElement":
        """The same number expressed in Q(zeta_new_order)."""
        if new_order % self.order != 0:
            raise ValueError(f"{new_order} is not a multiple of order {self.order}")
        step = new_order // self.order
        terms = ((i * step, c) for i, c in enumerate(self.coeffs))
        return CyclotomicElement.from_terms(new_order, terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        m = lcm(self.order, other.order)
        return self.embed(m).coeffs == other.embed(m).coeffs

    __hash__ = None  # mutable-free but cross-order equality forbids hashing

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.coeffs[0]})"
        terms = [f"{c}*z{self.order}^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Cyc(" + " + ".join(terms) + ")"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coefficients": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "CyclotomicElement":
        return cls(data["order"], [Fraction(c) for c in data["coefficients"]])


def rational_gcd_set(values) -> Fraction:
    """Largest r >= 0 with every value in r*Z (0 if all values vanish).

    The generator of the Z-module the values span: gcd(a_i)/lcm(b_i) for
    reduced fractions a_i/b_i.  Each value is an integer multiple of it and
    the multiples have gcd 1: for a prime p | lcm(b_i), the b_i of top
    p-valuation has p not dividing its a_i.  Ints and Fractions are used as
    they are.
    """
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    if not values:
        raise ValueError("rational_gcd_set of an empty set")
    return Fraction(gcd(*(v.numerator for v in values)), lcm(*(v.denominator for v in values)))
