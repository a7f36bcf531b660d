"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Rationals are plain ``fractions.Fraction`` (always reduced, positive
denominator), re-exported here as ``Rational``.  Cyclotomic numbers are kept
in the power basis of Q(zeta_m) modulo the m-th cyclotomic polynomial, so
equality of canonical forms is equality of field elements.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

Rational = Fraction


class CertificateError(AssertionError):
    """An exact certificate failed; raised explicitly, so ``python -O`` keeps it."""


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


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def _poly_divmod(num: list[Fraction], den: Sequence[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Divide by a monic integer polynomial; coefficients ascending."""
    num = list(num)
    dden = len(den) - 1
    if den[dden] != 1:
        raise ValueError("divisor must be monic")
    quot = [Fraction(0)] * max(len(num) - dden, 0)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c:
            quot[i - dden] = c
            for j in range(dden + 1):
                num[i - dden + j] -= c * den[j]
    return quot, num[:dden]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial Phi_m."""
    if m < 1:
        raise ValueError("order must be positive")
    # x^m - 1 divided by Phi_d for all proper divisors d of m.
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if any(rem):
                raise CertificateError(f"Phi_{d} does not divide x^{m} - 1 exactly")
    if any(c.denominator != 1 for c in num):
        raise CertificateError(f"Phi_{m} has a non-integer coefficient")
    return tuple(int(c) for c in num)


class CyclotomicElement:
    """An element of Q(zeta_m) as sum(coeffs[i] * zeta_m^i, i < phi(m)).

    Immutable.  Addition and multiplication require both operands to live in
    the same order m; use :meth:`embed` / :func:`common_order` to lift
    first.  Plain ints and Fractions mix freely as constants.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Fraction]):
        deg = euler_phi(order)
        cs = tuple(Fraction(c) for c in coeffs)
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
        coeffs = [Fraction(value)] + [Fraction(0)] * (deg - 1)
        return cls(order, coeffs)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicElement":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicElement":
        return cls.from_rational(1, order)

    @classmethod
    def root_of_unity(cls, order: int, exponent: int = 1) -> "CyclotomicElement":
        """zeta_order^exponent in canonical form."""
        exponent %= order
        raw = [Fraction(0)] * order
        raw[exponent] = Fraction(1)
        return cls._from_raw(order, raw)

    @classmethod
    def _from_raw(cls, order: int, raw: list[Fraction]) -> "CyclotomicElement":
        """Reduce an arbitrary-degree coefficient list modulo Phi_order."""
        deg = euler_phi(order)
        if len(raw) > deg:
            _, raw = _poly_divmod(raw, cyclotomic_polynomial(order))
        raw = list(raw) + [Fraction(0)] * (deg - len(raw))
        return cls(order, raw)

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
        a, b = self.coeffs, o.coeffs
        raw = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        raw[i + j] += ai * bj
        return CyclotomicElement._from_raw(self.order, raw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CyclotomicElement(self.order, [a / q for a in self.coeffs])
        if isinstance(other, CyclotomicElement) and other.is_rational():
            return self / other.rational_value()
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
        m = self.order
        raw = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            if c:
                raw[(m - i) % m] += c
        return CyclotomicElement._from_raw(m, raw)

    def embed(self, new_order: int) -> "CyclotomicElement":
        """The same number expressed in Q(zeta_new_order)."""
        if new_order % self.order != 0:
            raise ValueError(f"{new_order} is not a multiple of order {self.order}")
        step = new_order // self.order
        raw = [Fraction(0)] * new_order
        for i, c in enumerate(self.coeffs):
            if c:
                raw[i * step] += c
        return CyclotomicElement._from_raw(new_order, raw)

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


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def common_order(x: CyclotomicElement, y: CyclotomicElement) -> tuple[CyclotomicElement, CyclotomicElement]:
    """Lift a pair into the smallest common cyclotomic field."""
    m = lcm(x.order, y.order)
    return x.embed(m), y.embed(m)


def rational_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def rational_gcd_set(values) -> Fraction:
    """Largest r >= 0 with every value in r*Z (0 if all values vanish).

    For reduced fractions a_i/b_i this is gcd of the numerators over a common
    denominator; equivalently the generator of the Z-module the values span.
    """
    values = list(values)
    if not values:
        raise ValueError("rational_gcd_set of an empty set")
    values = [Fraction(v) for v in values]
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    g = 0
    for v in values:
        g = gcd(g, abs(v.numerator) * (den // v.denominator))
        if g == 1 and den == 1:
            break
    return Fraction(g, den)
