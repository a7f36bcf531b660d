"""Dirichlet characters mod q: construction, enumeration, exact evaluation.

A character is stored by its exponents on a fixed generating set of the unit
group (Z/qZ)*: one generator per odd prime-power factor (the smallest
primitive root, chosen deterministically) and the pair {-1, 5} for 2^k with
k >= 3.  Values are exact cyclotomic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .exactnum import CertificateError, CyclotomicElement, euler_phi, factorize, lcm


def _multiplicative_order(a: int, m: int) -> int:
    order = 1
    x = a % m
    while x != 1:
        x = x * a % m
        order += 1
    return order


@lru_cache(maxsize=None)
def primitive_root(m: int) -> int:
    """Smallest primitive root mod m (m an odd prime power)."""
    target = euler_phi(m)
    for g in range(2, m):
        if gcd(g, m) == 1 and _multiplicative_order(g, m) == target:
            return g
    raise ValueError(f"no primitive root mod {m}")


@lru_cache(maxsize=None)
def unit_group(q: int) -> "UnitGroup":
    return UnitGroup(q)


class UnitGroup:
    """CRT decomposition of (Z/qZ)* into cyclic factors with dlog tables."""

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("modulus must be positive")
        self.q = q
        gens: list[int] = []      # generator of each cyclic factor, lifted mod q
        orders: list[int] = []    # order of each factor
        for p, e in factorize(q):
            pe = p**e
            rest = q // pe
            if p == 2:
                if e == 1:
                    continue
                if e == 2:
                    local = [(3, 2)]
                else:
                    local = [(pe - 1, 2), (5, 2 ** (e - 2))]
            else:
                local = [(primitive_root(pe), euler_phi(pe))]
            for g, d in local:
                # lift to a generator that is 1 mod the complement
                if rest == 1:
                    lifted = g % q
                else:
                    inv = pow(rest, -1, pe)
                    lifted = (1 + rest * inv * (g - 1)) % q
                gens.append(lifted)
                orders.append(d)
        self.generators = tuple(gens)
        self.orders = tuple(orders)
        # full dlog table: unit -> exponent tuple
        table: dict[int, tuple[int, ...]] = {}
        exps = [0] * len(gens)
        total = euler_phi(q)
        value = 1

        def rec(i: int, value: int):
            if i == len(gens):
                table[value] = tuple(exps)
                return
            v = value
            for e in range(orders[i]):
                exps[i] = e
                rec(i + 1, v)
                v = v * gens[i] % q
            exps[i] = 0

        rec(0, 1 % q)
        if len(table) != total:
            raise CertificateError(f"dlog table mod {q} has {len(table)} units, expected {total}")
        self.dlog = table


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q given by exponents on the unit-group generators."""

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        group = unit_group(self.modulus)
        if len(self.exponents) != len(group.orders):
            raise ValueError("exponent vector does not match the group structure")
        object.__setattr__(
            self, "exponents", tuple(e % d for e, d in zip(self.exponents, group.orders))
        )

    @property
    def group(self) -> UnitGroup:
        return unit_group(self.modulus)

    @property
    def order(self) -> int:
        o = 1
        for e, d in zip(self.exponents, self.group.orders):
            o = lcm(o, d // gcd(e, d))
        return o

    def value_exponent(self, n: int):
        """r with chi(n) = zeta_order^r, or None when gcd(n, q) > 1."""
        q = self.modulus
        n %= q
        group = self.group
        exps = group.dlog.get(n)
        if exps is None:
            return None
        # chi(n) = prod zeta_d^(e*t); collect in zeta_L with L the group exponent,
        # then rescale to the character's own order.
        o = self.order
        L = 1
        for d in group.orders:
            L = lcm(L, d)
        big = 0
        for e, t, d in zip(self.exponents, exps, group.orders):
            big += e * t * (L // d)
        big %= L
        if big * o % L:
            raise CertificateError(f"chi({n}) is not an {o}-th root of unity")
        return big * o // L % o

    def __call__(self, n: int) -> CyclotomicElement:
        r = self.value_exponent(n)
        if r is None:
            return CyclotomicElement.zero(self.order)
        return CyclotomicElement.root_of_unity(self.order, r)

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, tuple(-e for e in self.exponents))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.modulus != other.modulus:
            raise ValueError("character product needs a common modulus")
        return DirichletCharacter(
            self.modulus, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "generators": list(self.group.generators),
            "exponents": list(self.exponents),
        }


def characters_mod(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q in deterministic lexicographic order."""
    group = unit_group(q)
    chars = []

    def rec(i: int, prefix: tuple[int, ...]):
        if i == len(group.orders):
            chars.append(DirichletCharacter(q, prefix))
            return
        for e in range(group.orders[i]):
            rec(i + 1, prefix + (e,))

    rec(0, ())
    return chars


def character_by_index(q: int, index: int) -> DirichletCharacter:
    if q < 1:
        raise UnknownCharacterError(f"modulus {q} is not positive")
    chars = characters_mod(q)
    if not 0 <= index < len(chars):
        raise UnknownCharacterError(f"character index {index} out of range for modulus {q}")
    return chars[index]


def conductor(chi: DirichletCharacter) -> int:
    """Smallest modulus d | q through which chi factors."""
    q = chi.modulus
    for d in sorted(i for i in range(1, q + 1) if q % i == 0):
        if all(
            chi.value_exponent(n) == 0
            for n in range(1, q + 1)
            if n % d == 1 % d and gcd(n, q) == 1
        ):
            return d
    return q


def is_primitive(chi: DirichletCharacter) -> bool:
    return conductor(chi) == chi.modulus


def parity(chi: DirichletCharacter) -> int:
    """chi(-1), either +1 or -1."""
    r = chi.value_exponent(-1)
    return 1 if r == 0 else -1


def is_quadratic(chi: DirichletCharacter) -> bool:
    return chi.order == 2


def gauss_sum(chi: DirichletCharacter) -> CyclotomicElement:
    """tau(chi) = sum of chi(n) zeta_q^n, exact in Q(zeta_lcm(order, q))."""
    q = chi.modulus
    m = lcm(chi.order, q)
    total = CyclotomicElement.zero(m)
    step_order = m // q
    step_chi = m // chi.order
    for n in range(1, q + 1):
        r = chi.value_exponent(n)
        if r is None:
            continue
        total = total + CyclotomicElement.root_of_unity(m, r * step_chi + n * step_order)
    return total


def central_character(chi1: DirichletCharacter, chi2: DirichletCharacter, gamma) -> CyclotomicElement:
    """psi(gamma) = chi1(d) * conj(chi2(d)) for gamma in Gamma_0(q1 q2)."""
    n = chi1.modulus * chi2.modulus
    if gamma.c % n != 0:
        raise ValueError(f"matrix is not in Gamma_0({n})")
    m = lcm(chi1.order, chi2.order)
    return chi1(gamma.d).embed(m) * chi2(gamma.d).conj().embed(m)


_NAMED_BASE = {"chi3": 3, "chi4": 4, "chi5": 5, "chi7": 7, "chi8a": 8, "chi8b": 8}


class UnknownCharacterError(ValueError):
    """A character tag, q:index spec or character pair spec that names nothing."""


def named_character(tag: str) -> DirichletCharacter:
    """The quadratic primitive characters chi3, chi4, chi5, chi7, chi8a, chi8b."""
    tag = tag.replace("χ", "chi").strip()
    if tag not in _NAMED_BASE:
        raise UnknownCharacterError(f"unknown character tag {tag!r}")
    q = _NAMED_BASE[tag]
    candidates = [
        chi for chi in characters_mod(q) if is_quadratic(chi) and is_primitive(chi)
    ]
    if q != 8:
        if len(candidates) != 1:
            raise CertificateError(f"{len(candidates)} quadratic primitive characters mod {q}")
        return candidates[0]
    want = 1 if tag == "chi8a" else -1
    for chi in candidates:
        v = chi(7)
        if v.rational_value() == want:
            return chi
    raise CertificateError("no quadratic primitive character mod 8 with the requested sign at 7")


def parse_character(spec: str) -> DirichletCharacter:
    """CLI form: a named tag (chi3, ...) or generic "q:index"."""
    spec = spec.strip()
    if ":" in spec:
        q_str, idx_str = spec.split(":", 1)
        try:
            q, idx = int(q_str), int(idx_str)
        except ValueError:
            raise UnknownCharacterError(f"expected q:index with integers, got {spec!r}") from None
        return character_by_index(q, idx)
    return named_character(spec)
