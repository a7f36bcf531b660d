"""Dirichlet characters mod q: construction, enumeration, exact evaluation.

A character is stored by its exponents on a fixed generating set of the unit
group (Z/qZ)*: one generator per odd prime-power factor (the smallest
primitive root, chosen deterministically) and the pair {-1, 5} for 2^k with
k >= 3.  Values are exact cyclotomic numbers.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from math import gcd, prod

from .exactnum import CertificateError, CyclotomicElement, Record, euler_phi, factorize, lcm


def _multiplicative_order(a: int, m: int) -> int:
    order = 1
    x = a % m
    while x != 1:
        x = x * a % m
        order += 1
    return order


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
        # full dlog table: unit -> exponent tuple, first generator slowest
        powers = [[pow(g, e, q) for e in range(d)] for g, d in zip(gens, orders)]
        table = {
            prod(units) % q: exps
            for exps, units in zip(product(*map(range, orders)), product(*powers))
        }
        total = euler_phi(q)
        if len(table) != total:
            raise CertificateError(f"dlog table mod {q} has {len(table)} units, expected {total}")
        self.dlog = table


class DirichletCharacter(Record):
    """A Dirichlet character mod q given by exponents on the unit-group generators.

    Equality and hash read ``modulus`` and ``exponents`` only, not the cached
    properties."""

    _fields = ("modulus", "exponents")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        group = unit_group(modulus)
        if len(exponents) != len(group.orders):
            raise ValueError("exponent vector does not match the group structure")
        super().__init__(modulus, tuple(e % d for e, d in zip(exponents, group.orders)))

    @property
    def group(self) -> UnitGroup:
        return unit_group(self.modulus)

    @cached_property
    def order(self) -> int:
        return lcm(*(d // gcd(e, d) for e, d in zip(self.exponents, self.group.orders)))

    @cached_property
    def value_exponents(self) -> tuple:
        """value_exponent(n) for every n mod q, from the dlog table once per character."""
        group = self.group
        # chi(n) = prod zeta_d^(e*t); collect in zeta_L with L the group exponent,
        # then rescale to the character's own order.
        o = self.order
        L = lcm(*group.orders)
        steps = [e * (L // d) for e, d in zip(self.exponents, group.orders)]
        out = []
        for n in range(self.modulus):
            exps = group.dlog.get(n)
            if exps is None:
                out.append(None)
                continue
            big = sum(s * t for s, t in zip(steps, exps)) % L
            if big * o % L:
                raise CertificateError(f"chi({n}) is not an {o}-th root of unity")
            out.append(big * o // L % o)
        return tuple(out)

    def value_exponent(self, n: int):
        """r with chi(n) = zeta_order^r, or None when gcd(n, q) > 1: one lookup
        in :attr:`value_exponents`."""
        return self.value_exponents[n % self.modulus]

    def __call__(self, n: int) -> CyclotomicElement:
        r = self.value_exponent(n)
        if r is None:
            return CyclotomicElement.zero(self.order)
        return CyclotomicElement.root_of_unity(self.order, r)

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, tuple(-e for e in self.exponents))

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)


def characters_mod(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q in deterministic lexicographic order."""
    group = unit_group(q)
    return [DirichletCharacter(q, exps) for exps in product(*map(range, group.orders))]


@lru_cache(maxsize=None)
def character_by_index(q: int, index: int) -> DirichletCharacter:
    """characters_mod(q)[index], one object per (q, index): the index is read
    as mixed-radix digits over the factor orders, the last factor fastest."""
    if q < 1:
        raise UnknownCharacterError(f"modulus {q} is not positive")
    orders = unit_group(q).orders
    if not 0 <= index < prod(orders):
        raise UnknownCharacterError(f"character index {index} out of range for modulus {q}")
    exps = []
    for d in reversed(orders):
        index, e = divmod(index, d)
        exps.append(e)
    return DirichletCharacter(q, tuple(reversed(exps)))


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


def gauss_sum(chi: DirichletCharacter) -> CyclotomicElement:
    """tau(chi) = sum of chi(n) zeta_q^n, exact in Q(zeta_lcm(order, q))."""
    q = chi.modulus
    m = lcm(chi.order, q)
    step_order = m // q
    step_chi = m // chi.order
    exps = ((n, chi.value_exponent(n)) for n in range(1, q + 1))
    terms = [(r * step_chi + n * step_order, 1) for n, r in exps if r is not None]
    return CyclotomicElement.from_terms(m, terms)


def central_exponent(chi1: DirichletCharacter, chi2: DirichletCharacter, gamma) -> tuple[int, int]:
    """(m, e) with psi(gamma) = zeta_m^e, for gamma in Gamma_0(q1 q2): with
    chi_i(d) = zeta_{o_i}^{e_i}, m = lcm(o1, o2) and e = e1 m/o1 - e2 m/o2."""
    n = chi1.modulus * chi2.modulus
    if gamma.c % n != 0:
        raise ValueError(f"matrix is not in Gamma_0({n})")
    o1, o2 = chi1.order, chi2.order
    m = lcm(o1, o2)
    e1, e2 = chi1.value_exponent(gamma.d), chi2.value_exponent(gamma.d)
    return m, e1 * (m // o1) - e2 * (m // o2)


_NAMED_BASE = {"chi3": 3, "chi4": 4, "chi5": 5, "chi7": 7, "chi8a": 8, "chi8b": 8}


class UnknownCharacterError(ValueError):
    """A character tag, q:index spec or character pair spec that names nothing."""


def named_character(tag: str) -> DirichletCharacter:
    """The quadratic primitive characters chi3, chi4, chi5, chi7, chi8a, chi8b,
    one object per tag."""
    return _named_character(tag.replace("χ", "chi").strip())


@lru_cache(maxsize=None)
def _named_character(tag: str) -> DirichletCharacter:
    if tag not in _NAMED_BASE:
        raise UnknownCharacterError(f"unknown character tag {tag!r}")
    q = _NAMED_BASE[tag]
    candidates = [
        chi for chi in characters_mod(q) if chi.order == 2 and is_primitive(chi)
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
