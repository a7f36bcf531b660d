import ast
import cmath
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dedsums
from dedsums.analysis import BoundReport, ContainmentReport, DivisibilityTable, TableCell
from dedsums.characters import DirichletCharacter, named_character
from dedsums.dedekind import SumContext
from dedsums.exactnum import (
    CertificateError,
    CyclotomicElement,
    Record,
    _convolve,
    _phi_terms,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    rational_gcd_set,
)
from dedsums.modgroup import CosetWalk, Cusp, Mat2, Poly, coset_walk
from dedsums.oracle import TruncationPolicy

Z = CyclotomicElement.root_of_unity


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _poly_divmod(num, den):
    """Divide by a monic integer polynomial; coefficients ascending.

    Exact over Z and over Q: integer input gives integer output.
    """
    num = list(num)
    dden = len(den) - 1
    assert den[dden] == 1, "divisor must be monic"
    quot = [0] * max(len(num) - dden, 0)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c:
            quot[i - dden] = c
            for j in range(dden + 1):
                num[i - dden + j] -= c * den[j]
    return quot, num[:dden]


def long_division_cyclotomic(limit):
    """Phi_m for m <= limit as x^m - 1 divided by Phi_d for every proper
    divisor d of m, the construction the binomial products replaced."""
    phis = {}
    for m in range(1, limit + 1):
        num = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                num, rem = _poly_divmod(num, phis[d])
                assert not any(rem), (m, d)
        phis[m] = tuple(num)
    return phis


def test_binomial_cyclotomic_polynomials_match_long_division():
    for m, phi in long_division_cyclotomic(500).items():
        assert cyclotomic_polynomial(m) == phi, m
        assert len(phi) == euler_phi(m) + 1
        # zeta^m = 1 modulo Phi_m: x^m - 1 leaves no remainder, by long
        # division and by the certificate of the reduction (uncached)
        _, rem = _poly_divmod([-1] + [0] * (m - 1) + [1], phi)
        assert not any(rem), m
        assert _phi_terms.__wrapped__(m) == tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def test_cyclotomic_polynomial_certifies_each_division(monkeypatch):
    # with a wrong factorization the product is not divisible by its
    # binomials, and the exact division raises instead of truncating
    from dedsums import exactnum

    monkeypatch.setattr(exactnum, "factorize", lambda n: [(2, 1)] if n == 9 else factorize(n))
    with pytest.raises(CertificateError):
        cyclotomic_polynomial(9)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3000))
def test_factorize_and_euler_phi(n):
    factors = factorize(n)
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))
    assert all(p > 1 and all(p % d for d in range(2, isqrt(p) + 1)) for p in primes)
    assert all(e >= 1 for _, e in factors)
    assert prod(p**e for p, e in factors) == n
    assert euler_phi(n) == sum(1 for u in range(n) if gcd(u, n) == 1)


def test_no_assert_statements_in_the_package():
    # certificates must survive python -O, which strips assert statements
    for path in sorted(Path(dedsums.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_importing_the_package_and_cli_skips_dataclasses_and_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dedsums.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    for modules, unwanted in (
        # both cost start-up time that no dedsums code path needs
        ("dedsums, dedsums.cli", ("dataclasses", "inspect")),
        # only the CLI reads or writes text; the library parses none
        ("dedsums, dedsums.analysis, dedsums.oracle, dedsums.verify", ("json",)),
    ):
        script = (
            "import sys\n"
            f"import {modules}\n"
            f"loaded = [name for name in {unwanted!r} if name in sys.modules]\n"
            "sys.exit(f'imported {loaded}' if loaded else 0)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, (modules, result.stderr)


# two objects with equal fields of each immutable value type, and one field
VALUE_TYPE_PAIRS = [
    (Mat2(2, 1, 5, 3), Mat2(a=2, b=1, c=5, d=3), "a"),
    (Cusp(2, 4), Cusp(p=-1, q=-2), "q"),
    (DirichletCharacter(35, (1, 2)), DirichletCharacter(modulus=35, exponents=(5, 8)), "exponents"),
    (
        SumContext(named_character("chi5"), named_character("chi5"), 4),
        SumContext(chi1=DirichletCharacter(5, (2,)), chi2=named_character("chi5"), k=4),
        "k",
    ),
    (TruncationPolicy(1e-8), TruncationPolicy(tol=1e-8), "tol"),
    (coset_walk(9), CosetWalk(*coset_walk(9)._values()), "tree"),
]


@pytest.mark.parametrize(
    "x, y, name", VALUE_TYPE_PAIRS, ids=[type(x).__name__ for x, _, _ in VALUE_TYPE_PAIRS]
)
def test_immutable_value_types(x, y, name):
    assert x == y and x is not y and hash(x) == hash(y) and len({x, y}) == 1
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(y, name))
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1


def test_value_type_equality_is_per_class():
    assert Mat2(1, 0, 0, 1) != (1, 0, 0, 1)
    assert (1, 0, 0, 1) != Mat2(1, 0, 0, 1)
    assert Cusp(1, 2) != Mat2(1, 0, 2, 1) and Cusp(1, 2) != Cusp(1, 3)


# one object of each Record subclass outside VALUE_TYPE_PAIRS: the reports and
# Poly, most of which hold lists or dicts and so have no hash
REPORTS_AND_POLY = [
    TableCell(r=Fraction(4, 3), display="4/3", count=17, seconds=0.25),
    ContainmentReport(("chi5", "chi5"), 4, [(Mat2(1, 0, 0, 1), Poly(4, [0] * 3))], Fraction(6), Fraction(6, 5)),
    DivisibilityTable([("chi3", "chi3")], (2,), {}),
    BoundReport(count=3, max_ratio=0.5, trivial_bound_ok=True, delta_ok=True, exceptional=[0]),
    Poly(3, [1, 2]),
]


def test_every_record_class_is_covered():
    def subclasses(cls):
        return {cls} | {s for sub in cls.__subclasses__() for s in subclasses(sub)}

    covered = [x for x, _, _ in VALUE_TYPE_PAIRS] + REPORTS_AND_POLY
    assert {type(x) for x in covered} == subclasses(Record) - {Record}


ALL_RECORDS = [x for x, _, _ in VALUE_TYPE_PAIRS] + REPORTS_AND_POLY


@pytest.mark.parametrize("x", ALL_RECORDS, ids=[type(x).__name__ for x in ALL_RECORDS])
def test_every_record_binds_its_fields_by_position_or_keyword(x):
    cls, fields, values = type(x), x._fields, x._values()
    assert cls(*values) == x and cls(**dict(zip(fields, values))) == x
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == x
    with pytest.raises(TypeError, match=cls.__name__):  # missing
        cls(*values[:-1])
    with pytest.raises(TypeError, match=cls.__name__):  # unknown
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=cls.__name__):  # one value too many
        cls(*values, values[0])
    with pytest.raises(TypeError, match=cls.__name__):  # repeated
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("x", REPORTS_AND_POLY, ids=[type(x).__name__ for x in REPORTS_AND_POLY])
def test_reports_and_poly_refuse_assignment(x):
    before = repr(x)
    for name in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == before


def test_truncation_policy_for_factor_scales_the_tolerance():
    assert TruncationPolicy(tol=1e-8).for_factor(10).tol == 1e-9
    assert TruncationPolicy(tol=1e-8).for_factor(0.5).tol == 1e-8


def test_table_cell_survives_pickling():
    # cells cross the process pool of `table --jobs`
    cell = TableCell(r=Fraction(4, 3), display="4/3", count=17, seconds=0.25)
    back = pickle.loads(pickle.dumps(cell))
    assert back == cell and back is not cell
    assert (back.r, back.display, back.count, back.seconds) == (Fraction(4, 3), "4/3", 17, 0.25)


# every order up to 120 plus the largest fields of the crosscheck workload
REDUCTION_ORDERS = list(range(1, 121)) + [156, 342]


def dense_terms(m):
    """One weight at every exponent 0..2m, the widest input a product feeds in."""
    return [(e, Fraction(e % 7 - 3, e % 5 + 1)) for e in range(2 * m + 1)]


@st.composite
def cyclotomic_terms(draw):
    m = draw(st.sampled_from(REDUCTION_ORDERS))
    weight = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    terms = draw(st.lists(st.tuples(st.integers(0, 2 * m), weight), max_size=40))
    return m, terms, draw(st.integers(1, 30))


@settings(max_examples=200, deadline=None)
@given(case=cyclotomic_terms())
@example(case=(156, dense_terms(156), 1))
@example(case=(342, dense_terms(342), 7))
def test_from_terms_matches_long_division(case):
    # reference: the dense raw vector reduced by long division modulo Phi_m
    m, terms, denom = case
    raw = [Fraction(0)] * (2 * m + 1)
    for e, w in terms:
        raw[e] += w
    _, rem = _poly_divmod(raw, cyclotomic_polynomial(m))
    rem = [c / denom for c in rem] + [Fraction(0)] * (euler_phi(m) - len(rem))
    assert CyclotomicElement.from_terms(m, terms, denom).coeffs == tuple(rem)


def general_from_terms(order, terms, denom):
    """Reference: the general route at any order, the weights summed per
    exponent mod order and the vector long-divided by Phi_order."""
    raw = [Fraction(0)] * order
    for e, w in terms:
        raw[e % order] += w
    _, rem = _poly_divmod(raw, cyclotomic_polynomial(order))
    return CyclotomicElement(order, [c / denom for c in rem])


@settings(max_examples=200, deadline=None)
@given(
    order=st.sampled_from([1, 2]),
    terms=st.lists(
        st.tuples(
            st.integers(-50, 50),
            st.one_of(st.integers(-1000, 1000), st.fractions(max_denominator=40)),
        ),
        max_size=30,
    ),
    denom=st.integers(1, 60),
)
def test_rational_orders_match_the_general_route(order, terms, denom):
    # orders 1 and 2 skip the rows: one signed sum of the weights over denom
    assert CyclotomicElement.from_terms(order, terms, denom).coeffs == general_from_terms(
        order, terms, denom
    ).coeffs


# products: the small fields, order 60 of the CI pins and the Gauss-sum
# fields of the crosscheck workload (phi up to 128)
PRODUCT_ORDERS = [3, 4, 5, 8, 12, 16, 60, 100, 110, 156, 272, 342]
COORDINATE = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=60)


@st.composite
def cyclotomic_elements(draw, order=None):
    """(m, x): x in Q(zeta_m) with dense, zero or one-coordinate coordinates."""
    m = order or draw(st.sampled_from(PRODUCT_ORDERS))
    deg = euler_phi(m)
    kind = draw(st.sampled_from(["dense", "zero", "one"]))
    coeffs = [Fraction(0)] * deg
    if kind == "dense":
        coeffs = draw(st.lists(COORDINATE, min_size=deg, max_size=deg))
    elif kind == "one":
        coeffs[draw(st.integers(0, deg - 1))] = draw(COORDINATE)
    return m, CyclotomicElement(m, coeffs)


@st.composite
def cyclotomic_pairs(draw):
    m, x = draw(cyclotomic_elements())
    return m, x, draw(cyclotomic_elements(m))[1]


def schoolbook_product(x, y):
    """Reference: the phi^2 coordinate products summed per exponent and
    long-divided by Phi_m."""
    m, deg = x.order, euler_phi(x.order)
    raw = [Fraction(0)] * (2 * deg - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            raw[i + j] += a * b
    _, rem = _poly_divmod(raw, cyclotomic_polynomial(m))
    return tuple(rem)


def schoolbook_convolution(a, b):
    n = len(a)
    return [sum(a[i] * b[k - i] for i in range(max(0, k - n + 1), min(k, n - 1) + 1)) for k in range(2 * n - 1)]


def widest_slots(m, big):
    """Two elements of Q(zeta_m) with alternating coordinates +-big and
    +-(big + 1): the middle product coefficient sits at the bound
    max|a| max|b| phi the slot width is taken from, and the others alternate
    in sign, so that the decode borrows at every other slot."""
    deg = euler_phi(m)
    x = CyclotomicElement(m, [(-1) ** i * big for i in range(deg)])
    y = CyclotomicElement(m, [(-1) ** (i + 1) * (big + 1) for i in range(deg)])
    return m, x, y


@settings(max_examples=60, deadline=None)
@given(case=cyclotomic_pairs())
@example(case=widest_slots(272, 2**64 - 1))
@example(case=widest_slots(342, 3**40))
@example(case=widest_slots(60, 1))
@example(case=(3, CyclotomicElement(3, [0, 1]), CyclotomicElement(3, [-1, 0])))
def test_packed_product_matches_schoolbook_long_division(case):
    m, x, y = case
    assert (x * y).coeffs == schoolbook_product(x, y)


@pytest.mark.parametrize("n", [2, 4, 16, 108, 128])
@pytest.mark.parametrize("big", [1, 2**31 - 1, 3**40])
def test_packed_convolution_decodes_the_widest_slots(n, big):
    # all coordinates of one sign, and alternating: the middle coefficient is
    # +-n big (big + 1), the bound the slot width is taken from
    alternating = [(-1) ** i * big for i in range(n)]
    for a, b in (([big] * n, [-(big + 1)] * n), (alternating, [(-1) ** i * (big + 1) for i in range(n)])):
        got = _convolve(a, b)
        assert got == schoolbook_convolution(a, b)
        assert abs(got[n - 1]) == n * big * (big + 1)


@lru_cache(maxsize=None)
def inverse_root(m):
    """zeta_m^-1 as m - 1 products of zeta_m."""
    z, power = Z(m, 1), CyclotomicElement.one(m)
    for _ in range(m - 1):
        power = power * z
    assert power * z == 1
    return power


@settings(max_examples=40, deadline=None)
@given(case=cyclotomic_elements(), n=st.integers(0, 5))
def test_pow_and_conj_match_repeated_products(case, n):
    m, x = case
    power = CyclotomicElement.one(m)
    for _ in range(n):
        power = power * x
    assert (x**n).coeffs == power.coeffs
    # conj(x) = sum of c_i zeta^-i, the powers of zeta^-1 as repeated products
    total, step = CyclotomicElement.zero(m), CyclotomicElement.one(m)
    for c in x.coeffs:
        total += step * c
        step = step * inverse_root(m)
    assert x.conj().coeffs == total.coeffs


# Phi_m with one coefficient changed no longer divides x^m - 1, and the first
# from_terms at that order must raise.  Run in-process and under python -O.
PHI_CERTIFICATE_CHECKS = """
from dedsums import exactnum
from dedsums.exactnum import CertificateError, CyclotomicElement

# (order, index of the changed coefficient of Phi_order)
CASES = [(12, 2), (60, 5), (342, 0)]


def uncaught_corruptions():
    real = exactnum.cyclotomic_polynomial
    missed = []
    for m, i in CASES:

        def corrupted(n, m=m, i=i):
            phi = list(real(n))
            if n == m:
                phi[i] += 1
            return tuple(phi)

        exactnum.cyclotomic_polynomial = corrupted
        exactnum._phi_terms.cache_clear()
        try:
            CyclotomicElement.from_terms(m, [(1, 1)])
            missed.append(m)
        except CertificateError:
            pass
        finally:
            exactnum.cyclotomic_polynomial = real
            exactnum._phi_terms.cache_clear()
    return missed
"""


def test_corrupt_cyclotomic_polynomial_fails_the_certificate():
    scope = {}
    exec(PHI_CERTIFICATE_CHECKS, scope)
    assert scope["uncaught_corruptions"]() == []
    script = PHI_CERTIFICATE_CHECKS + (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "missed = uncaught_corruptions()\n"
        "sys.exit(repr(missed) if missed else 0)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dedsums.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONOPTIMIZE", None)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_i_squared_is_minus_one():
    assert Z(4, 1) * Z(4, 1) == CyclotomicElement.from_rational(-1, 4)


def test_conj_of_zeta3():
    # zeta_3^-1 = zeta_3^2 = -1 - zeta_3 after reduction mod Phi_3
    assert Z(3, 1).conj() == CyclotomicElement(3, [Fraction(-1), Fraction(-1)])


def test_cube_roots_sum_to_zero():
    total = CyclotomicElement.one(3) + Z(3, 1) + Z(3, 2)
    assert total.is_zero()


def test_ring_operations():
    x, y = Z(4, 1), Z(4, 3)  # i and -i
    assert x * y == 1
    assert (x + y).is_zero()
    assert -x == y
    assert x.conj() == y


def test_mixed_orders_require_lifting():
    with pytest.raises(ValueError):
        Z(3, 1) + Z(4, 1)
    a, b = Z(3, 1).embed(12), Z(4, 1).embed(12)
    assert a.order == b.order == 12
    assert a * b == Z(12, 7)


def test_embed_zeta3_into_order_12():
    assert Z(3, 1).embed(12) == Z(12, 4)


def test_embed_rational_any_order():
    x = CyclotomicElement.from_rational(Fraction(5, 3))
    for m in (2, 8, 15):
        e = x.embed(m)
        assert e.is_rational() and e.rational_value() == Fraction(5, 3)


def test_embed_requires_multiple():
    with pytest.raises(ValueError):
        Z(4, 1).embed(6)


def test_embed_then_add_matches_complex():
    # direct sum in Q(zeta_12) against the two complex exponentials
    total = Z(3, 1).embed(12) + Z(4, 1).embed(12)
    expect = cmath.exp(2j * cmath.pi / 3) + 1j
    assert abs(total.to_complex() - expect) < 1e-12


def test_to_complex_examples():
    assert abs(Z(4, 1).to_complex() - 1j) < 1e-15
    assert abs(CyclotomicElement.from_rational(Fraction(3, 2)).to_complex() - 1.5) < 1e-15
    assert abs((Z(3, 1) - Z(3, 2)).to_complex() - 1j * cmath.sqrt(3)) < 1e-12


def test_random_mul_matches_complex():
    rng = random.Random(101)
    for _ in range(60):
        m = rng.choice([3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24])
        deg = euler_phi(m)
        x = CyclotomicElement(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)])
        y = CyclotomicElement(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)])
        assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-10


def test_conj_is_involutive_ring_automorphism():
    rng = random.Random(55)
    for _ in range(40):
        m = rng.choice([5, 8, 12, 15, 24])
        deg = euler_phi(m)
        x = CyclotomicElement(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(deg)])
        y = CyclotomicElement(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(deg)])
        assert x.conj().conj() == x
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()


def test_power_and_division():
    assert Z(8, 1) ** 8 == 1
    assert (Z(4, 1) * 6) / 3 == Z(4, 1) * 2


def test_serialization_round_trip():
    x = Z(12, 7) * Fraction(3, 5) + Fraction(1, 2)
    assert CyclotomicElement.from_json(x.to_json()) == x


# -- rational gcd ------------------------------------------------------------


def brute_force_gcd(values, span=40):
    """Smallest positive Z-linear combination, by direct search."""
    values = [Fraction(v) for v in values]
    best = None
    coeffs = range(-span, span + 1)

    def rec(i, acc):
        nonlocal best
        if i == len(values):
            if acc > 0 and (best is None or acc < best):
                best = acc
            return
        for c in coeffs:
            rec(i + 1, acc + c * values[i])

    if len(values) <= 2:
        rec(0, Fraction(0))
        return best
    raise NotImplementedError


def test_rational_gcd_pair_matches_brute_force():
    vals = [Fraction(2, 3), Fraction(4, 5)]
    assert brute_force_gcd(vals) == Fraction(2, 15)
    assert rational_gcd_set(vals) == Fraction(2, 15)


def test_rational_gcd_all_zero():
    assert rational_gcd_set([0, Fraction(0)]) == 0


def test_rational_gcd_mixed():
    # common denominator 3: numerators 6, 6, 10, 42 with gcd 2
    assert rational_gcd_set([2, 2, Fraction(10, 3), 14]) == Fraction(2, 3)


def test_rational_gcd_empty_set_errors():
    with pytest.raises(ValueError):
        rational_gcd_set([])


def test_rational_gcd_divides_and_is_maximal():
    rng = random.Random(7)
    for _ in range(50):
        vals = [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 6))
        ]
        r = rational_gcd_set(vals)
        if r == 0:
            assert all(v == 0 for v in vals)
            continue
        assert all((v / r).denominator == 1 for v in vals)
        # nothing strictly larger in the divisibility order works
        for mult in (2, 3, 5):
            bigger = r * mult
            assert not all((v / bigger).denominator == 1 for v in vals if v)


def lcm_numerator_gcd(values) -> Fraction:
    """Reference: the gcd of the numerators over the least common denominator."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return Fraction(gcd(*(v.numerator * (den // v.denominator) for v in values)), den)


VALUE = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4),
    st.just(0),
    st.just(Fraction(0)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUE, min_size=1, max_size=12))
def test_rational_gcd_matches_lcm_numerator_formula(values):
    got = rational_gcd_set(values)
    assert got == lcm_numerator_gcd(values)
    assert type(got) is Fraction
