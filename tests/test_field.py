import hashlib
import random

import pytest

from sympwalk.errors import (
    DivisionByZeroError,
    FieldTooLargeError,
    NotPrimeError,
)
from sympwalk.field import (
    FieldSpec,
    PolyFq,
    build_field,
    enumerate_irreducibles,
    field_from_order,
    irreducible_count,
    is_irreducible,
    is_prime,
)

PRIME_POWERS_16 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


def test_build_field_moduli_are_deterministic():
    assert build_field(2, 1).modulus == (0, 1)  # the polynomial x
    assert build_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1, the only choice
    assert build_field(3, 1).modulus == (0, 1)


def test_extension_moduli_are_pinned():
    # every extension field with p <= 1024 and p^k <= 2^20 (242 fields):
    # element codes mean the same thing only while the moduli stay fixed
    fields = []
    for p in filter(is_prime, range(2, 1025)):
        k = 2
        while p ** k <= 2 ** 20:
            fields.append((p, k, build_field(p, k).modulus))
            k += 1
    assert len(fields) == 242
    digest = hashlib.sha256(repr(fields).encode()).hexdigest()
    assert digest == "18d74e0be467049cdb2a980dafab1f97f53b312e82195b4aa35d57de52a08a57"


def test_reducible_modulus_is_rejected():
    with pytest.raises(ValueError, match="modulus is reducible"):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over F_2


def test_direct_fieldspec_above_the_build_cap():
    p = next(filter(is_prime, range(2 ** 20 + 1, 2 ** 21)))
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)  # non-residue
    with pytest.raises(FieldTooLargeError):
        build_field(p, 2)
    F = FieldSpec(p, 2, (-c, 0, 1))  # x^2 - c
    assert F.q == p * p and F.modulus == (p - c, 0, 1)
    x = p  # the code of the class of x
    assert F.mul(x, x) == c
    assert F.mul(x, F.inv(x)) == 1


def test_build_field_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        build_field(4, 1)
    with pytest.raises(NotPrimeError):
        build_field(1, 1)
    with pytest.raises(FieldTooLargeError):
        build_field(2, 25)
    with pytest.raises(NotPrimeError):
        field_from_order(6)


def test_basic_arithmetic_examples():
    F2 = build_field(2, 1)
    assert F2.add(1, 1) == 0
    F4 = build_field(2, 2)
    g = 2  # the class of x
    assert F4.mul(g, g) == 3  # x^2 = x + 1 under x^2+x+1
    F3 = build_field(3, 1)
    assert F3.inv(2) == 2  # 2*2 = 4 = 1


def test_division_by_zero():
    F3 = build_field(3, 1)
    with pytest.raises(DivisionByZeroError):
        F3.inv(0)


@pytest.mark.parametrize("p,k", PRIME_POWERS_16)
def test_dot_and_axpy_match_scalar_arithmetic(p, k):
    # every (c, a, b) triple: x runs over all codes, y over each rotation
    F = build_field(p, k)
    x = list(F.elements())
    for shift in range(F.q):
        y = x[shift:] + x[:shift]
        want = 0
        for a, b in zip(x, y):
            want = F.add(want, F.mul(a, b))
        assert F.dot(x, y) == want
        for c in F.elements():
            assert F.axpy(c, x, y) == [F.add(b, F.mul(c, a)) for a, b in zip(x, y)]


@pytest.mark.parametrize("p,k", PRIME_POWERS_16)
def test_poly_ops_match_scalar_arithmetic(p, k):
    """PolyFq +, -, * and divmod against schoolbook loops over the scalar
    add, neg, mul and inv, on random polynomials of degree -1 to 6."""
    F = build_field(p, k)
    rng = random.Random(100 * p + k)

    def sum_of(a, b):
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return [F.add(x, y) for x, y in zip(a, b)]

    for _ in range(40):
        a, b = ([rng.randrange(F.q) for _ in range(rng.randrange(8))] for _ in range(2))
        pa, pb = PolyFq(F, a), PolyFq(F, b)
        assert pa + pb == PolyFq(F, sum_of(a, b))
        assert pa - pb == PolyFq(F, sum_of(a, [F.neg(y) for y in b]))
        prod = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = F.add(prod[i + j], F.mul(x, y))
        assert pa * pb == PolyFq(F, prod)
        if pb.is_zero:
            continue
        rem, quot = list(pa.coeffs), [0] * len(a)
        lead_inv = F.inv(pb.coeffs[-1])
        while len(rem) > pb.degree:
            c = F.mul(rem[-1], lead_inv)
            quot[len(rem) - 1 - pb.degree] = c
            for i, y in enumerate(pb.coeffs):
                j = len(rem) - 1 - pb.degree + i
                rem[j] = F.add(rem[j], F.neg(F.mul(c, y)))
            rem.pop()
        assert divmod(pa, pb) == (PolyFq(F, quot), PolyFq(F, rem))
        assert (pa // pb) * pb + pa % pb == pa


@pytest.mark.parametrize("p,k", PRIME_POWERS_16)
def test_field_axioms_exhaustive(p, k):
    F = build_field(p, k)
    q = F.q
    elems = list(F.elements())
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert len(set(elems)) == q


@pytest.mark.parametrize("p,k", PRIME_POWERS_16)
def test_frobenius_fixed_points(p, k):
    F = build_field(p, k)
    for a in F.elements():
        assert F.pow(a, F.q) == a


def test_enumerate_irreducibles_examples():
    F2 = build_field(2, 1)
    got = enumerate_irreducibles(F2, 1, exclude_x=True)
    assert [p.coeffs for p in got] == [(1, 1)]  # only x + 1
    got = enumerate_irreducibles(F2, 2, exclude_x=True)
    assert [p.coeffs for p in got] == [(1, 1, 1)]  # x^2 + x + 1 alone
    F3 = build_field(3, 1)
    got = enumerate_irreducibles(F3, 1, exclude_x=True)
    # oracle: all monic linear polynomials x + c are irreducible; excluding x
    # leaves exactly the q - 1 with nonzero constant term
    brute = [(c, 1) for c in range(1, 3)]
    assert [p.coeffs for p in got] == brute


@pytest.mark.parametrize("q,p,k", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_necklace_count_matches_enumeration(q, p, k, d):
    if q ** d > 2 ** 16:
        pytest.skip("enumeration too large for routine runs")
    F = build_field(p, k)
    got = enumerate_irreducibles(F, d)
    assert len(got) == irreducible_count(q, d)
    for poly in got[:10]:
        assert poly.coeffs[-1] == 1 and poly.degree == d


def test_necklace_count_closed_form_small():
    # independent values: hand counts over F_2
    assert irreducible_count(2, 1) == 2  # x, x+1
    assert irreducible_count(2, 2) == 1
    assert irreducible_count(2, 3) == 2
    assert irreducible_count(2, 4) == 3
    assert irreducible_count(2, 1, exclude_x=True) == 1


def test_poly_divmod_roundtrip():
    F3 = build_field(3, 1)
    a = PolyFq(F3, (1, 2, 0, 1, 2))
    b = PolyFq(F3, (2, 1, 1))
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.degree < b.degree


def test_poly_gcd_of_common_factor():
    F2 = build_field(2, 1)
    f = PolyFq(F2, (1, 1))  # x + 1
    g = PolyFq(F2, (1, 1, 1))  # x^2 + x + 1
    a = f * g
    b = f * f
    assert a.gcd(b) == f


def test_is_irreducible_agrees_with_root_check_on_quadratics():
    F3 = build_field(3, 1)
    for c0 in range(3):
        for c1 in range(3):
            poly = PolyFq(F3, (c0, c1, 1))
            has_root = any(poly(a) == 0 for a in range(3))
            assert is_irreducible(poly) == (not has_root)


def test_serialization_coefficient_lists():
    F2 = build_field(2, 1)
    poly = PolyFq(F2, (1, 1, 1))
    assert list(poly.coeffs) == [1, 1, 1]  # low-to-high, "x^2+x+1 over F_2"


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_add_and_neg_tables_match_digitwise(q):
    F = field_from_order(q)
    assert F._add_table is not None and F._neg_table is not None
    for a in F.elements():
        assert F.neg(a) == F._neg_slow(a)
        for b in F.elements():
            assert F.add(a, b) == F._add_slow(a, b)


@pytest.mark.parametrize("q", [4, 8, 9, 25, 256])
def test_mul_and_inv_tables_match_polynomial_products(q):
    F = field_from_order(q)
    assert F._mul_table is not None and F._inv_table is not None
    if q <= 25:
        pairs = [(a, b) for a in F.elements() for b in F.elements()]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(4000)]
        pairs += [(0, b) for b in range(q)] + [(a, 1) for a in range(q)]
    for a, b in pairs:
        assert F.mul(a, b) == F._mul_slow(a, b)
    for a in range(1, q):
        assert F._mul_slow(a, F.inv(a)) == 1


@pytest.mark.parametrize("q", [3, 4])
def test_pow_mod_matches_repeated_multiplication(q):
    F = field_from_order(q)
    rng = random.Random(q)
    mod = PolyFq(F, [rng.randrange(q) for _ in range(5)] + [1])
    base = PolyFq(F, [rng.randrange(q) for _ in range(7)])
    exponents = set(range(41)) | {q ** d for d in range(1, 6)}
    acc = PolyFq.one(F)
    for e in range(max(exponents) + 1):
        if e in exponents:
            assert base.pow_mod(e, mod) == acc
        acc = (acc * base) % mod
