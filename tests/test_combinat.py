import math
from collections import Counter
from fractions import Fraction

import pytest

from sympwalk.combinat import (
    PartitionFn,
    _centralizer_ratio,
    _degree_entries,
    check_enumeration_cap,
    class_size,
    class_size_qsq,
    conjugate,
    coset_space_size,
    dim_irrep,
    enumerate_partition_fns,
    gl_order,
    hook_poly,
    multiplicities,
    n_stat,
    orbit_count,
    partitions_of,
    psi_factor,
    removable_corners,
    remove_corner,
    sp_order,
    union_double,
)
from sympwalk.errors import EnumerationTooLargeError, NonIntegerResultError
from sympwalk.field import build_field
from sympwalk.linalg import MatFq


# ---------------------------------------------------------------------------
# partition operations
# ---------------------------------------------------------------------------

def test_partitions_of_small():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(10)) == 42


def test_removable_corners_square():
    assert removable_corners((2, 2)) == [(2, 2)]
    assert removable_corners((3, 1)) == [(1, 3), (2, 1)]
    assert remove_corner((2, 2), (2, 2)) == (2, 1)


def test_union_double_and_n_stat():
    assert union_double((2,)) == (2, 2)
    assert n_stat((2, 2)) == 2
    assert n_stat(conjugate((2, 2))) == 2
    assert conjugate((3, 1)) == (2, 1, 1)


def test_hooks_of_square():
    # hooks 3, 2, 2, 1
    assert hook_poly((2, 2), 2) == (2 ** 3 - 1) * 3 * 3 * 1  # 63
    assert hook_poly((2, 2), 10) == 999 * 99 * 99 * 9


def _arm(lam, i, j):
    """Boxes strictly right of box (i, j); 1-indexed box in row i, column j."""
    return lam[i - 1] - j


def _leg(lam, i, j):
    """Boxes strictly below box (i, j)."""
    return sum(1 for r in range(i, len(lam)) if lam[r] >= j)


def test_hook_lengths_match_arm_plus_leg():
    """hook_poly's hooks are arm + leg + 1, box by box."""
    for n in range(11):
        for lam in partitions_of(n):
            for t in (2, 7):
                want = 1
                for i in range(1, len(lam) + 1):
                    for j in range(1, lam[i - 1] + 1):
                        want *= t ** (_arm(lam, i, j) + _leg(lam, i, j) + 1) - 1
                assert hook_poly(lam, t) == want, lam


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}


# ---------------------------------------------------------------------------
# enumeration of partition-valued function types
# ---------------------------------------------------------------------------

def test_enumerate_weight2_q2():
    fns = enumerate_partition_fns(2, 2)
    assert len(fns) == 3
    assert all(cnt == 1 for _, cnt in fns)
    entries = {fn.entries for fn, _ in fns}
    assert entries == {((1, (2,)),), ((1, (1, 1)),), ((2, (1,)),)}


def test_enumerate_weight1_q3():
    fns = enumerate_partition_fns(1, 3)
    assert len(fns) == 1
    fn, cnt = fns[0]
    assert fn.entries == ((1, (1,)),) and cnt == 2  # two degree-1 orbits


@pytest.mark.parametrize("n_orbits", range(1, 9))
def test_carried_assignment_counts_match_the_closed_form(n_orbits):
    """Each block's count, carried through the multiset recursion, is
    perm(orbits, m) / prod r_i! over the runs of equal partitions; over all
    blocks of a total they count every function from the orbits to
    partitions, the t^total coefficient of (sum_k p(k) t^k)^orbits."""
    series = [1] + [0] * 10
    for _ in range(n_orbits):
        series = [sum(series[i] * len(partitions_of(w - i)) for i in range(w + 1)) for w in range(11)]
    for total in range(11):
        blocks = _degree_entries(1, total, n_orbits)
        for entries, ways in blocks:
            want = math.perm(n_orbits, len(entries))
            for run in Counter(entries).values():
                want //= math.factorial(run)
            assert ways == want, entries
        assert sum(ways for _, ways in blocks) == series[total], total


def brute_force_conjugacy_classes_gl2_f2():
    """Oracle: orbit partition of GL_2(F_2) under conjugation."""
    F2 = build_field(2, 1)
    elems = []
    for bits in range(16):
        rows = [[(bits >> 0) & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]]
        m = MatFq(F2, rows)
        if m.rank() == 2:
            elems.append(m)
    classes = []
    seen = set()
    for x in elems:
        if x.key() in seen:
            continue
        orbit = {(g * x * g.inverse()).key() for g in elems}
        seen |= orbit
        classes.append(len(orbit))
    return sorted(classes)


def test_class_count_matches_brute_force_gl2_f2():
    fns = enumerate_partition_fns(2, 2)
    brute = brute_force_conjugacy_classes_gl2_f2()
    assert len(brute) == sum(cnt for _, cnt in fns) == 3
    sizes = sorted(class_size(fn, 2) for fn, _ in fns)
    assert sizes == brute == [1, 2, 3]


def test_orbit_counts():
    assert orbit_count(1, 2) == 1
    assert orbit_count(1, 3) == 2
    assert orbit_count(2, 2) == 1
    assert orbit_count(3, 2) == 2
    assert orbit_count(2, 3) == 3


# ---------------------------------------------------------------------------
# orders, class sizes, dimensions
# ---------------------------------------------------------------------------

def test_orders():
    assert gl_order(4, 2) == 20160
    assert sp_order(2, 2) == 720
    assert gl_order(4, 2) // sp_order(2, 2) == 28
    assert coset_space_size(2, 2) == 28
    assert psi_factor(4, 2) == 1 * 3 * 7 * 15


def test_transvection_class_size_gl4_f2():
    mu = PartitionFn.make([(1, (2, 1, 1))])
    assert class_size(mu, 2) == 105
    # the displayed closed form
    q, n2 = 2, 4
    assert 105 == (q ** n2 - 1) * (q ** (n2 - 1) - 1) // (q - 1)


def test_identity_class_is_singleton():
    for n, q in ((2, 2), (3, 2), (2, 3)):
        mu = PartitionFn.make([(1, (1,) * n)])
        assert class_size(mu, q) == 1
        assert class_size_qsq(mu, q) == 1


def test_class_size_qsq_values_2_2():
    by_entries = {
        fn.entries: class_size_qsq(fn, 2) for fn, _ in enumerate_partition_fns(2, 2)
    }
    assert by_entries == {
        ((1, (1, 1)),): 1,
        ((1, (2,)),): 15,
        ((2, (1,)),): 12,
    }
    assert sum(by_entries.values()) == 28


def test_dim_irrep_values_2_2():
    assert dim_irrep(PartitionFn.make([(1, (1, 1, 1, 1))]), 2) == 1
    assert dim_irrep(PartitionFn.make([(1, (2, 2))]), 2) == 20
    assert dim_irrep(PartitionFn.make([(2, (1, 1))]), 2) == 7
    # the pieces of the (2,2) value: psi_4(2) = 315, q^n(conj) = 4, H = 63
    assert psi_factor(4, 2) == 315
    assert 2 ** n_stat(conjugate((2, 2))) == 4
    assert hook_poly((2, 2), 2) == 63


@pytest.mark.parametrize("q", [2, 3])
def test_sum_class_sizes_equals_group_order(q):
    for n in range(1, 6):
        total = sum(cnt * class_size(fn, q) for fn, cnt in enumerate_partition_fns(n, q))
        assert total == gl_order(n, q)


@pytest.mark.parametrize("q", [2, 3])
def test_sum_coset_sizes_and_doubled_dims(q):
    for n in range(1, 5):
        fns = enumerate_partition_fns(n, q)
        assert sum(cnt * class_size_qsq(fn, q) for fn, cnt in fns) == coset_space_size(n, q)
        lns = enumerate_partition_fns(n, q)
        assert sum(cnt * dim_irrep(fn.doubled(), q) for fn, cnt in lns) == coset_space_size(n, q)
    if q == 2:
        fns = enumerate_partition_fns(2, 2)
        dims = sorted(dim_irrep(fn.doubled(), 2) for fn, _ in fns)
        assert dims == [1, 7, 20]


def test_sum_dims_squared_equals_group_order():
    for N in range(1, 5):
        total = sum(
            cnt * dim_irrep(fn, 2) ** 2 for fn, cnt in enumerate_partition_fns(N, 2)
        )
        assert total == gl_order(N, 2)


def test_a_mu_is_integral_and_exact():
    for q in (2, 3):
        for n in range(1, 5):
            for fn, _ in enumerate_partition_fns(n, q):
                val = Fraction(*_centralizer_ratio(fn, q))
                assert val.denominator == 1
                assert gl_order(n, q) % val.numerator == 0


def _a_mu_fraction_product(mu, q):
    out = Fraction(q) ** mu.weight
    for d, lam in mu.entries:
        qf = q ** d
        out *= Fraction(qf) ** (2 * n_stat(lam))
        for m_i in multiplicities(lam).values():
            for j in range(1, m_i + 1):
                out *= 1 - Fraction(1, qf ** j)
    return out


def _dim_irrep_fraction_product(lam, q):
    val = Fraction(psi_factor(lam.weight, q))
    for d, part in lam.entries:
        qphi = q ** d
        val *= Fraction(qphi ** n_stat(conjugate(part)), hook_poly(part, qphi))
    return val


@pytest.mark.parametrize("q", [2, 3, 4])
def test_a_mu_and_dim_irrep_match_fraction_products(q):
    for n in range(6):
        for fn, _ in enumerate_partition_fns(n, q):
            assert Fraction(*_centralizer_ratio(fn, q)) == _a_mu_fraction_product(fn, q)
            assert dim_irrep(fn, q) == _dim_irrep_fraction_product(fn, q)


def test_non_integer_guard_fires(monkeypatch):
    import sympwalk.combinat as cb

    orig = cb._centralizer_ratio

    def perturbed(mu, q):  # a_mu times 7919/2
        num, den = orig(mu, q)
        return num * 7919, den * 2

    monkeypatch.setattr(cb, "_centralizer_ratio", perturbed)
    with pytest.raises(NonIntegerResultError):
        cb.class_size(PartitionFn.make([(1, (2,))]), 2)


def test_doubled_weight():
    fn = PartitionFn.make([(1, (2, 1)), (2, (1,))])
    assert fn.weight == 5
    assert fn.doubled().weight == 10
    assert fn.doubled().entries == ((1, (2, 2, 1, 1)), (2, (1, 1)))


def test_json_roundtrip():
    fn = PartitionFn.make([(1, (2,)), (1, (1,)), (2, (1,))])
    js = fn.to_json()
    assert js == [
        {"degree": 1, "partition": [1], "orbit": 0},
        {"degree": 1, "partition": [2], "orbit": 1},
        {"degree": 2, "partition": [1], "orbit": 0},
    ]


def test_enumeration_cap_message_forms_for_any_n():
    check_enumeration_cap(14)
    with pytest.raises(EnumerationTooLargeError, match=r"^n=15 beyond"):
        check_enumeration_cap(15)
    # beyond Python's 4,300-digit str limit the message gives n as 2^b
    with pytest.raises(EnumerationTooLargeError, match=r"^n=2\^16610 beyond"):
        check_enumeration_cap(10 ** 5000)
