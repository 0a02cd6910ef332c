import hashlib
import inspect
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from sympwalk import combinat
from sympwalk.combinat import (
    PartitionFn,
    _centralizer_ratio,
    _dim_factor,
    _doubled_dim_factor,
    _next_blocks,
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
    perm(orbits, m) / prod r_i! over the runs of equal partitions; over the
    degree-1 blocks that end a type of weight total they count every
    nonempty function from the orbits to partitions, the t^total
    coefficient of (sum_k p(k) t^k)^orbits."""
    series = [1] + [0] * 10
    for _ in range(n_orbits):
        series = [sum(series[i] * len(partitions_of(w - i)) for i in range(w + 1)) for w in range(11)]
    for total in range(1, 11):
        blocks = [(entries, ways) for entries, ways, left in _next_blocks(1, total, n_orbits) if not left]
        for entries, ways in blocks:
            want = math.perm(n_orbits, len(entries))
            for run in Counter(entries).values():
                want //= math.factorial(run)
            assert ways == want, entries
        assert sum(ways for _, ways in blocks) == series[total], total


@pytest.mark.parametrize("d, remaining, n_orbits", [(1, 7, 1), (1, 7, 2), (1, 8, 4), (2, 9, 3), (3, 10, 8)])
def test_blocks_are_every_multiset_in_type_order(d, remaining, n_orbits):
    """Oracle: the depth-first blocks are every multiset of at most
    n_orbits partitions whose weight d|m| leaves 0 or more than d, each with
    its count, sorted by entries, a block that ends its types before and
    one that higher degrees follow after every block extending it."""
    parts = sorted(lam for w in range(1, remaining // d + 1) for lam in partitions_of(w))
    want = []
    for m in range(1, n_orbits + 1):
        for combo in itertools.combinations_with_replacement(parts, m):
            left = remaining - d * sum(map(sum, combo))
            if left == 0 or left > d:
                ways = math.perm(n_orbits, m)
                for run in Counter(combo).values():
                    ways //= math.factorial(run)
                want.append((tuple((d, lam) for lam in combo), ways, left))
    want.sort(key=lambda block: block[0] + ((d + 1,) if block[2] else (),))
    assert _next_blocks(d, remaining, n_orbits) == tuple(want)


# sha256 of repr(enumerate_partition_fns(n, q)) for n = 0, 1, ..., recorded before the
# walk listed each type as a degree-1 block and one completion
LABEL_DIGESTS = {
    2: (
        "79af5e767be89c3504a90429af283081aab8d98efc294df4f772b247a23cde01",
        "58f965c03b2d6dbf7f1ea076606161735541501ba399e643cfc4e4ab7cd277ff",
        "b1a306b1f7356e10f64ce65ec05d299c09b24037512a4832592b3840817efe6d",
        "fe9cedf81fd9b8f0f5c59af90a469177b30d1f1c91dcd574fcb5d50df03b13ff",
        "e6a9339bac78320929d4242d6b6e2041e409a4346c5c213d1c7595c58a1e1561",
        "2793d5357af0e3a4b02fedc19ca90feb9c4041ffd38f7f3a061ed9178702209b",
        "ae22766500fd1fd29728655ea3f5e9ae9bf211d0a054b260200880c0163006ae",
        "3e7230b78fa0a54cc43a09869fd5a841dc8887fea97c338258a380640ad6361c",
        "a97b7492fdcfcb55b0ea5e67ac5386d8c7e2e71118829c1f2436aadcede16635",
        "8bedb424b2f5627308b93b2ede0b5b685b5feea413ff838e8d922d5293892e14",
        "53fa1d8abd35b683bfa28b6fd75848b93b386024875c49688cf29c2e8ecee1ec",
        "e67d35c375f575e1a3cd09653e7fae44cd0d52381b41c5cd6a60674d85a8182d",
        "94d8e258822d284422ee1de185f3af6fbf38b36b63f285fbc76b3f2f49a02b9e",
    ),
    3: (
        "79af5e767be89c3504a90429af283081aab8d98efc294df4f772b247a23cde01",
        "1a0ad7b975e29985a967b42752d50b10bc67ef3d613f2b9d12ea43efca2bc3b2",
        "3024370a53dfb8439261c3d2848221f2d1818fdfe54fc10ad2bbc91e53e25bc4",
        "812f807bec0c619ad0a903b320eea99d09b97ec5c95943b817b680f6852b2398",
        "142674c4e981f649696096ce375cf6693c836364e7e7ef55dba417a4b3641eb5",
        "33f7edf551801fe9a8ecf10d399ab053c8b4d12ae1bc571cd8d7cd735790ed02",
        "0146096e437afb355fb15a8399fb20a4c479c5adbbffc310e78ca87a93227955",
        "3e953810c1c004c1519e3f643df0275375f76fa93329c7af2dc74f4b00c45fe3",
        "b55914a6a3557f13d1fa1d1c772f6dde8c087e162d42faabaa6a2b46fb96b710",
        "ec2478c34377eb2c07e43685f65f163655b7850b5fe12ecff0a8ee8c1dcd84d4",
        "8ac605bd1e550f036c0aa77be23b61e6687325265a5dd1372d65c50c84d1f0de",
        "94850e088cf859e976728ab8c79176afd809d0940bfea50e3d426a6d012d3270",
        "ee951c5e5fb61a8d178b82b70549962fde481032436eb25ec3c653f41cc2e381",
    ),
    4: (
        "79af5e767be89c3504a90429af283081aab8d98efc294df4f772b247a23cde01",
        "0613f80ead59b2b5b78ba380a07a16c5ae382759c1051e3fd8836d63c3465080",
        "69724b354d80c4da318a335072a8a61b4abd17084c48b518a761132daa868430",
        "5f195dc15ffeb855aff467fdd00c18bb2476645a0ad1d05b38c4146cdf5c7972",
        "95efad5b60ef875863a57d9633ab6c0ddbd5f28055b2b60e7e82615282d568fe",
        "58f4e86e22f5a8dd5c91a9b2e1fead0694aa589a5c9f3b943a4796d2ecec8808",
        "8ce2f9b1ffc8d5f8b691fae3fc3d15a300ba054c3211d143959ab6fffc347328",
        "2090b6eaa638e81bd3c29133487a102ff27c1b6ed151882deae18bd222dc726e",
    ),
    5: (
        "79af5e767be89c3504a90429af283081aab8d98efc294df4f772b247a23cde01",
        "ddca405f8f392f4f3b2006fe479505113791b9e118be8ae2eb15ca83fe255249",
        "3db15f9d53c0c323e7e9a2e6fcee7aa52ffe1a70cfcbc98b3767251bbe8666df",
        "5e62cdb2eb882478471c61d9f6b14aa3feae2c553e7f418b39177d0a95aa067a",
        "d666e559d3f3123bfa02c1863ded69e999711c48d65c956acfbfc7b321a71fba",
        "bf9d54a4b9d1127fcd554db8c030e8bc6502d746eb11a810e8b45fa57aee7550",
        "8bbe98147ad48a0374fde4d7b36bdf510aabf608ce85ebe5a52250d7faf029fa",
        "c3669f6ad4e3805fd367f1e7e7ce5a8dc97f1e21aa2736977b9ef27a787c9df4",
    ),
    7: (
        "79af5e767be89c3504a90429af283081aab8d98efc294df4f772b247a23cde01",
        "25607f7aed55961ee46695051154448f1f78347b066607c28a8fb2718ab57a52",
        "ed6b1a821279173fac1bce11b235ebfa769d3e9bf2f69b97074a92e5924cc8b0",
        "c48683f322afbd3752988cd19e998254a8a521d5c55658c4716ba6e139ca7c64",
        "24eef151b49b46c3604b39b1e9255e44a4c01338c302aa9e4899a349fb79862e",
        "7e24b3e7d3d6eb720d15c97802f4487df9e0b73aa306468bde2817e26fc6bd97",
        "6bc65b0dde53c6b3f79e7266d92b5804b46dc1930d13258c93f0708aee64d2d9",
        "40caede7246fccb104d70650985cf54a6bbb779192c231ef8243398746839581",
    ),
}


@pytest.mark.parametrize("q", sorted(LABEL_DIGESTS))
def test_label_lists_are_pinned(cold_caches, q):
    """Every label with its count, in order: n = 0..12 at q = 2 and 3 and
    n = 0..7 at q = 4, 5 and 7, listed cold."""
    for n, want in enumerate(LABEL_DIGESTS[q]):
        assert hashlib.sha256(repr(enumerate_partition_fns(n, q)).encode()).hexdigest() == want, n


def _doubled_factor_mismatches(factor):
    """The (d, lam, q) with |lam| <= 10, d <= 3 and q = 2, 3, 4, 5, 7, 9 at
    which factor differs from _dim_factor of the doubled entry (oracle)."""
    return [
        (d, lam, q)
        for w in range(1, 11)
        for lam in partitions_of(w)
        for d in (1, 2, 3)
        for q in (2, 3, 4, 5, 7, 9)
        if factor(d, lam, q) != _dim_factor(d, union_double(lam), q)
    ]


def test_doubled_factor_from_own_boxes_matches_the_doubled_partition():
    assert _doubled_factor_mismatches(_doubled_dim_factor) == []


def test_doubled_factor_oracle_catches_a_dropped_hook():
    """Mutation: _doubled_dim_factor's source with the (t^(h - 1) - 1)
    factor of box (0, 0) dropped disagrees with the oracle."""
    source = inspect.getsource(_doubled_dim_factor.__wrapped__)
    line = "hooks *= powers[h] * powers[h - 1]"
    assert source.count(line) == 1
    namespace = dict(vars(combinat))
    exec(source.replace(line, "hooks *= powers[h] * (powers[h - 1] if i or j else 1)"), namespace)
    assert _doubled_factor_mismatches(namespace["_doubled_dim_factor"])


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
