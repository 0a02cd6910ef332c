import dataclasses
import functools
import hashlib
import itertools
import math
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sympwalk._engine import batched_rank
from sympwalk import bounds, combinat
from sympwalk.bounds import (
    EXACT_WORK_MAX,
    ROW_WORK_MAX,
    BoundValue,
    _exact_work,
    _fixed_space_masses,
    _log_fraction_abs,
    _log_int,
    check_row_work,
    fixed_space_tail_check,
    lower_bound_raw,
    lower_bound_tv,
    negative_mass_bound,
    ratio_constant_check,
    resolve_mode,
    support_fraction,
    upper_bound_tv,
)
from sympwalk.combinat import (
    class_size,
    class_size_qsq,
    coset_space_size,
    dim_irrep,
    doubled_dim_irrep,
    enumerate_partition_fns,
    gl_order,
    orbit_count,
    partitions_of,
    sp_order,
)
from sympwalk.errors import (
    ExactArithmeticTooLargeError,
    FieldTooLargeError,
    NonIntegerResultError,
    NotPrimeError,
    StepRangeTooLargeError,
)
from sympwalk.field import field_from_order
from sympwalk.linalg import standard_J
from sympwalk.spectral import eigenvalue_phi_global, phi_of_degree_one_parts, trivial_label
from sympwalk.walk import _realify


@functools.lru_cache(maxsize=None)
def _type_terms(n, q):
    """Oracle: (phi, d_(lam u lam), count) per label type but the twist, in
    enumeration order, from each type's PartitionFn: phi by the global
    route, d by doubled_dim_irrep."""
    return tuple(
        (eigenvalue_phi_global(fn, n, q), doubled_dim_irrep(fn, q), cnt)
        for fn, cnt in enumerate_partition_fns(n, q)
        if fn != trivial_label(n)
    )


def _phi_masses(n, q):
    """Oracle: the total multiplicity of each distinct phi."""
    out = Counter()
    for phi, mult, cnt in _type_terms(n, q):
        out[phi] += cnt * mult
    return out


def test_upper_bound_squared_formula_2_2():
    # spectrum is {1 (excluded), 1/15 x 20, -1/3 x 7}
    for k in range(1, 8):
        want = (20 * Fraction(1, 15) ** (2 * k) + 7 * Fraction(1, 3) ** (2 * k)) / 4
        got = upper_bound_tv(2, 2, k, "exact")
        assert got.squared == want
    assert upper_bound_tv(2, 2, 2, "exact").squared == (
        Fraction(20, 50625) + Fraction(7, 81)
    ) / 4


def test_upper_bound_monotone():
    for n, q in ((2, 2), (3, 2), (2, 3)):
        prev = None
        for k in range(1, 12):
            sq = upper_bound_tv(n, q, k, "exact").squared
            if prev is not None:
                assert sq < prev
            prev = sq


def test_determinant_twist_exclusion():
    # the (1^n at one degree-1 orbit) labels are dropped: trivial plus the
    # q - 2 nontrivial determinant twists
    for n, q in ((2, 2), (3, 2), (2, 3), (3, 3)):
        all_count = sum(cnt for _, cnt in enumerate_partition_fns(n, q))
        kept = sum(cnt for _, _, cnt in _type_terms(n, q))
        assert all_count - kept == q - 1


def test_support_fraction_examples():
    assert support_fraction(2, 2, 0) == 1
    assert support_fraction(2, 2, 1) == Fraction(4, 7)
    assert support_fraction(2, 2, 2) == Fraction(1, 28)
    # (1 + 15) * 720 / 20160 = 4/7: identity and transvection cosets qualify
    assert Fraction((1 + 15) * 720, 20160) == Fraction(4, 7)


def _arrangements(items):
    """Distinct orderings of a multiset."""
    out = math.factorial(len(items))
    for m in Counter(items).values():
        out //= math.factorial(m)
    return out


def _labels_per_partition_at_x_minus_1(fn, cnt, q):
    """Oracle: split the cnt labels of a type by the partition (possibly
    empty) that x - 1 carries, counting the arrangements of the type's
    degree-1 partitions over the q - 1 degree-1 orbits with pi at x - 1."""
    slots = [lam for d, lam in fn.entries if d == 1]
    slots += [()] * (q - 1 - len(slots))
    per_arrangement, rem = divmod(cnt, _arrangements(slots))
    assert rem == 0
    out = {}
    for pi in set(slots):
        rest = list(slots)
        rest.remove(pi)
        out[pi] = per_arrangement * _arrangements(rest)
    return out


def _per_label_masses(n, q, size):
    """Oracle: per c, labels x size(fn) summed over the labels of weight n
    whose x - 1 carries c parts."""
    masses = [0] * (n + 1)
    for fn, cnt in enumerate_partition_fns(n, q):
        for pi, labels in _labels_per_partition_at_x_minus_1(fn, cnt, q).items():
            masses[len(pi)] += labels * size(fn)
    return masses


@pytest.mark.parametrize(
    "n, q",
    [(n, 2) for n in range(2, 7)]
    + [(n, 3) for n in range(2, 5)]
    + [(2, 5), (3, 5)]
    + [(n, 4) for n in range(2, 5)]
    + [(n, q) for q in (7, 8, 9) for n in (2, 3)],
)
def test_support_fraction_matches_per_label_sum(n, q):
    """The cycle-index masses against a sum over the labels, at parameter
    q^2 (support_fraction) and q (fixed_space_tail_check)."""
    at_qsq = _per_label_masses(n, q, lambda fn: class_size_qsq(fn, q))
    at_q = _per_label_masses(n, q, lambda fn: class_size(fn, q))
    for c in range(n + 1):
        assert support_fraction(n, q, c) == Fraction(sum(at_qsq[c:]) * sp_order(n, q), gl_order(2 * n, q))
        assert fixed_space_tail_check(n, q, c)[0] == sum(at_q[c:])


@pytest.mark.parametrize("side", [0, 1], ids=["numerator", "denominator"])
def test_cycle_index_catches_a_scaled_degree_two_class_factor(cold_caches, monkeypatch, side):
    """Mutation: one side of the class factor of the degree-2 entry (2,
    (1,)) scaled by 7 inside the series only either trips an integrality
    check (the numerator does) or makes the masses disagree with the
    per-label sum (the denominator does)."""
    n, q = 4, 3
    want = tuple(_per_label_masses(n, q, lambda fn: class_size_qsq(fn, q)))
    assert _fixed_space_masses(n, q, q * q) == want
    real = combinat._centralizer_factor

    def scaled(d, lam, qq):
        factor = list(real(d, lam, qq))
        if (d, lam) == (2, (1,)):
            factor[side] *= 7
        return tuple(factor)

    monkeypatch.setattr(bounds, "_centralizer_factor", scaled)
    try:
        got = _fixed_space_masses.__wrapped__(n, q, q * q)  # the cache keeps the true masses
    except NonIntegerResultError:
        return
    assert got != want


def _squaring_masses(n, q, qq):
    """Oracle: the masses with each degree's orbit series raised to its
    orbit count by repeated squaring, and the series of x - 1 taken once per
    number of parts c.  Series are kept divided by |GL_w(F_qq)|, as
    Fractions, so that a product is a plain convolution."""

    def orbit(d, keep=lambda lam: True):
        out = [Fraction(0)] * (n + 1)
        for m in range(n // d + 1):
            for lam in filter(keep, partitions_of(m)):
                num, den = combinat._centralizer_factor(d, lam, qq)
                out[d * m] += Fraction(den, qq ** (d * m) * num)
        return out

    def times(a, b):
        return [sum(a[i] * b[w - i] for i in range(w + 1)) for w in range(n + 1)]

    rest = [Fraction(1)] + [Fraction(0)] * n
    for d in range(1, n + 1):
        base, e = orbit(d), orbit_count(d, q) - (d == 1)  # x - 1 is not free
        while e:
            if e & 1:
                rest = times(rest, base)
            e >>= 1
            if e:
                base = times(base, base)
    return tuple(
        times(orbit(1, lambda lam, c=c: len(lam) == c), rest)[n] * gl_order(n, qq) for c in range(n + 1)
    )


@pytest.mark.parametrize("q, top", [(2, 14), (3, 10), (4, 6), (5, 6), (7, 6)])
def test_binomial_masses_match_repeated_squaring(q, top):
    """The truncated binomial powers of the orbit series give the masses
    that repeated squaring gives, at parameters q^2 and q, for every n up
    to top (q = 2 has no free degree-1 orbit)."""
    for n in range(1, top + 1):
        for qq in (q * q, q):
            assert _fixed_space_masses(n, q, qq) == _squaring_masses(n, q, qq), (n, qq)


def _all_code_vectors(q, length):
    """Every vector of F_q codes of the given length, as a (q^length, length) array."""
    return np.array(list(itertools.product(range(q), repeat=length)), dtype=np.int64)


def _ranks_over_fq(real, field):
    """Rank over F_q of every matrix of a (B, R k, C k) batch of realified
    F_q matrices: its rank over F_p, divided by k.  batched_rank eliminates
    in place, so it gets a copy."""
    lanes_last = np.array(real.transpose(1, 2, 0), dtype=np.int32, order="C")
    return batched_rank(lanes_last, field.p) // field.k


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_support_fraction_matches_brute_force_over_forms(n, q):
    """Oracle: over every alternating Gram w of F_q^(2n), the invertible ones
    whose J^-1 w - I has rank <= 2(n - c) make up support_fraction(n, q, c)."""
    field = field_from_order(q)
    N = 2 * n
    above = _all_code_vectors(q, n * (N - 1))
    upper = np.zeros((len(above), N, N), dtype=np.int64)
    rows, cols = np.triu_indices(N, 1)
    upper[:, rows, cols] = above
    # w = U - U^T; realifying is additive, but it does not commute with transposing
    w = (_realify(upper, field) - _realify(upper.transpose(0, 2, 1), field)) % field.p
    forms = w[_ranks_over_fq(w, field) == N]
    assert len(forms) == coset_space_size(n, q)
    j_inv = _realify(standard_J(n, field).inverse().to_lists(), field)
    ranks = _ranks_over_fq((j_inv @ forms - np.eye(N * field.k, dtype=np.int32)) % field.p, field)
    for c in range(n + 1):
        got = Fraction(int((ranks <= 2 * (n - c)).sum()), len(forms))
        assert support_fraction(n, q, c) == got, c


@pytest.mark.parametrize(
    "n, q", [(n, 2) for n in range(1, 5)] + [(n, q) for q in (3, 4, 5) for n in (1, 2)]
)
def test_fixed_space_masses_match_brute_force_over_gl(n, q):
    """Oracle: the invertible n x n matrices over F_q with dim ker(g - I) >= c
    number the lhs of fixed_space_tail_check(n, q, c)."""
    field = field_from_order(q)
    real = _realify(_all_code_vectors(q, n * n).reshape(-1, n, n), field)
    invertible = real[_ranks_over_fq(real, field) == n]
    assert len(invertible) == gl_order(n, q)
    fixed = n - _ranks_over_fq((invertible - np.eye(n * field.k, dtype=np.int32)) % field.p, field)
    for c in range(n + 1):
        lhs, _, _ = fixed_space_tail_check(n, q, c)
        assert lhs == int((fixed >= c).sum()), c


def test_lower_bound_examples():
    assert lower_bound_tv(2, 2, 1) == 0  # raw value is negative: vacuous
    assert lower_bound_raw(2, 2, 1) == 1 - Fraction(8, 7)
    assert lower_bound_tv(2, 2, 2) == Fraction(13, 14)


def test_lower_bound_monotone_in_c():
    for n, q in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        values = [lower_bound_tv(n, q, c) for c in range(n + 1)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo


def test_tail_check_examples():
    lhs, rhs, ok = fixed_space_tail_check(2, 2, 0)
    assert lhs == gl_order(2, 2) and rhs == 4 * gl_order(2, 2) and ok
    lhs, rhs, ok = fixed_space_tail_check(2, 2, 1)
    assert lhs == 1 + 3  # identity class plus the transvection class
    assert rhs == Fraction(4 * 6, 2) == 12
    assert ok


@pytest.mark.parametrize("q", [2, 3, 4])
def test_tail_check_sweep(q):
    for n in range(1, 7):
        for c in range(n + 1):
            lhs, rhs, ok = fixed_space_tail_check(n, q, c)
            assert ok, (n, q, c, lhs, rhs)


def test_ratio_constant_values():
    val, ok = ratio_constant_check(1, 2)
    assert val == Fraction(3, 2) and ok
    val, ok = ratio_constant_check(2, 2)
    assert val == Fraction(3, 2) * Fraction(15, 14) == Fraction(45, 28) and ok


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ratio_constant_bounded_and_converging(q):
    prev = None
    prev_inc = None
    for n in range(1, 31):
        val, ok = ratio_constant_check(n, q)
        assert ok
        if prev is not None:
            inc = val - prev
            assert inc > 0
            if prev_inc is not None:
                assert inc < prev_inc  # geometric shrinkage
            prev_inc = inc
        prev = val


def test_negative_mass_2_2():
    crude, exact = negative_mass_bound(2, 2, 2)
    # the only negative line is -1/3 with dimension 7
    assert exact == 7 * Fraction(1, 3) ** 4
    assert crude == Fraction(2 ** 8, 3 ** 4)
    assert exact <= crude


@pytest.mark.parametrize("q", [2, 3])
def test_negative_mass_sweep(q):
    for n in range(2, 5):
        for k in range(n, n + 6):
            crude, exact = negative_mass_bound(n, q, k)
            assert exact <= crude
        crude, _ = negative_mass_bound(n, q, n * n + n)
        assert crude < 1


def test_negative_mass_bound_is_work_capped():
    """Uncapped, negative_mass_bound(3, 2, 10**5) took about 3 s; it now
    raises before any power is taken, while every verify call (k = n + 1,
    n <= 8, q <= 4) stays admitted."""
    start = time.perf_counter()
    with pytest.raises(ExactArithmeticTooLargeError):
        negative_mass_bound(3, 2, 10**5)
    assert time.perf_counter() - start < 1
    for n in range(2, 9):
        for q in (2, 3, 4):
            assert _exact_work(n, q, (n + 1,)) <= EXACT_WORK_MAX


def test_logfloat_matches_exact():
    for n, q in [(n, 2) for n in range(1, 9)] + [(n, 3) for n in range(1, 7)]:
        for k in range(1, 2 * n + 3):
            exact = math.sqrt(upper_bound_tv(n, q, k, "exact").squared)
            logfloat = upper_bound_tv(n, q, k, "logfloat").value
            assert math.isclose(logfloat, exact, rel_tol=1e-9, abs_tol=0.0), (n, q, k)


def test_auto_mode_switch():
    assert upper_bound_tv(8, 2, 8).mode == "exact"
    assert upper_bound_tv(9, 2, 9).mode == "logfloat"


def test_bound_curve_structure():
    values = [upper_bound_tv(2, 2, k).value for k in range(1, 6)]
    assert all(b > a for a, b in zip(values[1:], values))


# sha256 of the repr of every memoised bound ingredient, recorded before the
# per-entry factors were cached
MEMO_DIGESTS = {
    (10, 3): "e6f801fb621931f6c639f60b3841eef93f05f08660e0d498647b4448e204a3f5",
    (12, 2): "798c141415e455035219c6590e591b6d19b443419a90338caec061c8563d65bb",
    (8, 4): "5c7a0c63e6d90dc0535f8020168e29b95b3f7f88f80c052244fb95e4d969fb2e",
}


def _memo_digest(n, q):
    values = (
        _type_terms(n, q),
        _fixed_space_masses(n, q, q * q),
        _fixed_space_masses(n, q, q),
        enumerate_partition_fns(n, q),
    )
    return hashlib.sha256(repr(values).encode()).hexdigest()


@pytest.mark.parametrize("n, q", sorted(MEMO_DIGESTS))
def test_memoised_terms_and_masses_are_pinned(cold_caches, n, q):
    assert _memo_digest(n, q) == MEMO_DIGESTS[n, q]  # caches filled here
    assert _memo_digest(n, q) == MEMO_DIGESTS[n, q]  # and read back warm


def test_auto_mode_falls_back_to_logfloat_beyond_the_work_cap():
    with pytest.raises(ExactArithmeticTooLargeError):
        upper_bound_tv(8, 2, 10**5, "exact")
    assert upper_bound_tv(8, 2, 10**5).mode == "logfloat"
    assert upper_bound_tv(3, 2, 10**6).mode == "logfloat"
    # the cap covers a whole range of k, each of which alone would fit
    assert resolve_mode(8, 2, [1000]) == "exact"
    assert resolve_mode(8, 2, range(1, 1001)) == "logfloat"
    with pytest.raises(ExactArithmeticTooLargeError):
        resolve_mode(8, 2, range(1, 1001), "exact")


def test_exact_mode_admits_every_small_k():
    # the tests, verify and the benchmark's chain check use k <= 2n + 2 <= 18
    for n, q in ((8, 2), (6, 3), (8, 3), (4, 5)):
        assert _exact_work(n, q, range(1, 19)) <= EXACT_WORK_MAX
        assert resolve_mode(n, q, range(1, 19)) == "exact"


@pytest.mark.parametrize("mode", ["exact", "logfloat"])
def test_positive_bound_never_reads_zero(mode):
    # at (2, 2) the squared bound is 20 (1/15)^(2k)/4 + 7 (1/3)^(2k)/4
    bound = upper_bound_tv(2, 2, 700, mode)
    assert bound.value == sys.float_info.min
    if mode == "exact":
        assert 0 < bound.squared < Fraction(sys.float_info.min) ** 2


@pytest.mark.parametrize("k", [8 * 10**307, 10**400], ids=["product-overflows", "2k-overflows"])
def test_logfloat_bound_reads_the_floor_where_2k_log_phi_leaves_the_float_range(k):
    # at k = 8e307, 2k x log(1/15) overflows a float; at 1e400, 2k itself does
    assert upper_bound_tv(2, 2, k, "logfloat") == BoundValue(sys.float_info.min, None, "logfloat")
    assert upper_bound_tv(2, 2, k) == BoundValue(sys.float_info.min, None, "logfloat")


@pytest.mark.parametrize("n, q", [(6, 2), (5, 3), (4, 4), (4, 5)])
def test_label_pass_matches_per_label_oracles(cold_caches, n, q):
    """The one pass over the label types sums what the per-label routes
    give each type: the doubled dimension of the doubled label and phi by
    the global c'-ratio route; every log term is that type's."""
    labels = enumerate_partition_fns(n, q)
    assert all(a.entries < b.entries for (a, _), (b, _) in zip(labels, labels[1:]))
    terms = _type_terms(n, q)
    assert [mult for _, mult, _ in terms] == [dim_irrep(fn.doubled(), q) for fn, _ in labels if fn != trivial_label(n)]
    types, _, (weights, log_phis), (den, masses) = bounds._label_pass(n, q)
    assert types == len(terms)
    assert {Fraction(a, den): m for a, m in masses} == _phi_masses(n, q)
    logs = [(math.log(cnt * mult), math.log(abs(phi))) for phi, mult, cnt in terms]
    assert len(weights) == len(log_phis) == len(logs)
    for got, want in zip(zip(weights.tolist(), log_phis.tolist()), logs):
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("q, top", [(2, 8), (3, 8), (4, 6), (5, 6), (7, 6)])
def test_phi_once_per_content_sum_matches_every_degree_one_block(q, top):
    """Each type's phi is phi_of_degree_one_parts of its degree-1 block,
    and the log arrays, whose phi the pass takes once per degree-1 block,
    hold exactly _log_int(count x d) and _log_fraction_abs(phi) per type."""
    for n in range(1, top + 1):
        labels = [(fn, cnt) for fn, cnt in enumerate_partition_fns(n, q) if fn != trivial_label(n)]
        terms = _type_terms(n, q)
        assert [phi for phi, _, _ in terms] == [phi_of_degree_one_parts(fn.degree_one_parts(), n, q) for fn, _ in labels]
        weights, log_phis = bounds._label_pass(n, q)[2]
        assert weights.tolist() == [_log_int(cnt * mult) for _, mult, cnt in terms]
        assert log_phis.tolist() == [_log_fraction_abs(phi) for phi, _, _ in terms]


@pytest.mark.parametrize("q, top", [(2, 8), (3, 8), (4, 6), (5, 6), (7, 6)])
def test_summary_counts_every_type_and_the_bits_of_phi(q, top):
    """The pass's number of types and largest bit length of any phi, which
    price exact work, are the oracle's: every type counted, whatever its
    phi."""
    for n in range(1, top + 1):
        terms = _type_terms(n, q)
        bits = max((max(phi.numerator.bit_length(), phi.denominator.bit_length()) for phi, _, _ in terms), default=0)
        assert bounds._label_pass(n, q)[:2] == (len(terms), bits), n


@pytest.mark.parametrize("q", [2, 3])
def test_phi_reduced_by_gcd_matches_the_fraction_route(q):
    """log|phi| and the bit length, which the pass takes from a / D reduced
    by one gcd, equal, as floats and ints, those of Fraction(a, D): one
    comparison per distinct a, n <= 14."""
    for n in range(2, 15):
        _, bits, (_, log_phis), (den, masses) = bounds._label_pass(n, q)
        phis = [Fraction(a, den) for a, _ in masses]
        assert bits == max(max(phi.numerator.bit_length(), phi.denominator.bit_length()) for phi in phis), n
        assert set(log_phis.tolist()) == {_log_fraction_abs(phi) for phi in phis}, n


def _per_type_square(n, q, k, keep=lambda phi: True):
    """Oracle: the squared bound as one reduced Fraction added per type."""
    sq = Fraction(0)
    for phi, mult, cnt in _type_terms(n, q):
        if keep(phi):
            sq += Fraction(cnt * mult) * phi ** (2 * k)
    return sq


@pytest.mark.parametrize("q, top", [(2, 8), (3, 8), (4, 6), (5, 6), (7, 6)])
def test_exact_rows_per_distinct_phi_match_the_per_type_sum(q, top):
    """An exact row, one integer sum over the distinct phi = a / D, and the
    exact part of negative_mass_bound equal the per-type Fraction sums, at
    k = 1..12 and every n from 1 up."""
    for n in range(1, top + 1):
        for k in range(1, 13):
            assert upper_bound_tv(n, q, k, "exact").squared == _per_type_square(n, q, k) / 4, (n, k)
            if n >= 2:
                assert negative_mass_bound(n, q, k)[1] == _per_type_square(n, q, k, lambda phi: phi <= 0), (n, k)


def _per_type_logfloat(n, q, k):
    """Oracle: the logfloat bound from per-type Python floats."""
    logs = [_log_int(cnt * mult) + 2 * k * _log_fraction_abs(phi) for phi, mult, cnt in _type_terms(n, q) if phi]
    top = max(logs)
    acc = sum(math.exp(lg - top) for lg in logs)
    return max(math.exp((top + math.log(acc) - math.log(4)) / 2), sys.float_info.min)


@pytest.mark.parametrize("q", [2, 3])
def test_logfloat_rows_from_arrays_are_bit_identical_to_per_type_floats(q):
    for n in range(9, 15):
        for k in range(1, n + 5):
            assert upper_bound_tv(n, q, k, "logfloat").value == _per_type_logfloat(n, q, k), (n, k)


def _block_route_mismatches(n, q, summary):
    """Label types whose log(count x d_(lam u lam)) in the pass's summary
    differs from the per-entry route of its PartitionFn, and the phi whose
    total multiplicity differs."""
    types, _, (weights, _), (den, masses) = summary
    labels = [fn for fn, _ in enumerate_partition_fns(n, q) if fn != trivial_label(n)]
    terms = _type_terms(n, q)
    assert types == len(labels) == len(terms) == len(weights)
    bad = [fn.entries for fn, (_, mult, cnt), got in zip(labels, terms, weights.tolist()) if got != _log_int(cnt * mult)]
    got_masses = {Fraction(a, den): m for a, m in masses}
    return bad + [phi for phi, m in _phi_masses(n, q).items() if got_masses.get(phi) != m]


@pytest.mark.parametrize("n, q", [(6, 2), (5, 3), (4, 4), (3, 5)])
def test_block_pass_matches_per_entry_route(cold_caches, n, q):
    """Oracle: per type, the pass over the blocks gives what
    doubled_dim_irrep gives from the type's PartitionFn."""
    assert _block_route_mismatches(n, q, bounds._label_pass(n, q)) == []


def test_block_pass_catches_a_scaled_degree_two_factor(cold_caches, monkeypatch):
    """Mutation: the dimension denominator of the degree-2 entry (2, (1,))
    scaled by 7 in the pass either trips the integrality check or makes
    the pass disagree with the per-entry route."""
    real = combinat._doubled_dim_factor

    def scaled(d, lam, q):
        f_num, f_den = real(d, lam, q)
        return (f_num, f_den * 7) if (d, lam) == (2, (1,)) else (f_num, f_den)

    monkeypatch.setattr(bounds, "_doubled_dim_factor", scaled)
    try:
        summary = bounds._label_pass.__wrapped__(5, 3)  # the cache keeps the true summary
    except NonIntegerResultError:
        return
    assert _block_route_mismatches(5, 3, summary)


def _chi_squares_from_j(chain, k_max):
    """chi^2(m_k, pi_J) for k = 1..k_max: m_k the lumped law after k steps
    from J, pi_J(L) = (q - 1)|L|/S the uniform law on J's Pfaffian sector."""
    S, q = chain.num_states, chain.q
    start = [int(i == chain.starts[0]) for i in range(chain.num_lumps)]
    out = []
    for k, m in enumerate(chain._evolve(start, k_max)):
        D = chain.move_count ** k
        pi = {i: Fraction((q - 1) * chain.lump_sizes[i], S) for i in chain.sector_lumps}
        out.append(sum((Fraction(m[i], D) - pi[i]) ** 2 / pi[i] for i in chain.sector_lumps))
    return out[1:]


@pytest.mark.parametrize("chain", ["chain22", "chain23", "chain32", "chain24"])
def test_spectral_sum_is_q_minus_1_times_chain_chi_square(request, chain):
    """4 upper^2 = (q - 1) chi^2(m_k, pi_J) exactly, k = 1..8: the spectral
    terms (phi, d_(lam u lam), counts) against the exact lumped chain."""
    chain = request.getfixturevalue(chain)
    n, q = chain.n, chain.q
    for k, chi2 in enumerate(_chi_squares_from_j(chain, 8), start=1):
        assert 4 * upper_bound_tv(n, q, k, "exact").squared == (q - 1) * chi2, k


def test_spectral_sum_identity_catches_a_scaled_multiplicity(monkeypatch, chain23):
    """Mutation: one nonzero phi's multiplicity doubled breaks the identity."""
    types, bits, logs, (den, masses) = bounds._label_pass(2, 3)
    masses = list(masses)
    i = next(i for i, (a, _) in enumerate(masses) if a)
    a, mass = masses[i]
    masses[i] = (a, 2 * mass)
    monkeypatch.setattr(bounds, "_label_pass", lambda n, q: (types, bits, logs, (den, tuple(masses))))
    for k, chi2 in enumerate(_chi_squares_from_j(chain23, 8), start=1):
        assert 4 * upper_bound_tv(2, 3, k, "exact").squared != 2 * chi2, k


def test_spectral_sum_identity_catches_swapped_lump_sizes(chain23):
    """Mutation: the sizes of two sector lumps of different size swapped
    break the identity at some k <= 8."""
    sizes = list(chain23.lump_sizes)
    i, j = next(
        (i, j) for i, j in itertools.combinations(chain23.sector_lumps, 2) if sizes[i] != sizes[j]
    )
    sizes[i], sizes[j] = sizes[j], sizes[i]
    swapped = dataclasses.replace(chain23, lump_sizes=sizes)
    assert any(
        4 * upper_bound_tv(2, 3, k, "exact").squared != 2 * chi2
        for k, chi2 in enumerate(_chi_squares_from_j(swapped, 8), start=1)
    )


@pytest.mark.parametrize("n, q", [(10, 65537), (9, 1000003)])
def test_logfloat_bound_beyond_the_float_range_reads_inf(n, q):
    """A logfloat bound whose float overflows reads math.inf instead of
    raising OverflowError."""
    t0 = time.perf_counter()
    bound = upper_bound_tv(n, q, 1, "logfloat")
    assert time.perf_counter() - t0 < 5
    assert bound.value == math.inf


def test_exact_square_beyond_the_float_range_keeps_its_root(monkeypatch):
    """An exact square beyond the float range: its root is read off its
    logs where it fits a float, and reads math.inf where it does not."""
    bound = upper_bound_tv(8, 1000003, 1, "exact")
    sq = bound.squared
    assert sq > sys.float_info.max
    assert bound.value == pytest.approx(math.isqrt(sq.numerator // sq.denominator), rel=1e-9)
    types, bits, logs, (den, _) = bounds._label_pass(2, 2)
    monkeypatch.setattr(bounds, "_label_pass", lambda n, q: (types, bits, logs, (den, ((den, 4 ** 1100),))))  # phi = 1
    bound = upper_bound_tv(2, 2, 1, "exact")
    assert bound.squared == 4 ** 1099 and bound.value == math.inf


def test_huge_step_ranges_are_assessed_at_once():
    t0 = time.perf_counter()
    huge = range(1, 10 ** 11)
    assert resolve_mode(3, 2, huge) == "logfloat"
    with pytest.raises(ExactArithmeticTooLargeError):
        resolve_mode(3, 2, huge, "exact")
    with pytest.raises(StepRangeTooLargeError):
        check_row_work(3, 2, huge)
    assert time.perf_counter() - t0 < 1
    # the closed form is the sum it replaces
    for ks in (range(1, 30), range(5, 6), range(7, 1000)):
        assert _exact_work(8, 2, ks) == _exact_work(8, 2, list(ks))
    # beyond the float range and the 4,300-digit str limit, the messages still form
    beyond = range(1, 10 ** 5000)
    with pytest.raises(StepRangeTooLargeError, match=r"up to k=2\^16610 "):
        check_row_work(3, 2, beyond)
    with pytest.raises(ExactArithmeticTooLargeError):
        resolve_mode(3, 2, beyond, "exact")
    rows = ROW_WORK_MAX // (len(_type_terms(3, 2)) + bounds.ROW_COST_TERMS)
    check_row_work(3, 2, range(1, rows + 1))
    with pytest.raises(StepRangeTooLargeError):
        check_row_work(3, 2, range(1, rows + 2))


@pytest.mark.parametrize("q", [2, 3, 6])
def test_negative_mass_bound_refuses_n_below_2(q):
    """negative_mass_bound(1, q, k) ended in a ZeroDivisionError: its crude
    bound divides by (q^0 - 1)^(2k)."""
    with pytest.raises(ValueError, match="n >= 2, got 1"):
        negative_mass_bound(1, q, 1)


@pytest.mark.parametrize(
    "n, q, error, match",
    [
        (2, 1, ValueError, "field order must be >= 2"),
        (0, 2, ValueError, "n must be >= 1, got 0"),
        (-3, 2, ValueError, "n must be >= 1, got -3"),
        (2, 6, NotPrimeError, "6 is not a prime power"),
    ],
)
def test_ratio_constant_check_refuses_bad_n_and_q(n, q, error, match):
    """(2, 1) ended in a ZeroDivisionError; (0, 2) and (-3, 2) read (1,
    True); (2, 6) was accepted.  n beyond the enumeration cap stays
    admitted (test_ratio_constant_bounded_and_converging)."""
    with pytest.raises(error, match=match):
        ratio_constant_check(n, q)


@pytest.mark.parametrize("q, error", [(6, NotPrimeError), (1, ValueError), (2**20 + 7, FieldTooLargeError)])
def test_bounds_refuse_a_q_that_is_not_a_prime_power(cold_caches, q, error):
    """upper_bound_tv(3, 6, 1) read 237.64 as "exact", support_fraction(3,
    6, 1) a fraction, and q = 1 ended in a ZeroDivisionError."""
    for call in (upper_bound_tv, support_fraction, fixed_space_tail_check, negative_mass_bound):
        with pytest.raises(error):
            call(3, q, 1)
    with pytest.raises(error):
        upper_bound_tv(3, q, 1, "logfloat")


@pytest.mark.parametrize("mode", ["bogus", "Exact", ""])
def test_unknown_mode_is_refused(mode):
    """An unknown mode took the logfloat path and reported "logfloat"."""
    with pytest.raises(ValueError, match="auto, exact or logfloat"):
        upper_bound_tv(2, 2, 1, mode)
    with pytest.raises(ValueError, match="auto, exact or logfloat"):
        resolve_mode(2, 2, range(1, 5), mode)
