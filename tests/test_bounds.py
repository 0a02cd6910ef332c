import dataclasses
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
from sympwalk import bounds
from sympwalk.bounds import (
    EXACT_WORK_MAX,
    ROW_WORK_MAX,
    _exact_work,
    _fixed_space_masses,
    _spectral_terms,
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
    a_mu,
    class_size,
    class_size_qsq,
    coset_space_size,
    dim_irrep,
    enumerate_partition_fns,
    gl_order,
    sp_order,
)
from sympwalk.errors import ExactArithmeticTooLargeError, StepRangeTooLargeError
from sympwalk.field import field_from_order
from sympwalk.linalg import standard_J
from sympwalk.spectral import eigenvalue_phi_global, label_types, trivial_label
from sympwalk.walk import _realify


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
        kept = sum(cnt for _, _, cnt in _spectral_terms(n, q))
        assert all_count - kept == q - 1


def test_support_fraction_examples():
    assert support_fraction(2, 2, 0) == 1
    assert support_fraction(2, 2, 1) == Fraction(4, 7)
    assert support_fraction(2, 2, 2) == Fraction(1, 28)
    # (1 + 15) * 720 / 20160 = 4/7: identity and transvection cosets qualify
    assert Fraction((1 + 15) * 720, 20160) == Fraction(4, 7)


def _labels_per_partition_at_x_minus_1(fn, cnt, q):
    """Oracle: split the cnt labels of a type by the partition (possibly
    empty) that x - 1 carries, listing every arrangement of the type's
    degree-1 partitions over the q - 1 degree-1 orbits, x - 1 first."""
    at_one = [lam for d, lam in fn.entries if d == 1]
    arrangements = set(itertools.permutations(at_one + [()] * (q - 1 - len(at_one))))
    per_arrangement, rem = divmod(cnt, len(arrangements))
    assert rem == 0
    return {
        pi: m * per_arrangement
        for pi, m in Counter(arrangement[0] for arrangement in arrangements).items()
    }


@pytest.mark.parametrize(
    "n, q", [(n, 2) for n in range(2, 7)] + [(n, 3) for n in range(2, 5)] + [(2, 5), (3, 5)]
)
def test_support_fraction_matches_per_label_sum(n, q):
    split = [
        (class_size_qsq(fn, q), _labels_per_partition_at_x_minus_1(fn, cnt, q))
        for fn, cnt in enumerate_partition_fns(n, q)
    ]
    for c in range(n + 1):
        total = sum(
            labels * size for size, at in split for pi, labels in at.items() if len(pi) >= c
        )
        assert support_fraction(n, q, c) == Fraction(total * sp_order(n, q), gl_order(2 * n, q))


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
        _spectral_terms(n, q),
        _fixed_space_masses(n, q, class_size_qsq),
        _fixed_space_masses(n, q, class_size),
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


@pytest.mark.parametrize("n, q", [(6, 2), (5, 3), (4, 4), (4, 5)])
def test_label_pass_matches_per_label_oracles(cold_caches, n, q):
    """Each label type's data from the one integer pass equals the per-label
    routes: the doubled dimension of the doubled label, the q^2 class size
    of the Fraction a_mu, and phi by the global c'-ratio route."""
    labels = enumerate_partition_fns(n, q)
    assert all(a.entries < b.entries for (a, _), (b, _) in zip(labels, labels[1:]))
    types = label_types(n, q)
    assert [(fn, cnt) for fn, cnt, *_ in types] == list(labels)
    terms = iter(_spectral_terms(n, q))
    for fn, cnt, parts, mult, phi in types:
        assert parts == tuple(lam for d, lam in fn.entries if d == 1)
        assert mult == dim_irrep(fn.doubled(), q)
        assert phi == eigenvalue_phi_global(fn, n, q)
        assert class_size_qsq(fn, q) == Fraction(gl_order(n, q * q)) / a_mu(fn, q * q)
        if fn != trivial_label(n):
            assert next(terms) == (phi, mult, cnt)
    assert next(terms, None) is None


def _chi_squares_from_j(chain, k_max):
    """chi^2(m_k, pi_J) for k = 1..k_max: m_k the lumped law after k steps
    from J, pi_J(L) = (q - 1)|L|/S the uniform law on J's Pfaffian sector."""
    S, q = chain.num_states, chain.q
    start = [int(i == chain.j_lump) for i in range(chain.num_lumps)]
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
    """Mutation: one term's multiplicity doubled breaks the identity."""
    terms = list(_spectral_terms(2, 3))
    i = next(i for i, (phi, _, _) in enumerate(terms) if phi)
    phi, mult, cnt = terms[i]
    terms[i] = (phi, 2 * mult, cnt)
    monkeypatch.setattr(bounds, "_spectral_terms", lambda n, q: tuple(terms))
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
    monkeypatch.setattr(bounds, "_spectral_terms", lambda n, q: ((Fraction(1), 4 ** 1100, 1),))
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
    rows = ROW_WORK_MAX // (len(_spectral_terms(3, 2)) + bounds.ROW_COST_TERMS)
    check_row_work(3, 2, range(1, rows + 1))
    with pytest.raises(StepRangeTooLargeError):
        check_row_work(3, 2, range(1, rows + 2))
