"""Acceptance gate: one test per criterion, at the stated tolerance.

Every test prints a single line "ACCEPTANCE <k> PASS ..." on success (shown
with pytest -s/-v); assertion failures carry the counterexample.  Exact
criteria compare Fractions; statistical ones use the stated sigma budget.
"""

import math
import time
from fractions import Fraction

from sympwalk.bounds import (
    fixed_space_tail_check,
    lower_bound_tv,
    ratio_constant_check,
    support_fraction,
    upper_bound_tv,
)
from sympwalk.combinat import (
    class_size,
    class_size_qsq,
    coset_space_size,
    dim_irrep,
    enumerate_partition_fns,
    gl_order,
)
from sympwalk.field import build_field
from sympwalk.linalg import (
    all_transvections,
    is_form_preserving,
    standard_J,
    symplectic_transvection_count,
    transvection_count,
)
from sympwalk.spectral import (
    corner_bound,
    eigenvalue_floor,
    eigenvalue_phi,
    eigenvalue_phi_global,
    eigenvalue_via_lift,
    proportions_a_b,
)
from sympwalk.walk import exact_form_chain, monte_carlo_tv, support_violations


def _report(idx, detail):
    print(f"ACCEPTANCE {idx} PASS: {detail}")


def _charpoly_fractions(matrix):
    n = len(matrix)
    coeffs = [Fraction(1)]
    mat = [row[:] for row in matrix]
    for k in range(1, n + 1):
        c = -sum(mat[i][i] for i in range(n)) / k
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            mat[i][i] += c
        mat = [
            [sum(matrix[i][t] * mat[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def _poly_from_roots(roots):
    out = [Fraction(1)]
    for r in roots:
        new = [Fraction(0)] * (len(out) + 1)
        for i, c in enumerate(out):
            new[i] += c
            new[i + 1] -= c * r
        out = new
    return out


def test_criterion_1_example_reproduction():
    t0 = time.time()
    chain = exact_form_chain(2, 2)
    want = [
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1, 15), Fraction(6, 15), Fraction(8, 15)],
        [Fraction(0), Fraction(2, 3), Fraction(1, 3)],
    ]
    assert chain.lumped_transition == want
    got = _charpoly_fractions(chain.lumped_transition)
    assert got == _poly_from_roots([Fraction(1), Fraction(1, 15), Fraction(-1, 3)])
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion runtime {elapsed:.2f}s exceeds 5s"
    _report(1, f"3x3 matrix and spectrum {{1, 1/15, -1/3}} exact in {elapsed:.2f}s")


def test_criterion_2_eigenvalue_triple_agreement(chain22):
    t0 = time.time()
    checked = 0
    for q in (2, 3):
        for n in range(1, 5):
            for fn, _ in enumerate_partition_fns(n, q):
                assert eigenvalue_phi(fn, n, q) == eigenvalue_phi_global(
                    fn, n, q
                ) == eigenvalue_via_lift(fn, n, q)
                checked += 1
    # and at (2, 2) both match the lumped-chain spectrum
    got = _charpoly_fractions(chain22.lumped_transition)
    phis = [
        eigenvalue_phi(fn, 2, 2)
        for fn, cnt in enumerate_partition_fns(2, 2)
        for _ in range(cnt)
    ]
    assert got == _poly_from_roots(phis)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, f"{checked} labels triple-agree; chain spectrum matches ({elapsed:.1f}s)")


def test_criterion_3_counting_identities():
    t0 = time.time()
    for q in (2, 3):
        for n in range(1, 6):
            total = sum(
                cnt * class_size(fn, q) for fn, cnt in enumerate_partition_fns(n, q)
            )
            assert total == gl_order(n, q), (n, q)
        for n in range(1, 5):
            fns = enumerate_partition_fns(n, q)
            assert sum(cnt * class_size_qsq(fn, q) for fn, cnt in fns) == coset_space_size(n, q)
            lns = enumerate_partition_fns(n, q)
            assert (
                sum(cnt * dim_irrep(fn.doubled(), q) for fn, cnt in lns)
                == coset_space_size(n, q)
            )
    dims = sorted(
        dim_irrep(fn.doubled(), 2) for fn, _ in enumerate_partition_fns(2, 2)
    )
    assert dims == [1, 7, 20] and sum(dims) == 28
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(3, f"class/coset/dimension sums verified (n<=5, q in 2,3) in {elapsed:.1f}s")


def test_criterion_4_transvection_census():
    t0 = time.time()
    for q in (2, 3):
        field = build_field(q, 1)
        dim = 4
        J = standard_J(2, field)
        seen = set()
        sym = 0
        for t in all_transvections(dim, field):
            seen.add(t.matrix().key())
            if is_form_preserving(t.matrix(), J):
                sym += 1
        assert len(seen) == transvection_count(dim, q)
        assert sym == symplectic_transvection_count(dim, q)
        a, b = proportions_a_b(2, q)
        assert a == Fraction(len(seen) - sym, len(seen))
        assert b == Fraction(sym, len(seen))
    assert proportions_a_b(2, 2) == (Fraction(6, 7), Fraction(1, 7))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(4, f"census (105, 15) at q=2 and (1040, 80) at q=3; (a,b)=(6/7,1/7) ({elapsed:.1f}s)")


def test_criterion_5_bound_sandwich(chain22, chain23, chain32):
    t0 = time.time()
    for chain in (chain22, chain23, chain32):
        n, q = chain.n, chain.q
        rows = chain.tv_curve(max(12, n))
        tv = {k: tv_full for k, tv_full, _ in rows}
        for k in range(1, 13):
            bound_sq = upper_bound_tv(n, q, k, "exact").squared
            assert tv[k] * tv[k] <= bound_sq, (n, q, k)
        for c in range(0, n + 1):
            assert lower_bound_tv(n, q, c) <= tv[n - c], (n, q, c)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(5, f"TV sandwich exact at (2,2), (2,3), (3,2) for k<=12, all c ({elapsed:.1f}s)")


def test_criterion_6_support_theorem():
    t0 = time.time()
    total = 0
    violations = 0
    cells = [(n, q, c) for q in (2, 3) for n in range(2, 7) for c in range(n + 1)]
    per_cell = max(1, 10 ** 5 // len(cells) + 1)
    for n, q, c in cells:
        v, tr = support_violations(n, q, c, per_cell, seed=1000 + 7 * n + q + c)
        violations += v
        total += tr
    assert total >= 10 ** 5
    assert violations == 0
    elapsed = time.time() - t0
    _report(6, f"{total} sampled products, 0 violations of the {'>='}c-parts support law ({elapsed:.1f}s)")


def test_criterion_7_eigenvalue_floor_and_corner_bound():
    t0 = time.time()
    checked = 0
    for q in (2, 3):
        for n in range(2, 6):
            floor = eigenvalue_floor(n, q)
            for fn, _ in enumerate_partition_fns(n, q):
                phi = eigenvalue_phi(fn, n, q)
                assert floor <= phi, (n, q, fn)
                assert phi <= corner_bound(fn, n, q), (n, q, fn)
                checked += 1
    _report(7, f"floor and corner bound hold for {checked} labels (n<=5, q in 2,3) ({time.time()-t0:.1f}s)")


def test_criterion_8_fixed_space_tail():
    t0 = time.time()
    for q in (2, 3, 4):
        for n in range(1, 7):
            for c in range(n + 1):
                lhs, rhs, ok = fixed_space_tail_check(n, q, c)
                assert ok, (n, q, c, lhs, rhs)
    _report(8, f"class tail inequality exact for n<=6, q in 2,3,4, all c ({time.time()-t0:.1f}s)")


def test_criterion_9_cutoff_profile():
    t0 = time.time()
    n, q = 12, 2
    values = {c: upper_bound_tv(n, q, n + c, "logfloat").value for c in range(2, 12)}
    rates = [values[c] / values[c + 1] for c in range(2, 11)]
    assert all(r >= q * q for r in rates), rates
    fitted = math.exp(sum(math.log(r) for r in rates) / len(rates))
    # lower-bound side: 1 - bound(c) <= 4 C q^(1-c), exactly
    const, bounded = ratio_constant_check(n, q)
    assert bounded
    for c in range(0, n + 1):
        one_minus = min(Fraction(1), q * support_fraction(n, q, c))
        assert one_minus <= 4 * const * Fraction(q) ** (1 - c), c
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(
        9,
        f"upper bound decays by >= q^2 per step (fitted {fitted:.6f}); "
        f"lower-bound tail algebra exact ({elapsed:.1f}s)",
    )


def test_criterion_10_monte_carlo_consistency(chain22):
    t0 = time.time()
    exact = {k: tv for k, tv, _ in chain22.tv_curve(5)}
    assert exact[1] == Fraction(13, 28) and exact[2] == Fraction(19, 140)
    for k in (1, 2, 5):
        res = monte_carlo_tv(2, 2, k, 10 ** 6, seed=400 + k)
        diff = abs(float(res.estimate - exact[k]))
        assert diff <= max(3 * res.stderr, 1e-12), (k, diff, res.stderr)
    rerun = monte_carlo_tv(2, 2, 2, 10 ** 6, seed=402)
    first = monte_carlo_tv(2, 2, 2, 10 ** 6, seed=402)
    assert rerun.estimate == first.estimate and rerun.counts == first.counts
    elapsed = time.time() - t0
    _report(10, f"MC at k=1,2,5 within 3 sigma of exact; seeded runs identical ({elapsed:.1f}s)")
