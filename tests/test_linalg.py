import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from sympwalk.errors import DimensionMismatchError, SingularMatrixError
from sympwalk.field import (
    PolyFq,
    build_field,
    enumerate_irreducibles,
    field_from_order,
    is_irreducible,
)
from sympwalk.linalg import (
    MatFq,
    Transvection,
    all_transvections,
    annihilator_basis,
    charpoly,
    class_invariant,
    factor_poly,
    is_form_preserving,
    projective_vectors,
    sample_symplectic,
    sample_transvection,
    standard_J,
    symplectic_transvection_count,
    transvection_count,
)

F2 = build_field(2, 1)
F3 = build_field(3, 1)


def g2_example():
    """The 4x4 generator with a single superdiagonal 1 (a transvection)."""
    return MatFq(F2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_rank_identity():
    assert MatFq.identity(F2, 4).rank() == 4


def test_kernel_dim_of_g2_minus_identity():
    g2 = g2_example()  # over F_2, g2 - I = g2 + I
    assert 4 - (g2 + MatFq.identity(F2, 4)).rank() == 3


def test_inverse_of_J_over_F3():
    J = standard_J(2, F3)
    assert J.inverse() * J == MatFq.identity(F3, 4)


def test_J_squared_over_F2():
    J = standard_J(2, F2)
    assert J * J == MatFq.identity(F2, 4)


def test_standard_J_matrices():
    assert standard_J(1, F2).to_lists() == [[0, 1], [1, 0]]
    assert standard_J(2, F3).to_lists() == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [2, 0, 0, 0],
        [0, 2, 0, 0],
    ]


def test_alternating_check_requires_zero_diagonal():
    # symmetric with zero diagonal is alternating in characteristic 2
    assert standard_J(2, F2).is_alternating()
    m = MatFq(F2, [[1, 1], [1, 0]])
    assert not m.is_alternating()


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrixError):
        MatFq(F2, [[1, 1], [1, 1]]).inverse()
    with pytest.raises(DimensionMismatchError):
        MatFq(F2, [[1, 1]]) * MatFq(F2, [[1, 1]])


def test_is_form_preserving_cases():
    J = standard_J(2, F2)
    assert is_form_preserving(MatFq.identity(F2, 4), J)
    assert not is_form_preserving(g2_example(), J)
    # a symplectic transvection I + v omega(v, .)
    v = (1, 0, 0, 0)
    t = Transvection(F2, v, J.rows[0])  # f = e_1^T J
    assert is_form_preserving(t.matrix(), J)


def brute_force_transvection_matrices(dim, field):
    """Oracle: every (v, f) pair with f(v) = 0, v, f != 0, as matrices."""
    q = field.q
    mats = Counter()
    vectors = []
    for code in range(1, q ** dim):
        v = []
        c = code
        for _ in range(dim):
            v.append(c % q)
            c //= q
        vectors.append(tuple(v))
    for v in vectors:
        for f in vectors:
            acc = 0
            for a, b in zip(f, v):
                acc = field.add(acc, field.mul(a, b))
            if acc == 0:
                mats[Transvection(field, v, f).matrix().key()] += 1
    return mats


@pytest.mark.parametrize("q,field", [(2, F2), (3, F3)])
def test_transvection_census(q, field):
    dim = 4
    mats = brute_force_transvection_matrices(dim, field)
    assert len(mats) == transvection_count(dim, q)
    # each transvection arises from exactly q - 1 pairs
    assert set(mats.values()) == {q - 1}
    enumerated = {t.matrix().key() for t in all_transvections(dim, field)}
    assert enumerated == set(mats)
    J = standard_J(dim // 2, field)
    sym = sum(1 for t in all_transvections(dim, field) if is_form_preserving(t.matrix(), J))
    assert sym == symplectic_transvection_count(dim, q)


# SHA-256 of [(t.v, t.f) for t in all_transvections(4, F_q)] and of
# list(projective_vectors(4, F_q)): the enumeration order is part of the
# contract (chain builders and seeded outputs depend on it)
TRANSVECTION_ORDER_DIGESTS = {
    2: (
        "9a3f5b0b71e2a7fa61f4458d7ec4c50f87085be2200d2784868ec35cb2592d89",
        "ddc1e684cf924f52e991e30c3d2ef3b3889589e6cd612cade5bead36527e2db8",
    ),
    3: (
        "a647e79740d71c00d8b5dada1fcb0c73c6dd36456c15e7d6110cb0cecda701c8",
        "0a7b0fbd1d18d08cc772b1809d28028bbb5c7fb706f1b9e47efe7b053edde243",
    ),
    4: (
        "095c327d05c701dbe0b2389ba0fe355de69cf2c132b45e10aaad604261669732",
        "cdf121abf25ad96c695d02c40c64835949084654ea21abc7e05828c452278f08",
    ),
}


@pytest.mark.parametrize("q", sorted(TRANSVECTION_ORDER_DIGESTS))
def test_transvection_enumeration_order_is_pinned(q):
    field = field_from_order(q)
    tvs = repr([(t.v, t.f) for t in all_transvections(4, field)])
    pvs = repr(list(projective_vectors(4, field)))
    got = tuple(hashlib.sha256(r.encode()).hexdigest() for r in (tvs, pvs))
    assert got == TRANSVECTION_ORDER_DIGESTS[q]


def test_transvection_counts_at_2_2():
    assert transvection_count(4, 2) == 105
    assert symplectic_transvection_count(4, 2) == 15


def test_sample_transvection_properties():
    rng = random.Random(7)
    for field in (F2, F3):
        minus_ident = MatFq.identity(field, 4).scale(field.neg(1))
        for _ in range(100):
            t = sample_transvection(2, field, rng)
            d = t.matrix() + minus_ident
            assert d.rank() == 1
            assert d * d == MatFq.zeros(field, 4)  # unipotent, so det = 1


def test_sample_transvection_exhausts_uniformly():
    # with q = 2 each transvection comes from exactly one (v, f) pair, so
    # modest sampling must stay roughly uniform over all 105
    rng = random.Random(3)
    counts = Counter(sample_transvection(2, F2, rng).matrix().key() for _ in range(21000))
    assert len(counts) == 105
    expected = 200
    assert all(abs(c - expected) < 5 * (expected * (1 - 1 / 105)) ** 0.5 for c in counts.values())


def test_annihilator_basis_spans_kernel():
    for field in (F2, F3):
        for v in list(projective_vectors(4, field))[:10]:
            basis = annihilator_basis(v, field)
            assert len(basis) == 3
            for f in basis:
                acc = 0
                for a, b in zip(f, v):
                    acc = field.add(acc, field.mul(a, b))
                assert acc == 0


def test_sample_symplectic_preserves_form():
    rng = random.Random(5)
    for field, n in ((F2, 2), (F3, 2), (F2, 3)):
        J = standard_J(n, field)
        for _ in range(50):
            g = sample_symplectic(n, field, rng)
            assert is_form_preserving(g, J)


def test_sample_symplectic_draws_are_pinned():
    # 20 seeded draws per (q, n) and the rng state after them: a change to
    # one draw, one matrix entry or the sequence of rng calls moves this
    h = hashlib.sha256()
    for q in (2, 3, 4, 9):
        field = field_from_order(q)
        for n in (1, 2, 3):
            rng = random.Random(1000 * q + n)
            for _ in range(20):
                h.update(repr(sample_symplectic(n, field, rng).rows).encode())
            h.update(repr(rng.random()).encode())
    assert h.hexdigest() == "bef2a2ce429dc14d2134fe95200b79523f03d4aa3029028c4b0a1cee7e189d73"


def test_sample_symplectic_uniform_sp2():
    # |Sp_2(F_2)| = |SL_2(F_2)| = 6; exhaustive chi-square style check
    rng = random.Random(13)
    trials = 30000
    counts = Counter(sample_symplectic(1, F2, rng).rows for _ in range(trials))
    assert len(counts) == 6
    expected = trials / 6
    sigma = (trials * (1 / 6) * (5 / 6)) ** 0.5
    for c in counts.values():
        assert abs(c - expected) < 5 * sigma


class _Replay:
    """Stands in for random.Random: randrange(q) returns the given draws in turn."""

    def __init__(self, draws, q):
        self.draws, self.q = iter(draws), q

    def randrange(self, stop):
        assert stop == self.q
        return next(self.draws)

    def spent(self):
        return next(self.draws, None) is None


def _accepted_draws(n, q):
    """Every draw sequence that sample_symplectic(n) accepts: per pair, over
    its W of dimension d = 2n, 2n - 2, ..., 2, the d coefficients of e (not
    all 0), then the d - 1 coefficients of f's kernel part."""
    per_pair = []
    for d in range(2 * n, 0, -2):
        nonzero = [c for c in itertools.product(range(q), repeat=d) if any(c)]
        per_pair.append([e + k for e in nonzero for k in itertools.product(range(q), repeat=d - 1)])
    return [sum(pairs, ()) for pairs in itertools.product(*per_pair)]


@pytest.mark.parametrize("q, order", [(2, 720), (3, 51840)])
def test_sample_symplectic_maps_accepted_draws_onto_sp4(q, order):
    """Exact uniformity: every accepted draw sequence has probability
    1 / order (e uniform among nonzero vectors, f's kernel part uniform),
    and sample_symplectic maps the order = |Sp_4(F_q)| sequences one to one
    onto form-preserving matrices.  A zero e is redrawn."""
    field = build_field(q, 1)
    seqs = _accepted_draws(2, q)
    assert len(seqs) == order
    mats = set()
    for seq in seqs:
        rng = _Replay(seq, q)
        mats.add(sample_symplectic(2, field, rng).rows)
        assert rng.spent()
    assert len(mats) == order
    m = np.array(sorted(mats))
    J = np.array(standard_J(2, field).to_lists())
    assert not ((m.transpose(0, 2, 1) @ J @ m - J) % q).any()
    redrawn = sample_symplectic(2, field, _Replay((0,) * 4 + seqs[7], q))
    assert redrawn == sample_symplectic(2, field, _Replay(seqs[7], q))


def test_charpoly_companion_oracle():
    # charpoly(companion(f)) = f for monic f: an independent construction
    rng = random.Random(23)
    for field in (F2, F3):
        for _ in range(20):
            deg = rng.randrange(2, 6)
            coeffs = [rng.randrange(field.q) for _ in range(deg)] + [1]
            comp = [[0] * deg for _ in range(deg)]
            for i in range(1, deg):
                comp[i][i - 1] = 1
            for i in range(deg):
                comp[i][deg - 1] = field.neg(coeffs[i])
            got = charpoly(MatFq(field, comp))
            assert got.coeffs == tuple(coeffs)


def test_charpoly_diagonal_oracle():
    got = charpoly(MatFq.diagonal(F3, [1, 2, 2]))
    x_minus = lambda a: PolyFq(F3, (F3.neg(a), 1))
    assert got == x_minus(1) * x_minus(2) * x_minus(2)


def _irreducible_pool(field):
    """Monic irreducibles to multiply together: every one of degree 1-3
    for small q; over F_251, x - a and x^2 - c with c a non-residue."""
    p = field.p
    if field.q < 251:
        return [f for d in (1, 2, 3) if field.q ** d <= 729 for f in enumerate_irreducibles(field, d)]
    linear = [PolyFq(field, (field.neg(a), 1)) for a in range(p)]
    quadratic = [PolyFq(field, (p - c, 0, 1)) for c in range(1, p) if pow(c, (p - 1) // 2, p) == p - 1]
    return linear + quadratic


def test_factor_poly_roundtrip():
    # F_4 exercises the characteristic-2 trace split, F_251 large p
    rng = random.Random(31)
    for q in (3, 4, 9, 251):
        field = field_from_order(q)
        pool = _irreducible_pool(field)
        for _ in range(25):
            chosen = rng.sample(pool, k=rng.randrange(1, 5))
            mults = [rng.randrange(1, 4) for _ in chosen]
            poly = PolyFq.one(field)
            for f, m in zip(chosen, mults):
                for _ in range(m):
                    poly = poly * f
            got = factor_poly(poly.scale(rng.randrange(1, q)))
            want = sorted(
                zip(chosen, mults), key=lambda fm: (fm[0].degree, fm[0].coeffs)
            )
            assert got == want, (q, poly)
            assert all(is_irreducible(f) for f, _ in got)


def test_class_invariant_examples():
    assert class_invariant(MatFq.identity(F2, 4)).degree_partition_pairs() == (
        (1, (1, 1, 1, 1)),
    )
    assert class_invariant(g2_example()).degree_partition_pairs() == ((1, (2, 1, 1)),)
    # diag(M, M^T) for M the 2x2 unipotent Jordan block
    m = MatFq(F2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]])
    assert class_invariant(m).degree_partition_pairs() == ((1, (2, 2)),)


def test_class_invariant_conjugation_invariance():
    rng = random.Random(41)
    for field in (F2, F3):
        checked = 0
        while checked < 1000:
            rows = [[rng.randrange(field.q) for _ in range(4)] for _ in range(4)]
            x = MatFq(field, rows)
            if x.rank() < 4:
                continue
            grows = [[rng.randrange(field.q) for _ in range(4)] for _ in range(4)]
            g = MatFq(field, grows)
            if g.rank() < 4:
                continue
            conj = g * x * g.inverse()
            assert class_invariant(conj).entries == class_invariant(x).entries
            checked += 1


def test_every_transvection_has_fixed_class_type():
    rng = random.Random(43)
    for field, n in ((F2, 2), (F3, 2), (F2, 3)):
        for _ in range(50):
            t = sample_transvection(n, field, rng)
            inv = class_invariant(t.matrix())
            assert inv.degree_partition_pairs() == ((1, (2,) + (1,) * (2 * n - 2)),)
