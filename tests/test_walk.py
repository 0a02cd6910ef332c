import dataclasses
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympwalk import _engine, walk
from sympwalk.bounds import upper_bound_tv
from sympwalk.combinat import (
    PartitionFn,
    class_size_qsq,
    coset_space_size,
    gl_order,
    sp_order,
)
from sympwalk.errors import (
    InternalError,
    OddMultiplicityError,
    StateSpaceTooLargeError,
    StepRangeTooLargeError,
)
from sympwalk.field import PolyFq, build_field, field_from_order
from sympwalk.linalg import (
    MatFq,
    all_transvections,
    factor_poly,
    is_form_preserving,
    sample_symplectic,
    sample_transvection,
    standard_J,
)
from sympwalk.spectral import eigenvalue_phi
from sympwalk.walk import (
    DEFAULT_STATE_CAP,
    _classify_states_batched,
    _classify_X,
    _initial_gram,
    _key_type_from_pairs,
    _mul_blocks,
    _realify,
    chain_work,
    classify_double_coset,
    double_coset_key,
    exact_form_chain,
    group_walk_step,
    monte_carlo_curve,
    monte_carlo_tv,
    nonsymplectic_representative,
    stationary_type_distribution,
    support_violations,
)

F2 = build_field(2, 1)
F3 = build_field(3, 1)

ID2 = PartitionFn.make([(1, (1, 1))])
TRANSVECTION2 = PartitionFn.make([(1, (2,))])


def test_form_space_sizes():
    assert coset_space_size(2, 2) == 28
    assert coset_space_size(2, 3) == 468
    assert coset_space_size(3, 2) == 13888


def test_classifier_on_states_and_elements():
    g2 = MatFq(F2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert classify_double_coset(g2) == TRANSVECTION2
    # group version of the identity
    assert classify_double_coset(MatFq.identity(F2, 4)) == ID2


def test_classifier_bi_invariance():
    from sympwalk.linalg import sample_symplectic

    rng = random.Random(5)
    g2 = MatFq(F2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    base_key = double_coset_key(g2)
    for _ in range(1000):
        k1 = sample_symplectic(2, F2, rng)
        k2 = sample_symplectic(2, F2, rng)
        assert double_coset_key(k1 * g2 * k2) == base_key


def test_halving_guard_fires():
    with pytest.raises(OddMultiplicityError):
        _key_type_from_pairs([(PolyFq(F2, (1, 1)), (2, 1, 1))])


def test_classifier_complete_against_brute_force_orbits():
    """Partition GL_4(F_2) into two-sided Sp-orbits and compare blocks."""
    elems = {}
    for code in range(2 ** 16):
        rows = [[(code >> (4 * i + j)) & 1 for j in range(4)] for i in range(4)]
        m = MatFq(F2, rows)
        if m.rank() == 4:
            elems[m.key()] = m
    assert len(elems) == 20160
    J = standard_J(2, F2)
    sp = [m for m in elems.values() if is_form_preserving(m, J)]
    assert len(sp) == 720

    def closure_size(gens):
        seen = {MatFq.identity(F2, 4).key()}
        frontier = [MatFq.identity(F2, 4)]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = x * g
                    if y.key() not in seen:
                        seen.add(y.key())
                        nxt.append(y)
            frontier = nxt
        return len(seen)

    # find a verified two-element generating set for the orbit BFS
    gens = None
    rng = random.Random(19)
    while gens is None:
        cand = rng.sample(sp, 2)
        if closure_size(cand) == 720:
            gens = cand
    seen = set()
    blocks = []
    for key, g in elems.items():
        if key in seen:
            continue
        orbit = set()
        frontier = [g]
        orbit.add(g.key())
        while frontier:
            nxt = []
            for x in frontier:
                for k in gens:
                    for y in (k * x, x * k):
                        if y.key() not in orbit:
                            orbit.add(y.key())
                            nxt.append(y)
            frontier = nxt
        seen |= orbit
        blocks.append((double_coset_key(g), orbit))
    assert sorted(len(o) for _, o in blocks) == [720, 8640, 10800]
    # the classifier is constant on orbits and separates them
    keys = [k for k, _ in blocks]
    assert len(set(keys)) == len(blocks)
    for key, orbit in blocks:
        sample = random.Random(6).sample(sorted(orbit), 10)
        for skey in sample:
            assert double_coset_key(elems[skey]) == key
    # orbit sizes are |K| times the coset-size formula
    by_type = {classify_double_coset(elems[next(iter(o))]): len(o) for _, o in blocks}
    for typ, size in by_type.items():
        assert size == 720 * class_size_qsq(typ, 2)
    # the production classifier on the forms g^T J g of all elements, in one
    # batched call: constant on each orbit, separating the orbits, and equal
    # to the scalar labels of the group lift
    order = list(elems)
    mats = np.array([elems[key].rows for key in order], dtype=np.int64)
    forms = np.einsum("bji,jk,bkl->bil", mats, np.array(J.rows), mats) % 2
    labels, ids = _classify_states_batched(forms.astype(np.uint8), 2, F2, {})
    batched = {key: labels[i] for key, i in zip(order, ids.tolist())}
    labels = []
    for key, orbit in blocks:
        (label,) = {batched[m] for m in orbit}
        g = elems[next(iter(orbit))]
        assert label == (double_coset_key(g), classify_double_coset(g))
        labels.append(label)
    assert len(set(labels)) == len(blocks)


def test_chain_2_2_matches_published_matrix(chain22):
    want = [
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1, 15), Fraction(6, 15), Fraction(8, 15)],
        [Fraction(0), Fraction(2, 3), Fraction(1, 3)],
    ]
    assert chain22.lump_types == [ID2, TRANSVECTION2, PartitionFn.make([(2, (1,))])]
    assert chain22.lumped_transition == want
    assert chain22.stationary == [Fraction(1, 28), Fraction(15, 28), Fraction(12, 28)]
    assert chain22.lump_sizes == [1, 15, 12]
    assert chain22.typed_lumping_ok


def test_typed_lumping_fails_on_unequal_typed_sums():
    """Two lumps of one type whose rows split differently over the types
    are not lumpable by type; the same rows with the split made equal are."""
    a, b = ID2, TRANSVECTION2
    assert not walk._typed_lumping_ok([a, a, b], [[1, 1, 2], [0, 1, 3], [2, 1, 1]])
    assert walk._typed_lumping_ok([a, a, b], [[1, 1, 2], [0, 2, 2], [2, 1, 1]])


def test_chain_rejects_repeated_images(monkeypatch):
    """An image listed twice leaves one fewer distinct image than the moving
    transvections need: an InternalError, not a row of the wrong weight."""
    plane_images = _engine.plane_images

    def repeated(*args):
        imgs = plane_images(*args)
        imgs[1] = imgs[0]
        return imgs

    monkeypatch.setattr(_engine, "plane_images", repeated)
    with pytest.raises(InternalError, match="distinct images"):
        exact_form_chain(2, 2)


def test_chain_rejects_a_dynkin_member_off_the_lump(monkeypatch):
    """A non-symplectic transvection as the Dynkin draw moves the member to
    another lump, whose row differs: the check raises."""
    monkeypatch.setattr(walk, "sample_symplectic", lambda n, field, rng: nonsymplectic_representative(n, field))
    for q in (2, 3):
        with pytest.raises(InternalError, match="not exactly lumpable"):
            exact_form_chain(2, q)


def test_chain_2_2_tv_values(chain22):
    rows = chain22.tv_curve(2)
    assert rows[0][1] == Fraction(27, 28)
    assert rows[1][1] == Fraction(13, 28)
    assert rows[2][1] == Fraction(19, 140)
    # for q = 2 (start is the singleton J-lump) lumped equals full
    for _, tv_full, tv_lumped in rows:
        assert tv_full == tv_lumped


def _charpoly_fraction_matrix(m):
    """det(xI - m) for a Fraction matrix, coefficients by interpolation-free
    expansion (Leverrier-Faddeev)."""
    n = len(m)
    a = [row[:] for row in m]
    coeffs = [Fraction(1)]
    mat = [row[:] for row in a]
    for k in range(1, n + 1):
        c = -sum(mat[i][i] for i in range(n)) / k
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            mat[i][i] += c
        mat = [
            [sum(a[i][t] * mat[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs  # monic, descending powers


@pytest.mark.parametrize("nq", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_lumped_spectrum_matches_formula(nq, request):
    n, q = nq
    chain = request.getfixturevalue(f"chain{n}{q}")
    from sympwalk.combinat import enumerate_partition_fns

    got = _charpoly_fraction_matrix(chain.lumped_transition)
    # independent product over concrete labels of (x - phi)
    want = [Fraction(1)]
    for fn, cnt in enumerate_partition_fns(n, q):
        phi = eigenvalue_phi(fn, n, q)
        for _ in range(cnt):
            new = [Fraction(0)] * (len(want) + 1)
            for i, c in enumerate(want):
                new[i] += c
                new[i + 1] -= c * phi
            want = new
    assert got == want


def _chain_digest(chain):
    """SHA-256 of the repr of each value the chains were pinned by, then of
    tv_curve(8): the fields of the model when it stored Fractions, in their
    order, with the twisted starts as {lump: its share of the starts} and
    J's lump."""
    start_lumps = {}
    for i in chain.starts:
        start_lumps[i] = start_lumps.get(i, Fraction(0)) + Fraction(1, chain.q - 1)
    h = hashlib.sha256()
    for value in (
        chain.n, chain.q, chain.field, chain.num_states, chain.move_count, chain.lump_keys,
        chain.lump_types, chain.lump_sizes, chain.lumped_transition, chain.stationary,
        chain.sector_lumps, start_lumps, chain.starts[0], chain.typed_lumping_ok,
    ):
        h.update(repr(value).encode())
    h.update(repr(chain.tv_curve(8)).encode())
    return h.hexdigest()


# (2,4) and (2,5) were recorded with the entrywise MatFq chain builder over
# F_4 and the prime plane-image path over F_5, before both became one
# realified path; (2,2), (2,3) and (3,2) with the builder that classified
# each lump in a call of its own, before lumps were batched per call.
CHAIN_DIGESTS = {
    (2, 2): "7d4316c42052e498a5539d36bd3186d8a4a1929c15d7b2f0e3265c6553b20745",
    (2, 3): "c682f8e1c27050d4bb40fe60adc1230d8de965710baf1f26f56ad73e42c17185",
    (2, 4): "b50ee993a5e13db62552a2ec5079a35b734b56ec6517347fa16b3e1a97dfbe44",
    (2, 5): "cd170c16a02f8d7e53d08b3b74a84921e8b35ea12153570ff7a1582982960840",
    (3, 2): "9b5d9dea595115ce6ef08bb1d77ea023b7e9f3db87d286b7a9e40b9e9c633ed6",
}


def test_chains_are_pinned(chain22, chain23, chain24, chain32):
    assert _chain_digest(chain22) == CHAIN_DIGESTS[(2, 2)]
    assert _chain_digest(chain23) == CHAIN_DIGESTS[(2, 3)]
    assert _chain_digest(chain24) == CHAIN_DIGESTS[(2, 4)]
    assert _chain_digest(exact_form_chain(2, 5)) == CHAIN_DIGESTS[(2, 5)]
    assert _chain_digest(chain32) == CHAIN_DIGESTS[(3, 2)]


def test_chain_2_3_structure(chain23):
    assert chain23.num_states == 468
    assert chain23.num_lumps == 8
    assert chain23.move_count == 960
    assert sum(chain23.lump_sizes) == 468
    # concrete cosets, not types: the (2,) label appears at two orbits
    type_counts = Counter(t for t in chain23.lump_types)
    assert type_counts[PartitionFn.make([(1, (2,))])] == 2
    assert type_counts[PartitionFn.make([(2, (1,))])] == 3
    # sector structure: 5 cosets reachable from J, covering half the space
    assert len(chain23.sector_lumps) == 5
    assert sum(chain23.lump_sizes[i] for i in chain23.sector_lumps) == 234


def test_chain_2_3_tv_full_vs_bruteforce(chain23):
    formula = chain23.tv_curve(6)
    brute = chain23.full_tv_curve_bruteforce(6)
    for (k, tv_full, tv_lumped), (_, tv_brute) in zip(formula, brute):
        assert tv_full == tv_brute
        # data processing: lumping can only lose mass discrepancies; the
        # twisted start is not uniform on its coset, so this is strict here
        assert tv_lumped <= tv_full
    assert formula[0][2] < formula[0][1]


def test_stationary_identity(chain22, chain23):
    for chain in (chain22, chain23):
        ratio = Fraction(sp_order(chain.n, chain.q), gl_order(2 * chain.n, chain.q))
        for lump in range(chain.num_lumps):
            assert chain.stationary[lump] == class_size_qsq(chain.lump_types[lump], chain.q) * ratio


def test_chain_3_2_matches_full_enumeration(chain32):
    # lumps, sizes and matrix of the chain built on all 13,888 forms
    F = Fraction
    assert chain32.num_states == 13888
    assert chain32.lump_types == [
        PartitionFn.make([(1, (1,)), (2, (1,))]),
        PartitionFn.make([(1, (1, 1, 1))]),
        PartitionFn.make([(1, (2, 1))]),
        PartitionFn.make([(1, (3,))]),
        PartitionFn.make([(3, (1,))]),
        PartitionFn.make([(3, (1,))]),
    ]
    assert chain32.lump_sizes == [4032, 1, 315, 3780, 2880, 2880]
    assert chain32.lumped_transition == [
        [F(19, 63), F(0), F(2, 63), F(2, 7), F(4, 21), F(4, 21)],
        [F(0), F(0), F(1), F(0), F(0), F(0)],
        [F(128, 315), F(1, 315), F(2, 15), F(16, 35), F(0), F(0)],
        [F(32, 105), F(0), F(4, 105), F(79, 315), F(64, 315), F(64, 315)],
        [F(4, 15), F(0), F(0), F(4, 15), F(1, 5), F(4, 15)],
        [F(4, 15), F(0), F(0), F(4, 15), F(4, 15), F(1, 5)],
    ]
    assert chain32.starts == (1,) and chain32.sector_lumps == tuple(range(6))


def _realified(gram):
    """A MatFq Gram realified over F_p as exact_form_chain holds it, uint8."""
    return _realify(gram.to_lists(), gram.field).astype(np.uint8)


def _plane_image_keys(gram):
    """Row bytes of the realified plane images of a MatFq Gram."""
    field = gram.field
    planes = [_realify(rows[:, None], field) for rows in _engine.two_planes(gram.nrows, field.q)]
    imgs = _engine.plane_images(_realified(gram), *planes, _mul_blocks(field)[1:], field.p)
    return [img.tobytes() for img in imgs]


def _sp_congruent_grams(n, field, seed):
    """The q - 1 twisted starts and three Sp-congruent copies of the first."""
    rng = random.Random(seed)
    grams = [_initial_gram(n, field, a) for a in range(1, field.q)]
    for _ in range(3):
        k = sample_symplectic(n, field, rng)
        grams.append(k.transpose() * grams[0] * k)
    return grams


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (2, 5), (2, 4)])
def test_plane_images_match_transvection_congruences(n, q):
    """The realified images listed from isotropic planes are exactly the
    realified congruences t^T w t != w over all transvections, each reached
    q(q+1) times."""
    field = field_from_order(q)
    mats = [t.matrix() for t in all_transvections(2 * n, field)]
    if field.k == 1:  # dense int64 products of the same transvection matrices, keyed as uint8
        dense = np.array([m.to_lists() for m in mats], dtype=np.int64)
    for gram in _sp_congruent_grams(n, field, 5):
        w = _realified(gram)
        keys = _plane_image_keys(gram)
        assert len(set(keys)) == len(keys)
        if field.k == 1:
            congruences = np.einsum("tji,jk,tkl->til", dense, w, dense) % q
            oracle = Counter(c.astype(np.uint8).tobytes() for c in congruences)
        else:
            oracle = Counter(_realified(m.transpose() * gram * m).tobytes() for m in mats)
        del oracle[w.tobytes()]
        assert set(oracle) == set(keys)
        assert set(oracle.values()) == {q * (q + 1)}


@pytest.mark.parametrize("q", [8, 9])
def test_plane_images_contain_sampled_congruences(q):
    """Over F_8, whose multiplication blocks are not all symmetric (those of
    F_4 are, so a block left untransposed passes there), and over F_9: the
    realified congruences by the first 300 uniform transvections that move
    the form, formed by MatFq, are among the distinct plane images, which
    number move_count / (q(q+1))."""
    field = field_from_order(q)
    rng = random.Random(q)
    for gram in _sp_congruent_grams(2, field, q)[-2:]:
        keys = set(_plane_image_keys(gram))
        assert len(keys) * q * (q + 1) == walk._move_count(2, q)
        moved = 0
        while moved < 300:
            m = sample_transvection(2, field, rng).matrix()
            img = m.transpose() * gram * m
            if img != gram:
                moved += 1
                assert _realified(img).tobytes() in keys


def test_work_cap_counts_lumps_times_images(chain22, chain23, chain32, chain24):
    for chain in (chain22, chain23, chain32, chain24):
        images = chain.move_count // (chain.q * (chain.q + 1))
        assert chain_work(chain.n, chain.q) == chain.num_lumps * images
    # (3,3) has 24 lumps of 7,280 images, (4,2) 14 of 5,355
    assert chain_work(3, 3) == 24 * 7280 <= DEFAULT_STATE_CAP
    assert chain_work(4, 2) == 14 * 5355 <= DEFAULT_STATE_CAP
    assert chain_work(5, 2) > DEFAULT_STATE_CAP
    for n in (2, 3, 4):
        for q in (2, 3, 4, 5, 7):
            if coset_space_size(n, q) <= DEFAULT_STATE_CAP:  # the former form cap
                assert chain_work(n, q) <= DEFAULT_STATE_CAP


def test_bruteforce_oracle_limits(chain32, chain24):
    # above the full-matrix cap, and over an extension field
    for chain in (chain32, chain24):
        with pytest.raises(StateSpaceTooLargeError):
            chain.full_tv_curve_bruteforce(1)


def test_chain_rejects_oversized_space():
    with pytest.raises(StateSpaceTooLargeError):
        exact_form_chain(4, 3)


def test_chain_rejects_trivial_n1():
    with pytest.raises(ValueError):
        exact_form_chain(1, 2)


def test_monte_carlo_one_step_is_exact():
    res = monte_carlo_tv(2, 2, 1, 50_000, seed=9)
    assert res.estimate == Fraction(13, 28)
    assert res.stderr == 0.0


def test_monte_carlo_matches_exact_within_3_sigma(chain22):
    exact = chain22.tv_curve(2)[2][1]
    res = monte_carlo_tv(2, 2, 2, 200_000, seed=10)
    assert abs(float(res.estimate - exact)) <= max(3 * res.stderr, 1e-12)


def test_monte_carlo_reproducible():
    a = monte_carlo_tv(2, 2, 2, 30_000, seed=77)
    b = monte_carlo_tv(2, 2, 2, 30_000, seed=77)
    assert a.estimate == b.estimate and a.counts == b.counts


def test_two_step_return_probability():
    # returning to the J-coset after two steps has probability 1/15
    res = monte_carlo_tv(2, 2, 2, 10 ** 6, seed=12)
    freq = res.counts.get(ID2, 0) / res.trials
    p = 1 / 15
    sigma = math.sqrt(p * (1 - p) / res.trials)
    assert abs(freq - p) <= 3 * sigma


def test_monte_carlo_q3_matches_typed_exact(chain23):
    for k in (1, 2, 4):
        exact = chain23.typed_tv(k)
        res = monte_carlo_tv(2, 3, k, 150_000, seed=13 + k)
        assert abs(float(res.estimate - exact)) <= max(3 * res.stderr, 2e-3)


def test_monte_carlo_tv_is_curve_step(monkeypatch):
    # one chunk: later steps draw after every earlier step is counted
    curve = monte_carlo_curve(2, 3, 3, 5_000, seed=21)
    for k in range(4):
        assert monte_carlo_tv(2, 3, k, 5_000, seed=21) == curve[k][1]
    # several chunks: each chunk draws its start, then k_max steps
    monkeypatch.setattr(walk, "MC_CHUNK", 2_000)
    for k in (1, 3):
        res = monte_carlo_tv(2, 3, k, 5_000, seed=22)
        assert res == monte_carlo_curve(2, 3, k, 5_000, seed=22)[k][1]


def _counted_classifier(monkeypatch):
    """Wrap walk._classify_states_batched; returns the list of batch sizes."""
    calls = []

    def counted(states, n, field, factored):
        calls.append(len(states))
        return _classify_states_batched(states, n, field, factored)

    monkeypatch.setattr(walk, "_classify_states_batched", counted)
    return calls


def test_monte_carlo_classifies_once_per_chunk(monkeypatch):
    calls = _counted_classifier(monkeypatch)
    monkeypatch.setattr(walk, "MC_CHUNK", 2_000)
    monte_carlo_curve(2, 3, 3, 5_000)
    assert len(calls) == 3 and calls[0] > 0


def test_monte_carlo_work_budget_counts_lane_steps_and_chunk_steps(monkeypatch):
    """(k_max + 1) (trials + chunks MC_STEP_COST_LANES) lane-steps are
    admitted up to MC_WORK_MAX; one more is refused before any draw."""
    monkeypatch.setattr(walk, "MC_CHUNK", 300)
    work = 3 * (500 + 2 * walk.MC_STEP_COST_LANES)  # 2 steps of 500 trials in 2 chunks
    monkeypatch.setattr(walk, "MC_WORK_MAX", work)
    monte_carlo_curve(2, 2, 2, 500)
    monkeypatch.setattr(walk, "MC_WORK_MAX", work - 1)
    monkeypatch.setattr(_engine.Lanes, "start", None)
    with pytest.raises(StepRangeTooLargeError):
        monte_carlo_curve(2, 2, 2, 500)


def test_monte_carlo_work_budget_prices_odd_p_lane_steps(monkeypatch):
    """At odd p a lane-step is priced as MC_ODD_P_LANE_COST: a (2,3) run
    admitted at MC_WORK_MAX with each lane-step priced as one is refused
    before any draw, and admitted once the budget covers the odd-p price."""
    monkeypatch.setattr(walk, "MC_CHUNK", 300)
    chunk_steps = 2 * walk.MC_STEP_COST_LANES
    monkeypatch.setattr(walk, "MC_WORK_MAX", 3 * (500 * walk.MC_ODD_P_LANE_COST + chunk_steps))
    monte_carlo_curve(2, 3, 2, 500)
    monkeypatch.setattr(walk, "MC_WORK_MAX", 3 * (500 + chunk_steps))
    monte_carlo_curve(2, 2, 2, 500)
    monkeypatch.setattr(_engine.Lanes, "start", None)
    with pytest.raises(StepRangeTooLargeError):
        monte_carlo_curve(2, 3, 2, 500)


def test_step_budget_messages_form_beyond_the_digit_limit(monkeypatch):
    """A step count or trial count beyond the float range and Python's
    4,300-digit str limit still gets its cap message, with 2^b for it."""
    monkeypatch.setattr(_engine.Lanes, "start", None)
    with pytest.raises(StepRangeTooLargeError, match=r"up to k=2\^16610 needs about 2\^"):
        walk.check_tv_work(2, 3, 10 ** 5000)
    with pytest.raises(StepRangeTooLargeError, match=r"^2\^16610 trials of 1 steps"):
        monte_carlo_curve(2, 2, 1, 10 ** 5000)


def test_chain_classifies_whole_lumps_per_call(monkeypatch):
    """One classifier call for the seeds, then one per batch of lumps: the
    images of each lump's representative and of its Dynkin member, whole,
    with at most CLASSIFY_LANES lanes unless one lump fills more.  A slice
    of one lump gives one call per lump and the same chain."""
    calls = _counted_classifier(monkeypatch)
    chain = exact_form_chain(2, 3)
    per_lump = 2 * chain.move_count // (3 * 4)
    assert calls[0] == 2
    for size in calls[1:]:
        assert size % per_lump == 0
        assert size <= walk.CLASSIFY_LANES or size == per_lump
    assert sum(calls[1:]) == per_lump * chain.num_lumps
    assert len(calls) - 1 < chain.num_lumps
    calls.clear()
    monkeypatch.setattr(walk, "CLASSIFY_LANES", per_lump)
    assert exact_form_chain(2, 3) == chain
    assert calls == [2] + [per_lump] * chain.num_lumps


def test_stacked_factor_jobs_stay_within_classify_lanes(monkeypatch):
    """The f(X) matrices stacked for one _rank_sequences call number at most
    CLASSIFY_LANES, however many factors the slice's polynomials have: 24
    forms over F_3 at n = 4 whose X has x - 1 and x - 2 both of weight 2,
    the congruences by uniform k in Sp_8 of J diag(M, M^T), make one slice
    of 24 states with 48 job-lanes.  Taking them in chunks leaves every
    label as _classify_X gives it."""
    n, rng, J = 4, random.Random(8), standard_J(4, F3)
    grams = []
    for M in ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
              [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
              [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]):
        x = MatFq(F3, [row + [0] * n for row in M] + [[0] * n + list(col) for col in zip(*M)])
        for _ in range(8):
            k = sample_symplectic(n, F3, rng)
            grams.append(k.transpose() * J * x * k)
    states = np.array([_realified(w) for w in grams])
    stacked = []
    rank_sequences = walk._rank_sequences

    def counted(fx, jobs, patterns, field):
        assert all(fx.shape[2] == len(column) for column in jobs)
        stacked.append(fx.shape[2])
        return rank_sequences(fx, jobs, patterns, field)

    monkeypatch.setattr(walk, "_rank_sequences", counted)
    monkeypatch.setattr(walk, "CLASSIFY_LANES", len(states))
    labels = _per_state(*_classify_states_batched(states, n, F3, {}))
    assert labels == [_classify_X(J.inverse() * w) for w in grams]
    assert max(stacked) <= walk.CLASSIFY_LANES
    assert sum(stacked) > walk.CLASSIFY_LANES  # the slice's job-lanes did need chunks


def test_each_factor_is_evaluated_once_per_chunk(monkeypatch, chain24):
    """Within one chunk of job-lanes, no two batched_matpoly calls get the
    same coefficient blocks: a factor's job-lanes sit together, whichever
    polynomials of the slice it divides."""
    chunks = [[]]  # per chunk, the coefficient blocks of each f(X) call
    matpoly, rank_sequences = _engine.batched_matpoly, walk._rank_sequences

    def evaluated(x, coeff_blocks, p):
        chunks[-1].append((coeff_blocks.shape, coeff_blocks.tobytes()))
        return matpoly(x, coeff_blocks, p)

    def ranked(*args):
        chunks.append([])
        return rank_sequences(*args)

    monkeypatch.setattr(_engine, "batched_matpoly", evaluated)
    monkeypatch.setattr(walk, "_rank_sequences", ranked)
    assert exact_form_chain(2, 4) == chain24
    assert max(len(blocks) for blocks in chunks) > 1
    assert all(len(set(blocks)) == len(blocks) for blocks in chunks)


def test_chain_factors_each_polynomial_once(monkeypatch):
    """One factor_poly call per distinct characteristic polynomial of a
    build, on its square root: X ~ diag(M, M^T) has polynomial
    prod f^(2 |lambda_f|) over the entries (f, lambda_f) of its lump key,
    and factor_poly receives M's, prod f^|lambda_f|, of degree n."""
    polys = []

    def counted(poly):
        polys.append(poly)
        return factor_poly(poly)

    monkeypatch.setattr(walk, "factor_poly", counted)
    chain = exact_form_chain(2, 3)
    distinct = {frozenset((f, sum(lam)) for f, lam in key) for key in chain.lump_keys}
    assert len(polys) == len(distinct) == len({poly.coeffs for poly in polys})
    assert {poly.degree for poly in polys} == {2}


@pytest.mark.parametrize("nq", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_integer_tv_matches_fraction_evolution(nq, request):
    """tv_curve and lumped_distribution against a plain Fraction evolution
    of lumped_transition, for k <= 12: tv_full from J alone, the lumped law
    from the twisted starts, three of them at q = 4."""
    chain = request.getfixturevalue("chain{}{}".format(*nq))
    q, S, P = chain.q, chain.num_states, chain.lumped_transition
    assert len(chain.starts) == q - 1
    m = [Fraction(int(i == chain.starts[0])) for i in range(chain.num_lumps)]
    for k, tv_full, tv_lumped in chain.tv_curve(12):
        assert tv_full == sum(
            abs(m[i] - Fraction((q - 1) * chain.lump_sizes[i], S)) for i in chain.sector_lumps
        ) / 2
        law = chain.lumped_distribution(k)
        assert tv_lumped == sum(abs(a - b) for a, b in zip(law, chain.stationary)) / 2
        m = [sum(m[i] * P[i][j] for i in range(len(m))) for j in range(len(m))]
    nu = [Fraction(chain.starts.count(i), q - 1) for i in range(chain.num_lumps)]
    for _ in range(12):
        nu = [sum(nu[i] * P[i][j] for i in range(len(nu))) for j in range(len(nu))]
    assert chain.lumped_distribution(12) == nu


def test_tv_rejects_a_second_start_in_j_sector(chain23):
    """tv_curve reads tv_full off J's sector of the one evolution from all
    twisted starts, which holds only while J is the only start there; a
    model with the other start moved into J's sector is an InternalError,
    not a TV with the other start's mass counted in."""
    j = chain23.starts[0]
    other = next(i for i in chain23.sector_lumps if i != j)
    assert chain23.starts[1] not in chain23.sector_lumps
    broken = dataclasses.replace(chain23, starts=(j, other))
    with pytest.raises(InternalError, match="twisted start and no other"):
        broken.tv_curve(1)
    with pytest.raises(ValueError):
        chain23.lumped_distribution(-1)


def _walk_states(n, q, seed, trials=40, steps=4):
    """Forms of a seeded walk from the twisted starts, every lane at steps
    0..steps: realified as the classifier takes them, and as MatFq Grams.
    Prime fields step _engine.Lanes; over F_(p^k) each step is a
    congruence by a uniform transvection of GL_2n(F_q)."""
    field = field_from_order(q)
    if field.k == 1:
        rng = np.random.default_rng(seed)
        grams = [_engine.Lanes.start(walk._twisted_starts(n, field), q, trials, rng).grams()]
        for _ in range(steps):
            grams.append(_engine.Lanes.from_grams(grams[-1], q).step(rng).grams())
        states = np.concatenate(grams)
        return states, [MatFq(field, w.tolist()) for w in states]
    rng = random.Random(seed)
    grams = []
    for lane in range(trials):
        w = _initial_gram(n, field, 1 + lane % (q - 1))
        for _ in range(steps + 1):
            grams.append(w)
            t = sample_transvection(n, field, rng).matrix()
            w = t.transpose() * w * t
    return np.array([_realified(w) for w in grams]), grams


@pytest.mark.parametrize("n, q", [(3, 3), (4, 2), (4, 3), (2, 4)])
def test_classifier_slices_match_one_batch(monkeypatch, n, q):
    """Walk states classified in slices of 7 lanes, so one polynomial and
    one rank pattern span several slices, give the keys and types of one
    batch, and each lane of that batch gets the label of _classify_X: where
    a factor's job-lanes stop at different powers, and at n = 4, where a
    factor of weight 4 with partition (2, 2) or (3, 1) ranks past j = 1."""
    field = field_from_order(q)
    states, grams = _walk_states(n, q, seed=4)
    whole = _per_state(*_classify_states_batched(states, n, field, {}))
    j_inv = standard_J(n, field).inverse()
    assert whole == [_classify_X(j_inv * w) for w in grams]
    monkeypatch.setattr(walk, "CLASSIFY_LANES", 7)
    assert _per_state(*_classify_states_batched(states, n, field, {})) == whole
    assert len(set(whole)) > 7


@pytest.mark.parametrize("n, q", [(3, 3), (4, 2)])
def test_weight_one_factors_reach_no_matpoly(monkeypatch, n, q):
    """A factor of weight 1 in mu has partition (1), so no job-lane of it
    is evaluated: on walk states, batched_matpoly takes as many lanes as
    there are (state, factor) pairs whose multiplicity in the
    characteristic polynomial, factored whole, is at least 4."""
    field = field_from_order(q)
    states, _ = _walk_states(n, q, seed=5)
    cps = _engine.batched_charpoly(_engine.j_inv_times(states, q), q, 1)[:, 0]
    counts = {}  # characteristic polynomial -> (its factors, those of weight >= 2)
    for cp in map(tuple, cps.T.tolist()):
        if cp not in counts:
            factors = factor_poly(PolyFq(field, cp[::-1]))
            counts[cp] = (len(factors), sum(m >= 4 for _, m in factors))
    every, heavy = np.sum([counts[cp] for cp in map(tuple, cps.T.tolist())], axis=0)
    evaluated = []
    matpoly = _engine.batched_matpoly

    def counted(x, coeff_blocks, p):
        evaluated.append(x.shape[2])
        return matpoly(x, coeff_blocks, p)

    monkeypatch.setattr(_engine, "batched_matpoly", counted)
    _classify_states_batched(states, n, field, {})
    assert 0 < sum(evaluated) == heavy < every


@pytest.mark.parametrize("n, q, calls, ranked, evaluated", [(3, 3, 97, 125_154, 125_154), (2, 4, 4, 3_085, 3_085)])
def test_rank_job_lanes_of_a_chain_build(monkeypatch, n, q, calls, ranked, evaluated):
    """The batched_rank calls of one chain build, and the job-lanes they
    and batched_matpoly take.  At (3,3) every weight is at most 3, and at
    (2,4) at most 2, so each partition is known after j = 1: batched_rank
    runs once per _rank_sequences call, on each job-lane once, and over
    F_4 as over F_3 only the factors of X's own polynomial are ranked."""
    counts = Counter()
    rank, matpoly, rank_sequences = _engine.batched_rank, _engine.batched_matpoly, walk._rank_sequences

    def counted_rank(a, p):
        counts["calls"] += 1
        counts["ranked"] += a.shape[2]
        return rank(a, p)

    def counted_matpoly(x, coeff_blocks, p):
        counts["evaluated"] += x.shape[2]
        return matpoly(x, coeff_blocks, p)

    def counted_sequences(*args):
        counts["sequences"] += 1
        return rank_sequences(*args)

    monkeypatch.setattr(_engine, "batched_rank", counted_rank)
    monkeypatch.setattr(_engine, "batched_matpoly", counted_matpoly)
    monkeypatch.setattr(walk, "_rank_sequences", counted_sequences)
    exact_form_chain(n, q)
    assert (counts["calls"], counts["ranked"], counts["evaluated"]) == (calls, ranked, evaluated)
    assert counts["sequences"] == calls


@pytest.mark.parametrize("q", [4, 8])
def test_no_job_lane_ranks_a_conjugate(monkeypatch, q):
    """Over F_(p^k) every job-lane of a chain build is for a factor of its
    lane's own F_q polynomial, so rank f(X) < N at j = 1: a Galois
    conjugate dividing no lane's polynomial would have f(X) invertible."""
    firsts = []
    rank_sequences = walk._rank_sequences

    def ranked(fx, jobs, patterns, field):
        rank_sequences(fx, jobs, patterns, field)
        lane, _, _, first = jobs
        firsts.append(patterns[first, lane])

    monkeypatch.setattr(walk, "_rank_sequences", ranked)
    exact_form_chain(2, q, cap=10 ** 6)
    firsts = np.concatenate(firsts)
    assert len(firsts) and (firsts < 4).all()


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9])
def test_square_root_is_checked_by_squaring(q):
    """_square_root gives r back from r^2 over F_q, and refuses r^2 with
    one coefficient changed by 1, naming it.  At p = 2 (r + x^i)^2 is r^2
    plus x^(2i), so there a change at an even power is another square,
    whose root it gives."""
    field = field_from_order(q)
    rng = random.Random(q)
    for D in range(2, 7):
        r = (1, rng.randrange(1, q), *(rng.randrange(q) for _ in range(D - 2)), rng.randrange(1, q))  # three terms or more
        root = PolyFq(field, r[::-1])
        chi = (root * root).coeffs[::-1]
        assert walk._square_root(chi, field).coeffs == r[::-1]
        for i in range(1, 2 * D + 1):
            changed = list(chi)
            changed[i] = field.add(changed[i], 1)
            if field.p == 2 and i % 2 == 0:
                root = tuple(field.add(c, 1) if j == i // 2 else c for j, c in enumerate(r))
                assert walk._square_root(tuple(changed), field).coeffs == root[::-1]
            else:
                with pytest.raises(InternalError, match=r"PolyFq\(.*\) is not a square"):
                    walk._square_root(tuple(changed), field)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_a_non_alternating_gram_is_refused_before_any_label(monkeypatch, q):
    """A batch of realified walk states and one w + e_1 e_1^T raises
    InternalError, and no label is formed for any of its states.  That
    Gram keeps chi a square, as (xJ - w)^-1 is alternating, so
    _check_alternating refuses it; with that check off, a w + e_1 e_2^T
    whose chi is no square is refused by the square root, which names chi.
    Over F_(p^k) adding 1 to an entry adds the k x k identity to its block."""
    field = field_from_order(q)
    p, k = field.p, field.k
    one = np.eye(k, dtype=np.uint8)
    states, _ = _walk_states(2, q, seed=7, trials=10, steps=2)
    labelled = []
    monkeypatch.setattr(walk, "_label_from_ranks", lambda *args: labelled.append(args))
    broken = states[-1].copy()
    broken[:k, :k] = one
    with pytest.raises(InternalError, match="a state to classify is not an alternating form"):
        _classify_states_batched(np.concatenate([states, broken[None]]), 2, field, {})
    monkeypatch.setattr(walk, "_check_alternating", lambda states, p, k: None)
    broken = states.copy()
    broken[:, :k, k:2 * k] = (broken[:, :k, k:2 * k] + one) % p
    cps = _engine.batched_charpoly(_engine.j_inv_times(broken, p), p, k)
    odd = next(i for i, cp in enumerate(np.einsum("ikb,k->bi", cps, p ** np.arange(k)).tolist())
               if any(m % 2 for _, m in factor_poly(PolyFq(field, cp[::-1]))))
    with pytest.raises(InternalError, match=r"PolyFq\(.*\) is not a square"):
        _classify_states_batched(np.concatenate([states, broken[odd:odd + 1]]), 2, field, {})
    assert labelled == []


def _per_state(labels, ids):
    """The classifier's (key, type) of each state."""
    return [labels[i] for i in ids.tolist()]


def test_monte_carlo_beyond_int64_keys():
    # (3,5) states have 36 base-5 digits, more than an int64 key holds;
    # (2,251) and (3,101) factor characteristic polynomials at large p
    for n, q in ((3, 5), (2, 251), (3, 101)):
        for k, res in monte_carlo_curve(n, q, 3, 200, seed=1):
            assert sum(res.counts.values()) == 200
            if k >= 1:
                assert float(res.estimate) <= upper_bound_tv(n, q, k).value + 3 * res.stderr


def test_monte_carlo_rejects_fields_beyond_uint8():
    with pytest.raises(StateSpaceTooLargeError):
        monte_carlo_curve(2, 257, 1, 10)
    with pytest.raises(StateSpaceTooLargeError):
        support_violations(2, 257, 1, 10)


@st.composite
def _random_grams(draw):
    """(n, field, w) with w = k^T J k for a random invertible k = P L D U."""
    q = draw(st.sampled_from([2, 3, 5, 7, 251, 4, 8, 9]))
    n = draw(st.integers(1, 4))
    N = 2 * n
    codes = st.integers(0, q - 1)
    perm = draw(st.permutations(range(N)))
    units = draw(st.lists(st.integers(1, q - 1), min_size=N, max_size=N))
    low = draw(st.lists(codes, min_size=N * N, max_size=N * N))
    up = draw(st.lists(codes, min_size=N * N, max_size=N * N))
    field = field_from_order(q)
    P = MatFq(field, [[int(perm[i] == j) for j in range(N)] for i in range(N)])
    L = MatFq(field, [[1 if i == j else low[i * N + j] * (i > j) for j in range(N)] for i in range(N)])
    U = MatFq(field, [[1 if i == j else up[i * N + j] * (i < j) for j in range(N)] for i in range(N)])
    k = P * L * MatFq.diagonal(field, units) * U
    return n, field, k.transpose() * standard_J(n, field) * k


@settings(max_examples=300, deadline=None)
@given(_random_grams())
def test_batched_classifier_matches_scalar_oracle(case):
    """The batched classifier on the realified form, over prime and extension
    fields, against _classify_X on the form itself."""
    n, field, w = case
    assert w.is_alternating() and w.rank() == w.nrows
    labels, ids = _classify_states_batched(_realified(w)[None], n, field, {})
    assert ids.tolist() == [0] and labels == [_classify_X(standard_J(n, field).inverse() * w)]


def test_one_step_distribution_at_n4():
    # after one step the law is the point mass on the transvection coset
    pi = stationary_type_distribution(4, 2)
    trans4 = PartitionFn.make([(1, (2, 1, 1))])
    exact = Fraction(1) - pi[trans4]
    res = monte_carlo_tv(4, 2, 1, 20_000, seed=14)
    assert res.estimate == exact
    assert set(res.counts) == {trans4}


def test_group_walk_first_step_type():
    rng = random.Random(15)
    for field in (F2, F3):
        ident = MatFq.identity(field, 4)
        for _ in range(25):
            g = group_walk_step(ident, rng)
            assert classify_double_coset(g) == TRANSVECTION2


def test_group_walk_matches_form_walk(chain22, chain23):
    """Lumped laws of the group-level walk agree with the exact chain."""
    rng = random.Random(16)
    for chain, field in ((chain22, F2), (chain23, F3)):
        trials = 1500
        k = 3
        counts = {}
        for _ in range(trials):
            alpha = rng.randrange(1, field.q)
            g = MatFq.diagonal(field, [alpha] + [1] * 3)
            for _ in range(k):
                g = group_walk_step(g, rng)
            typ = classify_double_coset(g)
            counts[typ] = counts.get(typ, 0) + 1
        expect = chain.typed_distribution(k)
        for typ, cnt in counts.items():
            p = float(expect.get(typ, Fraction(0)))
            sigma = math.sqrt(max(p * (1 - p), 1e-9) / trials)
            assert abs(cnt / trials - p) <= 5 * sigma, (typ, cnt / trials, p)


def test_nonsymplectic_representative():
    rep = nonsymplectic_representative(2, F2)
    assert classify_double_coset(rep) == TRANSVECTION2
    J = standard_J(2, F2)
    assert not is_form_preserving(rep, J)


def test_support_violations_sweep():
    for n, q in ((2, 2), (3, 2), (2, 3)):
        for c in range(n + 1):
            v, t = support_violations(n, q, c, 2000, seed=18)
            assert v == 0 and t == 2000


@pytest.mark.parametrize("q", [2, 3])
def test_support_violations_steps_in_chunks(q, monkeypatch):
    """Trials are stepped MC_CHUNK at a time, each chunk as one Lanes batch,
    so memory stays bounded."""
    batches = []

    def counted(lanes, rng):
        batches.append(lanes.B)
        return step(lanes, rng)

    step = _engine.Lanes.step
    monkeypatch.setattr(walk, "MC_CHUNK", 100)
    monkeypatch.setattr(_engine.Lanes, "step", counted)
    assert support_violations(3, q, 1, 350, seed=4) == (0, 350)
    assert batches == [100, 100, 100, 100, 100, 100, 50, 50]


def test_update_convention_invariance(chain22):
    """Pullback and pushforward updates give the same chain: the
    non-fixing transvection set is inversion-closed."""
    J = standard_J(2, F2)
    movers = [t for t in all_transvections(4, F2) if not is_form_preserving(t.matrix(), J)]
    image_pullback = sorted(
        (t.matrix().inverse().transpose() * J * t.matrix().inverse()).key() for t in movers
    )
    image_pushforward = sorted(
        (t.matrix().transpose() * J * t.matrix()).key() for t in movers
    )
    assert image_pullback == image_pushforward
