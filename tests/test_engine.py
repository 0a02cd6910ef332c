import copy
import hashlib
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sympwalk import _engine
from sympwalk.errors import InternalError, StateSpaceTooLargeError
from sympwalk.field import PolyFq, build_field, field_from_order
from sympwalk.linalg import MatFq, _eval_poly_at_matrix, all_transvections, charpoly, standard_J
from sympwalk.walk import _mul_blocks, _realify, _twisted_starts


def _trajectory(n, p, trials, steps, seed):
    """Seeded Lanes.start followed by `steps` steps: every batch, as Grams."""
    rng = np.random.default_rng(seed)
    grams = _engine.Lanes.start(_twisted_starts(n, build_field(p, 1)), p, trials, rng).grams()
    out = [grams]
    for _ in range(steps):
        grams = _step(grams, p, rng)
        out.append(grams)
    return out


def _step(grams, p, rng):
    """One Lanes.step on a (B, N, N) uint8 batch, packed at p = 2."""
    return _engine.Lanes.from_grams(grams, p).step(rng).grams()


@pytest.mark.parametrize("n, p, max_inputs", [(2, 2, 10), (2, 3, 10), (3, 2, 8)])
def test_mc_step_moves_to_a_transvection_image(n, p, max_inputs):
    """Every lane lands on some t^T w t != w, with t^T w t formed by MatFq."""
    field = build_field(p, 1)
    mats = [t.matrix() for t in all_transvections(2 * n, field)]
    batches = _trajectory(n, p, trials=300, steps=3, seed=11)
    outputs = {}  # input row bytes -> set of output row bytes
    for before, after in zip(batches, batches[1:]):
        for w, img in zip(before, after):
            outputs.setdefault(w.tobytes(), set()).add(img.tobytes())
    for w_key in sorted(outputs)[:max_inputs]:
        w = MatFq(field, np.frombuffer(w_key, dtype=np.uint8).reshape(2 * n, 2 * n).tolist())
        images = {(t.transpose() * w * t).key() for t in mats} - {w.key()}
        assert outputs[w_key] <= images


@pytest.mark.parametrize("n, p", [(2, 251), (4, 5)])
def test_mc_step_keeps_invertible_alternating_forms(n, p):
    N = 2 * n
    batches = _trajectory(n, p, trials=400, steps=3, seed=3)
    for before, after in zip(batches, batches[1:]):
        g = after.astype(np.int64)
        assert not g[:, np.arange(N), np.arange(N)].any()
        assert not ((g + g.transpose(0, 2, 1)) % p).any()
        assert (_engine.batched_rank(g.transpose(1, 2, 0).astype(np.int32), p) == N).all()
        assert (after != before).any(axis=(1, 2)).all()


# SHA-256 of the bytes of every batch of _trajectory(n, p, 400, 5, seed=7),
# computed with the dense float64 step that preceded the rank-2 update; the
# (3,3) and (3,101) entries with the lanes-first int32 rank-2 step, and the
# (3,2) entry (6 x 6 forms, many redraw rounds) with the packed step that
# drew through rng.integers.
TRAJECTORY_DIGESTS = {
    (2, 2): "acc94e62871cba05ddf2d8bcffe72b949cb287423e09a2177a39d923e27cbbd3",
    (2, 3): "cd1c8b7d231087f3c03e864b1cbb1e4cd86fe8af2a742f992ec322969d6f0c37",
    (3, 2): "cdb085da499d06b1c472842b379c576685abdc79e4dc53f3b69ff5307a828613",
    (3, 5): "46cc1b5016a44e67aad45ba6ff73811fcb4a7e8c9d90811f6bf42f76d6f923f2",
    (4, 2): "ced915a4cd00beaf7f607017167a3be5c98928e7a8a313d2e49eac0fd26bd6bd",
    (2, 251): "476bc32bf7646bd36471a80241d4c3b60b0a261f055f29d11e781a6002c6587f",
    (3, 3): "121cee2fc15825fae0d15f1f2d5e933b84347e101bdd6f53802c51ac16b68b52",
    (3, 101): "d78fb5eca128613382db8eee42726ec030890e9f4ee6fef8acb0d436d2709918",
}


@pytest.mark.parametrize("nq", sorted(TRAJECTORY_DIGESTS), ids="{0[0]}-{0[1]}".format)
def test_mc_step_trajectory_is_pinned(nq):
    h = hashlib.sha256()
    for grams in _trajectory(*nq, trials=400, steps=5, seed=7):
        h.update(grams.tobytes())
    assert h.hexdigest() == TRAJECTORY_DIGESTS[nq]


@pytest.mark.parametrize("p", [2, 3, 251])
@pytest.mark.parametrize("M, N", [(6, 6), (4, 7), (9, 3)])
def test_batched_rank_matches_matfq(p, M, N):
    """Mixed-rank batches, each matrix a product of random M x r and r x N
    factors (r = 0..min(M, N)), shifted by multiples of p into negative
    entries, held lanes last in int32; and an empty batch."""
    rng = np.random.default_rng(100 * p + 10 * M + N)
    inner = rng.integers(0, min(M, N) + 1, size=60)
    mats = np.array(
        [rng.integers(0, p, size=(M, r)) @ rng.integers(0, p, size=(r, N)) % p for r in inner]
    )
    shifted = mats - p * rng.integers(0, 3, size=mats.shape)
    ranks = _engine.batched_rank(shifted.transpose(1, 2, 0).astype(np.int32), p)
    field = build_field(p, 1)
    assert ranks.tolist() == [MatFq(field, m.tolist()).rank() for m in mats]
    assert len(set(ranks.tolist())) > 2
    assert _engine.batched_rank(np.zeros((M, N, 0), dtype=np.int32), p).shape == (0,)


def _mixed_rank_f2(rng, B, M, N):
    """B lanes-last int32 M x N matrices over F_2 of mixed ranks, each a
    product of random M x r and r x N factors, shifted into negative entries."""
    mats = np.zeros((B, M, N), dtype=np.int64)
    for b, r in enumerate(rng.integers(0, min(M, N) + 1, size=B)):
        mats[b] = rng.integers(0, 2, size=(M, r)) @ rng.integers(0, 2, size=(r, N)) % 2
    shifted = mats - 2 * rng.integers(0, 3, size=mats.shape)
    return np.ascontiguousarray(shifted.transpose(1, 2, 0), dtype=np.int32)


@pytest.mark.parametrize("B", [0, 1, 64, 100, 1000])
@pytest.mark.parametrize("M, N", [(1, 1), (6, 6), (4, 7), (9, 3), (16, 16), (16, 5)])
def test_packed_rank_and_matmul_match_int32_oracle(M, N, B):
    """At p = 2, batched_rank and batched_matmul on packed lanes equal their
    int32 forms lane for lane, and leave their inputs as they are."""
    rng = np.random.default_rng(1000 * M + 10 * N + B)
    a = _mixed_rank_f2(rng, B, M, N)
    b = rng.integers(-4, 4, size=(N, 3, B)).astype(np.int32)
    before = a.copy(), b.copy()
    ranks = _engine.batched_rank(a, 2)
    assert ranks.dtype == np.int32 and ranks.tolist() == _engine._rank_int32(a, 2).tolist()
    prod = _engine.batched_matmul(a, b, 2)
    assert prod.dtype == np.int32 and prod.shape == (M, 3, B)
    assert (prod == _engine._matmul_int32(a, b, 2)).all()
    assert (a == before[0]).all() and (b == before[1]).all()
    if B >= 100 and min(M, N) > 1:
        assert len(set(ranks.tolist())) > 2


@pytest.mark.parametrize("q", [2, 4, 8])
@pytest.mark.parametrize("N", [1, 5, 8])
def test_packed_matpoly_matches_int32_oracle(q, N):
    """batched_matpoly at p = 2 (X packed once, packed Horner steps) equals
    its int32 form, for polynomials of degree 1 to 4 over F_q, realified,
    on 100 mixed-rank lanes with negative entries, which it leaves as they
    are; an empty batch stays empty."""
    field = field_from_order(q)
    rng = np.random.default_rng(10 * q + N)
    x = _mixed_rank_f2(rng, 100, N * field.k, N * field.k)
    before = x.copy()
    for degree in range(1, 5):
        blocks = _mul_blocks(field)[[int(rng.integers(1, q)), *rng.integers(0, q, size=degree)]]
        fx = _engine.batched_matpoly(x, blocks, 2)
        assert fx.dtype == np.int32 and (fx == _engine._matpoly_int32(x, blocks, 2)).all()
    assert (x == before).all()
    assert _engine.batched_matpoly(x[:, :, :0], blocks, 2).shape == (len(x), len(x), 0)


@pytest.mark.parametrize("q", [2, 3, 251, 4, 8, 9])
@pytest.mark.parametrize("N", [1, 2, 5, 6])
def test_charpoly_and_matpoly_match_matfq(q, N):
    """On random lanes-last int32 batches, realified over F_p: batched_matpoly
    equals the realified linalg._eval_poly_at_matrix lane by lane, for
    polynomials of degree 1 to N + 1 given by their coefficient blocks, and
    batched_charpoly's digits, as codes, equal linalg.charpoly over F_q."""
    rng = np.random.default_rng(1000 * q + N)
    field = field_from_order(q)
    p, k = field.p, field.k
    codes = rng.integers(0, q, size=(40, N, N))
    x = np.ascontiguousarray(_realify(codes, field).transpose(1, 2, 0))
    mats = [MatFq(field, c.tolist()) for c in codes]
    cps = _engine.batched_charpoly(x, p, k)
    assert cps.shape == (N + 1, k, 40)
    codes = np.einsum("ikb,k->bi", cps, p ** np.arange(k)).tolist()
    assert codes == [list(reversed(charpoly(m).coeffs)) for m in mats]
    for degree in range(1, N + 2):
        coeffs = [int(c) for c in rng.integers(0, q, size=degree + 1)]
        coeffs[0] = int(rng.integers(1, q))
        fx = _engine.batched_matpoly(x, _mul_blocks(field)[coeffs], p)
        poly = PolyFq(field, list(reversed(coeffs)))
        assert [fx[:, :, b].tolist() for b in range(40)] == [
            _realify(_eval_poly_at_matrix(poly, m).to_lists(), field).tolist() for m in mats
        ]


class _Draws:
    """Stands in for a Generator: integers() returns the given arrays in turn."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def integers(self, low, high, size):
        out = self.arrays.pop(0)
        assert out.shape == size and out.min() >= low and out.max() < high
        return out


class _Words(np.random.PCG64):
    """A PCG64 whose random_raw() returns the given word arrays in turn."""

    def __init__(self, *arrays):
        super().__init__(0)
        self.arrays = list(arrays)

    def random_raw(self, size=None, output=True):
        out = self.arrays.pop(0)
        assert out.shape == (size,)
        return out


def _as_words(bits):
    """integers(0, 2) values, in order, as the PCG64 words that serve them:
    value 2i at bit 31 (the low half) of word i, value 2i + 1 at bit 63."""
    pairs = bits.reshape(-1, 2).astype(np.uint64)
    return pairs[:, 0] << np.uint64(31) | pairs[:, 1] << np.uint64(63)


def test_mc_step_rejects_lanes_that_cannot_move():
    """The zero form has no move, and no form of size N < 3 has one: a step
    raises after its first round instead of redrawing forever (the stub has
    the draws of one round only, so a second round fails the test too), on
    int32 lanes at p = 3 and on packed ones at p = 2, whose stub serves the
    round as raw PCG64 words."""
    rng = np.random.default_rng(0)
    for p in (2, 3):
        mixed = _trajectory(3, p, trials=5, steps=1, seed=2)[-1]
        mixed[2] = 0
        wide = _trajectory(3, p, trials=65, steps=1, seed=2)[-1]
        wide[64] = 0  # the one lane of the second word
        size2 = np.array([[[0, 1], [p - 1, 0]]] * 4, dtype=np.uint8)
        for grams in (np.zeros((4, 6, 6), dtype=np.uint8), mixed, wide, size2):
            B, N, _ = grams.shape
            v, f = rng.integers(0, p, size=(2, B, N))
            stub = np.random.Generator(_Words(_as_words(v), _as_words(f))) if p == 2 else _Draws(v, f)
            with pytest.raises(ValueError):
                _step(grams, p, stub)


class _Recorded:
    """A seeded Generator whose integers() calls are logged: bounds, size and dtype."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def integers(self, low, high, size):
        out = self.rng.integers(low, high, size=size)
        self.calls.append((low, high, size, out.dtype))
        return out


def _same_position(a, b):
    """Whether two PCG64 Generators stand at the same point of one stream:
    equal state and has_uint32, and equal next draws.  The buffered uinteger
    half may differ; it is never read while has_uint32 is 0."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return (sa["state"] == sb["state"] and sa["has_uint32"] == sb["has_uint32"]
            and (a.integers(0, 2, size=3) == b.integers(0, 2, size=3)).all()
            and (a.bit_generator.random_raw(2) == b.bit_generator.random_raw(2)).all())


@pytest.mark.parametrize("N", [4, 6, 8])
@pytest.mark.parametrize("B", [0, 1, 63, 64, 65, 1000])
def test_packed_mc_step_matches_int32_oracle(B, N):
    """At p = 2, a step on packed lanes from a plain Generator lands every
    lane on the Gram of the int32 step, which draws through integers(0, 2,
    size=(lanes, N)), and leaves its generator where the oracle's is, for
    three steps from random nonzero alternating forms (degenerate ones
    included)."""
    rng = np.random.default_rng(10 * B + N)
    grams = _alternating(rng, B, N, 2)
    zero = ~grams.any(axis=(1, 2))
    grams[zero, 0, 1] = grams[zero, 1, 0] = 1
    for step in range(3):
        packed_rng, oracle_rng = np.random.default_rng(step), _Recorded(step)
        packed = _step(grams, 2, packed_rng)
        oracle = _engine.Lanes.from_grams(grams, 2, packed=False).step(oracle_rng).grams()
        assert packed.dtype == np.uint8 and packed.flags.c_contiguous
        assert packed.shape == grams.shape and (packed == oracle).all()
        assert _same_position(packed_rng, oracle_rng.rng)
        assert all(low == 0 and high == 2 and size[1] == N and dtype == np.int64
                   for low, high, size, dtype in oracle_rng.calls)
        grams = packed
    if B == 1000:
        assert len(oracle_rng.calls) > 2  # lanes were redrawn


@pytest.mark.parametrize("N", [4, 6, 8])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 1000])
def test_f2_draws_are_the_values_of_integers(m, N):
    """_draw_f2 reads from a Generator's PCG64 words the values that a twin's
    integers(0, 2, size=(m, N)) returns, as _pack words with zero padding,
    and leaves it where the twin stands."""
    rng, twin = np.random.default_rng(m + N), np.random.default_rng(m + N)
    rng.integers(0, 2, size=(5, 2))
    twin.integers(0, 2, size=(5, 2))
    words = _engine._draw_f2(rng, N, m)
    assert words.dtype == np.uint64 and words.shape == (N, -(-m // 64))
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    assert (bits[:, :m].T == twin.integers(0, 2, size=(m, N))).all() and not bits[:, m:].any()
    assert _same_position(rng, twin)


def test_packed_draws_refuse_other_generators(monkeypatch):
    """The packed step reads PCG64 words: it raises InternalError, before
    any draw, for an MT19937 Generator, for a PCG64 holding a buffered
    uint32 half, and where the once-per-process check of the word read
    fails; the int32 oracle still steps from either Generator."""
    grams = _trajectory(2, 2, trials=70, steps=1, seed=4)[-1]
    buffered = np.random.default_rng(1)
    buffered.integers(0, 2, size=3)
    assert buffered.bit_generator.state["has_uint32"]
    for rng in (np.random.Generator(np.random.MT19937(1)), buffered):
        twin = copy.deepcopy(rng)
        with pytest.raises(InternalError):
            _step(grams, 2, rng)
        with pytest.raises(InternalError):
            _engine._check_f2_draws(rng)
        assert (rng.integers(0, 2, size=9) == twin.integers(0, 2, size=9)).all()
        _engine.Lanes.from_grams(grams, 2, packed=False).step(rng)
    assert _engine._f2_words_are_draws()
    rng = np.random.default_rng(1)
    _engine._check_f2_draws(rng)
    monkeypatch.setattr(_engine, "_f2_words_are_draws", lambda: False)
    with pytest.raises(InternalError):
        _step(grams, 2, rng)


def _tally(grams):
    """Distinct Grams, in row-byte order, and their counts, by a Counter of row bytes."""
    tally = sorted(Counter(g.tobytes() for g in grams).items())
    return [key for key, _ in tally], [c for _, c in tally]


@pytest.mark.parametrize("N", [4, 6, 8])
@pytest.mark.parametrize("B", [1, 63, 64, 65, 1000])
def test_resident_lanes_match_int32_oracle(B, N):
    """At p = 2, Lanes held as packed words from start to tally give, step
    for step, the distinct states and counts of the int32 rounds and a
    Counter of row bytes, and leave rng where the oracle leaves it.  The
    start draws nothing: rng.integers(1, 2, size) is the only unit."""
    (jmat,) = starts = _twisted_starts(N // 2, build_field(2, 1))
    rng, oracle_rng = np.random.default_rng(N * B), np.random.default_rng(N * B)
    resident = _engine.Lanes.start(starts, 2, B, rng)
    assert resident.packed and rng.bit_generator.state == oracle_rng.bit_generator.state
    assert (oracle_rng.integers(1, 2, size=B) == 1).all()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    oracle = _engine.Lanes.from_grams(np.tile(jmat, (B, 1, 1)), 2, packed=False)
    for step in range(4):
        states, counts = resident.distinct()
        grams = oracle.grams()
        assert (resident.grams() == grams).all()
        assert ([s.tobytes() for s in states], counts.tolist()) == _tally(grams)
        oracle_states, oracle_counts = oracle.distinct()
        assert (states == oracle_states).all() and (counts == oracle_counts).all()
        resident, oracle = resident.step(rng), oracle.step(oracle_rng)
    assert _same_position(rng, oracle_rng)


def _projected(v, f, p):
    """f minus its multiple of e_i, i = v's first nonzero entry, with f v = 0."""
    f = list(f)
    if any(v):
        i = next(i for i, x in enumerate(v) if x)
        dot = sum(a * b for a, b in zip(v, f))
        f[i] = (f[i] - dot * pow(v[i], -1, p)) % p
    return f


@pytest.mark.parametrize("p", [2, 3])
def test_move_predicate_on_every_draw(p):
    """For every (v, f) of F_p^4, the engine moves the lane iff t^T w t != w,
    t = I + v f' (f' the projected f), and the image it forms is
    t^-T w t^-1 = (I - v f')^T w (I - v f'), both formed by MatFq.  At
    p = 2 the packed round gives the same u, f' and moves."""
    N = 4
    field = build_field(p, 1)
    draws = list(itertools.product(itertools.product(range(p), repeat=N), repeat=2))
    vs = np.array([v for v, _ in draws])
    fs = np.array([f for _, f in draws])
    forms = [np.array(standard_J(2, field).to_lists()), _trajectory(2, p, 1, 3, seed=5)[-1][0]]
    for w in forms:
        lanes = np.broadcast_to(w.astype(np.uint8)[:, :, None], (N, N, len(draws)))
        u, f_proj, moves = _engine._draw_moves(lanes, p, _Draws(vs, fs))
        if p == 2:  # the packed round makes the same decisions
            packed = _engine._round_f2(*(_engine._pack(x) for x in (lanes, vs.T, fs.T)))
            assert [_engine._unpack(x, len(draws)).tolist() for x in packed] == [
                u.tolist(), f_proj.tolist(), moves.astype(np.uint8).tolist()]
        images = _engine.rank2_image(lanes, u, f_proj, p)
        gram = MatFq(field, w.tolist())
        for lane, (v, f) in enumerate(draws):
            fp = _projected(v, f, p)
            assert f_proj[:, lane].tolist() == fp
            t = MatFq(field, [[(i == j) + v[i] * fp[j] for j in range(N)] for i in range(N)])
            t_inv = MatFq(field, [[(i == j) - v[i] * fp[j] for j in range(N)] for i in range(N)])
            assert moves[lane] == (t.transpose() * gram * t != gram)
            if moves[lane]:
                image = t_inv.transpose() * gram * t_inv
                assert images[:, :, lane].tolist() == [list(r) for r in image.rows]


def _alternating(rng, B, N, p):
    """B random alternating Grams over F_p as (B, N, N) uint8."""
    upper = np.triu(rng.integers(0, p, size=(B, N, N)), 1)
    return ((upper - upper.transpose(0, 2, 1)) % p).astype(np.uint8)


def _set_upper(grams, pos, values, p):
    """Write values at the pos-th strict upper entry (row by row) of each Gram."""
    i, j = (ix[pos] for ix in np.triu_indices(grams.shape[1], 1))
    grams[:, i, j] = values
    grams[:, j, i] = (-np.asarray(values)) % p


@pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (3, 101), (4, 251)])
def test_distinct_states_match_row_bytes(n, p, monkeypatch):
    """Representatives, in row-byte order, and multiplicities equal a
    Counter of row bytes, by the table count where the label fits
    _BINCOUNT_BITS ((2,2), (3,2), (2,3)) and by row_labels
    everywhere, for (B, N, N) batches and packed Lanes at p = 2."""
    N = 2 * n
    rng = np.random.default_rng(p)
    pool = _alternating(rng, 20, N, p)
    E = N * (N - 1) // 2
    last = pool[:2].copy()  # differ only in the last upper entry
    _set_upper(last, E - 1, [0, 1], p)
    batches = [
        pool[rng.integers(0, 20, size=500)],
        np.concatenate([pool, _alternating(rng, 300, N, p), pool[:5], last]),
        np.broadcast_to(pool[3], (50, N, N)).copy(),
        last,
        pool[5:6],
    ]
    per_word = 32 // (p - 1).bit_length()
    for edge in range(per_word, E, per_word):  # differ only across a word boundary
        pair = np.repeat(pool[:1], 2, axis=0)
        _set_upper(pair, edge - 1, [p - 1, 0], p)
        _set_upper(pair, edge, [0, p - 1], p)
        batches.append(pair)
    assert len(batches) > 4 or E <= per_word
    table = E * (p - 1).bit_length() <= _engine._BINCOUNT_BITS
    for cap in (0, _engine._BINCOUNT_BITS):
        monkeypatch.setattr(_engine, "_BINCOUNT_BITS", cap)
        for grams in batches:
            outs = [_engine.Lanes.from_grams(grams, p, packed=False).distinct()]
            if p == 2:
                outs.append(_engine.Lanes.from_grams(grams, p).distinct())
            for states, mult in outs:
                assert states.dtype == np.uint8 and mult.sum() == len(grams)
                assert ([g.tobytes() for g in states], mult.tolist()) == _tally(grams)
    assert table == ((n, p) in {(2, 2), (3, 2), (2, 3)})


@pytest.mark.parametrize("table", [_engine._TABLE, 1])
@pytest.mark.parametrize("p", [2, 3, 251])
def test_row_labels_equal_exactly_for_equal_bytes(p, table, monkeypatch):
    """row_labels numbers the lanes 0, 1, ... in the order of their column
    bytes, so equal labels mean equal bytes, and gives a lane of each
    label, for 1, 16, 33 and 48 entries, with a table of at least _TABLE
    counts and of 2 B, which at p = 251 leaves entries to np.unique.
    Pairs differing only in one entry, or in two adjacent ones, are told
    apart."""
    monkeypatch.setattr(_engine, "_TABLE", table)
    rng = np.random.default_rng(p)
    for E in (1, 16, 33, 48):
        pool = rng.integers(0, p, size=(E, 40), dtype=np.uint8)
        cols = pool[:, rng.integers(0, 40, size=300)]
        for at in range(0, E, 5):
            pair = np.repeat(pool[:, :1], 2, axis=1)
            pair[at, 1] = (pair[at, 0] + 1) % p
            if at + 1 < E:
                pair[at + 1, 0] = (pair[at + 1, 1] + 1) % p
            cols = np.concatenate([cols, pair], axis=1)
        keys = [c.tobytes() for c in cols.T]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        for batch in (cols, cols.astype(np.int32)):
            lanes, labels = _engine.row_labels(batch, p)
            assert labels.tolist() == [rank[key] for key in keys]
            assert len(lanes) == len(rank) and (labels[lanes] == np.arange(len(rank))).all()
        lanes, labels = _engine.row_labels(cols[:, :0], p)
        assert lanes.shape == labels.shape == (0,)


@pytest.mark.parametrize("p", [2, 3])
def test_distinct_states_of_an_empty_batch(p, monkeypatch):
    """No lanes give no states, (0, N, N) uint8, and no counts, as from
    Lanes.step and Lanes.start, by either counting path, from int32 Lanes
    and from packed ones at p = 2."""
    grams = np.zeros((0, 6, 6), dtype=np.uint8)
    starts = _twisted_starts(3, build_field(p, 1))
    assert _engine.Lanes.start(starts, p, 0, np.random.default_rng(0)).grams().shape == grams.shape
    assert _step(grams, p, np.random.default_rng(0)).shape == grams.shape
    for cap in (0, _engine._BINCOUNT_BITS):
        monkeypatch.setattr(_engine, "_BINCOUNT_BITS", cap)
        for batch in (grams, np.zeros((0, 4, 4), dtype=np.uint8)):
            for packed in {False, p == 2}:
                states, mult = _engine.Lanes.from_grams(batch, p, packed=packed).distinct()
                assert states.shape == batch.shape and states.dtype == np.uint8 and len(mult) == 0


def _allocates_nothing(call):
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLargeError):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000


def test_int_bounds_are_checked_before_any_allocation():
    """Lanes.step, batched_charpoly, batched_matpoly and batched_matmul need
    N p^2 + p < 2^31 (int32), batched_rank p^2 + p < 2^31 (int32).  No
    batch holds memory: none has lanes."""
    N = 34_088  # N * 251^2 + 251 >= 2^31; no lanes, so a missed check allocates nothing either
    _allocates_nothing(lambda: _step(np.zeros((0, N, N), dtype=np.uint8), 251, None))
    # 46349^2 + 46349 >= 2^31, so any N fails at p = 46,349
    lanes_last = np.zeros((2, 2, 0), dtype=np.int32)
    _allocates_nothing(lambda: _engine.batched_charpoly(lanes_last, 46_349, 1))
    _allocates_nothing(lambda: _engine.batched_matpoly(lanes_last, np.ones((2, 1, 1), dtype=np.int32), 46_349))
    _allocates_nothing(lambda: _engine.batched_matmul(lanes_last, lanes_last, 46_349))
    _allocates_nothing(lambda: _engine.batched_rank(lanes_last, 46_349))
