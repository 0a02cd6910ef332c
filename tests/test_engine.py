import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from sympwalk import _engine
from sympwalk.errors import StateSpaceTooLargeError
from sympwalk.field import PolyFq, build_field, field_from_order
from sympwalk.linalg import MatFq, _eval_poly_at_matrix, all_transvections, charpoly, standard_J
from sympwalk.walk import _mul_blocks, _realify


def _trajectory(n, p, trials, steps, seed):
    """Seeded initial_grams followed by `steps` mc_steps: every batch."""
    rng = np.random.default_rng(seed)
    jmat = np.array(standard_J(n, build_field(p, 1)).to_lists(), dtype=np.uint8)
    grams = _engine.initial_grams(jmat, p, trials, rng)
    out = [grams]
    for _ in range(steps):
        grams = _engine.mc_step(grams, p, rng)
        out.append(grams)
    return out


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
# (3,3) and (3,101) entries with the lanes-first int32 rank-2 step.
TRAJECTORY_DIGESTS = {
    (2, 2): "acc94e62871cba05ddf2d8bcffe72b949cb287423e09a2177a39d923e27cbbd3",
    (2, 3): "cd1c8b7d231087f3c03e864b1cbb1e4cd86fe8af2a742f992ec322969d6f0c37",
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


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("N", [1, 5, 8])
def test_packed_matpoly_matches_int32_oracle(q, N, monkeypatch):
    """batched_matpoly at p = 2 (packed Horner products) equals it with the
    int32 product, for polynomials of degree 1 to 4 over F_q, realified, on
    100 mixed-rank lanes with negative entries; an empty batch stays empty."""
    field = field_from_order(q)
    rng = np.random.default_rng(10 * q + N)
    x = _mixed_rank_f2(rng, 100, N * field.k, N * field.k)
    polys = [[1, *rng.integers(0, q, size=degree)] for degree in range(1, 5)]
    packed = [_engine.batched_matpoly(x, _mul_blocks(field)[c], 2) for c in polys]
    assert _engine.batched_matpoly(x[:, :, :0], _mul_blocks(field)[polys[-1]], 2).shape == (len(x), len(x), 0)
    monkeypatch.setattr(_engine, "batched_matmul", _engine._matmul_int32)
    for c, fx in zip(polys, packed):
        assert (fx == _engine.batched_matpoly(x, _mul_blocks(field)[c], 2)).all()


@pytest.mark.parametrize("q", [2, 3, 251, 4, 8, 9])
@pytest.mark.parametrize("N", [1, 2, 5, 6])
def test_charpoly_and_matpoly_match_matfq(q, N):
    """On random lanes-last int32 batches, realified over F_p: batched_matpoly
    equals the realified linalg._eval_poly_at_matrix lane by lane, for
    polynomials of degree 1 to N + 1 given by their coefficient blocks, and
    batched_charpoly equals the norm of linalg.charpoly, the product of its
    Frobenius conjugates (linalg.charpoly itself over a prime field)."""
    rng = np.random.default_rng(1000 * q + N)
    field = field_from_order(q)
    p, k = field.p, field.k
    codes = rng.integers(0, q, size=(40, N, N))
    x = np.ascontiguousarray(_realify(codes, field).transpose(1, 2, 0))
    mats = [MatFq(field, c.tolist()) for c in codes]
    cps = _engine.batched_charpoly(x, p)
    assert cps.shape == (N * k + 1, 40)
    norms = []
    for m in mats:
        cp = charpoly(m)
        norm = cp
        for i in range(1, k):
            norm = norm * PolyFq(field, [field.pow(c, p ** i) for c in cp.coeffs])
        norms.append(list(reversed(norm.coeffs)))
    assert [cps[:, b].tolist() for b in range(40)] == norms
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


def test_mc_step_rejects_lanes_that_cannot_move():
    """The zero form has no move, and no form of size N < 3 has one: mc_step
    raises after its first round instead of redrawing forever (the stub has
    the draws of one round only, so a second round fails the test too), on
    int32 lanes at p = 3 and on packed ones at p = 2."""
    rng = np.random.default_rng(0)
    for p in (2, 3):
        mixed = _trajectory(3, p, trials=5, steps=1, seed=2)[-1]
        mixed[2] = 0
        size2 = np.array([[[0, 1], [p - 1, 0]]] * 4, dtype=np.uint8)
        for grams in (np.zeros((4, 6, 6), dtype=np.uint8), mixed, size2):
            B, N, _ = grams.shape
            with pytest.raises(ValueError):
                _engine.mc_step(grams, p, _Draws(*rng.integers(0, p, size=(2, B, N))))


class _Recorded:
    """A seeded Generator whose integers() calls are logged: bounds, size and dtype."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def integers(self, low, high, size):
        out = self.rng.integers(low, high, size=size)
        self.calls.append((low, high, size, out.dtype))
        return out


@pytest.mark.parametrize("N", [4, 6, 8])
@pytest.mark.parametrize("B", [0, 1, 63, 64, 65, 1000])
def test_packed_mc_step_matches_int32_oracle(B, N):
    """At p = 2, mc_step on packed lanes makes the int32 step's draws, call
    for call, and lands every lane on the same Gram, for three steps from
    random nonzero alternating forms (degenerate ones included)."""
    rng = np.random.default_rng(10 * B + N)
    grams = _alternating(rng, B, N, 2)
    zero = ~grams.any(axis=(1, 2))
    grams[zero, 0, 1] = grams[zero, 1, 0] = 1
    for step in range(3):
        packed_rng, oracle_rng = _Recorded(step), _Recorded(step)
        packed = _engine.mc_step(grams, 2, packed_rng)
        oracle = _engine._mc_step(grams, 2, oracle_rng, packed=False)
        assert packed.dtype == np.uint8 and packed.flags.c_contiguous
        assert packed.shape == grams.shape and (packed == oracle).all()
        assert packed_rng.calls == oracle_rng.calls
        assert all(dtype == np.int64 for *_, dtype in packed_rng.calls)
        grams = packed
    if B == 1000:
        assert len(packed_rng.calls) > 2  # lanes were redrawn


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
        if p == 2:  # the packed round makes the same draws and decisions
            packed = _engine._draw_moves_f2(lanes, p, _Draws(vs, fs))
            assert [x.tolist() for x in packed] == [u.tolist(), f_proj.tolist(), moves.tolist()]
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


@pytest.mark.parametrize("n, p", [(2, 2), (3, 3), (3, 101), (4, 251)])
def test_distinct_states_match_row_bytes(n, p):
    """Representatives and multiplicities equal np.unique over row bytes."""
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
    ]
    per_word = 32 // (p - 1).bit_length()
    for edge in range(per_word, E, per_word):  # differ only across a word boundary
        pair = np.repeat(pool[:1], 2, axis=0)
        _set_upper(pair, edge - 1, [p - 1, 0], p)
        _set_upper(pair, edge, [0, p - 1], p)
        batches.append(pair)
    assert len(batches) > 4 or E <= per_word
    row_bytes = np.dtype((np.void, N * N))
    for grams in batches:
        rows = grams.reshape(len(grams), -1).view(row_bytes).ravel()
        uniq, counts = np.unique(rows, return_counts=True)
        states, mult = _engine.distinct_states(grams, p)
        assert [g.tobytes() for g in states] == uniq.tolist()
        assert mult.tolist() == counts.tolist()
        assert mult.sum() == len(grams)


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
    """mc_step, batched_charpoly, batched_matpoly and batched_matmul need
    N p^2 + p < 2^31 (int32), batched_rank p^2 + p < 2^31 (int32),
    distinct_states a batch below 2^31 (labels shifted by 32 bits in int64).
    No batch holds memory: all but one have no lanes, the other is a
    broadcast view."""
    N = 34_088  # N * 251^2 + 251 >= 2^31; no lanes, so a missed check allocates nothing either
    _allocates_nothing(lambda: _engine.mc_step(np.zeros((0, N, N), dtype=np.uint8), 251, None))
    # 46349^2 + 46349 >= 2^31, so any N fails at p = 46,349
    lanes_last = np.zeros((2, 2, 0), dtype=np.int32)
    _allocates_nothing(lambda: _engine.batched_charpoly(lanes_last, 46_349))
    _allocates_nothing(lambda: _engine.batched_matpoly(lanes_last, np.ones((2, 1, 1), dtype=np.int32), 46_349))
    _allocates_nothing(lambda: _engine.batched_matmul(lanes_last, lanes_last, 46_349))
    _allocates_nothing(lambda: _engine.batched_rank(lanes_last, 46_349))
    huge = np.broadcast_to(np.uint8(0), (2 ** 31, 4, 4))
    _allocates_nothing(lambda: _engine.distinct_states(huge, 2))
