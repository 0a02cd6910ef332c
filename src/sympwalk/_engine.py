"""Vectorized prime-field kernels for chains, simulation and classification.

One rule: states cross the module boundary as (B, N, N) uint8 Grams over
F_p, so p <= 256, and every kernel computes lanes last, (N, N, B).  At odd
p it computes in int32, reduced with _mod, under a bound it checks before
it allocates (_check_int32).  At p = 2, mc_step, batched_rank and
batched_matmul (and with it the Horner steps of batched_matpoly) bit-slice
the lanes instead: _pack holds 64 lanes in each uint64 word, bit l of word
w being lane 64 w + l, so a product is an AND, a sum an XOR, and no bound
applies.  They take and return what their int32 forms (_rank_int32,
_matmul_int32, and _mc_step with int32 rounds) do, which stay the odd-p
path and the test oracle.  No floating point.  A matrix over F_q, q = p^k, comes realified:
each entry c becomes the k x k block over F_p of multiplication by c, and
ranks are k times those over F_q.  Not kernels: distinct_states labels
states in int64 (batches below 2^31), and the brute-force oracle,
transvection_images, keeps int64 rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import StateSpaceTooLargeError


def rank2_image(w, x, y, p):
    """(w + x y^T - y x^T) mod p, lanes last: x and y are (N, *lanes) and w
    broadcasts against (N, N, *lanes).  With x = v^T w this is t^-T w t^-1
    for t = I + vy and an alternating w: (v^T w v) y^T y vanishes."""
    d = x[:, None] * y[None]
    d = d - d.swapaxes(0, 1)
    d += w
    return _mod(d, p)


def _mod(x, p):
    """x mod p in place, for either sign: x // p uses SIMD, fmod and % do not."""
    q = x // p
    q *= p
    x -= q
    return x


def _check_int32(terms, p, what):
    """Sums of `terms` products of residues plus a residue must fit int32."""
    if terms * p * p + p >= 2 ** 31:
        raise StateSpaceTooLargeError(f"int32 {what} need {terms} p^2 + p < 2^31 at p = {p}")


def _pack(x):
    """The low bits of the integers x, (..., B), as (..., W) uint64 words,
    W = ceil(B / 64): bit l of word w is lane 64 w + l (on a little-endian
    host; no kernel reads a word as a number), and the padding bits are 0."""
    bits = np.bitwise_and(x, 1, dtype=np.uint8, casting="unsafe", order="C")  # keeps the low bit of x < 0
    B = bits.shape[-1]
    words = np.zeros((*bits.shape[:-1], -(-B // 64) * 8), dtype=np.uint8)
    words[..., : -(-B // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return words.view(np.uint64)


def _unpack(words, B):
    """The first B lanes of _pack's words as (..., B) uint8 bits."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=B, bitorder="little")


def _first_set(x):
    """For (K, W) words: the words of each lane's first set row among the K
    (a running "seen" word), and the words of the lanes with any set."""
    seen = np.bitwise_or.accumulate(x, axis=0)
    first = x.copy()
    first[1:] &= ~seen[:-1]
    return first, seen[-1]


def transvection_images(w, v, f, p):
    """Distinct congruence images t^T w t != w of one alternating Gram w.

    The transvection route, kept for the brute-force oracle
    (ChainModel.full_tv_curve_bruteforce): t = I + v f runs over the
    transvections given by the rows of v and f, so it shares no code with
    the plane enumeration of plane_images.  Returns the sorted distinct images
    as int64 rows of length N^2 and the number of transvections giving each.
    """
    imgs = rank2_image(w[:, :, None], f.T, (v @ w % p).T, p)
    moved = imgs[:, :, (imgs != w[:, :, None]).any(axis=(0, 1))]
    return np.unique(moved.reshape(w.size, -1).T, axis=0, return_counts=True)


def two_planes(N, q):
    """Every 2-plane of F_q^N once, as the rows (a, b) of its reduced basis.

    Entries are field codes: a has its leading 1 in column i, b in column
    j > i, a is 0 in column j, and both are 0 left of their leading 1.
    Returns two (P, N) int32 arrays, P the Gaussian binomial [N, 2]_q.
    """
    a_parts, b_parts = [], []
    for i in range(N):
        for j in range(i + 1, N):
            free_a = [c for c in range(i + 1, N) if c != j]
            free_b = list(range(j + 1, N))
            m = len(free_a) + len(free_b)
            digits = np.arange(q ** m)[:, None] // q ** np.arange(m) % q
            a = np.zeros((len(digits), N), dtype=np.int32)
            b = np.zeros_like(a)
            a[:, i] = 1
            b[:, j] = 1
            a[:, free_a] = digits[:, : len(free_a)]
            b[:, free_b] = digits[:, len(free_a):]
            a_parts.append(a)
            b_parts.append(b)
    return np.concatenate(a_parts), np.concatenate(b_parts)


def plane_images(w, a, b, units, p):
    """The distinct congruence images t^T w t != w of one alternating Gram w,
    every matrix realified over F_p (see above).

    A transvection that moves w adds a nonzero multiple of x y^T - y x^T,
    where x, y span a 2-plane isotropic for w^-1, and each (plane, multiple)
    pair comes from exactly q(q+1) transvections.  The planes isotropic for
    w^-1 are the images under w^T of the planes isotropic for w, so the
    images are w + x lam y^T - y lam x^T for x^T = a^T w, y^T = b^T w over
    the planes (a, b) of two_planes with a^T w b = 0 and the q - 1 units
    lam, all distinct.  a and b are (P, k, Nk), units (q - 1, k, k), and
    y lam x^T is x lam y^T with its blocks, not their entries, transposed.
    Returns the images as a (P' (q-1), Nk, Nk) uint8 array, unit-major.
    """
    Nk = len(w)
    P, k, _ = a.shape
    N = Nk // k
    _check_int32(Nk, p, "plane images")
    w = w.astype(np.int32)
    xt = _mod(a.reshape(-1, Nk) @ w, p).reshape(P, k, Nk)
    b_digits = b.reshape(P, k, N, k)[..., 0].transpose(0, 2, 1).reshape(P, Nk)  # column 0 of b's blocks
    iso = ~_mod(np.einsum("pin,pn->pi", xt, b_digits), p).any(axis=1)
    x = xt[iso].reshape(-1, k, N, k).transpose(0, 2, 1, 3).reshape(-1, Nk, k)  # x^T's blocks stacked
    yt = _mod(b[iso].reshape(-1, Nk) @ w, p).reshape(-1, k, Nk)
    lam_yt = _mod(np.einsum("lij,pjn->lpin", units, yt), p)
    d = sum((x[:, :, j, None] * lam_yt[:, :, j, None] for j in range(1, k)),
            x[:, :, 0, None] * lam_yt[:, :, 0, None]).reshape(-1, N, k, N, k)
    d = d - d.transpose(0, 3, 2, 1, 4) + w.reshape(N, k, N, k)
    return _mod(d, p).reshape(-1, Nk, Nk).astype(np.uint8)


def j_inv_times(grams, p):
    """X = J^-1 w mod p, lanes last, for every Gram w of the (B, N, N) batch.
    J^-1 = [[0, -I], [I, 0]] swaps w's row blocks and negates the new top."""
    B, N, _ = grams.shape
    x = np.empty((N, N, B), dtype=np.int32)
    x[...] = np.roll(grams.transpose(1, 2, 0), N // 2, axis=0)
    x[: N // 2] *= -1
    return _mod(x, p)


def batched_matmul(a, b, p):
    """a b mod p for lanes-last (M, K, B) and (K, N, B) integers, as int32."""
    return _matmul_f2(a, b) if p == 2 else _matmul_int32(a, b, p)


def _matmul_int32(a, b, p):
    _check_int32(a.shape[1], p, "matrix products")
    return _mod(np.einsum("ijb,jkb->ikb", a, b), p)


def _matmul_f2(a, b):
    """a b over F_2 on packed lanes: an XOR over j of row j of b ANDed with
    column j of a."""
    a_w, b_w = _pack(a), _pack(b)
    prod = a_w[:, 0, None] & b_w[0]
    for j in range(1, a.shape[1]):
        prod ^= a_w[:, j, None] & b_w[j]
    return _unpack(prod, a.shape[-1]).astype(np.int32)


def batched_rank(a, p):
    """Rank over F_p of every matrix of the lanes-last (M, N, B) integer
    batch, as (B,) int32; a is left as it is.  Column by column, the first
    row nonzero there is the pivot, scaled to 1, and the column is cleared
    from every row, the pivot's own included, which zeroes it: no row is
    swapped or picked twice, and the rank is the number of columns that
    found a pivot."""
    return _rank_f2(a) if p == 2 else _rank_int32(a, p)


def _rank_f2(a):
    """batched_rank on packed lanes: the pivot is picked by _first_set and
    the column cleared by XOR with the pivot row where the column is set."""
    N, B = a.shape[1:]
    a = _pack(a)
    found = np.empty((N, a.shape[-1]), dtype=np.uint64)
    for col in range(N):
        c = a[:, col]
        first, found[col] = _first_set(c)
        piv = np.bitwise_or.reduce(first[:, None] & a[:, col:], axis=0)
        a[:, col:] ^= c[:, None] & piv
    return _unpack(found, B).sum(axis=0, dtype=np.int32)


def _rank_int32(a, p):
    """batched_rank in int32: the pivot is the first row nonzero in the
    column (one max reduction), and every entry stays below p^2 + p."""
    _check_int32(1, p, "ranks")
    M, N, B = a.shape
    a = _mod(a.copy(), p)
    inv_table = mod_inverse_table(p)
    order = np.arange(M, 0, -1, dtype=np.int32)[:, None]
    rank = np.zeros(B, dtype=np.int32)
    for col in range(N):
        sub = a[:, col:]
        c = sub[:, 0]
        first = (c != 0) * order
        top = first.max(axis=0, initial=0)
        at = (first == np.maximum(top, 1)).astype(np.int32)  # one-hot; no row if top is 0
        piv = np.einsum("mb,mnb->nb", at, sub)
        piv = _mod(piv * inv_table[piv[0]], p)
        sub -= c[:, None] * piv
        _mod(sub, p)
        rank += top > 0
    return rank


@lru_cache(maxsize=None)
def mod_inverse_table(p):
    """x -> x^-1 mod p (0 -> 0), one read-only int32 array per p."""
    table = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int32)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Monte Carlo stepping
# ---------------------------------------------------------------------------

def initial_grams(j_mat, p, trials, rng):
    """D-randomized starts: row/column 0 of J scaled by a uniform unit."""
    grams = np.tile(j_mat, (trials, 1, 1))
    ainv = mod_inverse_table(p)[rng.integers(1, p, size=trials)][:, None]
    grams[:, 0, :] = _mod(grams[:, 0, :] * ainv, p)
    grams[:, :, 0] = _mod(grams[:, :, 0] * ainv, p)
    return grams


def mc_step(grams, p, rng):
    """One walk step on every Gram of the batch, held lanes last, (N, N, B):
    each lane draws a uniform transvection t = I + vf (f v = 0) and moves w
    to t^-T w t^-1 = w + u^T f - f^T u, u = v^T w, or, if u = 0 or f is in
    span(u), draws again.  Its image is formed once, after its last round.
    For N >= 3 every nonzero form has a move; a lane that stays after the
    first round and cannot move (the zero form, or any form if N < 3) is a
    ValueError, not an endless redraw.  At p = 2 the rounds run on packed
    lanes; every round draws v, then f, as rng.integers(0, p, size=(lanes,
    N)) at any p, so a seed gives the same steps as on int32 lanes."""
    return _mc_step(grams, p, rng, packed=p == 2)


def _mc_step(grams, p, rng, packed):
    """mc_step with its rounds on packed lanes (p = 2 only) or int32 ones."""
    N = grams.shape[1]
    if not packed:
        _check_int32(N, p, "steps")
    draw = _draw_moves_f2 if packed else _draw_moves
    w = np.ascontiguousarray(grams.transpose(1, 2, 0))
    u, f, moves = draw(w, p, rng)
    pending = np.flatnonzero(~moves)
    if len(pending) and (N < 3 or not np.take(w, pending, axis=2).any(axis=(0, 1)).all()):
        raise ValueError(f"no transvection moves a {N} x {N} form of the batch")
    while len(pending):
        u_p, f_p, moves = draw(np.take(w, pending, axis=2), p, rng)
        u[:, pending], f[:, pending] = u_p, f_p  # kept from the round that moves the lane
        pending = pending[~moves]
    if packed:
        image = u[:, None] & f
        image ^= image.swapaxes(0, 1)
        image ^= w
    else:
        image = rank2_image(w, u, f, p)
    return np.ascontiguousarray(image.transpose(2, 0, 1), dtype=np.uint8)


def _draw_moves(w, p, rng):
    """Draw v, f for each lane of w, (N, N, m): u = v^T w and f projected at
    v's first nonzero entry, (N, m) each, and whether the lane moves, read off
    the row of u f^T - f u^T at u's first nonzero entry (all-True mask if none)."""
    N, _, m = w.shape
    v = np.ascontiguousarray(rng.integers(0, p, size=(m, N)).T, dtype=np.int32)
    f = np.ascontiguousarray(rng.integers(0, p, size=(m, N)).T, dtype=np.int32)
    u = _mod(np.einsum("im,ijm->jm", v, w), p)
    vu = np.stack((v, u))
    rank = (vu != 0) * np.arange(N, 0, -1, dtype=np.int32)[:, None]
    at = rank == rank.max(axis=1, keepdims=True)
    v_at, u_at = np.einsum("kim,kim->km", vu, at)
    f = _mod(f - at[0] * (_mod(np.einsum("im,im->m", v, f), p) * mod_inverse_table(p)[v_at]), p)
    row = u_at * f - np.einsum("im,im->m", f, at[1]) * u
    return u, f, _mod(row, p).any(axis=0)


def _draw_moves_f2(w, p, rng):
    """_draw_moves at p = 2 on packed lanes: u = v^T w is an XOR of ANDs, f
    is projected by XOR at v's first set entry, and the row of
    u f^T - f u^T at u's first set entry is f, or f ^ u if f is set there,
    or 0 if u = 0.  u and f come back as uint8 bits."""
    N, _, m = w.shape
    w = _pack(w)
    v = _pack(rng.integers(0, p, size=(m, N)).T)
    f = _pack(rng.integers(0, p, size=(m, N)).T)
    u = np.bitwise_xor.reduce(v[:, None] & w, axis=0)
    v_first, _ = _first_set(v)
    f ^= v_first & np.bitwise_xor.reduce(v & f, axis=0)
    u_first, u_nonzero = _first_set(u)
    row = (u_nonzero & f) ^ (np.bitwise_or.reduce(u_first & f, axis=0) & u)
    moves = _unpack(np.bitwise_or.reduce(row, axis=0), m).view(bool)
    return _unpack(u, m), _unpack(f, m), moves


def distinct_states(grams, p):
    """Each distinct alternating Gram of a (B, N, N) batch, in row-byte order,
    and its multiplicity.  The strict upper triangle, which fixes the Gram, is
    packed at (p-1).bit_length() bits an entry, first entry highest, in 32-bit
    words; each refines a dense int64 label by np.unique(label << 32 | word)."""
    B, N, _ = grams.shape
    if B >= 2 ** 31:
        raise StateSpaceTooLargeError(f"int64 labels shift by 32 bits; a batch of {B} reaches 2^31")
    bits = (p - 1).bit_length()
    upper = [i * N + j for i in range(N) for j in range(i + 1, N)]
    shift = np.array([bits * (~e % (32 // bits)) for e in range(len(upper))], dtype=np.uint32)
    packed = grams.reshape(B, -1).T[upper].astype(np.uint32) << shift[:, None]
    label = np.zeros(B, dtype=np.int64)
    for start in range(0, len(upper), 32 // bits):
        label <<= 32
        label |= np.bitwise_or.reduce(packed[start:start + 32 // bits], axis=0)
        _, label = np.unique(label, return_inverse=True)
    lanes = np.empty(label.max() + 1, dtype=np.intp)
    lanes[label] = np.arange(B)
    return grams[lanes], np.bincount(label)


def batched_charpoly(x, p):
    """det(xI - X) mod p of every X of the lanes-last (N, N, B) batch, as
    (N + 1, B) coefficients, highest degree first.  Division-free
    (Berkowitz): the charpoly of each leading k+1 block is a Toeplitz
    column times that of the leading k block."""
    N, _, B = x.shape
    _check_int32(N, p, "characteristic polynomials")
    v = np.ones((1, B), dtype=np.int32)  # the empty leading block
    for k in range(N):
        R, w, sub = x[k, :k], x[:k, k], x[:k, :k]
        col = np.empty((k + 2, B), dtype=np.int32)
        col[0] = 1
        col[1] = -x[k, k]
        for j in range(k):
            if j:
                w = _mod(np.einsum("ijb,jb->ib", sub, w), p)
            col[j + 2] = -np.einsum("ib,ib->b", R, w)
        _mod(col, p)
        new_v = np.zeros((k + 2, B), dtype=np.int32)
        for j in range(k + 1):
            new_v[j:] += col[: k + 2 - j] * v[j]
        v = _mod(new_v, p)
    return v


def batched_matpoly(x, coeff_blocks, p):
    """f(X) mod p at every realified X of the lanes-last (Nk, Nk, B) batch,
    for f of degree >= 1, by Horner's rule.  coeff_blocks, (deg f + 1, k, k),
    holds the multiplication blocks of f's coefficients, highest degree
    first; each is added on the block diagonal."""
    Nk = len(x)
    _check_int32(Nk, p, "polynomial evaluation")
    k = coeff_blocks.shape[1]
    rows, cols = _block_diagonal(Nk, k)
    lead, x_rows = coeff_blocks[0], x.reshape(Nk // k, k, *x.shape[1:])
    acc = sum((lead[:, j, None, None] * x_rows[:, j, None] for j in range(1, k)),
              lead[:, 0, None, None] * x_rows[:, 0, None]).reshape(x.shape)  # the leading block times X
    for i, c in enumerate(coeff_blocks[1:]):
        if i:
            acc = batched_matmul(acc, x, p)
        acc[rows, cols] += c[:, :, None]
        _mod(acc, p)
    return acc


@lru_cache(maxsize=None)
def _block_diagonal(Nk, k):
    """Row and column indices, (Nk / k, k, k) each, of the k x k diagonal blocks."""
    first = np.arange(0, Nk, k)[:, None, None]
    return first + np.arange(k)[:, None], first + np.arange(k)
