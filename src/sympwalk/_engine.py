"""Vectorized prime-field helpers for chain building and simulation.

Every batched state, in Monte Carlo and in exact chains alike, is an
(S, N, N) uint8 array of Grams over F_p, so q <= 256 (the brute-force
oracle, transvection_images, keeps int64 rows).  rank2_image, mc_step
and batched_rank work lanes last, over rows as long as the batch.  No
floating point: mc_step computes in int32 (N p^2 + p < 2^31), batched_rank
in int32 (p^2 + p < 2^31), distinct_states labels in int64 (batches below
2^31), each checked first; every other product is int64 on entries < p,
reduced mod p after each (N p^2 < 2^63).
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
    Returns two (P, N) int64 arrays, P the Gaussian binomial [N, 2]_q.
    """
    a_parts, b_parts = [], []
    for i in range(N):
        for j in range(i + 1, N):
            free_a = [c for c in range(i + 1, N) if c != j]
            free_b = list(range(j + 1, N))
            m = len(free_a) + len(free_b)
            digits = np.arange(q ** m)[:, None] // q ** np.arange(m) % q
            a = np.zeros((len(digits), N), dtype=np.int64)
            b = np.zeros_like(a)
            a[:, i] = 1
            b[:, j] = 1
            a[:, free_a] = digits[:, : len(free_a)]
            b[:, free_b] = digits[:, len(free_a):]
            a_parts.append(a)
            b_parts.append(b)
    return np.concatenate(a_parts), np.concatenate(b_parts)


def plane_images(w, a, b, p):
    """The distinct congruence images t^T w t != w of one alternating Gram w.

    A transvection that moves w adds a nonzero multiple of x y^T - y x^T
    (rank2_image), where x, y span a 2-plane isotropic for w^-1, and each
    (plane, multiple) pair comes from exactly p(p+1) transvections.  The
    planes isotropic for w^-1 are the images under w^T of the planes
    isotropic for w, so the images are w + lam (x y^T - y x^T) for
    x = w^T a, y = w^T b over the planes (a, b) of two_planes with
    a^T w b = 0 and lam = 1..p-1, all distinct.  Returns them as a
    (P (p-1), N, N) uint8 array.
    """
    N = len(w)
    w = w.astype(np.int64)
    aw = a @ w % p
    iso = (aw * b).sum(axis=1) % p == 0
    x, y = aw[iso].T, (b[iso] @ w % p).T
    lam_x = np.arange(1, p)[:, None] * x[:, None] % p  # (N, p - 1, planes)
    imgs = rank2_image(w[:, :, None, None], lam_x, y[:, None], p)
    return np.ascontiguousarray(imgs.reshape(N, N, -1).transpose(2, 0, 1), dtype=np.uint8)


def j_inv_times(grams, p):
    """X = J^-1 w mod p for every Gram w of the batch, as int64.

    J = [[0, I], [-I, 0]] has J^-1 = [[0, -I], [I, 0]], so X is w with its
    row blocks swapped and the new top block negated.
    """
    w = grams.astype(np.int64)
    n = w.shape[1] // 2
    return np.concatenate((-w[:, n:] % p, w[:, :n]), axis=1)


def batched_rank(mats, p):
    """Rank over F_p of every matrix in the (B, M, N) batch, as (B,) int64.

    Held lanes last in int32, (M, N, B).  Column by column, the first row
    nonzero there (one max reduction) is the pivot, scaled to 1, and the
    column is cleared from every row, the pivot's own included, which
    zeroes it: no row is swapped or picked twice, and the rank is the
    number of columns that found a pivot.  The input is reduced mod p in
    int64 as it is narrowed to int32; every later entry stays below
    p^2 + p < 2^31, checked before anything is allocated.
    """
    if p * p + p >= 2 ** 31:
        raise StateSpaceTooLargeError(f"int32 ranks need p^2 + p < 2^31, got {p * p + p}")
    B, M, N = mats.shape
    a = np.empty((M, N, B), dtype=np.int32)
    np.mod(mats.transpose(1, 2, 0), p, out=a, dtype=np.int64, casting="unsafe")
    inv_table = mod_inverse_table(p)
    order = np.arange(M, 0, -1, dtype=np.int32)[:, None]
    rank = np.zeros(B, dtype=np.int64)
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
    ValueError, not an endless redraw."""
    N = grams.shape[1]
    if N * p * p + p >= 2 ** 31:
        raise StateSpaceTooLargeError(f"int32 steps need N p^2 + p < 2^31, got {N * p * p + p}")
    w = np.ascontiguousarray(grams.transpose(1, 2, 0))
    u, f, moves = _draw_moves(w, p, rng)
    pending = np.flatnonzero(~moves)
    if len(pending) and (N < 3 or not w[:, :, pending].any(axis=(0, 1)).all()):
        raise ValueError(f"no transvection moves a {N} x {N} form of the batch")
    while len(pending):
        u_p, f_p, moves = _draw_moves(w[:, :, pending], p, rng)
        u[:, pending], f[:, pending] = u_p, f_p  # kept from the round that moves the lane
        pending = pending[~moves]
    return np.ascontiguousarray(rank2_image(w, u, f, p).transpose(2, 0, 1), dtype=np.uint8)


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


def batched_charpoly(mats, p):
    """Characteristic polynomial coefficients mod p for every matrix.

    Division-free (Berkowitz): the charpoly of each leading k+1 block is
    a Toeplitz column times that of the leading k block.  Returns (S, N+1)
    int64 coefficients of det(xI - M), highest degree first.
    """
    S, N, _ = mats.shape
    m = np.mod(mats.astype(np.int64), p)
    v = np.ones((S, 1), dtype=np.int64)  # the empty leading block
    for k in range(N):
        R, w, sub = m[:, k, :k], m[:, :k, k], m[:, :k, :k]
        col = np.zeros((S, k + 2), dtype=np.int64)
        col[:, 0] = 1
        col[:, 1] = -m[:, k, k] % p
        for j in range(k):
            if j:
                w = np.einsum("sij,sj->si", sub, w) % p
            col[:, j + 2] = -(R * w).sum(axis=1) % p
        new_v = np.zeros((S, k + 2), dtype=np.int64)
        for j in range(k + 1):
            new_v[:, j:] += col[:, : k + 2 - j] * v[:, j, None]
        v = new_v % p
    return v


def batched_matpoly(mats, coeffs_desc, p):
    """Evaluate a polynomial of degree >= 1 (descending int coefficients)
    at each matrix, by Horner's rule in int64: degree - 1 matrix products."""
    S, N, _ = mats.shape
    m = mats.astype(np.int64)
    eye = np.eye(N, dtype=np.int64)[None]
    acc = np.mod(coeffs_desc[0] * m + coeffs_desc[1] * eye, p)
    for c in coeffs_desc[2:]:
        acc = np.mod(acc @ m + c * eye, p)
    return acc
