"""Vectorized prime-field helpers for chain building and simulation.

One storage layout: every batched state, in Monte Carlo and in exact
chains alike, is a Gram matrix over F_p held as an (S, N, N) uint8 array,
so both admit only q <= 256, and is keyed by its raw row bytes (the
brute-force oracle, transvection_images, keeps its own int64 rows).  Two
integer widths and no floating point: mc_step moves states by the rank-2
update of rank2_image in int32 (every intermediate is below N p^2 + p,
below 2^31 for p <= 256 and N < 2^15); every other product runs in int64
on entries < p, reduced mod p after every product, exact while
N p^2 < 2^63.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def rank2_image(w, f, u, p):
    """(w + f^T u - u^T f) mod p, broadcast over leading axes.

    This is t^T w t for the transvection t = I + vf and u = v^T w of an
    alternating w: the term (v^T w v) f^T f vanishes.
    """
    outer = f[..., :, None] * u[..., None, :]
    # shifted by p^2 to be nonnegative: fmod is then mod, at a third of the cost
    return np.fmod(w + p * p + outer - np.swapaxes(outer, -1, -2), p)


def transvection_images(w, v, f, p):
    """Distinct congruence images t^T w t != w of one alternating Gram w.

    The transvection route, kept for the brute-force oracle
    (ChainModel.full_tv_curve_bruteforce): t = I + v f runs over the
    transvections given by the rows of v and f, so it shares no code with
    the plane enumeration of plane_images.  The batch costs O(T N^2) int64
    operations, exact while N p^2 < 2^63.  Returns the sorted distinct
    images as int64 rows of length N^2 and the number of transvections
    giving each.
    """
    imgs = rank2_image(w, f, v @ w % p, p)
    moved = imgs[(imgs != w).any(axis=(1, 2))]
    return np.unique(moved.reshape(len(moved), -1), axis=0, return_counts=True)


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
    x = aw[iso]
    y = b[iso] @ w % p
    lam = np.arange(1, p)[:, None, None]
    return rank2_image(w, lam * x % p, y, p).reshape(-1, N, N).astype(np.uint8)


def j_inv_times(grams, p):
    """X = J^-1 w mod p for every Gram w of the batch, as int64.

    J = [[0, I], [-I, 0]] has J^-1 = [[0, -I], [I, 0]], so X is w with its
    row blocks swapped and the new top block negated.
    """
    w = grams.astype(np.int64)
    n = w.shape[1] // 2
    return np.concatenate((-w[:, n:] % p, w[:, :n]), axis=1)


def batched_rank(mats, p):
    """Rank over F_p of every matrix in the (B, M, N) batch."""
    a = np.mod(mats.astype(np.int64), p)
    B, M, N = a.shape
    inv_table = mod_inverse_table(p)
    pivot_row = np.zeros(B, dtype=np.int64)
    rows_idx = np.arange(M, dtype=np.int64)[None, :]
    for col in range(N):
        cand = (a[:, :, col] != 0) & (rows_idx >= pivot_row[:, None])
        has = cand.any(axis=1)
        lanes = np.nonzero(has)[0]
        if not len(lanes):
            continue
        piv = np.argmax(cand[lanes], axis=1)
        pr = pivot_row[lanes]
        a[lanes, pr], a[lanes, piv] = a[lanes, piv], a[lanes, pr]  # row swap
        # normalize pivot rows
        scale = inv_table[a[lanes, pr, col]]
        a[lanes, pr, :] = np.mod(a[lanes, pr, :] * scale[:, None], p)
        # eliminate strictly below the pivot row
        sub = a[lanes]
        below = rows_idx[0][None, :] > pr[:, None]
        factors = sub[:, :, col] * below
        sub = np.mod(sub - factors[:, :, None] * sub[np.arange(len(lanes)), pr, :][:, None, :], p)
        a[lanes] = sub
        pivot_row[lanes] += 1
    return pivot_row


@lru_cache(maxsize=None)
def mod_inverse_table(p):
    """x -> x^-1 mod p (0 -> 0), one read-only int64 array per p."""
    table = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Monte Carlo stepping
# ---------------------------------------------------------------------------

def initial_grams(j_mat, p, trials, rng):
    """D-randomized starts: row/column 0 of J scaled by a uniform unit."""
    N = j_mat.shape[0]
    grams = np.broadcast_to(j_mat.astype(np.int64), (trials, N, N)).copy()
    alphas = rng.integers(1, p, size=trials)
    ainv = mod_inverse_table(p)[alphas]
    grams[:, 0, :] = np.mod(grams[:, 0, :] * ainv[:, None], p)
    grams[:, :, 0] = np.mod(grams[:, :, 0] * ainv[:, None], p)
    return grams.astype(np.uint8)


def mc_step(grams, p, rng):
    """One walk step on every Gram in the batch.

    Each lane draws a uniform transvection t = I + vf (f projected so that
    f v = 0) and moves w to t^-T w t^-1 = w + u^T f - f^T u, u = v^T w.  A
    lane whose image equals w (t preserves w, or v or f is zero) draws
    again.
    """
    B, N, _ = grams.shape
    inv_table = mod_inverse_table(p)
    out = np.empty_like(grams)
    g32 = grams.astype(np.int32)
    pending = np.arange(B)
    while len(pending):
        m = len(pending)
        vv = rng.integers(0, p, size=(m, N)).astype(np.int32)
        ff = rng.integers(0, p, size=(m, N)).astype(np.int32)
        # project f onto the annihilator of v at v's first nonzero entry
        lane = np.arange(m)
        piv = np.argmax(vv != 0, axis=1)
        dot = (ff * vv).sum(axis=1) % p
        ff[lane, piv] = (ff[lane, piv] - dot * inv_table[vv[lane, piv]]) % p
        w = g32[pending]
        u = np.fmod(np.einsum("bi,bij->bj", vv, w), p)  # nonnegative: fmod is mod
        img = rank2_image(w, u, ff, p)
        accept = (img != w).any(axis=(1, 2))
        out[pending[accept]] = img[accept]
        pending = pending[~accept]
    return out


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
