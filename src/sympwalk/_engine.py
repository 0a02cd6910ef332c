"""Vectorized prime-field helpers for chain building and simulation.

States are Gram matrices over F_p held as (S, N, N) uint8 arrays, so the
Monte Carlo drivers admit only p <= 256.  Exact chains key states by
base-p digit packing into int64, under the budget of _check_packable;
Monte Carlo deduplicates states by their raw row bytes and needs no key.
Matrix products run in float64 on entries < p, so results are exact
integers before reduction mod p.  The largest intermediate is the
unreduced double product in mc_step, at most N^2 p^3, which is below
2^53 for p <= 256 and any N below 2^14.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError, StateSpaceTooLargeError


def _check_packable(dim, p):
    # keys must be exact both as int64 and as float64 dot products
    if dim * dim * np.log2(p) > 52:
        raise StateSpaceTooLargeError("state keys do not fit exactly in float64")


def pack_keys(states, p):
    S, N, _ = states.shape
    digits = states.reshape(S, N * N).astype(np.int64)
    powers = p ** np.arange(N * N, dtype=np.int64)
    return digits @ powers


def _pack_float(states_f, p):
    """Keys of a float64 state batch; exact because p^(N^2) < 2^53."""
    B = states_f.shape[0]
    flat = states_f.reshape(B, -1)
    powers = np.float64(p) ** np.arange(flat.shape[1], dtype=np.float64)
    return (flat @ powers).astype(np.int64)


def unpack_keys_array(keys, dim, p):
    """Decode int64 keys back to (K, dim, dim) float64 state matrices."""
    nn = dim * dim
    powers = p ** np.arange(nn, dtype=np.int64)
    digits = (np.asarray(keys, dtype=np.int64)[:, None] // powers[None, :]) % p
    return digits.reshape(-1, dim, dim).astype(np.float64)


def _congruence_f(states_f, m_f, p):
    """(m^T w m) mod p for every float64 Gram matrix w in the batch."""
    return np.mod((m_f.T @ states_f) @ m_f, p)


def enumerate_closure(seeds, moves, p, cap):
    """BFS closure of the seed Grams under congruence by the given moves.

    Works key-first: per round only int64 keys are retained, and frontier
    matrices are decoded from keys, keeping memory at O(|moves| * frontier)
    words.  Returns the sorted key array.
    """
    dim = seeds.shape[1]
    _check_packable(dim, p)
    moves_f = [m.astype(np.float64) for m in moves]
    keys_sorted = np.unique(pack_keys(seeds, p))
    frontier = seeds.astype(np.float64)
    while len(frontier):
        cand = np.unique(
            np.concatenate(
                [_pack_float(_congruence_f(frontier, m, p), p) for m in moves_f]
            )
        )
        pos = np.searchsorted(keys_sorted, cand)
        pos_clip = np.minimum(pos, len(keys_sorted) - 1)
        new = cand[keys_sorted[pos_clip] != cand]
        if not len(new):
            break
        keys_sorted = np.sort(np.concatenate([keys_sorted, new]))
        if len(keys_sorted) > cap:
            raise StateSpaceTooLargeError(
                f"closure exceeded cap {cap} (at {len(keys_sorted)} states)"
            )
        frontier = unpack_keys_array(new, dim, p)
    return keys_sorted


def move_permutations(keys_sorted, dim, moves, p, max_entries=2 * 10 ** 8):
    """Index permutation of the state list under each congruence move."""
    S = len(keys_sorted)
    if len(moves) * S > max_entries // 4:
        raise StateSpaceTooLargeError("permutation table would be too large")
    states_f = unpack_keys_array(keys_sorted, dim, p)
    perms = []
    for m in moves:
        keys = _pack_float(_congruence_f(states_f, m.astype(np.float64), p), p)
        perm = np.searchsorted(keys_sorted, keys)
        if not (keys_sorted[perm] == keys).all():
            raise InternalError("congruence image left the enumerated state set")
        perms.append(perm.astype(np.int32))
    return perms


def lump_transition_counts(perms, lump_of, n_lumps):
    """Exact integer counts of moving transitions into each lump.

    counts[i, L] = number of moves t with perm_t(i) != i landing in lump L;
    moved[i] = number of moves displacing state i.
    """
    S = len(lump_of)
    lump_of = np.asarray(lump_of, dtype=np.int64)
    counts = np.zeros(S * n_lumps, dtype=np.int64)
    moved = np.zeros(S, dtype=np.int64)
    src = np.arange(S, dtype=np.int64)
    for perm in perms:
        m = perm != src
        flat = src[m] * n_lumps + lump_of[perm[m]]
        counts += np.bincount(flat, minlength=S * n_lumps)
        moved += m
    return counts.reshape(S, n_lumps), moved


def reachable_from(perms, start_index, n_states):
    """States reachable from start_index under the given permutations."""
    seen = np.zeros(n_states, dtype=bool)
    seen[start_index] = True
    frontier = np.array([start_index], dtype=np.int64)
    while len(frontier):
        nxt = np.unique(np.concatenate([perm[frontier] for perm in perms]))
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt
    return np.nonzero(seen)[0]


def batched_rank(mats, p, inv_table):
    """Rank over F_p of every matrix in the (B, M, N) batch."""
    a = np.mod(mats.astype(np.int64), p)
    B, M, N = a.shape
    inv_table = np.asarray(inv_table, dtype=np.int64)
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
        # swap rows pr <-> piv
        tmp = a[lanes, pr, :].copy()
        a[lanes, pr, :] = a[lanes, piv, :]
        a[lanes, piv, :] = tmp
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


def mod_inverse_table(p):
    table = np.zeros(p, dtype=np.int64)
    for x in range(1, p):
        table[x] = pow(x, p - 2, p)
    return table


# ---------------------------------------------------------------------------
# Monte Carlo stepping
# ---------------------------------------------------------------------------

def initial_grams(j_mat, p, trials, rng, inv_table):
    """D-randomized starts: row/column 0 of J scaled by a uniform unit."""
    N = j_mat.shape[0]
    grams = np.broadcast_to(j_mat.astype(np.int64), (trials, N, N)).copy()
    alphas = rng.integers(1, p, size=trials)
    ainv = inv_table[alphas]
    grams[:, 0, :] = np.mod(grams[:, 0, :] * ainv[:, None], p)
    grams[:, :, 0] = np.mod(grams[:, :, 0] * ainv[:, None], p)
    return grams.astype(np.uint8)


def mc_step(grams, p, rng, inv_table):
    """One walk step on every Gram in the batch.

    Samples a uniform transvection t = I + vf not preserving the lane's
    form (rejection over lanes), then applies w -> t^-T w t^-1 with
    t^-1 = I - vf.
    """
    B, N, _ = grams.shape
    v_out = np.zeros((B, N), dtype=np.int64)
    f_out = np.zeros((B, N), dtype=np.int64)
    pending = np.arange(B)
    g64 = grams.astype(np.int64)
    while len(pending):
        m = len(pending)
        vv = rng.integers(0, p, size=(m, N))
        gg = rng.integers(0, p, size=(m, N))
        v_ok = vv.any(axis=1)
        piv = np.argmax(vv != 0, axis=1)
        lane = np.arange(m)
        vpiv = vv[lane, piv]
        vpiv_safe = np.where(vpiv == 0, 1, vpiv)
        dot = np.mod((gg * vv).sum(axis=1), p)
        coef = np.mod(dot * inv_table[vpiv_safe], p)
        ff = gg.copy()
        ff[lane, piv] = np.mod(ff[lane, piv] - coef, p)
        f_ok = ff.any(axis=1)
        # preservation test: f proportional to w = v^T Omega
        w = np.mod(np.einsum("bi,bij->bj", vv, g64[pending]), p)
        wpiv = np.argmax(w != 0, axis=1)
        wval = w[lane, wpiv]
        wval_safe = np.where(wval == 0, 1, wval)
        c = np.mod(ff[lane, wpiv] * inv_table[wval_safe], p)
        preserves = (np.mod(c[:, None] * w, p) == ff).all(axis=1)
        accept = v_ok & f_ok & ~preserves
        idx = pending[accept]
        v_out[idx] = vv[accept]
        f_out[idx] = ff[accept]
        pending = pending[~accept]
    eye = np.eye(N, dtype=np.int64)[None]
    t_inv = np.mod(eye - v_out[:, :, None] * f_out[:, None, :], p).astype(np.float64)
    g = grams.astype(np.float64)
    out = np.mod(np.matmul(np.matmul(t_inv.transpose(0, 2, 1), g), t_inv), p)
    return out.astype(np.uint8)


def batched_charpoly(mats, p):
    """Characteristic polynomial coefficients mod p for every matrix.

    Division-free (Berkowitz) with reduction mod p after every product, so
    float64 intermediates stay tiny and exact.  Returns (S, N+1) int64
    coefficients of det(xI - M), highest degree first.
    """
    S, N, _ = mats.shape
    m = np.mod(mats.astype(np.float64), p)
    v = np.zeros((S, 2))
    v[:, 0] = 1
    v[:, 1] = np.mod(-m[:, 0, 0], p)
    for k in range(1, N):
        a = m[:, k, k]
        R = m[:, k, :k]
        C = m[:, :k, k]
        sub = m[:, :k, :k]
        col = np.zeros((S, k + 2))
        col[:, 0] = 1
        col[:, 1] = np.mod(-a, p)
        w = C.copy()
        for j in range(k):
            if j > 0:
                w = np.mod(np.einsum("sij,sj->si", sub, w), p)
            col[:, j + 2] = np.mod(-(R * w).sum(axis=1), p)
        new_v = np.zeros((S, k + 2))
        for i in range(k + 2):
            acc = np.zeros(S)
            for j in range(min(i, k) + 1):
                if i - j < k + 2:
                    acc += col[:, i - j] * v[:, j]
            new_v[:, i] = np.mod(acc, p)
        v = new_v
    return v.astype(np.int64)


def batched_matpoly(mats, coeffs_desc, p):
    """Evaluate a polynomial (descending int coefficients) at each matrix."""
    S, N, _ = mats.shape
    m = mats.astype(np.float64)
    eye = np.eye(N)[None]
    acc = np.zeros((S, N, N))
    for c in coeffs_desc:
        acc = np.mod(np.matmul(acc, m), p)
        if c:
            acc = np.mod(acc + c * eye, p)
    return acc.astype(np.int64)


def batched_matmul_mod(a, b, p):
    out = np.matmul(a.astype(np.float64), b.astype(np.float64))
    return np.mod(out, p).astype(np.int64)
