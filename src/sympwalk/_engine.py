"""Vectorized prime-field kernels for chains, simulation and classification.

States are Grams over F_p, so p <= 256, and every kernel computes lanes
last, (N, N, B).  Kernels take and return (B, N, N) uint8 Grams or
lanes-last int32 arrays; the one exception is a Monte Carlo batch, a Lanes
object, which keeps its own layout from start to tally and gives out
Grams only for the distinct states it tallies (or through grams()).  At
odd p a kernel computes in int32, reduced with _mod, under a bound it
checks before it allocates (_check_int32).  At p = 2, Lanes,
batched_rank, batched_matmul and batched_matpoly bit-slice the lanes
instead: _pack holds 64 lanes in each uint64 word, bit l of word w being
lane 64 w + l, so a product is an AND, a sum an XOR, and no bound
applies.  They give what their int32 forms (_rank_int32, _matmul_int32,
_matpoly_int32 and Lanes with packed=False) do, which stay the odd-p path
and the test oracle.  A Monte Carlo step draws the values of
rng.integers(0, p, size=(lanes, N)): the int32 step calls it, and the
packed one reads the same values from the words of rng's PCG64
(_draw_f2).  No floating point.  A matrix over F_q, q = p^k, comes
realified: each entry c becomes the k x k block over F_p of multiplication
by c; ranks are k times those over F_q, and batched_charpoly gives the F_q
polynomial itself.  Not kernels: row_labels, the one way a batch of lanes
is keyed, gives dense labels to the columns of an (E, B) array for
Lanes.distinct, the classifier and chain building, and the brute-force
oracle, transvection_images, keeps int64 rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InternalError, StateSpaceTooLargeError


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
    """a b over F_2 on packed lanes (_matmul_words)."""
    return _unpack(_matmul_words(_pack(a), _pack(b)), a.shape[-1]).astype(np.int32)


def _matmul_words(a, b):
    """a b over F_2 for _pack words a, (M, K, W), and b, (K, N, W): an XOR
    over j of row j of b ANDed with column j of a."""
    prod = a[:, 0, None] & b[0]
    for j in range(1, a.shape[1]):
        prod ^= a[:, j, None] & b[j]
    return prod


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

class Lanes:
    """A Monte Carlo batch of B alternating Grams over F_p, held from start
    to tally in the layout its step runs on: packed (the default at p = 2)
    as _pack words, (N, N, W), else lanes last as uint8, (N, N, B).  Grams
    as a (B, N, N) uint8 batch come in through from_grams and go out through
    grams(), and distinct() tallies the batch without leaving the layout."""

    def __init__(self, data, B, p, packed):
        self.data, self.B, self.p, self.packed = data, B, p, packed

    @classmethod
    def from_grams(cls, grams, p, packed=None):
        """The (B, N, N) batch; packed=False at p = 2 gives the int32 oracle."""
        packed = p == 2 if packed is None else packed
        lanes = grams.transpose(1, 2, 0)
        return cls(_pack(lanes) if packed else np.ascontiguousarray(lanes), len(grams), p, packed)

    @classmethod
    def start(cls, starts, p, trials, rng):
        """Lane l starts at starts[a_l - 1], a = rng.integers(1, p, trials),
        from the (p - 1, N, N) twisted starts (walk._twisted_starts).  At
        p = 2 that draws nothing, so rng is not called."""
        if p == 2:
            ones = _pack(np.ones(trials, dtype=np.uint8))
            return cls(np.where(starts[0, :, :, None] == 1, ones, np.uint64(0)), trials, p, True)
        return cls.from_grams(starts[rng.integers(1, p, size=trials) - 1], p)

    def grams(self):
        """The batch as (B, N, N) uint8 Grams."""
        lanes = _unpack(self.data, self.B) if self.packed else self.data
        return np.ascontiguousarray(lanes.transpose(2, 0, 1))

    def step(self, rng):
        """One walk step on every lane: each draws a uniform transvection
        t = I + vf (f v = 0) and moves w to t^-T w t^-1 = w + u^T f - f^T u,
        u = v^T w, or, if u = 0 or f is in span(u), draws again.  For N >= 3
        every nonzero form has a move; a lane that stays after the first
        round and cannot move (the zero form, or any form if N < 3) is a
        ValueError, not an endless redraw.  Every round draws v, then f, as
        the values of rng.integers(0, p, size=(lanes, N)) for the lanes
        still pending: the int32 layout calls it, and the packed one reads
        the same values from rng's PCG64 words (_draw_f2; any other
        generator is an InternalError).  So a seed gives the same steps, and
        leaves rng at the same point, in either layout."""
        p, w = self.p, self.data
        if self.packed:
            return Lanes(_step_f2(w, self.B, rng), self.B, p, True)
        N = len(w)
        _check_int32(N, p, "steps")
        u, f, moves = _draw_moves(w, p, rng)
        pending = np.flatnonzero(~moves)
        if len(pending) and (N < 3 or not np.take(w, pending, axis=2).any(axis=(0, 1)).all()):
            raise ValueError(f"no transvection moves a {N} x {N} form of the batch")
        while len(pending):
            u_p, f_p, moves = _draw_moves(np.take(w, pending, axis=2), p, rng)
            u[:, pending], f[:, pending] = u_p, f_p  # kept from the round that moves the lane
            pending = pending[~moves]
        return Lanes(rank2_image(w, u, f, p).astype(np.uint8), self.B, p, False)

    def distinct(self):
        """Each distinct Gram of the batch, in row-byte order, and its
        multiplicity (_distinct)."""
        N = len(self.data)
        upper = self.data[np.triu_indices(N, 1)]
        return _distinct(_unpack(upper, self.B) if self.packed else upper, N, self.p)


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


def _draw_f2(rng, N, m):
    """rng.integers(0, 2, size=(m, N)) as (N, W) _pack words of m lanes,
    read from rng's PCG64 (_check_f2_draws).  integers(0, 2) is Lemire's
    method with range 2: one next_uint32 per value, never rejected, whose
    top bit is the value, and PCG64 serves the low, then the high half of
    each word.  So m N / 2 words (N = 2n), as (m, N) uint32, hold the
    values in their top bits and leave rng where integers() does."""
    halves = rng.bit_generator.random_raw(m * N // 2).view(np.uint32).reshape(m, N)
    return _pack(np.ascontiguousarray((halves >= 2 ** 31).T))


def _check_f2_draws(rng):
    """Raise InternalError unless _draw_f2 gives rng's integers(0, 2): its
    bit generator is a PCG64 with no buffered half, and _f2_words_are_draws."""
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64) or bits.state["has_uint32"] or not _f2_words_are_draws():
        raise InternalError(f"packed F_2 draws need a PCG64 with no buffered half, got {bits!r}")


@lru_cache(maxsize=None)
def _f2_words_are_draws():
    """Once per process: on a private PCG64, _draw_f2 gives the values of a
    twin's integers(0, 2) and leaves it at the twin's next word (this also
    fails on a big-endian host)."""
    rng, twin = (np.random.Generator(np.random.PCG64(2019)) for _ in range(2))
    bits = _unpack(_draw_f2(rng, 4, 65), 65)
    return bool((bits.T == twin.integers(0, 2, size=(65, 4))).all()
                and rng.bit_generator.random_raw() == twin.bit_generator.random_raw())


def _round_f2(w, v, f):
    """_draw_moves at p = 2 on _pack words, w (N, N, W), v and f (N, W):
    u = v^T w is an XOR of ANDs, f is projected by XOR at v's first set
    entry, and the row of u f^T - f u^T at u's first set entry is f, or
    f ^ u if f is set there, or 0 if u = 0.  Returns u, f and moves as
    words; a lane with v = 0 does not move."""
    u = np.bitwise_xor.reduce(v[:, None] & w, axis=0)
    v_first, _ = _first_set(v)
    f ^= v_first & np.bitwise_xor.reduce(v & f, axis=0)
    u_first, u_nonzero = _first_set(u)
    row = (u_nonzero & f) ^ (np.bitwise_or.reduce(u_first & f, axis=0) & u)
    return u, f, np.bitwise_or.reduce(row, axis=0)


def _step_f2(w, B, rng):
    """Lanes.step on the _pack words w of B lanes.  The first round runs on
    every word.  The lanes it leaves pending are unpacked once; each later
    round packs those still pending side by side, draws for them alone,
    writes the u and f of the lanes that moved over the first round's and
    drops those lanes.  The image w + u^T f - f^T u is formed once."""
    _check_f2_draws(rng)
    N = len(w)
    u, f, moves = _round_f2(w, _draw_f2(rng, N, B), _draw_f2(rng, N, B))
    lanes = np.flatnonzero(_unpack(moves, B) == 0)
    if len(lanes):
        w_left = np.take(_unpack(w, B), lanes, axis=-1)  # C order: w[..., lanes] lays the lanes out first
        if N < 3 or not np.bitwise_or.reduce(w_left.reshape(N * N, -1), axis=0).all():
            raise ValueError(f"no transvection moves a {N} x {N} form of the batch")
        uf = _unpack(np.stack((u, f)), B)
        while len(lanes):
            L = len(lanes)
            u_r, f_r, moves_r = _round_f2(_pack(w_left), _draw_f2(rng, N, L), _draw_f2(rng, N, L))
            moved = _unpack(moves_r, L).view(bool)
            go, stay = np.flatnonzero(moved), np.flatnonzero(~moved)
            uf[..., lanes[go]] = np.take(_unpack(np.stack((u_r, f_r)), L), go, axis=-1)
            lanes, w_left = lanes[stay], np.take(w_left, stay, axis=-1)
        u, f = _pack(uf)
    image = u[:, None] & f
    image ^= image.swapaxes(0, 1)
    image ^= w
    return image


_BINCOUNT_BITS = 16  # labels this wide or narrower are counted in a table
_TABLE = 2 ** 10  # row_labels' tables hold at least this many counts


def row_labels(cols, p):
    """Dense labels for the lanes of the (E, B) entries in [0, p).  Returns
    (rep, labels): an intp label per lane, 0, 1, ... in the order of the
    lanes' columns (first entry highest), equal exactly when the columns
    are equal, and one lane of each label.  Entry by entry the label
    becomes label p + entry, and it is made dense again before it would
    reach max(_TABLE, 2 B): through a table of counts (np.bincount), or,
    where even a dense label times p passes that at a large p, by
    np.unique with return_inverse.  So at p = 2 no sort runs: the first
    sort of a small run pages in 128-320 KB of numpy code, more than its
    arrays hold, and np.unique without return_index or return_inverse
    imports numpy.ma."""
    E, B = cols.shape
    bound = max(_TABLE, 2 * B)
    label, size = np.zeros(B, dtype=np.intp), 1  # every label is below size
    for entry in cols:
        if size * p > bound:
            label, size = _dense(label, size, bound)
        label *= p
        label += entry
        size *= p
    label, size = _dense(label, size, bound)
    rep = np.empty(size, dtype=np.intp)
    rep[label] = np.arange(B)
    return rep, label


def _dense(label, size, bound):
    """The labels below size renumbered 0, 1, ... in their order, and how many."""
    if size > bound:
        met, label = np.unique(label, return_inverse=True)
        return label, len(met)
    met = np.bincount(label) > 0
    return (np.cumsum(met) - 1)[label], int(met.sum())


def _distinct(upper, N, p):
    """Each distinct alternating N x N Gram and its multiplicity, from the
    (E, B) entries of the strict upper triangles, which fix the Grams, taken
    row by row, in row-byte order.  Where a lane's entries fit
    _BINCOUNT_BITS bits, (p-1).bit_length() each, first entry highest, the
    label they form is counted by np.bincount and the Grams are decoded
    from the labels met; otherwise the lanes are labelled by row_labels."""
    E, B = upper.shape
    bits = (p - 1).bit_length()
    if E * bits <= _BINCOUNT_BITS:
        label = np.zeros(B, dtype=np.intp)
        for entry in upper:
            label <<= bits
            label |= entry
        counts = np.bincount(label)
        label = np.flatnonzero(counts)
        counts = counts[label]
        upper = label >> (bits * np.arange(E - 1, -1, -1))[:, None] & (1 << bits) - 1
    else:
        lanes, label = row_labels(upper, p)
        counts = np.bincount(label)
        upper = upper[:, lanes]
    states = np.zeros((len(counts), N, N), dtype=np.uint8)
    rows, cols = np.triu_indices(N, 1)
    states[:, rows, cols] = upper.T
    states[:, cols, rows] = (p - upper.T) % p
    return states, counts


def batched_charpoly(x, p, k):
    """det(xI - X) over F_q, q = p^k, of every realified X of the lanes-last
    (Nk, Nk, B) batch, as (N + 1, k, B) digits, highest degree first.
    Division-free (Berkowitz), so it runs over the ring of k x k blocks: the
    charpoly of the leading i+1 block rows, as digits, is a Toeplitz column
    of blocks times that of the leading i (block(c) digits(d) = digits(cd))."""
    Nk, _, B = x.shape
    _check_int32(Nk, p, "characteristic polynomials")  # the Toeplitz step sums N k products
    v = np.eye(k, 1, dtype=np.int32)[None].repeat(B, axis=2)  # the empty leading block: 1
    for i in range(Nk // k):
        a, b = i * k, i * k + k
        R, w, sub = x[a:b, :a], x[:a, a:b], x[:a, :a]
        col = np.empty((i + 2, k, k, B), dtype=np.int32)
        col[0] = np.eye(k, dtype=np.int32)[:, :, None]
        col[1] = -x[a:b, a:b]
        for j in range(i):
            if j:
                w = _mod(np.einsum("ijb,jkb->ikb", sub, w), p)
            col[j + 2] = -np.einsum("ijb,jkb->ikb", R, w)
        _mod(col, p)
        new_v = np.zeros((i + 2, k, B), dtype=np.int32)
        for j in range(i + 1):
            for c in range(k):
                new_v[j:] += col[: i + 2 - j, :, c] * v[j, c]
        v = _mod(new_v, p)
    return v


def batched_matpoly(x, coeff_blocks, p):
    """f(X) mod p at every realified X of the lanes-last (Nk, Nk, B) batch,
    for f of degree >= 1, by Horner's rule.  coeff_blocks, (deg f + 1, k, k),
    holds the multiplication blocks of f's coefficients, highest degree
    first; each is added on the block diagonal.  Returns int32."""
    return _matpoly_f2(x, coeff_blocks) if p == 2 else _matpoly_int32(x, coeff_blocks, p)


def _matpoly_int32(x, coeff_blocks, p):
    Nk = len(x)
    _check_int32(Nk, p, "polynomial evaluation")
    k = coeff_blocks.shape[1]
    rows, cols = _block_diagonal(Nk, k)
    lead, x_rows = coeff_blocks[0], x.reshape(Nk // k, k, *x.shape[1:])
    acc = sum((lead[:, j, None, None] * x_rows[:, j, None] for j in range(1, k)),
              lead[:, 0, None, None] * x_rows[:, 0, None]).reshape(x.shape)  # the leading block times X
    for i, c in enumerate(coeff_blocks[1:]):
        if i:
            acc = _matmul_int32(acc, x, p)
        acc[rows, cols] += c[:, :, None]
        _mod(acc, p)
    return acc


def _matpoly_f2(x, coeff_blocks):
    """batched_matpoly on packed lanes: X is packed once, the accumulator
    stays packed through every Horner step, and each coefficient block is
    XORed onto the block diagonal as all-ones or zero words."""
    Nk, k = len(x), coeff_blocks.shape[1]
    rows, cols = _block_diagonal(Nk, k)
    x_w = _pack(x)
    masks = np.where(coeff_blocks[..., None] & 1, ~np.uint64(0), np.uint64(0))  # (deg f + 1, k, k, 1)
    x_rows = x_w.reshape(Nk // k, 1, k, Nk, x_w.shape[-1])
    acc = np.bitwise_xor.reduce(masks[0][:, :, None] & x_rows, axis=2).reshape(x_w.shape)  # the leading block times X
    for i, c in enumerate(masks[1:]):
        if i:
            acc = _matmul_words(acc, x_w)
        acc[rows, cols] ^= c
    return _unpack(acc, x.shape[-1]).astype(np.int32)


@lru_cache(maxsize=None)
def _block_diagonal(Nk, k):
    """Row and column indices, (Nk / k, k, k) each, of the k x k diagonal blocks."""
    first = np.arange(0, Nk, k)[:, None, None]
    return first + np.arange(k)[:, None], first + np.arange(k)
