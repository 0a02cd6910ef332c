"""The walk on symplectic forms: simulation, classification, exact chains.

One step of the walk picks a transvection t uniformly among those not
fixing the current Gram w and replaces w by t^-T w t^-1.  Start
randomization applies a single diagonal twist diag(alpha, 1, ..., 1) with
alpha uniform in F_q^*.  Every production path holds the forms as batched
uint8 Grams and steps, lists and labels them with the _engine kernels.

The double-coset classifier maps a form w to the class label of a
half-size matrix: X = J^-1 w is conjugate to diag(M, M^T), so its
per-factor block partitions have even multiplicities and halve to the
label mu of weight n.  Its characteristic polynomial over F_q is the
square of M's, so the classifier factors that square root, and a factor's
multiplicity there is its weight in mu before any rank is taken: a factor
of weight 1 has partition (1) unranked, and the powers of the others are
ranked only while their partition is open.  One rule serves every F_q.

Exact chains are built on the lumps, the double cosets, and never on the
full form space: each lumped row is read off the distinct images of one
representative form, listed from the 2-planes isotropic for it, so the
work grows with the number of lumps, not of forms.  Over F_(p^k) the
states are realified over F_p, so every field takes the same kernels.
They give exact rational transition matrices,
stationary distributions and total-variation curves.

Oracles kept on purpose, which no production path calls but as named:
- _classify_X, on linalg.class_invariant: the pure-Python classifier that
  the batched one must match (support_violations cross-checks a subsample
  of its rank criterion with class_invariant);
- the group lift: group_walk_step draws from the bi-Sp-invariant walk on
  GL_2n, and double_coset_key and classify_double_coset label a group
  element g via X = J^-1 g^T J g;
- ChainModel.full_tv_curve_bruteforce: TV curves by enumerating every
  form under the congruences by every transvection, on small spaces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _engine
from .combinat import (
    PartitionFn,
    check_enumeration_cap,
    class_size_qsq,
    coset_space_size,
    enumerate_partition_fns,
    multiplicities,
)
from .errors import (
    InternalError,
    OddMultiplicityError,
    StateSpaceTooLargeError,
    StepRangeTooLargeError,
    int_text,
)
from .field import FieldSpec, PolyFq, field_from_order
from .linalg import (
    MatFq,
    Transvection,
    all_transvections,
    class_invariant,
    factor_poly,
    is_form_preserving,
    partition_from_rank_sequence,
    sample_symplectic,
    standard_J,
    symplectic_transvection_count,
    transvection_count,
)

DEFAULT_STATE_CAP = 2 * 10 ** 5
# tv_curve(k_max) reduces two Fractions a row whose sizes grow by the bit
# length b of move_count a step, so its work grows as k_max^3 b^2: about
# 1.2 ns a unit for the chain CLI at (2,2)-(2,5), k_max 1000-4000, on a
# 2-CPU host.  TV_WORK_MAX is about 10 s of it.
TV_WORK_MAX = 8 * 10 ** 12
FULL_MATRIX_CAP = 600
SUPPORT_CLASSIFY_SAMPLE = 50  # trials of support_violations checked by class_invariant
CLASSIFY_LANES = 2 ** 12  # states per classifier slice; bounds its f(X)^j arrays
MC_CHUNK = 250_000  # Monte Carlo trials stepped, then classified, together
# monte_carlo_curve at (2,2) on a 2-CPU host costs about 85-92 ns a
# lane-step (one trial stepped and tallied once) at 2.5-5 10^5 trials, and
# about 0.45-0.53 ms per step of a chunk of 10 trials (3,000-6,000 steps).
# MC_STEP_COST_LANES = 5,500 lane-steps is that ratio, so a run admitted at
# MC_WORK_MAX takes about 9 s in either regime.  At odd p the int32 step
# costs 200-300 ns a lane-step against 60-80 ns at p = 2 ((2,3) against
# (2,2) at 5 10^5 trials), so MC_ODD_P_LANE_COST prices it as 4 lane-steps;
# a chunk step costs about the same at every p.  Where nearly every state
# is new the classifier makes a lane-step cost more: about 0.9-1.3 us at
# (4,2), 1.4 us at (3,3) and 3-4 us at (4,3).
MC_STEP_COST_LANES = 5_500
MC_ODD_P_LANE_COST = 4
MC_WORK_MAX = 10 ** 8


def _resolve_field(field_or_q):
    if isinstance(field_or_q, FieldSpec):
        return field_or_q
    return field_from_order(int(field_or_q))


def _check_byte_codes(field):
    """Batched states hold one byte per entry; fields stay within q <= 256."""
    if field.q > 256:
        raise StateSpaceTooLargeError(f"states are stored as uint8; q = {field.q} exceeds 256")


@lru_cache(maxsize=None)
def _mul_blocks(field):
    """(q, k, k) int32, read-only: the matrix over F_p of multiplication by
    each code c of F_q, q = p^k; column j holds the digits of c theta^j."""
    powers = [field.p ** j for j in range(field.k)]
    digits = [[field.decode(field.mul(c, t)) for t in powers] for c in range(field.q)]
    blocks = np.ascontiguousarray(np.array(digits, dtype=np.int32).transpose(0, 2, 1))
    blocks.flags.writeable = False
    return blocks


def _realify(codes, field):
    """A (..., R, C) array of F_q codes over F_p, each entry c replaced by its
    k x k multiplication block: (..., R k, C k) int32.  The identity at k = 1.
    It is a ring map, but it does not commute with transposing."""
    blocks = _mul_blocks(field)[np.asarray(codes)]
    *lead, R, C, k, _ = blocks.shape
    return blocks.swapaxes(-3, -2).reshape(*lead, R * k, C * k)


def _initial_gram(n, field, alpha) -> MatFq:
    """The base form J twisted by diag(alpha, 1, ..., 1): the start of the
    walk in the Pfaffian sector of alpha."""
    J = standard_J(n, field)
    ainv = field.inv(alpha)
    h_inv = MatFq.diagonal(field, [ainv] + [1] * (2 * n - 1))
    return h_inv.transpose() * J * h_inv


def _twisted_starts(n, field):
    """The twisted starts, alpha = 1..q-1 (J first), realified: (q - 1, 2nk, 2nk) uint8."""
    return _realify([_initial_gram(n, field, a).to_lists() for a in range(1, field.q)], field).astype(np.uint8)


# ---------------------------------------------------------------------------
# Double-coset classification
# ---------------------------------------------------------------------------

def _key_type_from_pairs(pairs):
    """Halve block multiplicities and build (complete key, type label).

    pairs: (irreducible PolyFq, full partition) per factor of X ~
    diag(M, M^T); every part multiplicity must be even.
    """
    entries = []
    for f, lam in sorted(pairs, key=lambda e: (e[0].degree, e[0].coeffs)):
        halves = []
        for part, m in sorted(multiplicities(lam).items(), reverse=True):
            if m % 2:
                raise OddMultiplicityError(
                    f"odd multiplicity of part {part} in {lam} at factor {f}"
                )
            halves.extend([part] * (m // 2))
        if halves:
            entries.append((f, tuple(sorted(halves, reverse=True))))
    key = tuple((f.coeffs, lam) for f, lam in entries)
    typ = PartitionFn.make([(f.degree, lam) for f, lam in entries])
    return key, typ


def _classify_X(X):
    """Complete key and type label from X ~ diag(M, M^T)."""
    return _key_type_from_pairs(class_invariant(X).entries)


def _classify_states_batched(states_np, n, field, factored):
    """Label ids for a batch of realified states, vectorized.

    Returns (labels, ids): the distinct (complete key, type) labels, and an
    intp array with one id per state, indexing them; each state's label is
    the one _classify_X gives it.  The states are taken in slices of
    CLASSIFY_LANES, each state checked to be an alternating form.  In each
    slice the lanes are grouped by the characteristic polynomial chi over
    F_q of X = J^-1 w (_engine.row_labels on its digits).  As
    X ~ diag(M, M^T), chi is a square: each chi not yet in factored (the
    caller's dict, filled here) has its square root taken (_square_root
    refuses a chi that is not one) and factored, multiplicities doubled.
    _job_lanes lists one job-lane per lane and factor that needs ranks,
    those of a factor together, and they are taken in plain slices of
    CLASSIFY_LANES, so the f(X)^j arrays stay bounded whatever the batch
    and the factor counts: f(X) once per distinct factor of a slice, then
    the ranks of its powers while its partition is open (_rank_sequences).
    Each lane's group and rank sequences form one column of a pattern
    array, labelled by row_labels again, and _label_from_ranks runs once
    per distinct pattern.  A (polynomial, rank pattern) fixes the key and
    the key fixes the pattern, so equal ids mean equal keys.
    """
    p, k, N = field.p, field.k, 2 * n
    index = {}  # (complete key, type) -> id
    ids = np.empty(len(states_np), dtype=np.intp)
    for start in range(0, len(states_np), CLASSIFY_LANES):
        states = states_np[start:start + CLASSIFY_LANES]
        _check_alternating(states, p, k)
        x = _engine.j_inv_times(states, p)
        cps = _engine.batched_charpoly(x, p, k)
        rep, group = _engine.row_labels(cps.reshape(-1, len(states)), p)
        polys = [tuple(cp) for cp in np.einsum("ikb,k->bi", cps[..., rep], p ** np.arange(k)).tolist()]  # codes
        for cp in polys:
            if cp not in factored:
                factored[cp] = [(f, 2 * m) for f, m in factor_poly(_square_root(cp, field))]
        factors, (lane, fid, *jobs), patterns = _job_lanes(group, polys, factored, N)
        blocks = [_mul_blocks(field)[list(reversed(f.coeffs))] for f in factors]
        for at in range(0, len(lane), CLASSIFY_LANES):
            chunk = slice(at, at + CLASSIFY_LANES)
            lanes, fids = lane[chunk], fid[chunk]
            cuts = [0, *(np.flatnonzero(np.diff(fids)) + 1).tolist(), len(fids)]  # one segment per factor
            fx = np.concatenate([
                _engine.batched_matpoly(np.take(x, lanes[a:b], axis=-1), blocks[fids[a]], p) for a, b in zip(cuts, cuts[1:])
            ], axis=2)
            if at + CLASSIFY_LANES >= len(lane):
                del x  # every f(X) is evaluated: X need not outlive the ranks
            _rank_sequences(fx, (lanes, *(column[chunk] for column in jobs)), patterns, field)
        rep, pattern = _engine.row_labels(patterns, max(len(polys), N + 2))
        found = [index.setdefault(_label_from_ranks(factored[polys[g]], seq, N), len(index))
                 for g, *seq in patterns[:, rep].T.tolist()]
        ids[start:start + len(states)] = np.array(found, dtype=np.intp)[pattern]
    return list(index), ids


def _check_alternating(states, p, k):
    """InternalError unless every realified state w is alternating over F_q:
    block (i, j) is minus block (j, i) and the diagonal blocks are zero.  The
    rank stops rely on X ~ diag(M, M^T), which w + e_1 e_1^T breaks."""
    w = states.reshape(len(states), -1, k, states.shape[1] // k, k)  # w[:, i, :, j] is block (i, j)
    neg = w if p == 2 else (p - w) % p
    if not np.array_equal(w.transpose(0, 3, 2, 1, 4), neg) or np.diagonal(w, axis1=1, axis2=3).any():
        raise InternalError("a state to classify is not an alternating form")


def _square_root(cp, field):
    """The monic PolyFq r over F_q with r^2 = cp, a coefficient tuple with
    the highest degree first; InternalError, naming cp, where cp is no
    square.  At p = 2 r's coefficients are the inverse Frobenius c^(q/2) of
    cp's even ones, at odd p solved for from the top down; either way r is
    checked by squaring."""
    D = (len(cp) - 1) // 2
    if field.p == 2:
        r = [field.pow(c, field.q // 2) for c in cp[:2 * D + 1:2]]
    else:
        r, half = [1], (field.p + 1) // 2
        for i in range(1, D + 1):
            r.append(field.mul(field.add(cp[i], field.neg(field.dot(r[1:i], r[i - 1:0:-1]))), half))
    root = PolyFq(field, r[::-1])
    if (root * root).coeffs != cp[::-1]:
        raise InternalError(f"the characteristic polynomial {PolyFq(field, cp[::-1])} is not a square")
    return root


def _job_lanes(group, polys, factored, N):
    """The job-lanes of a slice and its pattern array before any rank.

    Returns the factors to rank; five aligned intp arrays, one job-lane per
    lane and factor f of multiplicity m = 2w > 2 of the lane's polynomial
    polys[group[lane]], w the weight of f in mu: the lane, f's index in the
    factors, m, the floor N - deg(f) m and the first pattern row of f's
    rank sequence (1 plus the multiplicities of the factors before f); and
    the patterns, row 0 the group, the rank rows N + 1 (not ranked).  A
    factor of weight 1 has partition (1), so it gets no job-lane, and its
    one rank, N - 2 deg(f), is written here.  The job-lanes are ordered by
    factor, each in lane order."""
    factors = list(dict.fromkeys(f for cp in polys for f, m in factored[cp] if m > 2))
    fids = {f: i for i, f in enumerate(factors)}
    table = np.zeros((3, len(polys), len(factors)), dtype=np.intp)  # m, floor, first row; m = 0 unranked
    patterns = np.full((N + 1, len(polys)), N + 1, dtype=np.intp)
    patterns[0] = np.arange(len(polys))
    for g, cp in enumerate(polys):
        row = 1
        for f, m in factored[cp]:
            if m > 2:
                table[:, g, fids[f]] = m, N - f.degree * m, row
            else:
                patterns[row, g] = N - 2 * f.degree
            row += m
    fid, lane = np.nonzero((table[0] > 0)[group].T)  # factor by factor, lanes ascending
    return factors, (lane, fid, *table[:, group[lane], fid]), np.take(patterns, group, axis=1)


def _rank_sequences(fx, jobs, patterns, field):
    """rank f(X)^j over F_q, j = 1, 2, ..., of each job-lane (lane, m,
    floor, first) of the stacked realified f(X), whose rank over F_p is k
    times it, written to patterns[first + j - 1, lane], with one
    batched_rank call per power j over every job-lane still going.

    A column of height c of M's partition at f lowers the rank by c drop,
    drop = 2 deg(f) = 2 (N - floor) / m, and rank - floor is drop times
    the boxes left.  A job-lane stops at j = m, or once its rank is within
    drop of the floor or of the rank at the previous power (r_0 = N): at
    most one box is left, or the last column held at most one.  The rest
    of its partition is then (rank - floor) / drop columns of height 1,
    whose ranks, falling by drop a power down to the floor, are written as
    if ranked, so the patterns are those of ranking every power.  Rows
    past the floor keep the sentinel N + 1."""
    p, k, N = field.p, field.k, len(fx) // field.k
    lane, mult, floor, first = jobs
    drop = 2 * (N - floor) // mult
    going = np.arange(len(lane))  # the job-lanes still going
    last = np.full(len(lane), N)  # their rank at the previous power
    powers = fx  # f(X)^j of the job-lanes going
    for j in range(1, mult.max() + 1):
        rank = _engine.batched_rank(powers, p) // k
        rows, cols, step, low = first[going] + j - 1, lane[going], drop[going], floor[going]
        patterns[rows, cols] = rank
        keep = (j < mult[going]) & (rank - low > step) & (last - rank > step)
        i = 1
        while (tail := ~keep & (rank - i * step >= low)).any():
            patterns[rows[tail] + i, cols[tail]] = rank[tail] - i * step[tail]
            i += 1
        if not keep.any():
            return
        going, last = going[keep], rank[keep]
        powers = _engine.batched_matmul(np.compress(keep, powers, axis=-1), np.take(fx, going, axis=-1), p)


def _label_from_ranks(factors, seq, N):
    """(complete key, type) from the rank sequences of all factors of X's
    polynomial, in order, m entries for a factor of multiplicity m, as
    _job_lanes and _rank_sequences write them (ranks known without a
    batched_rank call included); the sentinel N + 1 marks a power past the
    floor, whose rank is the floor.  Each partition must have weight m."""
    pairs = []
    at = 0
    for f, mult in factors:
        lam = partition_from_rank_sequence([N, *(r for r in seq[at:at + mult] if r <= N)], f.degree)
        if sum(lam) != mult:
            raise InternalError("batched partition weight disagrees with the factor multiplicity")
        pairs.append((f, lam))
        at += mult
    return _key_type_from_pairs(pairs)


def _classify_g(g):
    """(key, type) of a group element g of GL_2n, via X = J^-1 g^T J g."""
    J = standard_J(g.nrows // 2, g.field)
    return _classify_X(J.inverse() * g.transpose() * J * g)


def double_coset_key(g):
    """Complete double-coset invariant: ((poly coeffs, partition), ...)."""
    return _classify_g(g)[0]


def classify_double_coset(g) -> PartitionFn:
    """Type label mu (weight n) of the double coset Sp g Sp of g."""
    return _classify_g(g)[1]


def stationary_type_distribution(n, q):
    """Stationary mass per type label: count * |coset| / |form space|; the
    labels first, so that the enumeration cap comes before |GL_2n|."""
    labels = enumerate_partition_fns(n, q)
    denom = coset_space_size(n, q)
    return {fn: Fraction(cnt * class_size_qsq(fn, q), denom) for fn, cnt in labels}


# ---------------------------------------------------------------------------
# Group-level walk helpers
# ---------------------------------------------------------------------------

def _check_walk_n(n):
    """The walk moves forms only from n = 2 on."""
    if n < 2:
        raise ValueError(
            f"need n >= 2, got {n}: for n = 1 every transvection of GL_2 is symplectic"
        )


def nonsymplectic_representative(n, field) -> MatFq:
    """The fixed non-symplectic transvection I + e_1 (e_(n+2)^T J)."""
    _check_walk_n(n)
    J = standard_J(n, field)
    v = tuple(1 if i == 0 else 0 for i in range(2 * n))
    f = J.rows[n + 1]
    m = Transvection(field, v, f).matrix()
    if is_form_preserving(m, J):
        raise InternalError("representative unexpectedly symplectic")
    return m


def group_walk_step(g: MatFq, rng) -> MatFq:
    """g . (k1 . t . k2): a uniform draw from the generating double coset.

    Fibers (k1, k2) over each coset element have constant size, so the
    product is uniform over the coset.
    """
    n = g.nrows // 2
    field = g.field
    rep = nonsymplectic_representative(n, field)
    k1 = sample_symplectic(n, field, rng)
    k2 = sample_symplectic(n, field, rng)
    return g * (k1 * rep * k2)


# ---------------------------------------------------------------------------
# Exact chains
# ---------------------------------------------------------------------------

@dataclass
class ChainModel:
    """Exact chain on the forms, lumped by double coset, in integers:
    counts[i][j] moves take a form of lump i into lump j (rows sum to
    move_count); starts[a - 1] is the lump of the alpha = a twisted start.

    Built by exact_form_chain.  full_tv_curve_bruteforce is the independent
    oracle: it enumerates the form space and evolves the unlumped law.
    """

    n: int
    q: int
    field: FieldSpec
    num_states: int
    move_count: int
    lump_keys: list
    lump_types: list
    lump_sizes: list
    counts: list
    sector_lumps: tuple
    starts: tuple
    typed_lumping_ok: bool

    @property
    def num_lumps(self):
        return len(self.lump_sizes)

    @property
    def lumped_transition(self):
        """counts / move_count."""
        return [[Fraction(c, self.move_count) for c in row] for row in self.counts]

    @property
    def stationary(self):
        """The lumped uniform law."""
        return [Fraction(size, self.num_states) for size in self.lump_sizes]

    def tv_curve(self, k_max):
        """Exact TV to stationarity, rows (k, tv_full, tv_lumped) for
        k = 0..k_max, off one evolution nu_k = nu_0 counts^k, nu_0 the
        twisted starts per lump: the lumped k-step law is
        nu_k / ((q-1) move_count^k).

        tv_full is the distance on the full form space.  The k-step law is
        the mean over units alpha of the alpha-twist of the law m_k from J,
        the twist maps J's sector onto alpha's and m_k is uniform on each
        lump, so tv_full = 1/2 sum over sector lumps |m_k(L) - (q-1)|L|/S|.
        There m_k = nu_k / move_count^k: the sector is closed under the
        walk, and it holds no other start (else an InternalError).

        tv_lumped is a data-processing lower bound for tv_full, equal to it
        when the start law is uniform on each lump (as at q = 2).
        """
        check_tv_work(self.n, self.q, k_max)
        S, q, sizes = self.num_states, self.q, self.lump_sizes
        if [i in self.sector_lumps for i in self.starts] != [True] + [False] * (q - 2):
            raise InternalError("J's sector must hold J's twisted start and no other")
        rows = []
        for k, nu in enumerate(self._evolve(self._start(), k_max)):
            D = self.move_count ** k
            tv_full = Fraction(
                sum(abs(nu[i] * S - (q - 1) * sizes[i] * D) for i in self.sector_lumps), 2 * S * D
            )
            tv_lumped = Fraction(
                sum(abs(v * S - (q - 1) * size * D) for v, size in zip(nu, sizes)), 2 * S * (q - 1) * D
            )
            rows.append((k, tv_full, tv_lumped))
        return rows

    def lumped_distribution(self, k):
        """Lumped k-step law of the twist-randomized walk."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        for nu in self._evolve(self._start(), k):
            pass
        return [Fraction(v, (self.q - 1) * self.move_count ** k) for v in nu]

    def _start(self):
        """The start law times q - 1."""
        return [self.starts.count(i) for i in range(self.num_lumps)]

    def _evolve(self, vec, k_max):
        """vec counts^k for k = 0..k_max as integer lists: if vec / d is a
        law, vec counts^k / (d move_count^k) is its k-step law."""
        A = [[(j, c) for j, c in enumerate(row) if c] for row in self.counts]
        for k in range(k_max + 1):
            yield vec
            if k < k_max:
                new = [0] * len(vec)
                for v, row in zip(vec, A):
                    for j, a in row:
                        new[j] += v * a
                vec = new

    def typed_distribution(self, k):
        """Lumped k-step law aggregated over equal type labels."""
        agg = {}
        for mass, typ in zip(self.lumped_distribution(k), self.lump_types):
            agg[typ] = agg.get(typ, Fraction(0)) + mass
        return agg

    def typed_tv(self, k):
        """TV between the type-aggregated law and the stationary types.

        This is the quantity the Monte Carlo classifier estimates; a
        data-processing lower bound for the lumped (and full) TV.
        """
        return _tv(self.typed_distribution(k), stationary_type_distribution(self.n, self.q))

    def full_tv_curve_bruteforce(self, k_max):
        """Oracle for tv_curve: TV of the unlumped law on every form.

        Enumerates the form space by a row-bytes BFS from the twisted
        starts under the congruences by every transvection
        (_engine.transvection_images over all_transvections), with no
        plane enumeration, no classifier and no lumping, and evolves
        integer mass vectors over the denominator (q-1) * move_count^k.
        Prime fields with at most FULL_MATRIX_CAP forms only.
        """
        if self.num_states > FULL_MATRIX_CAP or self.field.k > 1:
            raise StateSpaceTooLargeError(
                f"the full transition is built only over prime fields with at "
                f"most {FULL_MATRIX_CAP} forms"
            )
        n, field = self.n, self.field
        tvs = list(all_transvections(2 * n, field))
        v = np.array([t.v for t in tvs], dtype=np.int64)
        f = np.array([t.f for t in tvs], dtype=np.int64)
        states = list(_twisted_starts(n, field).astype(np.int64))  # distinct: one per Pfaffian sector
        index = {w.tobytes(): i for i, w in enumerate(states)}
        full_rows = []
        for w in states:  # grows while it is read: the BFS queue
            row = {}
            imgs, counts = _engine.transvection_images(w, v, f, field.p)
            for img, count in zip(imgs, counts.tolist()):
                key = img.tobytes()
                if key not in index:
                    index[key] = len(states)
                    states.append(img.reshape(w.shape))
                row[index[key]] = count
            full_rows.append(row)
        S = len(states)
        if len(index) != S or S != self.num_states:
            raise InternalError(
                f"enumerated {len(index)} forms, expected {self.num_states}"
            )
        vec = [1] * (self.q - 1) + [0] * (S - self.q + 1)
        denom = self.q - 1
        out = []
        for k in range(k_max + 1):
            tv = Fraction(sum(abs(v * S - denom) for v in vec), 2 * S * denom)
            out.append((k, tv))
            if k < k_max:
                new = [0] * S
                for i, v in enumerate(vec):
                    if v:
                        for j, cnt in full_rows[i].items():
                            new[j] += v * cnt
                vec = new
                denom *= self.move_count
        return out


def _move_count(n, q):
    """Transvections of GL_2n(F_q) that move a given form."""
    return transvection_count(2 * n, q) - symplectic_transvection_count(2 * n, q)


def check_tv_work(n, q, k_max):
    """Raise ValueError for k_max < 0, EnumerationTooLargeError beyond the
    lumps' enumeration cap, and StepRangeTooLargeError if tv_curve(k_max)
    at (n, q) needs more than TV_WORK_MAX units of work, k_max^3 b^2 with b
    the bit length of move_count; known before the chain is built."""
    _check_walk_n(n)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    check_enumeration_cap(n)
    work = k_max ** 3 * _move_count(n, q).bit_length() ** 2
    if work > TV_WORK_MAX:
        raise StepRangeTooLargeError(
            f"the exact TV curve at n={n} q={q} up to k={int_text(k_max)} needs about "
            f"{int_text(work)} units of big-integer work, beyond {int_text(TV_WORK_MAX)}"
        )


def chain_work(n, q):
    """Image classifications needed to build the exact chain at (n, q).

    One row per lump, the lumps counted by enumerate_partition_fns, each
    read off the move_count / (q(q+1)) distinct images of its
    representative.  This is what the chain cap bounds.
    """
    lumps = sum(cnt for _, cnt in enumerate_partition_fns(n, q))
    return lumps * _move_count(n, q) // (q * (q + 1))


def exact_form_chain(n, field_or_q, cap=DEFAULT_STATE_CAP) -> ChainModel:
    """Build the exact lumped chain on all symplectic forms of F_q^(2n).

    The walk commutes with congruence by GL_2n, so it lumps exactly over
    the Sp_2n-orbits (the double cosets), and any one form of an orbit
    gives that lump's row.  A BFS over lumps, seeded with the q - 1
    twisted starts (one per Pfaffian sector), classifies the distinct
    images of one representative per lump, listed from the 2-planes
    isotropic for it (_engine.plane_images), each of weight q(q+1); an
    image of an unseen class becomes the next representative.  Every form
    is held realified over F_p as uint8 (_realify), so one path serves
    every F_q.  Lump sizes come from class_size_qsq.  The sampled Dynkin
    check compares each row with the row of a second member R(k^T) w R(k),
    k uniform in Sp_2n, classified in the same call; both rows are
    np.bincounts of the classifier's label ids.  One call takes as
    many pending lumps as fit in one CLASSIFY_LANES slice, and at least
    one; rows, checks and new lumps are read per lump.  Each polynomial is
    factored once per build.  cap bounds the work, chain_work(n, q) image
    classifications, checked before any is done.
    """
    field = _resolve_field(field_or_q)
    p, q = field.p, field.q
    _check_walk_n(n)
    work = chain_work(n, q)
    if work > cap:
        raise StateSpaceTooLargeError(
            f"the chain needs {work} image classifications, above cap {cap}"
        )
    _check_byte_codes(field)
    S = coset_space_size(n, q)
    move_count = _move_count(n, q)
    weight = q * (q + 1)
    planes = [_realify(rows[:, None], field) for rows in _engine.two_planes(2 * n, q)]
    upper = np.triu_indices(2 * n * field.k, 1)  # the strict upper triangle fixes a realified form

    def distinct_images(w):
        imgs = _engine.plane_images(w, *planes, _mul_blocks(field)[1:], p)
        distinct, _ = _engine.row_labels(imgs[:, upper[0], upper[1]].T, p)
        if len(distinct) * weight != move_count:
            raise InternalError(
                f"a form has {len(distinct)} distinct images of weight "
                f"{weight}, expected {move_count} moving transvections"
            )
        return imgs

    factored = {}  # characteristic polynomial -> its factors, for the whole build
    seeds = _twisted_starts(n, field)
    labels, ids = _classify_states_batched(seeds, n, field, factored)
    seed_labels = [labels[i] for i in ids.tolist()]  # one per sector
    lumps = {}  # complete key -> (type, representative)
    for (lump, typ), w in zip(seed_labels, seeds):
        lumps.setdefault(lump, (typ, w))
    rows = {}  # complete key -> {complete key of an image: its count}
    rng = random.Random(0)
    pending = list(lumps)
    images = move_count // weight  # distinct images of any form
    while pending:
        batch = [pending.pop()]
        while pending and (len(batch) + 1) * 2 * images <= CLASSIFY_LANES:
            batch.append(pending.pop())
        imgs = []
        for lump in batch:
            w = lumps[lump][1]
            k = sample_symplectic(n, field, rng)
            member = _realify(k.transpose().to_lists(), field) @ w % p @ _realify(k.to_lists(), field) % p
            imgs += [distinct_images(w), distinct_images(member)]
        labels, ids = _classify_states_batched(np.concatenate(imgs), n, field, factored)
        for lump, (own, member), own_imgs in zip(batch, ids.reshape(-1, 2, images), imgs[::2]):
            row = np.bincount(own, minlength=len(labels))
            if not np.array_equal(np.bincount(member, minlength=len(labels)), row):
                raise InternalError(f"lump {lump} is not exactly lumpable")
            rep, _ = _engine.row_labels(own[None], len(labels))  # an image of each label met
            rows[lump] = {labels[i][0]: int(row[i]) for i in own[rep].tolist()}
            for i, lane in zip(own[rep].tolist(), rep.tolist()):
                other, typ = labels[i]
                if other not in lumps:
                    lumps[other] = (typ, own_imgs[lane])
                    pending.append(other)

    # canonical lump order: by (type, key)
    lump_keys = sorted(lumps, key=lambda key: (lumps[key][0].entries, key))
    index = {key: i for i, key in enumerate(lump_keys)}
    lump_types = [lumps[key][0] for key in lump_keys]
    lump_sizes = [class_size_qsq(typ, q) for typ in lump_types]
    if sum(lump_sizes) != S:
        raise InternalError(f"lump sizes sum to {sum(lump_sizes)}, expected {S} forms")
    counts = [[rows[a].get(b, 0) * weight for b in lump_keys] for a in lump_keys]
    if any(sum(row) != move_count for row in counts):
        raise InternalError(f"a lumped row does not sum to move_count {move_count}")
    for j, size in enumerate(lump_sizes):
        if sum(size_i * row[j] for size_i, row in zip(lump_sizes, counts)) != size * move_count:
            raise InternalError("the lumped uniform law is not a fixed point")

    starts = tuple(index[lump] for lump, _ in seed_labels)
    sector = {starts[0]}
    frontier = [starts[0]]
    while frontier:
        i = frontier.pop()
        for j, c in enumerate(counts[i]):
            if c and j not in sector:
                sector.add(j)
                frontier.append(j)
    if sum(lump_sizes[i] for i in sector) * (q - 1) != S:
        raise InternalError("sector size is not |space|/(q-1)")

    return ChainModel(
        n=n,
        q=q,
        field=field,
        num_states=S,
        move_count=move_count,
        lump_keys=lump_keys,
        lump_types=lump_types,
        lump_sizes=lump_sizes,
        counts=counts,
        sector_lumps=tuple(sorted(sector)),
        starts=starts,
        typed_lumping_ok=_typed_lumping_ok(lump_types, counts),
    )


def _typed_lumping_ok(lump_types, counts):
    """Whether the coarser partition by type label (types can repeat
    across distinct concrete cosets) is exactly lumpable, by the Dynkin
    criterion: the rows of one type have equal sums over each type."""
    typed_sums = {}  # type -> the typed sums of its first row
    for typ, row in zip(lump_types, counts):
        sums = {}
        for other, c in zip(lump_types, row):
            sums[other] = sums.get(other, 0) + c
        if typed_sums.setdefault(typ, sums) != sums:
            return False
    return True


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCResult:
    estimate: Fraction
    stderr: float
    trials: int
    counts: dict  # PartitionFn -> int


def _tv(law, pi):
    """TV between two laws on type labels, dicts of Fractions; a type
    missing from one has mass 0 there."""
    return sum(abs(law.get(t, 0) - pi.get(t, 0)) for t in set(law) | set(pi)) / 2


def _tv_and_stderr(counts, trials, pi):
    emp = {t: Fraction(c, trials) for t, c in counts.items()}
    signed = sum(e if e > pi.get(t, 0) else -e for t, e in emp.items())
    var = max(0.0, (1.0 - float(signed) ** 2) / trials)
    return _tv(emp, pi), math.sqrt(var) / 2


def _mc_field(field_or_q, n):
    """The prime field of a Monte Carlo run; states are stored as uint8."""
    field = _resolve_field(field_or_q)
    if field.k != 1:
        raise StateSpaceTooLargeError("Monte Carlo engine supports prime fields")
    _check_byte_codes(field)
    _check_walk_n(n)
    return field


def _check_mc_work(n, field, steps, trials):
    """Raise StepRangeTooLargeError if `trials` lanes stepped `steps` times
    and read at each state need more than MC_WORK_MAX lane-steps, an odd-p
    lane-step priced as MC_ODD_P_LANE_COST and each chunk's steps included."""
    chunks = -(-trials // MC_CHUNK)
    lane_cost = 1 if field.p == 2 else MC_ODD_P_LANE_COST
    if (steps + 1) * (trials * lane_cost + chunks * MC_STEP_COST_LANES) > MC_WORK_MAX:
        raise StepRangeTooLargeError(
            f"{int_text(trials)} trials of {int_text(steps)} steps at n={n} need more than "
            f"{int_text(MC_WORK_MAX)} lane-steps of work"
        )


def monte_carlo_tv(n, field_or_q, k, trials, seed=0) -> MCResult:
    """Empirical lumped law after k steps vs. the exact stationary lumps.

    The lumped TV is a data-processing lower bound on the full-space TV
    and is reported as such.  Deterministic for a fixed seed, and equal to
    step k of monte_carlo_curve with the same arguments.
    """
    return monte_carlo_curve(n, field_or_q, k, trials, seed=seed)[k][1]


def monte_carlo_curve(n, field_or_q, k_max, trials, seed=0):
    """MCResult per step k = 0..k_max from one set of trajectories.

    A chunk of MC_CHUNK trials is held as one _engine.Lanes batch, in the
    layout its step runs on (packed words at p = 2), and stepped k_max
    times.  Each step is tallied in that layout by exact labels
    (Lanes.distinct), which gives out only the distinct states.  The
    distinct states of all the chunk's steps are then deduped together by
    _engine.row_labels over their strict upper triangles, each is
    classified once, in one batch, and every step is counted from the
    label ids.  Classification draws nothing from rng, so the draws are
    those of stepping alone.  A run of more than MC_WORK_MAX lane-steps
    (_check_mc_work) raises StepRangeTooLargeError before any draw.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if k_max < 0:
        raise ValueError(f"the number of steps must be >= 0, got {k_max}")
    field = _mc_field(field_or_q, n)
    _check_mc_work(n, field, k_max, trials)
    p = field.p
    pi = stationary_type_distribution(n, p)
    rng = np.random.default_rng(seed)
    starts = _twisted_starts(n, field)
    rows, cols = np.triu_indices(2 * n, 1)  # the strict upper triangle fixes a state
    factored = {}  # characteristic polynomial -> its factors, for the whole run
    per_step = [{} for _ in range(k_max + 1)]  # type -> count
    remaining = trials
    while remaining:
        b = min(MC_CHUNK, remaining)
        remaining -= b
        lanes = _engine.Lanes.start(starts, p, b, rng)
        states, counts = [], []  # each step's distinct states and their multiplicities
        for k in range(k_max + 1):
            s, c = lanes.distinct()
            states.append(s)
            counts.append(c)
            if k < k_max:
                lanes = lanes.step(rng)
        states = np.concatenate(states)
        rep, distinct = _engine.row_labels(states[:, rows, cols].T, p)
        labels, ids = _classify_states_batched(states[rep], n, field, factored)
        tally = np.zeros((k_max + 1, len(labels)), dtype=np.int64)
        step_of = np.repeat(np.arange(k_max + 1), [len(c) for c in counts])
        np.add.at(tally, (step_of, ids[distinct]), np.concatenate(counts))
        for step, row in zip(per_step, tally.tolist()):
            for (_, typ), c in zip(labels, row):
                if c:
                    step[typ] = step.get(typ, 0) + c
    out = []
    for k, counts in enumerate(per_step):
        est, err = _tv_and_stderr(counts, trials, pi)
        out.append((k, MCResult(est, err, trials, counts)))
    return out


# ---------------------------------------------------------------------------
# Support sampling (lower-bound mechanism)
# ---------------------------------------------------------------------------

def support_violations(n, field_or_q, c, trials, seed=0):
    """Sampled check that k = n - c walk steps land in double cosets whose
    label has at least c parts at x - 1.

    The form after k transvection moves is the J-pullback of a product of
    k transvections, whose fixed space has dimension >= 2n - k; the label
    condition is rank(X - I) <= 2(n - c) for X = J^-1 w.  Violations are
    counted via batched rank; a small subsample is cross-checked with the
    full classifier.  Trials are stepped and ranked in chunks of MC_CHUNK,
    each held as one _engine.Lanes batch, so memory stays bounded whatever
    their number; they are priced against MC_WORK_MAX before any draw.
    Returns (violations, trials).
    """
    field = _mc_field(field_or_q, n)
    if not 0 <= c <= n:
        raise ValueError("need 0 <= c <= n")
    _check_mc_work(n, field, n - c, trials)
    p = field.p
    rng = np.random.default_rng(seed)
    J = standard_J(n, field)
    j_inv_mat = J.inverse()
    jmat = np.array(J.to_lists(), dtype=np.uint8)
    violations = 0
    for start in range(0, trials, MC_CHUNK):
        lanes = _engine.Lanes.from_grams(np.tile(jmat, (min(MC_CHUNK, trials - start), 1, 1)), p)
        for _ in range(n - c):
            lanes = lanes.step(rng)
        grams = lanes.grams()
        x_minus_1 = _engine.batched_matpoly(_engine.j_inv_times(grams, p), _mul_blocks(field)[[1, p - 1]], p)
        ranks = _engine.batched_rank(x_minus_1, p)
        violations += int((ranks > 2 * (n - c)).sum())
        # cross-check the rank criterion against the classifier on a subsample:
        # the block partition of X at x - 1 has exactly dim ker(X - I) parts
        for i in range(min(SUPPORT_CLASSIFY_SAMPLE - start, len(grams))):
            inv = class_invariant(j_inv_mat * MatFq(field, grams[i].tolist()))
            parts_at_one = 0
            for f, lam in inv.entries:
                if f.degree == 1 and f.coeffs == ((p - 1) % p, 1):
                    parts_at_one = len(lam)
            if 2 * n - int(ranks[i]) != parts_at_one:
                raise InternalError("rank criterion disagrees with classifier")
    return violations, trials
