"""The walk on symplectic forms: simulation, classification, exact chains.

A state is an invertible alternating Gram matrix on F_q^(2n).  One step
picks a transvection uniformly among those not fixing the current form and
replaces the Gram w by t^-T w t^-1.  Start randomization applies a single
diagonal twist diag(alpha, 1, ..., 1) with alpha uniform in F_q^*.

The double-coset classifier maps a state (or a group element) to the class
label of a half-size matrix: X = J^-1 w is conjugate to diag(M, M^T), so
its per-factor block partitions have even multiplicities and halve to the
label mu of weight n.

Exact chains enumerate the full form space (a few thousand to ~10^4 states
at desk scale), lump it by complete double-coset invariant, verify the
lumping exactly (Dynkin criterion), and produce exact rational transition
matrices, stationary distributions, and total-variation curves.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _engine
from .combinat import (
    PartitionFn,
    class_size_qsq,
    coset_space_size,
    enumerate_partition_fns,
    gl_order,
    multiplicities,
    sp_order,
)
from .errors import (
    InternalError,
    OddMultiplicityError,
    StateSpaceTooLargeError,
)
from .field import FieldSpec, field_from_order
from .linalg import (
    MatFq,
    Transvection,
    all_transvections,
    class_invariant,
    is_form_preserving,
    sample_nonpreserving_transvection,
    sample_symplectic,
    standard_J,
    transvection_count,
)

DEFAULT_STATE_CAP = 2 * 10 ** 5
FULL_MATRIX_CAP = 600


def _resolve_field(field_or_q):
    if isinstance(field_or_q, FieldSpec):
        return field_or_q
    return field_from_order(int(field_or_q))


# ---------------------------------------------------------------------------
# States and steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormState:
    """An invertible alternating Gram matrix (a symplectic form)."""

    gram: MatFq

    def __post_init__(self):
        if not self.gram.is_alternating():
            raise ValueError("Gram matrix must be alternating")
        if not self.gram.is_invertible():
            raise ValueError("Gram matrix must be invertible")

    @property
    def n(self):
        return self.gram.nrows // 2

    @property
    def field(self):
        return self.gram.field


def _initial_gram(n, field, alpha) -> MatFq:
    J = standard_J(n, field)
    ainv = field.inv(alpha)
    h_inv = MatFq.diagonal(field, [ainv] + [1] * (2 * n - 1))
    return h_inv.transpose() * J * h_inv


def initial_state(n, field, rng) -> FormState:
    """The base form J twisted by diag(alpha, 1, ..., 1), alpha uniform unit."""
    return FormState(_initial_gram(n, field, rng.randrange(1, field.q)))


def step(state: FormState, rng) -> FormState:
    """One move: congruence by the inverse of a uniformly chosen
    transvection among those not fixing the current form."""
    t = sample_nonpreserving_transvection(state.gram, rng)
    ti = t.inverse_matrix()
    new = FormState(ti.transpose() * state.gram * ti)
    if new.gram == state.gram:
        raise InternalError("walk did not move")
    return new


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


def _classify_states_batched(states_np, n, field):
    """Complete keys and types for a packed state array, vectorized.

    Same outputs as _classify_X state by state: batched characteristic
    polynomials, one factorization per distinct polynomial, batched rank
    sequences per factor.
    """
    from .field import PolyFq
    from .linalg import factor_poly, partition_from_rank_sequence

    p = field.p
    N = 2 * n
    S = len(states_np)
    j_inv = np.array(standard_J(n, field).inverse().to_lists(), dtype=np.float64)
    x = np.mod(np.matmul(j_inv, states_np.astype(np.float64)), p).astype(np.int64)
    cps = _engine.batched_charpoly(x, p)
    groups = {}
    for i in range(S):
        groups.setdefault(tuple(cps[i].tolist()), []).append(i)
    inv_table = _engine.mod_inverse_table(p)
    keys = [None] * S
    types = [None] * S
    for cp_desc, idxs in groups.items():
        poly = PolyFq(field, list(reversed(cp_desc)))
        xs = x[np.array(idxs)]
        per_factor = []
        for f, mult in factor_poly(poly):
            d = f.degree
            fx = _engine.batched_matpoly(xs, list(reversed(f.coeffs)), p)
            ranks = [np.full(len(idxs), N, dtype=np.int64)]
            power = fx
            for j in range(1, mult + 1):
                ranks.append(_engine.batched_rank(power, p, inv_table))
                if j < mult:
                    power = _engine.batched_matmul_mod(power, fx, p)
            parts = []
            for t in range(len(idxs)):
                lam = partition_from_rank_sequence([int(r[t]) for r in ranks], d)
                if sum(lam) != mult:
                    raise InternalError("batched partition weight mismatch")
                parts.append(lam)
            per_factor.append((f, parts))
        for t, i in enumerate(idxs):
            keys[i], types[i] = _key_type_from_pairs(
                [(f, parts[t]) for f, parts in per_factor]
            )
    return keys, types


def _x_of_form(gram: MatFq) -> MatFq:
    J = standard_J(gram.nrows // 2, gram.field)
    return J.inverse() * gram


def _x_of_group(g: MatFq) -> MatFq:
    J = standard_J(g.nrows // 2, g.field)
    return J.inverse() * g.transpose() * J * g


def double_coset_key(obj):
    """Complete double-coset invariant: ((poly coeffs, partition), ...)."""
    if isinstance(obj, FormState):
        return _classify_X(_x_of_form(obj.gram))[0]
    if isinstance(obj, MatFq):
        return _classify_X(_x_of_group(obj))[0]
    raise TypeError("expected FormState or MatFq")


def classify_double_coset(obj) -> PartitionFn:
    """Type label mu (weight n) of the double coset of a form or element."""
    if isinstance(obj, FormState):
        return _classify_X(_x_of_form(obj.gram))[1]
    if isinstance(obj, MatFq):
        return _classify_X(_x_of_group(obj))[1]
    raise TypeError("expected FormState or MatFq")


def stationary_type_distribution(n, q):
    """Stationary mass per type label: count * |coset| / |form space|."""
    out = {}
    denom = coset_space_size(n, q)
    for fn, cnt in enumerate_partition_fns(n, q, context="M"):
        out[fn] = Fraction(cnt * class_size_qsq(fn, q), denom)
    return out


# ---------------------------------------------------------------------------
# Group-level walk helpers
# ---------------------------------------------------------------------------

def nonsymplectic_representative(n, field) -> MatFq:
    """The fixed non-symplectic transvection I + e_1 (e_(n+2)^T J)."""
    if n < 2:
        raise ValueError("every transvection is symplectic when n = 1")
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


def transvection_product(n, field, steps, rng) -> MatFq:
    """Product of `steps` uniform non-symplectic transvections (w.r.t. J)."""
    J = standard_J(n, field)
    g = MatFq.identity(field, 2 * n)
    for _ in range(steps):
        g = g * sample_nonpreserving_transvection(J, rng).matrix()
    return g


# ---------------------------------------------------------------------------
# Exact chains
# ---------------------------------------------------------------------------

@dataclass
class ChainModel:
    """Exact finite chain on the form space, lumped by double coset.

    The full chain is kept implicitly (sparse rows only for small spaces);
    the lumped chain is exact and verified: identical aggregated rows per
    lump (Dynkin criterion), stochastic rows, stationary fixed point, and
    stationary masses equal to coset size over space size.
    """

    n: int
    q: int
    field: FieldSpec
    num_states: int
    move_count: int
    lump_keys: list
    lump_types: list
    lump_sizes: list
    lumped_transition: list
    stationary: list
    sector_lumps: tuple
    start_lumps: dict
    j_lump: int
    typed_lumping_ok: bool
    full_rows: list | None
    start_states: dict | None

    @property
    def num_lumps(self):
        return len(self.lump_sizes)

    def tv_curve(self, k_max):
        """Exact TV to stationarity for k = 0..k_max.

        Returns rows (k, tv_full, tv_lumped).  tv_full is the distance on
        the full form space.  The k-step law is (1/(q-1)) sum over units
        alpha of the push-forward along the alpha-twist of the law started
        at J; the twist maps the J-sector bijectively onto the alpha-sector
        and the law started at J is uniform on each double coset, so

            tv_full = 1/2 sum over sector lumps |m_k(L) - (q-1)|L|/S|.

        tv_lumped is the distance between the lumped k-step law (atoms at
        the twisted starts, evolved by the lumped chain) and the lumped
        stationary law; it is a data-processing lower bound for tv_full,
        with equality whenever the start law is uniform on each lump (in
        particular for q = 2, where the start is the singleton J-lump).
        """
        L = self.num_lumps
        S = self.num_states
        q = self.q
        m = [Fraction(0)] * L
        m[self.j_lump] = Fraction(1)
        nu = [Fraction(0)] * L
        for lump, mass in self.start_lumps.items():
            nu[lump] += mass
        rows = []
        for k in range(k_max + 1):
            tv_full = sum(
                abs(m[i] - Fraction((q - 1) * self.lump_sizes[i], S))
                for i in self.sector_lumps
            ) / 2
            tv_lumped = sum(
                abs(nu[i] - Fraction(self.lump_sizes[i], S)) for i in range(L)
            ) / 2
            rows.append((k, tv_full, tv_lumped))
            if k < k_max:
                m = _vec_times_matrix(m, self.lumped_transition)
                nu = _vec_times_matrix(nu, self.lumped_transition)
        return rows

    def lumped_distribution(self, k):
        """Lumped k-step law of the twist-randomized walk."""
        nu = [Fraction(0)] * self.num_lumps
        for lump, mass in self.start_lumps.items():
            nu[lump] += mass
        for _ in range(k):
            nu = _vec_times_matrix(nu, self.lumped_transition)
        return nu

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
        pi = stationary_type_distribution(self.n, self.q)
        agg = self.typed_distribution(k)
        types = set(pi) | set(agg)
        return (
            sum(abs(agg.get(t, Fraction(0)) - pi.get(t, Fraction(0))) for t in types)
            / 2
        )

    def full_tv_curve_bruteforce(self, k_max):
        """TV computed on the raw state space; oracle for tv_curve.

        Only available when the sparse full transition was materialized
        (small spaces).  Uses integer mass vectors over the denominator
        (q-1) * move_count^k.
        """
        if self.full_rows is None or self.start_states is None:
            raise StateSpaceTooLargeError("full transition not materialized")
        S = self.num_states
        common = math.lcm(*(f.denominator for f in self.start_states.values()))
        vec = [0] * S
        for idx, mass in self.start_states.items():
            vec[idx] += int(mass * common)
        denom = common
        out = []
        for k in range(k_max + 1):
            tv = Fraction(
                sum(abs(v * S - denom) for v in vec), 2 * S * denom
            )
            out.append((k, tv))
            if k < k_max:
                new = [0] * S
                for i, v in enumerate(vec):
                    if v:
                        for j, cnt in self.full_rows[i].items():
                            new[j] += v * cnt
                vec = new
                denom *= self.move_count
        return out


def _vec_times_matrix(vec, matrix):
    L = len(vec)
    out = [Fraction(0)] * L
    for i, v in enumerate(vec):
        if v:
            row = matrix[i]
            for j in range(L):
                if row[j]:
                    out[j] += v * row[j]
    return out


@dataclass
class _RawChain:
    field: FieldSpec
    n: int
    S: int
    perms: list
    j_index: int
    start_indices: dict
    _grams: list
    _np_states: object

    def state(self, i) -> MatFq:
        if self._grams is not None:
            return self._grams[i]
        return MatFq(self.field, self._np_states[i].tolist())


def _twist_matrices(n, field):
    """Congruence moves diag(alpha, 1, .., 1) for nontrivial units alpha."""
    out = []
    for alpha in range(2, field.q):
        out.append(MatFq.diagonal(field, [alpha] + [1] * (2 * n - 1)))
    return out


def _raw_chain_engine(n, field, cap) -> _RawChain:
    p = field.p
    N = 2 * n
    J = standard_J(n, field)
    jmat = np.array(J.to_lists(), dtype=np.uint8)
    tmats = [
        np.array(t.matrix().to_lists(), dtype=np.uint8)
        for t in all_transvections(N, field)
    ]
    twists = [np.array(m.to_lists(), dtype=np.uint8) for m in _twist_matrices(n, field)]
    keys_sorted = _engine.enumerate_closure(jmat[None], tmats + twists, p, cap)
    states_sorted = _engine.unpack_keys_array(keys_sorted, N, p).astype(np.uint8)
    perms = _engine.move_permutations(keys_sorted, N, tmats, p)
    j_index = int(np.searchsorted(keys_sorted, _engine.pack_keys(jmat[None], p)[0]))
    start_indices = {}
    for alpha in range(1, field.q):
        g0 = np.array(_initial_gram(n, field, alpha).to_lists(), dtype=np.uint8)
        start_indices[alpha] = int(
            np.searchsorted(keys_sorted, _engine.pack_keys(g0[None], p)[0])
        )
    return _RawChain(
        field, n, len(keys_sorted), perms, j_index, start_indices, None, states_sorted
    )


def _raw_chain_generic(n, field, cap) -> _RawChain:
    J = standard_J(n, field)
    tmats = [t.matrix() for t in all_transvections(2 * n, field)]
    moves = tmats + _twist_matrices(n, field)
    index = {J.key(): 0}
    grams = [J]
    frontier = [J]
    while frontier:
        nxt = []
        for w in frontier:
            for m in moves:
                img = m.transpose() * w * m
                key = img.key()
                if key not in index:
                    index[key] = len(grams)
                    grams.append(img)
                    nxt.append(img)
                    if len(grams) > cap:
                        raise StateSpaceTooLargeError("state cap exceeded")
        frontier = nxt
    perms = []
    for m in tmats:
        perm = np.array(
            [index[(m.transpose() * w * m).key()] for w in grams], dtype=np.int64
        )
        perms.append(perm)
    start_indices = {
        alpha: index[_initial_gram(n, field, alpha).key()]
        for alpha in range(1, field.q)
    }
    return _RawChain(field, n, len(grams), perms, index[J.key()], start_indices, grams, None)


def exact_form_chain(n, field_or_q, cap=DEFAULT_STATE_CAP, engine="auto") -> ChainModel:
    """Build the exact chain on all symplectic forms of F_q^(2n).

    Enumerates the congruence orbit of J (transvection moves plus the
    diagonal twists, which together generate the full congruence action),
    classifies every state, verifies exact lumpability, and assembles the
    lumped transition matrix with Fraction entries.
    """
    field = _resolve_field(field_or_q)
    q = field.q
    if n < 2:
        raise ValueError(
            "the walk is trivial for n = 1: every transvection of GL_2 is symplectic"
        )
    expected = coset_space_size(n, q)
    if expected > cap:
        raise StateSpaceTooLargeError(
            f"form space has {expected} states, above cap {cap}"
        )
    if engine == "auto":
        engine = "numpy" if field.k == 1 else "generic"
    raw = _raw_chain_engine(n, field, cap) if engine == "numpy" else _raw_chain_generic(n, field, cap)
    S = raw.S
    if S != expected:
        raise InternalError(f"enumerated {S} forms, expected {expected}")

    # classify every state by the complete double-coset invariant
    if raw._np_states is not None:
        state_keys, state_types = _classify_states_batched(raw._np_states, n, field)
    else:
        J_inv = standard_J(n, field).inverse()
        state_keys, state_types = [], []
        for i in range(S):
            key, typ = _classify_X(J_inv * raw.state(i))
            state_keys.append(key)
            state_types.append(typ)
    lump_index = {}
    lump_keys = []
    lump_types = []
    lump_of = np.zeros(S, dtype=np.int64)
    for i in range(S):
        key = state_keys[i]
        if key not in lump_index:
            lump_index[key] = len(lump_keys)
            lump_keys.append(key)
            lump_types.append(state_types[i])
        lump_of[i] = lump_index[key]
    # canonical lump order: by (type, key)
    order = sorted(range(len(lump_keys)), key=lambda i: (lump_types[i].entries, lump_keys[i]))
    relabel = {old: new for new, old in enumerate(order)}
    lump_keys = [lump_keys[i] for i in order]
    lump_types = [lump_types[i] for i in order]
    lump_of = np.array([relabel[int(x)] for x in lump_of], dtype=np.int64)
    L = len(lump_keys)
    lump_sizes = np.bincount(lump_of, minlength=L).tolist()

    counts, moved = _engine.lump_transition_counts(raw.perms, lump_of, L)
    expected_moves = transvection_count(2 * n, q) - (q ** (2 * n) - 1)
    if not (moved == expected_moves).all():
        raise InternalError("non-fixing transvection count varies across states")

    # Dynkin criterion: aggregated rows identical within every lump
    rep_rows = np.zeros((L, L), dtype=np.int64)
    for lump in range(L):
        members = np.nonzero(lump_of == lump)[0]
        rows = counts[members]
        if len(np.unique(rows, axis=0)) != 1:
            raise InternalError(f"lump {lump} is not exactly lumpable")
        rep_rows[lump] = rows[0]
    lumped_transition = [
        [Fraction(int(rep_rows[i][j]), expected_moves) for j in range(L)]
        for i in range(L)
    ]
    for row in lumped_transition:
        if sum(row) != 1:
            raise InternalError("lumped row does not sum to 1")

    # typed aggregation: does lumping by type alone still satisfy Dynkin?
    typed_ok = _typed_lumping_ok(lump_types, rep_rows)

    # stationary distribution: coset sizes over the space size
    stationary = [Fraction(sz, S) for sz in lump_sizes]
    for j in range(L):
        acc = sum(stationary[i] * lumped_transition[i][j] for i in range(L))
        if acc != stationary[j]:
            raise InternalError("stationary vector is not a fixed point")
    ratio = Fraction(sp_order(n, q), gl_order(2 * n, q))
    for lump in range(L):
        if stationary[lump] != class_size_qsq(lump_types[lump], q) * ratio:
            raise InternalError("stationary mass disagrees with coset size formula")

    sector_states = _engine.reachable_from(raw.perms, raw.j_index, S)
    sector_lumps = sorted(set(int(lump_of[i]) for i in sector_states))
    in_sector = np.zeros(L, dtype=bool)
    in_sector[sector_lumps] = True
    # lumps may not straddle the sector boundary
    sector_mask = np.zeros(S, dtype=bool)
    sector_mask[sector_states] = True
    for lump in range(L):
        members = np.nonzero(lump_of == lump)[0]
        flags = sector_mask[members]
        if flags.any() != flags.all():
            raise InternalError("a double coset straddles a Pfaffian sector")
    if len(sector_states) * (q - 1) != S:
        raise InternalError("sector size is not |space|/(q-1)")

    start_lumps = {}
    start_states = {}
    for alpha, idx in raw.start_indices.items():
        lump = int(lump_of[idx])
        start_lumps[lump] = start_lumps.get(lump, Fraction(0)) + Fraction(1, q - 1)
        start_states[idx] = start_states.get(idx, Fraction(0)) + Fraction(1, q - 1)

    full_rows = None
    if S <= FULL_MATRIX_CAP:
        full_rows = [dict() for _ in range(S)]
        for perm in raw.perms:
            for i, j in enumerate(perm.tolist()):
                if j != i:
                    full_rows[i][j] = full_rows[i].get(j, 0) + 1

    return ChainModel(
        n=n,
        q=q,
        field=field,
        num_states=S,
        move_count=expected_moves,
        lump_keys=lump_keys,
        lump_types=lump_types,
        lump_sizes=lump_sizes,
        lumped_transition=lumped_transition,
        stationary=stationary,
        sector_lumps=tuple(sector_lumps),
        start_lumps=start_lumps,
        j_lump=int(lump_of[raw.j_index]),
        typed_lumping_ok=typed_ok,
        full_rows=full_rows,
        start_states=start_states if full_rows is not None else None,
    )


def _typed_lumping_ok(lump_types, rep_rows):
    """Check the coarser partition by type label against the Dynkin
    criterion (types can repeat across distinct concrete cosets)."""
    L = len(lump_types)
    type_of = {}
    for i, t in enumerate(lump_types):
        type_of.setdefault(t, []).append(i)
    groups = list(type_of.values())
    col_group = {}
    for gi, members in enumerate(groups):
        for m in members:
            col_group[m] = gi
    agg = {}
    for i in range(L):
        row = [0] * len(groups)
        for j in range(L):
            row[col_group[j]] += int(rep_rows[i][j])
        agg[i] = tuple(row)
    for members in groups:
        if len({agg[i] for i in members}) != 1:
            return False
    return True


def exact_tv_curve(chain: ChainModel, k_max):
    """Exact TV rows (k, tv_full, tv_lumped) for the twist-randomized start."""
    return chain.tv_curve(k_max)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCResult:
    estimate: Fraction
    stderr: float
    trials: int
    counts: dict  # PartitionFn -> int


def _tv_and_stderr(counts, trials, pi):
    emp = {t: Fraction(c, trials) for t, c in counts.items()}
    types = set(pi) | set(emp)
    est = sum(abs(emp.get(t, Fraction(0)) - pi.get(t, Fraction(0))) for t in types) / 2
    signed = Fraction(0)
    for t in types:
        e = emp.get(t, Fraction(0))
        s = 1 if e - pi.get(t, Fraction(0)) > 0 else -1
        signed += s * e
    var = max(0.0, (1.0 - float(signed) ** 2) / trials)
    return est, math.sqrt(var) / 2


def _mc_field(field_or_q, n):
    """The prime field of a Monte Carlo run; states are stored as uint8."""
    field = _resolve_field(field_or_q)
    if field.k != 1:
        raise StateSpaceTooLargeError("Monte Carlo engine supports prime fields")
    if field.p > 256:
        raise StateSpaceTooLargeError(
            f"Monte Carlo engine stores residues as uint8; p = {field.p} exceeds 256"
        )
    if n < 2:
        raise ValueError("the walk is trivial for n = 1")
    return field


def monte_carlo_tv(n, field_or_q, k, trials, seed=0, chunk=250_000) -> MCResult:
    """Empirical lumped law after k steps vs. the exact stationary lumps.

    The lumped TV is a data-processing lower bound on the full-space TV
    and is reported as such.  Deterministic for a fixed seed, and equal to
    step k of monte_carlo_curve with the same arguments.
    """
    return monte_carlo_curve(n, field_or_q, k, trials, seed=seed, chunk=chunk)[k][1]


def monte_carlo_curve(n, field_or_q, k_max, trials, seed=0, chunk=250_000):
    """MCResult per step k = 0..k_max from one set of trajectories.

    Each step's lanes are deduplicated by their raw row bytes, and the rows
    not seen before in this call are classified in one batch.
    """
    field = _mc_field(field_or_q, n)
    p = field.p
    N = 2 * n
    row_bytes = np.dtype((np.void, N * N))
    pi = stationary_type_distribution(n, p)
    rng = np.random.default_rng(seed)
    inv_table = _engine.mod_inverse_table(p)
    jmat = np.array(standard_J(n, field).to_lists(), dtype=np.uint8)
    type_of = {}  # row bytes -> type label
    per_step = [Counter() for _ in range(k_max + 1)]
    remaining = trials
    while remaining:
        b = min(chunk, remaining)
        remaining -= b
        grams = _engine.initial_grams(jmat, p, b, rng, inv_table)
        for k in range(k_max + 1):
            rows = grams.reshape(b, N * N).view(row_bytes).ravel()
            uniq, cnt = np.unique(rows, return_counts=True)
            keys = uniq.tolist()
            new = [i for i, key in enumerate(keys) if key not in type_of]
            if new:
                states = uniq[new].view(np.uint8).reshape(-1, N, N)
                _, types = _classify_states_batched(states, n, field)
                type_of.update(zip((keys[i] for i in new), types))
            for key, c in zip(keys, cnt.tolist()):
                per_step[k][type_of[key]] += c
            if k < k_max:
                grams = _engine.mc_step(grams, p, rng, inv_table)
    out = []
    for k in range(k_max + 1):
        est, err = _tv_and_stderr(per_step[k], trials, pi)
        out.append((k, MCResult(est, err, trials, dict(per_step[k]))))
    return out


# ---------------------------------------------------------------------------
# Support sampling (lower-bound mechanism)
# ---------------------------------------------------------------------------

def support_violations(n, field_or_q, c, trials, seed=0, classify_sample=50):
    """Sampled check that k = n - c walk steps land in double cosets whose
    label has at least c parts at x - 1.

    The form after k transvection moves is the J-pullback of a product of
    k transvections, whose fixed space has dimension >= 2n - k; the label
    condition is rank(X - I) <= 2(n - c) for X = J^-1 w.  Violations are
    counted via batched rank; a small subsample is cross-checked with the
    full classifier.  Returns (violations, trials).
    """
    field = _mc_field(field_or_q, n)
    if not 0 <= c <= n:
        raise ValueError("need 0 <= c <= n")
    p = field.p
    k = n - c
    rng = np.random.default_rng(seed)
    inv_table = _engine.mod_inverse_table(p)
    J = standard_J(n, field)
    jmat = np.array(J.to_lists(), dtype=np.uint8)
    j_inv = np.array(J.inverse().to_lists(), dtype=np.int64)
    grams = np.broadcast_to(jmat, (trials, 2 * n, 2 * n)).copy()
    for _ in range(k):
        grams = _engine.mc_step(grams, p, rng, inv_table)
    x = np.mod(np.matmul(j_inv.astype(np.float64), grams.astype(np.float64)), p)
    x_minus_i = np.mod(x - np.eye(2 * n)[None], p).astype(np.int64)
    ranks = _engine.batched_rank(x_minus_i, p, inv_table)
    violations = int((ranks > 2 * (n - c)).sum())
    # cross-check the rank criterion against the classifier on a subsample:
    # the block partition of X at x - 1 has exactly dim ker(X - I) parts
    j_inv_mat = standard_J(n, field).inverse()
    for i in range(min(classify_sample, trials)):
        inv = class_invariant(j_inv_mat * MatFq(field, grams[i].tolist()))
        parts_at_one = 0
        for f, lam in inv.entries:
            if f.degree == 1 and f.coeffs == ((p - 1) % p, 1):
                parts_at_one = len(lam)
        if 2 * n - int(ranks[i]) != parts_at_one:
            raise InternalError("rank criterion disagrees with classifier")
    return violations, trials
