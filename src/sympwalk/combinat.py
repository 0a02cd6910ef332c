"""Partition combinatorics and GL_n(F_q) class/representation counting.

Conjugacy classes of GL_n(F_q) are labeled by functions assigning a
partition to each Frobenius orbit of nonzero eigenvalues (equivalently,
to each monic irreducible polynomial != x over F_q), with degree-weighted
total size n.  Irreducible characters are labeled the same way over
character orbits.  Every formula used downstream depends only on the
multiset of (orbit degree, partition) pairs, so enumeration happens over
such "types" together with the exact number of concrete labelings of each
type.  All values are exact: quotients are kept as integer (numerator,
denominator) pairs and divided once, checked integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import EnumerationTooLargeError, NonIntegerResultError, WeightMismatchError, int_text
from .field import irreducible_count

ENUMERATION_MAX_N = 14


# ---------------------------------------------------------------------------
# Partitions (tuples of weakly decreasing positive ints)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(out)


def conjugate(lam):
    """The transposed partition: column j has as many boxes as lam has
    parts >= j, filled from the shortest part up."""
    out = []
    for i in range(len(lam), 0, -1):  # lam[0..i-1] are the parts >= lam[i-1]
        out.extend([i] * (lam[i - 1] - len(out)))
    return tuple(out)


def n_stat(lam):
    """n(lam) = sum (i-1) lam_i  (rows indexed from 1)."""
    return sum(i * part for i, part in enumerate(lam))


def hook_poly(lam, t):
    """H_lam(t) = prod over boxes of (t^hook - 1).

    The leg of box (i, j), 0-indexed, is conj[j] - i - 1, read off the
    conjugate once.
    """
    conj = conjugate(lam)
    out = 1
    for i, part in enumerate(lam):
        for j in range(part):
            out *= t ** (part - j + conj[j] - i - 1) - 1
    return out


def multiplicities(lam):
    """m_i(lam): how many parts equal i (works for any tuple of hashables)."""
    out = {}
    for part in lam:
        out[part] = out.get(part, 0) + 1
    return out


def removable_corners(lam):
    """Boxes (i, j), 1-indexed, whose removal leaves a partition."""
    out = []
    for i, part in enumerate(lam, start=1):
        below = lam[i] if i < len(lam) else 0
        if part > below:
            out.append((i, part))
    return out


def remove_corner(lam, corner):
    i, j = corner
    assert lam[i - 1] == j, "not the corner of its row"
    out = list(lam)
    out[i - 1] -= 1
    if out[i - 1] == 0:
        out.pop(i - 1)
    return tuple(out)


def union_double(lam):
    """Each part of lam twice: (a, b, ...) -> (a, a, b, b, ...)."""
    out = []
    for part in lam:
        out.extend((part, part))
    return tuple(out)


# ---------------------------------------------------------------------------
# Partition-valued functions, represented by type
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class PartitionFn:
    """Multiset of (orbit degree, partition) pairs.

    Entries are kept sorted; repeats mean distinct orbits of the same
    degree carrying the same partition.  The concrete assignment of orbits
    is deliberately not stored: every class-size, dimension, and eigenvalue
    formula depends only on this data, and enumeration supplies the number
    of concrete functions per type.
    """

    entries: tuple  # of (degree, partition-tuple)

    @staticmethod
    def make(entries):
        entries = tuple(sorted((int(d), tuple(lam)) for d, lam in entries))
        if any(not lam or any(p <= 0 for p in lam) for _, lam in entries):
            raise ValueError("partitions must be nonempty with positive parts")
        if any(
            lam[i] < lam[i + 1]
            for _, lam in entries
            for i in range(len(lam) - 1)
        ):
            raise ValueError("parts must be weakly decreasing")
        return PartitionFn(entries)

    @cached_property
    def weight(self):
        return sum(d * sum(lam) for d, lam in self.entries)

    def degree_one_indices(self):
        return [i for i, (d, _) in enumerate(self.entries) if d == 1]

    def degree_one_parts(self):
        """The partitions at degree-1 orbits, in entry order."""
        return tuple(lam for d, lam in self.entries if d == 1)

    def replace_partition(self, index, new_lam):
        """Copy with entry `index` carrying new_lam (dropped if empty)."""
        items = list(self.entries)
        if new_lam:
            items[index] = (items[index][0], tuple(new_lam))
        else:
            items.pop(index)
        return PartitionFn(tuple(sorted(items)))

    def doubled(self):
        """Every partition replaced by its doubled version (parts repeated)."""
        return PartitionFn(
            tuple(sorted((d, union_double(lam)) for d, lam in self.entries))
        )

    def to_json(self):
        seen = {}
        out = []
        for d, lam in self.entries:
            idx = seen.get(d, 0)
            seen[d] = idx + 1
            out.append({"degree": d, "partition": list(lam), "orbit": idx})
        return out


def orbit_count(d, q):
    """Number of degree-d Frobenius orbits labeling classes/characters.

    The monic irreducibles of degree d other than x: degree 1 gives the
    q-1 units, and for d >= 2 every irreducible avoids the root 0.
    """
    return irreducible_count(q, d, exclude_x=True)


def check_enumeration_cap(n):
    """Raise EnumerationTooLargeError for a weight n beyond
    ENUMERATION_MAX_N, whose labels are too many to list."""
    if n > ENUMERATION_MAX_N:
        raise EnumerationTooLargeError(f"n={int_text(n)} beyond enumeration cap {ENUMERATION_MAX_N}")


@lru_cache(maxsize=None)
def _lex_partitions(top):
    """The partitions of 1..top in increasing order, each with its size."""
    return tuple(sorted((lam, sum(lam)) for w in range(1, top + 1) for lam in partitions_of(w)))


@lru_cache(maxsize=None)
def _next_blocks(d, remaining, n_orbits):
    """(entries, count, weight left) per degree-d block that fits in
    `remaining`, in the order of the types it starts: by entries, but a
    block that ends its types comes before, and one that higher degrees
    follow after, every block whose entries begin with its own.  A
    depth-first walk appending partitions in increasing order meets each
    multiset once, by entries: a block that ends its types is listed when
    met, one that higher degrees follow after what grows from it.  Its
    count, the assignments of its m partitions to the orbits,
    perm(n_orbits, m) / prod r_i! over its runs r_i of equal partitions,
    is carried as it grows."""
    top = remaining // d
    items = [((d, lam), lam[0], w) for lam, w in _lex_partitions(top)]
    blocks = []

    def rec(start, weight, acc, ways, run):
        # run: how many times items[start] ends acc; acc is in increasing order
        slots, budget = n_orbits - len(acc), top - weight
        for i in range(start, len(items)):
            entry, first, w = items[i]
            if first > budget:  # every later partition has a part this large
                break
            if w > budget:
                continue
            r = run + 1 if i == start else 1
            acc.append(entry)
            count, left = ways * slots // r, remaining - d * (weight + w)  # an integer at every step
            if not left:
                blocks.append((tuple(acc), count, 0))
            else:
                if slots > 1:
                    rec(i, weight + w, acc, count, r)
                if left > d:  # no degree above d fits 0 < left <= d
                    blocks.append((tuple(acc), count, left))
            acc.pop()

    rec(0, 0, [], 1, 0)
    return tuple(blocks)


def _walk_types(n, q):
    """The one walk over the types of weight n over F_q, by increasing
    entries: (blocks, completions).  Each type is a block (entries, count,
    weight left), one of _next_blocks(1, n, q - 1) or last ((), 1, n),
    followed by one (entries, count) of completions[left], its entries of
    degree >= 2.  Built from the top degree down, completions[w] lists the
    degree-d blocks that fit in w, each followed by every completion above
    d of the weight it leaves, then the completions above d of weight w."""
    check_enumeration_cap(n)
    # orbit_count(d, q) >= 1 for every d when q >= 2
    n_orbs = [orbit_count(d, q) for d in range(1, n + 1)]
    completions = [[((), 1)]] + [[] for _ in range(n)]  # by weight, those above degree d; first d = n
    for d in range(n, 1, -1):
        completions = completions[:d] + [
            [(entries + rest, ways * count) for entries, ways, left in _next_blocks(d, w, n_orbs[d - 1])
             for rest, count in completions[left]] + completions[w]
            for w in range(d, n + 1)
        ]
    return (*_next_blocks(1, n, orbit_count(1, q)), ((), 1, n)), completions


@lru_cache(maxsize=None)
def enumerate_partition_fns(n, q):
    """All types of partition-valued functions of weight n over F_q.

    Returns a tuple of (PartitionFn, count), strictly increasing by entries,
    where count is the number of concrete functions of that type.  They
    serve as class labels and as character labels alike: the orbit counts
    agree degree by degree.  Each label's cached weight is filled with n.
    n = 0 gives the one empty label; n beyond ENUMERATION_MAX_N raises
    EnumerationTooLargeError before any label is listed.
    """
    blocks, completions = _walk_types(n, q)
    labels = []
    for block, ways, left in blocks:
        for rest, count in completions[left]:
            fn = PartitionFn(block + rest)
            vars(fn)["weight"] = n  # what the cached_property would compute
            labels.append((fn, ways * count))
    return tuple(labels)


# ---------------------------------------------------------------------------
# Group orders, class sizes, dimensions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gl_order(n, q):
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def sp_order(n, q):
    """|Sp_2n(F_q)| = q^(n^2) prod_{i=1}^n (q^(2i) - 1)."""
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


@lru_cache(maxsize=None)
def psi_factor(n, q):
    """psi_n(q) = prod_{i=1}^n (q^i - 1)."""
    out = 1
    for i in range(1, n + 1):
        out *= q ** i - 1
    return out


@lru_cache(maxsize=None)
def _centralizer_factor(d, lam, q):
    """(numerator, denominator) of one entry's factor of a_mu:
    q_f^(2 n(lam)) prod_i prod_{j<=m_i} (q_f^j - 1) over prod q_f^j, the
    inner products psi_(m_i)(q_f) and q_f^(m_i (m_i + 1) / 2)."""
    qf = q ** d
    num, e = qf ** (2 * n_stat(lam)), 0
    for m_i in multiplicities(lam).values():
        num *= psi_factor(m_i, qf)
        e += m_i * (m_i + 1) // 2
    return num, qf ** e


def _entry_product(factor, entries, q, num=1):
    """(num x the product of the numerators, the product of the
    denominators) of the pairs factor(d, lam, q) over the entries."""
    den = 1
    for d, lam in entries:
        f_num, f_den = factor(d, lam, q)
        num *= f_num
        den *= f_den
    return num, den


def _centralizer_ratio(mu: PartitionFn, q):
    """a_mu(q), the centralizer order of the class labeled mu in GL_n(F_q),
    as an unreduced (numerator, denominator) pair of integers: q^n times
    each entry's _centralizer_factor, cached per (degree, partition, q)."""
    return _entry_product(_centralizer_factor, mu.entries, q, q ** mu.weight)


def class_size(mu: PartitionFn, q) -> int:
    """|C_mu| = |GL_n(F_q)| / a_mu(q), checked integral: one divmod of
    |GL_n| times the denominator of a_mu by its numerator, unreduced."""
    num, den = _centralizer_ratio(mu, q)
    size, rem = divmod(gl_order(mu.weight, q) * den, num)
    if rem:
        raise NonIntegerResultError(f"class size not integral for {mu} at q={q}")
    return size


def class_size_qsq(mu: PartitionFn, q) -> int:
    """The class-size rational function evaluated at q^2.

    This converts GL_n class data into the size (per unit of |Sp_2n|) of
    the corresponding double coset of GL_2n(F_q)/Sp_2n(F_q).  The symbolic
    product is re-evaluated at parameter q^2; orbit degrees stay fixed.
    """
    return class_size(mu, q * q)


@lru_cache(maxsize=None)
def _dim_factor(d, part, q):
    """(q_phi^(n(part')), H_part(q_phi)) for one entry, q_phi = q^d."""
    qphi = q ** d
    return qphi ** n_stat(conjugate(part)), hook_poly(part, qphi)


@lru_cache(maxsize=None)
def _doubled_dim_factor(d, lam, q):
    """_dim_factor of the doubled entry (d, union_double(lam)), from lam's
    own boxes.  Box (i, j) of lam, 0-indexed, stands for boxes (2i, j) and
    (2i + 1, j) of lam u lam, whose hooks are h = lam_i - j + 2 lam'_j - 2i - 1
    and h - 1; and n((lam u lam)') = 2 n(lam') = sum of lam_i (lam_i - 1).
    So with t = q^d the factor is (t^(2 n(lam')), the product over the boxes
    of (t^h - 1)(t^(h - 1) - 1)), each t^h - 1 read from one list."""
    t = q ** d
    conj = conjugate(lam)
    t_h, powers = 1, [0]  # powers[h] = t^h - 1 up to the hook of box (0, 0)
    for _ in range(lam[0] + 2 * len(lam) - 1):
        t_h *= t
        powers.append(t_h - 1)
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            h = part - j + 2 * conj[j] - 2 * i - 1
            hooks *= powers[h] * powers[h - 1]
    return t ** sum(part * (part - 1) for part in lam), hooks


def _checked_dim(lam, weight, factor, q):
    """psi_weight(q) prod f_num / prod f_den over the pairs factor(d, part, q)
    of lam's entries (doubled at weight 2 lam.weight), checked integral."""
    dim, rem = divmod(*_entry_product(factor, lam.entries, q, psi_factor(weight, q)))
    if rem:
        raise NonIntegerResultError(f"dimension of weight {weight} not integral for {lam} at q={q}")
    return dim


def dim_irrep(lam: PartitionFn, q) -> int:
    """Dimension of the irreducible character labeled lam.

    d_lam = psi_N(q) prod_phi q_phi^(n(lam(phi)')) / H_(lam(phi))(q_phi)
    with N the weight, q_phi = q^deg(phi), H the hook polynomial; one
    divmod of an integer numerator by an integer denominator, checked exact
    for every label.  Each entry's (numerator, denominator) pair is cached
    per (degree, partition, q).
    """
    return _checked_dim(lam, lam.weight, _dim_factor, q)


def doubled_dim_irrep(lam: PartitionFn, q) -> int:
    """dim_irrep(lam.doubled(), q), the multiplicity d_(lam u lam) of lam's
    eigenvalue, without building the doubled label: each doubled entry's
    factor is cached per (degree, partition, q) of the undoubled entry."""
    return _checked_dim(lam, 2 * lam.weight, _doubled_dim_factor, q)


def coset_space_size(n, q):
    """|GL_2n| / |Sp_2n|: the number of symplectic forms on F_q^(2n)."""
    size, rem = divmod(gl_order(2 * n, q), sp_order(n, q))
    if rem:
        raise NonIntegerResultError("Sp order does not divide GL order")
    return size


def check_weight(fn: PartitionFn, n):
    if fn.weight != n:
        raise WeightMismatchError(f"weight {fn.weight} != {n}")
