"""Exact dense linear algebra over F_q.

Houses the standard symplectic Gram matrix J, the form-preservation test,
transvection construction, enumeration and uniform sampling, uniform
sampling from the symplectic group, and the conjugacy-class invariant
(primary/Jordan block partitions per irreducible factor of the
characteristic polynomial).

Everything here is exact; no floating point.  Matrices are value types
(tuples of tuples of field codes), and the samplers take an explicit RNG.
Every F_q operation goes through FieldSpec: its scalar add/mul/neg/inv
and its vector primitives dot and axpy.  The prime-field fast path lives
in FieldSpec alone; only the characteristic-2 split of factor_poly reads
p and k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    InternalError,
    NotInvertibleError,
    SingularMatrixError,
)
from .field import PolyFq, base_digits


class MatFq:
    """Dense matrix over F_q with row-major field-code entries."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must be nonempty")
        w = len(self.rows[0])
        if any(len(r) != w for r in self.rows):
            raise ValueError("ragged rows")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, n, m=None):
        m = n if m is None else m
        return cls(field, [[0] * m for _ in range(n)])

    @classmethod
    def diagonal(cls, field, codes):
        n = len(codes)
        return cls(field, [[codes[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- shape / access -----------------------------------------------------

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __eq__(self, other):
        return (
            isinstance(other, MatFq)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def key(self):
        """Canonical bytes key (codes < 256 by construction of small fields)."""
        return bytes(c for row in self.rows for c in row)

    def to_lists(self):
        return [list(r) for r in self.rows]

    def __repr__(self):
        body = "; ".join(" ".join(str(c) for c in r) for r in self.rows)
        return f"MatFq[{body}]"

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, MatFq):
            if self.ncols != other.nrows:
                raise DimensionMismatchError(
                    f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
                )
            dot = self.field.dot
            bt = list(zip(*other.rows))
            return MatFq(self.field, [[dot(row, col) for col in bt] for row in self.rows])
        return NotImplemented

    __matmul__ = __mul__

    def __add__(self, other):
        F = self.field
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError("shape mismatch in add")
        return MatFq(
            F,
            [
                [F.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def scale(self, c):
        F = self.field
        return MatFq(F, [[F.mul(c, a) for a in r] for r in self.rows])

    def transpose(self):
        return MatFq(self.field, list(zip(*self.rows)))

    # -- elimination-based operations ----------------------------------------

    def _echelon(self, rows):
        """In-place echelon form of a list of row lists; returns pivot count."""
        F = self.field
        m, n = len(rows), len(rows[0])
        rank = 0
        for col in range(n):
            piv = None
            for r in range(rank, m):
                if rows[r][col]:
                    piv = r
                    break
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = F.inv(rows[rank][col])
            if inv != 1:
                rows[rank] = [F.mul(inv, a) for a in rows[rank]]
            for r in range(m):
                if r != rank and rows[r][col]:
                    rows[r] = F.axpy(F.neg(rows[r][col]), rows[rank], rows[r])
            rank += 1
            if rank == m:
                break
        return rank

    def rank(self):
        return self._echelon([list(r) for r in self.rows])

    def inverse(self):
        if not self.is_square:
            raise DimensionMismatchError("inverse of non-square matrix")
        F = self.field
        n = self.nrows
        work = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        self._echelon(work)
        for i in range(n):
            if any(work[i][j] != (1 if i == j else 0) for j in range(n)):
                raise SingularMatrixError("matrix is singular")
        return MatFq(F, [row[n:] for row in work])

    def is_alternating(self):
        """Gram test: zero diagonal and M^T = -M.

        The zero diagonal is explicit because in characteristic 2 skewness
        is vacuous while alternation is not.
        """
        if not self.is_square:
            return False
        F = self.field
        n = self.nrows
        for i in range(n):
            if self.rows[i][i] != 0:
                return False
            for j in range(i + 1, n):
                if self.rows[i][j] != F.neg(self.rows[j][i]):
                    return False
        return True


def standard_J(n, field):
    """The 2n x 2n block Gram matrix [[0, I], [-I, 0]]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    F = field
    neg1 = F.neg(1)
    rows = []
    for i in range(n):
        rows.append([0] * (2 * n))
        rows[-1][n + i] = 1
    for i in range(n):
        rows.append([0] * (2 * n))
        rows[-1][i] = neg1
    return MatFq(F, rows)


def is_form_preserving(g, omega):
    """True iff g^T . omega . g == omega."""
    if not (g.is_square and omega.is_square and g.nrows == omega.nrows):
        raise DimensionMismatchError("form check needs square matrices of equal size")
    return g.transpose() * omega * g == omega


# ---------------------------------------------------------------------------
# Transvections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transvection:
    """The linear map I + v.f with f(v) = 0, v != 0, f != 0."""

    field: object
    v: tuple
    f: tuple

    def __post_init__(self):
        if not any(self.v) or not any(self.f):
            raise ValueError("v and f must be nonzero")
        if self.field.dot(self.f, self.v):
            raise ValueError("transvection needs f(v) = 0")

    def matrix(self):
        F = self.field
        ident = MatFq.identity(F, len(self.v)).rows
        return MatFq(F, [F.axpy(c, self.f, row) for c, row in zip(self.v, ident)])


def projective_vectors(dim, field):
    """One representative per line: first nonzero coordinate equals 1."""
    for code in range(1, field.q ** dim):
        v = base_digits(code, field.q, dim)
        if next(filter(None, v)) == 1:
            yield v


def annihilator_basis(v, field):
    """Basis of {f : f(v) = 0} in the dual, given v != 0."""
    F = field
    n = len(v)
    j = next(i for i, c in enumerate(v) if c)
    inv = F.inv(v[j])
    basis = []
    for i in range(n):
        if i == j:
            continue
        f = [0] * n
        f[i] = 1
        f[j] = F.neg(F.mul(v[i], inv))
        basis.append(tuple(f))
    return basis


def all_transvections(dim, field):
    """Every transvection of GL_dim(F_q) exactly once.

    (v, f) and (cv, f/c) give the same map, so v runs over projective
    representatives and f over all nonzero annihilator functionals.
    """
    for v in projective_vectors(dim, field):
        basis = annihilator_basis(v, field)
        for code in range(1, field.q ** len(basis)):
            f = _combination(field, base_digits(code, field.q, len(basis)), basis, [0] * dim)
            yield Transvection(field, v, f)


def transvection_count(dim, q):
    """(q^dim - 1)(q^(dim-1) - 1)/(q - 1)."""
    return (q ** dim - 1) * (q ** (dim - 1) - 1) // (q - 1)


def symplectic_transvection_count(dim, q):
    """q^dim - 1: maps of the shape I + a.v.omega(v, .)."""
    return q ** dim - 1


def sample_transvection(n, field, rng):
    """Uniform transvection on F_q^(2n).

    Each transvection arises from exactly q-1 pairs (v, f), so drawing v
    uniform nonzero and f uniform nonzero in the annihilator of v is
    uniform over transvections.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    F, q, dim = field, field.q, 2 * n
    while True:
        v = tuple(rng.randrange(q) for _ in range(dim))
        if any(v):
            break
    basis = annihilator_basis(v, F)
    while True:
        coeffs = [rng.randrange(q) for _ in basis]
        if any(coeffs):
            break
    return Transvection(F, v, _combination(F, coeffs, basis, [0] * dim))


def _combination(F, coeffs, vectors, start):
    """start + sum of c_i vectors_i, as a tuple."""
    for c, vec in zip(coeffs, vectors):
        if c:
            start = F.axpy(c, vec, start)
    return tuple(start)


# ---------------------------------------------------------------------------
# Uniform symplectic group sampling
# ---------------------------------------------------------------------------

def sample_symplectic(n, field, rng):
    """Uniform element of Sp_2n(F_q) w.r.t. the standard form.

    Builds a uniformly random symplectic basis pair by pair: e_i uniform
    nonzero in the current orthogonal complement W, f_i uniform among
    vectors of W pairing to 1 with e_i.  The symplectic group acts simply
    transitively on symplectic bases, so the output is uniform.
    """
    F, q, N = field, field.q, 2 * n
    basis = MatFq.identity(F, N).rows
    es, fs = [], []
    for _ in range(n):
        while True:
            coeffs = [rng.randrange(q) for _ in basis]
            if any(coeffs):
                break
        e = _combination(F, coeffs, basis, [0] * N)  # uniform nonzero in W
        f0, kernel = _complement_step(F, e, basis)  # f: f0 + uniform kernel vector
        f = _combination(F, [rng.randrange(q) for _ in kernel], kernel, f0)
        # e lies in the span of kernel and omega(f, e) = -1, so a pivot exists
        _, basis = _complement_step(F, f, kernel)
        es.append(e)
        fs.append(f)
    return MatFq(F, zip(*es, *fs))


def _complement_step(F, x, basis):
    """Split a basis of W against omega(x, .), which must not vanish on W.

    u is the first basis vector pairing nonzero with x, scaled so that
    omega(x, u) = 1; rest holds every other basis vector b minus
    omega(x, b) u, a basis of the vectors of W orthogonal to x.
    """
    n = len(x) // 2
    xj = [F.neg(a) for a in x[n:]] + list(x[:n])  # omega(x, b) = xj . b
    pair = [F.dot(xj, b) for b in basis]
    piv = next(i for i, c in enumerate(pair) if c)
    u = F.axpy(F.inv(pair[piv]), basis[piv], [0] * len(x))
    rest = [F.axpy(F.neg(c), u, b) for i, (c, b) in enumerate(zip(pair, basis)) if i != piv]
    return u, rest


# ---------------------------------------------------------------------------
# Characteristic polynomial and class invariants
# ---------------------------------------------------------------------------

def charpoly(M: MatFq) -> PolyFq:
    """det(xI - M) by the Berkowitz algorithm (division-free)."""
    if not M.is_square:
        raise DimensionMismatchError("charpoly of non-square matrix")
    F = M.field
    n = M.nrows
    rows = M.rows
    # v holds coefficients of the char poly of the leading k x k block,
    # highest degree first.
    v = [1, F.neg(rows[0][0])]
    for k in range(1, n):
        a = rows[k][k]
        R = rows[k][:k]
        C = [rows[i][k] for i in range(k)]
        sub = [rows[i][:k] for i in range(k)]
        # Toeplitz column: 1, -a, -(R C), -(R sub C), ..., -(R sub^(k-1) C)
        col = [1, F.neg(a)]
        w = list(C)
        for j in range(k):
            if j > 0:
                w = [F.dot(sub[i], w) for i in range(k)]
            col.append(F.neg(F.dot(R, w)))
        # v' = T v for the (k+2) x (k+1) lower-triangular Toeplitz T
        v = [F.dot(col[i::-1], v) for i in range(k + 2)]
    return PolyFq(F, list(reversed(v)))


def factor_poly(poly: PolyFq):
    """Factor a polynomial over F_q into (monic irreducible, multiplicity)
    pairs sorted by (degree, coeffs), in time polynomial in log q.

    Distinct-degree split: with every factor of degree below d divided out,
    gcd(rem, x^(q^d) - x) is the product of the distinct degree-d factors
    of rem.  Once deg(rem) < 2(d + 1), rem is 1 or irreducible.
    """
    F = poly.field
    x = x_qd = PolyFq.x(F)  # x_qd: x^(q^d) mod rem
    rem = poly.monic()
    factors = []
    d = 0
    while rem.degree >= 2 * (d + 1):
        d += 1
        x_qd = x_qd.pow_mod(F.q, rem)
        for f in _equal_degree_split(rem.gcd(x_qd - x), d):
            mult = 0
            while (qr := divmod(rem, f))[1].is_zero:
                rem, mult = qr[0], mult + 1
            factors.append((f, mult))
    if rem.degree >= 1:
        factors.append((rem, 1))
    return sorted(factors, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def _equal_degree_split(g, d):
    """The factors of g, a monic product of distinct degree-d irreducibles.

    r splits g when gcd(g, t) is a proper factor (Cantor-Zassenhaus).  For
    odd q, t = r^((q^d - 1)/2) - 1 and r runs through the base-q counter
    from x.  For q = 2^k, t = sum of r^(2^i), i < kd, is F_2-linear in r and
    equal at every factor for constant r, so r = theta^i x^j (theta^i the
    code 2^i, 0 < j < deg g) suffice: with the constants they span F_q[x]/g.
    """
    if g.degree <= d:
        return [g] if g.degree == d else []
    F, m = g.field, g.degree
    if F.p == 2:
        rs = (PolyFq(F, (0,) * j + (2 ** i,)) for j in range(1, m) for i in range(F.k))
    else:
        rs = (PolyFq(F, base_digits(c, F.q, m)) for c in range(F.q, F.q ** m))
    for r in rs:
        if F.p == 2:  # t_1 = r, t_(j+1) = r + t_j^2
            t = r
            for _ in range(F.k * d - 1):
                t = r + t * t % g
        else:
            t = r.pow_mod((F.q ** d - 1) // 2, g) - PolyFq.one(F)
        h = g.gcd(t)
        if 0 < h.degree < m:
            return _equal_degree_split(h, d) + _equal_degree_split(g // h, d)
    raise InternalError(f"no candidate splits {g} into degree-{d} factors")


@dataclass(frozen=True)
class ClassInvariant:
    """Per irreducible factor f of the characteristic polynomial, the
    partition of primary (Jordan) block sizes.  A complete conjugacy
    invariant for invertible matrices."""

    entries: tuple  # of (PolyFq, partition tuple), sorted

    def degree_partition_pairs(self):
        return tuple((f.degree, lam) for f, lam in self.entries)

    def total_weight(self):
        return sum(f.degree * sum(lam) for f, lam in self.entries)


def partition_from_rank_sequence(ranks, d):
    """Block-size partition from r_j = rank(f(X)^j), r_0 = dimension.

    The number of parts of size >= j is (r_(j-1) - r_j)/d.
    """
    parts_ge = []
    for j in range(1, len(ranks)):
        diff = ranks[j - 1] - ranks[j]
        if diff % d:
            raise InternalError("rank drop not divisible by factor degree")
        parts_ge.append(diff // d)
    lam = []
    for j, cnt in enumerate(parts_ge, start=1):
        nxt = parts_ge[j] if j < len(parts_ge) else 0
        lam.extend([j] * (cnt - nxt))
    return tuple(sorted(lam, reverse=True))


def class_invariant(X: MatFq) -> ClassInvariant:
    """Recover block-size partitions from rank sequences of f(X)^j."""
    if not X.is_square:
        raise DimensionMismatchError("class invariant of non-square matrix")
    N = X.nrows
    cp = charpoly(X)
    if cp.coeffs[0] == 0:
        raise NotInvertibleError("matrix has eigenvalue 0")
    entries = []
    for f, mult in factor_poly(cp):
        d = f.degree
        fX = _eval_poly_at_matrix(f, X)
        ranks = [N]
        power = fX
        while True:
            r = power.rank()
            ranks.append(r)
            if r == 0 or ranks[-1] == ranks[-2]:
                break
            power = power * fX
        lam = partition_from_rank_sequence(ranks, d)
        if sum(lam) != mult:
            raise InternalError("partition weight disagrees with factor multiplicity")
        entries.append((f, lam))
    inv = ClassInvariant(tuple(entries))  # factor_poly's order
    if inv.total_weight() != N:
        raise InternalError("class invariant weight mismatch")
    return inv


def _eval_poly_at_matrix(poly: PolyFq, X: MatFq) -> MatFq:
    F = X.field
    n = X.nrows
    acc = MatFq.zeros(F, n)
    ident = MatFq.identity(F, n)
    for c in reversed(poly.coeffs):
        acc = acc * X
        if c:
            acc = acc + ident.scale(c)
    return acc
