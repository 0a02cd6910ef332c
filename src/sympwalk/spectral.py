"""Eigenvalues of the non-symplectic transvection walk on symplectic forms.

The walk's transition operator is diagonalized by the zonal/spherical
decomposition of GL_2n(F_q)/Sp_2n(F_q): one eigenvalue phi_lam per
partition-valued label lam of weight n, with multiplicity d_(lam u lam).

Three routes give phi and must agree exactly:

* eigenvalue_phi -- phi depends only on the label's degree-1 partitions,
  through R = sum of q^(2i-j) over their boxes (i, j): a q-analogue of
  the content sum of the Diaconis-Holmes walk on matchings (q = 1).
  phi_of_degree_one_parts is that closed form, in integers, memoised;
* eigenvalue_phi_global -- oracle: the Macdonald-type arm/leg formula at
  (q, t = q^2), summed over single-box removals in its c'-ratio form;
* eigenvalue_via_lift -- oracle: the character ratio of GL_2n at a
  transvection, pushed through the affine relation T = aS + bI between
  the two walks.

The oracles recompute every label's terms on every call.

All arithmetic is exact (Fraction); signs are carried, never stripped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinat import (
    PartitionFn,
    check_weight,
    conjugate,
    dim_irrep,
    doubled_dim_irrep,
    enumerate_partition_fns,
    psi_factor,
    remove_corner,
    removable_corners,
)
from .errors import NotSingleBoxError


def proportions_a_b(n, q):
    """(a, b): proportions of transvections that are non-symplectic resp.
    symplectic relative to a fixed form on F_q^(2n).  a + b = 1."""
    a = Fraction(q * (q ** (2 * n - 2) - 1), q ** (2 * n - 1) - 1)
    b = Fraction(q - 1, q ** (2 * n - 1) - 1)
    return a, b


# ---------------------------------------------------------------------------
# Macdonald-type factors at (q, t = q^2)
# ---------------------------------------------------------------------------

def macdonald_cprime(lam, q) -> Fraction:
    """c'_lam(q, q^2) = prod over boxes (1 - q^(a+1) t^l), t = q^2."""
    conj = conjugate(lam)
    out = 1
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            out *= 1 - q ** (part - j + 1 + 2 * (conj[j - 1] - i))
    return Fraction(out)


def _b_factor(a, l, q) -> Fraction:
    """b_lam(s; q, q^2) = (1 - q^a t^(l+1)) / (1 - q^(a+1) t^l) at a box s
    of arm a and leg l."""
    return Fraction(1 - q ** (a + 2 * l + 2), 1 - q ** (a + 1 + 2 * l))


def psi_prime(lam, mu, q) -> Fraction:
    """psi'_(lam/mu) for a single-box skew, at (q, t = q^2).

    The product runs over boxes in the column of the removed box but not
    its row, i.e. the boxes directly above the removed corner.
    """
    diff = [
        (i, j)
        for i in range(1, len(lam) + 1)
        for j in range(1, lam[i - 1] + 1)
        if i > len(mu) or j > mu[i - 1]
    ]
    if len(diff) != 1:
        raise NotSingleBoxError(f"skew {lam}/{mu} is not a single box")
    (ri, rj) = diff[0]
    conj_lam = conjugate(lam)  # the leg of box (i, j) is conj[j - 1] - i
    conj_mu = conjugate(mu)
    out = Fraction(1)
    for i in range(1, ri):
        # box (i, rj) lies above the removed corner
        out *= _b_factor(lam[i - 1] - rj, conj_lam[rj - 1] - i, q) / _b_factor(
            mu[i - 1] - rj, conj_mu[rj - 1] - i, q
        )
    return out


# ---------------------------------------------------------------------------
# The eigenvalue formula (both forms)
# ---------------------------------------------------------------------------

def _degree_one_removals(lam_fn: PartitionFn):
    """All single-box removals from degree-1 entries.

    Entries repeat when distinct orbits carry equal partitions; each copy
    is a distinct reduced label and contributes its own term.  Only the
    affected partition matters to the ratios below; every other factor of
    the label cancels.
    """
    for idx in lam_fn.degree_one_indices():
        _, part = lam_fn.entries[idx]
        for corner in removable_corners(part):
            yield idx, part, corner, remove_corner(part, corner)


def _term_global(part, corner, reduced, q) -> Fraction:
    """c'-ratio form of one removal term (without the leading prefactor)."""
    i, j = corner
    ratio = (
        macdonald_cprime(part, q)
        * psi_prime(part, reduced, q)
        / (macdonald_cprime(reduced, q) * (1 - Fraction(q)))
    )
    return ratio * Fraction(q) ** (1 - j)


@lru_cache(maxsize=None)
def _prefactor(n, q) -> Fraction:
    """q^(2n-2)(q^2-1) / ((q^2n-1)(q^(2n-2)-1)), in front of every corner sum."""
    return Fraction(
        q ** (2 * n - 2) * (q * q - 1),
        (q ** (2 * n) - 1) * (q ** (2 * n - 2) - 1),
    )


@lru_cache(maxsize=None)
def content_sum(part, n, q) -> int:
    """q^(n-1) R, R the sum of q^(2i-j) over the boxes (i, j) of part, 0-indexed; R adds over parts.
    Row i gives q^(2i) tails[part_i], added by Horner's rule in q^2; |part| <= n."""
    tails, power = [0], q ** n  # tails[r] = q^(n-1) + ... + q^(n-r)
    for _ in range(part[0] if part else 0):
        power //= q
        tails.append(tails[-1] + power)
    out, q2 = 0, q * q
    for row in reversed(part):
        out = out * q2 + tails[row]
    return out


def phi_denominator(n, q) -> int:
    """D = (q^2n-1)(q^(2n-2)-1): each phi of weight n >= 2 is an integer over D."""
    return (q ** (2 * n) - 1) * (q ** (2 * n - 2) - 1)


def phi_numerator(r, n, q) -> int:
    """D phi = (q^2-1) q^(2n-2) R - (q^2n-1) for degree-1 parts of content_sum r, n >= 2."""
    return (q * q - 1) * q ** (n - 1) * r - (q ** (2 * n) - 1)


@lru_cache(maxsize=None)
def phi_of_degree_one_parts(degree_one_parts, n, q) -> Fraction:
    """phi of every label of weight n whose degree-1 partitions are
    degree_one_parts (PartitionFn.degree_one_parts), from their content sum.
    At n = 1 every transvection of GL_2 is symplectic, and phi is 1."""
    if n == 1:
        return Fraction(1)
    r = sum(content_sum(part, n, q) for part in degree_one_parts)
    return Fraction(phi_numerator(r, n, q), phi_denominator(n, q))


def eigenvalue_phi(lam_fn: PartitionFn, n, q) -> Fraction:
    """Walk eigenvalue phi for the label lam_fn of weight n.

    The closed form of the module docstring, memoised.
    """
    check_weight(lam_fn, n)
    return phi_of_degree_one_parts(lam_fn.degree_one_parts(), n, q)


def eigenvalue_phi_global(lam_fn: PartitionFn, n, q) -> Fraction:
    """Oracle: phi from the c'/psi' ratio form of each removal term.

    Algebraically equal to eigenvalue_phi and tested as such; recomputed
    on every call.
    """
    check_weight(lam_fn, n)
    if n == 1:
        return Fraction(1)
    total = Fraction(q ** (2 * n) - 1, q ** (2 * n - 2) * (1 - q * q))
    for _, part, corner, reduced in _degree_one_removals(lam_fn):
        total += _term_global(part, corner, reduced, q)
    return _prefactor(n, q) * total


# ---------------------------------------------------------------------------
# Character-ratio route (transvection walk on GL_N)
# ---------------------------------------------------------------------------

def _delta(lam_fn: PartitionFn, q) -> Fraction:
    """prod_phi q_phi^(n(lam(phi)')) / H_(lam(phi))(q_phi) = d_lam / psi_N(q)."""
    return Fraction(dim_irrep(lam_fn, q), psi_factor(lam_fn.weight, q))


def char_ratio_transvection(lam_fn: PartitionFn, N, q) -> Fraction:
    """chi_lam(transvection)/d_lam for a label of weight N on GL_N(F_q).

    Sum over single-box removals from degree-1 entries of
    delta(lam_1) / ((q-1) delta(lam)), minus (q^N - 1)/(q^(N-1)(q-1)),
    times q^(N-1)(q-1) / ((q^N - 1)(q^(N-1) - 1)).
    """
    check_weight(lam_fn, N)
    dl = _delta(lam_fn, q)
    total = Fraction(0)
    for idx, part, corner, _ in _degree_one_removals(lam_fn):
        reduced_fn = lam_fn.replace_partition(idx, remove_corner(part, corner))
        total += _delta(reduced_fn, q) / ((q - 1) * dl)
    const = Fraction(q ** N - 1, q ** (N - 1) * (q - 1))
    pref = Fraction(q ** (N - 1) * (q - 1), (q ** N - 1) * (q ** (N - 1) - 1))
    return pref * (total - const)


def eigenvalue_via_lift(lam_fn: PartitionFn, n, q) -> Fraction:
    """phi via the doubled label: (1/a) chi(transvection)/d - b/a.

    Independent of eigenvalue_phi except for shared partition plumbing;
    exact agreement between the two is the primary anti-bug oracle.
    """
    check_weight(lam_fn, n)
    if n == 1:
        return Fraction(1)
    a, b = proportions_a_b(n, q)
    ratio = char_ratio_transvection(lam_fn.doubled(), 2 * n, q)
    return (ratio - b) / a


# ---------------------------------------------------------------------------
# Bounds on individual eigenvalues
# ---------------------------------------------------------------------------

def eigenvalue_floor(n, q) -> Fraction:
    """Lower bound -1/(q^(2n-2) - 1) valid for every label."""
    return Fraction(-1, q ** (2 * n - 2) - 1)


def corner_bound(lam_fn: PartitionFn, n, q) -> Fraction:
    """Upper bound from removable corners:

    phi <= pref * sum over degree-1 corners (i, j) of
           (q^(2i) - 1)(q^j - 1) / (q^(j-1) (q-1)(q^2-1)).
    """
    check_weight(lam_fn, n)
    total = Fraction(0)
    for _, part, (i, j), _reduced in _degree_one_removals(lam_fn):
        total += Fraction(
            (q ** (2 * i) - 1) * (q ** j - 1),
            q ** (j - 1) * (q - 1) * (q * q - 1),
        )
    return _prefactor(n, q) * total


# ---------------------------------------------------------------------------
# Full spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralLine:
    """One eigenvalue line: its label type, exact value, the dimension
    d_(lam u lam) it carries, and how many concrete labels share it."""

    lam: PartitionFn
    phi: Fraction
    multiplicity: int
    type_count: int


def spectrum(n, q):
    """All eigenvalue lines for given (n, q), sorted by descending phi.

    For n = 1 the walk is trivial (SL_2 = Sp_2, every transvection is
    symplectic): the single line is the trivial one.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lines = [
        SpectralLine(
            fn, phi_of_degree_one_parts(fn.degree_one_parts(), n, q), doubled_dim_irrep(fn, q), cnt
        )
        for fn, cnt in enumerate_partition_fns(n, q)
    ]
    lines.sort(key=lambda line: (-line.phi, line.lam.entries))
    return lines


def trivial_label(n):
    """The label of the trivial character: (1^n) at one degree-1 orbit."""
    return PartitionFn.make([(1, (1,) * n)])
