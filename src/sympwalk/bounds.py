"""Total-variation upper and lower bounds for the walk, evaluated exactly.

The upper bound is the spectral sum  sqrt( (1/4) sum' d_(lam u lam)
|phi_lam|^(2k) )  where the primed sum drops the trivial label and every
label supported on a single degree-1 orbit carrying (1^n) -- those lift to
one-dimensional determinant characters whose randomness is supplied by the
initial diagonal twist, not by the transvection steps.

The lower bound comes from a support estimate: after n-c steps the walk
sits inside the double cosets whose class label has at least c parts at
the polynomial x - 1, and the total mass of those cosets is exponentially
small in c.  The masses are read off the label types that the spectral
sum enumerates: x - 1 is one of the q - 1 interchangeable degree-1 orbits,
so each type's labels split over what x - 1 carries in exact shares.

Both bounds read the one pass over the label types, spectral.label_types:
each type's count, its degree-1 partitions, its doubled dimension
d_(lam u lam) as one checked divmod of per-entry factors, and phi.  A
class size is one checked divmod as well (class_size).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinat import (
    class_size,
    class_size_qsq,
    gl_order,
    multiplicities,
    sp_order,
)
from .errors import (
    ExactArithmeticTooLargeError,
    InternalError,
    StepRangeTooLargeError,
)
from .spectral import label_types, trivial_label

EXACT_MODE_MAX_N = 8
# Exact mode costs about terms x (2k x largest bit length of phi)^2 big-int
# work; at 4e11 one call took 0.3-1 s across (n, q) up to (8, 4) on a 2-CPU host.
EXACT_WORK_MAX = 4 * 10**11
# A row of `bounds` costs about 150 ns per spectral term of a logfloat upper
# bound, plus about 15 us (ROW_COST_TERMS terms' worth) for the rest of the
# row, on a 2-CPU host across n = 3..14; ROW_WORK_MAX is about 10 s of rows.
ROW_COST_TERMS = 100
ROW_WORK_MAX = 5 * 10**7


@dataclass(frozen=True)
class BoundValue:
    """A bound with its evaluation mode.

    `squared` carries the exact rational square in exact mode (the square
    root itself is irrational); comparisons against exact TV values should
    use it.  `value` is the float square root in either mode.
    """

    value: float
    squared: Fraction | None
    mode: str


def _spectral_types(n, q):
    """The entries of label_types except the type of the labels fixed by
    the initial randomization: (1^n) at a single degree-1 orbit, the type
    of the trivial label."""
    twist = trivial_label(n).entries
    return (t for t in label_types(n, q) if t[0].entries != twist)


@lru_cache(maxsize=None)
def _spectral_terms(n, q):
    """(phi, multiplicity, count) per label type except the twist, in the
    order of enumerate_partition_fns."""
    return tuple((phi, mult, cnt) for _, cnt, _, mult, phi in _spectral_types(n, q))


def _log_int(x: int) -> float:
    """log of a positive big integer without float overflow."""
    if x <= 0:
        raise ValueError("log of non-positive integer")
    shift = max(0, x.bit_length() - 53)
    return math.log(x >> shift) + shift * math.log(2)


def _log_fraction_abs(fr: Fraction) -> float:
    return _log_int(abs(fr.numerator)) - _log_int(fr.denominator)


@lru_cache(maxsize=None)
def _log_terms(n, q):
    """(log(count * multiplicity), log|phi|) per spectral term with phi != 0,
    in the order of _spectral_terms.  log|phi| is taken once per distinct
    tuple of degree-1 partitions, the key phi is a function of (None where
    phi = 0)."""
    log_phi = {}
    out = []
    for _, cnt, parts, mult, phi in _spectral_types(n, q):
        if parts not in log_phi:
            log_phi[parts] = _log_fraction_abs(phi) if phi else None
        if log_phi[parts] is not None:
            out.append((_log_int(cnt * mult), log_phi[parts]))
    return tuple(out)


@lru_cache(maxsize=None)
def _phi_bits(n, q):
    """(number of spectral terms, largest bit length of any phi)."""
    terms = _spectral_terms(n, q)
    bits = max(
        (max(phi.numerator.bit_length(), phi.denominator.bit_length()) for phi, _, _ in terms),
        default=0,
    )
    return len(terms), bits


def _square_sum(m):
    """1^2 + ... + m^2; _square_sum(m) - _square_sum(m - 1) = m^2 for every
    integer m."""
    return m * (m + 1) * (2 * m + 1) // 6


def _steps(ks):
    """(number, largest, sum of squares) of the steps ks, a sequence; in
    closed form for a nonempty range of step 1, so that a huge range costs
    nothing to assess."""
    if isinstance(ks, range) and ks.step == 1 and ks:
        return len(ks), ks[-1], _square_sum(ks[-1]) - _square_sum(ks[0] - 1)
    return len(ks), max(ks, default=0), sum(k * k for k in ks)


def _exact_work(n, q, ks):
    """Estimated big-integer work of the exact spectral sums at every k in
    ks, known before any power is taken: per k, terms x size^2, with size =
    2k x the largest bit length of any phi."""
    count, bits = _phi_bits(n, q)
    return count * (2 * bits) ** 2 * _steps(ks)[2]


def resolve_mode(n, q, ks, mode="auto"):
    """The mode of upper_bound_tv at every k in ks.

    "auto" is exact for n <= EXACT_MODE_MAX_N while the exact work over all
    of ks stays within EXACT_WORK_MAX (about 1 s), and logfloat otherwise.
    An explicit "exact" beyond that work raises ExactArithmeticTooLargeError.
    """
    if mode == "auto":
        fits = n <= EXACT_MODE_MAX_N and _exact_work(n, q, ks) <= EXACT_WORK_MAX
        return "exact" if fits else "logfloat"
    if mode == "exact":
        _check_exact_work(n, q, ks, "exact bound without --logfloat")
    return mode


def _check_exact_work(n, q, ks, what):
    """Raise ExactArithmeticTooLargeError, before any power is taken, if the
    exact spectral sums at every k in ks exceed EXACT_WORK_MAX."""
    work = _exact_work(n, q, ks)
    if work > EXACT_WORK_MAX:
        raise ExactArithmeticTooLargeError(
            f"{what} at n={n} q={q} up to k={_steps(ks)[1]} needs about {work:.1e} "
            f"units of big-integer work, beyond {EXACT_WORK_MAX:.0e}"
        )


def check_row_work(n, q, ks):
    """Raise StepRangeTooLargeError, before any row is computed, if one
    bound row per k in ks costs more than ROW_WORK_MAX: rows x (spectral
    terms + ROW_COST_TERMS), the cost of logfloat rows.  Exact rows cost
    more, and EXACT_WORK_MAX caps them as well."""
    count, largest, _ = _steps(ks)
    work = count * (len(_spectral_terms(n, q)) + ROW_COST_TERMS)
    if work > ROW_WORK_MAX:
        raise StepRangeTooLargeError(
            f"{count} bound rows at n={n} q={q} up to k={largest} need about {work:.1e} "
            f"units of work, beyond {ROW_WORK_MAX:.0e}"
        )


def _exp_or_inf(x):
    """math.exp(x), or math.inf where that lies beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _positive_float(value):
    """A positive bound that underflows below the smallest normal float is
    reported as that float: it still bounds the true value from above."""
    return max(value, sys.float_info.min)


def upper_bound_tv(n, q, k, mode="auto") -> BoundValue:
    """Spectral upper bound on TV distance after k steps.

    mode "exact" keeps the squared bound as one Fraction (default for
    n <= 8 within the work cap, see resolve_mode); "logfloat" accumulates
    term logs in float (relative error below 1e-9 against exact mode,
    tested for n <= 8 at q = 2 and n <= 6 at q = 3), needed once
    dimensions reach q^Theta(n^2).  The terms come from the one pass over
    the label types (spectral.label_types), with log|phi| taken once per
    distinct tuple of degree-1 partitions; the logs of the weights and of
    |phi| are computed once per (n, q) and reused for every k.  A positive
    bound never reads below sys.float_info.min, and one beyond the float
    range reads math.inf.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mode = resolve_mode(n, q, (k,), mode)
    if mode == "exact":
        sq = Fraction(0)
        for phi, mult, cnt in _spectral_terms(n, q):
            sq += Fraction(cnt * mult) * phi ** (2 * k)
        sq /= 4
        try:
            value = math.sqrt(sq)
        except OverflowError:  # sq lies beyond the float range; its root may not
            value = _exp_or_inf(_log_fraction_abs(sq) / 2)
        return BoundValue(_positive_float(value) if sq else value, sq, "exact")
    logs = [weight + 2 * k * log_phi for weight, log_phi in _log_terms(n, q)]
    if not logs:
        return BoundValue(0.0, None, "logfloat")
    top = max(logs)
    acc = sum(math.exp(lg - top) for lg in logs)
    log_sq = top + math.log(acc) - math.log(4)
    return BoundValue(_positive_float(_exp_or_inf(log_sq / 2)), None, "logfloat")


# ---------------------------------------------------------------------------
# Support estimate and the lower bound
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fixed_space_masses(n, q, size_of):
    """Total size of the classes per fixed-space dimension 0..n.

    The fixed space of a class representative has the dimension of the
    number of parts of its partition at x - 1.  That is one of the q - 1
    degree-1 orbits, which the labels of a type permute among themselves:
    of its cnt labels, x - 1 carries a degree-1 partition pi in
    cnt m_pi / (q - 1) of them, m_pi the multiplicity of pi among the
    type's degree-1 entries, and nothing in cnt (q - 1 - r) / (q - 1),
    r the number of those entries.  Each share is checked integral.
    `size_of(fn, q)` is class_size_qsq (double cosets, per unit of
    |Sp_2n|) or class_size (GL_n(F_q) classes); it is evaluated once per
    class type.
    """
    masses = [0] * (n + 1)
    for fn, cnt, parts, _, _ in label_types(n, q):
        size = size_of(fn, q)
        shares = [(0, q - 1 - len(parts))]
        shares += [(len(lam), m) for lam, m in multiplicities(parts).items()]
        for dim, m in shares:
            labels, rem = divmod(cnt * m, q - 1)
            if rem:
                raise InternalError(f"{cnt} labels of {fn} at q={q} do not split over x - 1")
            masses[dim] += labels * size
    return tuple(masses)


def support_fraction(n, q, c) -> Fraction:
    """Mass fraction (within GL_2n) of the union of double cosets whose
    label has at least c parts at x - 1.

    The double-coset masses per fixed-space dimension are integers summed
    once per (n, q); each c adds their tail and reduces one Fraction.
    """
    if not 0 <= c <= n:
        raise ValueError("need 0 <= c <= n")
    total = sum(_fixed_space_masses(n, q, class_size_qsq)[c:])
    return Fraction(total * sp_order(n, q), gl_order(2 * n, q))


def lower_bound_raw(n, q, c) -> Fraction:
    """1 - q * support_fraction, not clamped (vacuous values go negative)."""
    return 1 - q * support_fraction(n, q, c)


def lower_bound_tv(n, q, c) -> Fraction:
    """Certified TV lower bound after n - c steps, clamped to [0, 1]."""
    return max(Fraction(0), lower_bound_raw(n, q, c))


def fixed_space_tail_check(n, q, c):
    """Exact check of the class-mass tail inequality at parameter q:

        sum over classes with >= c-dim fixed space of |C_mu|
            <= 4 |GL_n(F_q)| / q^c.

    Returns (lhs, rhs, ok).
    """
    if not 0 <= c <= n:
        raise ValueError("need 0 <= c <= n")
    lhs = sum(_fixed_space_masses(n, q, class_size)[c:])
    rhs = Fraction(4 * gl_order(n, q), q ** c)
    return lhs, rhs, Fraction(lhs) <= rhs


def ratio_constant_check(n, q):
    """prod_{i=1}^n (q^(2i) - 1)/(q^(2i) - q) and whether it stays <= 4.

    This is the exact constant linking the double-coset tail at parameter
    q^2 to the class tail at parameter q; it increases in n but converges.
    """
    val = Fraction(1)
    for i in range(1, n + 1):
        val *= Fraction(q ** (2 * i) - 1, q ** (2 * i) - q)
    return val, val <= 4


def negative_mass_bound(n, q, k):
    """Crude bound q^(2n^2) (q^(2n-2) - 1)^(-2k) on the negative-eigenvalue
    part of the spectral sum, plus the exact negative partial sum.  Its work
    is capped as upper_bound_tv's exact mode is."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_exact_work(n, q, (k,), "negative mass bound")
    crude = Fraction(q ** (2 * n * n), (q ** (2 * n - 2) - 1) ** (2 * k))
    exact = Fraction(0)
    for phi, mult, cnt in _spectral_terms(n, q):
        if phi <= 0:
            exact += Fraction(cnt * mult) * abs(phi) ** (2 * k)
    return crude, exact
