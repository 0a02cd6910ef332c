"""Total-variation upper and lower bounds for the walk, evaluated exactly.

The upper bound is the spectral sum  sqrt( (1/4) sum' d_(lam u lam)
|phi_lam|^(2k) )  where the primed sum drops the trivial label and every
label supported on a single degree-1 orbit carrying (1^n) -- those lift to
one-dimensional determinant characters whose randomness is supplied by the
initial diagonal twist, not by the transvection steps.

The lower bound comes from a support estimate: after n-c steps the walk
sits inside the double cosets whose class label has at least c parts at
the polynomial x - 1, and the total mass of those cosets is exponentially
small in c.  The masses are the t^n coefficient of the cycle index of
GL_n (Fulman), x - 1 carrying c parts, in integers (_fixed_space_masses):
each degree's free orbits raise their series to the orbit count as a
binomial sum truncated at t^n.

The spectral sum reads one summary per (n, q), made in one pass over the
label types (_label_pass): the number of types and the largest bit length
of any phi price exact rows, which sum per distinct phi over one
denominator; logfloat rows sum per type from two float arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .combinat import (
    _centralizer_factor,
    _checked_dim,
    _doubled_dim_factor,
    _walk_types,
    check_enumeration_cap,
    gl_order,
    orbit_count,
    partitions_of,
    sp_order,
)
from .errors import (
    ExactArithmeticTooLargeError,
    NonIntegerResultError,
    StepRangeTooLargeError,
    int_text,
)
from .field import field_from_order
from .spectral import content_sum, phi_denominator, phi_numerator, trivial_label

EXACT_MODE_MAX_N = 8
# Exact mode is priced per label type (_exact_work), as when each type added a
# Fraction: at 4e11 one call took 0.3-1 s up to (n, q) = (8, 4) on a 2-CPU host.
# Per distinct phi it costs less; repricing would flip auto modes and digests.
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


def _log_int(x: int) -> float:
    """log of a positive big integer without float overflow."""
    if x <= 0:
        raise ValueError("log of non-positive integer")
    shift = max(0, x.bit_length() - 53)
    return math.log(x >> shift) + shift * math.log(2)


def _log_fraction_abs(fr: Fraction) -> float:
    return _log_int(abs(fr.numerator)) - _log_int(fr.denominator)


def _check_args(n, q, capped=True):
    """Raise, before any term is formed, for n < 1, for n beyond the
    enumeration cap (where capped), and for a q that is not a prime power."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if capped:
        check_enumeration_cap(n)
    field_from_order(q)


@lru_cache(maxsize=None)
def _label_pass(n, q):
    """(number of types, largest bit length of any phi, log arrays, phi
    masses) from one pass over the label types but the twist, (1^n) at one
    degree-1 orbit, by increasing entries.  The float64 arrays hold
    log(count x d_(lam u lam)) and log|phi| per type, in type order (no
    phi is 0: q divides the first term of phi_numerator at n >= 2, but not
    q^2n - 1); the masses are (D, ((a, m_a), ...)), each distinct
    phi = a / D with its total multiplicity.  a is taken once per degree-1
    block, and log|phi| and the bit lengths once per distinct a."""
    _check_args(n, q)
    twist = trivial_label(n).entries
    a_of, masses, weights, a_per_type = {}, {}, [], []  # degree-1 entries -> a; a -> m_a

    def add(entries, ones, cnt):
        if entries == twist:
            return
        a = a_of.get(ones)
        if a is None:
            a = a_of[ones] = phi_numerator(sum(content_sum(lam, n, q) for _, lam in ones), n, q)
        mass = cnt * _checked_dim(entries, 2 * n, [_doubled_dim_factor(d, lam, q) for d, lam in entries], q)
        masses[a] = masses.get(a, 0) + mass
        weights.append(_log_int(mass))
        a_per_type.append(a)

    _walk_types(n, q, add)
    den = phi_denominator(n, q)  # D > 0 at n >= 2; at n = 1 no type and D = 0
    bits, log_phi = 0, {}
    for a in masses:  # phi = a / D reduced, its sign on the numerator, as Fraction(a, D) is
        g = math.gcd(a, den)
        bits = max(bits, (a // g).bit_length(), (den // g).bit_length())
        log_phi[a] = _log_int(abs(a) // g) - _log_int(den // g)
    logs = np.array(weights), np.array([log_phi[a] for a in a_per_type])
    return len(weights), bits, logs, (den, tuple(masses.items()))


def _one_orbit(n, d, qq):
    """Weights 0..n of the cycle index of one orbit of degree d, split by
    the number of parts of the lam it carries: row c at w = d|lam| sums
    |GL_w(F_qq)| / a_lam(qq^d) over the lam with c parts, each term checked
    integral."""
    rows = [[0] * (n + 1) for _ in range(n // d + 1)]
    for m in range(n // d + 1):
        for lam in partitions_of(m):
            num, den = _centralizer_factor(d, lam, qq)
            size, rem = divmod(gl_order(d * m, qq) * den, qq ** (d * m) * num)
            if rem:
                raise NonIntegerResultError(f"class size not integral for {(d, lam)} at q={qq}")
            rows[len(lam)][d * m] += size
    return rows


@lru_cache(maxsize=None)
def _gl_ratios(w, qq):
    """|GL_w| / (|GL_i| |GL_(w - i)|) over F_qq for i = 0..w, each checked integral."""
    ratios = [divmod(gl_order(w, qq), gl_order(i, qq) * gl_order(w - i, qq)) for i in range(w + 1)]
    if any(rem for _, rem in ratios):
        raise NonIntegerResultError(f"some |GL_i| |GL_(w - i)| does not divide |GL_w| at w={w} q={qq}")
    return tuple(ways for ways, _ in ratios)


def _coefficient(a, b, w, qq):
    """Weight w of the product of two such series: a_i b_j |GL_w| /
    (|GL_i| |GL_j|) summed over i + j = w."""
    ways, total = _gl_ratios(w, qq), 0
    for i in range(w + 1):
        if a[i] and b[w - i]:
            total += a[i] * b[w - i] * ways[i]
    return total


def _times(a, b, qq):
    """The product of two such series, truncated at their length."""
    return [_coefficient(a, b, w, qq) for w in range(len(a))]


@lru_cache(maxsize=None)
def _fixed_space_masses(n, q, qq):
    """Per c = 0..n, the class masses sum |GL_n(F_qq)| / a_mu(qq) over the
    class labels mu of GL_n(F_q) with c parts at x - 1, with a_mu
    evaluated at parameter qq: the t^n coefficient of the cycle index in
    which x - 1 carries c parts, and the other q - 2 degree-1 orbits and
    the orbit_count(d, q) orbits of each degree d >= 2 carry anything.
    Each degree's e free orbits give (1 + x)^e, x of lowest weight d,
    taken as the truncated binomial sum of C(e, j) x^j over j <= n / d."""
    _check_args(n, q)
    fixed = _one_orbit(n, 1, qq)  # x - 1, by its number of parts
    rest = [1] + [0] * n
    for d in range(1, n + 1):
        rows = fixed if d == 1 else _one_orbit(n, d, qq)
        x = [sum(col) for col in zip(*rows[1:])]  # row 0 holds the empty lam alone
        e, factor = orbit_count(d, q) - (d == 1), [1] + [0] * n  # x - 1 is not free
        for j in range(1, min(e, n // d) + 1):
            power = _times(power, x, qq) if j > 1 else x
            factor = [f + math.comb(e, j) * p for f, p in zip(factor, power)]
        rest = _times(rest, factor, qq)
    return tuple(_coefficient(row, rest, n, qq) for row in fixed)


def _square_sum(m):
    """1^2 + ... + m^2; _square_sum(m) - _square_sum(m - 1) = m^2 for every
    integer m."""
    return m * (m + 1) * (2 * m + 1) // 6


def _steps(ks):
    """(number, largest, sum of squares) of the steps ks, a sequence; in
    closed form for a nonempty range of step 1, so that a huge range, even
    one longer than len() can count, costs nothing to assess."""
    if isinstance(ks, range) and ks.step == 1 and ks:
        return ks[-1] - ks[0] + 1, ks[-1], _square_sum(ks[-1]) - _square_sum(ks[0] - 1)
    return len(ks), max(ks, default=0), sum(k * k for k in ks)


def _exact_work(n, q, ks):
    """Estimated big-integer work of the exact spectral sums at every k in
    ks, known before any power is taken: per k, label types x size^2, with
    size = 2k x the largest bit length of any phi (see EXACT_WORK_MAX)."""
    count, bits = _label_pass(n, q)[:2]
    return count * (2 * bits) ** 2 * _steps(ks)[2]


def resolve_mode(n, q, ks, mode="auto"):
    """The mode of upper_bound_tv at every k in ks.

    "auto" is exact for n <= EXACT_MODE_MAX_N while the exact work over all
    of ks stays within EXACT_WORK_MAX (about 1 s), and logfloat otherwise.
    An explicit "exact" beyond that work raises ExactArithmeticTooLargeError,
    and any other mode raises ValueError.
    """
    if mode not in ("auto", "exact", "logfloat"):
        raise ValueError(f"mode must be auto, exact or logfloat, got {mode!r}")
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
            f"{what} at n={n} q={q} up to k={int_text(_steps(ks)[1])} needs about "
            f"{int_text(work)} units of big-integer work, beyond {int_text(EXACT_WORK_MAX)}"
        )


def check_row_work(n, q, ks):
    """Raise StepRangeTooLargeError, before any row is computed, if one
    bound row per k in ks costs more than ROW_WORK_MAX: rows x (spectral
    terms + ROW_COST_TERMS), the cost of logfloat rows.  Exact rows cost
    more, and EXACT_WORK_MAX caps them as well."""
    count, largest, _ = _steps(ks)
    work = count * (_label_pass(n, q)[0] + ROW_COST_TERMS)
    if work > ROW_WORK_MAX:
        raise StepRangeTooLargeError(
            f"{int_text(count)} bound rows at n={n} q={q} up to k={int_text(largest)} need "
            f"about {int_text(work)} units of work, beyond {int_text(ROW_WORK_MAX)}"
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
    n <= 8 within the work cap, see resolve_mode): m_a a^(2k) summed over
    the distinct phi = a / D, over 4 D^(2k).  "logfloat" adds the terms'
    exps per type, in the pass's order (relative error below 1e-9 against
    exact mode, tested for n <= 8 at q = 2 and n <= 6 at q = 3), needed
    once dimensions reach q^Theta(n^2).  Both read what _label_pass, which
    refuses a q that is not a prime power, keeps once per (n, q).  A
    positive bound never reads below sys.float_info.min, and one beyond
    the float range reads math.inf.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mode = resolve_mode(n, q, (k,), mode)
    if mode == "exact":
        den, masses = _label_pass(n, q)[3]  # at n = 1 no term, and D = 0
        sq = Fraction(sum(m * a ** (2 * k) for a, m in masses), 4 * den ** (2 * k)) if masses else Fraction(0)
        try:
            value = math.sqrt(sq)
        except OverflowError:  # sq lies beyond the float range; its root may not
            value = _exp_or_inf(_log_fraction_abs(sq) / 2)
        return BoundValue(_positive_float(value) if sq else value, sq, "exact")
    weights, log_phis = _label_pass(n, q)[2]
    if not len(weights):
        return BoundValue(0.0, None, "logfloat")
    two_k = float(2 * k) if 2 * k <= sys.float_info.max else math.inf
    with np.errstate(over="ignore"):  # every |phi| < 1: a term beyond the float range reads -inf
        logs = weights + two_k * log_phis  # each weight + 2 * k * log_phi, rounded as in Python
    top = float(logs.max())
    if top == -math.inf:
        return BoundValue(sys.float_info.min, None, "logfloat")
    acc = sum(map(math.exp, (logs - top).tolist()))  # in type order
    log_sq = top + math.log(acc) - math.log(4)
    return BoundValue(_positive_float(_exp_or_inf(log_sq / 2)), None, "logfloat")


# ---------------------------------------------------------------------------
# Support estimate and the lower bound
# ---------------------------------------------------------------------------

def support_fraction(n, q, c) -> Fraction:
    """Mass fraction (within GL_2n) of the union of double cosets whose
    label has at least c parts at x - 1.

    The double-coset masses per fixed-space dimension are integers summed
    once per (n, q); each c adds their tail and reduces one Fraction.
    """
    if not 0 <= c <= n:
        raise ValueError("need 0 <= c <= n")
    total = sum(_fixed_space_masses(n, q, q * q)[c:])
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
    lhs = sum(_fixed_space_masses(n, q, q)[c:])
    rhs = Fraction(4 * gl_order(n, q), q ** c)
    return lhs, rhs, Fraction(lhs) <= rhs


def ratio_constant_check(n, q):
    """prod_{i=1}^n (q^(2i) - 1)/(q^(2i) - q) and whether it stays <= 4.

    This is the exact constant linking the double-coset tail at parameter
    q^2 to the class tail at parameter q; it increases in n but converges.
    """
    _check_args(n, q, capped=False)
    val = Fraction(1)
    for i in range(1, n + 1):
        val *= Fraction(q ** (2 * i) - 1, q ** (2 * i) - q)
    return val, val <= 4


def negative_mass_bound(n, q, k):
    """Crude bound q^(2n^2) (q^(2n-2) - 1)^(-2k) on the negative-eigenvalue
    part of the spectral sum, plus the exact negative partial sum, taken
    and work-capped as upper_bound_tv's exact mode is; n >= 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2:
        raise ValueError(f"negative mass bound needs n >= 2, got {n}")
    _check_exact_work(n, q, (k,), "negative mass bound")
    crude = Fraction(q ** (2 * n * n), (q ** (2 * n - 2) - 1) ** (2 * k))
    den, masses = _label_pass(n, q)[3]
    return crude, Fraction(sum(m * a ** (2 * k) for a, m in masses if a <= 0), den ** (2 * k))
