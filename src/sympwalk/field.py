"""Finite fields F_q (q = p^k) and univariate polynomials over them.

An element of F_{p^k} is stored as an integer code in [0, q): the residue
class with coefficient vector (c_0, ..., c_{k-1}) in the power basis has
code sum(c_i * p**i).  For prime fields the code is the residue itself.
The modulus is the first monic polynomial of degree k, in lexicographic
order, that the Rabin test `is_irreducible` accepts over the prime field,
so codes mean the same thing across runs.  `PolyFq` is the one polynomial
arithmetic: over the prime field it also selects and checks the modulus
and serves as the oracle for the multiplication tables.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import (
    DivisionByZeroError,
    EnumerationTooLargeError,
    FieldTooLargeError,
    NotPrimeError,
    int_text,
)

DEFAULT_MAX_FIELD_SIZE = 2 ** 20
ENUMERATION_CAP = 2 ** 24
_TABLE_LIMIT = 256


def _factorize(n):
    """{p: e} for n >= 1, by trial division."""
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _factorize(n) == {n: 1}


def base_digits(code, base, length):
    """The first `length` base-`base` digits of code, low to high."""
    out = []
    for _ in range(length):
        code, d = divmod(code, base)
        out.append(d)
    return tuple(out)


class FieldSpec:
    """A finite field F_{p^k} with fixed modulus; immutable and shareable.

    All arithmetic operates on integer codes in [0, q).
    """

    def __init__(self, p, k, modulus):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k > 1:
            self._modulus_poly = PolyFq(FieldSpec(p, 1, (0, 1)), modulus)
            if not is_irreducible(self._modulus_poly):
                raise ValueError("modulus is reducible")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self._add_table = None
        self._neg_table = None
        self._mul_table = None
        self._inv_table = None
        if self.k > 1 and self.q <= _TABLE_LIMIT:
            self._build_tables()

    def __repr__(self):
        return f"FieldSpec(p={self.p}, k={self.k})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    # -- code <-> coefficient vector ---------------------------------------

    def decode(self, a):
        """Coefficient tuple (low-to-high, length k) of the code a."""
        return base_digits(a, self.p, self.k)

    def encode(self, coeffs):
        a = 0
        for c in reversed(list(coeffs)[: self.k]):
            a = a * self.p + (c % self.p)
        return a

    def elements(self):
        return range(self.q)

    # -- arithmetic on codes ------------------------------------------------

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_slow(a, b)

    def _add_slow(self, a, b):
        return self.encode([x + y for x, y in zip(self.decode(a), self.decode(b))])

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._neg_slow(a)

    def _neg_slow(self, a):
        return self.encode([-x for x in self.decode(a)])

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a, b):
        prime = self._modulus_poly.field
        prod = PolyFq(prime, self.decode(a)) * PolyFq(prime, self.decode(b))
        return self.encode((prod % self._modulus_poly).coeffs)

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroError("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    # -- arithmetic on vectors of codes --------------------------------------

    def dot(self, a, b):
        """sum of a_i b_i over F_q."""
        if self.k == 1:
            return sum(map(operator.mul, a, b)) % self.p
        add, mul = self.add, self.mul
        acc = 0
        for x, y in zip(a, b):
            if x and y:
                acc = add(acc, mul(x, y))
        return acc

    def axpy(self, c, x, y):
        """The vector y + c x, formed in one pass."""
        if self.k == 1:
            p = self.p
            return [(b + c * a) % p for a, b in zip(x, y)]
        if self._mul_table is not None:
            add, c_times = self._add_table, self._mul_table[c]
            return [add[b][c_times[a]] for a, b in zip(x, y)]
        add, mul = self.add, self.mul
        return [add(b, mul(c, a)) for a, b in zip(x, y)]

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def _build_tables(self):
        p, q = self.p, self.q
        digits = np.array([self.decode(a) for a in range(q)], dtype=np.int64)
        place = p ** np.arange(self.k, dtype=np.int64)
        self._add_table = ((digits[:, None] + digits[None]) % p @ place).tolist()
        self._neg_table = (-digits % p @ place).tolist()
        # log/antilog tables of a generator g: q - 1 products instead of q^2
        for g in range(2, q):
            exp = [1, g]  # g^0, g^1, ... up to the first return to 1
            while exp[-1] != 1:
                exp.append(self._mul_slow(exp[-1], g))
            if len(exp) == q:  # g has order q - 1: it generates
                break
        exp = exp[:-1] * 2
        log = [0] * q
        for e in range(q - 1):
            log[exp[e]] = e
        self._mul_table = [[0] * q] + [
            [0] + [exp[log[a] + log[b]] for b in range(1, q)] for a in range(1, q)
        ]
        self._inv_table = [0] + [exp[q - 1 - log[a]] for a in range(1, q)]


_FIELD_CACHE = {}


def build_field(p, k):
    """Return F_{p^k} with the deterministic (lex-smallest irreducible) modulus.

    Instances are cached per (p, k): FieldSpec is immutable, so sharing is
    safe across threads and workers.
    """
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    # p >= 2 gives p^k >= 2^k, so a large k exceeds the cap before p^k is formed
    if p > 1 and (k >= DEFAULT_MAX_FIELD_SIZE.bit_length() or p ** k > DEFAULT_MAX_FIELD_SIZE):
        raise FieldTooLargeError(f"q = {int_text(p)}^{int_text(k)} exceeds cap {DEFAULT_MAX_FIELD_SIZE}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    key = (p, k)
    if key not in _FIELD_CACHE:
        modulus = (0, 1)  # the polynomial x
        if k > 1:
            modulus = next(_irreducibles(build_field(p, 1), k)).coeffs
        _FIELD_CACHE[key] = FieldSpec(p, k, modulus)
    return _FIELD_CACHE[key]


def field_from_order(q):
    """Return F_q for a prime power q."""
    if q < 2:
        raise ValueError("field order must be >= 2")
    if q > DEFAULT_MAX_FIELD_SIZE:
        raise FieldTooLargeError(f"q = {int_text(q)} exceeds cap {DEFAULT_MAX_FIELD_SIZE}")
    factors = _factorize(q)
    if len(factors) != 1:
        raise NotPrimeError(f"{q} is not a prime power")
    ((p, k),) = factors.items()
    return build_field(p, k)


class PolyFq:
    """Univariate polynomial over F_q; coefficients are codes, low-to-high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, PolyFq)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def _combine(self, c, other):
        """self + c other (FieldSpec.axpy over other's coefficients)."""
        m = len(other.coeffs)
        out = list(self.coeffs) + [0] * (m - len(self.coeffs))
        out[:m] = self.field.axpy(c, other.coeffs, out)
        return PolyFq(self.field, out)

    def __add__(self, other):
        return self._combine(1, other)

    def __sub__(self, other):
        return self._combine(self.field.neg(1), other)

    def __mul__(self, other):
        """One axpy per coefficient of the shorter factor."""
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        axpy, out = self.field.axpy, [0] * max(0, len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + len(b)] = axpy(c, b, out[i:])
        return PolyFq(self.field, out)

    def scale(self, c):
        F = self.field
        return PolyFq(F, [F.mul(c, a) for a in self.coeffs])

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __divmod__(self, other):
        if other.is_zero:
            raise DivisionByZeroError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dd = other.degree
        lead_inv = F.inv(other.coeffs[-1])
        quot = [0] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            c = F.mul(rem[-1], lead_inv)
            shift = len(rem) - 1 - dd
            if c:
                quot[shift] = c
                rem[shift:] = F.axpy(F.neg(c), other.coeffs, rem[shift:])
            rem.pop()
        return PolyFq(F, quot), PolyFq(F, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def pow_mod(self, e, mod):
        """self^e mod `mod`, square-and-multiply from the top bit of e."""
        if not e:
            return PolyFq.one(self.field)
        base = self % mod
        result = base
        for bit in bin(e)[3:]:
            result = (result * result) % mod
            if bit == "1":
                result = (result * base) % mod
        return result

    def __call__(self, a):
        """Evaluate at the code a (Horner)."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc

    def __repr__(self):
        if self.is_zero:
            return "PolyFq(0)"
        terms = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "PolyFq(" + "+".join(terms) + ")"


def is_irreducible(poly: PolyFq) -> bool:
    """Rabin irreducibility test over F_q (monic input, degree >= 1)."""
    if poly.degree < 1:
        return False
    if poly.degree == 1:
        return True
    F = poly.field
    q = F.q
    d = poly.degree
    x = PolyFq.x(F)
    t = x.pow_mod(q ** d, poly)
    if t != x % poly:
        return False
    for r in _factorize(d):
        t = x.pow_mod(q ** (d // r), poly)
        g = poly.gcd(t - x)
        if g.degree >= 1:
            return False
    return True


def irreducible_count(q, d, exclude_x=False):
    """Number of monic irreducibles of degree d over F_q (necklace formula)."""
    mu = {1: 1}  # squarefree divisor e of d -> Moebius mu(e)
    for r in _factorize(d):
        mu.update({e * r: -m for e, m in mu.items()})
    count = sum(m * q ** (d // e) for e, m in mu.items()) // d
    if d == 1 and exclude_x:
        count -= 1
    return count


def enumerate_irreducibles(field, d, exclude_x=False):
    """All monic irreducible polynomials of degree d over F_q, lex order.

    With exclude_x set and d == 1 the polynomial x is omitted (its root 0
    is not a unit, so it never labels an invertible-matrix orbit).
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    # q >= 2 gives q^d >= 2^d, so a large d exceeds the cap before q^d is formed
    if d >= ENUMERATION_CAP.bit_length() or field.q ** d > ENUMERATION_CAP:
        raise EnumerationTooLargeError(f"q^d = {field.q}^{int_text(d)} exceeds cap {ENUMERATION_CAP}")
    return [f for f in _irreducibles(field, d) if not (exclude_x and f.coeffs == (0, 1))]


def _irreducibles(field, d):
    """Monic irreducibles of degree d over F_q, lazily, in lex order.

    Candidates are ordered by their low-to-high coefficient tuple read as a
    base-q counter, which makes the first one a reproducible modulus.
    """
    q = field.q
    for code in range(q ** d):
        if d > 1 and code % q == 0:
            continue  # constant term 0: divisible by x
        poly = PolyFq(field, (*base_digits(code, q, d), 1))
        if is_irreducible(poly):
            yield poly
