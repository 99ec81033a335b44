"""Exact arithmetic over cyclotomic fields Q(zeta_N).

Every scalar is a rational linear combination of powers of a fixed primitive
N-th root of unity zeta_N, stored in the power basis

    { zeta_N^k : 0 <= k < phi(N) }

reduced modulo the N-th cyclotomic polynomial.  The coefficient vector is an
integer tuple over a single positive denominator, with the content gcd
divided out, so the representation of a given field element is unique and
equality is tuple comparison.  All field operations are exact; a floating
point embedding at zeta_N = exp(2*pi*i/N) exists only for the positivity
checks that are analytic rather than algebraic.

Scalars of different orders interoperate by lifting to the lcm of the two
orders (Q(zeta_N) embeds in Q(zeta_M) whenever N divides M).

There are two constructors.  `Scalar(order, num, den)` validates and
reduces parsed or hand-built input (`from_json`, `from_int`, `rational`,
...) and raises InputError on a malformed vector.  Arithmetic results go
through `_reduced` (`_ratio` when phi = 1): an integer vector over a
positive denominator, one gcd, and the slots set on `Scalar.__new__`.  The
zero comes out with den 1 there, since gcd(den, 0, ..., 0) = den.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError, InputError

_new = object.__new__  # Scalar.__new__, looked up once


def _poly_exact_div(num: list[int], den) -> list[int]:
    # Synthetic division of integer polynomials; den monic up to +-1 lead.
    num = list(num)
    den = list(den)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % lead:
            raise ArithmeticError("inexact polynomial division")
        q = c // lead
        out[i] = q
        if q:
            for j, d in enumerate(den):
                num[i + j] -= q * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, monic."""
    if n < 1:
        raise InputError(f"order must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class _Context:
    """Per-order tables: reduction rows for zeta^j and all powers zeta^m."""

    __slots__ = ("order", "phi", "powers", "roots")

    def __init__(self, order: int):
        cp = cyclotomic_polynomial(order)
        phi = len(cp) - 1
        self.order = order
        self.phi = phi
        top = [-c for c in cp[:phi]]  # zeta^phi in the power basis
        powers = []
        cur = None
        for m in range(2 * order):
            if m < phi:
                row = [0] * phi
                row[m] = 1
            else:
                prev = cur
                row = [0] + prev[:-1]
                carry = prev[-1]
                if carry:
                    row = [a + carry * b for a, b in zip(row, top)]
            cur = row
            powers.append(tuple(row))
        self.powers = tuple(powers)
        self.roots = tuple(
            cmath.exp(2j * cmath.pi * k / order) for k in range(phi)
        )


@lru_cache(maxsize=None)
def _context(order: int) -> _Context:
    return _Context(order)


@lru_cache(maxsize=None)
def _traces(order: int) -> tuple[int, ...]:
    """Tr(zeta^k) over Q for the power basis, 0 <= k < phi(order).

    The trace is the sum of the Galois conjugates zeta^(k a), a rational
    number, so it is the constant term of the summed power rows.
    """
    ctx = _context(order)
    units = [a for a in range(1, order + 1) if math.gcd(a, order) == 1]
    return tuple(sum(ctx.powers[k * a % order][0] for a in units)
                 for k in range(ctx.phi))


def _reduce_conv(ctx: _Context, conv: list[int]) -> list[int]:
    # Fold coefficients of zeta^j (j >= phi) down into the power basis.
    phi = ctx.phi
    powers = ctx.powers
    out = conv[:phi]
    for j in range(phi, len(conv)):
        c = conv[j]
        if c:
            row = powers[j]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return out


def _reduced(order: int, num, den: int) -> "Scalar":
    """The Scalar num/den for an integer vector num and den > 0."""
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [a // g for a in num], den // g
    s = _new(Scalar)
    s.order, s.num, s.den = order, tuple(num), den
    return s


def _ratio(order: int, p: int, q: int) -> "Scalar":
    """The Scalar p/q, q > 0, of an order with phi = 1."""
    g = math.gcd(p, q)
    s = _new(Scalar)
    s.order, s.num, s.den = order, (p // g,), q // g
    return s


def _sum(order: int, an, ad: int, bn, bd: int) -> "Scalar":
    """an/ad + bn/bd for coefficient vectors of one order."""
    if len(an) == 1:
        if ad == bd:
            return _ratio(order, an[0] + bn[0], ad)
        return _ratio(order, an[0] * bd + bn[0] * ad, ad * bd)
    if ad == bd:
        return _reduced(order, [x + y for x, y in zip(an, bn)], ad)
    return _reduced(order, [x * bd + y * ad for x, y in zip(an, bn)],
                    ad * bd)


def _product(order: int, an, bn) -> list[int]:
    """The numerator of an * bn in the power basis, for phi > 1."""
    conv = [0] * (2 * len(an) - 1)
    for i, x in enumerate(an):
        if x:
            for j, y in enumerate(bn):
                if y:
                    conv[i + j] += x * y
    return _reduce_conv(_context(order), conv)


def _aligned(x: "Scalar", y) -> tuple:
    """(order, x.num, x.den, y.num, y.den) lifted to the lcm of the orders.

    Ints and Fractions are read as rationals of order 1.
    """
    if y.__class__ is not Scalar:
        y = Scalar.coerce(y)
    m, n = x.order, y.order
    if m == n:
        return m, x.num, x.den, y.num, y.den
    order = math.lcm(m, n)
    x, y = x.lift(order), y.lift(order)
    return order, x.num, x.den, y.num, y.den


def axpy(x: "Scalar", c: "Scalar", y: "Scalar") -> "Scalar":
    """x + c * y built as one Scalar, in the lcm of the three orders."""
    order = x.order
    if c.order != order or y.order != order:
        return x + c * y
    xn, cn, yn, xd, d = x.num, c.num, y.num, x.den, c.den * y.den
    if len(xn) == 1:
        if xd == d:
            return _ratio(order, xn[0] + cn[0] * yn[0], d)
        return _ratio(order, xn[0] * d + cn[0] * yn[0] * xd, xd * d)
    return _sum(order, xn, xd, _product(order, cn, yn), d)


class Scalar:
    """An element of Q(zeta_N) in canonical reduced form.

    Instances are immutable once constructed and safe to share.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num, den: int = 1):
        ctx = _context(order)
        num = list(num)
        if len(num) != ctx.phi:
            raise InputError(
                f"coefficient vector of length {len(num)} for order {order}"
                f" (expected {ctx.phi})"
            )
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-a for a in num]
        g = math.gcd(den, *(abs(a) for a in num)) if any(num) else den
        if g > 1:
            den //= g
            num = [a // g for a in num]
        if not any(num):
            den = 1
        self.order = order
        self.num = tuple(num)
        self.den = den

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "Scalar":
        return _cached_const(order, 0)

    @staticmethod
    def one(order: int = 1) -> "Scalar":
        return _cached_const(order, 1)

    @staticmethod
    def from_int(v: int, order: int = 1) -> "Scalar":
        phi = _context(order).phi
        return Scalar(order, [v] + [0] * (phi - 1), 1)

    @staticmethod
    def from_fraction(f, order: int = 1) -> "Scalar":
        f = Fraction(f)
        phi = _context(order).phi
        return Scalar(order, [f.numerator] + [0] * (phi - 1), f.denominator)

    @staticmethod
    def rational(p: int, q: int = 1, order: int = 1) -> "Scalar":
        phi = _context(order).phi
        return Scalar(order, [p] + [0] * (phi - 1), q)

    @staticmethod
    def root_of_unity(order: int, k: int = 1) -> "Scalar":
        """zeta_order^k as an element of Q(zeta_order)."""
        ctx = _context(order)
        return Scalar(order, list(ctx.powers[k % order]), 1)

    @staticmethod
    def coerce(v, order: int = 1) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if isinstance(v, int):
            return Scalar.from_int(v, order)
        if isinstance(v, Fraction):
            return Scalar.from_fraction(v, order)
        raise InputError(f"cannot coerce {type(v).__name__} to Scalar")

    # -- order handling --------------------------------------------------

    def lift(self, order: int) -> "Scalar":
        """Reinterpret inside Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order:
            raise InputError(
                f"cannot lift order {self.order} into order {order}"
            )
        ctx = _context(order)
        r = order // self.order
        out = [0] * ctx.phi
        for k, a in enumerate(self.num):
            if a:
                row = ctx.powers[k * r]
                for i in range(ctx.phi):
                    if row[i]:
                        out[i] += a * row[i]
        return _reduced(order, out, self.den)

    # -- field operations ------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if other.__class__ is Scalar:
            if other.order == self.order:
                return self.num == other.num and self.den == other.den
            _, an, ad, bn, bd = _aligned(self, other)
            return an == bn and ad == bd
        if isinstance(other, int):
            p, q = other, 1
        elif isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
        else:
            return NotImplemented
        return self.num[0] == p and self.den == q and not any(self.num[1:])

    def __hash__(self):
        # Tr(x) / phi(N) does not change when x is lifted to a larger
        # order, so equal values of different declared orders hash alike;
        # on rationals it is the value itself, as for int and Fraction.
        traces = _traces(self.order)
        tr = sum(a * t for a, t in zip(self.num, traces))
        return hash(Fraction(tr, self.den * len(traces)))

    def __add__(self, other):
        if other.__class__ is Scalar and other.order == self.order:
            return _sum(self.order, self.num, self.den, other.num, other.den)
        return _sum(*_aligned(self, other))

    __radd__ = __add__

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.order = self.order
        s.num = tuple(-a for a in self.num)
        s.den = self.den
        return s

    def __sub__(self, other):
        order, an, ad, bn, bd = _aligned(self, other)
        return _sum(order, an, ad, [-y for y in bn], bd)

    def __rsub__(self, other):
        return Scalar.coerce(other, self.order) - self

    def __mul__(self, other):
        if other.__class__ is Scalar and other.order == self.order:
            order, an, ad, bn, bd = (self.order, self.num, self.den,
                                     other.num, other.den)
        else:
            order, an, ad, bn, bd = _aligned(self, other)
        if len(an) == 1:
            return _ratio(order, an[0] * bn[0], ad * bd)
        return _reduced(order, _product(order, an, bn), ad * bd)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        p = self.num[0]
        if not any(self.num[1:]):  # (p/q)^-1 = q/p, the sign on q
            q = self.den if p > 0 else -self.den
            return _reduced(self.order, (q,) + self.num[1:], abs(p))
        # Multiply the remaining Galois conjugates; the full product is the
        # field norm, a nonzero rational.
        prod = Scalar.one(self.order)
        for a in range(2, self.order + 1):
            if math.gcd(a, self.order) == 1 and a < self.order:
                prod = prod * self.galois(a)
        norm = self * prod
        if any(norm.num[1:]):
            raise ConsistencyError("field norm came out irrational")
        p, q = norm.num[0], norm.den
        return prod * Scalar.rational(q, p, self.order)

    def __truediv__(self, other):
        other = Scalar.coerce(other, self.order)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Scalar.coerce(other, self.order) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Scalar.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def galois(self, a: int) -> "Scalar":
        """Image under the automorphism zeta -> zeta^a, gcd(a, order) = 1."""
        ctx = _context(self.order)
        out = [0] * ctx.phi
        for k, c in enumerate(self.num):
            if c:
                row = ctx.powers[(k * a) % self.order]
                for i in range(ctx.phi):
                    if row[i]:
                        out[i] += c * row[i]
        return _reduced(self.order, out, self.den)

    def conj(self) -> "Scalar":
        """Complex conjugation, zeta -> zeta^{-1}, extended Q-linearly."""
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    # -- views -------------------------------------------------------------

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise InputError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def embed(self) -> complex:
        """Float value at the canonical embedding zeta_N = exp(2*pi*i/N)."""
        roots = _context(self.order).roots
        return sum(a * r for a, r in zip(self.num, roots)) / self.den

    def to_json(self):
        return {"order": self.order, "num": list(self.num), "den": self.den}

    @staticmethod
    def from_json(doc) -> "Scalar":
        """An integer, a [num, den] pair or an {"order", "num", "den"}
        object, of JSON integers only, with den nonzero."""
        if type(doc) is int:
            return Scalar.from_int(doc)
        if isinstance(doc, list) and len(doc) == 2:
            return Scalar.rational(_json_int(doc[0], "numerator"),
                                   _json_den(doc[1]))
        if isinstance(doc, dict):
            try:
                order, num, den = doc["order"], doc["num"], doc["den"]
            except KeyError as e:
                raise InputError(f"scalar document missing field {e}") from e
            if not isinstance(num, list):
                raise InputError(f"scalar numerator {num!r} is not an array")
            return Scalar(_json_int(order, "order"),
                          [_json_int(a, "numerator") for a in num],
                          _json_den(den))
        raise InputError(f"cannot parse scalar from {doc!r}")

    def __repr__(self):
        if self.is_rational():
            body = str(Fraction(self.num[0], self.den))
        else:
            terms = []
            for k, a in enumerate(self.num):
                if not a:
                    continue
                if k == 0:
                    terms.append(str(a))
                else:
                    terms.append(f"{a}*z{self.order}^{k}" if k > 1
                                 else f"{a}*z{self.order}")
            body = " + ".join(terms).replace("+ -", "- ")
            if self.den != 1:
                body = f"({body})/{self.den}"
        return f"Scalar({body})"


def _json_int(x, what: str) -> int:
    """x when it is a JSON integer (true, false and 1.5 are not)."""
    if type(x) is not int:
        raise InputError(f"scalar {what} {x!r} is not an integer")
    return x


def _json_den(x) -> int:
    if _json_int(x, "denominator") == 0:
        raise InputError("scalar denominator is zero")
    return x


@lru_cache(maxsize=None)
def _cached_const(order: int, v: int) -> Scalar:
    return Scalar.from_int(v, order)


def conj(x: Scalar) -> Scalar:
    """Complex conjugation on Q(zeta_N); involutive and multiplicative."""
    return x.conj()


def common_order(*orders: int) -> int:
    out = 1
    for n in orders:
        out = math.lcm(out, n)
    return out
