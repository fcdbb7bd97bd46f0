"""Exact arithmetic in Z[v, v^-1] and Z[q].

Laurent polynomials in v carry all coefficients in the algebras built on
top of this module; plain polynomials in q (standing for v^2) are used
for Hall-polynomial interpolation and Kazhdan-Lusztig polynomials, and
are kept as a separate type so the two variable conventions never mix
silently.
"""

from __future__ import annotations


def accumulate(terms, items, scale=None):
    """Add each (key, coefficient) pair of items into the dict terms.

    Coefficients are multiplied by scale first when one is given.  A key
    whose coefficient cancels is dropped, so terms never holds a zero.
    This is the one sparse-accumulation loop shared by LaurentPoly and by
    every Combination.  Returns terms.
    """
    get = terms.get
    for key, c in items:
        if scale is not None:
            c = c * scale
        c0 = get(key)
        if c0 is not None:
            c = c0 + c
        if c:
            terms[key] = c
        elif c0 is not None:
            del terms[key]
    return terms


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in v.

    Immutable by convention: the coefficient dict is private and never
    exposed mutably.  Zero coefficients are never stored.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            if isinstance(coeffs, dict):
                coeffs = coeffs.items()
            accumulate(c, coeffs)
        self._c = c
        self._hash = None

    @staticmethod
    def _wrap(c):
        """The polynomial with coefficient dict c, which must hold no zero."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    @staticmethod
    def v_power(e, coeff=1):
        return LaurentPoly({e: coeff}) if coeff else LaurentPoly()

    def items(self):
        return sorted(self._c.items())

    def coeff(self, e):
        return self._c.get(e, 0)

    def is_zero(self):
        return not self._c

    def is_nonneg(self):
        """True iff every coefficient is >= 0 (membership in N[v, v^-1])."""
        return all(a >= 0 for a in self._c.values())

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._c.items())))
        return self._hash

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return LaurentPoly._wrap(accumulate(dict(self._c), other._c.items()))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._wrap({e: -a for e, a in self._c.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly._wrap(
                {e: a * other for e, a in self._c.items()}
            )
        c = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = e1 + e2
                b = c.get(e, 0) + a1 * a2
                if b:
                    c[e] = b
                elif e in c:
                    del c[e]
        return LaurentPoly._wrap(c)

    __rmul__ = __mul__

    def bar(self):
        """The involution v -> v^-1 (negate every exponent)."""
        return LaurentPoly._wrap({-e: a for e, a in self._c.items()})

    def shift(self, e):
        """Multiply by v^e."""
        return LaurentPoly._wrap({k + e: a for k, a in self._c.items()})

    def max_exp(self):
        return max(self._c) if self._c else None

    def to_json(self):
        return [[e, str(a)] for e, a in self.items()]

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for e, a in self.items():
            if e == 0:
                parts.append(str(a))
            else:
                va = "v" if e == 1 else ("v^%d" % e)
                if a == 1:
                    parts.append(va)
                elif a == -1:
                    parts.append("-" + va)
                else:
                    parts.append("%d*%s" % (a, va))
        return " + ".join(parts).replace("+ -", "- ")


LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly({0: 1})


class Combination:
    """Finitely supported LaurentPoly-combination of hashable keys.

    terms maps each key to its nonzero coefficient.  A subclass lists the
    attributes that fix its ambient module (the period r of a Hecke
    algebra, say) as its __slots__: equality compares them, and every
    element derived from another copies them.  It validates keys in
    _check_key and supplies its basis constructors and __repr__.  All
    arithmetic lives here.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else list(terms)
            for key, _ in items:
                self._check_key(key)
            accumulate(t, items)
        self.terms = t

    def _check_key(self, key):
        pass

    def _new(self, terms):
        """An element of the same module with the given terms, unchecked."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __add__(self, other):
        return self._new(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self._new(accumulate(dict(self.terms), other.terms.items(), -1))

    def scale(self, c):
        """c times this element, for c a LaurentPoly or an int."""
        return self._new(accumulate({}, self.terms.items(), c))

    def add_scaled(self, other, c=None):
        """In place: add c * other (other itself when c is omitted) to this
        element, without copying its terms.  Returns self."""
        accumulate(self.terms, other.terms.items(), c)
        return self

    def coeff(self, key):
        return self.terms.get(key, LP_ZERO)

    def is_zero(self):
        return not self.terms


class IntPoly:
    """Integer polynomial in q, coefficients stored from degree 0 up."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def _wrap(coeffs):
        """The polynomial with coefficient tuple coeffs, which must not end
        in a zero."""
        out = IntPoly.__new__(IntPoly)
        out.coeffs = coeffs
        return out

    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def evaluate(self, q):
        val = 0
        for a in reversed(self.coeffs):
            val = val * q + a
        return val

    def to_laurent(self, e=0):
        """Substitute q = v^2 and multiply by v^e."""
        return LaurentPoly._wrap(
            {2 * k + e: a for k, a in enumerate(self.coeffs) if a}
        )

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        c = tuple(x + y for x, y in zip(a, b))
        if len(a) > len(b):
            return IntPoly._wrap(c + a[len(b) :])
        n = len(c)
        while n and not c[n - 1]:
            n -= 1
        return IntPoly._wrap(c[:n])

    def mul_monomial(self, m, k):
        """m q^k times this polynomial, for integers m and k >= 0."""
        if not (m and self.coeffs):
            return IntPoly._wrap(())
        if m == 1:
            return IntPoly._wrap((0,) * k + self.coeffs)
        return IntPoly._wrap((0,) * k + tuple(m * a for a in self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, a in enumerate(self.coeffs):
            if not a:
                continue
            if k == 0:
                parts.append(str(a))
            elif k == 1:
                parts.append("%d*q" % a if a != 1 else "q")
            else:
                parts.append("%d*q^%d" % (a, k) if a != 1 else "q^%d" % k)
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        return [str(a) for a in self.coeffs]


class InterpolationError(ValueError):
    """Samples are inconsistent with the stated degree bound."""


def poly_interpolate(samples, degree_bound):
    """Unique integer polynomial of degree <= degree_bound through samples.

    samples is a list of (q, count) pairs with pairwise distinct q.
    Raises InterpolationError if the interpolant has a non-integer
    coefficient or a sample is missed, which signals that degree_bound
    was too small or the counts are inconsistent.
    """
    from fractions import Fraction

    if len(samples) < degree_bound + 1:
        raise ValueError("need at least degree_bound + 1 samples")
    pts = samples[: degree_bound + 1]
    qs = [q for q, _ in pts]
    if len(set(qs)) != len(qs):
        raise ValueError("q-values must be pairwise distinct")
    # Lagrange interpolation over Q, accumulated coefficientwise.
    coeffs = [Fraction(0)] * (degree_bound + 1)
    for i, (qi, ci) in enumerate(pts):
        # numerator polynomial prod_{j != i} (q - qj)
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, (qj, _) in enumerate(pts):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= qj * num[k + 1]
            denom *= qi - qj
        w = Fraction(ci) / denom
        for k in range(len(num)):
            coeffs[k] += w * num[k]
    out = []
    for a in coeffs:
        if a.denominator != 1:
            raise InterpolationError(
                "non-integer coefficient %s (degree bound too small?)" % a
            )
        out.append(int(a))
    poly = IntPoly(tuple(out))
    for q, c in samples:
        if poly.evaluate(q) != c:
            raise InterpolationError(
                "interpolant misses sample (%d, %d)" % (q, c)
            )
    return poly
