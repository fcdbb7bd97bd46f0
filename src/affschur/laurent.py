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
    Returns terms.

    This is the one sparse-sum loop: LaurentPoly construction and
    addition, every Combination (its construction, +, -, scale and
    add_scaled), the T_{s_i} step of x_J H (heckekl._mul_simple, once per
    step), the KL recursion (heckekl._column, once per column),
    schur.mult and schur.canonical_expand.  Two loops keep their
    own, as this one costs them time: LaurentPoly.__mul__ (a convolution,
    each key a sum e1 + e2 formed inline) and AffMatrix.__init__ (which
    normalizes each key to its period first).  Routed through here, a
    call took 20-45% longer for __mul__ and 28-45% longer for the
    constructor, and the struct-tables benchmark 8-12% longer (wall_s
    0.536, 0.502, 0.526 s against 0.490, 0.465, 0.472 s, on 2 vCPUs).
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

    Immutable: the coefficient dict is private, never exposed mutably and
    never written after construction.  This is load-bearing, as the forms
    that IntPoly.to_laurent keeps are shared by every caller.  Zero
    coefficients are never stored.
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
    def v_power(e):
        return LaurentPoly({e: 1})

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


class _QForm(LaurentPoly):
    """The form v^e P(v^2) that IntPoly.to_laurent builds and keeps: it
    shifts through the memo of P, so each shift of it is built once."""

    __slots__ = ("_poly", "_e")

    def shift(self, e):
        return self._poly.to_laurent(self._e + e)


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
    """Integer polynomial in q, coefficients stored from degree 0 up.

    Immutable: nothing writes coeffs after construction.  This is
    load-bearing, as to_laurent and to_json keep what they compute (one
    Laurent form per exponent, one tuple of strings) for every later
    caller, and a KLCache shares one IntPoly among all entries with the
    same coefficients.
    """

    __slots__ = ("coeffs", "_laurent", "_json")

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self._laurent = self._json = None

    @staticmethod
    def _wrap(coeffs):
        """The polynomial with coefficient tuple coeffs, which must not end
        in a zero."""
        out = IntPoly.__new__(IntPoly)
        out.coeffs = coeffs
        out._laurent = out._json = None
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
        """Substitute q = v^2 and multiply by v^e.  The form is built once
        per exponent and kept; its shift(d) is to_laurent(e + d)."""
        memo = self._laurent
        if memo is None:
            memo = self._laurent = {}
        form = memo.get(e)
        if form is None:
            form = memo[e] = _QForm.__new__(_QForm)
            form._c = {2 * k + e: a for k, a in enumerate(self.coeffs) if a}
            form._hash = None
            form._poly = self
            form._e = e
        return form

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
        """The coefficients as decimal strings, formatted once and returned
        in a new list on every call."""
        if self._json is None:
            self._json = tuple(map(str, self.coeffs))
        return list(self._json)


class InterpolationError(ValueError):
    """Samples are inconsistent with the stated degree bound."""


def poly_interpolate(samples, degree_bound):
    """Unique integer polynomial of degree <= degree_bound through samples.

    samples is a list of (q, count) pairs of integers with pairwise
    distinct q.  The first degree_bound + 1 give the Newton divided
    differences, in exact integer arithmetic: for a polynomial in Z[q]
    every divided difference at integer nodes is an integer, so an
    inexact division means the interpolant is not in Z[q].  Raises
    InterpolationError on an inexact division or a missed sample, which
    signals that degree_bound was too small or the counts are
    inconsistent.
    """
    if len(samples) < degree_bound + 1:
        raise ValueError("need at least degree_bound + 1 samples")
    pts = samples[: degree_bound + 1]
    qs = [q for q, _ in pts]
    if len(set(qs)) != len(qs):
        raise ValueError("q-values must be pairwise distinct")
    # dd[k] becomes the divided difference at qs[0..k]
    dd = [c for _, c in pts]
    for k in range(1, len(qs)):
        for i in range(len(qs) - 1, k - 1, -1):
            num, den = dd[i] - dd[i - 1], qs[i] - qs[i - k]
            if num % den:
                raise InterpolationError(
                    "non-integer divided difference %d/%d (degree bound too "
                    "small?)" % (num, den)
                )
            dd[i] = num // den
    # Horner on the Newton form: p = dd[k] + (q - qs[k]) p, k descending
    coeffs = []
    for k in range(len(qs) - 1, -1, -1):
        coeffs = [0] + coeffs
        for m in range(len(coeffs) - 1):
            coeffs[m] -= qs[k] * coeffs[m + 1]
        coeffs[0] += dd[k]
    poly = IntPoly(coeffs)
    for q, c in samples:
        if poly.evaluate(q) != c:
            raise InterpolationError(
                "interpolant misses sample (%d, %d)" % (q, c)
            )
    return poly
