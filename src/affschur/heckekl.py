"""The extended affine Hecke algebra of period r.

T-basis multiplication follows T_{s_i}^2 = (v^2 - 1) T_{s_i} + v^2 and
T_w T_{w'} = T_{ww'} when lengths add; T_rho acts by length-preserving
translation.  h T_{s_i} takes one right step per term: T_{ws_i} when
ws_i > w, else (v^2 - 1) T_w + v^2 T_{ws_i}.  The Kazhdan-Lusztig basis
C'_w comes from the recursion C'_s C'_v = C'_{sv} + sum mu(z, v) C'_z,
which yields every P_{y,w} as a T-coefficient of C'_w.  C'_s C'_v takes
one left step per term (Kazhdan-Lusztig 1979, (2.2.c)): C'_s T_y is
v^-1 (T_{sy} + T_y) when sy > y and v (T_y + T_{sy}) otherwise.  A step
reads its product, ascent test and exact length l(w) +- 1 off a window.
"""

from __future__ import annotations

import os

from .laurent import Combination, LaurentPoly, IntPoly, LP_ONE, accumulate
from . import affweyl
from .affweyl import AffPerm, identity, rho, strip_rho, reduced_word

_V2_MINUS_1 = LaurentPoly({2: 1, 0: -1})
_V2 = LaurentPoly({2: 1})
_T_INV_LOW = LaurentPoly({-2: 1, 0: -1})  # v^-2 - 1
_T_INV_HIGH = LaurentPoly({-2: 1})


class HeckeElt(Combination):
    """Finitely supported LaurentPoly-combination of {T_w}."""

    __slots__ = ("r",)

    def __init__(self, r, terms=None):
        self.r = r
        super().__init__(terms)

    def _check_key(self, w):
        if w.r != self.r:
            raise ValueError("period mismatch in HeckeElt")

    @staticmethod
    def basis(w):
        return HeckeElt(w.r, {w: LP_ONE})

    @staticmethod
    def zero(r):
        return HeckeElt(r)

    def __repr__(self):
        parts = [
            "(%r)T_%s" % (c, w.window)
            for w, c in sorted(self.terms.items(), key=lambda p: p[0].window)
        ]
        return " + ".join(parts) if parts else "0"


def _mul_simple(h, i):
    """h * T_{s_i}, one right step per term of h."""
    terms = {}
    for w, c in h.terms.items():
        ws, up = w.right_mul_simple(i)
        if up:
            accumulate(terms, ((ws, c),))
        else:
            accumulate(terms, ((w, c * _V2_MINUS_1), (ws, c * _V2)))
    return h._new(terms)


def _mul_rho(h, a):
    """h * T_rho^a (length-preserving translation of keys)."""
    if a == 0:
        return h
    shift = rho(h.r, a)
    return h._new({w * shift: c for w, c in h.terms.items()})


def mul_basis(h, w):
    """h * T_w, peeling a reduced word of the W_r part of w."""
    a, x = strip_rho(w)
    h = _mul_rho(h, a)
    # T_{rho^a x} = T_rho^a T_x and rho^a x = rho^a * x, so peel x after rho.
    for i in reduced_word(x):
        h = _mul_simple(h, i)
    return h


def t_mul(h1, h2):
    """Product in the T-basis, bilinear over the quadratic/braid rules."""
    if h1.r != h2.r:
        raise ValueError("mismatched periods")
    out = HeckeElt.zero(h1.r)
    for w, c in h2.terms.items():
        out.add_scaled(mul_basis(h1, w), c)
    return out


_t_inverse_memo = {}


def t_inverse(w):
    """(T_w)^-1 as a HeckeElt: T_s^-1 = v^-2 T_s + (v^-2 - 1), so
    h T_s^-1 = v^-2 (h T_s) + (v^-2 - 1) h."""
    res = _t_inverse_memo.get(w)
    if res is not None:
        return res
    a, x = strip_rho(w)
    h = HeckeElt.basis(identity(w.r))
    for i in reversed(reduced_word(x)):
        h = _mul_simple(h, i).scale(_T_INV_HIGH).add_scaled(h, _T_INV_LOW)
    h = _mul_rho(h, -a)
    _t_inverse_memo[w] = h
    return h


def t_bar(h):
    """The bar involution: v -> v^-1 on coefficients, T_w -> (T_{w^-1})^-1.

    The printed rule "T_w -> T_{w^-1}" does not fix C'_w; the inverse
    convention does and is the one used throughout.
    """
    out = HeckeElt.zero(h.r)
    for w, c in h.terms.items():
        out.add_scaled(t_inverse(w.inverse()), c.bar())
    return out


class KLCache:
    """Shared cache of C'-expansions, KL polynomials and theta elements.

    The P-table persists to disk as one record per line:
    r|window(y)|window(w)|coeffs(P), coefficients in decimal from degree
    0.  Loaded entries are validated against the classical degree bound.
    """

    def __init__(self, path=None):
        self.path = path
        self.cprime_table = {}  # (r, window) -> HeckeElt
        self.p_table = {}  # (r, y.window, w.window) -> IntPoly
        self.theta_table = {}  # AffMatrix -> SchurElt, filled by schur.theta
        if path and os.path.exists(path):
            self.load(path)

    def load(self, path):
        """Read a saved P-table; a malformed or invalid record raises
        ValueError naming its line.  Each distinct window is checked and
        its length computed once per load."""
        lengths = {}

        def length(window):
            ln = lengths.get(window)
            if ln is None:
                ln = lengths[window] = AffPerm(window).length()
            return ln

        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    key, p = _parse_record(line)
                    _, ywin, wwin = key
                    _check_entry(ywin, wwin, length(ywin), length(wwin), p)
                except ValueError as exc:
                    msg = "%s line %d: %s" % (path, lineno, exc)
                    raise ValueError(msg) from None
                self.p_table[key] = p

    def save(self, path=None):
        """Write the P-table atomically: a temporary file in the same
        directory replaces path only once it is complete."""
        path = path or self.path
        if path is None:
            raise ValueError("no cache path configured")
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                for (r, ywin, wwin), p in sorted(self.p_table.items()):
                    fh.write(
                        "%d|%s|%s|%s\n"
                        % (
                            r,
                            ",".join(map(str, ywin)),
                            ",".join(map(str, wwin)),
                            ",".join(map(str, p.coeffs)),
                        )
                    )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def _parse_record(line):
    """(r, y.window, w.window), IntPoly from one r|y|w|coeffs record."""
    fields = line.split("|")
    if len(fields) != 4:
        raise ValueError(
            "expected 4 '|'-separated fields, got %d" % len(fields)
        )
    r_s, ywin, wwin, coeffs = fields
    r = int(r_s)
    y = tuple(int(t) for t in ywin.split(",")) if ywin else ()
    w = tuple(int(t) for t in wwin.split(",")) if wwin else ()
    if len(y) != r or len(w) != r:
        raise ValueError(
            "window lengths %d, %d differ from r = %d" % (len(y), len(w), r)
        )
    p = IntPoly(tuple(int(t) for t in coeffs.split(",")) if coeffs else ())
    return (r, y, w), p


def _check_entry(ywin, wwin, ly, lw, p):
    """P_{y,w} is 1 on the diagonal and of degree <= (l(w) - l(y) - 1)/2
    below it."""
    if ywin == wwin:
        if p != IntPoly((1,)):
            raise ValueError("diagonal KL entry must be 1")
    elif p.degree() > (lw - ly - 1) // 2:
        raise ValueError(
            "KL degree bound violated for %s <= %s: %r" % (ywin, wwin, p)
        )


_default_cache = KLCache()


def default_cache():
    return _default_cache


def cprime(w, cache=None):
    """The Kazhdan-Lusztig basis element C'_w, expanded in the T-basis.

    C'_w = sum_{y <= w} v^{l(y) - l(w)} P_{y,w} T~_y, so the coefficient
    of T_y is v^{-l(w)} P_{y,w}(v^2).  For extended elements C'_{rho^a x}
    = T_rho^a C'_x.
    """
    cache = cache or _default_cache
    a, x = strip_rho(w)
    key = (x.r, x.window)
    c = cache.cprime_table.get(key)
    if c is None:
        c = _cprime_wr(x, cache)
        cache.cprime_table[key] = c
    if a == 0:
        return c
    shift = rho(w.r, a)
    return c._new({shift * y: coeff for y, coeff in c.terms.items()})


def _cprime_wr(x, cache):
    r = x.r
    if x.is_identity():
        h = HeckeElt.basis(identity(r))
        _record_p(h, x, cache)
        return h
    # left descent s of x
    for i in range(1, r + 1):
        if x.left_descent(i):
            break
    else:
        raise AssertionError("non-identity element without left descent")
    v, _ = x.left_mul_simple(i)
    cv = cprime(v, cache)
    # C'_s C'_v, one left step per term (module docstring)
    steps = [(y, c) + y.left_mul_simple(i) for y, c in cv.terms.items()]
    terms = {}
    for y, c, sy, up in steps:
        c = c.shift(-1 if up else 1)
        accumulate(terms, ((y, c), (sy, c)))
    h = cv._new(terms)
    for z, coeff, _, up in steps:
        if up:
            continue
        # mu(z, v): coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v}, i.e. the
        # v^{l(v) - l(z) - 1} coefficient of P(v^2) = v^{l(v)} * coeff.
        mu = coeff.coeff(-z.length() - 1)
        if mu:
            h.add_scaled(cprime(z, cache), -mu)
    _record_p(h, x, cache)
    return h


def _record_p(h, w, cache):
    """Store P_{y,w} for each T_y of h = C'_w, checked against the lengths
    its keys carry."""
    lw = w.length()
    for y, coeff in h.terms.items():
        p = coeff.shift(lw).to_int_poly_in_q()
        _check_entry(y.window, w.window, y.length(), lw, p)
        cache.p_table[(w.r, y.window, w.window)] = p


def kl_poly(y, w, cache=None):
    """The Kazhdan-Lusztig polynomial P_{y,w} in q = v^2.

    Follows the extension rule P_{rho^a y, rho^b w} = delta_{a,b} P_{y,w}.
    """
    cache = cache or _default_cache
    ay, y0 = strip_rho(y)
    aw, w0 = strip_rho(w)
    if ay != aw:
        return IntPoly(())
    if y0 == w0:
        return IntPoly((1,))
    key = (w0.r, y0.window, w0.window)
    p = cache.p_table.get(key)
    if p is not None:
        return p
    cprime(w0, cache)
    return cache.p_table.get(key, IntPoly(()))


def x_lambda(lam):
    """x_lambda = sum of T_w over the Young subgroup S_lambda."""
    return double_coset_sum(lam, identity(lam.sigma()), lam)


def double_coset_sum(lam, d, mu):
    """T_{S_lambda d S_mu} = sum of T_w over the double coset of d."""
    _, _, elems = affweyl.double_coset(lam, d, mu)
    return HeckeElt(d.r, {w: LP_ONE for w in elems})
