"""The extended affine Hecke algebra of period r.

T-basis multiplication follows T_{s_i}^2 = (v^2 - 1) T_{s_i} + v^2 and
T_w T_{w'} = T_{ww'} when lengths add; T_rho acts by length-preserving
translation.  For a finite parabolic W_J, x_J the sum of T_w over W_J,
x_J H is kept in columns: sum_sigma c_sigma x_J T_sigma over the sigma
minimal in W_J sigma (J empty: the T-basis).  x_J T_sigma T_s, s = s_i,
is x_J T_{sigma s} when sigma s > sigma stays minimal, x_J ((v^2 - 1)
T_sigma + v^2 T_{sigma s}) when sigma s < sigma, and v^2 x_J T_sigma when
sigma s = t sigma with t in J, as x_J T_t = v^2 x_J (coset_step).  The
same steps give x_J T_w^-1 (t_inverse) and so the bar involution on
columns, bar(x_J) = v^{-2 l(w_J)} x_J (t_bar).

The Kazhdan-Lusztig basis comes from one recursion, on columns of
polynomials in q = v^2.  With w_J longest in W_J and tau minimal in
W_J tau, C'_{w_J tau} lies in x_J H; its column maps each sigma minimal
in W_J sigma to P_{w_J sigma, w_J tau} (J empty: P_{sigma, tau}), the
T_{w_J sigma}-coefficient of C'_{w_J tau} being v^{-l(w_J tau)} times
its value at q = v^2.  This is Deodhar's parabolic KL polynomial for
u = -1, P^J_{sigma,tau}.  With s = s_i a right descent of tau and
tau' = tau s, C'_{w_J tau} = C'_{w_J tau'} C'_s minus mu(w_J sigma,
w_J tau') C'_{w_J sigma} (Kazhdan-Lusztig 1979).  In q the product puts
P at sigma and sigma s when sigma s goes up, qP at both when it goes
down, and (1 + q)P at sigma when it leaves the minimal representatives;
each mu term, from a sigma of the last two cases with mu the
q^{(l(tau') - l(sigma) - 1)/2} coefficient of its P, subtracts
mu q^{(l(tau) - l(sigma))/2} times the column of sigma.  A step reads its
product, its case and the length off the window.
"""

from __future__ import annotations

from functools import cache
import os

from .laurent import Combination, LaurentPoly, IntPoly, LP_ONE, accumulate
from .affweyl import (
    AffPerm,
    bruhat_leq,
    climb,
    identity,
    rho,
    strip_rho,
    reduced_word,
)

_V2_MINUS_1 = LaurentPoly({2: 1, 0: -1})
_V2 = LaurentPoly({2: 1})
_T_INV_LOW = LaurentPoly({-2: 1, 0: -1})  # v^-2 - 1
_T_INV_HIGH = LaurentPoly({-2: 1})
_P_ONE = IntPoly((1,))


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


def _mul_simple(h, i, J=()):
    """h * T_{s_i} in x_J H, one coset_step per term of h."""
    terms = {}
    for w, c in h.terms.items():
        ws, up = coset_step(w, i, J)
        if ws is None:
            accumulate(terms, ((w, c * _V2),))
        elif up:
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


def mul_basis(h, w, J=()):
    """h * T_w in x_J H, peeling a reduced word of the W_r part of w."""
    a, x = strip_rho(w)
    h = _mul_rho(h, a)  # sigma rho^a stays minimal in its W_J-coset
    # T_{rho^a x} = T_rho^a T_x and rho^a x = rho^a * x, so peel x after rho.
    for i in reduced_word(x):
        h = _mul_simple(h, i, J)
    return h


def t_mul(h1, h2):
    """Product in the T-basis, bilinear over the quadratic/braid rules."""
    if h1.r != h2.r:
        raise ValueError("mismatched periods")
    out = HeckeElt.zero(h1.r)
    for w, c in h2.terms.items():
        out.add_scaled(mul_basis(h1, w), c)
    return out


@cache
def t_inverse(w, J=()):
    """The column of x_J (T_w)^-1: T_s^-1 = v^-2 T_s + (v^-2 - 1), so
    h T_s^-1 = v^-2 (h T_s) + (v^-2 - 1) h.  J must be a tuple."""
    a, x = strip_rho(w)
    h = HeckeElt.basis(identity(w.r))
    for i in reversed(reduced_word(x)):
        h = _mul_simple(h, i, J).scale(_T_INV_HIGH).add_scaled(h, _T_INV_LOW)
    return _mul_rho(h, -a)


def t_bar(h, J=()):
    """The bar involution: v -> v^-1 on coefficients, T_w -> (T_{w^-1})^-1;
    with J, the column g with bar(x_J h) = v^{-2 l(w_J)} x_J g.

    The printed rule "T_w -> T_{w^-1}" does not fix C'_w; the inverse
    convention does and is the one used throughout.
    """
    out = HeckeElt.zero(h.r)
    for w, c in h.terms.items():
        out.add_scaled(t_inverse(w.inverse(), J), c.bar())
    return out


class KLCache:
    """A table of KL columns and one of KL polynomials, sharing one
    IntPoly per distinct P.

    cprime and kl_poly take one (default_cache() if none); kl_column, and
    through it theta and the g-, f- and h-tables, always use the default
    one.  The column table holds the P columns of the recursion (module
    docstring), full (J empty) and parabolic alike.  Only the full
    columns put their entries into the P-table, under their ordinary
    keys, so only windows of W_r are ever keys there and it holds just
    what kl_poly reads and save writes: those entries and the loaded
    records.  A parabolic column is checked against the full column of
    the same w_J tau instead, whichever is built second; parabolic
    indexes the parabolic columns by the window of w_J tau for that.
    polys interns the P's: each entry of a new column and each loaded
    record is replaced by the one IntPoly of its coefficients, so the few
    distinct values keep their Laurent forms and strings once
    (IntPoly.to_laurent, to_json).  The recursion reads columns only,
    never a P record, so only kl_poly answers from a loaded P-table.  The
    P-table persists to disk as one record per line:
    r|window(y)|window(w)|coeffs(P), coefficients in decimal from degree
    0.  Loaded entries are validated against the classical degree bound
    and must have both windows in W_r; whether y <= w is checked lazily,
    by kl_poly the first time it answers from a loaded key, unless the
    recursion has recomputed that key and found it equal.  save()
    decides whether the file at path needs writing, so callers need not.
    """

    def __init__(self, path=None):
        self.path = path
        self.cprime_table = {}  # (J, tau.window) -> {sigma: P}
        self.p_table = {}  # (r, y.window, w.window) -> IntPoly
        self.parabolic = {}  # (w_J tau).window -> [(w_J, column of tau)]
        self.polys = {}  # P.coeffs -> the one IntPoly of these tables
        self.unchecked = set()  # loaded keys not yet checked for y <= w
        # len(p_table) when path was last read or written; entries are
        # only ever added, so an equal length means nothing new
        self._synced = None
        if path and os.path.exists(path):
            self.load(path)
            self._synced = len(self.p_table)

    def clear(self):
        """Empty every table."""
        self.cprime_table.clear()
        self.p_table.clear()
        self.parabolic.clear()
        self.polys.clear()
        self.unchecked.clear()
        self._synced = None

    def load(self, path):
        """Read a saved P-table; a malformed or invalid record raises
        ValueError naming its line, and a file that is not text in the
        locale's encoding raises ValueError naming the file.

        Each distinct window text is parsed and checked once per level r
        (its length, its W_r sum, the AffPerm residue check, its length
        l) and each distinct coefficient text becomes the interned IntPoly
        of its coefficients, while every record is checked against the
        degree bound and the diagonal rule.  A key may repeat only with
        the same P: a repeat with another P (or a P that differs from one
        already in the table) raises ValueError naming its line, so no
        record silently overrides another.  Each loaded key goes into
        unchecked, for kl_poly's Bruhat check.
        """
        windows = {}  # (r, text) -> (window, l(window)), checked
        polys = {}  # coefficient text -> IntPoly
        try:
            with open(path) as fh:
                lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                fields = line.split("|")
                if len(fields) != 4:
                    raise ValueError(
                        "expected 4 '|'-separated fields, got %d" % len(fields)
                    )
                r_s, ytext, wtext, ctext = fields
                r = int(r_s)
                y = windows.get((r, ytext))
                w = windows.get((r, wtext))
                if y is None or w is None:
                    y, w = _check_windows(r, ytext, wtext, windows)
                (ywin, ly), (wwin, lw) = y, w
                p = polys.get(ctext)
                if p is None:
                    p = IntPoly(_ints(ctext))
                    p = polys[ctext] = self.polys.setdefault(p.coeffs, p)
                if not _entry_ok(ywin == wwin, ly, lw, p):
                    raise _entry_error(ywin, wwin, p)
                key = (r, ywin, wwin)
                old = self.p_table.setdefault(key, p)
                if old is p:
                    self.unchecked.add(key)
                elif old != p:
                    raise ValueError(
                        "P_{y,w} for y = %s, w = %s given as %r, stored as %r"
                        % (ywin, wwin, p, old)
                    )
            except ValueError as exc:
                msg = "%s line %d: %s" % (path, lineno, exc)
                raise ValueError(msg) from None

    def save(self, path=None):
        """Write the P-table atomically: a temporary file in the same
        directory replaces path only once it is complete.  With no path
        it goes to self.path, and only when the P-table holds an entry
        that file lacked when last read or written, or the file was
        missing when the cache was made; a path given is always written.
        Records come in key order, row by row (_sorted_rows); each
        "r|y|" prefix is formatted once per row and each distinct window
        or coefficient tuple once per save."""
        own = path is None
        if own:
            path = self.path
            if path is None:
                raise ValueError("no cache path configured")
            if self._synced == len(self.p_table):
                return
        texts = {}

        def text(ints):
            t = texts.get(ints)
            if t is None:
                t = texts[ints] = ",".join(map(str, ints))
            return t

        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                for r, ywin, row in _sorted_rows(self.p_table):
                    prefix = "%d|%s|" % (r, text(ywin))
                    fh.writelines(
                        "%s%s|%s\n" % (prefix, text(wwin), text(p.coeffs))
                        for wwin, p in row
                    )
            os.replace(tmp, path)
            if own:
                self._synced = len(self.p_table)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def _sorted_rows(p_table):
    """The records of a P-table in key order, one row per (r, y.window):
    (r, y.window, [(w.window, P), ...]) with the rows sorted by (r,
    y.window) and each row by w.window, which is the order of the sorted
    keys (r, y.window, w.window)."""
    rows = {}
    for (r, ywin, wwin), p in p_table.items():
        row = rows.get((r, ywin))
        if row is None:
            row = rows[(r, ywin)] = {}
        row[wwin] = p
    for r, ywin in sorted(rows):
        row = rows[(r, ywin)]
        yield r, ywin, [(wwin, row[wwin]) for wwin in sorted(row)]


def _check_windows(r, ytext, wtext, windows):
    """The (window, length) of the texts of y and w at level r, each
    checked to be a window of W_r and entered in windows under (r, text)."""
    y, w = _ints(ytext), _ints(wtext)
    if len(y) != r or len(w) != r:
        raise ValueError(
            "window lengths %d, %d differ from r = %d" % (len(y), len(w), r)
        )
    for window in (y, w):
        if sum(window) != r * (r + 1) // 2:
            raise ValueError(
                "window %s is outside W_%d: its sum is %d, not %d"
                % (window, r, sum(window), r * (r + 1) // 2)
            )
    for text, window in ((ytext, y), (wtext, w)):
        if (r, text) not in windows:
            windows[(r, text)] = (window, AffPerm(window).length())
    return windows[(r, ytext)], windows[(r, wtext)]


def _ints(text):
    """The integers of a comma-separated record field."""
    return tuple(int(t) for t in text.split(",")) if text else ()


def _entry_ok(same, ly, lw, p):
    """P_{y,w} is 1 on the diagonal (same: y = w) and of degree <=
    (l(w) - l(y) - 1)/2 below it."""
    return p == _P_ONE if same else p.degree() <= (lw - ly - 1) // 2


def _entry_error(ywin, wwin, p):
    """The ValueError for an entry P_{y,w} that fails _entry_ok."""
    if ywin == wwin:
        return ValueError("diagonal KL entry must be 1")
    return ValueError(
        "KL degree bound violated for %s <= %s: %r" % (ywin, wwin, p)
    )


_default_cache = KLCache()


def default_cache():
    return _default_cache


def cprime(w, cache=None):
    """The Kazhdan-Lusztig basis element C'_w, expanded in the T-basis.

    C'_w = sum_{y <= w} v^{l(y) - l(w)} P_{y,w} T~_y, so the coefficient
    of T_y is v^{-l(w)} P_{y,w}(v^2).  For extended elements C'_{rho^a x}
    = T_rho^a C'_x.  This is the column of x for J empty; its P's are
    interned, so the keys that share a P share its kept LaurentPoly.
    """
    a, x = strip_rho(w)
    col = _column((), None, x, cache or _default_cache)
    lx = x.length()
    terms = {y: p.to_laurent(-lx) for y, p in col.items()}
    if a:
        shift = rho(w.r, a)
        terms = {shift * y: c for y, c in terms.items()}
    return HeckeElt.zero(w.r)._new(terms)


def kl_column(x, J):
    """The parabolic KL column of x in W_r, for x longest in W_J x and J a
    proper subset of the generators 1..r (so W_J is finite), built in the
    default KLCache.

    Returns (w_J, col): col maps each minimal representative sigma of
    W_J sigma below x to P_{w_J sigma, x}, so the coefficient of
    T_{w_J sigma} in C'_x is v^{-l(x)} P_{w_J sigma, x}(v^2).  Every other
    T-coefficient of C'_x repeats one of these, as P is constant on the
    left W_J-cosets.  For J non-empty the entries stay in the column:
    they are checked against the full column of x when both are built,
    but never enter the P-table.  J empty gives the full column of x,
    the one cprime(x) reads, with its entries in the P-table.
    """
    J = tuple(sorted(set(J)))
    if len(J) >= x.r:
        raise ValueError("W_J is infinite for J = %s" % (J,))
    wj = _longest(x.r, J)
    return wj, _column(J, wj, wj * x, _default_cache)


@cache
def _longest(r, J):
    """w_J, the longest element of the finite W_J in W_r (J a sorted
    tuple)."""
    return climb(identity(r), [(AffPerm.right_mul_simple, k) for k in J])


def coset_step(sigma, i, J):
    """One right step sigma s_i of sigma minimal in W_J sigma, as
    (sigma s_i, up) with up iff w_J sigma s_i > w_J sigma.

    sigma s_i is None when the step leaves the minimal representatives:
    sigma s_i = s_k sigma with k in J, so w_J sigma s_i < w_J sigma.  The
    reflection sigma s_i sigma^-1 swaps a = sigma(i) and b = sigma(i+1),
    so it is the simple s_k exactly when b = a + 1, with k = a mod r.
    """
    if not J:
        return sigma.right_mul_simple(i)
    window = sigma.window
    r = len(window)
    a = window[i - 1]
    if window[i % r] + i // r * r == a + 1 and (a - 1) % r + 1 in J:
        return None, False
    return sigma.right_mul_simple(i)


def _column(J, wj, tau, cache):
    """The one KL recursion, on the P column of w_J tau (module
    docstring); wj is None for J empty."""
    key = (J, tau.window)
    col = cache.cprime_table.get(key)
    if col is not None:
        return col
    r = tau.r
    ltau = tau.length()  # known, so the right steps below carry lengths
    i = next((i for i in range(1, r + 1) if tau.right_descent(i)), None)
    if i is None:
        col = {identity(r): _P_ONE}
    else:
        # C'_{w_J tau'} C'_{s_i} with tau' = tau s_i, one step per entry
        prev = _column(J, wj, tau.right_mul_simple(i)[0], cache)
        col = {}
        lower = []
        for sigma, p in prev.items():
            ss, up = coset_step(sigma, i, J)
            if ss is None:
                accumulate(col, ((sigma, p + p.mul_monomial(1, 1)),))
            elif up:
                accumulate(col, ((sigma, p), (ss, p)))
            else:
                qp = p.mul_monomial(1, 1)
                accumulate(col, ((sigma, qp), (ss, qp)))
            if not up:
                # mu(w_J sigma, w_J tau'): the q^{(l(tau') - l(sigma) - 1)/2}
                # coefficient of P
                gap = ltau - 2 - sigma.length()
                mu = p.coeff(gap // 2) if gap % 2 == 0 else 0
                if mu:
                    lower.append((sigma, mu, gap // 2 + 1))
        for z, mu, k in lower:
            # minus mu q^{(l(tau) - l(z))/2} times the column of z
            accumulate(
                col,
                (
                    (y, pz.mul_monomial(-mu, k))
                    for y, pz in _column(J, wj, z, cache).items()
                ),
            )
    _record_p(col, tau, cache, J, wj)
    cache.cprime_table[key] = col
    return col


def _record_p(col, tau, cache, J=(), wj=None):
    """Intern and check each entry P_{w_J sigma, w_J tau} of the P column
    col of tau (w_J = wj for J non-empty); col then holds the interned
    IntPoly of cache.polys.  The degree bound is read off lengths alone:
    l(w_J tau) - l(w_J sigma) = l(tau) - l(sigma), as l(w_J sigma) =
    l(w_J) + l(sigma) for sigma minimal in W_J sigma, and w_J sigma =
    w_J tau exactly when sigma = tau.

    Only a full column (J empty) stores its entries in the P-table.  An
    entry already stored there must agree: one that differs raises
    AssertionError naming y and w.  A loaded entry that agrees leaves
    cache.unchecked, as a column holds only y <= w with P != 0.  A
    parabolic column is checked against the full column of w = w_J tau
    instead, whichever of the two is built second (_agree);
    cache.parabolic lists the parabolic columns by the window of w.
    Apart from naming a failed entry, only this check forms products
    w_J sigma, and only when both columns of w are there."""
    polys = cache.polys
    ltau = tau.length()
    w = wj * tau if J else tau
    r, twin = tau.r, tau.window
    p_table, unchecked = cache.p_table, cache.unchecked
    for sigma, p in col.items():
        interned = polys.setdefault(p.coeffs, p)
        if interned is not p:
            col[sigma] = p = interned
        swin = sigma.window
        if not _entry_ok(swin == twin, sigma.length(), ltau, p):
            y = wj * sigma if J else sigma
            raise _entry_error(y.window, w.window, p)
        if not J:
            key = (r, swin, twin)
            old = p_table.setdefault(key, p)
            if old is not p and old != p:
                raise AssertionError(
                    "P_{y,w} for y = %s, w = %s computed as %r, stored as %r"
                    % (swin, twin, p, old)
                )
            unchecked.discard(key)
    if not J:
        for pj, pcol in cache.parabolic.get(twin, ()):
            _agree(pcol, pj, col, tau)
        return
    full = cache.cprime_table.get(((), w.window))
    if full is not None:
        _agree(col, wj, full, w)
    cache.parabolic.setdefault(w.window, []).append((wj, col))


def _agree(pcol, wj, full, w):
    """Check the parabolic column pcol of w = w_J tau (wj = w_J) against
    the full column of w.  Each entry is P_{w_J sigma, w}, nonzero, so
    w_J sigma <= w and the full column holds it too; an entry it lacks
    or holds with another P raises AssertionError naming y and w."""
    for sigma, p in pcol.items():
        y = wj * sigma
        q = full.get(y)
        if q is not p and q != p:
            raise AssertionError(
                "P_{y,w} for y = %s, w = %s is %r in the parabolic column, "
                "%r in the full one" % (y.window, w.window, p, q)
            )


def kl_poly(y, w, cache=None):
    """The Kazhdan-Lusztig polynomial P_{y,w} in q = v^2.

    Follows the extension rule P_{rho^a y, rho^b w} = delta_{a,b} P_{y,w}.
    The P-table is read first: its keys are windows of W_r only, so y and
    w of different periods never match one and raise ValueError after it.
    A loaded entry must be nonzero exactly when y <= w; this is checked
    the first time it answers, and ValueError names y and w otherwise.
    """
    cache = cache or _default_cache
    p = _stored(cache, (w.r, y.window, w.window), y, w)
    if p is not None:
        return p
    if y.r != w.r:
        raise ValueError("mismatched periods")
    ay, y0 = strip_rho(y)
    aw, w0 = strip_rho(w)
    if ay != aw:
        return IntPoly(())
    if y0 == w0:
        return _P_ONE
    key = (w0.r, y0.window, w0.window)
    p = _stored(cache, key, y0, w0)
    if p is not None:
        return p
    cprime(w0, cache)
    return cache.p_table.get(key, IntPoly(()))


def _stored(cache, key, y, w):
    """The P-table entry under key for (y, w), or None; a loaded entry is
    checked against the Bruhat order once, on its first answer."""
    p = cache.p_table.get(key)
    if p is not None and key in cache.unchecked:
        leq = bruhat_leq(y, w)
        if bool(p) != leq:
            raise ValueError(
                "P_{y,w} for y = %s, w = %s stored as %r, though y %s w"
                % (y.window, w.window, p, "<=" if leq else "is not <=")
            )
        cache.unchecked.discard(key)
    return p
