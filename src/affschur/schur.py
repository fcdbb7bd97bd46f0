"""The affine quantum Schur algebra S(n, r).

Elements are LaurentPoly-combinations of the normalized basis {[A]} with
A running over Theta(n, r).  Products are computed in the Hecke
endomorphism model: e_A e_B is read off from a T-basis product,
decomposed into double-coset sums.  The canonical basis theta_{A,r} is
obtained from the C'-expansion of the longest double-coset element; an
independent bar-triangular elimination is kept as an oracle.
"""

from __future__ import annotations

from functools import cache

from .laurent import Combination, LaurentPoly, LP_ONE, accumulate
from .affmat import AffMatrix, sqsubseteq, compositions
from .affweyl import (
    double_coset,
    coset_longest,
    coset_size,
    jdelta,
    jdelta_inv,
    is_left_minimal,
    bruhat_leq,
)
from .heckekl import HeckeElt, t_mul, t_bar, x_lambda, double_coset_sum
from .heckekl import cprime, default_cache


class SchurElt(Combination):
    """Finitely supported combination of {[A] : A in Theta(n, r)}."""

    __slots__ = ("n", "r")

    def __init__(self, n, r, terms=None):
        self.n = n
        self.r = r
        super().__init__(terms)

    def _check_key(self, a):
        if a.n != self.n or a.sigma() != self.r:
            raise ValueError(
                "matrix outside Theta(%d, %d): %r" % (self.n, self.r, a)
            )

    @staticmethod
    def bracket(a_mat, r=None):
        """The basis element [A]."""
        return SchurElt(a_mat.n, a_mat.sigma() if r is None else r, {a_mat: LP_ONE})

    @staticmethod
    def zero(n, r):
        return SchurElt(n, r)

    def __repr__(self):
        parts = [
            "(%r)[%s]" % (c, dict(a.entries()))
            for a, c in sorted(self.terms.items(), key=lambda p: p[0].entries())
        ]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda p: p[0].entries())
        return {
            "n": self.n,
            "r": self.r,
            "terms": [[a.to_json(), c.to_json()] for a, c in items],
        }


def leq_bo(b_mat, a_mat):
    """B <=^Bo A: equal row/column sums and y_B <= y_A in Bruhat order."""
    if b_mat.ro() != a_mat.ro() or b_mat.co() != a_mat.co():
        return False
    _, yb, _ = jdelta_inv(b_mat)
    _, ya, _ = jdelta_inv(a_mat)
    return bruhat_leq(yb, ya)


@cache
def _right_coset_factor(b_mat):
    """The set {w in D_mu cap S_mu d_B S_nu} with x_mu * sum T_w = T_{S_mu d_B S_nu}.

    The factorization identity is asserted at construction time.
    """
    mu, d_b, nu = jdelta_inv(b_mat)
    _, _, elems = double_coset(mu, d_b, nu)
    reps = [w for w in elems if is_left_minimal(w, mu)]
    h = HeckeElt(d_b.r, {w: LP_ONE for w in reps})
    full = HeckeElt(d_b.r, {w: LP_ONE for w in elems})
    if t_mul(x_lambda(mu), h) != full:
        raise AssertionError("double-coset factorization failed for %r" % b_mat)
    return mu, h


def _decompose_invariant(h, lam, nu):
    """Write a (left-S_lambda, right-S_nu)-invariant element as a sum of
    double-coset sums; returns {matrix: coefficient} over e_A'' = T-coset sums.

    Terms are grouped by the J_Delta matrix of their coset; each group
    must carry one coefficient on all coset_size(A'') elements.
    """
    groups = {}
    for w, c in h.terms.items():
        groups.setdefault(jdelta(lam, w, nu), []).append(c)
    out = {}
    for a_mat, cs in groups.items():
        if len(cs) != coset_size(a_mat) or any(c != cs[0] for c in cs):
            raise AssertionError(
                "coefficient not constant on the double coset of %r" % a_mat
            )
        out[a_mat] = cs[0]
    return out


def e_basis_mult(a_mat, b_mat):
    """Structure constants of e_A e_B = sum nu_{A,B,A''} e_{A''}.

    Zero (empty dict) unless co(A) = ro(B).
    """
    if a_mat.co() != b_mat.ro():
        return {}
    return _e_mult(a_mat, b_mat)


@cache
def _e_mult(a_mat, b_mat):
    """e_basis_mult of a pair with co(A) = ro(B)."""
    lam, d_a, mu = jdelta_inv(a_mat)
    mu2, h2 = _right_coset_factor(b_mat)
    assert mu.parts == mu2.parts
    _, _, nu = jdelta_inv(b_mat)
    h1 = double_coset_sum(lam, d_a, mu)
    return _decompose_invariant(t_mul(h1, h2), lam, nu)


def _bracket_mult(a_mat, b_mat):
    """[A][B] expanded in the bracket basis."""
    d_ab = a_mat.d_exponent() + b_mat.d_exponent()
    return {
        c_mat: nu_c.shift(c_mat.d_exponent() - d_ab)
        for c_mat, nu_c in e_basis_mult(a_mat, b_mat).items()
    }


def mult(x, y):
    """Product of SchurElts (bilinear over the bracket basis)."""
    if x.n != y.n or x.r != y.r:
        raise ValueError("mismatched n or r")
    out = SchurElt.zero(x.n, x.r)
    for a_mat, ca in x.terms.items():
        for b_mat, cb in y.terms.items():
            accumulate(out.terms, _bracket_mult(a_mat, b_mat).items(), ca * cb)
    return out


def theta(a_mat, r=None, cache=None):
    """The canonical basis element theta_{A,r}, kept in cache.theta_table.

    Reads the C'-expansion of the longest double-coset element d+: the
    T-support of C'_{d+} is a union of (S_lambda, S_mu) double cosets,
    and the coefficient at the longest element y+ of each gives the
    bracket coefficient v^{l(y+) - l(d+)} P_{y+, d+}.  The y+ are the
    support elements with every lambda- and mu-generator a descent.
    """
    r = a_mat.sigma() if r is None else r
    if a_mat.sigma() != r:
        raise ValueError("sigma(A) != r")
    cache = cache or default_cache()
    res = cache.theta_table.get(a_mat)
    if res is not None:
        return res
    lam, d, mu = jdelta_inv(a_mat)
    c = cprime(coset_longest(lam, d, mu), cache)
    left, right = lam.young_generators(), mu.young_generators()
    terms = {
        jdelta(lam, y, mu): coeff.shift(y.length())
        for y, coeff in c.terms.items()
        if all(y.left_descent(i) for i in left)
        and all(y.right_descent(j) for j in right)
    }
    res = SchurElt(a_mat.n, r, terms)
    if res.coeff(a_mat) != LP_ONE:
        raise AssertionError("theta leading coefficient not 1 for %r" % a_mat)
    cache.theta_table[a_mat] = res
    return res


@cache
def bar_bracket(b_mat):
    """bar([B]) expanded in the bracket basis.

    Realized on x_mu: bar(f)(x_mu) = v^{2 l(w_{0,mu})} t_bar(f(x_mu)),
    then decomposed back into double-coset sums.
    """
    lam, d, mu = jdelta_inv(b_mat)
    h = double_coset_sum(lam, d, mu).scale(
        LaurentPoly.v_power(-b_mat.d_exponent())
    )
    barh = t_bar(h).scale(LaurentPoly.v_power(2 * mu.longest_length()))
    e_coeffs = _decompose_invariant(barh, lam, mu)
    terms = {
        c_mat: c.shift(c_mat.d_exponent()) for c_mat, c in e_coeffs.items()
    }
    return SchurElt(b_mat.n, b_mat.sigma(), terms)


def bar(x):
    """The bar involution on the Schur algebra."""
    out = SchurElt.zero(x.n, x.r)
    for b_mat, c in x.terms.items():
        out.add_scaled(bar_bracket(b_mat), c.bar())
    return out


def tau(x):
    """The anti-involution [A] -> [transpose(A)]."""
    return SchurElt(x.n, x.r, {a.transpose(): c for a, c in x.terms.items()})


def a_block(a_mat, j, r):
    """A(j, r) = sum over lambda in Lambda(n, r - sigma(A)) of
    v^{lambda . j} [A + diag(lambda)]; zero if sigma(A) > r.

    A must have zero diagonal.
    """
    if not a_mat.zero_diagonal():
        raise ValueError("a_block requires a zero-diagonal matrix")
    n = a_mat.n
    rem = r - a_mat.sigma()
    if rem < 0:
        return SchurElt.zero(n, r)
    terms = {}
    for lam in compositions(n, rem):
        dot = sum(l * ji for l, ji in zip(lam, j))
        terms[a_mat + AffMatrix.diag(n, lam)] = LaurentPoly.v_power(dot)
    return SchurElt(n, r, terms)


def _pick_maximal(mats):
    """Some key that is maximal for the strict containment order."""
    for c in mats:
        if not any(c != d and sqsubseteq(c, d) for d in mats):
            return c
    raise AssertionError("no maximal element (order not acyclic?)")


def canonical_expand(x):
    """Expand a SchurElt in the canonical basis by triangular substitution.

    Returns {A: coefficient} with x = sum coefficient * theta_{A,r}.
    """
    remaining = dict(x.terms)
    out = {}
    while remaining:
        c_mat = _pick_maximal(list(remaining))
        g = remaining[c_mat]
        out[c_mat] = g
        accumulate(remaining, theta(c_mat, x.r).terms.items(), -g)
    return out


def g_constants(a_mat, b_mat, r):
    """Structure constants of theta_{A,r} theta_{B,r} in the canonical basis.

    Empty when co(A) != ro(B); A and B must share n.
    """
    if a_mat.n != b_mat.n:
        raise ValueError("A and B differ in n")
    if a_mat.co() != b_mat.ro():
        return {}
    prod = mult(theta(a_mat, r), theta(b_mat, r))
    return canonical_expand(prod)


def theta_by_elimination(a_mat, r=None):
    """Independent construction of theta_{A,r} by bar-triangular elimination.

    Starts from [A] and corrects lower terms until the element is
    bar-invariant, solving p - bar(p) = c with p in v^-1 Z[v^-1] at each
    step.  Used as an oracle against the closed-form construction.
    """
    r = a_mat.sigma() if r is None else r
    x = SchurElt.bracket(a_mat, r)
    for _ in range(10000):
        diff = bar(x) - x
        if diff.is_zero():
            return x
        b_mat = _pick_maximal(list(diff.terms))
        c = diff.coeff(b_mat)
        # c is bar-antisymmetric; its negative-exponent half p solves
        # p - bar(p) = c, which cancels the coefficient at b_mat
        if c.coeff(0) != 0 or c != -(c.bar()):
            raise AssertionError("non-antisymmetric correction at %r" % b_mat)
        p = LaurentPoly({e: a for e, a in c.items() if e < 0})
        x.add_scaled(SchurElt(x.n, r, {b_mat: p}))
    raise AssertionError("bar-triangular elimination did not converge")


def is_triangular(th, a_mat):
    """Eq-3.2 shape: leading coefficient 1 on A, lower terms in
    v^-1 Z[v^-1] on matrices strictly below A."""
    for b_mat, c in th.terms.items():
        if b_mat == a_mat:
            if c != LP_ONE:
                return False
        else:
            if not (b_mat != a_mat and sqsubseteq(b_mat, a_mat)):
                return False
            if c.max_exp() is not None and c.max_exp() >= 0:
                return False
    return True


def clear_caches():
    """Empty every per-process memo of the package and the three tables
    of the default KLCache."""
    from . import affmat, affweyl, hall, heckekl, transfer

    for memoized in (
        affmat._theta_plus_by_dim_cached,
        affweyl.reduced_word,
        affweyl._bruhat_leq_step,
        affweyl.double_coset,
        affweyl.jdelta_inv,
        heckekl.t_inverse,
        _right_coset_factor,
        _e_mult,
        bar_bracket,
        hall.gf,
        hall._hall_poly,
        transfer._full_f_table,
    ):
        memoized.cache_clear()
    kl = default_cache()
    kl.cprime_table.clear()
    kl.p_table.clear()
    kl.theta_table.clear()
