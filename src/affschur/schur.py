"""The affine quantum Schur algebra S(n, r).

Elements are LaurentPoly-combinations of the normalized basis {[A]} with
A running over Theta(n, r).  Products are computed in the Hecke
endomorphism model (Dipper-James): e_A sends x_mu to T_{S_lambda d_A S_mu}
= x_lambda col_A, col_A the sum of T_sigma over the lambda-minimal sigma
of the coset, so e_A e_B is x_lambda col_A col_B in x_lambda H (heckekl)
and bar([B]) is read off the column t_bar(col_B, J_lambda).  col_B is
walked from d_B by the right steps that go up in x_lambda H (_rises),
so x_lambda col_A col_B is x_lambda col_A T_{d_B} carried along that
walk, one T_{s_j} step per element.  Every right step (the walk, the
products, t_bar, theta) is read off the default KLCache's step table
(KLCache.step), so the elements reached are the cache's, shared with
the KL columns.  Each term's double coset is named by a tuple
(jdelta_key), and each (n, key) has one matrix object
(affweyl.cells_matrix), shared by the products, bar, theta and jdelta;
each product coefficient value has one object too (_one_coeff).
The canonical basis theta_{A,r} is read off the parabolic KL column of
w_J tau, tau the top that the rises climb to from d_A, which holds only
the coefficients at elements longest in their left S_lambda-coset; an
independent bar-triangular elimination is kept as an oracle.
"""

from __future__ import annotations

from functools import cache, partial
import heapq
import math
import sys

from .laurent import Combination, LaurentPoly, LP_ONE, accumulate
from .affmat import AffMatrix, sqsubseteq, compositions
from .affweyl import (
    cells_matrix,
    coset_size,
    jdelta_inv,
    jdelta_key,
    bruhat_leq,
    strip_rho,
)
from .heckekl import HeckeElt, _mul_simple, mul_basis, t_bar
from .heckekl import default_cache, kl_column


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


def leq_bo(b_mat, a_mat):
    """B <=^Bo A: equal row/column sums and y_B <= y_A in Bruhat order."""
    if b_mat.ro() != a_mat.ro() or b_mat.co() != a_mat.co():
        return False
    _, yb, _ = jdelta_inv(b_mat)
    _, ya, _ = jdelta_inv(a_mat)
    return bruhat_leq(yb, ya)


@cache
def _coset_column(a_mat):
    """(col_A, walk): col_A the lambda-minimal elements of S_lambda d_A
    S_mu, reached from d_A by the right mu-steps that go up in
    x_lambda H, _rises (Deodhar: sigma s is minimal or s_k sigma, k in
    J_lambda; a prefix of a reduced word of a minimal representative is
    minimal).  walk lists each sigma once, after the one that reached it,
    with the (j, sigma s_j) that first reached an element, which is the
    default cache's element of its window with its length known.
    x_lambda col_A = T_{S_lambda d_A S_mu} exactly when there are
    coset_size(A) / |S_lambda| of them: checked."""
    lam, d, mu = jdelta_inv(a_mat)
    J, right = lam.young_generators(), mu.young_generators()
    seen, todo, walk = {d}, [d], []
    while todo:
        sigma = todo.pop()
        steps = tuple(
            (j, y) for j, y in _rises(sigma, right, J) if y not in seen
        )
        seen.update(y for _, y in steps)
        todo.extend(y for _, y in steps)
        walk.append((sigma, steps))
    if len(walk) * _young_order(lam) != coset_size(a_mat):
        raise AssertionError("double-coset factorization failed for %r" % a_mat)
    return HeckeElt(d.r, {sigma: LP_ONE for sigma, _ in walk}), tuple(walk)


def _rises(sigma, right, J):
    """The (j, sigma s_j), j in right in order and stepped lazily, that go
    up in x_J H: up in KLCache.step with k not in J (still W_J-minimal)."""
    step = default_cache().step
    return ((j, y) for j in right for y, up, k in (step(sigma, j),)
            if up and k not in J)


def _young_order(lam):
    return math.prod(map(math.factorial, lam.parts))


@cache
def _one_coeff(c):
    """The one object kept for each coefficient value of a product."""
    return c


def _decompose_invariant(h, lam, nu):
    """Write x_lambda h, for a column h of a (left-S_lambda,
    right-S_nu)-invariant element, as a sum of double-coset sums; returns
    {matrix: coefficient} over e_A'' = T-coset sums.

    Terms are grouped by the jdelta_key of their coset, one J_Delta
    matrix per group (the one object cells_matrix keeps for it); each
    group must carry one coefficient on coset_size(A'') / |S_lambda|
    elements, and that value is kept as its one object (_one_coeff).
    """
    per = _young_order(lam)
    key = partial(jdelta_key, lam.block_indices(), nu.block_indices(), lam.n)
    groups = {}
    for w, c in h.terms.items():
        groups.setdefault(key(w.window), []).append(c)
    out = {}
    for cells, cs in groups.items():
        a_mat = cells_matrix(lam.n, cells)
        if len(cs) * per != coset_size(a_mat) or any(c != cs[0] for c in cs):
            raise AssertionError(
                "coefficient not constant on the double coset of %r" % a_mat
            )
        out[a_mat] = _one_coeff(cs[0])
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
    """e_basis_mult of a pair with co(A) = ro(B): x_lambda col_A col_B as
    x_lambda col_A T_{d_B} carried along the up-step walk of col_B, with
    x_lambda col_A T_sigma = (x_lambda col_A T_sigma') T_{s_j} for the
    step sigma' s_j = sigma that reached sigma; each product is kept only
    until the steps from its sigma are taken."""
    lam = jdelta_inv(a_mat)[0]
    _, d_b, nu = jdelta_inv(b_mat)
    J = lam.young_generators()
    col_a, walk = _coset_column(a_mat)[0], _coset_column(b_mat)[1]
    pending = {d_b: mul_basis(col_a, d_b, J)}
    h = HeckeElt.zero(col_a.r)
    for sigma, steps in walk:
        h_sigma = pending.pop(sigma)
        h.add_scaled(h_sigma)
        for j, y in steps:
            pending[y] = _mul_simple(h_sigma, j, J)
    return _decompose_invariant(h, lam, nu)


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


def theta(a_mat, r=None):
    """The canonical basis element theta_{A,r}; r must be sigma(A)."""
    if r is not None and a_mat.sigma() != r:
        raise ValueError("sigma(A) != r")
    return _theta(a_mat)


@cache
def _theta(a_mat):
    """theta_{A,r} for r = sigma(A), from the default KLCache.

    With d = rho^a tau_0, as s_j rho^a = rho^a s_{j-a}, the left
    lambda-generators j act on tau_0 in W_r as J = {j - a mod r}.  The
    sigma of W_J tau_0 S_mu minimal in W_J sigma are a lower interval in
    right weak order, so the rises (_rises) climb from tau_0 to its top
    tau, and d+ = rho^a w_J tau is longest in the double coset.  The
    T-support of C'_{d+} is a union of double cosets; the coefficient at
    the longest y+ = rho^a w_J sigma of each (sigma minimal, with no rise)
    gives the bracket coefficient v^{l(y+) - l(d+)} P_{y+, d+}, that is
    v^{l(sigma) - l(tau)} times the entry at sigma of the column of tau.
    """
    r = a_mat.sigma()
    lam, d, mu = jdelta_inv(a_mat)
    a, tau = strip_rho(d)
    J = {(j - a - 1) % r + 1 for j in lam.young_generators()}
    right = mu.young_generators()
    while rise := next(_rises(tau, right, J), None):
        tau = rise[1]
    col = kl_column(tau, J)
    key = partial(jdelta_key, lam.block_indices(), mu.block_indices(), lam.n)
    e = -tau.length()
    coeffs = {
        key(sigma.window, a): p.to_laurent(e + sigma.length())
        for sigma, p in col.items()
        if not any(_rises(sigma, right, J))
    }
    terms = {cells_matrix(a_mat.n, cells): c for cells, c in coeffs.items()}
    res = SchurElt(a_mat.n, r, terms)
    if res.coeff(a_mat) != LP_ONE:
        raise AssertionError("theta leading coefficient not 1 for %r" % a_mat)
    return res


@cache
def bar_bracket(b_mat):
    """bar([B]) expanded in the bracket basis.

    Realized on x_mu: bar(f)(x_mu) = v^{2 l(w_{0,mu})} t_bar(f(x_mu)), and
    [B](x_mu) = v^{-d_B} x_lambda col_B, so a column scaled and decomposed.
    """
    lam, _, mu = jdelta_inv(b_mat)
    shift = b_mat.d_exponent() + 2 * (mu.longest_length() - lam.longest_length())
    barh = t_bar(_coset_column(b_mat)[0], lam.young_generators()).scale(
        LaurentPoly.v_power(shift)
    )
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


def a_block(a_mat, r):
    """A(0, r) = sum over lambda in Lambda(n, r - sigma(A)) of
    [A + diag(lambda)]; zero if sigma(A) > r.

    A must have zero diagonal.
    """
    if not a_mat.zero_diagonal():
        raise ValueError("a_block requires a zero-diagonal matrix")
    n = a_mat.n
    rem = r - a_mat.sigma()
    if rem < 0:
        return SchurElt.zero(n, r)
    terms = {
        a_mat + AffMatrix.diag(n, lam): LP_ONE for lam in compositions(n, rem)
    }
    return SchurElt(n, r, terms)


def _weight(c_mat):
    """W(C) = sum of a_ij |j - i| (|j - i| + 1) / 2 over one period, which is
    sum_{i=1..n, j != i} sigma_ij(C): B strictly below A has W(B) < W(A)."""
    return sum(a * abs(j - i) * (abs(j - i) + 1) // 2
               for (i, j), a in c_mat.entries())


def canonical_expand(x):
    """Expand a SchurElt in the canonical basis by triangular substitution.

    Returns {A: coefficient} with x = sum coefficient * theta_{A,r}.  A
    heap on -W pops sqsubseteq-maximal keys, skipping those that cancelled.
    """
    remaining = dict(x.terms)
    heap = [(-_weight(c), c.entries(), c) for c in remaining]
    heapq.heapify(heap)
    out = {}
    while heap:
        c_mat = heapq.heappop(heap)[2]
        g = remaining.get(c_mat)
        if g is None:
            continue
        out[c_mat] = g
        terms = theta(c_mat, x.r).terms
        for b in terms.keys() - remaining.keys():
            heapq.heappush(heap, (-_weight(b), b.entries(), b))
        accumulate(remaining, terms.items(), -g)
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
        b_mat = max(diff.terms, key=_weight)
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
    """Empty every per-process memo of the package and the tables of the
    default KLCache.

    The memos are found, not listed: every attribute of a loaded
    affschur module with a cache_clear, or a wrapper in front of one
    (followed through __wrapped__), is cleared."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("affschur."):
            continue
        for value in vars(module).values():
            while value is not None and not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)
            if value is not None:
                value.cache_clear()
    default_cache().clear()
