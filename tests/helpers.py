"""Helpers shared by the test modules: oracles and maps that only the
tests use."""

from affschur.affmat import AffMatrix
from affschur.affweyl import AffPerm
from affschur.laurent import IntPoly
from affschur.schur import SchurElt
from affschur.transfer import tilde


def only_even_exponents(x):
    """True iff every exponent of the LaurentPoly x is even."""
    return all(e % 2 == 0 for e, _ in x.items())


def int_poly_in_q(x):
    """The LaurentPoly x read as a polynomial in q = v^2.

    Requires all exponents even and nonnegative.
    """
    exps = [e for e, _ in x.items()]
    if not exps:
        return IntPoly(())
    if not only_even_exponents(x) or min(exps) < 0:
        raise ValueError("not a polynomial in q = v^2: %s" % x)
    return IntPoly(tuple(x.coeff(2 * k) for k in range(max(exps) // 2 + 1)))


def simple(r, i):
    """The simple reflection s_i (indices taken modulo r; s_r is affine)."""
    i = (i - 1) % r + 1
    w = list(range(1, r + 1))
    if i < r:
        w[i - 1], w[i] = w[i], w[i - 1]
    else:
        w[0] = 0
        w[r - 1] = r + 1
    return AffPerm(w)


def left_descent(w, i):
    """True iff l(s_i w) < l(w), i.e. w^-1(i) > w^-1(i+1)."""
    inv = w.inverse()
    return inv.apply(i) > inv.apply(i + 1)


def transpose(a_mat):
    """The matrix with entries a_{j,i} at (i, j)."""
    return AffMatrix(a_mat.n, {(j, i): a for (i, j), a in a_mat.entries()})


def tau(x):
    """The anti-involution [A] -> [transpose(A)] of the Schur algebra."""
    return SchurElt(x.n, x.r, {transpose(a): c for a, c in x.terms.items()})


def iota(x, big_n):
    """iota_{n,N}: [A] -> [A-tilde], extended linearly."""
    return SchurElt(
        big_n, x.r, {tilde(a_mat, big_n): c for a_mat, c in x.terms.items()}
    )
