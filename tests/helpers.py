"""Helpers shared by the test modules."""

from affschur.laurent import IntPoly


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
