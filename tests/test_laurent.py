import pytest
from hypothesis import given, strategies as st

from affschur.laurent import (
    LP_ONE,
    LP_ZERO,
    IntPoly,
    InterpolationError,
    LaurentPoly,
    poly_interpolate,
)

from helpers import int_poly_in_q, only_even_exponents


def lp(d):
    return LaurentPoly(d)


def test_mul_binomial():
    a = lp({1: 1, -1: 1})
    assert a * a == lp({2: 1, 0: 2, -2: 1})


def test_mul_identity():
    a = lp({3: 7, -2: -4})
    assert a * LP_ONE == a
    assert a * LP_ZERO == LP_ZERO


def test_mul_difference_of_squares():
    assert lp({2: 1, 0: -1}) * lp({2: 1, 0: 1}) == lp({4: 1, 0: -1})


def test_bar_examples():
    assert lp({2: 1, -1: 3}).bar() == lp({-2: 1, 1: 3})
    assert lp({0: 5}).bar() == lp({0: 5})
    sym = lp({1: 1, -1: 1})
    assert sym.bar() == sym


def test_is_nonneg():
    assert lp({1: 1, -1: 1}).is_nonneg()
    assert not lp({2: 1, 0: -1}).is_nonneg()
    assert LP_ZERO.is_nonneg()


def test_shift_and_support():
    a = lp({0: 1, 2: 1})
    assert a.shift(-1) == lp({-1: 1, 1: 1})


def test_min_max_exp():
    a = lp({-3: 1, 5: 2})
    assert a.max_exp() == 5


def test_even_exponents_and_q_conversion():
    a = lp({0: 1, 2: 1})
    assert only_even_exponents(a)
    assert int_poly_in_q(a) == IntPoly((1, 1))
    assert int_poly_in_q(lp({})) == IntPoly(())
    assert not only_even_exponents(lp({1: 1}))
    for bad in (lp({1: 1}), lp({-2: 1, 0: 1})):
        with pytest.raises(ValueError, match="not a polynomial in q"):
            int_poly_in_q(bad)


def test_to_json_writes_exponents_and_decimal_strings():
    a = lp({-2: 10**30, 4: -7})
    assert a.to_json() == [[-2, "1" + "0" * 30], [4, "-7"]]


def test_intpoly_basics():
    p = IntPoly((1, 1))
    assert p.degree() == 1
    assert p.evaluate(3) == 4
    assert p.to_laurent() == lp({0: 1, 2: 1})
    assert IntPoly(()).degree() == -1
    assert IntPoly((0, 0, 1)).to_laurent() == lp({4: 1})


def test_interpolate_line():
    p = poly_interpolate([(2, 3), (3, 4), (5, 6)], 2)
    assert p == IntPoly((1, 1))


def test_interpolate_constant():
    assert poly_interpolate([(2, 1), (3, 1)], 1) == IntPoly((1,))


def test_interpolate_inconsistent():
    with pytest.raises(InterpolationError):
        poly_interpolate([(2, 2), (3, 3)], 0)


small_lps = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=8,
).map(LaurentPoly)


@given(small_lps, small_lps, small_lps)
def test_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(small_lps, small_lps)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5))
def test_interpolation_reproduces_samples(coeffs):
    p = IntPoly(tuple(coeffs))
    qs = [2, 3, 4, 5, 7][: p.degree() + 1 or 1]
    samples = [(q, p.evaluate(q)) for q in qs]
    back = poly_interpolate(samples, len(samples) - 1)
    for q, val in samples:
        assert back.evaluate(q) == val


def _lagrange_over_q(samples, degree_bound):
    """The interpolant through the first degree_bound + 1 samples, as
    Fraction coefficients from degree 0: the oracle for poly_interpolate."""
    from fractions import Fraction

    pts = samples[: degree_bound + 1]
    coeffs = [Fraction(0)] * len(pts)
    for i, (qi, ci) in enumerate(pts):
        num, denom = [Fraction(1)], Fraction(1)
        for j, (qj, _) in enumerate(pts):
            if j != i:
                num = [Fraction(0)] + num
                for k in range(len(num) - 1):
                    num[k] -= qj * num[k + 1]
                denom *= qi - qj
        for k, a in enumerate(num):
            coeffs[k] += Fraction(ci) / denom * a
    return coeffs


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-12, 12), min_size=1, max_size=7, unique=True),
    st.integers(0, 6),
    st.integers(-3, 3),
    st.data(),
)
def test_interpolate_agrees_with_lagrange_over_q(coeffs, qs, slack, nudge, data):
    """Samples of an integer polynomial, one of them moved by nudge, at
    distinct integer nodes: poly_interpolate returns the Lagrange
    interpolant over Q exactly when that lies in Z[q] and meets every
    sample, and raises InterpolationError otherwise."""
    degree_bound = min(len(coeffs) - 1 + slack // 3, len(qs) - 1)
    samples = [(q, IntPoly(tuple(coeffs)).evaluate(q)) for q in qs]
    k = data.draw(st.integers(0, len(qs) - 1))
    samples[k] = (samples[k][0], samples[k][1] + nudge)
    oracle = _lagrange_over_q(samples, degree_bound)
    expected = None
    if all(a.denominator == 1 for a in oracle):
        expected = IntPoly(tuple(int(a) for a in oracle))
        if any(expected.evaluate(q) != c for q, c in samples):
            expected = None
    if expected is None:
        with pytest.raises(InterpolationError):
            poly_interpolate(samples, degree_bound)
    else:
        assert poly_interpolate(samples, degree_bound) == expected


@given(
    st.lists(st.integers(-(10**20), 10**20), max_size=6),
    st.integers(-8, 8),
    st.integers(-8, 8),
)
def test_intpoly_keeps_its_laurent_forms_and_strings(coeffs, e, d):
    """to_laurent, the shifts of its forms and to_json equal the plain
    formulas, are built once, and what one caller does with a result
    never reaches the next caller."""
    p = IntPoly(coeffs)
    plain = lp({2 * k: a for k, a in enumerate(coeffs)})
    assert p.to_laurent() == plain
    assert p.to_laurent(e) == plain.shift(e)
    assert p.to_laurent(e) is p.to_laurent(e)
    assert p.to_laurent().shift(e) is p.to_laurent(e)
    assert p.to_laurent(e).shift(d) is p.to_laurent(e + d)
    assert p.to_laurent(e).shift(d) == plain.shift(e + d)
    # any other LaurentPoly shifts into a new object each time
    assert plain.shift(e) is not plain.shift(e)
    assert (p.to_laurent(e) + LP_ONE) - LP_ONE == plain.shift(e)
    assert p.to_laurent(e) == plain.shift(e)

    expected = list(coeffs)
    while expected and expected[-1] == 0:
        expected.pop()
    expected = [str(a) for a in expected]
    first = p.to_json()
    assert first == expected
    first.append("0")
    first[:1] = ["mutated"]
    assert p.to_json() == expected
    assert p.to_json() is not p.to_json()


small_intpolys = st.lists(
    st.integers(min_value=-3, max_value=3), max_size=5
).map(IntPoly)


@given(small_intpolys, small_intpolys, st.integers(-3, 3), st.integers(0, 3))
def test_intpoly_arithmetic_matches_laurent(a, b, m, k):
    """The sums and m q^k multiples the KL recursion runs on, against the
    same sums in Z[v, v^-1]; results never end in a zero coefficient."""
    neg_a = IntPoly(tuple(-x for x in a.coeffs))
    for p, expected in [
        (a + b, a.to_laurent() + b.to_laurent()),
        (a + neg_a, LaurentPoly()),
        (a.mul_monomial(m, k), a.to_laurent() * lp({2 * k: m})),
    ]:
        assert p.to_laurent() == expected
        assert bool(p) == bool(expected)
        assert not p.coeffs or p.coeffs[-1] != 0
    assert a.to_laurent(-k) == a.to_laurent().shift(-k)
