import itertools

import pytest

from affschur.affmat import AffMatrix, dim_vector, theta_plus_by_dim
from affschur.hall import (
    GF,
    euler,
    hall_count,
    hall_mult_utilde,
    hall_poly,
    utilde_exponent,
    zeta_check,
)
from affschur.laurent import LaurentPoly

S1 = AffMatrix(2, {(1, 2): 1})
S2 = AffMatrix(2, {(2, 3): 1})
M13 = AffMatrix(2, {(1, 3): 1})


def lp(d):
    return LaurentPoly(d)


def test_euler_form():
    assert euler((1, 0), (1, 0)) == 1
    assert euler((1, 0), (0, 1)) == -1
    assert euler((1, 1), (1, 1)) == 0


def test_gf_field_axioms_small():
    for q in (2, 3, 4, 5, 8, 9):
        f = GF(q)
        for a in range(q):
            assert f.add[a][f.neg[a]] == 0
            if a:
                assert f.mul[a][f.inv[a]] == 1
        for a in range(q):
            for b in range(q):
                assert f.add[a][b] == f.add[b][a]
                assert f.mul[a][b] == f.mul[b][a]


def test_hall_count_socle():
    assert hall_count(M13, S1, S2, 2) == 1
    assert hall_count(M13, S1, S2, 3) == 1


def test_hall_count_semisimple():
    two = AffMatrix(2, {(1, 2): 1, (2, 3): 1})
    assert hall_count(two, S2, S1, 3) == 1


def test_hall_count_lines():
    double = AffMatrix(2, {(1, 2): 2})
    assert hall_count(double, S1, S1, 2) == 3
    assert hall_count(double, S1, S1, 4) == 5


def test_hall_count_forbids_wrong_order():
    assert hall_count(M13, S2, S1, 2) == 0


def test_hall_poly_line_pencil():
    phi = hall_poly(S1, S1, AffMatrix(2, {(1, 2): 2}))
    assert phi.evaluate(2) == 3
    assert phi.evaluate(7) == 8
    assert phi.coeffs == (1, 1)


def test_hall_poly_extension():
    phi = hall_poly(S1, S2, M13)
    assert phi.coeffs == (1,)


def test_hall_poly_dimension_mismatch():
    with pytest.raises(ValueError):
        hall_poly(S1, S1, M13)


def test_utilde_exponents():
    assert utilde_exponent(S1) == 0
    assert utilde_exponent(AffMatrix(2, {(1, 2): 2})) == 2
    assert utilde_exponent(M13) == -1


def test_utilde_product_of_simples():
    table = hall_mult_utilde(S1, S1)
    assert table == {AffMatrix(2, {(1, 2): 2}): lp({1: 1, -1: 1})}


def test_utilde_unit():
    zero = AffMatrix(2, {})
    assert hall_mult_utilde(S1, zero) == {S1: lp({0: 1})}
    assert hall_mult_utilde(zero, S1) == {S1: lp({0: 1})}


def test_utilde_cross_term_contains_extension():
    table = hall_mult_utilde(S1, S2)
    assert M13 in table
    assert not table[M13].is_zero()


def test_interpolation_is_an_extension():
    a = AffMatrix(2, {(1, 2): 1, (2, 3): 1})
    for c in theta_plus_by_dim(2, (2, 2)):
        phi = hall_poly(a, a, c)
        for q in (2, 3, 4, 5, 7):
            assert phi.evaluate(q) == hall_count(c, a, a, q)


def test_hall_associativity_small():
    small = [
        m
        for d in ((1, 0), (0, 1), (1, 1))
        for m in theta_plus_by_dim(2, d)
    ]
    for a, b, c in itertools.product(small, repeat=3):
        da, db, dc = (dim_vector(m) for m in (a, b, c))
        dtot = tuple(x + y + z for x, y, z in zip(da, db, dc))
        if sum(dtot) > 4:
            continue
        dab = tuple(x + y for x, y in zip(da, db))
        dbc = tuple(x + y for x, y in zip(db, dc))
        for d_mat in theta_plus_by_dim(2, dtot):
            left = LaurentPoly()
            for x in theta_plus_by_dim(2, dab):
                left = left + (
                    hall_poly(a, b, x).to_laurent()
                    * hall_poly(x, c, d_mat).to_laurent()
                )
            right = LaurentPoly()
            for y in theta_plus_by_dim(2, dbc):
                right = right + (
                    hall_poly(b, c, y).to_laurent()
                    * hall_poly(a, y, d_mat).to_laurent()
                )
            assert left == right


def test_zeta_bridge_examples():
    assert zeta_check(S1, S1, 2)
    assert zeta_check(S1, S2, 3)
    assert zeta_check(S1, AffMatrix(2, {}), 2)
