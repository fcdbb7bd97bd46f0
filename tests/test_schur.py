import random
import sys

import pytest

from affschur import hall, schur, transfer
from affschur.affmat import AffMatrix, enumerate_theta_band
from affschur.affweyl import bruhat_leq, jdelta_inv, simple
from affschur.heckekl import KLCache, double_coset_sum
from affschur.laurent import LP_ONE, LaurentPoly
from affschur.schur import (
    SchurElt,
    a_block,
    bar,
    canonical_expand,
    e_basis_mult,
    g_constants,
    is_triangular,
    leq_bo,
    mult,
    tau,
    theta,
    theta_by_elimination,
)

A_CROSS = AffMatrix(2, {(1, 2): 1, (2, 1): 1})
DIAG_11 = AffMatrix.diag(2, (1, 1))


def lp(d):
    return LaurentPoly(d)


def test_diagonal_idempotents():
    for lam in ((2, 0), (1, 1), (0, 2)):
        for mu in ((2, 0), (1, 1), (0, 2)):
            x = mult(
                SchurElt.bracket(AffMatrix.diag(2, lam)),
                SchurElt.bracket(AffMatrix.diag(2, mu)),
            )
            if lam == mu:
                assert x == SchurElt.bracket(AffMatrix.diag(2, lam))
            else:
                assert x.is_zero()


def test_left_unit_on_weight():
    b = A_CROSS
    unit = SchurElt.bracket(AffMatrix.diag(2, b.ro()))
    assert mult(unit, SchurElt.bracket(b)) == SchurElt.bracket(b)


def test_e_mult_mirrors_quadratic_relation():
    table = e_basis_mult(A_CROSS, A_CROSS)
    assert table == {
        A_CROSS: lp({2: 1, 0: -1}),
        DIAG_11: lp({2: 1}),
    }


def test_theta_worked_value():
    th = theta(A_CROSS, 2)
    assert th.coeff(A_CROSS) == LP_ONE
    assert th.coeff(DIAG_11) == lp({-1: 1})
    assert len(th.terms) == 2


def test_theta_fills_the_cache_it_is_given():
    c1, c2 = KLCache(), KLCache()
    th = theta(A_CROSS, 2, c1)
    assert theta(A_CROSS, 2, c2) == th
    assert c1.p_table and c2.p_table == c1.p_table


def test_decompose_invariant_reads_cosets_without_enumerating(monkeypatch):
    a = AffMatrix(2, {(1, 1): 1, (1, 2): 1, (2, 1): 1})  # coset of 4 elements
    lam, d, mu = jdelta_inv(a)
    h = double_coset_sum(lam, d, mu).scale(lp({1: 1}))

    def enumerate_coset(*args):
        raise RuntimeError("double coset enumerated")

    monkeypatch.setattr(schur, "double_coset", enumerate_coset)
    assert schur._decompose_invariant(h, lam, mu) == {a: lp({1: 1})}
    partial = h._new(dict(list(h.terms.items())[1:]))
    with pytest.raises(AssertionError, match="not constant"):
        schur._decompose_invariant(partial, lam, mu)


def test_theta_of_diagonal_is_bracket():
    d = AffMatrix.diag(2, (2, 1))
    assert theta(d, 3) == SchurElt.bracket(d)


def test_theta_of_rho_coset_is_single_term():
    a = AffMatrix(2, {(1, 0): 1, (2, 1): 1})
    assert theta(a, 2) == SchurElt.bracket(a)


def test_theta_matches_elimination_oracle():
    for a in enumerate_theta_band(2, 2, band=1):
        assert theta(a, 2) == theta_by_elimination(a, 2)


def test_theta_bar_invariant_and_triangular():
    for a in enumerate_theta_band(2, 2, band=1):
        th = theta(a, 2)
        assert bar(th) == th
        assert is_triangular(th, a)


def test_bar_is_involution_on_brackets():
    for a in enumerate_theta_band(2, 2, band=1):
        x = SchurElt.bracket(a)
        assert bar(bar(x)) == x


def test_bar_fixes_idempotents():
    for lam in ((2, 0), (1, 1)):
        x = SchurElt.bracket(AffMatrix.diag(2, lam))
        assert bar(x) == x


def test_tau_transposes():
    x = SchurElt.bracket(A_CROSS) + SchurElt.bracket(DIAG_11).scale(
        lp({1: 2})
    )
    t = tau(x)
    assert t.coeff(A_CROSS.transpose()) == LP_ONE
    assert t.coeff(DIAG_11) == lp({1: 2})
    assert tau(t) == x


def test_leq_bo_example():
    assert leq_bo(DIAG_11, A_CROSS)
    assert not leq_bo(A_CROSS, DIAG_11)


def test_a_block_zero_matrix_gives_identity():
    ident = a_block(AffMatrix(2, {}), (0, 0), 2)
    assert ident.coeff(AffMatrix.diag(2, (2, 0))) == LP_ONE
    assert ident.coeff(AffMatrix.diag(2, (1, 1))) == LP_ONE
    assert ident.coeff(AffMatrix.diag(2, (0, 2))) == LP_ONE
    for a in enumerate_theta_band(2, 2, band=1):
        x = SchurElt.bracket(a)
        assert mult(ident, x) == x
        assert mult(x, ident) == x


def test_a_block_saturated_and_overflow():
    a = AffMatrix(2, {(1, 2): 2})
    assert a_block(a, (0, 0), 2) == SchurElt.bracket(a, 2)
    assert a_block(a, (0, 0), 1).is_zero()


def test_g_constants_worked_value():
    g = g_constants(A_CROSS, A_CROSS, 2)
    assert g == {A_CROSS: lp({1: 1, -1: 1})}


def test_g_constants_identity_weight():
    d = AffMatrix.diag(2, A_CROSS.ro())
    assert g_constants(d, A_CROSS, 2) == {A_CROSS: LP_ONE}


def test_g_constants_incompatible_weights():
    a = AffMatrix.diag(2, (2, 0))
    b = AffMatrix.diag(2, (0, 2))
    assert g_constants(a, b, 2) == {}


def test_canonical_expand_round_trip():
    for a in enumerate_theta_band(2, 2, band=1):
        coeffs = canonical_expand(SchurElt.bracket(a))
        total = SchurElt.zero(2, 2)
        for b, c in coeffs.items():
            total = total + theta(b, 2).scale(c)
        assert total == SchurElt.bracket(a)


def test_mult_associative_on_band_triples():
    mats = enumerate_theta_band(2, 2, band=1)
    rng = random.Random(7)
    triples = [
        (rng.choice(mats), rng.choice(mats), rng.choice(mats))
        for _ in range(60)
    ]
    for a, b, c in triples:
        xa, xb, xc = (SchurElt.bracket(m) for m in (a, b, c))
        assert mult(mult(xa, xb), xc) == mult(xa, mult(xb, xc))


def test_nu_constants_count_points():
    for a, b in (
        (A_CROSS, A_CROSS),
        (A_CROSS, DIAG_11),
        (AffMatrix.diag(2, (2, 0)), AffMatrix.diag(2, (2, 0))),
    ):
        if a.co() != b.ro():
            continue
        for c, val in e_basis_mult(a, b).items():
            assert val.only_even_exponents()
            for q in (2, 3, 4, 5):
                count = val.to_int_poly_in_q().evaluate(q)
                assert count >= 0


def _package_modules():
    return [m for name, m in sys.modules.items() if name.startswith("affschur.")]


def test_clear_caches_empties_every_memo():
    s1 = AffMatrix(2, {(1, 2): 1})
    g_constants(A_CROSS, A_CROSS, 2)
    transfer.f_constants(s1, s1)
    hall.hall_poly(s1, s1, AffMatrix(2, {(1, 2): 2}))
    s_1, s_2 = simple(3, 1), simple(3, 2)
    assert bruhat_leq(s_1, s_1 * s_2 * s_1)
    bar(SchurElt.bracket(A_CROSS))
    memoized = {
        id(fn): fn
        for mod in _package_modules()
        for fn in vars(mod).values()
        if hasattr(fn, "cache_info")
    }.values()
    assert len(memoized) >= 12
    assert all(fn.cache_info().currsize > 0 for fn in memoized)

    schur.clear_caches()
    assert [fn for fn in memoized if fn.cache_info().currsize] == []
    kl = schur.default_cache()
    assert not (kl.cprime_table or kl.p_table or kl.theta_table)
    hand_rolled = [
        (mod.__name__, name)
        for mod in _package_modules()
        for name, value in vars(mod).items()
        if "memo" in name and isinstance(value, dict)
    ]
    assert hand_rolled == []
