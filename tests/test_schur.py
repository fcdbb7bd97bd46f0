import random
import re
import sys

import pytest

from affschur import affweyl, hall, heckekl, schur, transfer
from affschur.affmat import AffMatrix, enumerate_theta_band, sqsubseteq
from affschur.affweyl import (
    AffPerm,
    Composition,
    bruhat_leq,
    coset_longest,
    coset_size,
    double_coset,
    identity,
    jdelta,
    jdelta_inv,
    strip_rho,
)
from affschur.heckekl import (
    HeckeElt,
    KLCache,
    coset_step,
    cprime,
    kl_column,
    kl_poly,
    t_bar,
    t_mul,
)
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
    theta,
    theta_by_elimination,
)

from helpers import (
    int_poly_in_q,
    left_descent,
    only_even_exponents,
    simple,
    tau,
    transpose,
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


def double_coset_sum(lam, d, mu):
    """T_{S_lambda d S_mu} = sum of T_w over the double coset of d."""
    _, _, elems = double_coset(lam, d, mu)
    return HeckeElt(d.r, {w: LP_ONE for w in elems})


def test_double_coset_sum_example():
    lam = Composition((2, 0))
    s1 = simple(2, 1)
    assert double_coset_sum(lam, identity(2), lam) == (
        HeckeElt.basis(identity(2)) + HeckeElt.basis(s1)
    )


def is_left_minimal(w, lam):
    return not any(left_descent(w, i) for i in lam.young_generators())


def _decompose_whole(h, lam, nu):
    """A whole (S_lambda, S_nu)-invariant T-basis sum as {matrix:
    coefficient}: each double coset carries one coefficient on all of
    its coset_size elements."""
    groups = {}
    for w, c in h.terms.items():
        groups.setdefault(jdelta(lam, w, nu), []).append(c)
    for a_mat, cs in groups.items():
        assert len(cs) == coset_size(a_mat) and all(c == cs[0] for c in cs)
    return {a_mat: cs[0] for a_mat, cs in groups.items()}


def _e_mult_by_whole_coset(a_mat, b_mat):
    """e_A e_B as a T-basis product: the whole double-coset sum of A
    times the mu-minimal elements of the coset of B, decomposed into
    whole double-coset sums."""
    lam, d_a, mu = jdelta_inv(a_mat)
    mu, d_b, nu = jdelta_inv(b_mat)
    reps = [w for w in double_coset(mu, d_b, nu)[2] if is_left_minimal(w, mu)]
    h2 = HeckeElt(d_b.r, {w: LP_ONE for w in reps})
    h = t_mul(double_coset_sum(lam, d_a, mu), h2)
    return _decompose_whole(h, lam, nu)


def test_e_mult_matches_the_whole_coset_oracle():
    """The walk over col_B against the whole-coset T-basis product on
    every composable band-1 pair with n = 2, r <= 4 and n = 3, r <= 3."""
    pairs = 0
    for n, r in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        mats = enumerate_theta_band(n, r, band=1)
        for a_mat in mats:
            for b_mat in mats:
                if a_mat.co() == b_mat.ro():
                    pairs += 1
                    assert e_basis_mult(a_mat, b_mat) == _e_mult_by_whole_coset(
                        a_mat, b_mat
                    )
    assert pairs == 7871


def test_coset_column_checks_one_element_per_left_coset(monkeypatch):
    a = AffMatrix(2, {(1, 1): 1, (1, 2): 1, (2, 1): 1})  # 2 left cosets
    lam, d, mu = jdelta_inv(a)
    reps = [w for w in double_coset(lam, d, mu)[2] if is_left_minimal(w, lam)]
    assert len(reps) == 2 and d in reps
    schur._coset_column.cache_clear()
    assert set(schur._coset_column(a)[0].terms) == set(reps)

    def stay_at_d(sigma, i, J):
        # the walk from d never reaches the other left coset
        return (None, False) if sigma == d else coset_step(sigma, i, J)

    schur._coset_column.cache_clear()
    monkeypatch.setattr(schur, "coset_step", stay_at_d)
    with pytest.raises(AssertionError, match="factorization failed"):
        schur._coset_column(a)
    # the product walks col_B with the same check, naming B
    schur.clear_caches()
    with pytest.raises(AssertionError, match=re.escape("failed for %r" % a)):
        e_basis_mult(AffMatrix.diag(2, a.ro()), a)


def test_products_and_bar_do_not_call_t_mul(monkeypatch):
    def no_t_mul(*args, **kwargs):
        raise RuntimeError("t_mul called")

    # a composable band-1 pair of Theta(3, 4) with six g-constants
    a = b = AffMatrix(3, {(1, 0): 1, (1, 2): 1, (2, 1): 1, (3, 4): 1})
    monkeypatch.setattr(schur, "t_mul", no_t_mul, raising=False)
    monkeypatch.setattr(heckekl, "t_mul", no_t_mul)
    schur.clear_caches()
    assert len(g_constants(a, b, 4)) == 6
    assert schur.bar_bracket(b).coeff(b) == LP_ONE


def test_theta_worked_value():
    th = theta(A_CROSS, 2)
    assert th.coeff(A_CROSS) == LP_ONE
    assert th.coeff(DIAG_11) == lp({-1: 1})
    assert len(th.terms) == 2


def test_theta_fills_the_default_table():
    """theta keeps its result and builds its column in the default
    KLCache, which it fills the same way again once cleared."""
    schur.clear_caches()
    th = theta(A_CROSS, 2)
    assert theta(A_CROSS, 2) is th
    p_table = dict(schur.default_cache().p_table)
    schur.clear_caches()
    assert theta(A_CROSS, 2) == th
    assert p_table and schur.default_cache().p_table == p_table


def _theta_from_cprime(a_mat, r, cache):
    """theta_{A,r} read off the whole C'_{d+}: the coefficient at each
    y+ with every lambda-generator a left and every mu-generator a
    right descent, shifted by l(y+)."""
    lam, d, mu = jdelta_inv(a_mat)
    c = cprime(coset_longest(lam, d, mu), cache)
    left, right = lam.young_generators(), mu.young_generators()
    terms = {
        jdelta(lam, y, mu): coeff.shift(y.length())
        for y, coeff in c.terms.items()
        if all(left_descent(y, i) for i in left)
        and all(y.right_descent(j) for j in right)
    }
    return SchurElt(a_mat.n, r, terms)


def test_theta_matches_the_cprime_oracle_on_band_slices():
    """The parabolic column against the whole C'_{d+}, on every band-1
    matrix with n in {2, 3} and r in {2, 3, 4}, including the cosets
    d+ = rho^a x with a != 0 and those whose J holds the affine s_r."""
    shifted = affine = 0
    for n in (2, 3):
        for r in (2, 3, 4):
            schur.clear_caches()
            full = KLCache()
            for a_mat in enumerate_theta_band(n, r, band=1):
                assert theta(a_mat, r) == _theta_from_cprime(
                    a_mat, r, full
                )
                lam, d, mu = jdelta_inv(a_mat)
                a, _ = strip_rho(coset_longest(lam, d, mu))
                shifted += a != 0
                affine += any((j - a) % r == 0 for j in lam.young_generators())
    assert shifted and affine


def _theta_column(a_mat):
    """(x, J, w_J, column) of the parabolic KL column theta_{A,r} reads:
    x is d+ stripped of its rho part, J the lambda-generators moved past
    it (schur._theta)."""
    r = a_mat.sigma()
    lam, d, mu = jdelta_inv(a_mat)
    a, x = strip_rho(coset_longest(lam, d, mu))
    J = [(j - a - 1) % r + 1 for j in lam.young_generators()]
    return (x, J) + kl_column(x, J)


def test_theta_records_true_kl_polynomials():
    """Every entry P_{w_J sigma, x} of the columns theta reads equals
    kl_poly from a cache that only cprime fills."""
    schur.clear_caches()
    full = KLCache()
    parabolic = 0
    for a_mat in enumerate_theta_band(2, 4, band=1):
        theta(a_mat, 4)
        x, J, wj, col = _theta_column(a_mat)
        parabolic += bool(J)
        for sigma, p in col.items():
            assert kl_poly(wj * sigma, x, full) == p
    assert parabolic


def test_theta_on_a_full_column_fills_the_p_table():
    """With lambda all ones theta reads the full column (J empty), the
    one cprime reuses, so its entries are in the P-table: kl_poly on the
    default cache answers as from a fresh one for every y <= x."""
    schur.clear_caches()
    theta(A_CROSS, 2)
    x, J, _, col = _theta_column(A_CROSS)
    assert J == [] and len(col) > 1
    fresh = KLCache()
    for y in col:
        assert kl_poly(y, x) == kl_poly(y, x, fresh)


def test_p_table_holds_full_columns_only():
    """After the thetas of every band-1 matrix at (n, r) = (2, 2), where
    A_CROSS reads a full column, and (2, 4), where every column is
    parabolic, each P-table entry P_{y,w} comes from the full column of
    w."""
    schur.clear_caches()
    for r in (2, 4):
        for a_mat in enumerate_theta_band(2, r, band=1):
            theta(a_mat, r)
    cache = schur.default_cache()
    assert cache.p_table
    for _, _, wwin in cache.p_table:
        assert ((), wwin) in cache.cprime_table


def test_decompose_invariant_reads_cosets_without_enumerating(monkeypatch):
    a = AffMatrix(2, {(1, 1): 1, (1, 2): 1, (2, 1): 1})  # coset of 4 elements
    lam, d, mu = jdelta_inv(a)
    whole = double_coset_sum(lam, d, mu).scale(lp({1: 1}))
    h = whole._new(
        {w: c for w, c in whole.terms.items() if is_left_minimal(w, lam)}
    )  # the column: one element of each of the 2 left cosets
    expected_bar = _bar_by_whole_coset(a)

    def enumerate_coset(*args):
        raise RuntimeError("double coset enumerated")

    monkeypatch.setattr(affweyl, "double_coset", enumerate_coset)
    assert not hasattr(schur, "double_coset")
    assert schur._decompose_invariant(h, lam, mu) == {a: lp({1: 1})}
    partial = h._new(dict(list(h.terms.items())[1:]))
    with pytest.raises(AssertionError, match="not constant"):
        schur._decompose_invariant(partial, lam, mu)
    # nor do the column and bar of the Schur side
    schur._coset_column.cache_clear()
    schur.bar_bracket.cache_clear()
    assert schur.bar_bracket(a) == expected_bar


def _bar_by_whole_coset(b_mat):
    """bar([B]) from the whole double-coset sum: bar(f)(x_mu) =
    v^{2 l(w_{0,mu})} t_bar(f(x_mu)) with [B](x_mu) = v^{-d_B}
    T_{S_lambda d S_mu}, decomposed into whole double-coset sums."""
    lam, d, mu = jdelta_inv(b_mat)
    h = double_coset_sum(lam, d, mu).scale(
        LaurentPoly.v_power(-b_mat.d_exponent())
    )
    barh = t_bar(h).scale(LaurentPoly.v_power(2 * mu.longest_length()))
    e_coeffs = _decompose_whole(barh, lam, mu)
    terms = {
        c_mat: c.shift(c_mat.d_exponent()) for c_mat, c in e_coeffs.items()
    }
    return SchurElt(b_mat.n, b_mat.sigma(), terms)


def test_bar_matches_the_whole_coset_oracle():
    """bar on x_lambda columns against bar on whole double-coset sums,
    on every band-1 matrix with n in {2, 3} and 2 <= r <= 4."""
    count = 0
    for n in (2, 3):
        for r in (2, 3, 4):
            for b_mat in enumerate_theta_band(n, r, band=1):
                count += 1
                assert schur.bar_bracket(b_mat) == _bar_by_whole_coset(b_mat)
    assert count == 908


def test_weight_is_monotone_on_band_slices():
    """W(B) < W(A) for every strict B below A in sqsubseteq, the premise
    of the heap in canonical_expand."""
    strict = 0
    slices = [(1, 2, r) for r in (2, 3, 4, 5)] + [(1, 3, r) for r in (2, 3, 4)]
    for band, n, r in slices + [(2, 2, 4), (2, 3, 3)]:
        by_weight = {}
        for m in enumerate_theta_band(n, r, band=band):
            by_weight.setdefault((m.ro(), m.co()), []).append(m)
        for mats in by_weight.values():
            for a_mat in mats:
                for b_mat in mats:
                    if b_mat != a_mat and sqsubseteq(b_mat, a_mat):
                        strict += 1
                        assert schur._weight(b_mat) < schur._weight(a_mat)
    assert strict == 5811


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
    assert t.coeff(transpose(A_CROSS)) == LP_ONE
    assert t.coeff(DIAG_11) == lp({1: 2})
    assert tau(t) == x


def test_leq_bo_example():
    assert leq_bo(DIAG_11, A_CROSS)
    assert not leq_bo(A_CROSS, DIAG_11)


def test_a_block_zero_matrix_gives_identity():
    ident = a_block(AffMatrix(2, {}), 2)
    assert ident.coeff(AffMatrix.diag(2, (2, 0))) == LP_ONE
    assert ident.coeff(AffMatrix.diag(2, (1, 1))) == LP_ONE
    assert ident.coeff(AffMatrix.diag(2, (0, 2))) == LP_ONE
    for a in enumerate_theta_band(2, 2, band=1):
        x = SchurElt.bracket(a)
        assert mult(ident, x) == x
        assert mult(x, ident) == x


def test_a_block_saturated_and_overflow():
    a = AffMatrix(2, {(1, 2): 2})
    assert a_block(a, 2) == SchurElt.bracket(a, 2)
    assert a_block(a, 1).is_zero()


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
            assert only_even_exponents(val)
            for q in (2, 3, 4, 5):
                count = int_poly_in_q(val).evaluate(q)
                assert count >= 0


def _package_modules():
    return [m for name, m in sys.modules.items() if name.startswith("affschur.")]


def test_clear_caches_empties_every_memo():
    s1 = AffMatrix(2, {(1, 2): 1})
    g_constants(A_CROSS, A_CROSS, 2)
    transfer.f_constants(s1, s1)
    hall.hall_mult_utilde(s1, s1)
    s_1, s_2 = simple(3, 1), simple(3, 2)
    assert bruhat_leq(s_1, s_1 * s_2 * s_1)
    bar(SchurElt.bracket(A_CROSS))
    double_coset(*jdelta_inv(A_CROSS))  # no library path calls it
    memoized = {
        id(fn): fn
        for mod in _package_modules()
        for fn in vars(mod).values()
        if hasattr(fn, "cache_info")
    }.values()
    assert len(memoized) >= 12
    assert all(fn.cache_info().currsize > 0 for fn in memoized)
    kl = schur.default_cache()
    assert kl.polys

    schur.clear_caches()
    assert [fn for fn in memoized if fn.cache_info().currsize] == []
    assert not (kl.cprime_table or kl.p_table or kl.polys or kl.unchecked)
    hand_rolled = [
        (mod.__name__, name)
        for mod in _package_modules()
        for name, value in vars(mod).items()
        if "memo" in name and isinstance(value, dict)
    ]
    assert hand_rolled == []


def test_clear_caches_follows_a_wrapper_to_its_memo(monkeypatch):
    """A wrapper put in front of a memo, whose __wrapped__ is the memo
    (as perfbench's tracer installs them), does not hide it."""
    memo = hall.utilde_exponent
    memo(AffMatrix(2, {(1, 2): 1}))
    assert memo.cache_info().currsize

    def wrapper(*args):
        return memo(*args)

    wrapper.__wrapped__ = memo
    monkeypatch.setattr(hall, "utilde_exponent", wrapper)
    schur.clear_caches()
    assert memo.cache_info().currsize == 0
