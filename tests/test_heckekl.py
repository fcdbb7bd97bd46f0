import os

import pytest
from hypothesis import given, settings, strategies as st

from affschur.affweyl import (
    AffPerm,
    Composition,
    identity,
    rho,
    simple,
)
from affschur.heckekl import (
    HeckeElt,
    KLCache,
    cprime,
    double_coset_sum,
    kl_poly,
    t_bar,
    t_mul,
    x_lambda,
)
from affschur.laurent import LaurentPoly


def T(w):
    return HeckeElt.basis(w)


def lp(d):
    return LaurentPoly(d)


@st.composite
def hecke_elts(draw, r=2):
    perm = st.permutations(list(range(1, r + 1)))
    shifts = st.lists(
        st.integers(min_value=-1, max_value=1), min_size=r, max_size=r
    )
    n_terms = draw(st.integers(min_value=1, max_value=3))
    out = HeckeElt.zero(r)
    for _ in range(n_terms):
        p = draw(perm)
        k = draw(shifts)
        w = AffPerm(tuple(a + r * b for a, b in zip(p, k)))
        c = lp({draw(st.integers(-2, 2)): draw(st.integers(-3, 3))})
        out = out + T(w).scale(c)
    return out


def test_quadratic_relation():
    s1 = simple(2, 1)
    prod = t_mul(T(s1), T(s1))
    assert prod == T(s1).scale(lp({2: 1, 0: -1})) + T(identity(2)).scale(
        lp({2: 1})
    )


def test_identity_is_unit():
    s1 = simple(2, 1)
    h = T(s1).scale(lp({1: 2})) + T(identity(2))
    assert t_mul(T(identity(2)), h) == h
    assert t_mul(h, T(identity(2))) == h


def test_rho_translates():
    s1 = simple(2, 1)
    assert t_mul(T(rho(2)), T(s1)) == T(rho(2) * s1)


def test_bar_of_simple():
    s1 = simple(2, 1)
    expected = T(s1).scale(lp({-2: 1})) + T(identity(2)).scale(
        lp({-2: 1, 0: -1})
    )
    assert t_bar(T(s1)) == expected


def test_bar_fixes_identity_and_rho():
    assert t_bar(T(identity(2))) == T(identity(2))
    assert t_bar(T(rho(3))) == T(rho(3))


def test_bar_is_involution_on_products():
    s1, s2 = simple(3, 1), simple(3, 2)
    h = T(s1 * s2)
    assert t_bar(t_bar(h)) == h


def test_kl_diagonal():
    w = simple(3, 1) * simple(3, 2)
    assert kl_poly(w, w).evaluate(7) == 1


def test_kl_all_one_in_s3():
    w0 = simple(3, 1) * simple(3, 2) * simple(3, 1)
    assert kl_poly(identity(3), w0).evaluate(5) == 1


def test_kl_rho_mismatch_vanishes():
    s1 = simple(2, 1)
    assert kl_poly(rho(2), s1).is_zero()
    assert kl_poly(rho(2), rho(2) * s1).evaluate(3) == 1


def test_cprime_small_values():
    assert cprime(identity(2)) == T(identity(2))
    s1 = simple(2, 1)
    assert cprime(s1) == (T(s1) + T(identity(2))).scale(lp({-1: 1}))
    assert cprime(rho(2)) == T(rho(2))


def test_cprime_bar_invariant_low_length():
    for r in (2, 3):
        seen = set()
        frontier = [identity(r)]
        for _ in range(4):
            new = []
            for w in frontier:
                for i in range(1, r + 1):
                    x = w * simple(r, i)
                    if x.length() == w.length() + 1 and x not in seen:
                        seen.add(x)
                        new.append(x)
            frontier = new
        for w in sorted(seen, key=lambda x: (x.length(), x.window)):
            c = cprime(w)
            assert t_bar(c) == c


def test_x_lambda_values():
    assert x_lambda(Composition((1, 1))) == T(identity(2))
    s1 = simple(2, 1)
    assert x_lambda(Composition((2, 0))) == T(identity(2)) + T(s1)


def test_double_coset_sum_example():
    lam = Composition((2, 0))
    s1 = simple(2, 1)
    assert double_coset_sum(lam, identity(2), lam) == T(identity(2)) + T(s1)


def test_cache_round_trip(tmp_path):
    path = tmp_path / "kl.txt"
    cache = KLCache(str(path))
    w0 = simple(3, 1) * simple(3, 2) * simple(3, 1)
    kl_poly(identity(3), w0, cache)
    cache.save()
    reloaded = KLCache(str(path))
    assert reloaded.p_table
    assert reloaded.p_table == cache.p_table


@pytest.mark.parametrize(
    "record, message",
    [
        ("2|1,2|2,1", "4 '|'-separated fields"),
        ("3|1,2|2,1|1", "differ from r = 3"),
        ("2|1,2|2,x|1", "invalid literal"),
        ("2|1,2|2,1|1,1", "degree bound"),
    ],
)
def test_cache_load_rejects_bad_records(tmp_path, record, message):
    path = tmp_path / "kl.txt"
    path.write_text("2|1,2|1,2|1\n\n" + record + "\n")
    with pytest.raises(ValueError, match="line 3: .*" + message):
        KLCache(str(path))


def test_cache_save_is_atomic(tmp_path):
    path = tmp_path / "kl.txt"
    cache = KLCache(str(path))
    kl_poly(identity(3), simple(3, 1) * simple(3, 2), cache)
    cache.save()
    saved = path.read_text()

    class Unwritable:
        @property
        def coeffs(self):
            raise OSError("disk full")

    # sorts before every real record: a save in place would have
    # truncated the file when this record fails
    cache.p_table[(1, (1,), (1,))] = Unwritable()
    with pytest.raises(OSError):
        cache.save()
    assert path.read_text() == saved
    assert os.listdir(tmp_path) == ["kl.txt"]


def test_add_scaled_accumulates_in_place():
    s1 = simple(2, 1)
    h = T(s1) + T(identity(2))
    other = T(s1)
    assert h.add_scaled(other, lp({0: -1})) is h
    assert h == T(identity(2))
    assert other == T(s1)
    assert h.add_scaled(T(identity(2)), -1).is_zero()
    assert h != HeckeElt.zero(3)


def test_kl_degree_bound_and_constant_term():
    cache = KLCache()
    w = simple(3, 1) * simple(3, 2) * simple(3, 1)
    cprime(w, cache)
    for (r, ywin, wwin), p in cache.p_table.items():
        y, x = AffPerm(ywin), AffPerm(wwin)
        assert p.coeff(0) == 1
        if y != x:
            assert 2 * p.degree() <= x.length() - y.length() - 1


@settings(max_examples=30, deadline=None)
@given(hecke_elts(), hecke_elts(), hecke_elts())
def test_t_mul_associative(a, b, c):
    assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))


@settings(max_examples=30, deadline=None)
@given(hecke_elts(), hecke_elts())
def test_bar_is_ring_map(a, b):
    assert t_bar(t_mul(a, b)) == t_mul(t_bar(a), t_bar(b))
    assert t_bar(t_bar(a)) == a
