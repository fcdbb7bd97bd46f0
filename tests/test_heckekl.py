import itertools
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from affschur import heckekl, schur
from affschur.affweyl import (
    AffPerm,
    enumerate_wr,
    identity,
    rho,
)
from affschur.heckekl import (
    HeckeElt,
    KLCache,
    _record_p,
    coset_step,
    cprime,
    kl_column,
    kl_poly,
    t_bar,
    t_mul,
)
from affschur.laurent import IntPoly, LaurentPoly

from helpers import left_descent, simple


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


def test_kl_poly_refuses_mismatched_periods():
    with pytest.raises(ValueError, match="mismatched periods"):
        kl_poly(AffPerm((1, 2)), AffPerm((3, 2, 1)))
    with pytest.raises(ValueError, match="mismatched periods"):
        kl_poly(identity(3), simple(2, 1))


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


def test_cache_round_trip(tmp_path):
    path = tmp_path / "kl.txt"
    cache = KLCache(str(path))
    w0 = simple(3, 1) * simple(3, 2) * simple(3, 1)
    kl_poly(identity(3), w0, cache)
    cache.save()
    reloaded = KLCache(str(path))
    assert reloaded.p_table
    assert reloaded.p_table == cache.p_table


def test_cache_save_writes_its_own_file_only_when_the_table_grew(tmp_path):
    """save() rewrites the cache's file only for entries it lacks, and a
    rewrite replaces the file, so an unchanged inode means no write;
    save(path) always writes."""
    path = tmp_path / "kl.txt"
    cache = KLCache(str(path))
    cache.save()  # a missing file is created, even empty
    assert path.read_text() == ""
    kl_poly(identity(3), simple(3, 1) * simple(3, 2), cache)
    cache.save()
    text, inode = path.read_text(), path.stat().st_ino
    assert text
    cache.save()
    assert path.stat().st_ino == inode
    loaded = KLCache(str(path))
    kl_poly(identity(3), simple(3, 1), loaded)  # answered from the file
    loaded.save()
    assert path.stat().st_ino == inode and path.read_text() == text
    kl_poly(identity(3), simple(3, 2) * simple(3, 1), loaded)
    loaded.save()
    assert path.stat().st_ino != inode and len(path.read_text()) > len(text)
    other = tmp_path / "copy.txt"
    cache.save(str(other))
    inode = other.stat().st_ino
    cache.save(str(other))
    assert other.stat().st_ino != inode and other.read_text() == text


# the window pairs and the coefficient text 1,1 that the cases below
# reuse first appear on a valid line; line 5 repeats line 2 with the same
# P, which is accepted, so every case is refused on line 6
_CACHE_PREFIX = (
    "2|1,2|1,2|1\n3|1,2,3|-3,4,5|1,1\n3|1,2,3|2,1,3|1\n\n"
    "3|1,2,3|-3,4,5|1,1\n"
)


@pytest.mark.parametrize(
    "record, message",
    [
        ("2|1,2|2,1", "4 '|'-separated fields"),
        ("3|1,2|2,1|1", "differ from r = 3"),
        ("2|1,2|2,x|1", "invalid literal"),
        ("2|1,2|2,1|1,1", "degree bound"),
        # residues distinct, so extended affine windows, but not in W_3
        ("3|1,2,3|4,2,3|1", r"window \(4, 2, 3\) is outside W_3"),
        ("3|2,3,4|4,2,3|1", r"window \(2, 3, 4\) is outside W_3"),
        # texts seen on a valid line are still checked on every record
        ("3|1,2,3|2,1,3|1,1", "degree bound"),
        ("3|1,2,3|-3,4,5|1,1,1", "degree bound"),
        ("2|1,2|1,2|1,1", "diagonal KL entry must be 1"),
        ("3|1,2,3|1,2,3|2", "diagonal KL entry must be 1"),
        # a key that repeats with another P, valid on its own
        ("3|1,2,3|-3,4,5|1", r"w = \(-3, 4, 5\) given as 1, stored as 1 \+ q"),
    ],
)
def test_cache_load_rejects_bad_records(tmp_path, record, message):
    path = tmp_path / "kl.txt"
    path.write_text(_CACHE_PREFIX + record + "\n")
    with pytest.raises(ValueError, match="line 6: .*" + message):
        KLCache(str(path))


def _records(p_table):
    """The saved form of a P-table, each record formatted on its own."""
    def text(ints):
        return ",".join(map(str, ints))

    return "".join(
        "%d|%s|%s|%s\n" % (r, text(y), text(w), text(p.coeffs))
        for (r, y, w), p in sorted(p_table.items())
    )


def test_cache_save_writes_sorted_records(tmp_path):
    path = tmp_path / "kl.txt"
    cache = KLCache()
    cprime(simple(3, 1) * simple(3, 2) * simple(3, 1), cache)
    cache.save(str(path))
    assert path.read_text() == (
        "3|1,2,3|1,2,3|1\n3|1,2,3|2,1,3|1\n3|1,2,3|2,3,1|1\n"
        "3|1,2,3|3,2,1|1\n3|1,3,2|2,3,1|1\n3|1,3,2|3,2,1|1\n"
        "3|2,1,3|2,1,3|1\n3|2,1,3|2,3,1|1\n3|2,1,3|3,2,1|1\n"
        "3|2,3,1|2,3,1|1\n3|2,3,1|3,2,1|1\n3|3,1,2|3,2,1|1\n"
        "3|3,2,1|3,2,1|1\n"
    )
    # negative windows, windows shared by many records and P = 1 + q
    cprime(AffPerm((-3, 4, 5)), cache)
    cache.save(str(path))
    text = path.read_text()
    assert text == _records(cache.p_table)
    assert "3|1,2,3|-3,4,5|1,1\n" in text


def test_cache_save_matches_the_oracle_at_survey_scale(tmp_path):
    """Rows of W_3 (negative windows, P = 1 + q) before all of W_5 up to
    length 7: the grouped save writes what sorting every key gives."""
    path = tmp_path / "kl.txt"
    cache = KLCache()
    cprime(AffPerm((-3, 4, 5)), cache)
    for r, max_length in ((3, 4), (5, 7)):
        for layer in enumerate_wr(r, max_length):
            for w in layer:
                cprime(w, cache)
    assert (3, (1, 2, 3), (-3, 4, 5)) in cache.p_table
    assert sum(key[0] == 5 for key in cache.p_table) == 37531
    cache.save(str(path))
    assert path.read_text() == _records(cache.p_table)
    assert KLCache(str(path)).p_table == cache.p_table


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


def _one_object_per_value(cache):
    """Every P of the P-table and of the columns is the IntPoly that
    cache.polys holds for its coefficients."""
    polys = cache.polys
    assert all(p.coeffs == key for key, p in polys.items())
    stored = list(cache.p_table.values())
    stored += [p for col in cache.cprime_table.values() for p in col.values()]
    assert all(polys[p.coeffs] is p for p in stored)
    assert len({id(p) for p in stored}) == len({p.coeffs for p in stored})


def test_cache_holds_one_object_per_distinct_p(tmp_path):
    """After a survey, and after a load followed by recomputing those
    columns and longer ones, the tables hold one IntPoly per distinct
    coefficient tuple, full and parabolic columns alike."""
    path = tmp_path / "kl.txt"
    cache = KLCache()
    for layer in enumerate_wr(4, 5):
        for w in layer:
            cprime(w, cache)
    _one_object_per_value(cache)
    assert len(cache.polys) < len(cache.p_table) // 100
    cache.save(str(path))

    loaded = KLCache(str(path))
    assert loaded.p_table == cache.p_table
    _one_object_per_value(loaded)
    for layer in enumerate_wr(4, 6):
        for w in layer:
            cprime(w, loaded)
    assert len(loaded.p_table) > len(cache.p_table)
    _one_object_per_value(loaded)

    schur.clear_caches()
    x = simple(4, 2) * simple(4, 1) * simple(4, 3) * simple(4, 2)
    for J in [(), (2,)]:
        kl_column(x, J)
    _one_object_per_value(schur.default_cache())


def test_kl_poly_checks_a_loaded_entry_against_the_bruhat_order(
    tmp_path, monkeypatch
):
    """A loaded P is nonzero exactly when y <= w, checked on its first
    answer only: s_1 is not below s_2 s_3, and e is below s_1."""
    s1, e = AffPerm((2, 1, 3)), identity(3)
    s2s3 = AffPerm((-1, 3, 4))
    assert s2s3 == simple(3, 2) * simple(3, 3)
    path = tmp_path / "kl.txt"
    for record, y, w in [
        ("3|2,1,3|-1,3,4|1", s1, s2s3),
        ("3|1,2,3|2,1,3|", e, s1),
    ]:
        path.write_text(record + "\n")
        cache = KLCache(str(path))
        named = re.escape("y = %s, w = %s" % (y.window, w.window))
        with pytest.raises(ValueError, match=named):
            kl_poly(y, w, cache)
        assert kl_poly(y, w, KLCache()) != cache.p_table[(3, y.window, w.window)]

    # true records answer as stored, and the check runs once per key
    path.write_text("3|2,1,3|-1,3,4|\n3|1,2,3|2,1,3|1\n")
    cache = KLCache(str(path))
    assert len(cache.unchecked) == 2
    assert kl_poly(s1, s2s3, cache) == IntPoly(())
    assert kl_poly(e, s1, cache) == IntPoly((1,))
    assert not cache.unchecked

    def refuse(y, w):
        raise AssertionError("Bruhat order checked twice")

    monkeypatch.setattr(heckekl, "bruhat_leq", refuse)
    assert kl_poly(s1, s2s3, cache) == IntPoly(())
    assert kl_poly(e, s1, cache) == IntPoly((1,))


def test_recomputed_loaded_entries_skip_the_bruhat_check(
    tmp_path, monkeypatch
):
    """A survey's saved file, loaded and surveyed again: every loaded key
    is recomputed and confirmed by the recursion, so kl_poly answers
    each surveyed pair without a Bruhat check."""
    path = tmp_path / "kl.txt"
    surveyed = [w for layer in enumerate_wr(4, 5) for w in layer]
    cache = KLCache()
    for w in surveyed:
        cprime(w, cache)
    cache.save(str(path))

    loaded = KLCache(str(path))
    assert len(loaded.unchecked) == len(cache.p_table)
    for w in surveyed:
        cprime(w, loaded)
    assert not loaded.unchecked

    def refuse(y, w):
        raise AssertionError("Bruhat order checked for a recomputed key")

    monkeypatch.setattr(heckekl, "bruhat_leq", refuse)
    for w in surveyed:
        for y in cprime(w, loaded).terms:
            key = (4, y.window, w.window)
            assert kl_poly(y, w, loaded) == cache.p_table[key]


def test_add_scaled_accumulates_in_place():
    s1 = simple(2, 1)
    h = T(s1) + T(identity(2))
    other = T(s1)
    assert h.add_scaled(other, lp({0: -1})) is h
    assert h == T(identity(2))
    assert other == T(s1)
    assert h.add_scaled(T(identity(2)), -1).is_zero()
    assert h != HeckeElt.zero(3)


@pytest.mark.parametrize("r, max_length", [(3, 6), (4, 5)])
def test_cprime_matches_generic_product(r, max_length):
    """Every C'_w against C'_s C'_{sw} - sum mu(z, sw) C'_z formed with
    t_mul, for every left descent s of w; descents from the inverse."""
    cache = KLCache()
    for layer in enumerate_wr(r, max_length):
        for w in sorted(layer, key=lambda x: x.window):
            c = cprime(w, cache)
            for y in c.terms:
                assert y.length() == AffPerm(y.window).length()
            if w.is_identity():
                assert c == T(w)
                continue
            for i in range(1, r + 1):
                if not left_descent(w, i):
                    continue
                s = simple(r, i)
                v = s * w
                cs = (T(s) + T(identity(r))).scale(lp({-1: 1}))
                cv = cprime(v, cache)
                expected = t_mul(cs, cv)
                lv = v.length()
                for z in cv.terms:
                    if z == v or not left_descent(z, i):
                        continue
                    gap = lv - AffPerm(z.window).length() - 1
                    mu = kl_poly(z, v, cache).coeff(gap // 2) if gap % 2 == 0 else 0
                    if mu:
                        expected.add_scaled(cprime(z, cache), -mu)
                assert c == expected


def _with_propagated_lengths():
    """(e, s_1 s_2) in W_3, s_1 s_2 built by left steps from e."""
    e = identity(3)
    e.length()  # known, so the left steps below carry lengths
    w = e.left_mul_simple(2)[0].left_mul_simple(1)[0]
    assert w == simple(3, 1) * simple(3, 2) and w.length() == 2
    return e, w


def test_record_p_rejects_degree_bound_violation():
    e, w = _with_propagated_lengths()
    # P_{e,w} = 1 + q has degree 1 > (l(w) - l(e) - 1)/2 = 0
    col = {w: IntPoly((1,)), e: IntPoly((1, 1))}
    with pytest.raises(ValueError, match="degree bound"):
        _record_p(col, w, KLCache())


def test_record_p_rejects_diagonal_other_than_one():
    e, w = _with_propagated_lengths()
    col = {w: IntPoly((2,)), e: IntPoly((1,))}
    with pytest.raises(ValueError, match="diagonal"):
        _record_p(col, w, KLCache())


def test_record_p_names_a_parabolic_entry_by_its_full_elements():
    """A parabolic column's entry P_{w_J sigma, w_J tau} is checked from
    l(tau) - l(sigma) and named by w_J sigma and w_J tau: here J = (1,),
    tau = s_2 and P_{s_1, s_1 s_2} = 1 + q."""
    s1, s2, e = simple(3, 1), simple(3, 2), identity(3)
    cache = KLCache()
    col = {s2: IntPoly((1,)), e: IntPoly((1, 1))}
    named = re.escape("%s <= %s" % (s1.window, (s1 * s2).window))
    with pytest.raises(ValueError, match="degree bound violated for " + named):
        _record_p(col, s2, cache, (1,), s1)
    assert not cache.p_table


def _proper_subsets(r):
    gens = range(1, r + 1)
    return [J for k in range(r) for J in itertools.combinations(gens, k)]


@pytest.mark.parametrize("r", [3, 4])
def test_coset_step_matches_right_step_and_left_descents(r):
    """The three cases of a right step of sigma minimal in W_J sigma,
    against w s_i and the left descents of the product."""
    elems = [w for layer in enumerate_wr(r, 5) for w in layer]
    leaving = 0
    for J in _proper_subsets(r):
        for sigma in elems:
            if any(left_descent(sigma, k) for k in J):
                continue
            for i in range(1, r + 1):
                ss, up = sigma.right_mul_simple(i)
                if up and any(left_descent(ss, k) for k in J):
                    leaving += 1
                    assert coset_step(sigma, i, J) == (None, False)
                else:
                    got, got_up = coset_step(sigma, i, J)
                    assert (got, got_up) == (ss, up)
                    assert got.length() == AffPerm(ss.window).length()
    assert leaving


def test_t_bar_on_columns_matches_the_whole_sum():
    """bar(x_J h) = v^{-2 l(w_J)} x_J t_bar(h, J) for a column h, with
    x_J the sum of T_u over W_J, for every proper J at r = 3."""
    r = 3
    elems = [w for layer in enumerate_wr(r, 4) for w in layer]
    for J in _proper_subsets(r):
        group = {identity(r)}
        todo = [identity(r)]
        while todo:
            u = todo.pop()
            for k in J:
                uk = u.right_mul_simple(k)[0]
                if uk not in group:
                    group.add(uk)
                    todo.append(uk)
        x_j = HeckeElt(r, {u: LaurentPoly({0: 1}) for u in group})
        lwj = max(u.length() for u in group)
        minimal = [w for w in elems if not any(left_descent(w, k) for k in J)]
        h = HeckeElt(
            r, {w: lp({k % 3 - 1: k + 1}) for k, w in enumerate(minimal[:12])}
        )
        col = t_bar(h, J)
        assert all(not any(left_descent(w, k) for k in J) for w in col.terms)
        assert t_bar(t_mul(x_j, h)) == t_mul(x_j, col).scale(lp({-2 * lwj: 1}))


@pytest.mark.parametrize("r", [3, 4])
def test_kl_column_reads_cprime_at_left_maximal_elements(r):
    """For x longest in W_J x, the column holds P_{w_J sigma, x}, so
    v^{-l(x)} P_{w_J sigma, x}(v^2) is the T-coefficient of C'_x at each
    w_J sigma, and these are all the T-coefficients of C'_x at elements
    longest in their left W_J-coset."""
    schur.clear_caches()
    full = KLCache()
    elems = sorted(
        (w for layer in enumerate_wr(r, 5) for w in layer),
        key=lambda w: (w.length(), w.window),
    )
    for J in _proper_subsets(r):
        tops = [x for x in elems if all(left_descent(x, k) for k in J)]
        for x in tops[-4:]:
            wj, col = kl_column(x, J)
            maximal = {
                y: coeff
                for y, coeff in cprime(x, full).terms.items()
                if all(left_descent(y, k) for k in J)
            }
            lx = x.length()
            assert {
                wj * sigma: p.to_laurent(-lx) for sigma, p in col.items()
            } == maximal
    with pytest.raises(ValueError, match="infinite"):
        kl_column(identity(r), range(1, r + 1))


X_4 = simple(4, 2) * simple(4, 1) * simple(4, 3) * simple(4, 2)


@pytest.mark.parametrize("J", [(), (2,)])
def test_recorder_refuses_a_different_stored_entry(J, monkeypatch):
    """A column built second checks each P entry against the one already
    stored: the full column against the P-table, a parabolic column
    against the full column of the same w, so two recursions cannot
    disagree silently in one cache."""
    schur.clear_caches()
    cache = schur.default_cache()
    x = X_4
    wj, _ = kl_column(x, J)
    cprime(x, cache)  # the full column agrees with the parabolic one
    # P_{w_J, x}, from sigma = 1; restored at teardown, so no later test
    # reads the wrong entry
    if J:
        full = cache.cprime_table[((), x.window)]
        monkeypatch.setitem(full, wj, full[wj] + IntPoly((1,)))
        monkeypatch.delitem(cache.cprime_table, (J, (wj * x).window))
    else:
        key = (4, wj.window, x.window)
        monkeypatch.setitem(
            cache.p_table, key, cache.p_table[key] + IntPoly((1,))
        )
        cache.cprime_table.clear()
    named = re.escape("y = %s, w = %s" % (wj.window, x.window))
    with pytest.raises(AssertionError, match=named):
        kl_column(x, J)


def test_full_column_refuses_a_different_parabolic_entry(monkeypatch):
    """The other build order: a full column built after a parabolic
    column of the same w checks that column's entries."""
    schur.clear_caches()
    cache = schur.default_cache()
    x, e = X_4, identity(4)
    wj, col = kl_column(x, (2,))
    # P_{w_J, x}; col is the column the cache holds, restored at teardown
    monkeypatch.setitem(col, e, col[e] + IntPoly((1,)))
    named = re.escape("y = %s, w = %s" % (wj.window, x.window))
    with pytest.raises(AssertionError, match=named):
        cprime(x, cache)


def test_parabolic_columns_stay_out_of_the_p_table(monkeypatch):
    """A parabolic column keeps its entries and forms one AffPerm product
    per column, none per entry; the P-table receives nothing."""
    schur.clear_caches()
    cache = schur.default_cache()
    products = []
    mul = AffPerm.__mul__

    def counted(a, b):
        products.append(None)
        return mul(a, b)

    monkeypatch.setattr(AffPerm, "__mul__", counted)
    x = max(enumerate_wr(4, 6)[-1], key=lambda w: w.window)
    J = [k for k in range(1, 5) if left_descent(x, k)]
    assert J
    _, col = kl_column(x, J)
    assert len(col) > 10 and not cache.p_table
    # kl_column's w_J x, then one w_J tau per column built
    assert len(products) == 1 + len(cache.cprime_table)


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
