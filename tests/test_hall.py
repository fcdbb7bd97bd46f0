import itertools

import pytest

from affschur.affmat import AffMatrix, dim_vector, theta_plus_by_dim
from affschur import hall, schur
from affschur.hall import (
    GF,
    ModuleRealization,
    SizeCapError,
    euler,
    gf,
    hall_count,
    hall_mult_utilde,
    hall_poly,
    utilde_exponent,
    zeta_check,
)
from affschur.laurent import LaurentPoly
from affschur.verify import enumerate_theta_plus

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
    for q in hall._PRIME_POWERS:
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


def test_hall_rejects_mixed_n():
    s1_n3 = AffMatrix(3, {(1, 2): 1})
    double = AffMatrix(2, {(1, 2): 2})
    with pytest.raises(ValueError, match="differ in n"):
        hall_poly(S1, s1_n3, double)
    with pytest.raises(ValueError, match="differ in n"):
        hall_count(double, S1, s1_n3, 2)


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


def zeta_slice():
    """(A, B, C) for the Theta^+ pairs of verify_zeta (n in {2, 3},
    entry sum <= 3, segments of length <= 2) with total dimension <= 5,
    and every C of dimension d(A) + d(B)."""
    out = []
    for n in (2, 3):
        mats = enumerate_theta_plus(n, 3, 2)
        for a, b in itertools.product(mats, mats):
            if a.sigma() + b.sigma() > 3:
                continue
            d = tuple(x + y for x, y in zip(dim_vector(a), dim_vector(b)))
            if sum(d) <= 5:
                out.extend((a, b, c) for c in theta_plus_by_dim(n, d))
    return out


def standard_bases(mod):
    return [
        [[int(r == c) for c in range(d)] for r in range(d)] for d in mod.dims
    ]


def test_path_ranks_match_path_matrices():
    mats = {c for _, _, c in zeta_slice()}
    assert len(mats) > 200
    for c in mats:
        mod = ModuleRealization(c)
        zero = [[]] * mod.n
        for q in (2, 3):
            ranks = hall._image_ranks(
                mod, standard_bases(mod), zero, mod.total, gf(q)
            )
            assert hall._path_ranks(c, mod.total) == (tuple(mod.dims), ranks)


def end_dimension(mod, field):
    """dim End of a module: the solutions (f_v) of f_{v+1} x_v = x_v f_v,
    one unknown per entry of each f_v, by elimination over field."""
    n, dims = mod.n, mod.dims
    offsets = [sum(d * d for d in dims[:v]) for v in range(n)]
    nvars = sum(d * d for d in dims)
    rows = []
    for v in range(n):
        w = (v + 1) % n
        x = mod.arrows[v]
        for i in range(dims[w]):
            for j in range(dims[v]):
                row = [0] * nvars
                for t in range(dims[w]):
                    if x[t][j]:
                        k = offsets[w] + i * dims[w] + t
                        row[k] = field.add[row[k]][1]
                for t in range(dims[v]):
                    if x[i][t]:
                        k = offsets[v] + t * dims[v] + j
                        row[k] = field.add[row[k]][field.neg[1]]
                rows.append(row)
    return nvars - hall._rank(rows, field)


def test_utilde_exponent_matches_end_by_elimination():
    mats = {c for _, _, c in zeta_slice()}
    for c in mats:
        mod = ModuleRealization(c)
        for q in (2, 3):
            assert utilde_exponent(c) == end_dimension(mod, gf(q)) - mod.total


def test_rank_test_is_sound_but_not_sufficient():
    pruned = passed_but_zero = 0
    for a, b, c in zeta_slice():
        if hall._ranks_forbid(a, b, c, sum(dim_vector(c))):
            pruned += 1
            assert hall_count(c, a, b, 2) == 0
            assert hall_count(c, a, b, 3) == 0
        elif hall_poly(a, b, c).is_zero():
            passed_but_zero += 1
    assert pruned > 1000
    assert passed_but_zero > 0
    # the socle of M13 is S2, so S1 is no submodule, yet no rank forbids it
    assert not hall._ranks_forbid(S2, S1, M13, 2)
    assert hall_poly(S2, S1, M13).is_zero()


def gaussian_binomial(m, k, q):
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q", [2, 3])
def test_subspaces_containing_counts_gaussian_binomial(q):
    field = gf(q)
    spans = [
        (3, []),
        (3, [[0, 0, 0]]),
        (3, [[1, 1, 0]]),
        (4, [[0, 1, 1, 0], [0, 2 % q, 2 % q, 0]]),  # dependent rows
        (4, [[1, 0, 1, 1], [0, 1, 0, 1]]),
        (4, [[0, 0, 1, 1], [1, 0, 0, 1], [1, 0, 1, 0]]),
    ]
    for dim, rows in spans:
        u = hall._rank(rows, field)
        for k in range(dim + 1):
            subs = list(hall._subspaces_containing(rows, dim, k, field))
            assert len(subs) == gaussian_binomial(dim - u, k - u, q)
            keys = set()
            for s in subs:
                assert len(s) == k and hall._rank(s, field) == k
                assert hall._rank(s + rows, field) == k
                keys.add(tuple(map(tuple, hall._rref(s, field)[0])))
            assert len(keys) == len(subs)


def brute_force_count(c, a, b, q):
    """Submodules of type B with quotient of type A, over every tuple of
    subspaces with dimension vector d(B)."""
    field = gf(q)
    mod = ModuleRealization(c)
    n, total = mod.n, mod.total
    db = dim_vector(b)
    grass = [list(hall._subspaces(mod.dims[v], db[v], field)) for v in range(n)]

    def stable(combo):
        for v in range(n):
            target = combo[(v + 1) % n]
            for vec in combo[v]:
                img = hall._mat_apply(mod.arrows[v], vec, field)
                if hall._rank(target + [img], field) > len(target):
                    return False
        return True

    def ranks(m):
        # the path ranks of M(m), pushed out of its whole vertex spaces
        mod_m = ModuleRealization(m)
        return hall._image_ranks(
            mod_m, standard_bases(mod_m), [[]] * n, total, field
        )

    whole = standard_bases(mod)
    count = 0
    for combo in itertools.product(*grass):
        if not stable(combo):
            continue
        sub = hall._image_ranks(mod, combo, [[]] * n, total, field)
        quot = hall._image_ranks(mod, whole, combo, total, field)
        count += sub == ranks(b) and quot == ranks(a)
    return count


def test_hall_count_matches_brute_force():
    small = [t for t in zeta_slice() if sum(dim_vector(t[2])) <= 4]
    assert len(small) > 1000
    nonzero = 0
    for a, b, c in small:
        count = hall_count(c, a, b, 2)
        assert count == brute_force_count(c, a, b, 2), (a, b, c)
        nonzero += count > 0
    assert nonzero > 100


DOUBLE = AffMatrix(2, {(1, 2): 2})
SEMISIMPLE = AffMatrix(2, {(1, 2): 1, (2, 3): 1})


def test_hall_poly_cap_refuses_a_memoized_triple():
    assert hall_poly(S1, S1, DOUBLE).coeffs == (1, 1)
    with pytest.raises(SizeCapError):
        hall_poly(S1, S1, DOUBLE, cap_dim=1)


def test_hall_poly_cap_refuses_a_pruned_triple():
    # M13 has a path rank 1 that the semisimple module lacks
    zero = AffMatrix(2, {})
    assert hall._ranks_forbid(M13, zero, SEMISIMPLE, 2)
    assert hall_poly(M13, zero, SEMISIMPLE).is_zero()
    with pytest.raises(SizeCapError):
        hall_poly(M13, zero, SEMISIMPLE, cap_dim=1)


def test_hall_poly_counts_once(monkeypatch):
    schur.clear_caches()
    first = hall_poly(S1, S1, DOUBLE)

    def count_again(*args, **kwargs):
        raise AssertionError("hall_count called for a memoized triple")

    monkeypatch.setattr(hall, "hall_count", count_again)
    assert hall_poly(S1, S1, DOUBLE) == first
