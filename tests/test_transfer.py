import pytest

from affschur import schur, transfer, verify
from affschur.affmat import AffMatrix, compositions, enumerate_theta_band
from affschur.affweyl import Composition, jdelta, rho
from affschur.laurent import LaurentPoly
from affschur.schur import SchurElt, g_constants, mult, theta
from affschur.transfer import (
    embed_table,
    eta,
    f_constants,
    find_k0,
    g_table,
    h_constants,
    strip_E,
    tilde,
)

from helpers import iota

A_CROSS = AffMatrix(2, {(1, 2): 1, (2, 1): 1})
S1 = AffMatrix(2, {(1, 2): 1})


def lp(d):
    return LaurentPoly(d)


def test_eta_zero_is_identity():
    for a in enumerate_theta_band(2, 2, band=1):
        assert eta(a, 0) == a


def test_eta_shifts_columns():
    assert eta(AffMatrix.diag(2, (1, 1)), 1) == AffMatrix(
        2, {(1, -1): 1, (2, 0): 1}
    )


def test_eta_is_an_action():
    a = A_CROSS
    assert eta(eta(a, 2), -1) == eta(a, 1)
    assert eta(a, 1).ro() == a.ro()
    assert eta(a, 1).sigma() == a.sigma()


@pytest.mark.parametrize("n, r", [(2, 3), (3, 3)])
def test_lemma_46_shifted_idempotents(n, r):
    """Products with the idempotents eta_m(diag(mu)), whose double cosets
    S_mu rho^{mr} S_mu put rho-shifted columns into e_basis_mult."""
    rep = verify.verify_lemma_46(n=n, r=r)
    assert rep["pass"] and rep["checked"] > 0


def test_rho_idempotent_is_the_permutation_double_coset():
    """The closed form eta_m(diag(mu)) equals J_Delta(mu, rho^{mr}, mu),
    r = sigma(mu), for every mu in Lambda(n, r), n <= 4, r <= 5, |m| <= 3."""
    checked = 0
    for n in range(1, 5):
        for r in range(1, 6):
            for parts in compositions(n, r):
                mu = Composition(parts)
                for m in range(-3, 4):
                    expected = jdelta(mu, rho(r, m * r), mu)
                    assert transfer.rho_idempotent(mu, m) == expected
                    checked += 1
    assert checked == 1435


def test_tilde_examples():
    assert tilde(S1, 3) == AffMatrix(3, {(1, 2): 1})
    assert tilde(AffMatrix.diag(2, (1, 1)), 3) == AffMatrix.diag(3, (1, 1, 0))
    for a in enumerate_theta_band(2, 2, band=1):
        assert tilde(a, 2) == a
        assert tilde(a, 3).sigma() == a.sigma()


def test_tilde_requires_larger_rank():
    with pytest.raises(ValueError):
        tilde(AffMatrix(3, {(1, 2): 1}), 2)


def test_tilde_image_is_aperiodic():
    for a in enumerate_theta_band(2, 2, band=1):
        assert tilde(a, 3).is_aperiodic()


def test_iota_preserves_theta():
    th = theta(A_CROSS, 2)
    assert iota(th, 3) == theta(tilde(A_CROSS, 3), 2)


def test_iota_multiplicative_on_supported_pair():
    x = SchurElt.bracket(A_CROSS)
    prod = mult(x, x)
    assert iota(prod, 3) == mult(iota(x, 3), iota(x, 3))


def test_f_constants_worked_value():
    table = f_constants(S1, S1).table
    assert table == {AffMatrix(2, {(1, 2): 2}): lp({1: 1, -1: 1})}


def test_f_constants_unit():
    table = f_constants(S1, AffMatrix(2, {})).table
    assert table == {S1: lp({0: 1})}


def test_f_constants_tilde_invariant_instance():
    small = f_constants(S1, S1).table
    big = f_constants(tilde(S1, 3), tilde(S1, 3)).table
    assert big == {tilde(c, 3): val for c, val in small.items()}


def test_f_constants_rejects_non_upper():
    with pytest.raises(ValueError):
        f_constants(A_CROSS, S1)


def shifted(m_mat, k, big_n):
    return tilde(eta(m_mat, k), big_n)


def test_thm48_trivial_shift():
    g = g_constants(A_CROSS, A_CROSS, 2)
    assert g and embed_table(g, 0, 2) == g
    big = shifted(A_CROSS, 0, 2)
    assert g_constants(big, big, 2) == g


def test_thm48_worked_pair():
    g = g_constants(A_CROSS, A_CROSS, 2)
    big = shifted(A_CROSS, 1, 3)
    assert g and g_constants(big, big, 2) == embed_table(g, 2, 3)
    # part 2: g at rank 2 is f of the eta_{k0}-shifted triple at rank 3
    k = find_k0(A_CROSS, A_CROSS, g)
    assert k == -1
    expected = embed_table(g, 2 * k, 3)
    big = shifted(A_CROSS, k, 3)
    f_tab = f_constants(big, big, keys=list(expected), check=False).table
    assert f_tab == expected


def test_thm48_vacuous_when_weights_mismatch():
    a = AffMatrix.diag(2, (2, 0))
    b = AffMatrix.diag(2, (0, 2))
    g = g_constants(a, b, 2)
    assert g == {}
    assert g_constants(shifted(a, 1, 3), shifted(b, 1, 3), 2) == {}


def test_thm48_builds_each_g_table_once(monkeypatch):
    """Per pair: its g-table at rank n, one rank-N table per k, and one
    padded table per padding weight of part 2."""
    calls = []
    weights = []

    def counted(a_mat, b_mat, r):
        calls.append(a_mat.n)
        return g_constants(a_mat, b_mat, r)

    def counted_weight(a_mat, b_mat, lam):
        weights.append(lam)
        return real_weight(a_mat, b_mat, lam)

    real_weight = transfer._f_from_lambda
    for mod in (schur, transfer, verify):
        monkeypatch.setattr(mod, "g_constants", counted)
    monkeypatch.setattr(transfer, "_f_from_lambda", counted_weight)
    rep = verify.verify_thm_48(n=2, r=3)
    assert rep["pass"]
    pairs = rep["checked"] // 3  # two ks and part 2
    assert pairs == 848 and weights
    assert calls.count(2) == pairs
    assert len(calls) == 3 * pairs + len(weights)


def _k_admissible(a, b, support, k):
    return (
        eta(a, k).is_upper()
        and eta(b, k).is_upper()
        and all(eta(x, 2 * k).is_upper() for x in support)
    )


def test_find_k0_on_band_pairs():
    # k0 is admissible by the definition through eta and is_upper, and no
    # larger k <= -1 is; band 2 at (2, 2) reaches k0 = -2
    found = below = 0
    for n, r, band in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)):
        mats = enumerate_theta_band(n, r, band=band)
        for a in mats:
            for b in mats:
                if a.co() != b.ro():
                    continue
                table = g_table(a, b, r).table
                k = find_k0(a, b, table)
                support = list(table)
                assert k <= -1
                assert _k_admissible(a, b, support, k)
                if k < -1:
                    assert not _k_admissible(a, b, support, k + 1)
                    below += 1
                found += 1
    assert found > 0 and below > 0


def test_strip_E_examples():
    assert strip_E(AffMatrix.diag(2, (1, 1))) == (AffMatrix(2, {}), 1)
    assert strip_E(A_CROSS) == (A_CROSS, 0)
    padded = A_CROSS + AffMatrix.identity_e(2).scale(3)
    assert strip_E(padded) == (A_CROSS, 3)


def test_h_constants_worked_table():
    table = h_constants(A_CROSS, A_CROSS).table
    assert table == {
        A_CROSS: lp({1: 1, -1: 1}),
        AffMatrix(2, {(1, 2): 2, (2, 1): 2}): lp({-2: 1, 0: 2, 2: 1}),
    }


def test_h_constants_builds_each_level_once(monkeypatch):
    """A pair that retries: level 4 is the upper table of the first try
    and the lower table of the second, built once."""
    a = AffMatrix(2, {(1, 0): 1, (1, 1): 1})
    b = AffMatrix(2, {(1, 0): 1, (2, 3): 1})
    levels = []
    real = transfer._h_at_level

    def recorded(a_mat, b_mat, r):
        levels.append(r)
        return real(a_mat, b_mat, r)

    monkeypatch.setattr(transfer, "_h_at_level", recorded)
    assert h_constants(a, b).table == {
        a: lp({-1: 1, 1: 1}),
        AffMatrix(2, {(1, 0): 2, (1, 1): 1, (2, 3): 1}): lp({-1: 1, 1: 1}),
    }
    assert levels == [2, 4, 6]


@pytest.mark.parametrize(
    "a_entry, b_entry",
    [
        ((1, 0), (2, 3)),
        ((1, 2), (2, 1)),
        ((2, 1), (1, 2)),
        ((2, 3), (1, 0)),
    ],
)
def test_h_constants_reads_its_level_count_off_sigma(
    a_entry, b_entry, monkeypatch
):
    """Single entries of 3 at n = 2: the table gains one key per level
    up to 4 keys, so it settles min(sigma(A), sigma(B)) + 1 = 4 levels
    past the first."""
    a = AffMatrix(2, {a_entry: 3})
    b = AffMatrix(2, {b_entry: 3})
    levels = []
    real = transfer._h_at_level

    def recorded(a_mat, b_mat, r):
        levels.append(r)
        return real(a_mat, b_mat, r)

    monkeypatch.setattr(transfer, "_h_at_level", recorded)
    assert len(h_constants(a, b).table) == 4
    assert levels == [3, 5, 7, 9, 11]


def test_h_constants_sigma_mismatch_gives_zero():
    assert h_constants(A_CROSS, S1).table == {}


def test_h_constants_entries_nonneg():
    for a, b in ((A_CROSS, A_CROSS), (S1, S1)):
        for val in h_constants(a, b).table.values():
            assert val.is_nonneg()


def test_struct_table_json_is_deterministic():
    t1 = g_table(A_CROSS, A_CROSS, 2).to_json()
    t2 = g_table(A_CROSS, A_CROSS, 2).to_json()
    assert t1 == t2
    assert t1["kind"] == "g"
    assert t1["entries"]
