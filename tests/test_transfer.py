import pytest

from affschur import verify
from affschur.affmat import AffMatrix, enumerate_theta_band
from affschur.laurent import LaurentPoly
from affschur.schur import SchurElt, mult, theta
from affschur.transfer import (
    eta,
    f_constants,
    find_k0,
    g_table,
    h_constants,
    iota,
    strip_E,
    tilde,
    verify_thm48,
    verify_thm48_part2,
)

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


def test_thm48_trivial_shift():
    assert verify_thm48(A_CROSS, A_CROSS, 2, 0, 2)


def test_thm48_worked_pair():
    assert verify_thm48(A_CROSS, A_CROSS, 2, 1, 3)
    assert verify_thm48_part2(A_CROSS, A_CROSS, 2, 3)


def test_thm48_vacuous_when_weights_mismatch():
    a = AffMatrix.diag(2, (2, 0))
    b = AffMatrix.diag(2, (0, 2))
    assert verify_thm48(a, b, 2, 1, 3)


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
                k = find_k0(a, b, r)
                support = list(g_table(a, b, r).table)
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
