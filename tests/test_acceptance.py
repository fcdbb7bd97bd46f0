"""End-to-end acceptance suite.

Each test exercises one advertised guarantee at desk scale and asserts
both correctness and a wall-clock budget.  The index sets are infinite;
enumerations run over the band truncation (entries within distance 1 of
the diagonal) used throughout the verification drivers.
"""

import itertools
import random
import time

from affschur import schur, verify
from affschur.affmat import AffMatrix, dim_vector, enumerate_theta_band, theta_plus_by_dim
from affschur.affweyl import enumerate_wr
from affschur.hall import hall_count, hall_poly
from affschur.heckekl import KLCache, cprime, t_bar
from affschur.laurent import LP_ONE, LaurentPoly
from affschur.schur import SchurElt, bar, e_basis_mult, mult, theta
from affschur.transfer import f_constants

from helpers import int_poly_in_q, only_even_exponents, saved_records, tau


class Budget:
    def __init__(self, seconds):
        self.start = time.monotonic()
        self.seconds = seconds

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed <= self.seconds, (
            "budget exceeded: %.1fs > %ds" % (elapsed, self.seconds)
        )


def test_hecke_kl_core():
    budget = Budget(120)
    cache = KLCache()
    for r in (2, 3):
        for layer in enumerate_wr(r, 6):
            for w in sorted(layer, key=lambda x: x.window):
                c = cprime(w, cache)
                assert t_bar(c) == c
    for (r, ywin, wwin), p in saved_records(cache).items():
        assert p.coeff(0) == 1
        if ywin != wwin:
            from affschur.affweyl import AffPerm

            gap = AffPerm(wwin).length() - AffPerm(ywin).length()
            assert 2 * p.degree() <= gap - 1
    schur.clear_caches()
    for n, r in ((2, 2), (2, 3), (3, 3)):
        rep = verify.verify_lemma_31(n=n, r=r)
        assert rep["pass"], rep["violations"][:3]
    budget.check()


def test_schur_multiplication():
    budget = Budget(300)
    mats22 = enumerate_theta_band(2, 2, band=1)
    for a, b, c in itertools.product(mats22, repeat=3):
        xa, xb, xc = (SchurElt.bracket(m) for m in (a, b, c))
        assert mult(mult(xa, xb), xc) == mult(xa, mult(xb, xc))
    rng = random.Random(23)
    pools = [enumerate_theta_band(2, 3, band=1), enumerate_theta_band(3, 3, band=1)]
    for _ in range(200):
        pool = rng.choice(pools)
        a, b, c = (rng.choice(pool) for _ in range(3))
        xa, xb, xc = (SchurElt.bracket(m) for m in (a, b, c))
        assert mult(mult(xa, xb), xc) == mult(xa, mult(xb, xc))
    for a, b in itertools.product(mats22, repeat=2):
        if a.co() != b.ro():
            continue
        for val in e_basis_mult(a, b).values():
            assert only_even_exponents(val)
            p = int_poly_in_q(val)
            for q in (2, 3, 4, 5):
                assert p.evaluate(q) >= 0
    budget.check()


def test_canonical_basis():
    budget = Budget(300)
    worked = theta(AffMatrix(2, {(1, 2): 1, (2, 1): 1}), 2)
    assert worked.coeff(AffMatrix(2, {(1, 2): 1, (2, 1): 1})) == LP_ONE
    assert worked.coeff(AffMatrix.diag(2, (1, 1))) == LaurentPoly({-1: 1})
    assert len(worked.terms) == 2
    for n, r in ((2, 2), (2, 3), (3, 3)):
        rep = verify.verify_prop_38(n=n, r=r)
        assert rep["pass"], rep["violations"][:3]
        rep = verify.verify_lemma_36(n=n, r=r)
        assert rep["pass"], rep["violations"][:3]
        rep = verify.verify_lemma_37(n=n, r=r)
        assert rep["pass"], rep["violations"][:3]
    budget.check()


def test_lemma_37_beyond_the_default_scope():
    # reads l(y_A+) off the closed-form longest element, with no coset
    # enumeration: (2, 6) has cosets of up to 720 elements
    budget = Budget(5)
    for n, r in ((2, 6), (3, 5)):
        rep = verify.verify_lemma_37(n=n, r=r)
        assert rep["pass"], rep["violations"][:3]
        assert rep["checked"] > 0
    budget.check()


def test_canonical_basis_at_level_five():
    budget = Budget(20)
    rep = verify.verify_prop_38(n=2, r=5)
    assert rep["pass"], rep["violations"][:3]
    assert rep["checked"] == 252
    budget.check()


def test_positivity_at_level_five():
    budget = Budget(20)
    rep = verify.verify_cor_49(n=2, r=5)
    assert rep["pass"], rep["violations"][:3]
    assert rep["checked"] == 19494
    budget.check()


def test_positivity_of_g_constants():
    budget = Budget(600)
    for n, r in ((2, 2), (2, 3), (3, 3)):
        rep = verify.verify_cor_49(n=n, r=r)
        assert rep["pass"], rep["violations"][:3]
        assert rep["checked"] > 0
    budget.check()


def test_transfer_theorem():
    budget = Budget(600)
    for r in (2, 3):
        rep = verify.verify_thm_48(n=2, r=r, big_n=3, ks=(-1, 1), samples=25)
        assert rep["pass"], rep["violations"][:3]
        assert rep["checked"] >= 25
    budget.check()


def test_hall_bridge():
    budget = Budget(600)
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
    s1 = AffMatrix(2, {(1, 2): 1})
    double = AffMatrix(2, {(1, 2): 2})
    phi = hall_poly(s1, s1, double)
    assert phi.coeffs == (1, 1)
    for q in (2, 3, 4):
        assert phi.evaluate(q) == hall_count(double, s1, s1, q)
    assert f_constants(s1, s1).table == {double: LaurentPoly({1: 1, -1: 1})}
    rep = verify.verify_zeta()
    assert rep["pass"], rep["violations"][:3]
    budget.check()


def test_hall_transfer_invariance():
    budget = Budget(600)
    rep = verify.verify_thm_410()
    assert rep["pass"], rep["violations"][:3]
    rep = verify.verify_cor_411()
    assert rep["pass"], rep["violations"][:3]
    budget.check()


def test_modified_algebra_constants():
    budget = Budget(600)
    rep = verify.verify_thm_54(n=2, samples=20)
    assert rep["pass"], rep["violations"][:3]
    rep = verify.verify_thm_55(n=2, samples=20)
    assert rep["pass"], rep["violations"][:3]
    rep = verify.verify_thm_63(n=2, r=2)
    assert rep["pass"], rep["violations"][:3]
    budget.check()


def test_structural_involutions():
    budget = Budget(120)
    mats = enumerate_theta_band(2, 3, band=1)
    rng = random.Random(11)
    for _ in range(100):
        x = SchurElt.bracket(rng.choice(mats))
        y = SchurElt.bracket(rng.choice(mats))
        prod = mult(x, y)
        assert tau(prod) == mult(tau(y), tau(x))
        assert bar(prod) == mult(bar(x), bar(y))
        assert bar(bar(prod)) == prod
        assert tau(tau(prod)) == prod
    budget.check()
