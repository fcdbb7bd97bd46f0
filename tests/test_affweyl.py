import itertools

from hypothesis import given, settings, strategies as st

from affschur.affmat import AffMatrix, enumerate_theta_band
from affschur.affweyl import (
    AffPerm,
    Composition,
    bruhat_leq,
    cells_matrix,
    coset_longest,
    coset_size,
    double_coset,
    enumerate_wr,
    identity,
    jdelta,
    jdelta_inv,
    jdelta_key,
    reduced_word,
    rho,
    simple,
    strip_rho,
)


@st.composite
def affperms(draw, r=3):
    perm = draw(st.permutations(list(range(1, r + 1))))
    shifts = draw(
        st.lists(
            st.integers(min_value=-2, max_value=2), min_size=r, max_size=r
        )
    )
    return AffPerm(tuple(p + r * k for p, k in zip(perm, shifts)))


def test_simple_is_involution():
    s1 = simple(3, 1)
    assert s1 * s1 == identity(3)


def test_rho_inverse():
    assert rho(3) * rho(3).inverse() == identity(3)


def test_compose_evaluates_left_to_right():
    s1, s2 = simple(3, 1), simple(3, 2)
    assert (s1 * s2).apply(1) == 2
    assert (s1 * s2).apply(2) == 3
    assert (s1 * s2).apply(3) == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(affperms))
def test_left_mul_simple_matches_product(w):
    # the left step and its mirror, the right step, for every generator,
    # the affine s_r included
    r = w.r
    w.length()
    for i in range(1, r + 1):
        sw, up = w.left_mul_simple(i)
        assert sw == simple(r, i) * w
        assert up == (not w.left_descent(i))
        # the length carried by sw is the one propagated from w
        assert sw.length() == AffPerm(sw.window).length()
        assert sw.length() == w.length() + (1 if up else -1)
        ws, up = w.right_mul_simple(i)
        assert ws == w * simple(r, i)
        assert up == (not w.right_descent(i))
        assert ws.length() == AffPerm(ws.window).length()
        assert ws.length() == w.length() + (1 if up else -1)


def test_length_basics():
    assert identity(3).length() == 0
    assert rho(4).length() == 0
    assert simple(2, 1).length() == 1


def test_length_of_longest_in_w3():
    w = simple(3, 1) * simple(3, 2) * simple(3, 1)
    assert w.length() == 3


def test_bruhat_bottom():
    s1 = simple(2, 1)
    assert bruhat_leq(identity(2), s1)
    assert not bruhat_leq(rho(2), s1)


def test_bruhat_subword():
    s1, s2 = simple(3, 1), simple(3, 2)
    assert bruhat_leq(s1, s1 * s2 * s1)


def test_double_coset_examples():
    s1 = simple(2, 1)
    one = Composition((1, 1))
    two = Composition((2, 0))
    assert double_coset(one, s1, one) == (s1, s1, {s1})
    d_min, d_plus, elems = double_coset(two, identity(2), two)
    assert (d_min, d_plus) == (identity(2), s1)
    assert elems == {identity(2), s1}


def test_double_coset_full_group():
    lam = Composition((3,))
    d_min, d_plus, elems = double_coset(lam, identity(3), lam)
    assert d_min == identity(3)
    assert d_plus.length() == 3
    assert len(elems) == 6


def test_jdelta_examples():
    one = Composition((1, 1))
    assert jdelta(one, identity(2), one) == AffMatrix.diag(2, (1, 1))
    assert jdelta(one, simple(2, 1), one) == AffMatrix(
        2, {(1, 2): 1, (2, 1): 1}
    )
    assert jdelta(one, rho(2), one) == AffMatrix(2, {(1, 0): 1, (2, 1): 1})


def test_jdelta_key_matches_jdelta_with_rho_shifts():
    # the shifted key of w names the coset of rho^a w; the reference
    # counts |R^lambda_k intersect rho^a w R^mu_l| slot by slot, the
    # constructor moving each cell into rows 1..n
    pairs = [((2, 1, 1), (1, 0, 3)), ((1, 3), (2, 2))]
    checked = 0
    for lam, mu in (tuple(map(Composition, p)) for p in pairs):
        rows, cols = lam.block_indices(), mu.block_indices()
        for layer in enumerate_wr(4, 5):
            for w in layer:
                for a in (-2, 0, 1, 3):
                    key = jdelta_key(rows, cols, lam.n, w.window, a)
                    shifted = rho(4, a) * w
                    by_slot = AffMatrix(
                        lam.n,
                        [
                            ((rows[(x - 1) % 4] + (x - 1) // 4 * lam.n, l), 1)
                            for x, l in zip(shifted.window, cols)
                        ],
                    )
                    assert jdelta(lam, shifted, mu) == cells_matrix(lam.n, key)
                    assert cells_matrix(lam.n, key) == by_slot
                    checked += 1
    assert checked == 2 * 4 * sum(map(len, enumerate_wr(4, 5)))


def test_jdelta_inv_examples():
    lam, d, mu = jdelta_inv(AffMatrix.diag(2, (2, 1)))
    assert lam.parts == (2, 1) and mu.parts == (2, 1)
    assert d == identity(3)
    lam, d, mu = jdelta_inv(AffMatrix(2, {(1, 2): 1, (2, 1): 1}))
    assert (lam.parts, d, mu.parts) == ((1, 1), simple(2, 1), (1, 1))


def test_jdelta_bijective_on_band():
    for n, r in ((2, 2), (2, 3), (3, 3)):
        seen = {}
        for a in enumerate_theta_band(n, r, band=1):
            triple = jdelta_inv(a)
            assert jdelta(*triple) == a
            key = (triple[0].parts, triple[1], triple[2].parts)
            assert key not in seen
            seen[key] = a


def _young_subgroup(lam):
    """S_lambda by enumeration: every permutation of each block of 1..r,
    the blocks being consecutive."""
    blocks = [lam.block(i) for i in range(1, lam.n + 1)]
    return [
        AffPerm(itertools.chain(*perms))
        for perms in itertools.product(*map(itertools.permutations, blocks))
    ]


def test_coset_calculus_matches_enumeration_on_band():
    # the walked coset and the closed forms against the products u d x
    # over S_lambda x S_mu: the element set, both extremes, the size, the
    # climbed longest element, and J_Delta read off at every element; band
    # 2 puts cells across a period boundary
    scopes = [(n, r, 1) for n in (2, 3) for r in (2, 3, 4)]
    scopes += [(2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 2, 2), (3, 3, 2)]
    for n, r, band in scopes:
        for a in enumerate_theta_band(n, r, band=band):
            lam, d, mu = jdelta_inv(a)
            right = _young_subgroup(mu)
            enumerated = {u * d * x for u in _young_subgroup(lam) for x in right}
            d_min, d_plus, elems = double_coset(lam, d, mu)
            assert elems == enumerated
            assert d_min == min(enumerated, key=AffPerm.length) == d
            assert d_plus == max(enumerated, key=AffPerm.length)
            assert coset_size(a) == len(elems)
            assert coset_longest(lam, d, mu) == d_plus
            assert all(jdelta(lam, w, mu) == a for w in elems)


@given(affperms())
def test_window_extension_consistency(w):
    for i in range(1, w.r + 1):
        assert w.apply(i + w.r) == w.apply(i) + w.r


@given(affperms())
def test_inverse_round_trip(w):
    assert w * w.inverse() == identity(w.r)
    assert w.inverse().length() == w.length()


@given(affperms())
def test_length_matches_reduced_word(w):
    a, x = strip_rho(w)
    word = reduced_word(x)
    assert len(word) == x.length() == w.length()
    rebuilt = rho(w.r, a)
    for i in word:
        rebuilt = rebuilt * simple(w.r, i)
    assert rebuilt == w


@given(affperms(), affperms())
def test_length_subadditive(x, y):
    assert (x * y).length() <= x.length() + y.length()


def _tail_count(x, i, j, depth):
    """How many s <= i have x(s) >= j, scanning far enough down that no
    contribution below the cutoff is possible."""
    return sum(1 for s in range(i - depth, i + 1) if x.apply(s) >= j)


@settings(max_examples=40)
@given(affperms(), affperms())
def test_bruhat_sorted_tail_monotone(y, w):
    if not bruhat_leq(y, w):
        return
    assert y.length() <= w.length()
    r = y.r
    vals = list(y.window) + list(w.window)
    depth = 12 * r
    for i in range(1, r + 1):
        for j in range(min(vals) - 2 * r, max(vals) + 2):
            assert _tail_count(y, i, j, depth) <= _tail_count(w, i, j, depth)


def test_bruhat_is_partial_order_on_small_ball():
    elems = [identity(2), simple(2, 1)]
    s1 = simple(2, 1)
    grow = set(elems)
    for a, b in itertools.product(elems, repeat=2):
        grow.add(a * b)
    elems = [w for w in grow if w.length() <= 3]
    for a in elems:
        assert bruhat_leq(a, a)
    for a, b in itertools.product(elems, repeat=2):
        if bruhat_leq(a, b) and bruhat_leq(b, a):
            assert a == b
