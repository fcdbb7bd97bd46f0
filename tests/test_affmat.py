import itertools

from hypothesis import given, strategies as st

from affschur.affmat import (
    AffMatrix,
    compositions,
    dim_vector,
    enumerate_theta_band,
    preceq,
    sqsubseteq,
    theta_plus_by_dim,
)

from helpers import transpose


@st.composite
def band_matrices(draw, n=2, r=3):
    mats = enumerate_theta_band(n, r, band=1)
    return draw(st.sampled_from(mats))


def test_row_normalization():
    a = AffMatrix(2, {(3, 4): 1})
    assert a == AffMatrix(2, {(1, 2): 1})


def test_ro_co_sigma():
    a = AffMatrix(2, {(1, 2): 1, (2, 1): 1})
    assert a.ro() == (1, 1)
    assert a.co() == (1, 1)
    assert a.sigma() == 2


def test_co_is_periodic_column_sum():
    a = AffMatrix(2, {(1, 0): 1, (2, 1): 1})
    assert a.co() == (1, 1)
    assert a.ro() == (1, 1)


def test_transpose_and_shift():
    a = AffMatrix(2, {(1, 2): 2})
    assert transpose(a) == AffMatrix(2, {(2, 1): 2})
    assert a.col_shift(-2) == AffMatrix(2, {(1, 0): 2})
    assert a.col_shift(2).col_shift(-2) == a


def test_d_exponent_examples():
    assert AffMatrix.diag(2, (1, 1)).d_exponent() == 0
    assert AffMatrix(2, {(1, 2): 1, (2, 1): 1}).d_exponent() == 1
    assert AffMatrix(2, {(1, 2): 1, (2, 2): 1}).d_exponent() == 0


def test_aperiodicity():
    assert AffMatrix.diag(2, (1, 0)).is_aperiodic()
    assert AffMatrix.diag(2, (1, 1)).is_aperiodic()
    assert not AffMatrix(2, {(1, 2): 1, (2, 3): 1}).is_aperiodic()


def test_preceq_reflexive_on_band():
    for a in enumerate_theta_band(2, 2, band=1):
        assert preceq(a, a)
        assert sqsubseteq(a, a)


def test_sqsubseteq_needs_margins():
    a = AffMatrix(2, {(1, 2): 1, (2, 1): 1})
    d = AffMatrix.diag(2, (1, 1))
    assert sqsubseteq(d, a)
    assert not sqsubseteq(a, d)


def test_enumerate_theta_band_contents():
    mats = enumerate_theta_band(2, 2, band=1)
    assert len(mats) == len(set(mats))
    for m in mats:
        assert m.sigma() == 2
        assert m.is_nonnegative()
    assert AffMatrix.diag(2, (2, 0)) in mats
    assert AffMatrix(2, {(1, 2): 1, (2, 1): 1}) in mats


def test_compositions_count():
    assert len(compositions(2, 3)) == 4
    assert len(compositions(3, 2)) == 6
    for parts in compositions(3, 2):
        assert sum(parts) == 2


def test_theta_plus_by_dim_partitions_by_dimension():
    for dvec in ((1, 0), (1, 1), (2, 1)):
        for m in theta_plus_by_dim(2, dvec):
            assert m.is_upper()
            assert dim_vector(m) == dvec


def test_theta_plus_by_dim_counts():
    assert len(theta_plus_by_dim(2, (1, 0))) == 1
    assert len(theta_plus_by_dim(2, (1, 1))) == 3


def test_json_round_trip():
    a = AffMatrix(3, {(1, 3): 2, (2, 2): 1, (3, 5): 1})
    assert AffMatrix.from_json(a.to_json()) == a


@given(band_matrices(), band_matrices(), band_matrices())
def test_preceq_transitive_on_band(a, b, c):
    if preceq(a, b) and preceq(b, c):
        assert preceq(a, c)


@given(band_matrices(), band_matrices())
def test_sqsubseteq_antisymmetric(a, b):
    # preceq alone ignores diagonals, so antisymmetry needs the
    # row/column-sum constraint of the boxed order
    if sqsubseteq(a, b) and sqsubseteq(b, a):
        assert a == b


def test_addition_acts_entrywise():
    a = AffMatrix(2, {(1, 2): 1})
    b = AffMatrix(2, {(1, 2): 2, (2, 1): 1})
    assert a + b == AffMatrix(2, {(1, 2): 3, (2, 1): 1})
    assert (a + b) - b == a
    assert a.scale(3) == AffMatrix(2, {(1, 2): 3})
