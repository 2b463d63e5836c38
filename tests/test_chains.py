from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignedchains.chains import (
    AltChain,
    canonicalize_tuple,
    chain_from_lines,
    chain_to_lines,
    signed_faces,
)

tuples3 = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)

coeffs = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
).filter(lambda f: f != 0)


def test_canonicalize_signs():
    assert canonicalize_tuple((2, 1, 3)) == ((1, 2, 3), -1)
    assert canonicalize_tuple((1, 2, 3)) == ((1, 2, 3), 1)
    assert canonicalize_tuple((3, 1, 2)) == ((1, 2, 3), 1)
    assert canonicalize_tuple((1, 1, 2))[1] == 0


@given(tuples3)
def test_repeated_entries_are_zero(tup):
    chain = AltChain.basis(tup) if len(set(tup)) == 3 else AltChain.from_tuples([(tup, 5)])
    if len(set(tup)) < 3:
        assert chain.is_zero()
    else:
        assert chain.l1_norm() == 1


@given(st.lists(st.tuples(tuples3, coeffs), min_size=1, max_size=8))
@settings(max_examples=80)
def test_boundary_squares_to_zero(pairs):
    chain = AltChain.from_tuples(pairs)
    assert chain.boundary().boundary().is_zero()


@given(st.lists(st.tuples(tuples3, coeffs), min_size=1, max_size=6))
@settings(max_examples=60)
def test_boundary_is_alternating_face_sum(pairs):
    chain = AltChain.from_tuples(pairs)
    total = AltChain.zero(1)
    for j in range(3):
        faces = chain.face(j)
        total = total + (faces if j % 2 == 0 else -faces)
    assert chain.boundary() == total


@pytest.mark.parametrize("length", range(1, 10))
def test_signed_faces_drop_each_entry_with_alternating_sign(length):
    key = tuple(range(3, 3 + 2 * length, 2))
    expected = {(key[:j] + key[j + 1 :], (-1) ** j) for j in range(length)}
    faces = list(signed_faces(key))
    assert len(faces) == length
    assert set(faces) == expected


def test_integer_chains_stay_int():
    c = AltChain.from_tuples([((0, 1, 2), 3), ((2, 1, 3), -2), ((1, 3, 4), 1)])
    d = AltChain.from_tuples([((0, 1, 2), -3), ((0, 2, 4), 5)])
    point = AltChain.from_tuples([((0,), 2), ((3,), -5)])
    for chain in (c, d, c.boundary(), c + d, c - d, c * 4, 4 * c, -c, point):
        assert chain.terms
        assert all(type(coeff) is int for coeff in chain.terms.values())
    assert type(c.l1_norm()) is Fraction and c.l1_norm() == 6
    assert type(point.augmentation()) is Fraction and point.augmentation() == -3
    assert type(AltChain.zero(1).l1_norm()) is Fraction


def test_float_coefficients_become_fractions():
    for chain in (AltChain.basis((0, 1), 0.5), AltChain.basis((0, 1)) * 0.5):
        assert chain.terms == {(0, 1): Fraction(1, 2)}
        assert type(chain.terms[(0, 1)]) is Fraction


def test_transposition_flips_sign():
    a = AltChain.basis((0, 1, 2))
    b = AltChain.basis((1, 0, 2))
    assert a + b == AltChain.zero(2)


def test_degree_zero_has_augmentation_not_boundary():
    c = AltChain.from_tuples([((0,), 2), ((3,), -5)])
    assert c.augmentation() == -3
    with pytest.raises(ValueError):
        c.boundary()


def test_arithmetic_and_norm():
    c = AltChain.from_tuples([((0, 1), Fraction(1, 3)), ((1, 2), -2)])
    assert c.l1_norm() == Fraction(7, 3)
    assert (c - c).is_zero()
    assert (2 * c).l1_norm() == Fraction(14, 3)
    assert not c.is_integral()
    assert (3 * c).is_integral()


def test_map_vertices_collapse():
    c = AltChain.basis((0, 1, 2))
    assert c.map_vertices(lambda v: min(v, 1)).is_zero()
    swapped = c.map_vertices({0: 1, 1: 0, 2: 2}.__getitem__)
    assert swapped == -c


def test_mixed_degree_rejected():
    with pytest.raises(ValueError):
        AltChain.from_tuples([((0, 1), 1), ((0, 1, 2), 1)])


@given(st.lists(st.tuples(tuples3, coeffs), min_size=1, max_size=6))
@settings(max_examples=40)
def test_line_serialization_roundtrip(pairs):
    chain = AltChain.from_tuples(pairs)
    again = chain_from_lines(chain_to_lines(chain), degree=2)
    assert again == chain


def test_line_parsing():
    chain = chain_from_lines(["1/2 0 1", "# note", "", "-3 2 4"])
    assert chain.terms == {(0, 1): Fraction(1, 2), (2, 4): Fraction(-3)}
    with pytest.raises(ValueError):
        chain_from_lines(["1 0 1 2"], degree=1)
    assert chain_from_lines([], degree=4).is_zero()
