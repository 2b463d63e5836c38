import math
from fractions import Fraction

import pytest

from alignedchains import exactness
from alignedchains.exactness import (
    ColumnEchelon,
    aligned_exactness,
    full_exactness,
    rank_of_columns,
    verify_exactness,
)
from alignedchains.flatmate import ProductComplex, flatmate_exactness, flatmate_tuples
from alignedchains.limits import CapExceeded
from alignedchains.trees import build_tree, nonisomorphic_trees, path_tree, regular_ball


def test_column_echelon_rank():
    ech = ColumnEchelon()
    assert ech.insert({0: Fraction(1), 1: Fraction(2)})
    assert ech.insert({0: Fraction(1)})
    # dependent on the first two
    assert not ech.insert({0: Fraction(3), 1: Fraction(2)})
    assert ech.rank == 2


def test_rank_of_columns_early_stop():
    cols = [{i: Fraction(1)} for i in range(10)]
    assert rank_of_columns(cols, target=4) == 4
    assert rank_of_columns(cols) == 10


def test_full_complex_exact_small():
    for n_points in (1, 2, 3, 5):
        records = full_exactness(n_points, 2)
        assert all(rec.exact for rec in records)
        for rec in records:
            assert rec.dim == math.comb(n_points, rec.degree + 1)


def test_degree_zero_bookkeeping():
    records = full_exactness(4, 0)
    assert records[0].degree == 0
    assert records[0].dim == 4
    # augmentation kernel: dim C0 - 1
    assert records[0].kernel_dim == 3
    assert records[0].image_rank == 3
    assert records[0].exact


def test_aligned_exactness_tripod_and_star():
    tripod = build_tree([(0, 1), (0, 2), (0, 3)])
    assert all(rec.exact for rec in aligned_exactness(tripod, 3))
    star = build_tree([(0, i) for i in range(1, 6)])
    assert all(rec.exact for rec in aligned_exactness(star, 3))


def test_aligned_exactness_path_matches_full():
    # on a path every tuple is aligned, so the subcomplex is the full one
    p = path_tree(6)
    full = full_exactness(6, 3)
    aligned = aligned_exactness(p, 3)
    assert [rec.to_record() for rec in full] == [rec.to_record() for rec in aligned]


def test_membership_must_be_face_closed():
    # size-2 family without its size-1 faces
    def membership(tup):
        return len(tup) != 1 or tup[0] == 0

    with pytest.raises(ValueError, match="closed under faces"):
        verify_exactness(range(4), 1, membership)


def test_face_closure_checked_past_the_early_stop():
    # (3, 4) is missing, but the triples that have it as a face come after
    # the elimination has already reached its kernel-dimension bound
    with pytest.raises(ValueError, match="closed under faces"):
        verify_exactness(range(5), 1, lambda tup: tup != (3, 4))


def test_dim_cap_enforced():
    with pytest.raises(CapExceeded):
        full_exactness(40, 3, dim_cap=1000)


def test_record_shape():
    rec = full_exactness(5, 1)[1]
    data = rec.to_record()
    assert set(data) == {"degree", "dim", "image_rank", "kernel_dim", "exact"}
    assert data["dim"] == 10


def test_regular_ball_aligned_exact():
    t = regular_ball(3, 2)
    records = aligned_exactness(t, 2)
    assert [rec.exact for rec in records] == [True, True, True]


# The 6-vertex real projective plane: H_1 is Z/2, so its boundary ranks
# differ between GF(2) and Q.
RP2_TRIANGLES = [
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
]


def rp2_membership(tup):
    return any(set(tup) <= set(tri) for tri in RP2_TRIANGLES)


def test_fallback_recovers_rational_rank(monkeypatch):
    edges = sorted({tri[:j] + tri[j + 1 :] for tri in RP2_TRIANGLES for j in range(3)})
    row = {edge: i for i, edge in enumerate(edges)}
    columns = [
        {row[tri[:j] + tri[j + 1 :]]: (-1) ** j for j in range(3)}
        for tri in RP2_TRIANGLES
    ]
    assert rank_of_columns(columns, modulus=2) == 9
    assert rank_of_columns(columns) == 10

    monkeypatch.setattr(exactness, "PRIME", 2)
    records = verify_exactness(range(6), 2, rp2_membership)
    assert records[1].dim == 15
    assert records[1].image_rank == records[1].kernel_dim == 10
    assert all(rec.exact for rec in records)


def _records(records):
    return [rec.to_record() for rec in records]


def test_modular_path_matches_rational_on_small_trees(monkeypatch):
    trees = [t for n in range(1, 10) for t in nonisomorphic_trees(n)]
    assert len(trees) == 95  # unlabeled trees on 1..9 vertices
    modular = [_records(aligned_exactness(t, 3)) for t in trees]
    monkeypatch.setattr(exactness, "PRIME", None)
    rational = [_records(aligned_exactness(t, 3)) for t in trees]
    assert modular == rational


def test_modular_path_matches_rational_on_flatmate_products(monkeypatch):
    products = [
        ProductComplex(path_tree(3), path_tree(3)),
        ProductComplex(regular_ball(3, 1), path_tree(3)),
    ]
    # On the second product the flatmate filter drops tuples.
    assert len(flatmate_tuples(products[1], 3)) < math.comb(12, 3)
    modular = [_records(flatmate_exactness(p, 3)) for p in products]
    monkeypatch.setattr(exactness, "PRIME", None)
    rational = [_records(flatmate_exactness(p, 3)) for p in products]
    assert modular == rational
