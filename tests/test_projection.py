import random
from itertools import combinations
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alignedchains.projection as projection
import alignedchains.trees as trees
from alignedchains.chains import AltChain
from alignedchains.projection import (
    CaterpillarForm,
    bracket_from_layout,
    caterpillar_layout,
    end_pair_bracket,
    project_to_aligned,
    project_tuple,
    projection_norm_scan,
    verify_bracket_identities,
    verify_chain_map,
)
from alignedchains.trees import (
    build_tree,
    is_aligned,
    path_tree,
    random_tree,
    regular_ball,
)
import reference


def tripod():
    return build_tree([(0, 1), (0, 2), (0, 3)])


def test_projection_fixes_low_degrees():
    t = regular_ball(3, 2)
    assert project_tuple(t, (4,)) == AltChain.basis((4,))
    assert project_tuple(t, (2, 7)) == AltChain.basis((2, 7))


def test_projection_fixes_aligned_tuples():
    p = path_tree(8)
    for tup in [(0, 2, 5), (1, 3, 4, 7), (0, 1, 2, 3, 4)]:
        assert project_tuple(p, tup) == AltChain.basis(tup)


def test_tripod_three_term_expansion():
    # center 0 replaces each leaf in turn, with alternating-canonical signs
    t = tripod()
    expected = AltChain.from_tuples(
        [((0, 2, 3), 1), ((0, 1, 3), -1), ((0, 1, 2), 1)]
    )
    result = project_tuple(t, (1, 2, 3))
    assert result == expected
    assert result.l1_norm() == 3
    assert result.boundary() == AltChain.basis((1, 2, 3)).boundary()


def test_projection_idempotent_and_integral():
    t = random_tree(20, 99)
    rng = random.Random(5)
    for _ in range(25):
        tup = tuple(sorted(rng.sample(range(20), 4)))
        image = project_tuple(t, tup)
        assert project_to_aligned(t, image) == image
        assert all(c.denominator == 1 for c in image.terms.values())
        assert all(is_aligned(t, key) for key in image.terms)


def test_chain_map_report():
    t = regular_ball(3, 3)
    rep = verify_chain_map(t, 3, 120, seed=21)
    assert rep.passed
    assert rep.samples == 120
    assert rep.counterexample is None
    assert rep.to_record()["failures"] == 0


def test_norm_scan_bounds():
    t = random_tree(30, 7)
    rep = projection_norm_scan(t, 4, 150, seed=13)
    assert rep.passed
    assert rep.term_bound == 15
    assert Fraction(rep.max_norm_num, rep.max_norm_den) <= 15
    assert rep.standard_violations == 0


def test_pate_expansion_on_path():
    chain = end_pair_bracket((0, 1), (2,), (3, 4))
    expected = AltChain.from_tuples(
        [((0, 2, 3), -1), ((0, 2, 4), 1), ((1, 2, 4), -1), ((1, 2, 3), 1)]
    )
    assert chain == expected


def test_pate_degenerate_pairs_vanish():
    assert end_pair_bracket((2, 2), (5,), (7, 8)).is_zero()
    assert end_pair_bracket((2, 3), (5,), (8, 8)).is_zero()


def test_pate_orientation():
    forward = end_pair_bracket((0, 1), (2, 3), (4, 5))
    assert end_pair_bracket((1, 0), (2, 3), (4, 5)) == -forward
    assert end_pair_bracket((0, 1), (2, 3), (5, 4)) == -forward


def test_pate_empty_middle():
    chain = end_pair_bracket((0, 1), (), (2, 3))
    assert chain.degree == 1
    assert chain.l1_norm() == 4


def test_bracket_identities_report():
    rep = verify_bracket_identities(path_tree(9), 150, seed=3)
    assert rep.passed
    assert rep.cocycle_checks >= 300
    assert rep.face_checks >= 300
    assert rep.rewrite_checks > 0


def test_caterpillar_layout_aligned_extremes():
    p = path_tree(7)
    layout = caterpillar_layout(p, (1, 3, 5), 0, 2)
    assert layout == CaterpillarForm((0, 1, 2), (1, 3, 5))


def test_caterpillar_layout_cases():
    t = tripod()
    # the far leaf hangs off the center, so it projects to the center
    layout = caterpillar_layout(t, (1, 2, 3), 0, 1)
    assert layout == CaterpillarForm((0, 2, 1), (1, 0, 2))
    # a non-leaf coordinate projects onto another, killing the layout
    assert caterpillar_layout(t, (0, 1, 2), 0, 1) is None
    # two hanging leaves collide on the same spine point
    star = build_tree([(0, 1), (0, 2), (0, 3), (0, 4)])
    assert caterpillar_layout(star, (1, 2, 3, 4), 0, 1) is None


def test_bracket_rewrite_matches_projection():
    t = build_tree([(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])
    x = (0, 4, 5, 3)
    layout = caterpillar_layout(t, x, 0, 3)
    assert layout is not None
    xr = tuple(x[k] for k in layout.order)
    assert project_tuple(t, xr) == bracket_from_layout(x, layout)


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=25, deadline=None)
def test_chain_map_random_trees(seed):
    t = random_tree(14, seed)
    rep = verify_chain_map(t, 2, 30, seed=seed)
    assert rep.passed


def test_naturality_under_reflection():
    # the path reversal is a global isometry; projection must commute
    p = path_tree(9)
    g = {v: 8 - v for v in range(9)}
    for tup in [(0, 3, 7), (1, 2, 5, 8), (0, 1, 4, 6, 8)]:
        lhs = project_tuple(p, tuple(g[v] for v in tup))
        rhs = reference.map_vertices(project_tuple(p, tup), g.__getitem__)
        assert lhs == rhs


def test_projection_walks_no_geodesic_and_reads_no_row(monkeypatch, row_reads):
    # every projected coordinate is a median read off the rooted index, so
    # no segment is walked, not even for the pairs with distinct offsets
    t = regular_ball(3, 6)
    x = (55, 77, 91, 103, 122, 149)
    rows = {w: reference.bfs_row(t, w) for w in x}
    medians = {
        (i, j): tuple(reference.bfs_median(rows, w, x[i], x[j]) for w in x)
        for i, j in combinations(range(len(x)), 2)
    }
    live = [pair for pair, points in medians.items() if len(set(points)) == len(x)]
    assert 0 < len(live) < 15
    expected = AltChain.from_tuples((medians[pair], 1) for pair in live)
    walked = []
    real = trees.geodesic

    def counting(tree, u, v):
        walked.append((u, v))
        return real(tree, u, v)

    monkeypatch.setattr(trees, "geodesic", counting)
    monkeypatch.setattr(projection, "geodesic", counting, raising=False)
    row_reads.clear()
    assert project_tuple(t, x) == expected
    assert walked == [] and row_reads == []


@pytest.mark.parametrize(
    "t",
    [regular_ball(3, 4), regular_ball(4, 3), random_tree(60, "median"), path_tree(12)],
    ids=["ball34", "ball43", "random60", "path12"],
)
def test_median_projection_matches_the_offset_reference(t):
    # seeded tuples of degrees 0..5, some with repeated entries, none sorted
    rng = random.Random(t.vertex_count)
    ids = range(t.vertex_count)
    for _ in range(300):
        k = rng.randint(1, 6)
        if rng.random() < 0.3:
            x = tuple(rng.choice(ids) for _ in range(k))
        else:
            x = tuple(rng.sample(ids, k))
        assert project_tuple(t, x) == reference.project_tuple(t, x), x
        for i, j in combinations(range(k), 2):
            assert caterpillar_layout(t, x, i, j) == reference.caterpillar_layout(t, x, i, j)


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_norm_scan_standard_count_matches_caterpillar_layouts(seed):
    # the scan reads "some pair kept" off the projection; count the
    # caterpillar tuples directly, on the tuples the scan draws
    t = random_tree(40, seed)
    for degree in (0, 2, 4):
        rng = random.Random(seed)
        expected = 0
        for _ in range(60):
            tup = tuple(sorted(rng.sample(range(t.vertex_count), degree + 1)))
            expected += any(
                caterpillar_layout(t, tup, i, j) is not None
                for i, j in combinations(range(degree + 1), 2)
            )
        report = projection_norm_scan(t, degree, 60, seed)
        assert report.standard_count == expected
        assert (expected > 0) == (degree > 0)
        if degree == 0:
            assert report.max_norm_num == report.max_norm_den == 1
