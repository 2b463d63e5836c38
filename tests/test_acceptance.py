"""Acceptance suite: one test per criterion, one printed line per result.

Everything here is exact rational arithmetic; a criterion passes only when
every sampled or enumerated instance satisfies its identity with zero
tolerance.  Randomness is seeded per criterion, so reruns check the same
instances.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from textwrap import dedent

import pytest

from alignedchains.chains import AltChain
from alignedchains.cli import main
from alignedchains.exactness import aligned_exactness, full_exactness
from alignedchains.flatmate import (
    ProductComplex,
    flatmate_tuples,
    homotopy_norm_probe,
    path_product_family,
)
from alignedchains.orbits import aligned_signature, orbit_class_census, orbit_witness
from alignedchains.projection import (
    project_to_aligned,
    projection_norm_scan,
    verify_bracket_identities,
    verify_chain_map,
)
from alignedchains.reporting import strip_volatile
from alignedchains.trees import (
    aligned_tuples,
    build_tree,
    geodesic,
    extend_partial_isometry,
    is_aligned,
    path_tree,
    random_tree,
    regular_ball,
)
from reference import map_vertices
from small_trees import nonisomorphic_trees

TRIPOD = build_tree([(0, 1), (0, 2), (0, 3)])


@pytest.mark.criterion(1, "projection commutes with the boundary")
def test_criterion_1_chain_map():
    rng = random.Random("acceptance:c1:sizes")
    trees = [
        random_tree(rng.randint(10, 60), f"acceptance:c1:tree:{i}")
        for i in range(20)
    ]
    trees.append(regular_ball(3, 4))
    trees.append(regular_ball(4, 4))
    for index, tree in enumerate(trees):
        assert tree.vertex_count <= 170
        for degree in range(2, 6):
            report = verify_chain_map(
                tree, degree, 500, f"acceptance:c1:{index}:{degree}"
            )
            assert report.samples >= 500
            assert report.failures == 0, (index, degree, report.counterexample)


@pytest.mark.criterion(2, "idempotent projection with aligned integral image")
def test_criterion_2_projection_image():
    rng = random.Random("acceptance:c2")
    trees = [regular_ball(3, 3), random_tree(25, "acceptance:c2:t1")]
    checked = 0
    for tree in trees:
        for _ in range(120):
            degree = rng.randint(1, 4)
            width = rng.randint(1, 4)
            integral = rng.random() < 0.5
            terms = []
            for _ in range(width):
                tup = tuple(rng.sample(range(tree.vertex_count), degree + 1))
                if integral:
                    coeff = rng.choice((-3, -2, -1, 1, 2, 3))
                else:
                    coeff = Fraction(
                        rng.choice((-5, -3, -1, 1, 2, 7)), rng.randint(1, 6)
                    )
                terms.append((tup, coeff))
            chain = AltChain.from_tuples(terms)
            image = project_to_aligned(tree, chain)
            assert project_to_aligned(tree, image) == image
            assert all(is_aligned(tree, key) for key in image.terms)
            if integral:
                for c in (*chain.terms.values(), *image.terms.values()):
                    assert c.denominator == 1
            checked += 1
    assert checked >= 200


@pytest.mark.criterion(3, "norm bounds hold and the tripod value is 3")
def test_criterion_3_norm_bounds():
    standard_seen = 0
    for tree in (regular_ball(3, 3), random_tree(40, "acceptance:c3:t")):
        for degree in range(1, 5):
            scan = projection_norm_scan(
                tree, degree, 200, f"acceptance:c3:{degree}"
            )
            assert scan.term_bound == (degree + 1) * (degree + 2) // 2
            assert scan.bound_violations == 0
            assert scan.standard_violations == 0
            standard_seen += scan.standard_count
    assert standard_seen > 0
    image = project_to_aligned(TRIPOD, AltChain.basis((1, 2, 3)))
    assert image == AltChain.from_tuples(
        [((0, 2, 3), 1), ((0, 1, 3), -1), ((0, 1, 2), 1)]
    )
    assert image.l1_norm() == 3


@pytest.mark.criterion(4, "end-pair bracket identities")
def test_criterion_4_bracket_identities():
    for tree, seed in (
        (regular_ball(3, 3), "acceptance:c4:ball"),
        (random_tree(30, "acceptance:c4:t"), "acceptance:c4:rand"),
        (path_tree(12), "acceptance:c4:path"),
    ):
        report = verify_bracket_identities(tree, 200, seed, max_degree=5)
        assert report.failures == 0
        # both cocycle orientations per sample, every face index per sample
        assert report.cocycle_checks >= 400
        assert report.face_checks >= 400
        assert report.rewrite_checks >= 200


@pytest.mark.criterion(5, "exactness for all small instances")
def test_criterion_5_exactness():
    for points in range(1, 8):
        records = full_exactness(points, 3)
        assert all(rec.exact for rec in records), points
    seen = 0
    for vertices in range(1, 13):
        for tree in nonisomorphic_trees(vertices):
            records = aligned_exactness(tree, 3)
            assert all(rec.exact for rec in records), tree.adjacency
            seen += 1
    assert seen == 987  # unlabeled trees on 1..12 vertices


@pytest.mark.criterion(6, "naturality under finite-ball isometries")
def test_criterion_6_naturality():
    tree = regular_ball(3, 5)
    droot = tree.distances_from(0)
    centers = sorted(v for v in tree.vertices() if droot[v] <= 2)
    images = sorted(v for v in tree.vertices() if droot[v] <= 3)
    isometries = []
    for c in centers:
        for c2 in images:
            iso = extend_partial_isometry(
                tree,
                {c: c2},
                {w for w in tree.vertices() if tree.distance(c, w) <= 2},
            )
            if iso is not None:
                isometries.append((c, iso))
            if len(isometries) >= 55:
                break
        if len(isometries) >= 55:
            break
    assert len(isometries) >= 50
    for c, iso in isometries:
        domain = sorted(w for w in tree.vertices() if tree.distance(c, w) <= 2)
        # the domain is a ball, hence convex: a tuple's hull lies inside it
        # exactly when its coordinates do, so this enumeration is exhaustive
        for size in range(2, len(domain) + 1):
            for tup in combinations(domain, size):
                chain = AltChain.basis(tup)
                moved = map_vertices(chain, iso.mapping.__getitem__)
                assert project_to_aligned(tree, moved) == map_vertices(
                    project_to_aligned(tree, chain), iso.mapping.__getitem__
                )


@pytest.mark.criterion(7, "signature classes are exactly the witnessed orbits")
def test_criterion_7_orbit_correspondence():
    tree = regular_ball(3, 6)
    cap = 4
    droot = tree.distances_from(0)
    region = [v for v in tree.vertices() if droot[v] <= cap + 1]
    for degree in (1, 2):
        size = degree + 1
        tuples = []
        for u, v in combinations(region, 2):
            d = tree.distance(u, v)
            if d < size - 1 or d > cap:
                continue
            interior = geodesic(tree, u, v)[1:-1]
            for combo in combinations(interior, size - 2):
                tuples.append(tuple(sorted((u, v) + combo)))
        for type_preserving in (True, False):
            [census] = orbit_class_census(tree, degree, cap, (type_preserving,))
            assert census.total_tuples == len(tuples)
            assert census.ball_too_small == 0
            witnessed = sum(1 for c in census.classes if c.witnessed)
            assert census.class_count == witnessed
            buckets: dict[tuple, list[tuple[int, ...]]] = {}
            for tup in tuples:
                sig = aligned_signature(tree, tup, type_preserving)
                buckets.setdefault((sig.type_bit, sig.gaps), []).append(tup)
            assert len(buckets) == census.class_count
            for members in buckets.values():
                for x, y in combinations(members, 2):
                    result = orbit_witness(tree, x, y, type_preserving)
                    assert result.ok, (x, y, result.status)


@pytest.mark.criterion(8, "flatmate probe certifies a full norm series")
def test_criterion_8_flatmate_probe():
    reports = homotopy_norm_probe(path_product_family(3, 8), 1, 50, "acceptance:c8")
    assert len(reports) == 6
    for report in reports:
        # the probe itself raises unless every LP ends optimal and certified
        assert report.exact_flags == (True, True)
        assert report.cycles_tested >= 50
        assert report.max_min_preimage_norm is not None
        assert report.max_min_preimage_norm > 0
    series = [rep.max_min_preimage_norm for rep in reports]
    assert len(series) == 6
    for tree in (TRIPOD, random_tree(9, "acceptance:c8:t")):
        product = ProductComplex(tree, path_tree(1))
        for size in range(1, 5):
            assert flatmate_tuples(product, size) == aligned_tuples(tree, size)


# criterion 9's configs: report file name, argv
DETERMINISM_RUNS = [
    (
        "chainmap.json",
        ["verify-chainmap", "--regular", "3", "--radius", "2",
         "--degree", "2", "--samples", "10", "--seed", "d1",
         "--out", "chainmap.json"],
    ),
    (
        "orbits.json",
        ["orbit-report", "--regular", "3", "--radius", "4",
         "--diameter-cap", "2", "--out", "orbits.json"],
    ),
    (
        "probe.csv",
        ["flatmate-probe", "--path-family", "2", "3", "--samples", "5",
         "--seed", "d2", "--format", "csv", "--out", "probe.csv"],
    ),
]


@pytest.mark.criterion(9, "repeated CLI runs reproduce their reports")
def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, argv in DETERMINISM_RUNS:
        assert main(argv) == 0
        first = (tmp_path / name).read_text()
        assert main(argv) == 0
        second = (tmp_path / name).read_text()
        assert strip_volatile(first) == strip_volatile(second), name


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # criterion 9's configs, each hash seed in a fresh interpreter
    code = dedent(
        """
        import json, sys
        from alignedchains.cli import main
        from alignedchains.reporting import strip_volatile
        texts = {}
        for name, argv in json.loads(sys.argv[1]):
            assert main(argv) == 0
            with open(name, encoding="utf-8") as handle:
                texts[name] = strip_volatile(handle.read())
        print(json.dumps(texts))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("1", "2", "3"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(DETERMINISM_RUNS)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout.splitlines()[-1]))
    assert set(outputs[0]) == {name for name, _ in DETERMINISM_RUNS}
    assert outputs[0] == outputs[1] == outputs[2]
