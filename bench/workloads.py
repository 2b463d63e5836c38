"""The four benchmark workloads: CLI commands, item counts and the correctness gate.

Each workload turns (seed, pass index) into a list of CLI argument vectors
for `alignedchains.cli.main`. The program sees only those flags and the
input files written here; every random choice is derived from the
benchmark seed, so one seed always yields the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    commands: Callable[[int, int, str], list[list[str]]]
    items: Callable[[list[dict]], int]
    check: Callable[[dict], list[str]]


def report_path(argv: list[str]) -> str:
    return argv[argv.index("--out") + 1]


# --- fill-paths -------------------------------------------------------------

# Per-cycle LP cost is heavy-tailed (a 66-row hull can take 2 s where the
# median cycle takes 2 ms), so a seed-drawn probe would spread by 30-60%
# between seeds. The probe seed is therefore fixed, as criterion 8's is.
FILL_PROBE_SEED = "fill-paths"


def fill_paths_commands(seed: int, index: int, outdir: str) -> list[list[str]]:
    return [
        [
            "flatmate-probe", "--path-family", "3", "6", "--degree", "1",
            "--samples", "12", "--seed", FILL_PROBE_SEED,
            "--out", f"{outdir}/flatmate-probe.json",
        ]
    ]


def fill_paths_items(reports: list[dict]) -> int:
    total = 0
    for report in reports:
        kmin, kmax = report["config"]["path_family"]
        total += (kmax - kmin + 1) * report["config"]["samples"]
    return total


def fill_paths_check(report: dict) -> list[str]:
    problems = []
    for rec in report["results"]:
        where = f"path({rec['factor1_size']})^2"
        if rec["exact_flags"][rec["degree"]] != "1":
            problems.append(f"{where}: not exact at degree {rec['degree']}")
            continue
        norm = Fraction(rec["max_min_norm_num"], rec["max_min_norm_den"])
        # Path x path products are full simplices, so the cone
        # construction bounds every unit-cycle filling by 1.
        if not 0 < norm <= 1:
            problems.append(f"{where}: max norm {norm} outside (0, 1]")
    return problems


# --- exact-aligned ----------------------------------------------------------

# Aligned-basis size varies about 3x between random shapes of one size, and
# that lottery would set the spread. The shapes are drawn once from fixed
# seeds; the benchmark seed relabels them, which reorders the elimination.
SHAPE_SIZES = (15, 16) * 18


def pruefer_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of the uniform random labelled tree given by a Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, s))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return edges


SHAPES = [
    pruefer_edges(n, random.Random(f"exact-aligned:shape:{i}"))
    for i, n in enumerate(SHAPE_SIZES)
]


def relabelled(edges: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(len(edges) + 1))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in edges]


def exact_aligned_commands(seed: int, index: int, outdir: str) -> list[list[str]]:
    commands = []
    for i, shape in enumerate(SHAPES):
        edges = relabelled(shape, random.Random(f"exact-aligned:{seed}:{index}:{i}"))
        tree_file = f"{outdir}/tree-{i}.txt"
        with open(tree_file, "w", encoding="utf-8") as handle:
            handle.writelines(f"{a} {b}\n" for a, b in edges)
        commands.append(
            [
                "verify-exactness", "--tree-file", tree_file, "--aligned",
                "--nmax", "3", "--out", f"{outdir}/verify-exactness-{i}.json",
            ]
        )
    return commands


def exact_aligned_items(reports: list[dict]) -> int:
    return sum(rec["dim"] for report in reports for rec in report["results"])


def exact_aligned_check(report: dict) -> list[str]:
    return [
        f"degree {rec['degree']}: image rank {rec['image_rank']} "
        f"!= kernel dim {rec['kernel_dim']}"
        for rec in report["results"]
        if rec["image_rank"] != rec["kernel_dim"]
    ]


# --- orbit-census -----------------------------------------------------------


def orbit_census_commands(seed: int, index: int, outdir: str) -> list[list[str]]:
    return [
        [
            "orbit-report", "--regular", "3", "--radius", "9", "--degree", "1",
            "--diameter-cap", "7", "--mode", "both",
            "--out", f"{outdir}/orbit-report.json",
        ]
    ]


def orbit_census_items(reports: list[dict]) -> int:
    return sum(rec["size"] for report in reports for rec in report["results"])


def orbit_census_check(report: dict) -> list[str]:
    # A ball_too_small witness attempt marks its class unwitnessed, so
    # "every class witnessed" also rules those attempts out.
    problems = [
        f"{rec['mode']} class {rec['gaps']} not witnessed"
        for rec in report["results"]
        if not rec["witnessed"]
    ]
    summary = report["summary"]
    for mode in ("tp", "full"):
        if summary[f"witnessed_{mode}"] != summary[f"classes_{mode}"]:
            problems.append(f"{mode}: witnessed count != class count")
    return problems


# --- project-sample ---------------------------------------------------------

BALL = ["--regular", "3", "--radius", "6"]


def project_sample_commands(seed: int, index: int, outdir: str) -> list[list[str]]:
    tag = f"project-sample:{seed}:{index}"
    return [
        [
            "verify-chainmap", *BALL, "--degree", "5", "--samples", "400",
            "--seed", f"{tag}:chainmap", "--out", f"{outdir}/verify-chainmap.json",
        ],
        [
            "norm-phi", *BALL, "--degree", "5", "--samples", "400",
            "--seed", f"{tag}:norm", "--out", f"{outdir}/norm-phi.json",
        ],
        [
            "verify-pate", "--random", "120", "--samples", "200",
            "--seed", f"{tag}:pate", "--out", f"{outdir}/verify-pate.json",
        ],
    ]


def project_sample_items(reports: list[dict]) -> int:
    total = 0
    for report in reports:
        config = report["config"]
        if report["command"] == "verify-pate":
            total += report["summary"]["checks"]
        else:
            total += config["degree"] * config["samples"]
    return total


def project_sample_check(report: dict) -> list[str]:
    summary = report["summary"]
    return [
        f"{key} = {summary[key]}"
        for key in ("failures", "bound_violations")
        if summary.get(key, 0) != 0
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fill-paths",
            "flatmate-probe on path(k)^2, k=3..6, 48 cycles at a fixed probe seed: the "
            "filling LP is nearly all the time, so LP changes show here",
            False,
            fill_paths_commands,
            fill_paths_items,
            fill_paths_check,
        ),
        Workload(
            "exact-aligned",
            "verify-exactness --aligned --nmax 3 on 36 relabelled 15-16 vertex "
            "trees: rational elimination is ~94% of the time and the LP never runs",
            True,
            exact_aligned_commands,
            exact_aligned_items,
            exact_aligned_check,
        ),
        Workload(
            "orbit-census",
            "orbit-report on the 1534-vertex radius-9 ball: witness extension "
            "dominates and the distance memo fills; no random input",
            False,
            orbit_census_commands,
            orbit_census_items,
            orbit_census_check,
        ),
        Workload(
            "project-sample",
            "verify-chainmap, norm-phi and verify-pate: the only projection and "
            "chains work; ~0.5M distance lookups over 500 sources, nearly all memo hits",
            True,
            project_sample_commands,
            project_sample_items,
            project_sample_check,
        ),
    )
}


# sha256 of each report of pass 0 at DEFAULT_SEED, after strip_volatile.
_DIGESTS_FILE = os.path.join(os.path.dirname(__file__), "pinned_digests.json")
with open(_DIGESTS_FILE, encoding="utf-8") as _handle:
    PINNED_DIGESTS: dict[str, list[str]] = json.load(_handle)


def report_digest(text: str) -> str:
    from alignedchains.reporting import strip_volatile

    return hashlib.sha256(strip_volatile(text).encode("utf-8")).hexdigest()


def gate(
    workload: Workload, commands: list[list[str]], codes: list[int | None], pinned: bool
) -> tuple[list[dict], list[str | None]]:
    """Check one pass; returns its parsed reports and one verdict per command.

    A verdict is None when the command passed, else the first problem
    found: a nonzero exit, an unreadable report, `summary.passed` false,
    a broken workload invariant, or (when `pinned`) a digest mismatch.
    """
    reports: list[dict] = []
    verdicts: list[str | None] = []
    digests = PINNED_DIGESTS.get(workload.name, [])
    for i, (argv, code) in enumerate(zip(commands, codes)):
        path = report_path(argv)
        if code != 0:
            verdicts.append(f"{argv[0]} exited with {code}")
            continue
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            report = json.loads(text)
        except (OSError, ValueError) as exc:
            verdicts.append(f"{path}: unreadable report ({exc})")
            continue
        if report.get("summary", {}).get("passed") is not True:
            verdicts.append(f"{path}: summary.passed is not true")
            continue
        problems = workload.check(report)
        if not problems and pinned and i < len(digests):
            if report_digest(text) != digests[i]:
                problems = ["digest differs from the pinned report"]
        verdicts.append(f"{path}: {problems[0]}" if problems else None)
        reports.append(report)
    return reports, verdicts


def outdir_for(root: str, name: str) -> str:
    path = os.path.join(".bench_out", name)
    os.makedirs(os.path.join(root, path), exist_ok=True)
    return path
