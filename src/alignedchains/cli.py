"""Command-line front end: verification suites, scans, and probes.

Every subcommand reads its inputs from flags, runs the corresponding
library routine, writes exactly one report file, and prints one summary
line.  Exit status is 0 when every checked assertion held, 1 when some
assertion failed (the report carries the details), and 2 on bad config
or a resource cap.  A broken internal invariant (a `RuntimeError`,
`AssertionError` or `ArithmeticError` from the run, such as a witness
that fails its own certificate) also exits 1, with a report whose summary
has `passed: false` and an `internal_error` naming the breach.
Randomized commands require --seed, and a repeated run with identical
flags reproduces the report payload byte for byte.  Each runner imports
its library module when it runs, so parsing and checking a config load
only `limits`, `reporting` and `trees`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from typing import Sequence

from .limits import (
    DEFAULT_DIM_CAP,
    DEFAULT_LP_BASIS_CAP,
    DEFAULT_VERTEX_CAP,
    CapExceeded,
)
from .reporting import Report, parse_rational, rational_str, render, write_atomic
from .trees import Tree, load_tree, random_tree, regular_ball

RANDOMIZED = {"verify-chainmap", "verify-pate", "norm-phi", "flatmate-probe"}


@dataclass
class ExperimentConfig:
    """Everything a run depends on; echoed verbatim into the report."""

    command: str
    tree_file: str | None = None
    regular: int | None = None
    radius: int | None = None
    random_n: int | None = None
    path_family: tuple[int, int] | None = None
    aligned: bool = False
    nmax: int = 3
    degree: int = 1
    samples: int = 0
    seed: str | None = None
    mode: str = "both"
    diameter_cap: int = 4
    root: int = 0
    growth_threshold: str = "4"
    vertex_cap: int = DEFAULT_VERTEX_CAP
    dim_cap: int = DEFAULT_DIM_CAP
    lp_basis_cap: int = DEFAULT_LP_BASIS_CAP
    out: str | None = None
    format: str = "json"

    def echo(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}

    def validate(self) -> None:
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        for cap in (self.vertex_cap, self.dim_cap, self.lp_basis_cap):
            if cap <= 0:
                raise ValueError("caps must be positive")
        if self.command in RANDOMIZED and self.seed is None:
            raise ValueError(f"{self.command} is randomized; --seed is required")
        if self.random_n is not None and self.seed is None:
            raise ValueError("--random tree generation requires --seed")
        if self.degree < 1:
            raise ValueError("--degree must be at least 1")
        if self.nmax < 0:
            raise ValueError("--nmax must be non-negative")
        if self.samples < 0:
            raise ValueError("--samples must be non-negative")
        if self.samples == 0 and self.command in RANDOMIZED:
            raise ValueError(f"--samples must be positive for {self.command}")

    def output_path(self) -> str:
        return self.out or f"{self.command}-report.{self.format}"


def resolve_tree(cfg: ExperimentConfig) -> Tree:
    if sum(s is not None for s in (cfg.tree_file, cfg.regular, cfg.random_n)) != 1:
        raise ValueError(
            "exactly one tree source is required: --tree-file, --regular, or --random"
        )
    if cfg.tree_file is not None:
        tree = load_tree(cfg.tree_file)
    elif cfg.regular is not None:
        if cfg.radius is None:
            raise ValueError("--regular needs --radius")
        tree = regular_ball(cfg.regular, cfg.radius, vertex_cap=cfg.vertex_cap)
    else:
        assert cfg.random_n is not None
        tree = random_tree(cfg.random_n, f"{cfg.seed}:tree")
    if tree.vertex_count > cfg.vertex_cap:
        raise CapExceeded(
            f"tree has {tree.vertex_count} vertices (cap {cfg.vertex_cap})"
        )
    return tree


def _run_verify_exactness(cfg: ExperimentConfig) -> tuple[list[dict], dict, bool]:
    from .exactness import aligned_exactness, full_exactness

    tree = resolve_tree(cfg)
    if cfg.aligned:
        records = aligned_exactness(tree, cfg.nmax, dim_cap=cfg.dim_cap)
    else:
        records = full_exactness(tree.vertex_count, cfg.nmax, dim_cap=cfg.dim_cap)
    rows = [rec.to_record() for rec in records]
    exact_degrees = sum(1 for rec in records if rec.exact)
    summary = {
        "vertices": tree.vertex_count,
        "mode": "aligned" if cfg.aligned else "full",
        "degrees_checked": len(records),
        "degrees_exact": exact_degrees,
    }
    return rows, summary, exact_degrees == len(records)


def _run_verify_chainmap(cfg: ExperimentConfig) -> tuple[list[dict], dict, bool]:
    from .projection import verify_chain_map

    tree = resolve_tree(cfg)
    rows = []
    failures = 0
    for n in range(1, cfg.degree + 1):
        rep = verify_chain_map(tree, n, cfg.samples, f"{cfg.seed}:chainmap:{n}")
        rows.append(rep.to_record())
        failures += rep.failures
    summary = {
        "vertices": tree.vertex_count,
        "degrees_checked": cfg.degree,
        "samples_per_degree": cfg.samples,
        "failures": failures,
    }
    return rows, summary, failures == 0


def _run_verify_pate(cfg: ExperimentConfig) -> tuple[list[dict], dict, bool]:
    from .projection import verify_bracket_identities

    tree = resolve_tree(cfg)
    rep = verify_bracket_identities(
        tree, cfg.samples, f"{cfg.seed}:pate", max_degree=max(2, cfg.degree)
    )
    summary = {
        "vertices": tree.vertex_count,
        "checks": rep.cocycle_checks + rep.face_checks + rep.rewrite_checks,
        "failures": rep.failures,
    }
    return [rep.to_record()], summary, rep.failures == 0


def _run_norm_phi(cfg: ExperimentConfig) -> tuple[list[dict], dict, bool]:
    from .projection import projection_norm_scan

    tree = resolve_tree(cfg)
    rows = []
    violations = 0
    for n in range(1, cfg.degree + 1):
        rep = projection_norm_scan(tree, n, cfg.samples, f"{cfg.seed}:norm:{n}")
        rows.append(rep.to_record())
        violations += rep.bound_violations + rep.standard_violations
    summary = {
        "vertices": tree.vertex_count,
        "degrees_checked": cfg.degree,
        "samples_per_degree": cfg.samples,
        "bound_violations": violations,
    }
    return rows, summary, violations == 0


def _run_orbit_report(cfg: ExperimentConfig) -> tuple[list[dict], dict, bool]:
    from .orbits import orbit_class_census

    tree = resolve_tree(cfg)
    modes = {"tp": [True], "full": [False], "both": [True, False]}.get(cfg.mode)
    if modes is None:
        raise ValueError(f"unknown orbit mode {cfg.mode!r}")
    rows = []
    summary: dict = {"vertices": tree.vertex_count, "degree": cfg.degree}
    ok = True
    for census in orbit_class_census(
        tree, cfg.degree, cfg.diameter_cap, modes, root=cfg.root, dim_cap=cfg.dim_cap
    ):
        label = "tp" if census.type_preserving else "full"
        for rec in census.to_records():
            rec["mode"] = label
            rows.append(rec)
        summary[f"classes_{label}"] = census.class_count
        summary[f"witnessed_{label}"] = sum(1 for c in census.classes if c.witnessed)
        ok = ok and census.all_witnessed
    return rows, summary, ok


def _run_flatmate_probe(cfg: ExperimentConfig) -> tuple[list[dict], dict, bool]:
    from .flatmate import flag_growth, homotopy_norm_probe, path_product_family

    if cfg.path_family is None:
        raise ValueError("flatmate-probe needs --path-family KMIN KMAX")
    kmin, kmax = cfg.path_family
    if not 2 <= kmin <= kmax:
        raise ValueError("--path-family needs 2 <= KMIN <= KMAX")
    if kmax**2 > cfg.vertex_cap:
        raise CapExceeded(f"path({kmax})^2 has {kmax**2} vertices (cap {cfg.vertex_cap})")
    threshold = parse_rational(cfg.growth_threshold)
    if threshold <= 0:
        raise ValueError("--growth-threshold must be positive")
    reports = homotopy_norm_probe(
        path_product_family(kmin, kmax),
        cfg.degree,
        cfg.samples,
        cfg.seed,
        dim_cap=cfg.dim_cap,
        lp_basis_cap=cfg.lp_basis_cap,
    )
    rows = [rep.to_record() for rep in reports]
    flagged = flag_growth(reports, threshold)
    norms = [
        rational_str(rep.max_min_preimage_norm)
        for rep in reports
        if rep.max_min_preimage_norm is not None
    ]
    summary = {
        "instances": len(reports),
        "exact_instances": sum(1 for rep in reports if rep.exact_at_degree),
        "norm_series": norms,
        "growth_threshold": cfg.growth_threshold,
        "flagged_indices": flagged,
    }
    return rows, summary, True


RUNNERS = {
    "verify-exactness": _run_verify_exactness,
    "verify-chainmap": _run_verify_chainmap,
    "verify-pate": _run_verify_pate,
    "norm-phi": _run_norm_phi,
    "orbit-report": _run_orbit_report,
    "flatmate-probe": _run_flatmate_probe,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    try:
        cfg.validate()
        try:
            rows, summary, ok = RUNNERS[cfg.command](cfg)
        except (RuntimeError, AssertionError, ArithmeticError) as exc:
            breach = f"{type(exc).__name__}: {exc}"
            print(f"{cfg.command}: internal error: {breach}", file=sys.stderr)
            rows, summary, ok = [], {"internal_error": breach}, False
        summary["passed"] = ok
        report = Report(cfg.command, cfg.echo(), rows, summary)
        path = cfg.output_path()
        write_atomic(path, render(report, cfg.format))
    except (CapExceeded, ValueError, OSError, KeyError) as exc:
        print(f"{cfg.command}: config error: {exc}", file=sys.stderr)
        return 2
    detail = " ".join(
        f"{k}={v}" for k, v in summary.items() if not isinstance(v, (list, dict))
    )
    print(f"{cfg.command}: {detail} -> {path}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alignedchains",
        description="Exactness checks, projection scans, orbit censuses, "
        "and filling-norm probes on finite trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tree_source = argparse.ArgumentParser(add_help=False)
    tree_source.add_argument("--tree-file", help="edge-list file, one `u v` per line")
    tree_source.add_argument(
        "--regular",
        type=int,
        metavar="BRANCHING",
        help="regular ball; needs --radius",
    )
    tree_source.add_argument("--radius", type=int, help="radius for --regular")
    tree_source.add_argument(
        "--random",
        dest="random_n",
        type=int,
        metavar="N",
        help="random tree on N vertices (uses --seed)",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", help="seed for any randomized step")
    shared.add_argument("--out", help="report path (default <command>-report.<fmt>)")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP)
    # only the subcommands that build levels of tuples honour, so offer, --dim-cap
    dim_cap = argparse.ArgumentParser(add_help=False)
    dim_cap.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    on_tree, capped = [tree_source, shared], [shared, dim_cap]
    sized = [tree_source, *capped]

    p = sub.add_parser(
        "verify-exactness", parents=sized, help="rank/kernel audit per degree"
    )
    p.add_argument("--aligned", action="store_true", help="aligned subcomplex only")
    p.add_argument("--nmax", type=int, default=3)

    p = sub.add_parser(
        "verify-chainmap",
        parents=on_tree,
        help="boundary compatibility of the projection",
    )
    p.add_argument("--degree", type=int, default=4, help="check degrees 1..DEGREE")
    p.add_argument("--samples", type=int, default=500)

    p = sub.add_parser("verify-pate", parents=on_tree, help="end-pair bracket identities")
    p.add_argument("--degree", type=int, default=5, help="largest middle degree")
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("norm-phi", parents=on_tree, help="projection norm scan")
    p.add_argument("--degree", type=int, default=4, help="scan degrees 1..DEGREE")
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser(
        "orbit-report", parents=sized, help="signature census with orbit witnesses"
    )
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--diameter-cap", type=int, default=4)
    p.add_argument("--mode", choices=("tp", "full", "both"), default="both")
    p.add_argument("--root", type=int, default=0)

    p = sub.add_parser(
        "flatmate-probe", parents=capped, help="filling-norm probe on path products"
    )
    p.add_argument("--lp-basis-cap", type=int, default=DEFAULT_LP_BASIS_CAP)
    p.add_argument(
        "--path-family",
        nargs=2,
        type=int,
        metavar=("KMIN", "KMAX"),
        required=True,
        help="path(k) x path(k) for k in KMIN..KMAX (k in vertices)",
    )
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument(
        "--growth-threshold",
        default="4",
        help="flag an instance when its norm exceeds this ratio times the previous one",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields = {
        k: v
        for k, v in vars(args).items()
        if k in ExperimentConfig.__dataclass_fields__ and v is not None
    }
    if getattr(args, "path_family", None) is not None:
        fields["path_family"] = tuple(args.path_family)
    return ExperimentConfig(**fields)


# argparse keeps no state between parse_args calls, so one parser serves
# every main() call of a process; build_parser stays a pure builder.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    """Parse `argv` (default sys.argv[1:]), run the command and return its
    exit status.  The parser is built once per process, on the first call."""
    args = _parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
