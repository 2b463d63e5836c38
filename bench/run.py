"""Benchmark of the alignedchains command line, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload fill-paths --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25

A run is one closed-loop client: it calls `alignedchains.cli.main` on the
workload's commands, pass after pass, until `--seconds` have elapsed, and
gates every report for correctness. With `--trace 0` the last stdout line
holds the end-to-end metrics; with `--trace 1` untraced and traced passes
alternate, and it holds the per-layer metrics plus the tracing overhead.
`--workload all` runs every workload in its own child process and prints
one table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, gate, outdir_for  # noqa: E402

SETUP_SAMPLES = 15

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# What a user pays before any work: interpreter start, package import and
# argument parsing. Prints the monotonic clock, which is shared between
# processes, once the config is parsed.
SETUP_CHILD = """\
import sys, time
import alignedchains.cli as cli
cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:])).validate()
print(time.monotonic())
"""


class Pass(NamedTuple):
    wall: float
    items: int
    traced: bool
    layers: dict[str, float] | None


def load_cli(root: str) -> Callable[[list[str]], int]:
    """`alignedchains.cli.main` from `<root>/src`, never from elsewhere."""
    src = os.path.join(root, "src")
    package = os.path.join(src, "alignedchains")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        raise SystemExit(f"bench: no {package}; run from the repository root")
    sys.path.insert(0, src)
    import alignedchains.cli as cli

    if os.path.dirname(os.path.realpath(cli.__file__)) != os.path.realpath(package):
        raise SystemExit(f"bench: imported {cli.__file__}, not the package in {src}")
    return cli.main


def measure_setup(root: str, argv: list[str]) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = []
    # The first spawn also writes bytecode caches, so it is not kept.
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def run_pass(
    cli_main: Callable[[list[str]], int], commands: list[list[str]], tracer: Tracer | None
) -> tuple[float, list[int | None]]:
    """Wall time from the first `main()` call to the last report written."""
    codes: list[int | None] = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.patched())
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        t0 = time.perf_counter()
        for argv in commands:
            try:
                codes.append(cli_main(argv))
            except (Exception, SystemExit):
                traceback.print_exc()
                codes.append(None)
        wall = time.perf_counter() - t0
    return wall, codes


def measure(
    workload: Workload, seed: int, seconds: float, root: str, trace: bool,
    cli_main: Callable[[list[str]], int],
) -> tuple[list[Pass], int, list[str], Tracer | None]:
    """Closed loop: passes until `seconds` elapse. With `trace`, untraced and
    traced passes alternate in pairs that share their inputs, so the
    difference between them is the tracing overhead."""
    outdir = outdir_for(root, workload.name)
    tracer = Tracer() if trace else None
    passes: list[Pass] = []
    attempted = 0
    problems: list[str] = []
    start = time.monotonic()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        commands = workload.commands(seed, index // 2 if trace else index, outdir)
        wall, codes = run_pass(cli_main, commands, tracer if traced else None)
        layers = tracer.layer_metrics() if traced else None
        # Inputs of a workload without random input never change, so its
        # first report is pinned at every seed.
        pinned = index == 0 and (seed == DEFAULT_SEED or not workload.seeded)
        reports, verdicts = gate(workload, commands, codes, pinned)
        attempted += len(commands)
        problems += [v for v in verdicts if v is not None]
        passes.append(Pass(wall, workload.items(reports), traced, layers))
        if time.monotonic() - start >= seconds and (not trace or len(passes) >= 2):
            return passes, attempted, problems, tracer


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_one(args: argparse.Namespace, root: str) -> int:
    workload = WORKLOADS[args.workload]
    cli_main = load_cli(root)
    setup: list[float] = []
    if not args.trace:
        outdir = outdir_for(root, workload.name)
        setup = measure_setup(root, workload.commands(args.seed, 0, outdir)[0])
    passes, attempted, problems, tracer = measure(
        workload, args.seed, args.seconds, root, bool(args.trace), cli_main
    )
    plain = [p.wall for p in passes if not p.traced]
    if args.trace:
        traced = [p for p in passes if p.traced]
        metrics = {
            name: statistics.median(p.layers[name] for p in traced)
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(
            t.wall - u.wall for u, t in zip(passes[::2], passes[1::2])
        )
        units = {name: m.unit for name, m in PER_LAYER.items()}
        trace_path = os.path.join(outdir_for(root, workload.name), "trace.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump([list(span) for span in tracer.spans()], handle)
    else:
        metrics = {
            "wall_s": statistics.median(plain),
            "items_per_s": sum(p.items for p in passes) / sum(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    failed = len(problems)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "setup_samples": len(setup),
        "wall_s_quartiles": quartiles(plain),
        "fail_frac": failed / attempted,
        "problems": problems[:5],
    }
    for problem in problems[:5]:
        print(f"bench: {workload.name}: {problem}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace, root: str) -> int:
    """Each workload in its own child, so peak RSS and memo state stay apart."""
    rows = []
    for name in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=root, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            print(f"{name}: run failed with exit status {done.returncode}")
            return 1
        detail = json.loads(lines[-2].removeprefix("detail "))
        rows.append((name, detail, json.loads(lines[-1])))
    for name, detail, result in rows:
        metrics = result["metrics"]
        print(f"{name}  (seed {detail['seed']}, correct={result['correct']})")
        if args.trace:
            selfs = sorted(
                (m for m in metrics if m.endswith(".self_s")),
                key=lambda m: -metrics[m]["value"],
            )
            shown = selfs[:4] + ["trace.overhead_s"]
            samples = f"median of {detail['traced_passes']} traced passes"
        else:
            shown = list(END_TO_END)
            samples = None
        for metric in shown:
            value, unit = metrics[metric]["value"], metrics[metric]["unit"]
            count = samples or {
                "wall_s": f"median of {detail['passes']} passes",
                "items_per_s": f"total over {detail['passes']} passes",
                "peak_rss_mb": "1 process",
                "setup_s": f"median of {detail['setup_samples']} spawns",
            }[metric]
            print(f"  {metric:<44} {value:>12.4f} {unit:<8} {count}")
        print(
            f"  {'fail_frac':<44} {detail['fail_frac']:>12.4f} {'ratio':<8} "
            f"{result['failed']} of {result['attempted']} commands"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
