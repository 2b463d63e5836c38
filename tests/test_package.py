import json
import os
import re
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import alignedchains
from alignedchains.cli import build_parser
from alignedchains.limits import DEFAULT_DIM_CAP, DEFAULT_LP_BASIS_CAP, DEFAULT_VERTEX_CAP

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

COMMANDS = [
    "verify-exactness",
    "verify-chainmap",
    "verify-pate",
    "norm-phi",
    "orbit-report",
    "flatmate-probe",
]


def run_child(code, *args, cwd=None):
    """stdout's last line, as JSON, of `code` run in a fresh interpreter that
    imports the package from this checkout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_exports_resolve_once():
    names = alignedchains.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(alignedchains, name)]
    assert not missing


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under '## Library example'"
    exec(compile(match.group(1), str(README), "exec"), {})


def test_package_import_loads_no_submodule():
    loaded, home = run_child(
        dedent(
            """
            import json, sys
            import alignedchains
            loaded = sorted(m for m in sys.modules if m.startswith("alignedchains."))
            print(json.dumps([loaded, alignedchains.AltChain.__module__]))
            """
        )
    )
    assert loaded == []
    assert home == "alignedchains.chains"


def test_parsing_a_workload_config_loads_no_runner_module(tmp_path):
    # the config of each benchmark workload's first command is parsed and
    # checked as a setup spawn does; no library routine is imported for it
    loaded = run_child(
        dedent(
            """
            import json, sys
            sys.path.insert(0, sys.argv[1])
            from workloads import WORKLOADS
            import alignedchains.cli as cli
            for workload in WORKLOADS.values():
                argv = workload.commands(0, 0, sys.argv[2])[0]
                cli.config_from_args(cli.build_parser().parse_args(argv)).validate()
            print(json.dumps(sorted(m for m in sys.modules if m.startswith("alignedchains"))))
            """
        ),
        str(ROOT / "bench"),
        str(tmp_path),
    )
    # no exactness, flatmate, lp, orbits or projection
    assert loaded == [
        "alignedchains",
        "alignedchains.cli",
        "alignedchains.limits",
        "alignedchains.reporting",
        "alignedchains.trees",
    ]


def test_every_subcommand_runs_without_networkx(tmp_path):
    argvs = [
        ["verify-exactness", "--regular", "3", "--radius", "2", "--aligned", "--nmax", "2"],
        ["verify-chainmap", "--regular", "3", "--radius", "2", "--degree", "2",
         "--samples", "5", "--seed", "s"],
        ["verify-pate", "--random", "8", "--samples", "5", "--seed", "s"],
        ["norm-phi", "--random", "8", "--degree", "2", "--samples", "5", "--seed", "s"],
        ["orbit-report", "--regular", "3", "--radius", "4", "--diameter-cap", "2"],
        ["flatmate-probe", "--path-family", "2", "3", "--samples", "2", "--seed", "s"],
    ]
    codes = run_child(
        dedent(
            """
            import json, sys
            sys.modules["networkx"] = None
            from alignedchains.cli import main
            print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
            """
        ),
        json.dumps(argvs),
        cwd=tmp_path,
    )
    assert codes == [0] * len(argvs)
    assert [argv[0] for argv in argvs] == COMMANDS


# The caps each subcommand honours, and so offers: 10 settable values.
OFFERED_CAPS = {
    "verify-exactness": ["--vertex-cap", "--dim-cap"],
    "verify-chainmap": ["--vertex-cap"],
    "verify-pate": ["--vertex-cap"],
    "norm-phi": ["--vertex-cap"],
    "orbit-report": ["--vertex-cap", "--dim-cap"],
    "flatmate-probe": ["--vertex-cap", "--dim-cap", "--lp-basis-cap"],
}


def test_subcommands_share_their_common_flags():
    parser = build_parser()

    def parse(argv):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code

    shared = ["--seed", "s", "--out", "r.csv", "--format", "csv"]
    tree = ["--tree-file", "t.txt", "--regular", "3", "--radius", "2", "--random", "5"]
    caps = {
        "--vertex-cap": DEFAULT_VERTEX_CAP,
        "--dim-cap": DEFAULT_DIM_CAP,
        "--lp-basis-cap": DEFAULT_LP_BASIS_CAP,
    }
    defaults = {"seed": None, "out": None, "format": "json"}
    given = {"seed": "s", "out": "r.csv", "format": "csv"}
    tree_values = {"tree_file": "t.txt", "regular": 3, "radius": 2, "random_n": 5}
    assert list(OFFERED_CAPS) == COMMANDS
    assert sum(map(len, OFFERED_CAPS.values())) == 10
    for command, offered in OFFERED_CAPS.items():
        base = [command]
        if command == "flatmate-probe":
            base += ["--path-family", "2", "3"]
        plain, with_shared, with_tree = (parse(base + extra) for extra in ([], shared, tree))
        assert {k: plain[k] for k in defaults} == defaults, command
        assert {k: with_shared[k] for k in given} == given, command
        for flag, default in caps.items():
            dest, with_cap = flag[2:].replace("-", "_"), parse(base + [flag, "7"])
            if flag in offered:
                assert (plain[dest], with_cap[dest]) == (default, 7), (command, flag)
            else:  # a cap the subcommand would not honour is refused
                assert dest not in plain and with_cap == 2, (command, flag)
        if command == "flatmate-probe":
            assert with_tree == 2 and not tree_values.keys() & plain.keys()
        else:
            assert {k: plain[k] for k in tree_values} == dict.fromkeys(tree_values)
            assert {k: with_tree[k] for k in tree_values} == tree_values, command


CLI_SEQUENCE = dedent(
    """
    import argparse, hashlib, json, os, sys
    from alignedchains.reporting import strip_volatile

    builds = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        global builds
        init(self, *args, **kwargs)
        builds += self.prog == "alignedchains"

    argparse.ArgumentParser.__init__ = counting_init
    from alignedchains.cli import main

    codes, reports = [], []
    for argv in json.loads(sys.argv[1]):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if out is None or not os.path.exists(out):
            reports.append(None)
            continue
        with open(out, encoding="utf-8") as handle:
            text = strip_volatile(handle.read())
        os.remove(out)
        config = json.loads(text)["config"]
        reports.append([hashlib.sha256(text.encode()).hexdigest(), config.get("degree")])
    print(json.dumps([builds, codes, reports]))
    """
)


def test_one_parser_serves_every_main_call(tmp_path):
    argvs = [
        ["verify-exactness", "--regular", "3", "--radius", "2", "--aligned",
         "--nmax", "2", "--out", "exact.json"],
        ["verify-chainmap", "--regular", "3", "--radius", "2", "--degree", "2",
         "--samples", "5", "--seed", "s", "--out", "chainmap.json"],
        # no --degree: the subcommand's own default, not the call before's
        ["norm-phi", "--random", "8", "--samples", "5", "--seed", "s",
         "--out", "norm.json"],
        ["verify-exactness", "--nmax", "x", "--out", "broken.json"],
        ["verify-pate", "--random", "8", "--samples", "5", "--seed", "s",
         "--out", "pate.json"],
    ]
    builds, codes, reports = run_child(CLI_SEQUENCE, json.dumps(argvs), cwd=tmp_path)
    assert builds == 1
    assert codes == [0, 0, 0, 2, 0]
    assert reports[3] is None
    assert [report[1] for report in reports[:3]] == [1, 2, 4]
    for argv, report in zip(argvs, reports):
        if report is not None:
            fresh = run_child(CLI_SEQUENCE, json.dumps([argv]), cwd=tmp_path)
            assert fresh == [1, [0], [report]], argv[0]
