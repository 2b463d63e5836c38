"""Tests of the benchmark itself: span arithmetic, the gate and seed handling.

Run from the repository root with `python3 -m pytest bench -q`.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from alignedchains import flatmate, lp  # noqa: E402
from alignedchains.cli import main  # noqa: E402
from alignedchains.trees import Tree  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER, Span, Tracer, self_times  # noqa: E402
from workloads import PINNED_DIGESTS, WORKLOADS, gate, report_digest  # noqa: E402


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 5.0, 9.0, 0),
        Span("d", 6.0, 7.0, 2),
        Span("e", 8.5, 9.5, 2),  # overruns its parent: only 8.5..9 counts
        Span("f", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, -1), Span("b", 2.0, 6.0, 0), Span("c", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    argv = [
        "flatmate-probe", "--path-family", "3", "3", "--samples", "2",
        "--seed", "t", "--out", str(tmp_path / "r.json"),
    ]
    original = lp.min_l1_preimage
    tracer = Tracer()
    with tracer.patched():
        assert flatmate.min_l1_preimage is not original
        assert main(argv) == 0
    metrics = tracer.layer_metrics()
    assert metrics["lp.min_l1_preimage.calls"] == 2
    assert metrics["flatmate.hull_problem.calls"] == 2
    assert metrics["trees.distances_from.calls"] > 0
    assert metrics["cli.run.s"] >= metrics["lp.min_l1_preimage.self_s"] > 0
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_s"}
    assert flatmate.min_l1_preimage is original
    assert "distances_from" in vars(Tree) and Tree.distances_from.__name__ == "distances_from"
    assert tracer.layer_metrics() == metrics  # state is kept until the next pass


def _fill_report(tmp_path) -> tuple[list[str], str]:
    argv = [
        "flatmate-probe", "--path-family", "3", "3", "--samples", "1",
        "--seed", "t", "--out", str(tmp_path / "flatmate-probe.json"),
    ]
    assert main(argv) == 0
    return argv, (tmp_path / "flatmate-probe.json").read_text()


def _tamper(tmp_path, text: str, edit) -> None:
    doc = json.loads(text)
    edit(doc)
    (tmp_path / "flatmate-probe.json").write_text(json.dumps(doc))


def test_gate_accepts_a_clean_report_and_rejects_tampered_ones(tmp_path, monkeypatch):
    fill = WORKLOADS["fill-paths"]
    argv, text = _fill_report(tmp_path)
    reports, verdicts = gate(fill, [argv], [0], pinned=False)
    assert verdicts == [None] and fill.items(reports) == 1

    def norm_above_one(doc):
        rec = doc["results"][0]
        rec["max_min_norm_num"] = 2 * rec["max_min_norm_den"]

    def inexact(doc):
        doc["results"][0]["exact_flags"] = "00"

    def failed_summary(doc):
        doc["summary"]["passed"] = False

    for edit, words in (
        (norm_above_one, "outside (0, 1]"),
        (inexact, "not exact"),
        (failed_summary, "summary.passed"),
    ):
        _tamper(tmp_path, text, edit)
        assert words in gate(fill, [argv], [0], pinned=False)[1][0]

    assert "exited with 1" in gate(fill, [argv], [1], pinned=False)[1][0]
    (tmp_path / "flatmate-probe.json").write_text(text[:-10])
    assert "unreadable" in gate(fill, [argv], [0], pinned=False)[1][0]


def test_gate_compares_the_pinned_digest(tmp_path, monkeypatch):
    fill = WORKLOADS["fill-paths"]
    argv, text = _fill_report(tmp_path)
    monkeypatch.setitem(PINNED_DIGESTS, "fill-paths", [report_digest(text)])
    assert gate(fill, [argv], [0], pinned=True)[1] == [None]
    # A changed config echo keeps every invariant but not the bytes.
    _tamper(tmp_path, text, lambda doc: doc["config"].update(seed="u"))
    assert gate(fill, [argv], [0], pinned=False)[1] == [None]
    assert "digest" in gate(fill, [argv], [0], pinned=True)[1][0]


@pytest.mark.parametrize(
    "name, report, words",
    [
        (
            "exact-aligned",
            {"results": [{"degree": 1, "image_rank": 3, "kernel_dim": 4}]},
            "image rank 3 != kernel dim 4",
        ),
        (
            "orbit-census",
            {
                "results": [{"mode": "tp", "gaps": [2], "witnessed": False}],
                "summary": {"classes_tp": 1, "witnessed_tp": 0,
                            "classes_full": 0, "witnessed_full": 0},
            },
            "not witnessed",
        ),
        ("project-sample", {"summary": {"failures": 1}}, "failures = 1"),
        ("project-sample", {"summary": {"bound_violations": 2}}, "bound_violations = 2"),
    ],
)
def test_workload_invariants_reject_broken_reports(name, report, words):
    assert any(words in p for p in WORKLOADS[name].check(report))


def _inputs(workload, seed: int, index: int, outdir: str) -> list[list[str]]:
    """Each command with any input file's content in place of its path."""
    out = []
    for argv in workload.commands(seed, index, outdir):
        argv = list(argv)
        if "--tree-file" in argv:
            i = argv.index("--tree-file") + 1
            with open(argv[i], encoding="utf-8") as handle:
                argv[i] = handle.read()
        out.append(argv)
    return out


def _shape(commands: list[list[str]]) -> list[list[str]]:
    """The command list without flag values that carry inputs."""
    return [
        [a for a, prev in zip(argv, [""] + argv) if prev not in ("--seed", "--tree-file")]
        for argv in commands
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_but_not_the_command_list(name, tmp_path):
    workload = WORKLOADS[name]
    outdir = str(tmp_path)
    one = _inputs(workload, 1, 0, outdir)
    assert _inputs(workload, 1, 0, outdir) == one
    two = _inputs(workload, 2, 0, outdir)
    assert _shape(one) == _shape(two)
    assert (one != two) == workload.seeded
    assert (_inputs(workload, 1, 1, outdir) != one) == workload.seeded


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (m.unit, m.better) for name, m in PER_LAYER.items()
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
