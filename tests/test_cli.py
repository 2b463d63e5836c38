import json
import re

import pytest

from alignedchains import orbits
from alignedchains.cli import main
from alignedchains.reporting import strip_volatile


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_tree(workdir, name, edges):
    path = workdir / name
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def load_report(path):
    return json.loads(path.read_text())


def test_verify_exactness_aligned(workdir, capsys):
    tree = write_tree(workdir, "tripod.txt", [(0, 1), (0, 2), (0, 3)])
    code = main(
        ["verify-exactness", "--tree-file", tree, "--aligned", "--nmax", "2"]
    )
    assert code == 0
    doc = load_report(workdir / "verify-exactness-report.json")
    assert doc["command"] == "verify-exactness"
    assert doc["summary"]["passed"] is True
    assert doc["summary"]["mode"] == "aligned"
    assert len(doc["results"]) == 3
    line = capsys.readouterr().out.strip()
    assert line.startswith("verify-exactness:")
    assert line.endswith("-> verify-exactness-report.json")
    # every scalar on the summary line also sits in the report
    for pair in line.split(":", 1)[1].split(" -> ")[0].split():
        key, value = pair.split("=", 1)
        assert str(doc["summary"][key]) == value


def test_verify_exactness_random_tree(workdir):
    code = main(
        ["verify-exactness", "--random", "6", "--seed", "t1", "--nmax", "2"]
    )
    assert code == 0
    doc = load_report(workdir / "verify-exactness-report.json")
    assert doc["summary"]["vertices"] == 6
    assert doc["config"]["seed"] == "t1"


def test_randomized_commands_require_seed(workdir, capsys):
    code = main(["verify-chainmap", "--regular", "3", "--radius", "2"])
    assert code == 2
    assert "--seed is required" in capsys.readouterr().err
    assert not (workdir / "verify-chainmap-report.json").exists()


def test_verify_chainmap(workdir):
    code = main(
        [
            "verify-chainmap",
            "--regular", "3", "--radius", "2",
            "--degree", "2", "--samples", "15",
            "--seed", "cm",
        ]
    )
    assert code == 0
    doc = load_report(workdir / "verify-chainmap-report.json")
    assert doc["summary"]["failures"] == 0
    assert [r["degree"] for r in doc["results"]] == [1, 2]


def test_verify_pate_and_norm_phi(workdir):
    assert (
        main(["verify-pate", "--random", "9", "--samples", "20", "--seed", "pt"])
        == 0
    )
    assert (
        main(
            [
                "norm-phi",
                "--random", "9",
                "--degree", "2", "--samples", "25",
                "--seed", "np",
            ]
        )
        == 0
    )
    pate = load_report(workdir / "verify-pate-report.json")
    assert pate["summary"]["failures"] == 0
    norm = load_report(workdir / "norm-phi-report.json")
    assert norm["summary"]["bound_violations"] == 0
    # norms are written p/q, with the denominator even on integers
    for rec in norm["results"]:
        for field in ("max_norm", "standard_max_norm"):
            assert re.fullmatch(r"\d+/[1-9]\d*", rec[field]), (field, rec[field])


def test_orbit_report_both_modes(workdir):
    code = main(
        [
            "orbit-report",
            "--regular", "3", "--radius", "4",
            "--degree", "1", "--diameter-cap", "2",
        ]
    )
    assert code == 0
    doc = load_report(workdir / "orbit-report-report.json")
    modes = {r["mode"] for r in doc["results"]}
    assert modes == {"tp", "full"}
    assert doc["summary"]["classes_tp"] == 3
    assert doc["summary"]["classes_full"] == 2
    assert doc["summary"]["witnessed_tp"] == 3


def test_orbit_report_cramped_tree_fails(workdir):
    # path(4) has no room to extend any gap-2 witness; the run must
    # report and exit 1, not hide the failure
    tree = write_tree(workdir, "path4.txt", [(0, 1), (1, 2), (2, 3)])
    code = main(
        [
            "orbit-report",
            "--tree-file", tree,
            "--mode", "full", "--diameter-cap", "2",
        ]
    )
    assert code == 1
    doc = load_report(workdir / "orbit-report-report.json")
    assert doc["summary"]["passed"] is False
    assert any(not r["witnessed"] for r in doc["results"])


def test_orbit_report_broken_certificate_exits_one(workdir, monkeypatch, capsys):
    # a witness that breaks its own certificate is an internal failure: the
    # run still writes a report, which names the breach, and exits 1
    certify = orbits._certify_images

    def swap_spine_ends(t, frame, images):
        last = len(frame.domain) - len(frame.anchors) - 1
        images[0], images[last] = images[last], images[0]
        certify(t, frame, images)

    monkeypatch.setattr(orbits, "_certify_images", swap_spine_ends)
    code = main(
        [
            "orbit-report",
            "--regular", "3", "--radius", "4",
            "--degree", "1", "--diameter-cap", "2",
        ]
    )
    assert code == 1
    doc = load_report(workdir / "orbit-report-report.json")
    assert doc["summary"]["passed"] is False
    assert doc["summary"]["internal_error"].startswith(
        "CertificateError: witness certificate: edge"
    )
    assert "goes to the non-edge" in doc["summary"]["internal_error"]
    # the census names the instance: mode, degree, class and both tuples
    assert doc["summary"]["internal_error"].endswith(
        "(in the type-preserving census of degree 1: class gaps (1,), "
        "representative (0, 1), member (0, 1))"
    )
    assert "internal error" in capsys.readouterr().err


def test_flatmate_probe_csv(workdir):
    code = main(
        [
            "flatmate-probe",
            "--path-family", "2", "3",
            "--samples", "4",
            "--seed", "fp",
            "--format", "csv",
        ]
    )
    assert code == 0
    text = (workdir / "flatmate-probe-report.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[4] == (
        "factor1_size,factor2_size,degree,samples,"
        "max_min_norm_num,max_min_norm_den,exact_flags"
    )
    assert len(lines) == 7
    assert lines[5].split(",")[:4] == ["2", "2", "1", "4"]


def test_reports_are_deterministic(workdir):
    argv = [
        "flatmate-probe",
        "--path-family", "2", "3",
        "--samples", "4",
        "--seed", "fp",
        "--out", "probe.json",
    ]
    assert main(argv) == 0
    first = (workdir / "probe.json").read_text()
    assert main(argv) == 0
    second = (workdir / "probe.json").read_text()
    assert strip_volatile(first) == strip_volatile(second)


def test_config_errors_exit_two(workdir, capsys):
    cases = [
        ["verify-exactness", "--regular", "3"],                      # no radius
        ["verify-exactness", "--random", "5"],                       # no seed
        ["verify-exactness", "--tree-file", "missing.txt"],          # no file
        ["verify-exactness"],                                        # no source
        ["norm-phi", "--random", "5", "--seed", "s", "--degree", "0"],
        ["flatmate-probe", "--path-family", "1", "3", "--seed", "s"],
        ["flatmate-probe", "--path-family", "2", "3", "--seed", "s",
         "--growth-threshold", "0"],
        ["verify-exactness", "--random", "40", "--seed", "s",
         "--vertex-cap", "10"],
        ["verify-chainmap", "--regular", "3", "--radius", "2",
         "--samples", "-5", "--seed", "s"],
        ["flatmate-probe", "--path-family", "2", "3", "--samples", "-2",
         "--seed", "s"],
        # a sampling command with no samples would pass having checked nothing
        ["verify-chainmap", "--regular", "3", "--radius", "2",
         "--samples", "0", "--seed", "s"],
        ["verify-pate", "--random", "9", "--samples", "0", "--seed", "s"],
        # the census passes its tuple cap
        ["orbit-report", "--regular", "3", "--radius", "3", "--degree", "2",
         "--diameter-cap", "6", "--dim-cap", "10"],
        # path(2)^2 has no window of degree + 2 = 5 vertices to sample from
        ["flatmate-probe", "--path-family", "2", "3", "--degree", "3",
         "--samples", "3", "--seed", "s"],
        # path(3)^2 has 9 vertices, over the vertex cap
        ["flatmate-probe", "--path-family", "2", "3", "--samples", "2",
         "--seed", "s", "--vertex-cap", "4"],
        ["flatmate-probe", "--path-family", "2", "3", "--samples", "2",
         "--seed", "s", "--lp-basis-cap", "1"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.strip()
    assert not list(workdir.glob("*-report.*"))


def test_orbit_report_root_outside_tree_exits_two(workdir, capsys):
    for root in ("999", "-1"):
        argv = ["orbit-report", "--regular", "3", "--radius", "2", "--root", root]
        assert main(argv) == 2, argv
        assert "config error" in capsys.readouterr().err
    assert not (workdir / "orbit-report-report.json").exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
