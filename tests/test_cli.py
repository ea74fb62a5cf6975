"""Command-line behaviour: exit codes, reports, goldens, mesh output."""

import json
import os

import pytest

from fanifolds import files
from fanifolds.cli import run
from fanifolds.examples import EXAMPLES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    assert run([]) == 1
    assert run(["bmodel"]) == 1
    assert run(["bmodel", "census", "--file", "3a1.json"]) == 1  # missing degree
    assert run(["validate", "--file", "3a1.json", "--seed", "1"]) == 1  # no such option
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_missing_file_exits_2(capsys):
    code, _, err = run_capture(capsys, ["validate", "--file", "nowhere.json"])
    assert code == 2
    assert "nowhere.json" in err


def test_validate_unigon_is_a_report_not_an_error(capsys):
    code, out, _ = run_capture(capsys, ["validate", "--file", "unigon.json"])
    assert code == 0
    assert "is_poset: false" in out
    assert "coherent: true" in out


def test_validate_json_mode(capsys):
    code, out, _ = run_capture(
        capsys, ["validate", "--file", "square.json", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["strata"] == 9 and doc["is_poset"] and doc["valid"]
    # stable under re-serialization
    assert json.dumps(doc, indent=2) + "\n" == out


def test_census_unigon_degree_3(capsys):
    code, out, _ = run_capture(
        capsys, ["bmodel", "census", "--file", "unigon.json", "--degree", "3"]
    )
    assert code == 0
    assert "dimension: 13" in out


GATED_COMMANDS = {
    "bmodel-chart": ["bmodel", "chart", "--stratum", "(s0,s0)"],
    "bmodel-census": ["bmodel", "census", "--degree", "2"],
    "skeleton-report": ["skeleton", "report"],
    "skeleton-euler": ["skeleton", "euler"],
    "skeleton-handles": ["skeleton", "handles"],
    "skeleton-mesh": ["skeleton", "mesh"],
    "mirror-dict": ["mirror", "dict"],
    "mirror-restrict": ["mirror", "restrict", "--closed", "(s2,s2)"],
}


@pytest.mark.parametrize("command", sorted(GATED_COMMANDS))
def test_census_refuses_an_invalid_fanifold(tmp_path, capsys, command):
    """Every gated subcommand refuses the same invalid file the same way."""
    doc = json.loads(files.dumps(EXAMPLES["square"]()))
    doc["dimension"] = -1
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_capture(
        capsys, GATED_COMMANDS[command] + ["--file", str(path)]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid fanifold: stratum '(s")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_bmodel_chart_and_components(capsys):
    code, out, _ = run_capture(
        capsys, ["bmodel", "components", "--file", "necklace3.json"]
    )
    assert code == 0
    assert out.count("toric dimension 1") == 3

    code, out, _ = run_capture(
        capsys,
        ["bmodel", "chart", "--file", "necklace2.json", "--stratum", "e1"],
    )
    assert code == 0
    assert "charts: 5" in out


def test_skeleton_commands(capsys):
    code, out, _ = run_capture(capsys, ["skeleton", "euler", "--file", "3a1.json"])
    assert code == 0 and "chi_c: 1" in out

    code, out, _ = run_capture(
        capsys, ["skeleton", "handles", "--file", "square.json"]
    )
    assert code == 0
    assert "index 0: 4" in out and "index 1: 4" in out and "index 2: 1" in out

    code, out, _ = run_capture(
        capsys, ["skeleton", "report", "--file", "quadric_stacky.json", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["half_dimensional"] and doc["fibers_assemble"]


def test_skeleton_mesh_writes_obj(tmp_path, capsys):
    out_path = tmp_path / "skel.obj"
    code, out, _ = run_capture(
        capsys,
        [
            "skeleton",
            "mesh",
            "--file",
            "3a1.json",
            "--resolution",
            "16",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    text = out_path.read_text()
    gs = [line for line in text.splitlines() if line.startswith("g ")]
    assert sum(1 for g in gs if g.endswith("cylinder")) == 3
    assert sum(1 for g in gs if g.endswith("triangle")) == 1


def test_mirror_commands(capsys):
    code, out, _ = run_capture(
        capsys, ["mirror", "dict", "--file", "interval.json", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["ok"]

    code, out, _ = run_capture(
        capsys,
        ["mirror", "restrict", "--file", "necklace2.json", "--closed", "v1"],
    )
    assert code == 0
    assert "v1" in out

    code, _, err = run_capture(
        capsys,
        ["mirror", "restrict", "--file", "necklace2.json", "--closed", "e1"],
    )
    assert code == 2
    assert "not closed" in err


def test_fan_commands(capsys):
    code, out, _ = run_capture(
        capsys,
        ["fan", "props", "--file", "quadric_stacky.json", "--stratum", "s1", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["strata"]["s1"]["stacky"]
    assert doc["strata"]["s1"]["component_groups"] == [
        {"cone": 0, "invariants": [2]}
    ]

    code, out, _ = run_capture(
        capsys,
        ["fan", "resolve", "--file", "quadric_stacky.json", "--stratum", "s1"],
    )
    assert code == 0
    assert "smooth: true" in out and "refines original: true" in out

    code, out, _ = run_capture(
        capsys,
        ["fan", "quotient", "--file", "proj2.json", "--stratum", "s3", "--cone", "0"],
    )
    assert code == 0
    assert "quotient rank: 1" in out

    code, out, _ = run_capture(
        capsys,
        ["fan", "refines", "--file", "square.json", "--stratum", "(s2,s2),(s2,s2)"],
    )
    assert code == 0
    assert "refines: true" in out


def test_ufunctor_command(capsys):
    code, out, _ = run_capture(
        capsys,
        ["bmodel", "ufunctor", "--file", "necklace2.json", "--closed", "v1"],
    )
    assert code == 0
    assert "marked charts: 3" in out


def test_out_flag_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_capture(
        capsys,
        [
            "validate",
            "--file",
            "3a1.json",
            "--format",
            "json",
            "--out",
            str(path),
        ],
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["valid"]


def test_golden_reports_reproduce_byte_for_byte(tmp_path, capsys):
    for name in sorted(EXAMPLES):
        path = tmp_path / f"{name}.json"
        code = run(
            [
                "validate",
                "--file",
                f"{name}.json",
                "--format",
                "json",
                "--out",
                str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0, name
        golden = os.path.join(GOLDEN_DIR, f"{name}.validate.json")
        with open(golden, encoding="utf-8") as fh:
            assert path.read_text() == fh.read(), name


def test_literal_paths_still_work(tmp_path, capsys):
    from fanifolds import files

    path = tmp_path / "custom.json"
    files.save_fanifold(EXAMPLES["interval"](), str(path))
    code, out, _ = run_capture(capsys, ["validate", "--file", str(path)])
    assert code == 0
    assert "valid: true" in out
