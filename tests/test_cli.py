"""Command-line behaviour: exit codes, reports, goldens, mesh output."""

import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest

from fanifolds import cli, files
from fanifolds.cli import COMMANDS, run
from fanifolds.examples import EXAMPLES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
CLI_GOLDEN_DIR = os.path.join(GOLDEN_DIR, "cli")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def read_golden(name: str) -> str:
    with open(os.path.join(CLI_GOLDEN_DIR, name), encoding="utf-8", newline="") as fh:
        return fh.read()


CLI_CASES = json.loads(read_golden("cases.json"))


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


@pytest.mark.parametrize("case", CLI_CASES, ids=[c["name"] for c in CLI_CASES])
def test_help_and_usage_text_match_the_goldens(monkeypatch, capsys, case):
    """Help at every level and every usage error, byte for byte
    (recorded by ``tools/regen_cli_goldens.py`` at 80 columns)."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_capture(capsys, case["argv"])
    assert code == case["code"]
    assert out == read_golden(case["name"] + ".out")
    assert err == read_golden(case["name"] + ".err")


def test_goldens_hold_help_at_every_level_of_the_table():
    argvs = {tuple(c["argv"]) for c in CLI_CASES}
    paths = {c.path for c in COMMANDS}
    levels = {()} | {p[:1] for p in paths} | paths
    assert {(*level, "--help") for level in levels} <= argvs


def test_one_shot_entry_point_reads_sys_argv():
    """``python -m fanifolds.cli`` parses ``sys.argv``, which no in-process
    call of ``run`` reaches."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fanifolds.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )

    proc = run_module("validate", "--file", "unigon")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (
        "dimension: 2\nstrata: 3\narrows: 4\n"
        "is_poset: false\ncoherent: true\nvalid: true\n"
    )
    proc = run_module("bmodel", "census", "--help")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == read_golden("bmodel-census-help.out")


def test_importing_the_package_and_cli_loads_neither_dataclasses_nor_inspect():
    """The records are ``NamedTuple``s: a one-shot call imports neither
    ``dataclasses`` nor the ``inspect``/``ast``/``dis`` chain it pulls in,
    and a plain command line is read without ``argparse``.  Counts only what
    the imports and the run add, not what site start-up loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    code = (
        "import os, sys; before = set(sys.modules); import fanifolds, fanifolds.cli; "
        "code = fanifolds.cli.run(['validate', '--file', 'proj3.json', '--out', os.devnull]); "
        "print(code, sorted({'dataclasses', 'inspect', 'argparse'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run_capture(capsys, ["validate", "--file", "nowhere.json"])
    assert code == 2
    assert "nowhere.json" in err


@pytest.mark.parametrize("name", ["", "nothere/"])
def test_a_name_without_a_stem_is_not_the_bundled_directory(capsys, name):
    """A name whose base name is empty must not resolve to the bundled
    ``data/`` directory itself."""
    code, out, err = run_capture(capsys, ["validate", "--file", name])
    assert (code, out) == (2, "")
    assert err == f"error: cannot find fanifold file {name!r}\n"


@pytest.mark.parametrize("name", ["/no/such/dir/square.json", "nothere/square"])
def test_a_missing_path_with_a_directory_is_not_a_bundled_example(capsys, name):
    """Only a bare name reaches the bundled examples: a missing path to a
    user's own file is an error, not the bundled file of the same name."""
    code, out, err = run_capture(capsys, ["validate", "--file", name])
    assert (code, out) == (2, "")
    assert err == f"error: cannot find fanifold file {name!r}\n"


def test_bare_names_and_existing_paths_still_load(tmp_path, capsys):
    mine = tmp_path / "mine.json"
    with open(cli.resolve_input("square.json"), encoding="utf-8") as fh:
        mine.write_text(fh.read(), encoding="utf-8")
    reports = []
    for name in ("square", "square.json", str(mine)):
        code, out, err = run_capture(capsys, ["validate", "--file", name])
        assert (code, err) == (0, ""), name
        reports.append(out)
    assert reports[0] == reports[1] == reports[2]
    assert "strata: 9" in reports[0]


def test_a_literal_directory_keeps_its_os_error(tmp_path, capsys):
    code, out, err = run_capture(capsys, ["validate", "--file", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 21] Is a directory")


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


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_census_refuses_a_degree_past_the_box_index(capsys, example):
    """2D + 1 past sys.maxsize is refused in one line before any walk, on
    every bundled example."""
    degree = str(10**20)
    code, out, err = run_capture(
        capsys, ["bmodel", "census", "--file", f"{example}.json", "--degree", degree]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: degree {degree} is too large\n"


GATED_COMMANDS = {
    "bmodel-chart": ["bmodel", "chart", "--stratum", "(s0,s0)"],
    "bmodel-census": ["bmodel", "census", "--degree", "2"],
    "bmodel-components": ["bmodel", "components"],
    "bmodel-ufunctor": ["bmodel", "ufunctor", "--closed", "(s2,s2)"],
    "skeleton-report": ["skeleton", "report"],
    "skeleton-euler": ["skeleton", "euler"],
    "skeleton-handles": ["skeleton", "handles"],
    "skeleton-mesh": ["skeleton", "mesh"],
    "mirror-dict": ["mirror", "dict"],
    "mirror-restrict": ["mirror", "restrict", "--closed", "(s2,s2)"],
}


def command_path(words):
    return tuple(itertools.takewhile(lambda w: not w.startswith(("-", "[")), words))


def check_synopsis(synopsis: str) -> tuple:
    """The command path a synopsis names; it must show the row's own
    options, the required ones bare and the others in brackets."""
    words = synopsis.split()
    path = command_path(words)
    (cmd,) = [c for c in COMMANDS if c.path == path]
    for flag, options in cmd.args:
        if options.get("required"):
            assert flag in words, synopsis
        else:
            assert f"[{flag}" in words, synopsis
    return path


def readme_rows() -> list[tuple[tuple, str]]:
    """(command path, "on an invalid fanifold" cell) of the README table."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("Subcommands:", 1)[1].split("\n\n", 2)[1]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0].startswith("`"):
            rows.append((check_synopsis(cells[0].strip("`")), cells[2]))
    return rows


def test_readme_and_docstring_list_the_command_table():
    paths = [c.path for c in COMMANDS]
    rows = readme_rows()
    assert [path for path, _ in rows] == paths
    assert {path for path, cell in rows if cell == "exits 2"} == {
        command_path(argv) for argv in GATED_COMMANDS.values()
    }

    listing = cli.__doc__.split("Subcommands::", 1)[1].split("\n\n", 2)[1]
    synopses = [re.split(r"\s{2,}", line.strip())[0] for line in listing.splitlines()]
    assert [check_synopsis(s) for s in synopses] == paths


def test_out_of_memory_exits_2_in_one_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_bmodel_census", exhausted)
    code, out, err = run_capture(
        capsys, ["bmodel", "census", "--file", "proj2.json", "--degree", "3"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: the input needs more than is available\n"


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


def test_components_refuses_a_fan_with_a_duplicated_cone_in_one_line(tmp_path, capsys):
    """halfplane.json with its ray listed twice in ``(cell,s0)``: no cone is
    maximal, and validation names the fan's problem in the one error line,
    not an IndexError."""
    doc = json.loads(files.dumps(EXAMPLES["halfplane"]()))
    fan = next(s for s in doc["strata"] if s["id"] == "(cell,s0)")["fan"]
    fan["cones"].append(list(fan["cones"][-1]))
    path = tmp_path / "halfplane.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_capture(capsys, ["bmodel", "components", "--file", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: invalid fanifold: stratum '(cell,s0)' fan: cone 2 duplicates cone 1\n"


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


@pytest.mark.parametrize(
    "closed, error",
    [
        ("v1,nope", "error: unknown strata: ['nope']\n"),
        ("e1", "error: the chosen strata are not closed (missing deeper strata)\n"),
    ],
)
def test_ufunctor_and_restrict_refuse_a_bad_closed_set_alike(capsys, closed, error):
    for command in (["bmodel", "ufunctor"], ["mirror", "restrict"]):
        argv = command + ["--file", "necklace2.json", "--closed", closed]
        assert run_capture(capsys, argv) == (2, "", error)


def test_an_unknown_stratum_is_refused_in_one_line(capsys):
    """Every command that takes one ``--stratum`` reads it through
    ``Fanifold.stratum``, whose refusal is the one line."""
    for command in (
        ["fan", "props"],
        ["fan", "quotient", "--cone", "0"],
        ["fan", "resolve"],
        ["bmodel", "chart"],
    ):
        argv = command + ["--file", "square.json", "--stratum", "nope"]
        assert run_capture(capsys, argv) == (2, "", "error: unknown stratum 'nope'\n"), command
    argv = ["fan", "refines", "--file", "square.json", "--stratum", "(s2,s2),nope"]
    assert run_capture(capsys, argv) == (2, "", "error: unknown stratum 'nope'\n")


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


INVALID_FAN_DOC = {
    "format": "fanifold/1",
    "dimension": 2,
    "strata": [
        {
            "id": "a", "dim": 0, "interior": True, "lattice_rank": 2,
            # the cone on (1, 0), (1, 2) lies inside the quadrant, not as a
            # face, and is not smooth, so a resolution would subdivide it
            "fan": {"rays": [[1, 0], [0, 1], [1, 2]], "cones": [[], [0], [0, 1], [0, 2]]},
        }
    ],
    "arrows": [],
}


TWO_FANS_DOC = {
    "format": "fanifold/1",
    "dimension": 2,
    "strata": [
        {
            "id": name, "dim": 0, "interior": True, "lattice_rank": 2,
            "fan": {"rays": rays, "cones": cones},
        }
        for name, rays, cones in [
            ("a", [[1, 0], [0, 1], [1, 1]], [[], [0], [0, 1], [0, 2]]),
            ("b", [[1, 0], [0, 1]], [[], [0], [1], [0, 1]]),
        ]
    ],
    "arrows": [],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["fan", "quotient", "--stratum", "a", "--cone", "1"],
        ["fan", "refines", "--stratum", "a,a"],
        ["fan", "resolve", "--stratum", "a"],
    ],
)
def test_fan_commands_refuse_an_invalid_stratum_fan_in_one_line(tmp_path, capsys, argv):
    """A stratum fan that is no fan: each command that reads its
    containment table exits 2 with the fan's problem on one line, while
    ``fan props`` reports that problem and exits 0."""
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(INVALID_FAN_DOC), encoding="utf-8")
    problem = "cones 2 and 3 do not intersect in a common face"
    assert run_capture(capsys, argv + ["--file", str(path)]) == (
        2, "", f"error: invalid fan: {problem}\n"
    )
    code, out, err = run_capture(capsys, ["fan", "props", "--stratum", "a", "--file", str(path)])
    assert (code, err) == (0, "") and f"  problems: [{problem!r}]" in out.splitlines()


@pytest.mark.parametrize("strata", ["b,a", "a,b"])
def test_fan_refines_refuses_an_invalid_fan_on_either_side(tmp_path, capsys, strata):
    """Stratum a holds the quadrant and the cone on (1,0), (1,1) inside it,
    which is no fan; stratum b is the quadrant fan, listing only its own
    rays (a ray no cone holds is refused at load).  Read against a valid
    fan, a is refused with its problem on one line, in either order."""
    path = tmp_path / "two-fans.json"
    path.write_text(json.dumps(TWO_FANS_DOC), encoding="utf-8")
    assert run_capture(capsys, ["fan", "refines", "--stratum", strata, "--file", str(path)]) == (
        2, "", "error: invalid fan: cones 2 and 3 do not intersect in a common face\n"
    )


@pytest.mark.parametrize("cone", ["x", "0,x"])
def test_fan_quotient_names_a_bad_cone_index(capsys, cone):
    code, out, err = run_capture(
        capsys,
        ["fan", "quotient", "--file", "proj2.json", "--stratum", "s3", "--cone", cone],
    )
    assert (code, out) == (2, "")
    assert err == "error: --cone: 'x' is not a ray index\n"


def test_fan_quotient_refuses_rays_that_span_no_cone(capsys):
    """proj1's stratum s2 is the complete fan of the line: its two rays
    span no cone of it."""
    code, out, err = run_capture(
        capsys,
        ["fan", "quotient", "--file", "proj1.json", "--stratum", "s2", "--cone", "0,1"],
    )
    assert (code, out) == (2, "")
    assert err == "error: rays [0, 1] do not span a cone of the fan at 's2'\n"


@pytest.mark.parametrize(
    "file, stratum, cone, line",
    [("quadric_stacky.json", "s1", "0,1", "torsion: [2]"), ("proj2.json", "s3", "0", "torsion: none")],
)
def test_fan_quotient_text_names_its_torsion(capsys, file, stratum, cone, line):
    """The quadric cone spans an index-2 sublattice, so its quotient keeps a
    Z/2; a ray of proj2 leaves none."""
    code, out, _ = run_capture(
        capsys, ["fan", "quotient", "--file", file, "--stratum", stratum, "--cone", cone]
    )
    assert code == 0 and line in out.splitlines()


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


# -- reading a command line without argparse ----------------------------------

OPTION_KEYWORDS = {"required", "type", "choices", "default", "help"}


def parsed(parse, argv):
    """``vars`` of ``parse(argv)``, or the exit code it stops with."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as e:
        return e.code


def test_option_specs_use_only_keywords_the_reader_understands():
    """A new ``add_argument`` keyword fails here instead of being misread
    by ``cli._read``."""
    for cmd in COMMANDS:
        for flag, options in cli._COMMON_ARGS + cmd.args:
            assert flag.startswith("--"), (cmd.path, flag)
            assert set(options) <= OPTION_KEYWORDS, (cmd.path, flag, options)


def fuzz_argv(rng):
    """A command line near the table: a command path (now and then a
    group, an unknown word or nothing), then flags of this command or of
    another, abbreviated, ``-h``, ``--`` and ``=`` forms, with empty,
    negative, non-integer and out-of-choice values."""
    paths = [c.path for c in COMMANDS]
    every = sorted({flag for c in COMMANDS for flag, _ in cli._COMMON_ARGS + c.args})
    values = [
        "unigon.json", "", "3", "-1", "-3", "0", "x", "1.5", " 3", "٣", "json",
        "text", "xml", "(s0,s0)", "0,1", "-", "a=b", "--file",
    ]
    roll = rng.random()
    if roll < 0.85:
        argv = list(rng.choice(paths))
    elif roll < 0.9:
        argv = [rng.choice(paths)[0]]
    elif roll < 0.95:
        argv = [rng.choice(["no-such-command", "--file", "-h"])]
    else:
        argv = []
    cmd = next((c for c in COMMANDS if c.path == tuple(argv)), None)
    own = [flag for flag, _ in cli._COMMON_ARGS + (cmd or rng.choice(COMMANDS)).args]
    for _ in range(rng.randrange(6)):
        kind = rng.random()
        if kind < 0.7:
            flag = rng.choice(own)
        elif kind < 0.8:
            flag = rng.choice(every)
        elif kind < 0.9:
            flag = rng.choice(own)[: rng.randrange(3, 7)]
        else:
            flag = rng.choice(["-h", "--help", "--", "--he"])
        value = rng.choice(values)
        if flag == "--format" and rng.random() < 0.7:
            value = rng.choice(["json", "text"])
        if flag in ("--degree", "--resolution") and rng.random() < 0.7:
            value = str(rng.randrange(0, 40))
        if rng.random() < 0.3:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if rng.random() < 0.05:
        argv.append(rng.choice(own))  # a trailing flag with no value
    if cmd is not None and rng.random() < 0.7:
        # most command lines give every required flag first, so that
        # many of them are plain
        for flag, options in cli._COMMON_ARGS + cmd.args:
            if options.get("required"):
                argv[len(cmd.path):len(cmd.path)] = [flag, "1"]
    return argv


def test_the_reader_agrees_with_the_full_tree_on_fuzzed_command_lines():
    """Whenever ``cli._read`` returns a namespace, it is the full tree's."""
    rng = random.Random(23)
    parser = cli.build_parser()
    read = fell_back = 0
    for _ in range(10000):
        argv = fuzz_argv(rng)
        ns = cli._read(argv)
        if ns is None:
            fell_back += 1
            continue
        read += 1
        assert vars(ns) == parsed(parser.parse_args, argv), argv
    assert read > 2000 and fell_back > 2000, (read, fell_back)


@pytest.mark.parametrize(
    "argv",
    [
        ["bmodel", "census", "--file", "unigon.json", "--deg", "3"],
        ["fan", "quotient", "--file", "proj2.json", "--stratum", "s3", "--cone", "-1"],
        ["bmodel", "census", "--file", "unigon.json", "--degree=-1"],
        ["skeleton", "mesh", "--file", "3a1.json", "--resolution", "-3"],
        ["validate", "--file"],
        ["validate", "--file", "unigon.json", "--format", "xml"],
    ],
    ids=["abbreviated", "negative-cone", "negative-degree-eq", "negative-resolution",
         "trailing-file", "format-xml"],
)
def test_the_full_tree_reads_what_the_reader_leaves(argv):
    """Abbreviations, values starting with ``-``, a missing value and a
    value outside the choices are argparse's to read or refuse."""
    assert cli._read(argv) is None
    assert parsed(cli._parse, argv) == parsed(cli.build_parser().parse_args, argv)


def json_oracle_argvs(name: str) -> list[list[str]]:
    """Every command on one bundled example, with ``--format json``."""
    phi = files.load_fanifold(cli.resolve_input(f"{name}.json"))
    ids = [s.name for s in phi.strata]
    per_stratum = {
        ("bmodel", "chart"): lambda s: ["--stratum", s],
        ("fan", "quotient"): lambda s: ["--stratum", s, "--cone", ""],
        ("fan", "resolve"): lambda s: ["--stratum", s],
        ("fan", "refines"): lambda s: ["--stratum", f"{s},{s}"],
    }
    extra = {
        ("bmodel", "census"): ["--degree", "2"],
        ("bmodel", "ufunctor"): ["--closed", ",".join(ids)],
        ("mirror", "restrict"): ["--closed", ",".join(ids)],
    }
    argvs = []
    for cmd in COMMANDS:
        if cmd.path == ("skeleton", "mesh"):  # writes OBJ whatever the format
            continue
        tails = (
            [per_stratum[cmd.path](s) for s in ids]
            if cmd.path in per_stratum
            else [extra.get(cmd.path, [])]
        )
        argvs += [[*cmd.path, "--file", f"{name}.json", *t, "--format", "json"] for t in tails]
    return argvs


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_json_reports_are_the_standard_encoders_text(monkeypatch, capsys, name):
    """Every JSON report goes through the file writer, whose text is
    ``json.dumps(payload, indent=2)``'s on every command and example."""
    payloads = []
    writer = cli._json

    def spy(payload):
        payloads.append(payload)
        return writer(payload)

    monkeypatch.setattr(cli, "_json", spy)
    for argv in json_oracle_argvs(name):
        before = len(payloads)
        code, out, _ = run_capture(capsys, argv)
        if code == 0:
            assert len(payloads) == before + 1, argv
            assert out == json.dumps(payloads[-1], indent=2) + "\n", argv
        else:
            assert (code, out) == (2, ""), argv
    assert len(payloads) >= len(COMMANDS) - 1, name


def test_no_cli_op_keeps_its_fanifold_alive(monkeypatch):
    """Every op of the benchmark's cli-sweep workload (seed 1), with the
    cyclic collector off: each fanifold the op loads is freed by reference
    counting once ``run`` returns, so no table it holds (interned cones,
    their duals and quotients, star maps, chart sets) outlives the op."""
    import gc
    import weakref

    import fanifolds

    root = os.path.join(os.path.dirname(__file__), "..")
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import workloads

    ops = workloads.build_cli_sweep(fanifolds, 1, root)
    load, loaded = files.load_fanifold, []

    def tracked(path):
        phi = load(path)
        loaded.append(weakref.ref(phi))
        return phi

    monkeypatch.setattr(files, "load_fanifold", tracked)
    kept = []
    gc.collect()
    gc.disable()
    try:
        for op in ops:
            loaded.clear()
            code, _ = op.run()
            assert code == 0 and loaded, op.label
            if any(ref() is not None for ref in loaded):
                kept.append(op.label)
    finally:
        gc.enable()
    assert len(ops) == 335
    assert kept == [], f"{len(kept)} ops keep a fanifold alive, such as {kept[:3]}"
