"""Fixed-seed mutation fuzz over the bundled JSON files.

Each mutant is one small edit of a bundled document: a ray entry, a cone's
ray list, a stratum's fields, an arrow's ends, cone or matrix, the
dimension, or a value of the wrong type.  Every mutant must make the CLI
exit 0 or 2 with no traceback, ``bmodel components`` must exit 2 on every
mutant that ``validate`` exits 2 on, and every stratum fan of a mutant
whose strata load must validate exactly as the meet rule and the
containment rule do.  A second run
with its own seed sends each mutant through the other ten commands, and
each exit 2 there must print exactly one line on stderr; ``bmodel
ufunctor`` must exit 2 on every mutant that ``validate`` exits 2 on.  A
third run, with its own seed, edits one arrow and no fan (an iso negated,
or two arrows' targets swapped), so that many mutants reach the coherence
check; each report must equal the report of the same file with every
stratum fan checked on its own first, so that no fan is carried.  Every
loader refusal of a mutant of the three runs names the entry at fault.
"""

import contextlib
import copy
import io
import json
import os
import random
import re
import time

from fanifolds import files
from fanifolds.cli import run
from test_fans import meet_rule, problems_by_containment
from test_files import ARROW_FAULTS, NO_CONE_FAULT, NUMBER_FAULTS, _edited

SEED = 1203
MUTANTS = 400
DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fanifolds", "data")
COMMANDS = (
    ["validate"],
    ["bmodel", "census", "--degree", "1"],
    ["bmodel", "components"],
    ["skeleton", "report"],
    ["fan", "props"],
)
MORE_SEED = 1204
MORE_MUTANTS = 200
ARROW_SEED = 1205
ARROW_MUTANTS = 300


def _more_commands(sid):
    """The commands ``COMMANDS`` leaves out; ``sid`` is the stratum id the
    ones that take ``--stratum`` or ``--closed`` read."""
    return (
        ["bmodel", "chart", "--stratum", sid],
        ["bmodel", "ufunctor", "--closed", sid],
        ["skeleton", "euler"],
        ["skeleton", "handles"],
        ["skeleton", "mesh", "--resolution", "3"],
        ["mirror", "dict"],
        ["mirror", "restrict", "--closed", sid],
        ["fan", "quotient", "--stratum", sid, "--cone", "0"],
        ["fan", "resolve", "--stratum", sid],
        ["fan", "refines", "--stratum", f"{sid},{sid}"],
    )


def _documents():
    out = {}
    for name in sorted(os.listdir(DATA_DIR)):
        with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def _mutate(doc, rng):
    """One random edit of a copy of ``doc`` and a short label for it."""
    doc = copy.deepcopy(doc)
    strata, arrows = doc["strata"], doc["arrows"]
    # fan edits go to a stratum of the largest lattice rank, where a moved
    # ray can make two cones overlap; other edits to any stratum
    top = max(s["lattice_rank"] for s in strata)
    st = rng.choice(strata)
    fan = rng.choice([s for s in strata if s["lattice_rank"] == top])["fan"]
    kind = rng.choice((
        "ray entry", "ray moved", "ray negated", "cone ray dropped",
        "cone ray added", "cone ray swapped", "cone dropped",
        "cone duplicated", "stratum dim", "lattice rank",
        "arrow end", "arrow cone", "matrix entry", "arrow dropped",
        "arrow duplicated", "dimension", "wrong type",
    ))
    if kind == "ray entry" and fan["rays"]:
        r = rng.choice(fan["rays"])
        if r:
            r[rng.randrange(len(r))] += rng.choice((-2, -1, 1, 2))
    elif kind == "ray moved" and fan["rays"]:
        r = rng.choice(fan["rays"])
        r[:] = [rng.randint(-2, 2) for _ in r]
    elif kind == "ray negated" and fan["rays"]:
        r = rng.choice(fan["rays"])
        r[:] = [-x for x in r]
    elif kind == "cone ray dropped" and any(fan["cones"]):
        rng.choice([c for c in fan["cones"] if c]).pop()
    elif kind == "cone ray added" and fan["cones"] and fan["rays"]:
        rng.choice(fan["cones"]).append(rng.randrange(len(fan["rays"]) + 1))
    elif kind == "cone ray swapped" and any(fan["cones"]):
        c = rng.choice([c for c in fan["cones"] if c])
        c[rng.randrange(len(c))] = rng.randrange(len(fan["rays"]))
    elif kind == "cone dropped" and fan["cones"]:
        fan["cones"].pop(rng.randrange(len(fan["cones"])))
    elif kind == "cone duplicated" and fan["cones"]:
        fan["cones"].append(list(rng.choice(fan["cones"])))
    elif kind == "stratum dim":
        st["dim"] += rng.choice((-1, 1))
    elif kind == "lattice rank":
        st["lattice_rank"] += rng.choice((-1, 1))
    elif kind == "arrow end" and arrows:
        a = rng.choice(arrows)
        a[rng.choice(("from", "to"))] = rng.choice(strata)["id"]
    elif kind == "arrow cone" and arrows:
        a = rng.choice(arrows)
        a["cone"] = sorted(rng.sample(range(4), rng.randint(0, 2)))
    elif kind == "matrix entry" and any(a["quotient_matrix"] for a in arrows):
        m = rng.choice([a for a in arrows if a["quotient_matrix"]])["quotient_matrix"]
        row = rng.choice(m)
        if row:
            row[rng.randrange(len(row))] += rng.choice((-1, 1))
    elif kind == "arrow dropped" and arrows:
        arrows.pop(rng.randrange(len(arrows)))
    elif kind == "arrow duplicated" and arrows:
        arrows.append(copy.deepcopy(rng.choice(arrows)))
    elif kind == "dimension":
        doc["dimension"] += rng.choice((-1, 1))
    elif kind == "wrong type":
        target = rng.choice((doc, st, fan) + ((rng.choice(arrows),) if arrows else ()))
        key = rng.choice(sorted(target))
        target[key] = rng.choice((None, "x", 1.5, [], {}))
    return doc, kind


def run_fuzz(seed=SEED, mutants=MUTANTS, tmp_dir="."):
    """Exit codes seen per command, how many mutants' strata loaded, and
    how many of their fans the meet rule rejects."""
    rng = random.Random(seed)
    docs = _documents()
    names = sorted(docs)
    codes = {" ".join(cmd): {0: 0, 2: 0} for cmd in COMMANDS}
    loaded = invalid = 0
    for k in range(mutants):
        name = names[k % len(names)]
        doc, kind = _mutate(docs[name], rng)
        text = json.dumps(doc)
        path = os.path.join(tmp_dir, f"mutant{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        got = {}
        for cmd in COMMANDS:
            code = got[" ".join(cmd)] = run(cmd + ["--file", path])
            assert code in (0, 2), (name, kind, cmd, code)
            codes[" ".join(cmd)][code] += 1
        # components answers only on a valid fanifold
        if got["validate"] == 2:
            assert got["bmodel components"] == 2, (name, kind)
        # arrows name their cones by rays, so a moved ray often stops the
        # file loading; the strata alone load far more often
        try:
            phi = files.fanifold_from_dict(dict(doc, arrows=[]))
        except ValueError:
            continue
        loaded += 1
        for st in phi.strata:
            fan = st.plain_fan
            problems = fan.validate()
            assert problems == problems_by_containment(fan), (name, kind, st.name)
            if all(c.is_strongly_convex for c in fan.cones) and len(
                fan._first_index
            ) == len(fan.cones):
                assert problems == meet_rule(fan), (name, kind, st.name)
                invalid += bool(problems)
    return codes, loaded, invalid


def test_mutated_files_exit_0_or_2_under_budget(tmp_path, capsys):
    t0 = time.monotonic()
    codes, loaded, invalid = run_fuzz(tmp_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(c[0] and c[2] for c in codes.values()), codes
    # most bundled fans are orthants or rank <= 1, where an edit gives a
    # line or a duplicate before any pair can overlap
    assert loaded >= MUTANTS // 2 and invalid >= 5, (loaded, invalid)
    assert time.monotonic() - t0 < 60.0


def _first_stratum_id(doc):
    """The mutant's first stratum id, or "s0" when an edit took it away."""
    strata = doc.get("strata")
    first = strata[0] if isinstance(strata, list) and strata else None
    sid = first.get("id") if isinstance(first, dict) else None
    return sid if isinstance(sid, str) else "s0"


def run_more_fuzz(seed=MORE_SEED, mutants=MORE_MUTANTS, tmp_dir="."):
    """Exit codes seen per command (by its first two words) over the
    mutants; an exit 2 that prints other than one stderr line fails, and
    so does a ``bmodel ufunctor`` answer on a mutant ``validate`` rejects."""
    rng = random.Random(seed)
    docs = _documents()
    names = sorted(docs)
    codes = {}
    for k in range(mutants):
        name = names[k % len(names)]
        doc, kind = _mutate(docs[name], rng)
        path = os.path.join(tmp_dir, f"mutant{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            invalid = run(["validate", "--file", path]) == 2
        for cmd in _more_commands(_first_stratum_id(doc)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(cmd + ["--file", path])
            assert code in (0, 2), (name, kind, cmd, code, err.getvalue())
            lines = err.getvalue().splitlines()
            if code == 2:
                assert len(lines) == 1, (name, kind, cmd, lines)
            # ufunctor answers only on a valid fanifold
            if invalid and cmd[:2] == ["bmodel", "ufunctor"]:
                assert code == 2, (name, kind)
            assert "Traceback" not in err.getvalue(), (name, kind, cmd)
            seen = codes.setdefault(" ".join(cmd[:2]), {0: 0, 2: 0})
            seen[code] += 1
    return codes


def test_mutated_files_exit_0_or_2_in_one_line_on_every_other_command(tmp_path):
    t0 = time.monotonic()
    codes = run_more_fuzz(tmp_dir=str(tmp_path))
    assert len(codes) == 10
    assert all(c[0] and c[2] for c in codes.values()), codes
    assert time.monotonic() - t0 < 60.0


def _mutate_arrow(doc, rng):
    """One edit of one arrow of a copy of ``doc``, which keeps every fan:
    its iso negated, or its target swapped with another arrow's."""
    doc = copy.deepcopy(doc)
    arrows = doc["arrows"]
    kind = rng.choice(("iso negated", "targets swapped"))
    if kind == "iso negated" and any(a["quotient_matrix"] for a in arrows):
        a = rng.choice([a for a in arrows if a["quotient_matrix"]])
        a["quotient_matrix"] = [[-x for x in row] for row in a["quotient_matrix"]]
    elif kind == "targets swapped" and len(arrows) >= 2:
        a, b = rng.sample(arrows, 2)
        a["to"], b["to"] = b["to"], a["to"]
    return doc, kind


def run_arrow_fuzz(seed=ARROW_SEED, mutants=ARROW_MUTANTS):
    """How many mutants loaded, how many of those reached the coherence
    check (every error, if any, a coherence error), and how many failed
    it.  Each report must equal the one of a second load whose stratum
    fans are all checked before the diagram is, and each fan's containment
    table, carried or checked, must equal the second load's."""
    rng = random.Random(seed)
    docs = _documents()
    names = sorted(docs)
    loaded = reached = incoherent = 0
    for k in range(mutants):
        name = names[k % len(names)]
        doc, kind = _mutate_arrow(docs[name], rng)
        try:
            phi = files.fanifold_from_dict(doc)
        except ValueError:
            continue
        loaded += 1
        checked = files.fanifold_from_dict(doc)
        for st in checked.strata:
            st.plain_fan.validate()
        report = phi.validate()
        assert report == checked.validate(), (name, kind)
        for st, st_checked in zip(phi.strata, checked.strata):
            assert st.plain_fan._inside == st_checked.plain_fan._inside, (name, kind, st.name)
        if all(e.startswith("no coherent composite") for e in report.errors):
            reached += 1
            incoherent += not report.coherent
    return loaded, reached, incoherent


def test_arrow_mutants_validate_as_with_every_fan_checked_first():
    t0 = time.monotonic()
    loaded, reached, incoherent = run_arrow_fuzz()
    assert loaded >= ARROW_MUTANTS // 2, loaded
    assert reached >= 50 and incoherent >= 20, (reached, incoherent)
    assert time.monotonic() - t0 < 60.0


# what a loader refusal starts with: an arrow by index, a stratum by index
# or id, or a document-level key
NAMED_FAULT = re.compile(
    r"arrow \d+[ :]|stratum (\d+|'[^']*')[ :]|duplicate stratum id "
    r"|(unsupported format|the document|dimension|strata|arrows)\b"
)


def _refused_documents():
    """The mutants of the three runs above, replayed from their seeds, and
    the documents of the loader's message tables."""
    docs = _documents()
    names = sorted(docs)
    for seed, mutants, mutate in (
        (SEED, MUTANTS, _mutate),
        (MORE_SEED, MORE_MUTANTS, _mutate),
        (ARROW_SEED, ARROW_MUTANTS, _mutate_arrow),
    ):
        rng = random.Random(seed)
        for k in range(mutants):
            yield mutate(docs[names[k % len(names)]], rng)[0]
    for edits, _ in NUMBER_FAULTS + ARROW_FAULTS:
        yield _edited("square", edits)
    yield _edited("necklace2", NO_CONE_FAULT[0])


def test_every_loader_refusal_names_the_entry_at_fault():
    refused = 0
    for doc in _refused_documents():
        try:
            files.fanifold_from_dict(doc)
        except ValueError as e:
            refused += 1
            assert NAMED_FAULT.match(str(e)), str(e)
    assert refused >= 200, refused
