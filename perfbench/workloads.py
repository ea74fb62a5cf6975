"""The benchmark's three workloads: seeded op lists and their output oracles.

A workload is built by ``build(name, pkg, seed, root)`` during set-up.  It
returns a list of ``Op``s.  ``Op.run`` is the only timed call; ``Op.check``
runs after the timer stops and returns ``None`` when the output is right or
a one-line reason when it is wrong.  The program under test sees only the
generated inputs: the seed stays here.

No op repeats inside one list, so a memo of repeated queries cannot gain.
Each list has a fixed composition, and the seed draws the choices inside
it (arguments, the order of degrees, lattice bases), so two seeds measure the same
amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "expected", "cli_digests.json")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# -- cli-sweep ----------------------------------------------------------------

# (subcommand, how its arguments are chosen).  ``fan props`` runs twice per
# example, once over all strata and once on a drawn stratum, because those
# two differ in cost twentyfold and a draw between them would make the work
# depend on the seed.
CELLS = (
    (("validate",), "none"),
    (("bmodel", "components"), "none"),
    (("bmodel", "chart"), "stratum"),
    (("bmodel", "census"), "degree"),
    (("bmodel", "ufunctor"), "closed"),
    (("skeleton", "report"), "none"),
    (("skeleton", "euler"), "none"),
    (("skeleton", "handles"), "none"),
    (("skeleton", "mesh"), "mesh"),
    (("mirror", "dict"), "none"),
    (("mirror", "restrict"), "closed"),
    (("fan", "props"), "none"),
    (("fan", "props"), "stratum"),
    (("fan", "quotient"), "cone"),
    (("fan", "resolve"), "stratum"),
    (("fan", "refines"), "pair"),
)
FORMATS = ("text", "json")


def bundled_examples(pkg) -> list[str]:
    data = os.path.join(os.path.dirname(pkg.__file__), "data")
    return sorted(f[: -len(".json")] for f in os.listdir(data) if f.endswith(".json"))


def arg_choices(phi, rule: str) -> list[list[str]]:
    """Every valid value of the arguments a cell draws from."""
    names = [s.name for s in phi.strata]
    if rule == "none":
        return [[]]
    if rule == "degree":
        return [["--degree", "3"]]
    if rule == "stratum":
        return [["--stratum", s] for s in names]
    if rule == "closed":
        # the closure of one stratum, among those of the median size: the
        # cost of a closed set grows with its size
        closed = sorted({tuple(sorted(phi.down_closure([s]))) for s in names})
        size = sorted(len(c) for c in closed)[len(closed) // 2]
        return [["--closed", ",".join(c)] for c in closed if len(c) == size]
    if rule == "cone":
        out = []
        for s in phi.strata:
            plain = s.plain_fan
            rays = list(plain.rays)
            for c in plain.cones:
                idx = sorted(rays.index(r) for r in c.extremal_rays)
                out.append(["--stratum", s.name, "--cone", ",".join(map(str, idx))])
        return out
    if rule == "pair":
        return [
            ["--stratum", f"{a.name},{b.name}"]
            for a in phi.strata
            for b in phi.strata
            if a.lattice_rank == b.lattice_rank
        ]
    if rule == "mesh":
        return [[]] if phi.dimension <= 2 else []
    raise ValueError(f"unknown argument rule {rule!r}")


def cli_argv(cmd, example: str, extra: list[str], fmt: str) -> list[str]:
    return [*cmd, "--file", f"{example}.json", *extra, "--format", fmt]


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_call(cli, argv: list[str]) -> tuple[int, str]:
    """``fanifolds.cli.run`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_catalog(pkg) -> list[tuple[str, tuple[str, ...], list[list[str]]]]:
    """(example, subcommand, valid argument choices) for every cell."""
    cells = []
    for ex in bundled_examples(pkg):
        phi = pkg.files.load_fanifold(pkg.cli.resolve_input(f"{ex}.json"))
        for cmd, rule in CELLS:
            choices = arg_choices(phi, rule)
            if choices:
                cells.append((ex, cmd, choices))
    return cells


def _validate_check(golden_path: str, fmt: str):
    with open(golden_path, encoding="utf-8") as fh:
        golden_text = fh.read()
    golden = json.loads(golden_text)

    def check(result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit {code}"
        if fmt == "json":
            return None if out == golden_text else "json report differs from golden"
        want = [
            f"dimension: {golden['dimension']}",
            f"strata: {golden['strata']}",
            f"arrows: {golden['arrows']}",
            f"is_poset: {str(golden['is_poset']).lower()}",
            f"coherent: {str(golden['coherent']).lower()}",
            f"valid: {str(golden['valid']).lower()}",
        ]
        want += [f"error: {e}" for e in golden["errors"]]
        return None if out == "\n".join(want) + "\n" else "text report differs from golden"

    return check


def _digest_check(expected: str | None):
    def check(result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit {code}"
        if expected is None:
            return "no expected digest recorded"
        return None if digest(out) == expected else "stdout digest differs"

    return check


def build_cli_sweep(pkg, seed: int, root: str) -> list[Op]:
    """Every subcommand on every bundled example, in a seeded order.

    The seed draws two of each cell's valid argument choices, or takes the
    only one, and an output format for each, so no query repeats: two ops
    of one cell differ in their arguments, not only in their format.  Then
    it shuffles all ops.
    """
    rng = random.Random(seed)
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    goldens = os.path.join(root, "tests", "goldens")
    ops = []
    for ex, cmd, choices in cli_catalog(pkg):
        for extra in rng.sample(choices, min(2, len(choices))):
            fmt = rng.choice(FORMATS)
            argv = cli_argv(cmd, ex, extra, fmt)
            if cmd == ("validate",):
                check = _validate_check(os.path.join(goldens, f"{ex}.validate.json"), fmt)
            else:
                check = _digest_check(expected.get(cli_key(argv)))
            ops.append(Op(cli_key(argv), lambda argv=argv: cli_call(pkg.cli, argv), check))
    rng.shuffle(ops)
    return ops


# -- census-ladder ------------------------------------------------------------

# Closed forms of dim H^0 in degree <= D, checked on the seed code for every
# degree used below.
CENSUS_FORMS: dict[str, Callable[[int], int]] = {
    "unigon": lambda d: d * d + d + 1,
    "3a1": lambda d: 3 * d + 1,
    "interval": lambda d: 2 * d + 1,
    "affine2": lambda d: (d + 1) ** 2,
    "quadric_stacky": lambda d: (d + 1) ** 2,
    "square": lambda d: (2 * d + 1) ** 2,
    "affine3": lambda d: (d + 1) ** 3,
    "proj2": lambda d: 1,
    "proj3": lambda d: 1,
    "necklace3": lambda d: 1,
}
# Rank-3 charts cost (2D+1)^3 box points each, so those two examples stop
# at D=12, where one op takes a few seconds: a run's total then rests on a
# dozen ops of comparable size, not on the one or two at D=16 that would
# take a third of it.  The others take every degree up to 16.
CENSUS_DEGREES: dict[str, tuple[int, ...]] = {
    name: tuple(range(1, 17)) for name in CENSUS_FORMS
}
CENSUS_DEGREES["affine3"] = tuple(range(1, 13))
CENSUS_DEGREES["proj3"] = tuple(range(1, 13))


def census_pairs() -> list[tuple[str, int]]:
    return [(n, d) for n in sorted(CENSUS_FORMS) for d in CENSUS_DEGREES[n]]


def build_census_ladder(pkg, seed: int, root: str) -> list[Op]:
    rng = random.Random(seed)
    phis = {
        n: pkg.files.load_fanifold(pkg.cli.resolve_input(f"{n}.json"))
        for n in sorted(CENSUS_FORMS)
    }
    bm = pkg.bmodel
    ops = []
    for name, d in census_pairs():
        phi, want = phis[name], CENSUS_FORMS[name](d)

        def check(census, want=want, d=d) -> str | None:
            if census.degree != d or census.dimension != want:
                return f"dimension {census.dimension}, expected {want}"
            return None

        ops.append(
            Op(
                f"{name} D={d}",
                lambda phi=phi, d=d: bm.limit_census(bm.full_diagram(phi), d),
                check,
            )
        )
    rng.shuffle(ops)
    return ops


# -- random-fans --------------------------------------------------------------

# (base fan, stellar subdivisions, stacky) -> ops of that shape in one run.
# The mix is fixed; the seed draws each op's lattice basis, subdivision
# points, stacky multiples and quotient cone.  Op cost comes in clusters
# (about 0.08 s with no subdivision of a rank-2 cone, 0.18 s with one, up to
# 2 s for rank 3); the counts put the median inside the one-subdivision
# cluster and the 90th percentile inside the proj2 one, not on an edge
# between clusters, where it would jump between them from run to run.
FAN_MIX = {
    ("orthant2", 0, False): 6, ("orthant2", 0, True): 5,
    ("quadric", 0, False): 6, ("quadric", 0, True): 5,
    ("orthant2", 1, False): 9, ("orthant2", 1, True): 8,
    ("quadric", 1, False): 9, ("quadric", 1, True): 8,
    ("proj2", 0, False): 3, ("proj2", 0, True): 3,
    ("orthant2", 2, False): 2, ("orthant2", 2, True): 1,
    ("quadric", 2, False): 2, ("quadric", 2, True): 2,
    ("proj2", 1, False): 4, ("proj2", 1, True): 3,
    ("proj2", 2, False): 1, ("proj2", 2, True): 1,
    ("orthant3", 0, False): 2,
    ("orthant3", 1, False): 1,
}


def _base_fan(ex, name: str):
    return {
        "orthant2": lambda: ex.orthant_fan(2),
        "orthant3": lambda: ex.orthant_fan(3),
        "proj2": lambda: ex.projective_fan(2),
        "quadric": ex.quadric_fan,
    }[name]()


def _unimodular(rng, n: int) -> list[list[int]]:
    """A small random matrix in GL(n, Z): signed permutation times shears."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = rng.choice((-1, 1))
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


@dataclass(frozen=True)
class FanInput:
    """One random-fans op: a base fan and what to do to it."""

    base: Any  # Fan, already moved to a random lattice basis
    points: tuple  # stellar subdivision points, applied in order
    multiples: tuple  # ((ray, multiple), ...) for a stacky fan, else ()
    cone_pick: int  # the quotient cone is cone_pick mod the cone count

    def key(self) -> tuple:
        return (tuple(sorted(c.gens for c in self.base.cones)), self.points, self.multiples)


def random_input(pkg, rng, shape) -> FanInput:
    name, subdivisions, stacky = shape
    base = _base_fan(pkg.examples, name)
    m = _unimodular(rng, base.rank)
    cones = [
        pkg.cones.Cone(
            [tuple(sum(r[j] * g[j] for j in range(base.rank)) for r in m) for g in c.gens],
            base.rank,
        )
        for c in base.cones
    ]
    base = pkg.fans.Fan(cones, base.rank)
    points = []
    if subdivisions:
        big = [c for c in cones if len(c.gens) >= 2]
        c = big[rng.randrange(len(big))]
        p = tuple(map(sum, zip(*c.gens)))
        points.append(p)
        # the second point lies inside the first one's cone, beside a ray
        if subdivisions == 2:
            g = c.gens[rng.randrange(len(c.gens))]
            points.append(tuple(a + b for a, b in zip(p, g)))
    multiples = ()
    if stacky:
        rays = {g for c in cones for g in c.gens}
        rays |= {pkg.lattice.primitivize(p) for p in points}
        multiples = tuple((r, rng.randint(1, 3)) for r in sorted(rays))
    return FanInput(base, tuple(points), multiples, rng.randrange(1 << 30))


@dataclass
class FanResult:
    fan: Any
    cone_index: int
    phi: Any
    report: Any
    section: Any
    section_report: Any
    quotient: Any
    resolved: Any
    refines: Any
    chi: int
    text: str
    text_again: str


def fan_op(pkg, spec: FanInput) -> FanResult:
    fan = spec.base
    for p in spec.points:
        fan = pkg.fans.stellar_subdivision(fan, p)
    full = pkg.fans.StackyFan(fan, dict(spec.multiples)) if spec.multiples else fan
    cone_index = spec.cone_pick % len(fan.cones)
    phi = pkg.fanifold.from_fan(full)
    report = phi.validate()
    section = pkg.fanifold.sphere_section(full)
    section_report = section.validate()
    quotient = pkg.fans.quotient_fan(fan, cone_index)
    resolved = pkg.fans.resolve_to_smooth(fan)
    ref = pkg.fans.refines(resolved.fan, fan)
    chi = pkg.skeleton.euler_characteristic_c(phi)
    text = pkg.files.dumps(phi)
    text_again = pkg.files.dumps(pkg.files.loads(text))
    return FanResult(
        fan, cone_index, phi, report, section, section_report, quotient, resolved,
        ref, chi, text, text_again,
    )


def chi_recount(pkg, phi) -> int:
    """chi_c from the raw strata: alternating count of full-rank sheets.

    A sheet count is the isotropy order read off one minimal in-arrow: the
    torsion of the stacky generators of that arrow's full-dimensional cone.
    """
    minimal = {s.name for s in phi.minimal_strata()}
    total = 0
    for st in phi.strata:
        if st.lattice_rank:
            continue
        sheets = 1
        for a in phi.arrows:
            if a.target != st.name or a.source not in minimal:
                continue
            src = phi.stratum(a.source)
            sigma = src.plain_fan.cones[a.cone_index]
            if sigma.dim != src.lattice_rank:
                continue
            if src.is_stacky:
                gens = [src.fan.stacky_generator(tuple(r)) for r in sigma.extremal_rays]
                sheets = math.prod(
                    pkg.lattice.quotient_with_torsion(src.lattice_rank, gens).torsion
                )
            break
        total += st.chi * sheets
    return total


def fan_check(pkg, r: FanResult) -> str | None:
    if not (r.report.valid and r.report.is_poset and r.report.coherent):
        return "from_fan result is not a valid coherent poset"
    if not (r.section_report.valid and r.section_report.coherent):
        return "sphere section is not valid and coherent"
    if r.section.dimension != r.fan.rank - 1:
        return "sphere section has the wrong dimension"
    sigma = r.fan.cones[r.cone_index]
    if r.cone_index not in r.quotient.star or r.quotient.fan.rank != r.fan.rank - sigma.dim:
        return "quotient fan has the wrong star or rank"
    if not r.resolved.fan.is_smooth or not r.refines.ok:
        return "resolution is not a smooth refinement"
    if r.chi != chi_recount(pkg, r.phi):
        return f"chi_c {r.chi} differs from the recount"
    if r.text != r.text_again:
        return "dumps -> loads -> dumps is not byte-identical"
    return None


def build_random_fans(pkg, seed: int, root: str) -> list[Op]:
    rng = random.Random(seed)
    seen: set[tuple] = set()
    ops = []
    for shape, count in FAN_MIX.items():
        for k in range(count):
            spec = random_input(pkg, rng, shape)
            while spec.key() in seen:
                spec = random_input(pkg, rng, shape)
            seen.add(spec.key())
            ops.append(
                Op(
                    f"{shape[0]} sub={shape[1]} stacky={shape[2]} #{k}",
                    lambda spec=spec: fan_op(pkg, spec),
                    lambda r: fan_check(pkg, r),
                )
            )
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "cli-sweep": build_cli_sweep,
    "census-ladder": build_census_ladder,
    "random-fans": build_random_fans,
}


def build(name: str, pkg, seed: int, root: str) -> list[Op]:
    return WORKLOADS[name](pkg, seed, root)
