"""Command-line front end.

Subcommands::

    validate                      structural report for a fanifold file
    bmodel components             irreducible pieces of the glued toric space
    bmodel chart --stratum S      chart diagram of one stratum closure
    bmodel census --degree D      dimension of the bounded-degree section space
    bmodel ufunctor --closed ..   section functor marked on a closed set
    skeleton report               skeleton strata, incidences, checks
    skeleton euler                compactly-supported Euler characteristic
    skeleton handles              Weinstein-style handle plan
    skeleton mesh [--resolution N]  schematic OBJ export
    mirror dict                   chart-side / skeleton-side dictionary
    mirror restrict --closed ..   matched restriction pair
    fan props [--stratum S]       fan predicates per stratum
    fan quotient --stratum S --cone i,j   star quotient by a cone
    fan resolve --stratum S       stellar resolution to a smooth refinement
    fan refines --stratum FINE,COARSE     refinement check between two strata

Every one is a row of ``COMMANDS``.  A plain command line (a command path,
then ``--flag value`` or ``--flag=value`` pairs with the row's exact flags,
valid values, every required flag) is read straight off the row, with no
parser built and no ``argparse`` imported.  Any other line (help, ``--``,
an abbreviated or unknown flag, a value starting with ``-``, a missing or
invalid value) goes to the argparse tree ``build_parser`` builds from the
same table, so every help text and usage error is argparse's.

Files are looked up literally first, then, for a bare name with no
directory part, among the bundled examples, so ``--file unigon.json`` works
from anywhere; any other missing path is an error.  Exit codes: 0 success,
1 for usage errors, 2 when the input fails validation, a computation rejects
it or it needs more memory than is available.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import files
from .bmodel import (
    chart_diagram,
    components,
    full_diagram,
    limit_census,
    u_functor,
)
from .cones import Cone, zero_cone
from .fanifold import Fanifold, Stratum
from .fans import quotient_fan, refines, resolve_to_smooth
from .mesh import export_mesh
from .mirror import mirror_dictionary, restriction_pairs
from .skeleton import euler_characteristic_c, handle_plan, skeleton_model

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def resolve_input(name: str) -> str:
    """Literal path if it exists, else, for a bare name with no directory
    part, a bundled example file."""
    if os.path.exists(name):
        return name
    if not os.path.dirname(name):
        for cand in (name, name + ".json"):
            path = os.path.join(_DATA_DIR, cand)
            if os.path.isfile(path):
                return path
    raise ValueError(f"cannot find fanifold file {name!r}")


def _load(args) -> Fanifold:
    return files.load_fanifold(resolve_input(args.file))


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` plus a newline, by the file writer."""
    return files._indented(payload, "") + "\n"


def _render(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        _emit(args, _json(payload))
    else:
        _emit(args, "\n".join(text_lines) + "\n")


def _split_ids(raw: str) -> list[str]:
    """Split a comma-separated id list, ignoring commas inside parentheses.

    Product strata are named like ``(s0,s2)``, so ``--closed`` values cannot
    be split blindly on every comma.
    """
    pieces, depth, cur = [], 0, []
    for ch in raw:
        if ch == "," and depth == 0:
            pieces.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        cur.append(ch)
    pieces.append("".join(cur))
    return [p for p in (piece.strip() for piece in pieces) if p]


# -- subcommands -------------------------------------------------------------


def cmd_validate(args) -> int:
    phi = _load(args)
    report = phi.validate()
    payload = {
        "format": files.FORMAT,
        "dimension": phi.dimension,
        "strata": len(phi.strata),
        "arrows": len(phi.arrows),
        "is_poset": report.is_poset,
        "coherent": report.coherent,
        "valid": report.valid,
        "errors": list(report.errors),
    }
    lines = [
        f"dimension: {phi.dimension}",
        f"strata: {len(phi.strata)}",
        f"arrows: {len(phi.arrows)}",
        f"is_poset: {str(report.is_poset).lower()}",
        f"coherent: {str(report.coherent).lower()}",
        f"valid: {str(report.valid).lower()}",
    ]
    lines.extend(f"error: {e}" for e in report.errors)
    _render(args, payload, lines)
    return 0 if report.valid else 2


def cmd_bmodel_components(args) -> int:
    phi = _load(args)
    comps = components(phi)
    payload = {
        "components": [
            {
                "stratum": c.stratum,
                "toric_dim": c.toric_dim,
                "complete": c.complete,
                "stacky": c.stacky,
            }
            for c in comps
        ]
    }
    lines = [f"components: {len(comps)}"]
    for c in comps:
        flags = []
        if c.complete:
            flags.append("complete")
        if c.stacky:
            flags.append("stacky")
        tail = f" ({', '.join(flags)})" if flags else ""
        lines.append(f"  {c.stratum}: toric dimension {c.toric_dim}{tail}")
    _render(args, payload, lines)
    return 0


def cmd_bmodel_chart(args) -> int:
    phi = _load(args)
    diagram = chart_diagram(phi, args.stratum)
    objs = [
        {"stratum": o.stratum, "cone": o.cone_index, "rank": diagram.object_rank(i)}
        for i, o in enumerate(diagram.objects)
    ]
    arrows = []
    for a in diagram.arrows:
        entry = {"source": a.source, "target": a.target, "kind": a.kind}
        if a.arrow is not None:
            entry["cone_dim"] = diagram.fanifold.arrow_cone(a.arrow).dim
        arrows.append(entry)
    payload = {
        "stratum": args.stratum,
        "objects": objs,
        "arrows": arrows,
        "warnings": list(diagram.warnings),
    }
    lines = [
        f"stratum: {args.stratum}",
        f"charts: {len(objs)}",
        f"maps: {len(arrows)}",
    ]
    for o in objs:
        lines.append(f"  chart {o['stratum']}[cone {o['cone']}], rank {o['rank']}")
    lines.extend(f"warning: {w}" for w in diagram.warnings)
    _render(args, payload, lines)
    return 0


def cmd_bmodel_census(args) -> int:
    phi = _load(args)
    census = limit_census(full_diagram(phi), args.degree)
    lines = [
        f"degree: {census.degree}",
        f"dimension: {census.dimension}",
        f"charts: {census.object_count}",
        f"maps: {census.arrow_count}",
    ]
    lines.extend(f"warning: {w}" for w in census.warnings)
    payload = {}
    if args.format == "json":  # only the JSON report lists the supports
        payload = {
            "degree": census.degree,
            "dimension": census.dimension,
            "objects": census.object_count,
            "arrows": census.arrow_count,
            "supports": [
                {"stratum": o.stratum, "cone": o.cone_index, "size": n}
                for o, n in sorted(
                    census.support_sizes.items(),
                    key=lambda kv: (kv[0].stratum, kv[0].cone_index),
                )
            ],
            "warnings": list(census.warnings),
        }
    _render(args, payload, lines)
    return 0


def cmd_bmodel_ufunctor(args) -> int:
    phi = _load(args)
    closed = _split_ids(args.closed)
    desc = u_functor(phi, closed)
    marked = [
        {"stratum": desc.diagram.objects[i].stratum, "cone": desc.diagram.objects[i].cone_index}
        for i in desc.marked
    ]
    payload = {
        "closed": list(desc.closed),
        "open": list(desc.open_strata),
        "charts": len(desc.diagram.objects),
        "marked": marked,
    }
    lines = [
        f"closed strata: {', '.join(desc.closed) if desc.closed else '(none)'}",
        f"open strata: {', '.join(desc.open_strata) if desc.open_strata else '(none)'}",
        f"charts: {len(desc.diagram.objects)}",
        f"marked charts: {len(marked)}",
    ]
    for m in marked:
        lines.append(f"  {m['stratum']}[cone {m['cone']}]")
    _render(args, payload, lines)
    return 0


def cmd_skeleton_report(args) -> int:
    phi = _load(args)
    model = skeleton_model(phi)
    strata = [
        {
            "base": s.base,
            "cone": s.cone_index,
            "base_dim": s.base_dim,
            "cone_dim": s.cone_dim,
            "torus_rank": s.torus_rank,
            "group_order": s.group_order,
            "interior": s.interior,
        }
        for s in model.strata
    ]
    payload = {
        "dimension": phi.dimension,
        "strata": strata,
        "incidences": len(model.incidences),
        "half_dimensional": model.dimension_check(),
        "fibers_assemble": model.assembly_check(),
        "warnings": [],  # always empty: kept so recorded reports stay byte-identical
    }
    lines = [
        f"dimension: {phi.dimension}",
        f"strata: {len(strata)}",
        f"incidences: {len(model.incidences)}",
        f"half_dimensional: {str(model.dimension_check()).lower()}",
        f"fibers_assemble: {str(model.assembly_check()).lower()}",
    ]
    for s in model.strata:
        tags = []
        if s.group_order != 1:
            tags.append(f"group order {s.group_order}")
        if not s.interior:
            tags.append("boundary")
        tail = f" ({', '.join(tags)})" if tags else ""
        lines.append(
            f"  {s.ident}: base {s.base_dim}, torus {s.torus_rank}, cone {s.cone_dim}{tail}"
        )
    _render(args, payload, lines)
    return 0


def cmd_skeleton_euler(args) -> int:
    phi = _load(args)
    chi = euler_characteristic_c(phi)
    _render(args, {"chi_c": chi}, [f"chi_c: {chi}"])
    return 0


def cmd_skeleton_handles(args) -> int:
    phi = _load(args)
    plan = handle_plan(phi)
    payload = {
        "handles": [
            {
                "index": h.index,
                "stratum": h.stratum,
                "label": h.label,
                "attaching": list(h.attaching),
                "attaching_label": h.attaching_label,
                "trivial": h.trivial,
            }
            for h in plan.handles
        ],
        "counts_by_index": {str(k): v for k, v in sorted(plan.counts_by_index().items())},
    }
    lines = [f"handles: {len(plan.handles)}"]
    for k, v in sorted(plan.counts_by_index().items()):
        lines.append(f"  index {k}: {v}")
    for h in plan.handles:
        tail = " (trivial)" if h.trivial else ""
        lines.append(f"  [{h.index}] {h.stratum}: {h.label}{tail}")
        if h.attaching:
            lines.append(f"      attaches along {h.attaching_label} to {', '.join(h.attaching)}")
    _render(args, payload, lines)
    return 0


def cmd_skeleton_mesh(args) -> int:
    phi = _load(args)
    model = skeleton_model(phi)
    obj = export_mesh(model, resolution=args.resolution)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(obj)
        groups = sum(1 for line in obj.splitlines() if line.startswith("g "))
        sys.stdout.write(f"wrote {args.out} ({groups} groups)\n")
    else:
        sys.stdout.write(obj)
    return 0


def cmd_mirror_dict(args) -> int:
    phi = _load(args)
    md = mirror_dictionary(phi)
    if args.format == "json":
        _emit(args, _json(md.to_json_dict()))
    else:
        _emit(args, md.to_text() + "\n")
    return 0


def cmd_mirror_restrict(args) -> int:
    phi = _load(args)
    pair = restriction_pairs(phi, _split_ids(args.closed))
    if args.format == "json":
        _emit(args, _json(pair.to_json_dict()))
    else:
        _emit(args, pair.to_text() + "\n")
    return 0


def _fan_props(st: Stratum) -> dict:
    out = st.plain_fan.properties()
    out["stacky"] = st.is_stacky
    if out["stacky"]:
        fan = st.fan
        out["smooth"] = fan.is_smooth
        out["component_groups"] = [
            {"cone": i, "invariants": list(g)}
            for i, g in enumerate(map(fan.component_group, fan.cones))
            if g
        ]
    return out


def cmd_fan_props(args) -> int:
    phi = _load(args)
    names = [args.stratum] if args.stratum else [s.name for s in phi.strata]
    payload = {"strata": {}}
    lines = []
    for name in names:
        props = _fan_props(phi.stratum(name))
        payload["strata"][name] = props
        lines.append(f"{name}:")
        for k in sorted(props):
            v = props[k]
            if isinstance(v, bool):
                v = str(v).lower()
            lines.append(f"  {k}: {v}")
    _render(args, payload, lines)
    return 0


def cmd_fan_quotient(args) -> int:
    phi = _load(args)
    st = phi.stratum(args.stratum)
    fan = st.plain_fan
    ray_idx = []
    for p in _split_ids(args.cone):
        try:
            ray_idx.append(int(p))
        except ValueError:
            raise ValueError(f"--cone: {p!r} is not a ray index") from None
    for i in ray_idx:
        if not 0 <= i < len(fan.rays):
            raise ValueError(f"no ray {i} in the fan at {args.stratum!r}")
    cone = (
        Cone([fan.rays[i] for i in ray_idx], fan.rank)
        if ray_idx
        else zero_cone(fan.rank)
    )
    k = fan.cone_index(cone)
    if k is None:
        raise ValueError(
            f"rays {ray_idx} do not span a cone of the fan at {args.stratum!r}"
        )
    fq = quotient_fan(st.fan, k)
    payload = {
        "stratum": args.stratum,
        "cone": sorted(ray_idx),
        "quotient_rank": fq.fan.rank,
        "projection": [list(r) for r in fq.projection.matrix],
        "section": [list(r) for r in fq.section.matrix],
        "torsion": list(fq.torsion),
        "star": list(fq.star),
        "fan": files._fan_to_dict(fq.fan),
        "warnings": [],  # always empty: kept so recorded reports stay byte-identical
    }
    lines = [
        f"stratum: {args.stratum}",
        f"cone rays: {sorted(ray_idx)}",
        f"quotient rank: {fq.fan.rank}",
        f"quotient cones: {len(fq.fan.cones)}",
        f"torsion: {list(fq.torsion) if fq.torsion else 'none'}",
    ]
    _render(args, payload, lines)
    return 0


def cmd_fan_resolve(args) -> int:
    phi = _load(args)
    fan = phi.stratum(args.stratum).plain_fan
    result = resolve_to_smooth(fan)
    check = refines(result.fan, fan)
    payload = {
        "stratum": args.stratum,
        "steps": [list(v) for v in result.steps],
        "added_rays": [list(v) for v in result.added_rays],
        "smooth": result.fan.is_smooth,
        "refines_original": check.ok,
        "fan": files._fan_to_dict(result.fan),
    }
    lines = [
        f"stratum: {args.stratum}",
        f"subdivision steps: {len(result.steps)}",
        f"added rays: {[list(v) for v in result.added_rays]}",
        f"smooth: {str(result.fan.is_smooth).lower()}",
        f"refines original: {str(check.ok).lower()}",
    ]
    _render(args, payload, lines)
    return 0


def cmd_fan_refines(args) -> int:
    phi = _load(args)
    names = _split_ids(args.stratum or "")
    if len(names) != 2:
        raise ValueError("fan refines needs --stratum FINE,COARSE (two stratum ids)")
    fine, coarse = (phi.stratum(name).plain_fan for name in names)
    result = refines(fine, coarse)
    payload = {
        "fine": names[0],
        "coarse": names[1],
        "ok": result.ok,
        "problems": list(result.problems),
    }
    lines = [
        f"fine: {names[0]}",
        f"coarse: {names[1]}",
        f"refines: {str(result.ok).lower()}",
    ]
    lines.extend(f"problem: {p}" for p in result.problems)
    _render(args, payload, lines)
    return 0


# -- command table -----------------------------------------------------------


class Command(NamedTuple):
    """One row of the command table."""

    path: tuple[str, ...]
    handler: str  # name of the ``cmd_*`` function, looked up when it runs
    # (flag, ``add_argument`` keywords) beyond ``_COMMON_ARGS``; ``_read``
    # understands only required, type, choices, default and help
    args: tuple = ()
    help: str | None = None  # listed in the parent's help only when given


_COMMON_ARGS = (
    ("--file", {"required": True, "help": "fanifold file (path or bundled name)"}),
    ("--format", {"choices": ("json", "text"), "default": "text"}),
    ("--out", {"help": "write the report here instead of stdout"}),
)

_GROUP_HELP = {
    "bmodel": "glued toric space computations",
    "skeleton": "conic Lagrangian skeleton computations",
    "mirror": "matched chart-side / skeleton-side views",
    "fan": "fan-level queries on one stratum",
}

_CLOSED = ("--closed", {"required": True, "help": "comma-separated closed stratum ids"})

COMMANDS = (
    Command(("validate",), "cmd_validate", help="structural validation report"),
    Command(("bmodel", "components"), "cmd_bmodel_components"),
    Command(
        ("bmodel", "chart"), "cmd_bmodel_chart",
        (("--stratum", {"required": True, "help": "stratum id whose closure to chart"}),),
    ),
    Command(
        ("bmodel", "census"), "cmd_bmodel_census",
        (("--degree", {"type": int, "required": True, "help": "degree bound D"}),),
    ),
    Command(("bmodel", "ufunctor"), "cmd_bmodel_ufunctor", (_CLOSED,)),
    Command(("skeleton", "report"), "cmd_skeleton_report"),
    Command(("skeleton", "euler"), "cmd_skeleton_euler"),
    Command(("skeleton", "handles"), "cmd_skeleton_handles"),
    Command(
        ("skeleton", "mesh"), "cmd_skeleton_mesh",
        (("--resolution", {"type": int, "default": 16, "help": "segments per full circle"}),),
    ),
    Command(("mirror", "dict"), "cmd_mirror_dict"),
    Command(("mirror", "restrict"), "cmd_mirror_restrict", (_CLOSED,)),
    Command(
        ("fan", "props"), "cmd_fan_props",
        (("--stratum", {"help": "stratum id (default: all strata)"}),),
    ),
    Command(
        ("fan", "quotient"), "cmd_fan_quotient",
        (
            ("--stratum", {"required": True}),
            ("--cone", {"required": True, "help": "comma-separated ray indices ('' = zero cone)"}),
        ),
    ),
    Command(("fan", "resolve"), "cmd_fan_resolve", (("--stratum", {"required": True}),)),
    Command(
        ("fan", "refines"), "cmd_fan_refines",
        (("--stratum", {"required": True, "help": "FINE,COARSE stratum ids"}),),
    ),
)

# -- reading a command line ---------------------------------------------------


def build_parser():
    """The argparse tree of every command in ``COMMANDS``: it prints every
    help and usage text, and reads every command line ``_read`` leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fanifolds", description="Exact toolkit for fanifold exit diagrams."
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for cmd in COMMANDS:
        *group, leaf = cmd.path
        sub = top
        for name in group:
            if name not in groups:
                groups[name] = top.add_parser(name, help=_GROUP_HELP[name]).add_subparsers(
                    dest="subcommand", required=True
                )
            sub = groups[name]
        p = sub.add_parser(leaf, **({} if cmd.help is None else {"help": cmd.help}))
        for flag, options in _COMMON_ARGS + cmd.args:
            p.add_argument(flag, **options)
        p.set_defaults(handler=cmd.handler)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser()`` would give for a plain command line,
    or None for any other.

    Plain means: a command path of ``COMMANDS``, then ``--flag value`` or
    ``--flag=value`` pairs with the row's exact flags, where no value starts
    with ``-``, every value converts and is among its choices, and every
    required flag is given.  Whatever argparse would abbreviate, show help
    for or refuse is left to it.
    """
    cmd = next((c for c in COMMANDS if tuple(argv[: len(c.path)]) == c.path), None)
    if cmd is None:
        return None
    specs = dict(_COMMON_ARGS + cmd.args)
    given = {}
    words = iter(argv[len(cmd.path):])
    for word in words:
        flag, eq, value = word.partition("=")
        spec = specs.get(flag)
        if spec is None:
            return None
        if not eq:
            value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    ns = SimpleNamespace(command=cmd.path[0])
    if len(cmd.path) > 1:
        ns.subcommand = cmd.path[1]
    for flag, spec in specs.items():
        if flag not in given and spec.get("required"):
            return None
        setattr(ns, flag[2:], given.get(flag, spec.get("default")))
    ns.handler = cmd.handler
    return ns


def _parse(argv: list[str]):
    """Read a plain command line off ``COMMANDS``; hand any other to the
    full argparse tree, which prints its help or usage error."""
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return globals()[args.handler](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input needs more than is available",
              file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
