"""Reading and writing exit diagrams in the ``fanifold/1`` JSON schema.

The document shape:

    {
      "format": "fanifold/1",
      "dimension": <int>,
      "strata": [
        {"id": ..., "dim": ..., "interior": ..., "chi_c": <optional int>,
         "lattice_rank": ...,
         "fan": {"rays": [[...], ...], "cones": [[ray indices], ...],
                 "stacky_beta": <optional matrix, one row per ray>}},
        ...
      ],
      "arrows": [
        {"from": ..., "to": ..., "cone": [ray indices in the source fan],
         "quotient_matrix": <integer matrix>},
        ...
      ]
    }

Cones are stored by the indices of their extremal rays, so only pointed
cones round-trip; the zero cone is the empty list.  Serialization is
deterministic: ``dumps`` writes the document in one pass, and
``fanifold_to_dict`` is the same document as a dict.  Loading re-validates
everything it can check locally (shapes, ids, ray references);
diagram-level coherence stays with ``Fanifold.validate``.  Fan entries of
one document with equal ``fans.fan_key`` load as one ``Fan``, and an
arrow's cone is matched to its fan entry by ray indices.

An arrow entry is checked in place, in one pass in schema order: type and
shape tests only, with the cone's dimension read off one Hermite pass
(``Cone.dim``).  Error text is built only when a check fails, and names
the entry's first fault.
"""

from __future__ import annotations

import json

from .cones import Cone, zero_cone
from .fanifold import Arrow, Fanifold, Stratum
from .fans import Fan, StackyFan, fan_key
from .lattice import LatticeMap, primitivize

FORMAT = "fanifold/1"


def _cone_indices(fan: Fan) -> list[list[int]]:
    """Each cone of ``fan`` as the sorted indices of its extremal rays in
    ``fan.rays``: the ``cones`` entry of a fan in the schema."""
    ray_index = {r: i for i, r in enumerate(fan.rays)}
    cones = []
    for c in fan.cones:
        if not c.is_strongly_convex:
            raise ValueError("cone is not recovered by its extremal rays")
        cones.append(sorted(ray_index[r] for r in c.extremal_rays))
    return cones


def _fan_to_dict(fan: Fan) -> dict:
    out = {"rays": [list(r) for r in fan.rays], "cones": _cone_indices(fan)}
    if isinstance(fan, StackyFan):
        out["stacky_beta"] = [
            list(fan.stacky_generator(r)) for r in fan.rays
        ]
    return out


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return value


def _require(entry: dict, keys: tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in entry]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


def _int(value, what: str) -> int:
    """A JSON integer only: no float, string or boolean (Python's ``bool``
    is an ``int``, so the type is compared exactly)."""
    if type(value) is not int:
        raise ValueError(f"{what}: {value!r} is not an integer")
    return value


def _int_rows(rows, what: str) -> list[tuple[int, ...]]:
    return [
        tuple(_int(x, what) for x in _list(r, what))
        for r in _list(rows, what)
    ]


def _ray_indices(idx, rays, what: str) -> list:
    for i in _list(idx, what):
        if type(i) is not int or not 0 <= i < len(rays):
            raise ValueError(f"{what} refers to missing ray {i!r}")
    return idx


def _cone(idx, rays, rank: int) -> Cone:
    """The cone on the rays at the given (checked) indices of the file's ray
    list; the empty list is the zero cone."""
    return Cone([rays[i] for i in idx], rank) if idx else zero_cone(rank)


def _fan_from_dict(
    d, rank: int, what: str
) -> tuple[Fan, list[tuple[int, ...]], dict[frozenset, int]]:
    """The fan, the file's ray list its cone indices refer to, and the
    position of the first cone entry on each set of ray indices."""
    d = _object(d, f"{what}: fan")
    rays = _int_rows(d.get("rays", []), f"{what}: fan rays")
    for r in rays:
        if len(r) != rank:
            raise ValueError(f"{what}: ray {r} does not have {rank} entries")
    entries = [
        _ray_indices(idx, rays, f"{what}: fan cone {n}")
        for n, idx in enumerate(_list(d.get("cones", []), f"{what}: fan cones"))
    ]
    first: dict[frozenset, int] = {}
    for n, idx in enumerate(entries):
        first.setdefault(frozenset(idx), n)
    fan = Fan([_cone(idx, rays, rank) for idx in entries], rank)
    beta = d.get("stacky_beta")
    if beta is None:
        return fan, rays, first
    beta = _int_rows(beta, f"{what}: stacky_beta")
    if len(beta) != len(rays):
        raise ValueError(f"{what}: stacky_beta needs one row per ray")
    multiples = {}
    for r, b in zip(rays, beta):
        if len(b) != rank:
            raise ValueError(
                f"{what}: stacky generator {b} does not have {rank} entries"
            )
        if not any(b):
            raise ValueError(f"{what}: stacky generator for ray {r} is zero")
        prim = tuple(primitivize(r))
        # positive multiple: b = k * primitive(r)
        k = None
        for x, px in zip(b, prim):
            if px != 0:
                k = x // px
                break
        if k is None or k <= 0 or tuple(px * k for px in prim) != b:
            raise ValueError(
                f"{what}: stacky generator {b} is not a positive multiple of {r}"
            )
        multiples[tuple(primitivize(r))] = k
    return StackyFan(fan, multiples), rays, first


def fanifold_to_dict(phi: Fanifold) -> dict:
    strata = []
    fans = {}  # stratum name -> its fan entry; the last one wins, as in by_name
    for st in phi.strata:
        fans[st.name] = fan = _fan_to_dict(st.fan)
        entry = {
            "id": st.name,
            "dim": st.dim,
            "interior": st.interior,
            "lattice_rank": st.lattice_rank,
            "fan": fan,
        }
        if st.chi_c is not None:
            entry["chi_c"] = st.chi_c
        strata.append(entry)
    arrows = [
        {
            "from": a.source,
            "to": a.target,
            "cone": list(fans[a.source]["cones"][a.cone_index]),
            "quotient_matrix": [list(row) for row in a.iso.matrix],
        }
        for a in phi.arrows
    ]
    return {
        "format": FORMAT,
        "dimension": phi.dimension,
        "strata": strata,
        "arrows": arrows,
    }


def _arrow(k: int, a, ends: dict[str, tuple]) -> Arrow:
    """Arrow entry ``k``, checked in schema order: an object with the four
    keys, string endpoints of known strata, a list of in-range ``int`` ray
    indices naming a cone of the source fan, then a list of ``int`` rows of
    shape ``t_rank x q_rank``.  Error text is built only in the branch that
    raises.  The ``LatticeMap`` is built from the checked rows, which
    imply ``lattice_map``'s rank and shape tests."""
    if not isinstance(a, dict):
        raise ValueError(f"arrow {k} must be a JSON object")
    try:
        src, tgt, ids, rows = a["from"], a["to"], a["cone"], a["quotient_matrix"]
    except KeyError:
        _require(a, ("from", "to", "cone", "quotient_matrix"), f"arrow {k}")
        raise
    if not (isinstance(src, str) and src in ends and isinstance(tgt, str) and tgt in ends):
        raise ValueError(f"arrow references unknown stratum: {a}")
    fan, rays, first = ends[src]
    if not isinstance(ids, list):
        raise ValueError(f"arrow {k}: cone must be a JSON list")
    n = len(rays)
    for i in ids:
        if type(i) is not int or not 0 <= i < n:
            raise ValueError(f"arrow {k}: cone refers to missing ray {i!r}")
    idx = first.get(frozenset(ids))
    if idx is None:
        # named through other rays than its fan entry: compare as cones
        idx = fan.cone_index(_cone(ids, rays, fan.rank))
        if idx is None:
            raise ValueError(f"arrow cone {ids} is not a cone of the fan at {src!r}")
    q_rank = fan.rank - fan.cones[idx].dim
    t_rank = ends[tgt][0].rank
    if not isinstance(rows, list):
        raise ValueError(f"arrow {k}: quotient_matrix must be a JSON list")
    shaped = len(rows) == t_rank
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"arrow {k}: quotient_matrix must be a JSON list")
        for x in row:
            if type(x) is not int:
                raise ValueError(f"arrow {k}: quotient_matrix: {x!r} is not an integer")
        shaped = shaped and len(row) == q_rank
    if not shaped:
        raise ValueError(
            f"quotient matrix of arrow {src!r} -> {tgt!r} must be {t_rank} x {q_rank}"
        )
    return Arrow(src, tgt, idx, LatticeMap(tuple(map(tuple, rows)), q_rank, t_rank))


def fanifold_from_dict(d: dict) -> Fanifold:
    d = _object(d, "the document")
    if d.get("format") != FORMAT:
        raise ValueError(f"unsupported format {d.get('format')!r}; need {FORMAT!r}")
    _require(d, ("dimension",), "the document")
    dimension = _int(d["dimension"], "dimension")
    strata = []
    # stratum name -> its fan, the file's ray list and first cone entries
    ends: dict[str, tuple] = {}
    # Equal fan entries load as one Fan, so its checks, containment table
    # and star quotients are computed once per file.
    fans: dict[tuple, Fan] = {}
    for k, s in enumerate(_list(d.get("strata", []), "strata")):
        s = _object(s, f"stratum {k}")
        _require(s, ("id", "dim", "lattice_rank"), f"stratum {k}")
        name = s["id"]
        if not isinstance(name, str):
            raise ValueError(f"stratum {k}: id {name!r} is not a string")
        if name in ends:
            raise ValueError(f"duplicate stratum id {name!r}")
        what = f"stratum {name!r}"
        rank = _int(s["lattice_rank"], f"{what}: lattice_rank")
        interior = s.get("interior", True)
        if type(interior) is not bool:
            raise ValueError(f"{what}: interior {interior!r} is not true or false")
        fan, rays, first = _fan_from_dict(s.get("fan", {}), rank, what)
        fan = fans.setdefault(fan_key(fan), fan)
        ends[name] = fan, rays, first
        strata.append(
            Stratum(
                name=name,
                dim=_int(s["dim"], f"{what}: dim"),
                fan=fan,
                interior=interior,
                chi_c=_int(s["chi_c"], f"{what}: chi_c") if "chi_c" in s else None,
            )
        )
    arrows = [
        _arrow(k, a, ends)
        for k, a in enumerate(_list(d.get("arrows", []), "arrows"))
    ]
    return Fanifold(dimension=dimension, strata=strata, arrows=arrows)


_encode_str = json.encoder.encode_basestring_ascii


def _row(row, indent: str) -> str:
    """A list of ints, ``indent`` deep, as ``json.dumps(indent=2)`` writes
    it: one join."""
    if not row:
        return "[]"
    sep = ",\n" + indent + "  "
    return "[" + sep[1:] + sep.join(map(str, row)) + "\n" + indent + "]"


def _items(items: list[str], indent: str) -> str:
    """A list of written values, ``indent`` deep."""
    if not items:
        return "[]"
    sep = ",\n" + indent + "  "
    return "[" + sep[1:] + sep.join(items) + "\n" + indent + "]"


def _members(fields: list[str], indent: str) -> str:
    """An object of written ``"key": value`` fields, ``indent`` deep."""
    sep = ",\n" + indent + "  "
    return "{" + sep[1:] + sep.join(fields) + "\n" + indent + "}"


def _rows(rows, indent: str) -> str:
    """A list of int rows."""
    inner = indent + "  "
    return _items([_row(r, inner) for r in rows], indent)


# the indents of a document's strata and arrows, of their keys, of a fan's keys
_ITEM, _KEY, _FAN_KEY = " " * 4, " " * 6, " " * 8


def _fan_text(fan: Fan) -> tuple[str, list[list[int]]]:
    """A stratum's written ``fan`` value and its cones as ray indices."""
    cones = _cone_indices(fan)
    fields = ['"rays": ' + _rows(fan.rays, _FAN_KEY), '"cones": ' + _rows(cones, _FAN_KEY)]
    if isinstance(fan, StackyFan):
        beta = [fan.stacky_generator(r) for r in fan.rays]
        fields.append('"stacky_beta": ' + _rows(beta, _FAN_KEY))
    return _members(fields, _KEY), cones


def dumps(phi: Fanifold) -> str:
    """The ``fanifold/1`` document of ``phi``: byte for byte what
    ``json.dumps(..., indent=2)`` writes of ``fanifold_to_dict``'s dict,
    and a newline.

    Written in one pass over the diagram in the schema's key order, with
    each integer row one join and each empty list ``[]``; a fan that
    several strata hold is written once.  As in the dict, an arrow names
    its cone by the ray indices of the last stratum entry with its
    source's name."""
    written: dict[Fan, tuple[str, list[list[int]]]] = {}  # fans hash by identity
    cones_of: dict[str, list[list[int]]] = {}
    strata = []
    for st in phi.strata:
        entry = written.get(st.fan)
        if entry is None:
            entry = written[st.fan] = _fan_text(st.fan)
        text, cones_of[st.name] = entry
        fields = [
            '"id": ' + _encode_str(st.name),
            '"dim": ' + str(st.dim),
            '"interior": ' + ("true" if st.interior else "false"),
            '"lattice_rank": ' + str(st.lattice_rank),
            '"fan": ' + text,
        ]
        if st.chi_c is not None:
            fields.append('"chi_c": ' + str(st.chi_c))
        strata.append(_members(fields, _ITEM))
    arrows = [
        _members([
            '"from": ' + _encode_str(a.source),
            '"to": ' + _encode_str(a.target),
            '"cone": ' + _row(cones_of[a.source][a.cone_index], _KEY),
            '"quotient_matrix": ' + _rows(a.iso.matrix, _KEY),
        ], _ITEM)
        for a in phi.arrows
    ]
    return _members([
        '"format": ' + _encode_str(FORMAT),
        '"dimension": ' + str(phi.dimension),
        '"strata": ' + _items(strata, "  "),
        '"arrows": ' + _items(arrows, "  "),
    ], "") + "\n"


def _indented(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` for the values a CLI report holds
    (dicts with string keys, lists, strings, ints, booleans and None),
    nested ``indent`` deep, without the pure-Python encoder's per-item
    dispatch, through the document writer's ``_row``, ``_items`` and
    ``_members``; a list of ints is one join."""
    if type(value) is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        return _members(
            [_encode_str(k) + ": " + _indented(v, inner) for k, v in value.items()], indent
        )
    if type(value) is list:
        if all(type(x) is int for x in value):
            return _row(value, indent)
        return _items([_indented(x, indent + "  ") for x in value], indent)
    if type(value) is str:
        return _encode_str(value)
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is int:
        return str(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot write {type(value).__name__} {value!r}")


def loads(text: str) -> Fanifold:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from e
    return fanifold_from_dict(d)


def save_fanifold(phi: Fanifold, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(phi))


def load_fanifold(path: str) -> Fanifold:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
