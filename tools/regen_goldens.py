#!/usr/bin/env python3
"""Regenerate the golden validation reports and diagram arrow orders for
the bundled examples.

Run from the repository root after an intentional change to the report
format or to the order of diagram arrows, then review the diff:

    python3 tools/regen_goldens.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fanifolds.bmodel import chart_diagram, full_diagram  # noqa: E402
from fanifolds.cli import resolve_input, run  # noqa: E402
from fanifolds.examples import EXAMPLES  # noqa: E402
from fanifolds.files import load_fanifold  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "goldens")


def main() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(EXAMPLES):
        path = os.path.join(GOLDEN_DIR, f"{name}.validate.json")
        code = run(
            ["validate", "--file", f"{name}.json", "--format", "json", "--out", path]
        )
        if code != 0:
            raise SystemExit(f"{name}: validate exited {code}")
        print("wrote", os.path.relpath(path))
    path = os.path.join(GOLDEN_DIR, "diagram_arrows.json")
    with open(path, "w") as fh:
        fh.write(arrow_orders_json())
    print("wrote", os.path.relpath(path))


def arrow_orders_json() -> str:
    """The (source, target, kind) arrows of ``full_diagram`` and of every
    ``chart_diagram`` of each bundled file, one diagram per line."""
    lines = []
    for name in sorted(EXAMPLES):
        phi = load_fanifold(resolve_input(f"{name}.json"))
        diagrams = [("full", full_diagram(phi))]
        diagrams += [(f"chart {s.name}", chart_diagram(phi, s.name)) for s in phi.strata]
        for label, d in diagrams:
            arrows = [[a.source, a.target, a.kind] for a in d.arrows]
            lines.append(json.dumps([name, label, arrows]))
    return "[\n" + ",\n".join(lines) + "\n]\n"


if __name__ == "__main__":
    main()
