"""Record the expected CLI outputs that the cli-sweep oracle checks against.

Runs every subcommand on every bundled example with every valid argument
choice and both output formats, and writes the sha256 of each stdout to
``expected/cli_digests.json``.  It also checks the census closed forms on
every degree of the census-ladder.  Run it from the repository root, only on
a commit whose outputs are known good:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import os
import sys

from package import import_package
from workloads import (
    CENSUS_FORMS,
    DIGESTS,
    FORMATS,
    census_pairs,
    cli_argv,
    cli_call,
    cli_catalog,
    cli_key,
    digest,
)


def main() -> int:
    root = os.getcwd()
    pkg = import_package(root)
    digests = {}
    for ex, cmd, choices in cli_catalog(pkg):
        for extra in choices:
            for fmt in FORMATS:
                argv = cli_argv(cmd, ex, extra, fmt)
                code, out = cli_call(pkg.cli, argv)
                if code != 0:
                    print(f"exit {code}: {cli_key(argv)}", file=sys.stderr)
                    return 1
                digests[cli_key(argv)] = digest(out)
    phis = {}
    for name, d in census_pairs():
        if name not in phis:
            phis[name] = pkg.files.load_fanifold(pkg.cli.resolve_input(f"{name}.json"))
        got = pkg.bmodel.limit_census(pkg.bmodel.full_diagram(phis[name]), d).dimension
        if got != CENSUS_FORMS[name](d):
            print(f"census {name} D={d}: {got} breaks the closed form", file=sys.stderr)
            return 1
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(DIGESTS, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
