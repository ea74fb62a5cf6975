#!/usr/bin/env python3
"""Record the CLI's help and usage-error output as goldens.

For every case below this writes ``<name>.out`` (stdout), ``<name>.err``
(stderr) and one index, ``cases.json``, of argv and exit code per case, under
``tests/goldens/cli/``.  ``tests/test_cli.py`` replays the index and compares
all three byte for byte.  The text is argparse's, so it is recorded at a
fixed width (``COLUMNS=80``).  Run from the repository root after an
intentional change to the command line, then review the diff:

    python3 tools/regen_cli_goldens.py
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fanifolds.cli import COMMANDS, run  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "goldens", "cli")


def cases() -> list[tuple[str, list[str]]]:
    """``--help`` at the top, at each group and at each command of the
    table, then help in other spellings and every kind of usage error."""
    levels: list[tuple[str, ...]] = [()]
    for cmd in COMMANDS:
        for level in (cmd.path[:1], cmd.path):
            if level not in levels:
                levels.append(level)
    out = [("-".join((*level, "help")), [*level, "--help"]) for level in levels]
    out += [
        ("short-help", ["bmodel", "census", "-h"]),
        ("abbreviated-help", ["validate", "--he"]),
        ("help-after-options", ["fan", "props", "--file", "square.json", "--help"]),
        ("error-no-command", []),
        ("error-unknown-command", ["no-such-command"]),
        ("error-unknown-leaf", ["bmodel", "no-such-leaf"]),
        ("error-group-without-leaf", ["bmodel"]),
        ("error-missing-file", ["validate"]),
        ("error-missing-option", ["bmodel", "census", "--file", "unigon.json"]),
        ("error-missing-stratum", ["fan", "resolve", "--file", "square.json"]),
        ("error-unrecognized-option", ["validate", "--file", "x", "--seed", "1"]),
        ("error-bad-format", ["validate", "--file", "unigon.json", "--format", "xml"]),
        ("error-bad-int", ["bmodel", "census", "--file", "unigon.json", "--degree", "x"]),
        ("error-option-before-command", ["--file", "unigon.json", "validate"]),
    ]
    return out


def main() -> None:
    os.environ["COLUMNS"] = "80"
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    index = []
    for name, argv in cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        for ext, text in ((".out", out.getvalue()), (".err", err.getvalue())):
            with open(os.path.join(GOLDEN_DIR, name + ext), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        index.append({"name": name, "argv": argv, "code": code})
    with open(os.path.join(GOLDEN_DIR, "cases.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(index, indent=2) + "\n")
    print(f"wrote {len(index)} cases to {os.path.relpath(GOLDEN_DIR)}")


if __name__ == "__main__":
    main()
