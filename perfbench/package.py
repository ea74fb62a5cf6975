"""Import the ``fanifolds`` package of a checkout, and time one cold set-up.

As a script it is one set-up repeat of a measured run, in a process of its
own, so the import it times is the process's first:

    python3 perfbench/package.py WORKLOAD SEED

It times importing ``fanifolds`` (before any module of the benchmark that
the package might share imports with) and then building the workload's
inputs, and prints both as one JSON object: scaled and wall seconds.
"""

from __future__ import annotations

import importlib
import os
import sys

import timing

LAYERS = (
    "files",
    "lattice",
    "cones",
    "fans",
    "fanifold",
    "bmodel",
    "skeleton",
    "mirror",
    "mesh",
    "cli",
)


class MissingSource(Exception):
    pass


def check_checkout(root: str) -> None:
    """Fail unless ``root`` holds the package's source and the golden reports."""
    init = os.path.join(root, "src", "fanifolds", "__init__.py")
    if not os.path.isfile(init):
        raise MissingSource(f"no fanifolds package at {init}")
    goldens = os.path.join(root, "tests", "goldens")
    if not os.path.isdir(goldens):
        raise MissingSource(f"no golden reports under {goldens}")


def import_package(root: str):
    """Import ``fanifolds`` afresh from ``<root>/src``, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fanifolds", "__init__.py")):
        raise MissingSource(f"no fanifolds package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "fanifolds" or m.startswith("fanifolds.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fanifolds")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(src, "fanifolds"):
        raise MissingSource(f"fanifolds was imported from {pkg.__file__}, not {src}")
    for layer in LAYERS + ("examples",):
        importlib.import_module(f"fanifolds.{layer}")
    return pkg


def cold_set_up(workload: str, seed: int, root: str) -> dict:
    pkg, import_scaled, import_wall = timing.timed_scaled(lambda: import_package(root))
    import workloads  # the benchmark's own imports stay outside the timers

    _, build_scaled, build_wall = timing.timed_scaled(lambda: workloads.build(workload, pkg, seed, root))
    return {"scaled": import_scaled + build_scaled, "wall": import_wall + build_wall}


if __name__ == "__main__":
    result = cold_set_up(sys.argv[1], int(sys.argv[2]), os.getcwd())
    import json

    print(json.dumps(result))
