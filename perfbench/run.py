"""fanifolds benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root.  It imports ``fanifolds`` from ``src/`` of the
checkout it runs in, builds the workload's ops from the seed, runs them in a
closed loop from one client, checks every output and prints one JSON object
as the last line of stdout.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import timing
import tracing
import workloads
from package import LAYERS, MissingSource, check_checkout, import_package

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# a measured run's ops are cut, and the run fails, when they take longer
# than this many times ``--seconds``, or longer than OPS_LIMIT_S
LIMIT_FACTOR = 3
OPS_LIMIT_S = 150
# a traced run's three passes together stay under this
TRACE_BUDGET_S = 170


# -- one measured run ---------------------------------------------------------


def set_up(workload: str, seed: int, root: str):
    """Time ``SETUP_REPEATS`` cold set-ups, then set up in this process.

    Each timed set-up is a fresh process (``package.py``) whose first import
    is ``fanifolds``.  Returns the package, the ops, and the median set-up
    time scaled to the reference speed and in wall seconds.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "package.py"), workload, str(seed)],
            cwd=root, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr[-2000:]}")
        timed = json.loads(proc.stdout.strip().splitlines()[-1])
        scaled.append(timed["scaled"])
        wall.append(timed["wall"])
    pkg = import_package(root)
    return pkg, workloads.build(workload, pkg, seed, root), statistics.median(scaled), statistics.median(wall)


class Pass:
    """What one pass over the ops measured."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # wall seconds of every attempted op
        self.samples: list[list[float]] = []  # calibration bursts around them
        self.failures: list[str] = []

    @property
    def scaled(self) -> list[float]:
        return timing.scale(self.latencies, self.samples)


def freeze_harness() -> None:
    """Move everything alive after set-up out of the collector's view.

    The package, the op list and the expected outputs would otherwise be
    rescanned by every full collection inside an op, at a cost a process
    holding only that op's data does not pay, and which depends on the ops
    that ran before it.
    """
    gc.collect()
    gc.freeze()


def run_ops(ops, limit_s: float | None, run_op=None) -> Pass:
    """Closed loop, one client: the next op starts when the last one ends.

    Runs the whole list.  An op's output is checked and dropped after its
    timer stops.  A run still going after ``limit_s`` seconds is cut
    and counts as failed: a safety limit, never a way to end a run early.
    A calibration burst is taken before every op and after the last;
    output checks run outside the op's timer.
    """
    result = Pass()
    start = perf_counter()
    for i, op in enumerate(ops):
        if limit_s is not None and perf_counter() - start >= limit_s:
            result.failures.append(f"incomplete: cut after {i} of {len(ops)} ops at the {limit_s:g} s limit")
            break
        result.samples.append(timing.calibration_burst(result.latencies[-1] if result.latencies else 0.0))
        t0 = perf_counter()
        try:
            out = run_op(op.label, op.run) if run_op else op.run()
        except Exception as e:  # an op that raises is a failed op, not a crash
            result.latencies.append(perf_counter() - t0)
            result.failures.append(f"{op.label}: {type(e).__name__}: {e}")
            continue
        result.latencies.append(perf_counter() - t0)
        try:
            reason = op.check(out)
        except Exception as e:  # a check that raises counts against the op
            reason = f"check raised {type(e).__name__}: {e}"
        if reason is not None:
            result.failures.append(f"{op.label}: {reason}")
        del out  # freeing a large output is not charged to the next op
    result.samples.append(timing.calibration_burst(result.latencies[-1] if result.latencies else 0.0))
    return result


def latency_metrics(latencies: list[float], failed: int) -> dict[str, float]:
    done = len(latencies) - failed
    return {
        "ops_per_s": done / sum(latencies) if latencies else 0.0,
        "op_p50_ms": timing.hd_quantile(latencies, 0.5) * 1e3,
        "op_p90_ms": timing.hd_quantile(latencies, 0.9) * 1e3,
    }


def end_to_end(result: Pass, setup_s: float) -> dict:
    m = latency_metrics(result.scaled, len(result.failures))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": {"value": m["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": m["op_p50_ms"], "unit": "ms"},
        "op_p90_ms": {"value": m["op_p90_ms"], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def report(attempted: int, failures: list[str], metrics: dict, notes: list[str]) -> int:
    """Print the human-readable lines, then the result as the last line."""
    for reason in failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def select(ops: list, limit: int) -> list:
    """The whole list, or its first ``limit`` ops for a quick check."""
    return ops[:limit] if limit else ops


def measured_run(args) -> int:
    _, ops, setup_s, setup_wall = set_up(args.workload, args.seed, ROOT)
    ops = select(ops, args.limit)
    freeze_harness()
    result = run_ops(ops, min(LIMIT_FACTOR * args.seconds, OPS_LIMIT_S))
    n = len(result.latencies)
    p90 = timing.hd_quantile(result.scaled, 0.9)
    wall = latency_metrics(result.latencies, len(result.failures))
    speed = timing.REFERENCE_S / statistics.median([x for b in result.samples for x in b])
    notes = [
        f"workload {args.workload}, seed {args.seed}: {n} of {len(ops)} ops attempted,"
        f" {len(result.failures)} failed",
        f"failed_ratio: {len(result.failures) / n if n else 0.0:.6g} ratio",
        f"latency samples: {n}, {sum(1 for x in result.scaled if x > p90)} beyond p90",
        f"box speed: {speed:.3f} of the reference; times below are scaled to it",
        "wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items())
        + f", setup_s {setup_wall:.6g}",
    ]
    return report(n, result.failures, end_to_end(result, setup_s), notes)


# -- the traced run ------------------------------------------------------------

# metric prefix -> (entry spans, part spans).  ``.calls`` counts the entry
# spans; ``.self_s`` sums the self time of both, so a layer's helpers that
# the entry calls (the census's box walk in ``support``, the dict parsing
# under ``loads``) count toward it.
SPAN_METRICS = {
    "cones.is_face_of": (("cones.Cone.is_face_of",), ()),
    "cones.faces": (("cones.Cone.faces",), ()),
    "cones.dd": (("cones.dual_description",), ()),
    "lattice.kernel": (("lattice.integer_kernel",), ()),
    "lattice.snf": (("lattice.smith_normal_form",), ()),
    "lattice.hermite": (("lattice.row_hermite",), ()),
    "lattice.inverse": (("lattice.invert_unimodular",), ()),
    "fans.validate": (("fans.Fan.validate",), ()),
    "fans.quotient": (("fans.quotient_fan",), ()),
    "fans.resolve": (("fans.resolve_to_smooth",), ()),
    "fans.refines": (("fans.refines",), ()),
    "fanifold.validate": (("fanifold.Fanifold.validate",), ()),
    "bmodel.census": (("bmodel.limit_census",), ("bmodel.ToricDiagram.support",)),
    "bmodel.diagram": (("bmodel.full_diagram", "bmodel.chart_diagram"), ()),
    "files.load": (("files.loads",), ("files.load_fanifold", "files.fanifold_from_dict")),
    "files.dump": (("files.dumps",), ("files.save_fanifold", "files.fanifold_to_dict")),
    "skeleton.model": (("skeleton.skeleton_model",), ()),
    "skeleton.handles": (("skeleton.handle_plan",), ()),
    "mirror.dict": (("mirror.mirror_dictionary",), ()),
    "mirror.restrict": (("mirror.restriction_pairs",), ()),
    "mesh.export": (("mesh.export_mesh",), ()),
}


def traced_child(args) -> int:
    """One pass of a traced run over the whole list; prints its raw totals as JSON."""
    pkg = import_package(ROOT)
    ops = select(workloads.build(args.workload, pkg, args.seed, ROOT), args.limit)
    tracer = None
    if args.phase == "traced":
        tracer = tracing.Tracer()
        tracer.install(pkg, LAYERS)
    freeze_harness()
    # the parent's deadline bounds the pass
    result = run_ops(ops, None, tracer.run_op if tracer else None)
    out = {
        "ops": len(result.latencies),
        "op_s": sum(result.latencies),
        "scaled_op_s": sum(result.scaled),
        "failures": result.failures,
    }
    if tracer:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR,
            f"spans-{args.workload}-seed{args.seed}"
            f"-hash{os.environ.get('PYTHONHASHSEED', 'random')}.jsonl.gz",
        )
        tracer.write(path)
        out.update(totals=tracer.totals(), counts=dict(tracer.counts), spans=path)
    print(json.dumps(out))
    return 0


def run_child(args, phase: str, hashseed: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1",
        "--phase", phase, "--limit", str(args.limit),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_counts(child: dict) -> dict[str, float]:
    """Every count a traced pass took: span calls and the extra counters."""
    out = {f"calls:{name}": calls for name, (calls, _) in child["totals"].items()}
    out.update({f"count:{name}": v for name, v in child["counts"].items()})
    out["ops"] = child["ops"]
    return out


def per_layer(child: dict, repeat: dict[str, float], overhead: float) -> dict:
    totals = child["totals"]

    def calls(names):
        return sum(repeat.get(f"calls:{n}", 0) for n in names)

    def self_s(names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    def count(name):
        return repeat.get(f"count:{name}", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for prefix, (entries, parts) in SPAN_METRICS.items():
        m[f"{prefix}.calls"] = (calls(entries), "count")
        m[f"{prefix}.self_s"] = (self_s(entries + parts), "s")
    m["cones.built"] = (count("cones.built"), "count")
    m["cones.key.builds"] = (calls(("cones.Cone.key",)), "count")
    ops = repeat["ops"]
    m["fanifold.validate.per_op"] = (ratio(calls(("fanifold.Fanifold.validate",)), ops), "calls/op")
    lookups = count("fanifold.fq_cache.lookups")
    m["fanifold.fq_cache.lookups"] = (lookups, "count")
    m["fanifold.fq_cache.hit_ratio"] = (ratio(count("fanifold.fq_cache.hits"), lookups), "ratio")
    points, box = count("bmodel.census.points"), count("bmodel.census.box_points")
    m["bmodel.census.points"] = (points, "count")
    m["bmodel.census.box_points"] = (box, "count")
    m["bmodel.census.yield"] = (ratio(points, box), "ratio")
    m["files.bytes_in"] = (count("files.bytes_in"), "B")
    m["mesh.bytes_out"] = (count("mesh.bytes_out"), "B")
    for layer in LAYERS:
        names = [n for n in totals if n.startswith(layer + ".")]
        m[f"{layer}.self_s" if layer == "cli" else f"layer.{layer}.self_s"] = (self_s(names), "s")
    m["trace.op_self_s"] = (self_s((tracing.OP_SPAN,)), "s")
    m["trace.ops"] = (ops, "count")
    m["trace.op_s"] = (child["op_s"], "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_run(args) -> int:
    """An untraced pass, then two traced passes under different hash seeds.

    Each pass is its own process and runs the same whole list, so the
    traced passes must take identical counts, and the untraced one is the
    base of ``trace.overhead_ratio``.  A pass still running when the budget
    is spent is stopped, and the run fails without a result.
    """
    deadline = perf_counter() + TRACE_BUDGET_S
    try:
        base = run_child(args, "plain", "0", deadline)
        first = run_child(args, "traced", "1", deadline)
        second = run_child(args, "traced", "2", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    c1, c2 = layer_counts(first), layer_counts(second)
    unstable = sorted(k for k in set(c1) | set(c2) if c1.get(k, 0) != c2.get(k, 0))
    notes = [
        f"traced {first['ops']} ops; spans in {os.path.relpath(first['spans'], ROOT)}",
        f"counts not repeating across PYTHONHASHSEED 1 and 2: {len(unstable)}",
    ]
    repeat = dict(c1)
    for k in unstable:
        a, b = c1.get(k, 0), c2.get(k, 0)
        repeat[k] = (a + b) / 2
        notes.append(f"  {k}: {a} vs {b} (spread {abs(a - b)}); reported as their mean, not a count")
    overhead = base["scaled_op_s"] / first["scaled_op_s"]
    metrics = per_layer(first, repeat, overhead)
    metrics["trace.counts_unstable"] = {"value": len(unstable), "unit": "count"}
    failures = base["failures"] + first["failures"] + second["failures"]
    return report(first["ops"], failures, metrics, notes)


# -- entry point ----------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--limit", str(args.limit),
        ]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("plain", "traced"), help=argparse.SUPPRESS)
    parser.add_argument(
        "--limit", type=int, default=0,
        help="run only the first N ops of the list, for a quick check (default: all)",
    )
    args = parser.parse_args(argv)
    try:
        check_checkout(ROOT)
    except MissingSource as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.phase:
        return traced_child(args)
    if args.trace:
        return traced_run(args)
    return measured_run(args)


if __name__ == "__main__":
    sys.exit(main())
