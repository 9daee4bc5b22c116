"""lpheat benchmark: one closed-loop client per workload, every output oracle-checked.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``evolve``, ``slowtail``, ``verify``.  One
process and one thread send one op at a time; LP_HEAT_THREADS is removed
from the environment and its prior state recorded.

``--trace 0`` measures end-to-end metrics.  The op schedule is a seeded
shuffle of the workload's ops; whole passes over it run until the next
pass would end past ``--seconds`` of op time (at least one pass and at
least 100 ops).  Every op is timed with ``time.perf_counter``; its output
is checked afterwards, outside the timed region, against ``oracles.py``
(repeats must reproduce the first output byte for byte).  An op fails if it
raises, exits non-zero or misses its oracle; a failed op's latency counts
as +inf.

``--trace 1`` replays the workload's fixed traced subset three times: once
plain, then twice under the tracer (``tracing.py``).  It reports per-layer
counts and self times from the first traced pass, and the traced/plain wall
time ratio.  Both traced passes must give identical counts, and in every op
the layer spans must cover the op's wall time to within
max(5 %, 1 ms); otherwise ``correct`` is false.

The last stdout line is the JSON result; a table of every metric with its
unit and op count goes to stderr, and a run record (metadata, op mix,
failures and, for traced runs, the spans) to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from time import perf_counter
from typing import Any

SETUP_REPS = 7
MIN_OPS = 100
COVERAGE_SLACK = (0.05, 1e-3)  # share of op wall time, absolute seconds


@dataclass
class Rec:
    op: int
    seconds: float
    error: str | None
    output: Any = None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("evolve", "slowtail", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lpheat", "__init__.py")):
        sys.stderr.write("perfbench: ./src/lpheat not found; run from the root of an lpheat checkout\n")
        return 2
    threads = os.environ.pop("LP_HEAT_THREADS", None)
    sys.path.insert(0, src)
    import numpy  # noqa: F401  the program's one dependency; its import is not set-up time

    import workloads

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            seconds, lh, wl, warm_out = set_up(workloads, args.workload, args.seed, work)
            setups.append(seconds)
        if os.path.dirname(os.path.abspath(lh.__file__)) != os.path.join(src, "lpheat"):
            sys.stderr.write(f"perfbench: imported lpheat from {lh.__file__}, not from ./src\n")
            return 2
        meta = metadata_record(root, args, threads, wl)
        if args.trace:
            result, extra = traced_run(lh, wl, statistics.median(setups))
        else:
            result, extra = plain_run(wl, args.seconds, setups)
        meta.update(extra)
        warm_verdict = judge([wl.warmup], [Rec(0, 0.0, None, warm_out)])[0][0]
        if warm_verdict is not None:
            meta["failures"][f"warmup: {warm_verdict}"] = 1
            result["correct"] = False
        record = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(record, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "result": result}, fh, indent=1, default=str)
        print_table(result, meta)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up(workloads, name, seed, work):
    """Import lpheat afresh, generate the seeded inputs, run the warm-up op."""
    t0 = perf_counter()
    for mod in [m for m in sys.modules if m == "lpheat" or m.startswith("lpheat.")]:
        del sys.modules[mod]
    lh = importlib.import_module("lpheat")
    importlib.import_module("lpheat.cli")
    wl = workloads.GENERATORS[name](lh, random.Random(seed), work)
    warm_out = wl.warmup.collect(wl.warmup.run())
    return perf_counter() - t0, lh, wl, warm_out


def run_op(op, index, tracer=None) -> Rec:
    if tracer is not None:
        tracer.begin_op(index, op.label)
    t0 = perf_counter()
    try:
        res = op.run()
        err = None
    except Exception as exc:  # a failing op is recorded, and the loop goes on
        res, err = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    out = None
    if err is None:
        try:
            out = op.collect(res)
        except OSError as exc:  # a CLI op that exited before writing its output file
            err = f"{type(exc).__name__}: {exc}"
    return Rec(index, dt, err, out)


def run_pass(ops, indices, tracer=None) -> list[Rec]:
    return [run_op(ops[i], i, tracer) for i in indices]


def judge(ops, recs):
    """Check each op's first output against its oracle and every repeat
    against the first output.  Returns (per-record verdicts, checks by op)."""
    first, checks = {}, {}
    for rec in recs:
        if rec.error is None and rec.op not in first:
            first[rec.op] = rec.output
    for i, out in first.items():
        try:
            checks[i] = ops[i].check(out)
        except Exception as exc:  # malformed output is a miss like a wrong number
            checks[i] = f"oracle: {type(exc).__name__}: {exc}"
    verdicts = []
    for rec in recs:
        if rec.error is not None:
            verdicts.append(rec.error)
        elif isinstance(checks[rec.op], str):
            verdicts.append(checks[rec.op])
        elif rec.output != first[rec.op]:
            verdicts.append("output differs from the op's first run")
        else:
            verdicts.append(None)
    return verdicts, checks


def quantile(values, q):
    """Exclusive-method quantile that keeps +inf samples as +inf."""
    xs = sorted(values)
    pos = q * (len(xs) + 1) - 1
    lo = min(max(int(math.floor(pos)), 0), len(xs) - 1)
    hi = min(lo + 1, len(xs) - 1)
    if math.isinf(xs[lo]) or math.isinf(xs[hi]):
        return math.inf
    frac = min(max(pos - lo, 0.0), 1.0)
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def plain_run(wl, seconds, setups):
    ops = wl.ops
    recs: list[Rec] = []
    busy, passes = 0.0, 0
    min_passes = math.ceil(MIN_OPS / len(ops))
    while True:
        recs_pass = run_pass(ops, range(len(ops)))
        pass_time = sum(r.seconds for r in recs_pass)
        recs += recs_pass
        busy += pass_time
        passes += 1
        if passes >= min_passes and busy + pass_time > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts, checks = judge(ops, recs)
    ok = [v is None for v in verdicts]
    n_ok = sum(ok)
    lat_ms = [r.seconds * 1e3 if good else math.inf for r, good in zip(recs, ok)]
    checked = sum(checks[r.op].n for r, good in zip(recs, ok) if good)
    points = sum(ops[r.op].points for r, good in zip(recs, ok) if good)
    devs = [c.dev for c in checks.values() if not isinstance(c, str)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (quantile(lat_ms, 0.5), "ms"),
        "op_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "ops_per_s": (n_ok / busy, "1/s"),
        "checks_per_s": (checked / busy, "1/s"),
        "success_ratio": (n_ok / len(recs), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    wrong = [v for v in verdicts if v is not None and v.startswith(("oracle", "output differs"))]
    result = result_line(not wrong, len(recs), len(recs) - n_ok, metrics)
    extra = {
        "passes": passes,
        "busy_s": busy,
        "points_per_s": points / busy,
        "fail_ratio": (len(recs) - n_ok) / len(recs),
        "oracle_max_err": max(devs) if devs else None,
        "failures": failure_summary(ops, recs, verdicts),
        "worst_dev_by_label": worst_dev_by_label(ops, checks),
        "time_by_label": time_by_label(ops, recs),
        "setup_samples_s": setups,
    }
    return result, extra


def traced_run(lh, wl, setup_s):
    from tracing import Tracer

    ops = wl.ops
    subset = [i for i, op in enumerate(ops) if op.traced]
    plain = run_pass(ops, subset)
    tracer = Tracer(lh.QuadratureAccuracyError)
    tracer.install(lh.PrimitiveFunction)
    try:
        traced = []
        for _ in range(2):
            tracer.reset()
            recs = run_pass(ops, subset, tracer)
            counts = Counter(tracer.counts)
            counts["cli.bytes_out"] = sum(len(r.output[1]) for r in recs if ops[r.op].cli and r.error is None)
            traced.append((recs, counts))
            if len(traced) == 1:
                self_s, uncovered, spans = tracer.self_seconds(), tracer.uncovered(), tracer.records()
    finally:
        tracer.uninstall()
    (recs, counts), (recs2, counts2) = traced
    verdicts, _ = judge(ops, plain + recs + recs2)
    n_ok = sum(v is None for v in verdicts[len(plain):len(plain) + len(recs)])
    wrong = [v for v in verdicts if v is not None and v.startswith(("oracle", "output differs"))]
    nondeterministic = {k: (counts[k], counts2[k]) for k in counts.keys() | counts2.keys() if counts[k] != counts2[k]}
    slack_share, slack_abs = COVERAGE_SLACK
    uncovered_ops = [(ops[i].label, wall, gap) for i, wall, gap in uncovered if gap > max(slack_share * wall, slack_abs)]
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in recs)

    def ratio(a, b):
        return a / b if b else 0.0

    c = counts
    metrics = {
        "convolve.nodes_per_point": (ratio(c["convolve.nodes"], c["convolve.point_calls"]), "count"),
        "convolve.point_calls": (c["convolve.point_calls"], "count"),
        "convolve.norm_calls": (c["convolve.norm_calls"], "count"),
        "quadrature.nested_share": (ratio(c["quadrature.nested_nodes"], c["quadrature.nodes"]), "ratio"),
        "quadrature.nodes": (c["quadrature.nodes"], "count"),
        "kernel.points_per_call": (ratio(c["kernel.points"], c["kernel.calls"]), "count"),
        "kernel.calls": (c["kernel.calls"], "count"),
        "kernel.points": (c["kernel.points"], "count"),
        "quadrature.calls": (c["quadrature.calls"], "count"),
        "quadrature.panels": (c["quadrature.panels"], "count"),
        "lp_space.values_calls": (c["lp_space.values_calls"], "count"),
        "lp_space.values_points": (c["lp_space.values_points"], "count"),
        "heat_solver.closed_form_share": (ratio(c["heat_solver.closed_form_points"], c["heat_solver.points"]), "ratio"),
        "heat_solver.points": (c["heat_solver.points"], "count"),
        "quadrature.subdivisions": (c["quadrature.subdivisions"], "count"),
        "quadrature.leaf_ratio": (ratio(c["quadrature.leaves"], c["quadrature.panels"]), "ratio"),
        "cli.bytes_out": (c["cli.bytes_out"], "bytes"),
        "estimates.checks": (c["estimates.checks"], "count"),
        "quadrature.budget_failures": (c["quadrature.budget_failures"], "count"),
    }
    for layer in ("cli", "estimates", "constants", "quadrature", "kernel", "lp_space", "lprime", "convolve",
                  "heat_solver"):
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["trace.overhead_ratio"] = (ratio(traced_s, plain_s), "ratio")
    correct = not wrong and not nondeterministic and not uncovered_ops
    result = result_line(correct, len(recs), len(recs) - n_ok, metrics)
    extra = {
        "traced_ops": len(subset),
        "plain_s": plain_s,
        "traced_s": traced_s,
        "setup_s": setup_s,
        "counts": dict(sorted(counts.items())),
        "nondeterministic_counts": nondeterministic,
        "uncovered_ops": uncovered_ops,
        "failures": failure_summary(ops, recs, verdicts[len(plain):len(plain) + len(recs)]),
        "spans": spans,
    }
    return result, extra


def result_line(correct, attempted, failed, metrics):
    out = {}
    for name, (value, unit) in metrics.items():
        value = float(value)
        if math.isinf(value):  # JSON has no infinity; a failed op past the percentile reads as the largest double
            value = sys.float_info.max
        out[name] = {"value": value, "unit": unit}
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": out}


def failure_summary(ops, recs, verdicts):
    out = Counter()
    for rec, v in zip(recs, verdicts):
        if v is not None:
            out[f"{ops[rec.op].label}: {v.splitlines()[0][:160]}"] += 1
    return dict(out)


def time_by_label(ops, recs):
    """label -> (executions, median ms, total s)."""
    by = {}
    for r in recs:
        by.setdefault(ops[r.op].label, []).append(r.seconds)
    return {k: (len(v), 1e3 * statistics.median(v), sum(v)) for k, v in sorted(by.items())}


def worst_dev_by_label(ops, checks):
    out = {}
    for i, c in checks.items():
        if not isinstance(c, str):
            out[ops[i].label] = max(out.get(ops[i].label, 0.0), c.dev)
    return dict(sorted(out.items()))


def metadata_record(root, args, threads, wl):
    mix = Counter(op.label for op in wl.ops)
    return {
        "workload": args.workload,
        "why": workload_why(root, args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "LP_HEAT_THREADS": "unset" if threads is None else f"was {threads!r}; removed for the run",
        "clients": 1,
        "ops_per_pass": len(wl.ops),
        "op_mix": dict(sorted(mix.items())),
    }


def workload_why(root, name):
    """The workload's one-line reason from BENCHMARK.json."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            return next(w["why"] for w in json.load(fh)["workloads"] if w["name"] == name)
    except (OSError, ValueError, KeyError, StopIteration):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root):
    """HEAD of ./.git when the checkout is a git repository, else 'unknown'."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def print_table(result, meta):
    w = sys.stderr.write
    w(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} ops/pass={meta['ops_per_pass']} "
      f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}\n")
    for name, m in result["metrics"].items():
        w(f"{name:32s} {m['value']:>16.6g} {m['unit']:6s} over {result['attempted']} ops\n")
    if "points_per_s" in meta:
        w(f"{'points_per_s':32s} {meta['points_per_s']:>16.6g} {'1/s':6s} over {result['attempted']} ops\n")
        w(f"{'fail_ratio':32s} {meta['fail_ratio']:>16.6g} {'ratio':6s} over {result['attempted']} ops\n")
        w(f"{'oracle_max_err':32s} {meta['oracle_max_err'] or math.nan:>16.6g} {'ratio':6s} over {result['attempted']} ops\n")
    for what, n in meta.get("failures", {}).items():
        w(f"failed x{n}: {what}\n")
    for key in ("nondeterministic_counts", "uncovered_ops"):
        if meta.get(key):
            w(f"{key}: {meta[key]}\n")


if __name__ == "__main__":
    sys.exit(main())
