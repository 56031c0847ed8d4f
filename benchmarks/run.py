"""Benchmark harness for swallowtail.

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 10 --trace 0

Runs one closed-loop workload (one caller, one op at a time) on a fixed op
list generated from the seed, checks every op's result, and prints the
metrics as one JSON object on the last line of standard output.  With
``--trace 0`` those are the end-to-end metrics; with ``--trace 1`` the run
records spans around the library's public calls and prints the per-layer
metrics instead.  See README.md in this directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from cli_workload import FAMILIES as CLI_FAMILIES, vm_hwm_mb  # noqa: E402  (imports only the stdlib)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("scan", "geometry", "cli")
SETUP_PROBES = 5
MIN_OPS = 20          # leaves 10 samples beyond the tail percentile
CALIBRATION_LOOP = 1_000_000

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "oracle.eval_q.calls_per_op": "count",
    "oracle.eval_q.panels": "count",
    "oracle.eval_q.p50_us.small_z": "us",
    "oracle.eval_q.p50_us.neg_z": "us",
    "oracle.eval_q.p50_us.pos_z": "us",
    "oracle.tol_miss": "count",
    "oracle.self_share": "ratio",
    "zeros.self_ms": "ms",
    "zeros.modulus_scan.us_per_cell": "us",
    "saddle.saddles.p50_us": "us",
    "saddle.trace_steepest.p50_ms": "ms",
    "saddle.trace_steepest.points": "count",
    "saddle.trace_steepest.stalls": "count",
    "asymptotics.saddle_contributions.p50_us": "us",
    "asymptotics.self_share": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms.swallowtail_cli": "ms",
    "cli.import_ms.numpy": "ms",
    "cli.import_ms.jsonschema": "ms",
    **{f"cli.run_ms.{family}": "ms" for family in CLI_FAMILIES},
    **{f"trace.overhead.{name}": unit for name, unit in END_TO_END_UNITS.items()},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sizes the fixed op list to about this many seconds of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the same script started as a set-up probe or as the untraced
    # pass of a traced run
    parser.add_argument("--role", choices=("main", "setup-probe", "untraced-pass"),
                        default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workload(name, work_dir):
    """Import the workload's module (the cli one does not import swallowtail)."""
    if name == "cli":
        from cli_workload import WORKLOADS, CliRunner
        workload = WORKLOADS[name]
        workload.runner = CliRunner(SRC, work_dir)
        return workload
    from inprocess import WORKLOADS
    return WORKLOADS[name]


def make_ops(workload, seed, seconds):
    """The fixed op list from the seed, and a warm-up op that is the same for
    every seed, so that set-up time does not depend on which op it drew."""
    n = max(MIN_OPS, round(seconds * workload.ops_per_second))
    ops = workload.generate(random.Random(f"{workload.name}:{seed}"), n)
    warm_up = workload.generate(random.Random(f"{workload.name}:warm-up"), 1)[0]
    return ops, warm_up


def op_list_digest(ops):
    return hashlib.sha256(repr(ops).encode()).hexdigest()


def calibration_ms():
    """A fixed pure-Python loop: how fast the host is right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOP):
        s += i * i
    return (time.perf_counter() - t0) * 1e3


def warm_up_run(workload, op):
    """Run the warm-up op; its result is not checked, so neither is a raise."""
    try:
        workload.run(op)
    except Exception:   # a failing op still loads and warms what it touches
        pass


def timed_pass(workload, ops, tracer=None):
    """Run every op once, in order; returns (results, latencies_s, wall_s)."""
    results, latencies = [], []
    keep = getattr(workload, "keep", None)
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        span = tracer.open("op") if tracer else None
        try:
            result = workload.run(op)
        except Exception as exc:   # the op failed; its check reports it
            result = exc
        if span is not None:
            tracer.close(span)
        latencies.append(time.perf_counter() - t0)
        results.append(keep(result) if keep else result)
    return results, latencies, time.perf_counter() - start


def peak_rss_mb(workload, results):
    """Peak RSS (VmHWM) of the process that ran the ops; for cli, of the
    largest CLI child, each of which reports its own VmHWM."""
    if workload.name == "cli":
        return max(r["rss_mb"] for r in results if isinstance(r, dict))
    return vm_hwm_mb()


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(latencies, wall, rss_mb):
    tail_s, pct, beyond = tail(latencies)
    metrics = {
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss_mb,
    }
    return metrics, f"op_tail_ms is p{pct:.1f} of {len(latencies)} ops ({beyond} beyond)"


def check_all(workload, ops, results):
    """Check every op; returns ({op index: failure reasons}, ops without a verdict)."""
    failures, unchecked = {}, 0
    for i, (op, result) in enumerate(zip(ops, results)):
        try:
            reasons = workload.check(op, result)
        except Exception as exc:   # the check itself could not reach a verdict
            unchecked += 1
            reasons = [f"check raised {exc!r}"]
        if reasons:
            failures[i] = reasons
    return failures, unchecked


def run_child(args, role):
    """Start this script again in ``role``; returns (Popen, start time)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--role", role]
    t0 = time.perf_counter()
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT), t0


def setup_seconds(args):
    """Median over fresh processes of start -> ready for the first timed op."""
    times = []
    for _ in range(SETUP_PROBES):
        proc, t0 = run_child(args, "setup-probe")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return statistics.median(times)


def untraced_reference(args):
    """End-to-end metrics of the same op list, untraced, in a fresh process."""
    proc, _ = run_child(args, "untraced-pass")
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError("untraced pass failed")
    return json.loads(out.strip().splitlines()[-1])


def report(args, ops, failures, unchecked, metrics, units, notes, extra):
    """Print notes, write the run record, print the result line last."""
    failed = len(failures)
    lines = [f"workload {args.workload} seed {args.seed}: {len(ops)} ops, "
             f"op list sha256 {op_list_digest(ops)[:16]}", *notes,
             f"failed {failed} of {len(ops)} ops"]
    lines += [f"  op {i}: {reasons[0]}" for i, reasons in list(failures.items())[:5]]
    print("\n".join(lines))
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "op_list_sha256": op_list_digest(ops), "notes": notes,
              "metrics": metrics, "failures": {str(i): r for i, r in failures.items()}, **extra}
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set mismatch: {sorted(missing)}")
    print(json.dumps({
        "correct": unchecked == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "swallowtail" / "__init__.py").is_file():
        print(f"error: no swallowtail sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir):
    spec = importlib.util.find_spec("swallowtail")
    if Path(spec.origin).resolve().parent != SRC / "swallowtail":
        print(f"error: swallowtail would be imported from {spec.origin}", file=sys.stderr)
        return 2
    workload = load_workload(args.workload, str(work_dir))
    ops, warm_up = make_ops(workload, args.seed, args.seconds)
    if args.role == "setup-probe":
        warm_up_run(workload, warm_up)
        print("ready", flush=True)
    elif args.role == "untraced-pass":
        metrics, _, _, _ = measure(workload, ops, warm_up)
        print(json.dumps(metrics))
    elif args.trace:
        run_traced(args, workload, ops, warm_up, work_dir)
    else:
        setup = setup_seconds(args)
        metrics, results, tail_note, host = measure(workload, ops, warm_up)
        metrics["setup_s"] = setup
        failures, unchecked = check_all(workload, ops, results)
        report(args, ops, failures, unchecked, metrics, END_TO_END_UNITS,
               [tail_note, host_note(host)], {"host_phase": host})
    return 0


def measure(workload, ops, warm_up, tracer=None):
    """Warm up, then time the op list between two calibration loops.

    Returns (end-to-end metrics with in-process set-up time, results, tail
    note, host-phase record).  With a tracer, its wrappers are installed
    after the warm-up (cli ops run in subprocesses and get only op spans).
    """
    warm_up_run(workload, warm_up)
    if tracer is not None and workload.name != "cli":
        tracer.install()
    setup_in_process = time.perf_counter() - T_START
    before = calibration_ms()
    try:
        results, latencies, wall = timed_pass(workload, ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb(workload, results)
    after = calibration_ms()
    metrics, tail_note = end_to_end(latencies, wall, rss)
    metrics["setup_s"] = setup_in_process
    host = {"calibration_ms_before": before, "calibration_ms_after": after}
    return metrics, results, tail_note, host


def host_note(host):
    return (f"host phase: calibration loop {host['calibration_ms_before']:.1f} ms before, "
            f"{host['calibration_ms_after']:.1f} ms after the timed phase")


def run_traced(args, workload, ops, warm_up, work_dir):
    """Per-layer metrics; the untraced pass of the same ops runs afterwards in
    a fresh process (nothing cached in memory is shared) for the overhead."""
    import tracing
    tracer = tracing.Tracer()
    traced, results, tail_note, host = measure(workload, ops, warm_up, tracer)
    failures, unchecked = check_all(workload, ops, results)
    untraced = untraced_reference(args)

    metrics = tracing.layer_metrics(tracer.spans, len(ops))
    from cli_workload import WORKLOADS as CLI, CliRunner, cold_start
    cli_ops, _ = make_ops(CLI["cli"], args.seed, args.seconds)
    metrics.update(cold_start(CliRunner(SRC, str(work_dir)), cli_ops))
    for name in END_TO_END_UNITS:
        metrics[f"trace.overhead.{name}"] = traced[name] - untraced[name]
    tracer.dump(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    report(args, ops, failures, unchecked, metrics, PER_LAYER_UNITS,
           [f"traced {tail_note}", host_note(host)],
           {"host_phase": host, "exact": {name: metrics[name] for name in tracing.EXACT},
            "traced_end_to_end": traced, "untraced_end_to_end": untraced})


if __name__ == "__main__":
    sys.exit(main())
