"""The ``cli`` workload: one ``swallowtail`` CLI subprocess per op.

This module imports nothing from the package under test, so the harness
process of the ``cli`` workload stays small and its set-up time is the
warm-up subprocess, not the library imports.  Checking the envelopes imports
``swallowtail.schema`` after the timed phase.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

FAMILIES = ("eval", "saddles", "trace", "zeros_predict", "zeros_refine",
            "zeros_confine", "scan")
ENVELOPE_COMMAND = {"eval": "eval", "saddles": "saddles", "trace": "trace",
                    "zeros_predict": "zeros-predict", "zeros_refine": "zeros-refine",
                    "zeros_confine": "zeros-confine", "scan": "scan"}
CAUSTIC_GAMMA = 4.0 * 3.0 ** -0.75
# A PathStalled is a correct outcome this close to the caustic (z > 0), where
# two saddles nearly coincide; anywhere else it is a failure.  The geometry
# workload uses the same band.
CAUSTIC_BAND = 0.01
EXIT_PATH_STALLED = 4
SCAN_SHAPE = 4

# Runs ``python -m swallowtail ARGS`` as ``python -c LAUNCHER PEAK_PATH ARGS``
# and, at exit, writes the CLI process's own VmHWM line to PEAK_PATH.  The
# child's ``ru_maxrss`` would not do: Linux carries the parent's RSS at spawn
# time into it, so it would read the harness's size whenever that is larger.
LAUNCHER = """\
import atexit, runpy, sys
peak_path = sys.argv.pop(1)
def report_peak():
    with open("/proc/self/status") as status, open(peak_path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
atexit.register(report_peak)
runpy.run_module("swallowtail", run_name="__main__", alter_sys=True)
"""


def vm_hwm_mb():
    """Peak RSS of this process in MB (VmHWM)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _flag(name, value):
    # always --flag=value: argparse would read "-6:6" after a space as an option
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _command(family, rng, index):
    """argv after ``python -m swallowtail`` for one op of ``family``."""
    branch = rng.choice(("pos", "neg"))
    if family == "eval":
        return ["eval", _flag("x", rng.uniform(-1.0, 1.0)), _flag("y", rng.uniform(0.0, 1.0)),
                _flag("z", rng.uniform(-8.0, 8.0))]
    if family == "saddles":
        return ["saddles", _flag("y", rng.uniform(0.0, 3.0)),
                _flag("z", rng.choice((1.0, -1.0)) * rng.uniform(0.5, 10.0))]
    if family == "trace":
        return ["trace", _flag("y", rng.uniform(0.0, 1.5)),
                _flag("z", rng.choice((1.0, -1.0)) * rng.uniform(0.5, 5.0)),
                _flag("saddle", rng.randrange(4)), _flag("direction", rng.choice(("left", "right")))]
    if family == "zeros_predict":
        return ["zeros", "predict", _flag("branch", branch), _flag("m-max", rng.randrange(41)),
                _flag("form", rng.choice(("Q", "S")))]
    if family == "zeros_refine":
        m = rng.randrange(5 if branch == "neg" else 4)
        return ["zeros", "refine", _flag("branch", branch), _flag("m", m),
                _flag("residual-tol", rng.uniform(0.5e-9, 2e-9))]
    if family == "zeros_confine":
        return ["zeros", "confine", _flag("y0", rng.uniform(0.05, 0.5)), _flag("branch", branch),
                _flag("m", rng.randrange(3))]
    y0 = rng.uniform(0.0, 0.8)
    z0 = rng.uniform(-8.0, -2.0)
    return ["scan", f"--y-range={y0!r}:{y0 + 0.2!r}", f"--z-range={z0!r}:{z0 + 8.0!r}",
            _flag("ny", SCAN_SHAPE), _flag("nz", SCAN_SHAPE), _flag("tol", 1e-8),
            f"--out=scan-{index}.csv"]


def _stall_allowed(argv):
    """A trace may stall (exit 4) only inside the caustic band, z > 0."""
    opts = dict(a[2:].split("=", 1) for a in argv if a.startswith("--"))
    y, z = float(opts["y"]), float(opts["z"])
    return z > 0.0 and abs(y / z ** 0.75 - CAUSTIC_GAMMA) <= CAUSTIC_BAND


class CliRunner:
    """Starts CLI subprocesses against the checkout's ``src`` tree."""

    def __init__(self, src_dir, work_dir):
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.env.pop("PYTHONSTARTUP", None)

    def run(self, argv, python_flags=()):
        """(exit code, stdout, stderr, peak RSS in MB) of one CLI run."""
        peak_path = os.path.join(self.work_dir, "vmhwm.txt")
        proc = subprocess.run([sys.executable, *python_flags, "-c", LAUNCHER, peak_path, *argv],
                              capture_output=True, text=True, cwd=self.work_dir, env=self.env)
        with open(peak_path) as fh:
            rss_mb = int(fh.read().split()[1]) / 1024.0
        os.remove(peak_path)
        return proc.returncode, proc.stdout, proc.stderr, rss_mb

    def interpreter_ms(self, repeats=5):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, env=self.env)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)


class Cli:
    """A seeded mix of every CLI command family, one subprocess per op."""

    name = "cli"
    ops_per_second = 3.5

    def __init__(self):
        self.runner = None   # set by the harness once the work directory exists

    def generate(self, rng, n):
        ops, seen = [], set()
        while len(ops) < n:
            families = list(FAMILIES)
            rng.shuffle(families)
            for family in families[:n - len(ops)]:
                while True:
                    argv = tuple(_command(family, rng, len(ops)))
                    inputs = argv[:-1] if family == "scan" else argv   # not the --out name
                    if inputs not in seen:
                        break
                seen.add(inputs)
                ops.append((family, argv))
        return ops

    def run(self, op):
        code, out, err, rss = self.runner.run(op[1])
        return {"code": code, "stdout": out, "stderr": err, "rss_mb": rss}

    def check(self, op, result):
        from jsonschema import ValidationError
        from swallowtail.schema import validate_envelope

        family, argv = op
        label = "swallowtail " + " ".join(argv)
        if family == "trace" and result["code"] == EXIT_PATH_STALLED and _stall_allowed(argv):
            return []
        if result["code"] != 0:
            return [f"{label}: exit {result['code']}: {result['stderr'].strip()[-200:]}"]
        try:
            envelope = json.loads(result["stdout"])
            validate_envelope(envelope)
        except (ValueError, ValidationError) as exc:
            return [f"{label}: invalid envelope: {str(exc)[:200]}"]
        if envelope["command"] != ENVELOPE_COMMAND[family]:
            return [f"{label}: envelope command {envelope['command']!r}"]
        if family == "scan":
            path = os.path.join(self.runner.work_dir, envelope["results"]["out_path"])
            with open(path) as fh:
                rows = fh.read().splitlines()
            if len(rows) != 1 + SCAN_SHAPE * SCAN_SHAPE:
                return [f"{label}: scan file has {len(rows)} lines"]
        return []


def cold_start(runner, ops):
    """Cold-start breakdown: each command family once under -X importtime.

    Returns the ``cli.*`` per-layer metrics: bare interpreter start, the
    import cost of the CLI, numpy and jsonschema (medians over the runs) and
    the wall time of each family's command.
    """
    first = {}
    for family, argv in ops:
        first.setdefault(family, argv)
    metrics = {"cli.interpreter_ms": runner.interpreter_ms()}
    imports = {"swallowtail_cli": [], "numpy": [], "jsonschema": []}
    for family in FAMILIES:
        t0 = time.perf_counter()
        _, _, err, _ = runner.run(first[family], python_flags=("-X", "importtime"))
        metrics[f"cli.run_ms.{family}"] = (time.perf_counter() - t0) * 1e3
        for key, value in _import_times(err).items():
            imports[key].append(value)
    for key, values in imports.items():
        metrics[f"cli.import_ms.{key}"] = statistics.median(values) if values else 0.0
    return metrics


def _import_times(stderr):
    """Cumulative import times (ms) from ``-X importtime`` output.

    ``swallowtail_cli`` sums the top-level swallowtail entries (the package
    and ``swallowtail.__main__``, which pulls in the CLI); numpy and
    jsonschema are their own cumulative entries wherever they first load.
    """
    found = {"swallowtail_cli": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        try:
            _, cumulative, name = line[len("import time:"):].split("|")
            cumulative_ms = int(cumulative) / 1e3
        except ValueError:
            continue   # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2   # "| " then 2 per level
        module = name.strip()
        if depth == 0 and module.split(".")[0] == "swallowtail":
            found["swallowtail_cli"] += cumulative_ms
        elif module in ("numpy", "jsonschema"):
            found.setdefault(module, cumulative_ms)
    return found


WORKLOADS = {"cli": Cli()}
