import csv
import inspect
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import swallowtail
from swallowtail import (Direction, Form, QuadratureConfig, RefineConfig, ScaledParams, ScanGrid,
                         ZSign, trace_steepest)
from swallowtail import asymptotics, cli, zeros
from swallowtail.cli import build_parser, main
from swallowtail.schema import validate_envelope

# child interpreters find the package under test whether or not it is installed
SRC = str(Path(swallowtail.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, f"stderr: {err}"
    envelope = json.loads(out, parse_constant=_reject_constant)
    validate_envelope(envelope)
    return envelope


def test_eval_origin_q(capsys):
    env = run_json(capsys, ["eval", "--x", "0", "--y", "0", "--z", "0"])
    assert env["command"] == "eval"
    assert env["results"]["abs"] == pytest.approx(2.4096436731871047, abs=1e-8)
    assert env["params_echo"]["tol"] == 1e-10          # defaults are echoed
    assert env["params_echo"]["form"] == "Q"


def test_eval_origin_s(capsys):
    env = run_json(capsys, ["eval", "--x", "0", "--y", "0", "--z", "0", "--form", "S"])
    assert env["results"]["abs"] == pytest.approx(1.7464607310356372, abs=1e-8)


def test_eval_conjugate_pair(capsys):
    a = run_json(capsys, ["eval", "--x", "0", "--y", "-2", "--z", "1"])
    b = run_json(capsys, ["eval", "--x", "0", "--y", "2", "--z", "1"])
    band = 2.0 * (a["results"]["abs_error_estimate"] + b["results"]["abs_error_estimate"])
    assert abs(a["results"]["re"] - b["results"]["re"]) <= band
    assert abs(a["results"]["im"] + b["results"]["im"]) <= band


def test_saddles_gamma_zero_positive(capsys):
    env = run_json(capsys, ["saddles", "--y", "0", "--z", "1"])
    roots = [complex(re, im) for re, im in env["results"]["roots"]]
    import cmath
    for k in range(4):
        assert abs(roots[k] - 1j ** k * cmath.exp(0.25j * math.pi)) < 1e-12
    assert env["results"]["regime"] == "two_conjugate_pairs"
    assert env["results"]["caustic_gamma"] == pytest.approx(4.0 * 3.0 ** -0.75)


def test_saddles_gamma_zero_negative(capsys):
    env = run_json(capsys, ["saddles", "--y", "0", "--z", "-1"])
    roots = [complex(re, im) for re, im in env["results"]["roots"]]
    for k in range(4):
        assert abs(roots[k] - 1j ** k) < 1e-12
    assert env["results"]["regime"] == "real_pair_plus_conjugate_pair"
    assert env["results"]["p"] is None      # pair structure undefined here


def test_trace_negative_axis_right(capsys):
    env = run_json(capsys, ["trace", "--y", "0", "--z", "-1",
                            "--saddle", "0", "--direction", "right"])
    assert env["results"]["terminal_sector"] == 0
    assert env["results"]["terminal_angle"] == pytest.approx(math.pi / 10.0)
    path = trace_steepest(ScaledParams(1.0, 0.0, ZSign.NEGATIVE), 0, Direction.RIGHT)
    assert env["results"]["points"] == path.to_polyline()


def test_trace_small_step_reaches_the_cutoff(capsys):
    # between the saddles the step grows from 1e-5, so the branch ends after
    # fewer than 50 points
    env = run_json(capsys, ["trace", "--y", "0", "--z=-1", "--saddle", "0",
                            "--direction", "right", "--step", "0.00001"])
    assert 8.0 <= math.hypot(*env["results"]["points"][-1]) <= 8.0 + 1e-5


def test_zeros_predict(capsys):
    env = run_json(capsys, ["zeros", "predict", "--branch", "pos", "--m-max", "2"])
    zs = [p["z_predicted"] for p in env["results"]["predictions"]]
    assert zs == pytest.approx([2.706225118282529, 5.812227421454514, 8.530281300889088])


def test_zeros_refine(capsys):
    env = run_json(capsys, ["zeros", "refine", "--branch", "neg", "--m", "0"])
    assert env["results"]["z"] == pytest.approx(-2.473282048212, abs=1e-6)
    assert env["results"]["residual"] < 1e-9


def test_zeros_confine(capsys):
    env = run_json(capsys, ["zeros", "confine", "--y0", "0.3",
                            "--branch", "pos", "--m", "0"])
    assert env["results"]["converged"] is True
    assert abs(env["results"]["final_y"]) < 1e-6


def test_zeros_confine_quadrature_miss_is_data(capsys):
    env = run_json(capsys, ["zeros", "confine", "--y0", "5", "--branch", "pos", "--m", "0"])
    assert env["results"]["converged"] is False
    assert env["results"]["iterations"] == 0


def test_newton_envelopes_echo_full_configuration(capsys):
    quad, newton = QuadratureConfig(), RefineConfig()
    for argv in (["zeros", "refine", "--branch", "neg", "--m", "0"],
                 ["zeros", "confine", "--y0", "0.1", "--branch", "neg", "--m", "0"]):
        echo = run_json(capsys, argv)["params_echo"]
        assert echo["tol"] == 1e-11
        assert echo["max_subdivisions"] == quad.max_subdivisions
        assert echo["safety"] == quad.truncation_safety
        assert echo["max_backtracks"] == newton.max_backtracks
        assert echo["max_iterations"] == newton.max_iterations


def test_newton_echo_key_order(capsys):
    refine = run_json(capsys, ["zeros", "refine", "--branch", "neg", "--m", "0"])
    confine = run_json(capsys, ["zeros", "confine", "--y0", "0.1", "--branch", "neg",
                                "--m", "0"])
    assert list(refine["params_echo"]) == [
        "branch", "m", "residual_tol", "residual_mode", "max_iterations",
        "max_backtracks", "max_abs_z", "tol", "max_subdivisions", "safety"]
    assert list(confine["params_echo"]) == [
        "y0", "branch", "m", "modulus_tol", "max_iterations", "max_backtracks",
        "tol", "max_subdivisions", "safety"]


def test_scan_writes_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    env = run_json(capsys, ["scan", "--y-range", "0:1", "--z-range", "2:3",
                            "--ny", "3", "--nz", "5", "--out", str(out),
                            "--tol", "1e-8"])
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3 * 5
    assert env["results"]["flagged_cells"] == 0
    assert env["results"]["min_abs_q"] > 0.0


def test_scan_writes_json(tmp_path, capsys):
    out = tmp_path / "grid.json"
    env = run_json(capsys, ["scan", "--y-range", "0:0", "--z-range", "2:3",
                            "--ny", "1", "--nz", "11", "--out", str(out),
                            "--format", "json", "--tol", "1e-8"])
    data = json.loads(out.read_text())
    assert len(data["z_values"]) == 11
    assert env["results"]["format"] == "json"


def _fake_scan(abs_q):
    """A ``modulus_scan`` stand-in returning a 1 x 2 grid with these |Q|."""
    def scan(y_range, z_range, ny, nz, cfg):
        return ScanGrid(np.array([0.0]), np.array([-2.0, 1.0]), np.array([abs_q]),
                        np.array([["ok" if math.isfinite(v) else "tol_miss" for v in abs_q]]))
    return scan


def test_scan_summary_skips_non_finite_cells(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("swallowtail.zeros.modulus_scan", _fake_scan([math.nan, 0.5]))
    env = run_json(capsys, ["scan", "--y-range", "0:0", "--z-range=-2:1", "--ny", "1",
                            "--nz", "2", "--out", str(tmp_path / "grid.csv")])
    assert env["results"]["min_abs_q"] == 0.5
    assert (env["results"]["argmin_y"], env["results"]["argmin_z"]) == (0.0, 1.0)
    assert env["results"]["flagged_cells"] == 1


def test_scan_without_a_finite_cell_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("swallowtail.zeros.modulus_scan", _fake_scan([math.nan, math.inf]))
    code, out, err = run_cli(capsys, ["scan", "--y-range", "0:0", "--z-range=-2:1",
                                      "--ny", "1", "--nz", "2",
                                      "--out", str(tmp_path / "grid.csv")])
    assert code == 3 and out == ""
    assert "finite" in err and "Traceback" not in err
    assert not (tmp_path / "grid.csv").exists()


# ------------------------------------------------------------- exit codes


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--x", "0", "--y", "0"])      # missing --z
    assert err.value.code == 2


def test_bad_range_syntax_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--y-range", "zero-to-one", "--z-range", "0:1",
              "--ny", "2", "--nz", "2", "--out", "x.csv"])
    assert err.value.code == 2


def test_degenerate_scaling_exit_2(capsys):
    code, _, err = run_cli(capsys, ["saddles", "--y", "1", "--z", "0"])
    assert code == 2
    assert "error" in err
    # exit 2 maps ValueError and DomainError, and these two are DomainErrors
    assert issubclass(swallowtail.DegenerateScaling, swallowtail.DomainError)
    assert issubclass(swallowtail.SeedOutOfRange, swallowtail.DomainError)


def test_lambda_underflow_exit_2(capsys):
    # lambda = |z|^(5/4) rounds to 0 at z = 1e-300: the error names it, not
    # ScaledParams' "lam" field
    code, out, err = run_cli(capsys, ["saddles", "--y=1", "--z=1e-300"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "underflows" in err


def test_untraceable_saddle_exit_2(capsys):
    # saddle 0 at y = 1, z = 1e-258 lies at |t_0| = 3.2e64, beyond every
    # cutoff radius whose fifth power a float holds: the error names the
    # saddle, not a cutoff_radius the caller never passed
    code, out, err = run_cli(capsys, ["trace", "--y=1", "--z=1e-258", "--saddle", "0",
                                      "--direction", "left"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "saddle 0" in err and "cutoff_radius" not in err


def test_tolerance_not_reached_exit_3(capsys):
    code, _, err = run_cli(capsys, ["eval", "--x", "0", "--y", "0", "--z", "50",
                                    "--tol", "1e-12", "--max-subdivisions", "8"])
    assert code == 3
    assert "error" in err


def test_no_convergence_exit_3(capsys):
    code, _, err = run_cli(capsys, ["zeros", "refine", "--branch", "pos",
                                    "--m", "0", "--residual-tol", "1e-17"])
    assert code == 3


def test_path_stalled_exit_4(capsys):
    # y = 4/3^(3/4) at z = 1 is the caustic, where two saddles coincide
    code, _, err = run_cli(capsys, ["trace", "--y=1.7547653506033232", "--z=1",
                                    "--saddle", "1", "--direction", "left"])
    assert code == 4


@pytest.mark.parametrize("step,cutoff", [("1e40", "1e45"), ("1e60", "4e61")])
def test_huge_step_exits_4_with_one_error_line(capsys, step, cutoff):
    code, out, err = run_cli(capsys, ["trace", "--y", "0", "--z=-1", "--saddle", "0",
                                      "--direction", "right", "--step", step,
                                      "--cutoff", cutoff])
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "could not leave saddle 0 in direction right" in err


@pytest.mark.parametrize("flag", ["--step=0", "--step=nan", "--step=-0.01", "--step=1e-8",
                                  "--cutoff=inf", "--cutoff=0", "--cutoff=nan",
                                  "--cutoff=1e100"])
def test_trace_bad_controls_exit_2(capsys, flag):
    code, out, err = run_cli(capsys, ["trace", "--y", "0", "--z=-1", "--saddle", "0",
                                      "--direction", "right", flag])
    assert code == 2
    assert out == "" and "error" in err


@pytest.mark.parametrize("y_range, z_range", [("0:nan", "1:2"), ("0:inf", "1:2"),
                                              ("0:1", "-inf:1")])
def test_scan_non_finite_range_exit_2(capsys, tmp_path, y_range, z_range):
    out = tmp_path / "g.csv"
    code, stdout, err = run_cli(capsys, ["scan", f"--y-range={y_range}", f"--z-range={z_range}",
                                         "--ny", "3", "--nz", "3", "--tol", "1e-6",
                                         "--out", str(out)])
    assert code == 2
    assert stdout == "" and "error" in err
    assert not out.exists()


# Explicit ids here and below, each the name its case has always had, so
# that deleting a case renames no other; a new case takes a new name.
@pytest.mark.parametrize("argv", [
    ["zeros", "refine", "--branch", "pos", "--m", "9", "--max-abs-z", "nan"],
    ["zeros", "refine", "--branch", "neg", "--m", "0", "--residual-tol", "nan"],
    ["zeros", "refine", "--branch", "neg", "--m", "0", "--residual-tol=-1"],
    ["zeros", "confine", "--y0", "0.3", "--branch", "pos", "--m", "0",
     "--modulus-tol", "nan"],
    ["zeros", "confine", "--y0", "nan", "--branch", "pos", "--m", "0"],
    ["zeros", "confine", "--y0", "inf", "--branch", "pos", "--m", "0"],
    ["zeros", "refine", "--branch", "pos", "--m", "0", "--max-abs-z", "inf"],
], ids=[f"argv{i}" for i in range(7)])
def test_bad_config_values_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == "" and "error" in err


def test_infinite_max_abs_z_is_refused_by_name(capsys):
    # RefineConfig accepts max_abs_z = inf, but the envelope would echo it as
    # the non-JSON token Infinity
    code, out, err = run_cli(capsys, ["zeros", "refine", "--branch", "neg", "--m", "0",
                                      "--max-abs-z", "inf"])
    assert code == 2 and out == ""
    assert "--max-abs-z" in err and "finite" in err
    assert RefineConfig(max_abs_z=math.inf).max_abs_z == math.inf


def test_flag_defaults_are_the_library_defaults():
    quad, newton = QuadratureConfig(), RefineConfig()
    trace = inspect.signature(trace_steepest).parameters
    library = {"tol": quad.target_abs_tol, "max_subdivisions": quad.max_subdivisions}
    expected = {
        ("eval", "--x", "0", "--y", "0", "--z", "1"): {**library, "form": "Q"},
        ("saddles", "--y", "0", "--z", "1"): {},
        ("trace", "--y", "0", "--z", "1", "--saddle", "0", "--direction", "left"):
            {"step": trace["step"].default, "cutoff": trace["cutoff_radius"].default},
        ("zeros", "predict", "--branch", "pos", "--m-max", "1"): {"form": "Q"},
        ("zeros", "refine", "--branch", "pos", "--m", "0"):
            {"residual_tol": newton.residual_tol, "residual_mode": newton.residual_mode,
             "max_abs_z": newton.max_abs_z, "tol": newton.quadrature.target_abs_tol},
        ("zeros", "confine", "--y0", "0", "--branch", "pos", "--m", "0"):
            {"modulus_tol": newton.residual_tol, "tol": newton.quadrature.target_abs_tol},
        ("scan", "--y-range", "0:1", "--z-range", "0:1", "--ny", "2", "--nz", "2",
         "--out", "g.csv"): {**library, "format": "csv"},
    }
    for argv, defaults in expected.items():
        args = vars(build_parser().parse_args(argv))
        given = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
        defaulted = {k: v for k, v in args.items()
                     if k not in given and k not in ("func", "command", "zeros_command")}
        assert defaulted == defaults, argv


def test_unwritable_output_exit_5(capsys):
    code, _, err = run_cli(capsys, ["scan", "--y-range", "0:1", "--z-range", "0:1",
                                    "--ny", "2", "--nz", "2", "--tol", "1e-6",
                                    "--out", "/nonexistent_dir_xyz/grid.csv"])
    assert code == 5


@pytest.mark.parametrize("z", ["1e300", "-1e300"], ids=["1e300", "-1e300"])
@pytest.mark.parametrize("command", [["eval", "--x", "0"], ["saddles"],
                                     ["trace", "--saddle", "0", "--direction", "left"]],
                         ids=["command0", "command1", "command2"])
def test_huge_z_exits_0_or_2_without_traceback(command, z):
    # lambda = |z|^(5/4) overflows a float for |z| > 4.0e246; a child process,
    # because eval at z = -1e300 also prints numpy's overflow warnings
    proc = subprocess.run([sys.executable, "-m", "swallowtail", *command, "--y", "0",
                           f"--z={z}"], capture_output=True, text=True, timeout=120,
                          env=CHILD_ENV)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0 or proc.stderr.splitlines()[-1].startswith("error: ")


def test_eval_overflow_exits_2_with_one_error_line():
    # at z = -1e300 the quadrature overflows; a child process, so that a
    # numpy warning would show on stderr
    proc = subprocess.run([sys.executable, "-m", "swallowtail", "eval", "--x", "0", "--y", "0",
                           "--z=-1e300"], capture_output=True, text=True, timeout=120,
                          env=CHILD_ENV)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [["saddles"],
                                     ["trace", "--saddle", "0", "--direction", "left"]],
                         ids=["command0", "command1"])
def test_huge_gamma_exits_2_without_warnings(command):
    # gamma = 1e300 overflowed the root polish: NaN roots, numpy warnings and
    # a bare NaN token on stdout (saddles) or exit 4 (trace); a child process,
    # so that a warning shows on stderr
    proc = subprocess.run([sys.executable, "-m", "swallowtail", *command, "--y=1e300",
                           "--z=1"], capture_output=True, text=True, timeout=120,
                          env=CHILD_ENV)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "gamma" in proc.stderr


def test_confine_seed_outside_the_box_exits_2(capsys):
    # the seed z = 29.97 of pos m = 12 lies beyond |z| = 14, the divergence box
    code, out, err = run_cli(capsys, ["zeros", "confine", "--y0", "0.3", "--branch", "pos",
                                      "--m", "12"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_result_objects_are_closed(capsys):
    from jsonschema import ValidationError
    env = run_json(capsys, ["eval", "--x", "0", "--y", "0", "--z", "0"])
    env["results"]["stray"] = 0.0
    with pytest.raises(ValidationError, match="stray"):
        validate_envelope(env)
    env = run_json(capsys, ["zeros", "predict", "--branch", "pos", "--m-max", "1"])
    env["results"]["predictions"][1]["stray"] = 0.0
    with pytest.raises(ValidationError, match="stray"):
        validate_envelope(env)


def test_refine_and_confine_evaluate_one_prediction(capsys, monkeypatch):
    calls, formula = [], asymptotics.predicted_zero

    def spy(branch, m, form=Form.Q):
        calls.append(m)
        return formula(branch, m, form)

    for module in (asymptotics, zeros):
        monkeypatch.setattr(module, "predicted_zero", spy)
    assert run_cli(capsys, ["zeros", "refine", "--branch", "neg", "--m", "3"])[0] == 0
    assert run_cli(capsys, ["zeros", "confine", "--y0", "0.2", "--branch", "pos",
                            "--m", "2"])[0] == 0
    assert calls == [3, 2]
    # a far seed is refused at once, without building the m + 1 earlier seeds
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, ["zeros", "refine", "--branch", "pos", "--m", "1000000"])
    assert code == 2 and "exceeds the feasible range" in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("command", [["refine"], ["confine", "--y0", "0.3"]],
                         ids=["command0", "command1"])
def test_m_beyond_float_range_exits_2(capsys, command):
    # (2m + 1) overflows a float; both commands evaluate the formula for m
    code, out, err = run_cli(capsys, ["zeros", *command, "--branch", "pos",
                                      "--m", str(10 ** 400)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_every_success_envelope_validates(capsys, tmp_path):
    # one invocation per command family, all validated against the schema
    invocations = [
        ["eval", "--x", "1", "--y", "1", "--z", "1"],
        ["saddles", "--y", "1", "--z", "2"],
        ["trace", "--y", "0", "--z", "1", "--saddle", "0", "--direction", "left"],
        ["zeros", "predict", "--branch", "neg", "--m-max", "1"],
        ["zeros", "refine", "--branch", "pos", "--m", "0"],
        ["zeros", "confine", "--y0", "0.1", "--branch", "neg", "--m", "0"],
        ["scan", "--y-range", "0:1", "--z-range", "1:2", "--ny", "2", "--nz", "2",
         "--out", str(tmp_path / "g.csv"), "--tol", "1e-8"],
    ]
    for argv in invocations:
        env = run_json(capsys, argv)
        assert env["tool_version"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "swallowtail", "eval",
         "--x", "0", "--y", "0", "--z", "0", "--tol", "1e-8"],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    validate_envelope(env)


def test_cli_import_leaves_jsonschema_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, swallowtail.cli; print('jsonschema' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cold_start_loads_numpy_only_to_compute():
    predict = ["zeros", "predict", "--branch", "neg", "--m-max", "3", "--form", "S"]
    runs = {
        "import": ["-c", "import swallowtail"],
        "predict": ["-m", "swallowtail", *predict],
        "version": ["-m", "swallowtail", "--version"],
        "help": ["-m", "swallowtail", "--help"],
        # what the [project.scripts] wrapper runs
        "entry point": ["-c", f"import sys; from swallowtail.cli import main; "
                              f"sys.exit(main({predict!r}))"],
        "eval": ["-m", "swallowtail", "eval", "--x", "0", "--y", "0", "--z", "0",
                 "--tol", "1e-6"],
        # the saddle quartic is solved in pure Python
        "saddles": ["-m", "swallowtail", "saddles", "--y", "1", "--z", "2"],
        "trace": ["-m", "swallowtail", "trace", "--y", "0.5", "--z=-1", "--saddle", "1",
                  "--direction", "right"],
    }
    # all children at once; -X importtime lists every module each one imports
    procs = {name: subprocess.Popen([sys.executable, "-X", "importtime", *argv],
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    text=True, env=CHILD_ENV)
             for name, argv in runs.items()}
    loaded = {}
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        loaded[name] = any(line.rsplit("|", 1)[-1].strip() == "numpy"
                           for line in err.splitlines() if line.startswith("import time:"))
    assert loaded == {name: name == "eval" for name in runs}


def test_closed_stdout_exits_1_without_traceback():
    # the 3001 predictions (390 692 bytes) are far larger than a pipe buffer,
    # so the CLI is still writing when the reader stops after one line, as
    # `| head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "swallowtail", "zeros", "predict", "--branch", "pos",
         "--m-max", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV)
    try:
        assert proc.stdout.readline().strip() == "{"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert "Traceback" not in err
    assert proc.returncode == 1
