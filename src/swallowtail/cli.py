"""Command-line interface.

Every command prints one JSON envelope (see ``schema``) to stdout.  Exit
codes: 0 success, 1 stdout closed early (broken pipe), 2 bad flags or
out-of-domain input, 3 tolerance or convergence failure, 4 stalled path
tracing, 5 unwritable output path.

Start-up cost is paid per command: each ``cmd_*`` imports the library
functions it runs, and the parser reads its defaults from numpy-free
modules.  ``zeros predict``, ``saddles``, ``trace``, ``--help`` and
``--version`` never load numpy; ``eval``, ``zeros refine``, ``zeros confine``
and ``scan`` load it when they compute.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import __version__
from .errors import (
    DomainError,
    NoConvergence,
    PathStalled,
    ToleranceNotReached,
)
from .params import Form, Params, QuadratureConfig, RefineConfig
from .saddle import trace_steepest
from .schema import ENVELOPE_SCHEMA_VERSION

EXIT_BROKEN_PIPE = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PATH_STALLED = 4
EXIT_UNWRITABLE = 5


def _branch(choice: str):
    """The ``Branch`` that a ``--branch`` choice ("pos" or "neg") names."""
    from .asymptotics import Branch
    return Branch.POSITIVE_Z if choice == "pos" else Branch.NEGATIVE_Z


def _emit(command: str, params_echo: dict, results: dict) -> None:
    envelope = {
        "command": command,
        "params_echo": params_echo,
        "results": results,
        "tool_version": __version__,
        "schema_version": ENVELOPE_SCHEMA_VERSION,
    }
    json.dump(envelope, sys.stdout, indent=2)
    sys.stdout.write("\n")
    sys.stdout.flush()      # a closed pipe surfaces inside main, not at exit


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(
        target_abs_tol=args.tol,
        max_subdivisions=args.max_subdivisions,
    )


def _quad_echo(cfg: QuadratureConfig) -> dict:
    return {"tol": cfg.target_abs_tol, "max_subdivisions": cfg.max_subdivisions,
            "safety": cfg.truncation_safety}


def _refine_echo(cfg: RefineConfig, tol_key: str, *fields: str) -> dict:
    """The Newton part of ``params_echo``, read from ``cfg``: the residual
    tolerance under the command's own flag name, the named ``RefineConfig``
    fields in order, then the quadrature echo."""
    return {tol_key: cfg.residual_tol, **{name: getattr(cfg, name) for name in fields},
            **_quad_echo(cfg.quadrature)}


def _add_quad_flags(parser):
    parser.add_argument("--tol", type=float, default=QuadratureConfig.target_abs_tol,
                        help="absolute quadrature tolerance (default %(default)s)")
    parser.add_argument("--max-subdivisions", type=int,
                        default=QuadratureConfig.max_subdivisions,
                        help="panel budget per contour ray (default %(default)s)")


def _scaled(args):
    from .saddle import scale
    return scale(Params(0.0, args.y, args.z))


def cmd_eval(args) -> int:
    from .oracle import eval_q, eval_s
    cfg = _quad_config(args)
    p = Params(args.x, args.y, args.z, Form(args.form))
    result = eval_s(p, cfg) if p.form is Form.S else eval_q(p, cfg)
    _emit("eval", {
        "x": args.x, "y": args.y, "z": args.z, "form": args.form, **_quad_echo(cfg),
    }, {
        "re": result.value.real,
        "im": result.value.imag,
        "abs": abs(result.value),
        "abs_error_estimate": result.abs_error_estimate,
        "subdivisions_used": result.subdivisions_used,
    })
    return 0


def cmd_saddles(args) -> int:
    from .saddle import caustic_gamma, saddles
    sp = _scaled(args)
    sset = saddles(sp)
    def opt(v):
        return None if math.isnan(v) else v
    _emit("saddles", {"x": 0.0, "y": args.y, "z": args.z}, {
        "roots": [[t.real, t.imag] for t in sset.roots],
        "regime": sset.regime.value,
        "p": opt(sset.p), "q1": opt(sset.q1), "q2": opt(sset.q2),
        "caustic_gamma": caustic_gamma(),
        "lambda": sp.lam,
        "gamma": sp.gamma,
    })
    return 0


def cmd_trace(args) -> int:
    from .saddle import VALLEY_ANGLES, Direction
    sp = _scaled(args)
    path = trace_steepest(sp, args.saddle, Direction(args.direction),
                          step=args.step, cutoff_radius=args.cutoff)
    _emit("trace", {
        "x": 0.0, "y": args.y, "z": args.z, "saddle": args.saddle,
        "direction": args.direction, "step": args.step, "cutoff": args.cutoff,
    }, {
        "saddle_index": path.saddle_index,
        "direction": args.direction,
        "terminal_sector": path.terminal_sector,
        "terminal_angle": VALLEY_ANGLES[path.terminal_sector],
        "points": path.to_polyline(),
    })
    return 0


def cmd_zeros_predict(args) -> int:
    from .asymptotics import predicted_zeros
    preds = predicted_zeros(_branch(args.branch), args.m_max, Form(args.form))
    _emit("zeros-predict", {
        "branch": args.branch, "m_max": args.m_max, "form": args.form,
    }, {
        "predictions": [
            {"branch": p.branch.value, "m": p.m, "z_predicted": p.z_predicted,
             "form": p.form.value}
            for p in preds
        ],
    })
    return 0


def cmd_zeros_refine(args) -> int:
    from .asymptotics import predicted_zero
    from .zeros import refine_on_axis
    if not math.isfinite(args.max_abs_z):   # the echo must stay RFC 8259 JSON
        raise ValueError(f"--max-abs-z must be finite, got {args.max_abs_z!r}")
    cfg = RefineConfig(
        residual_tol=args.residual_tol,
        residual_mode=args.residual_mode,
        max_abs_z=args.max_abs_z,
        quadrature=QuadratureConfig(target_abs_tol=args.tol),
    )
    seed = predicted_zero(_branch(args.branch), args.m)
    refined = refine_on_axis(seed, cfg)
    _emit("zeros-refine", {
        "branch": args.branch, "m": args.m,
        **_refine_echo(cfg, "residual_tol", "residual_mode", "max_iterations",
                       "max_backtracks", "max_abs_z"),
    }, {
        "branch": refined.branch.value,
        "m": refined.m,
        "seed_z": seed.z_predicted,
        "z": refined.z,
        "residual": refined.residual,
        "iterations": refined.iterations,
    })
    return 0


def cmd_zeros_confine(args) -> int:
    from .zeros import axis_confinement_scan
    cfg = RefineConfig(
        residual_tol=args.modulus_tol,
        quadrature=QuadratureConfig(target_abs_tol=args.tol),
    )
    record = axis_confinement_scan(args.y0, _branch(args.branch), args.m, cfg)
    _emit("zeros-confine", {
        "y0": args.y0, "branch": args.branch, "m": args.m,
        **_refine_echo(cfg, "modulus_tol", "max_iterations", "max_backtracks"),
    }, dataclasses.asdict(record))
    return 0


def _parse_range(text: str):
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a range like 'a:b', got {text!r}") from exc


def cmd_scan(args) -> int:
    from .zeros import modulus_scan
    cfg = _quad_config(args)
    grid = modulus_scan(args.y_range, args.z_range, args.ny, args.nz, cfg)
    try:
        ay, az = grid.argmin_cell()
    except ValueError as exc:
        # every cell is NaN or inf: a summary would be NaN, which is not JSON
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    try:
        if args.format == "csv":
            grid.to_csv(args.out)
        else:
            grid.to_json(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    _emit("scan", {
        "y_range": list(args.y_range), "z_range": list(args.z_range),
        "ny": args.ny, "nz": args.nz, "out": args.out, "format": args.format,
        **_quad_echo(cfg),
    }, {
        "out_path": args.out,
        "format": args.format,
        "ny": args.ny,
        "nz": args.nz,
        "min_abs_q": grid.min_abs_q,
        "argmin_y": ay,
        "argmin_z": az,
        "flagged_cells": grid.flagged_cells,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swallowtail",
        description="Evaluate the swallowtail diffraction integral, analyse its "
                    "saddle points and locate its zeros.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # flag defaults are the library's own
    newton, trace_defaults = RefineConfig(), trace_steepest.__kwdefaults__

    p_eval = sub.add_parser("eval", help="evaluate S or Q at a point")
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--y", type=float, required=True)
    p_eval.add_argument("--z", type=float, required=True)
    p_eval.add_argument("--form", choices=["S", "Q"], default="Q")
    _add_quad_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sad = sub.add_parser("saddles", help="saddle points of the scaled phase (x = 0)")
    p_sad.add_argument("--y", type=float, required=True)
    p_sad.add_argument("--z", type=float, required=True)
    p_sad.set_defaults(func=cmd_saddles)

    p_trace = sub.add_parser("trace", help="trace one steepest-descent branch")
    p_trace.add_argument("--y", type=float, required=True)
    p_trace.add_argument("--z", type=float, required=True)
    p_trace.add_argument("--saddle", type=int, choices=range(4), required=True)
    p_trace.add_argument("--direction", choices=["left", "right"], required=True)
    p_trace.add_argument("--step", type=float, default=trace_defaults["step"],
                         help="step near the saddles, at least 1e-7; elsewhere it grows "
                              "to a 15th of the distance to the nearest other saddle")
    p_trace.add_argument("--cutoff", type=float, default=trace_defaults["cutoff_radius"])
    p_trace.set_defaults(func=cmd_trace)

    p_zeros = sub.add_parser("zeros", help="predict, refine and test axis zeros")
    zsub = p_zeros.add_subparsers(dest="zeros_command", required=True)

    p_pred = zsub.add_parser("predict", help="closed-form zero predictions")
    p_pred.add_argument("--branch", choices=["pos", "neg"], required=True)
    p_pred.add_argument("--m-max", type=int, required=True)
    p_pred.add_argument("--form", choices=["S", "Q"], default="Q")
    p_pred.set_defaults(func=cmd_zeros_predict)

    p_ref = zsub.add_parser("refine", help="Newton-refine one predicted zero")
    p_ref.add_argument("--branch", choices=["pos", "neg"], required=True)
    p_ref.add_argument("--m", type=int, required=True)
    p_ref.add_argument("--residual-tol", type=float, default=newton.residual_tol)
    p_ref.add_argument("--residual-mode", choices=["abs", "rel"],
                       default=newton.residual_mode,
                       help="'rel' scales the tolerance by the local envelope "
                            "(meaningful for large positive z)")
    p_ref.add_argument("--max-abs-z", type=float, default=newton.max_abs_z)
    p_ref.add_argument("--tol", type=float, default=newton.quadrature.target_abs_tol,
                       help="quadrature tolerance used inside Newton")
    p_ref.set_defaults(func=cmd_zeros_refine)

    p_conf = zsub.add_parser("confine", help="2D Newton run seeded off the axis")
    p_conf.add_argument("--y0", type=float, required=True)
    p_conf.add_argument("--branch", choices=["pos", "neg"], required=True)
    p_conf.add_argument("--m", type=int, required=True)
    p_conf.add_argument("--modulus-tol", type=float, default=newton.residual_tol)
    p_conf.add_argument("--tol", type=float, default=newton.quadrature.target_abs_tol)
    p_conf.set_defaults(func=cmd_zeros_confine)

    p_scan = sub.add_parser("scan", help="|Q| on a (y, z) grid, exported to a file")
    p_scan.add_argument("--y-range", type=_parse_range, required=True)
    p_scan.add_argument("--z-range", type=_parse_range, required=True)
    p_scan.add_argument("--ny", type=int, required=True)
    p_scan.add_argument("--nz", type=int, required=True)
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_quad_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader left (`| head`); as the Python docs on SIGPIPE advise,
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ToleranceNotReached, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except PathStalled as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PATH_STALLED


if __name__ == "__main__":
    sys.exit(main())
