"""Versioned JSON schemas for the CLI output envelope.

Every command prints a single JSON object:

    {"command": ..., "params_echo": {...}, "results": {...}, "tool_version": ...}

``params_echo`` repeats the full effective configuration (including every
defaulted tolerance) so any reported number can be reproduced from its
command line alone.  ``validate_envelope`` checks the envelope and then the
command-specific results payload.
"""

from __future__ import annotations

ENVELOPE_SCHEMA_VERSION = "1"

_COMPLEX_PAIR = {
    "type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2,
}


def _object(properties: dict) -> dict:
    """A closed object schema: every listed property required, no other key."""
    return {"type": "object", "required": list(properties), "properties": properties,
            "additionalProperties": False}


RESULT_SCHEMAS = {
    "eval": _object({
        "re": {"type": "number"},
        "im": {"type": "number"},
        "abs": {"type": "number", "minimum": 0},
        "abs_error_estimate": {"type": "number", "minimum": 0},
        "subdivisions_used": {"type": "integer", "minimum": 1},
    }),
    "saddles": _object({
        "roots": {"type": "array", "items": _COMPLEX_PAIR,
                  "minItems": 4, "maxItems": 4},
        "regime": {"type": "string"},
        "p": {"type": ["number", "null"]},
        "q1": {"type": ["number", "null"]},
        "q2": {"type": ["number", "null"]},
        "caustic_gamma": {"type": "number"},
        "lambda": {"type": "number"},
        "gamma": {"type": "number"},
    }),
    "trace": _object({
        "saddle_index": {"type": "integer", "minimum": 0, "maximum": 3},
        "direction": {"type": "string", "enum": ["left", "right"]},
        "terminal_sector": {"type": "integer", "minimum": 0, "maximum": 4},
        "terminal_angle": {"type": "number"},
        "points": {"type": "array", "items": _COMPLEX_PAIR, "minItems": 2},
    }),
    "zeros-predict": _object({
        "predictions": {
            "type": "array",
            "items": _object({
                "branch": {"type": "string"},
                "m": {"type": "integer", "minimum": 0},
                "z_predicted": {"type": "number"},
                "form": {"type": "string", "enum": ["S", "Q"]},
            }),
        },
    }),
    "zeros-refine": _object({
        "branch": {"type": "string"},
        "m": {"type": "integer", "minimum": 0},
        "seed_z": {"type": "number"},
        "z": {"type": "number"},
        "residual": {"type": "number", "minimum": 0},
        "iterations": {"type": "integer", "minimum": 0},
    }),
    "zeros-confine": _object({
        "seed_y": {"type": "number"},
        "seed_z": {"type": "number"},
        "converged": {"type": "boolean"},
        "final_y": {"type": "number"},
        "final_z": {"type": "number"},
        "final_modulus": {"type": "number", "minimum": 0},
        "iterations": {"type": "integer", "minimum": 0},
    }),
    "scan": _object({
        "out_path": {"type": "string"},
        "format": {"type": "string", "enum": ["csv", "json"]},
        "ny": {"type": "integer", "minimum": 1},
        "nz": {"type": "integer", "minimum": 1},
        "min_abs_q": {"type": "number"},
        "argmin_y": {"type": "number"},
        "argmin_z": {"type": "number"},
        "flagged_cells": {"type": "integer", "minimum": 0},
    }),
}

ENVELOPE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "params_echo", "results", "tool_version"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string", "enum": list(RESULT_SCHEMAS)},
        "params_echo": {"type": "object"},
        "results": {"type": "object"},
        "tool_version": {"type": "string"},
        "schema_version": {"type": "string"},
    },
}


def validate_envelope(envelope: dict) -> None:
    """Raise jsonschema.ValidationError if the envelope is malformed."""
    import jsonschema       # here, not at module level: the CLI starts without it
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    jsonschema.validate(envelope["results"], RESULT_SCHEMAS[envelope["command"]])
