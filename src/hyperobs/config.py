"""Experiment configuration: JSON schema, validation, and object builders.

A config file fully determines one experiment: the hypergraph (inline, from a
file, or generated), the node dynamics, the observer-design options, the
simulation protocol, and an optional batch sweep.  Unknown keys are rejected.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema
import numpy as np

from .designer import DesignOptions
from .dynamics import (
    NetworkSystem,
    bistable_field,
    identity_output,
    linear_coupling,
    linear_output,
    lorenz_field,
    tanh_coupling,
)
from .hypergraph import DirectedHypergraph, HierarchicalGenSpec, generate_hierarchical
from .sim import SimConfig, TrajectoryEnsembleSpec


class ConfigError(ValueError):
    pass


_BOX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_GENERATOR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["layer_sizes", "cardinality", "src_intra", "snk_intra",
                 "src_inter", "snk_inter", "seed"],
    "properties": {
        "layer_sizes": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "cardinality": {"type": "integer", "minimum": 2},
        "src_intra": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "snk_intra": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "src_inter": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "snk_inter": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "seed": {"type": "integer"},
        "sigma": {"type": "number", "exclusiveMinimum": 0},
    },
}

_HYPEREDGE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["tails", "heads", "alpha", "beta"],
    "properties": {
        "tails": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "heads": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "alpha": {"type": "array", "items": {"type": "number"}},
        "beta": {"type": "array", "items": {"type": "number"}},
        "sigma": {"type": "number", "exclusiveMinimum": 0},
    },
}

_HYPERGRAPH_INLINE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["num_nodes", "edges"],
    "properties": {
        "num_nodes": {"type": "integer", "minimum": 0},
        "edges": {"type": "array", "items": _HYPEREDGE_SCHEMA},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["hypergraph", "dynamics", "design", "sim"],
    "properties": {
        "name": {"type": "string"},
        "hypergraph": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "file": {"type": "string"},
                "inline": _HYPERGRAPH_INLINE_SCHEMA,
                "generator": _GENERATOR_SCHEMA,
            },
        },
        "dynamics": {
            "type": "object",
            "additionalProperties": False,
            "required": ["field", "coupling", "output"],
            "properties": {
                "field": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["name", "params"],
                    "properties": {
                        "name": {"enum": ["lorenz", "bistable"]},
                        "params": {"type": "array", "items": {"type": "number"}},
                    },
                },
                "coupling": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["name", "params"],
                    "properties": {
                        "name": {"enum": ["tanh", "linear"]},
                        "params": {"type": "array", "items": {"type": "number"}},
                    },
                },
                "output": {
                    "type": "object",
                    "additionalProperties": False,
                    "minProperties": 1,
                    "maxProperties": 1,
                    "properties": {
                        "identity": {"const": True},
                        "matrix": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "number"}},
                        },
                    },
                },
            },
        },
        "design": {
            "type": "object",
            "additionalProperties": False,
            "required": ["margin", "trajectories"],
            "properties": {
                "margin": {"type": "number", "exclusiveMinimum": 0},
                "use_inverse_shortcut": {"type": ["boolean", "null"]},
                "max_iters": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "trajectories": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["count", "horizon", "dt"],
                    "properties": {
                        "count": {"type": "integer", "minimum": 1},
                        "horizon": {"type": "number", "exclusiveMinimum": 0},
                        "dt": {"type": "number", "exclusiveMinimum": 0},
                        "subsample": {"type": "integer", "minimum": 1},
                        "box": _BOX,
                        "seed": {"type": "integer"},
                        "burn_in": {"type": "number", "minimum": 0},
                    },
                },
            },
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dt", "horizon", "runs"],
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "runs": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "x0_box": _BOX,
                "observer_init_width": {"type": "number", "minimum": 0},
                "noise": {"type": "number", "minimum": 0},
                "param_spread": {"type": "number", "minimum": 0},
                "downsample_rows": {"type": "integer", "minimum": 2},
            },
        },
        "batch": {
            "type": "object",
            "additionalProperties": False,
            "required": ["variable", "values"],
            "properties": {
                "variable": {"enum": ["observer_init_width", "noise", "param_spread"]},
                "values": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1,
                },
            },
        },
    },
}


# built once: jsonschema.validate would check the schema itself on every call
_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
# a hypergraph file holds the document the inline form holds
_HYPERGRAPH_VALIDATOR = jsonschema.Draft202012Validator(_HYPERGRAPH_INLINE_SCHEMA)


def validate_config(doc: dict) -> dict:
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise ConfigError(f"invalid config: {error.message}")
    return doc


def load_config(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(doc)


def resolve_hypergraph(doc: dict, base_dir: Path, seed_override: int | None = None) -> DirectedHypergraph:
    """The configured hypergraph; any input the hypergraph types reject (a
    weight sum, an out-of-range node, an unreadable file) is a ConfigError."""
    section = doc["hypergraph"]
    try:
        if "file" in section:
            path = Path(section["file"])
            if not path.is_absolute():
                path = base_dir / path
            file_doc = json.loads(path.read_text())
            try:
                return DirectedHypergraph.from_json_dict(file_doc)
            except (KeyError, TypeError) as exc:
                # the schema only explains a document the builder cannot
                # read: run on every file, it would take 0.12 s for the 716
                # edges of the bistable1000 benchmark network
                error = jsonschema.exceptions.best_match(
                    _HYPERGRAPH_VALIDATOR.iter_errors(file_doc)
                )
                raise ValueError(f"file {path}: {error.message if error else exc!r}") from exc
        if "inline" in section:
            return DirectedHypergraph.from_json_dict(section["inline"])
        spec_doc = dict(section["generator"])
        if seed_override is not None:
            spec_doc["seed"] = seed_override
        return generate_hierarchical(HierarchicalGenSpec.from_json_dict(spec_doc))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"invalid config: hypergraph: {exc}") from exc


def build_system(doc: dict, hypergraph: DirectedHypergraph) -> NetworkSystem:
    """The configured network; a value the dynamics types reject (an output
    matrix of the wrong shape, a nonpositive field parameter) is a
    ConfigError."""
    dyn = doc["dynamics"]
    fname, fparams = dyn["field"]["name"], dyn["field"]["params"]
    cname, cparams = dyn["coupling"]["name"], dyn["coupling"]["params"]
    try:
        if fname == "lorenz":
            if len(fparams) != 3:
                raise ConfigError("lorenz field takes 3 parameters")
            field = lorenz_field(*fparams)
        else:
            if len(fparams) != 2:
                raise ConfigError("bistable field takes 2 parameters")
            field = bistable_field(*fparams)
        if cname == "tanh":
            if len(cparams) != 3:
                raise ConfigError("tanh coupling takes 3 parameters")
            coupling = tanh_coupling(*cparams)
        else:
            if len(cparams) != 1:
                raise ConfigError("linear coupling takes 1 parameter")
            coupling = linear_coupling(cparams[0])
        out = dyn["output"]
        n = field.state_dim
        output = identity_output(n) if "identity" in out else linear_output(out["matrix"])
        # NetworkSystem rejects an output matrix whose width is not n
        return NetworkSystem(hypergraph, field, coupling, output)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid config: dynamics: {exc}") from exc


# config key -> SimConfig field; SimConfig supplies the default of every
# field the config leaves out
_SIM_FIELDS = {
    "dt": "dt", "horizon": "horizon", "seed": "seed", "x0_box": "x0_box",
    "observer_init_width": "observer_init_width", "noise": "noise_amplitude",
    "param_spread": "param_rel_spread",
}


def build_design_options(doc: dict, seed_override: int | None = None) -> DesignOptions:
    # the schema's design keys are DesignOptions fields, trajectories aside
    kwargs = {k: v for k, v in doc["design"].items() if k != "trajectories"}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return DesignOptions(**kwargs)


def build_ensemble_spec(doc: dict) -> TrajectoryEnsembleSpec:
    kwargs = dict(doc["design"]["trajectories"])
    if "box" in kwargs:
        kwargs["box"] = tuple(kwargs["box"])
    try:
        return TrajectoryEnsembleSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid config: design.trajectories: {exc}") from exc


def build_sim_config(doc: dict, **overrides) -> SimConfig:
    """SimConfig from the ``sim`` section; ``overrides`` replace its keys
    (config-key names, e.g. ``noise``, not ``noise_amplitude``)."""
    sim = {**doc["sim"], **overrides}
    kwargs = {field: sim[key] for key, field in _SIM_FIELDS.items() if key in sim}
    if "x0_box" in kwargs:
        kwargs["x0_box"] = tuple(kwargs["x0_box"])
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid config: sim: {exc}") from exc


def design_relevant_hash(doc: dict, hypergraph: DirectedHypergraph) -> str:
    """Hash of the sections a design depends on, with the hypergraph resolved
    so file-based and inline configs compare by content."""
    payload = {
        "hypergraph": hypergraph.to_json_dict(),
        "dynamics": doc["dynamics"],
        "design": doc["design"],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
