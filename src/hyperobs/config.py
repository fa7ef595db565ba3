"""Experiment configuration: JSON schema, validation, and object builders.

A config file fully determines one experiment: the hypergraph (inline, or
from a file, which ``hyperobs generate`` can write), the node dynamics, the
observer-design options, the simulation protocol, and an optional batch
sweep.  Unknown keys are rejected.

The schemas are Draft 2020-12 documents, read by a small interpreter so that
the runtime imports numpy alone.  It knows only the keywords they use and
raises on any other; ``const`` and ``enum`` compare types too, and
``integer`` means an integer literal, not 3.0, which would reach ``range``.
A network file is checked in one pass over each of its lists, with the
interpreter's verdict (``_network_ok``); the interpreter walks it element
by element only to word a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from itertools import chain, repeat
from pathlib import Path

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
from .hypergraph import DirectedHypergraph
from .sim import SimConfig, TrajectoryEnsembleSpec


class ConfigError(ValueError):
    pass


# each model name, per kind, with its factory and the number of parameters
# the factory takes; the schema's enums are the names
_FIELDS = {"lorenz": (lorenz_field, 3), "bistable": (bistable_field, 2)}
_COUPLINGS = {"tanh": (tanh_coupling, 3), "linear": (linear_coupling, 1)}


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
                        "name": {"enum": list(_FIELDS)},
                        "params": {"type": "array", "items": {"type": "number"}},
                    },
                },
                "coupling": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["name", "params"],
                    "properties": {
                        "name": {"enum": list(_COUPLINGS)},
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
                        "seed": {"type": "integer", "minimum": 0},
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
                "seed": {"type": "integer", "minimum": 0},
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


# JSON type -> Python types, matched exactly: True is no number, 3.0 no integer
_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "boolean": (bool,),
          "null": (type(None),), "number": (int, float), "integer": (int,)}
# keyword -> (type it bounds, comparison that holds; arrays and objects compare their size)
_BOUNDS = {"minimum": ("number", operator.ge), "exclusiveMinimum": ("number", operator.gt),
           "minItems": ("array", operator.ge), "maxItems": ("array", operator.le),
           "minProperties": ("object", operator.ge), "maxProperties": ("object", operator.le)}


def _violation(schema: dict, x, path: str = "$") -> str | None:
    """The first violation of ``schema`` by ``x`` in schema order, as "json-path:
    message", or None; ValueError on a keyword outside the subset."""
    for key, rule in schema.items():
        if key == "type":
            allowed = _TYPES[rule] if isinstance(rule, str) else sum((_TYPES[t] for t in rule), ())
            if type(x) not in allowed:
                return f"{path}: {x!r} is not of type {rule!r}"
        elif key in ("const", "enum"):
            if not any(type(x) is type(v) and x == v for v in ([rule] if key == "const" else rule)):
                return f"{path}: {x!r} breaks {key} {rule!r}"
        elif key in _BOUNDS:
            kind, holds = _BOUNDS[key]
            if type(x) in _TYPES[kind] and not holds(x if kind == "number" else len(x), rule):
                return f"{path}: {x!r} breaks {key} {rule!r}"
        elif key == "required":
            if missing := [k for k in rule if type(x) is dict and k not in x]:
                return f"{path}: {missing[0]!r} is a required property"
        elif key == "additionalProperties" and rule is False:
            known = schema.get("properties", ())
            if extra := [k for k in (x if type(x) is dict else ()) if k not in known]:
                return f"{path}: Additional properties are not allowed ({extra[0]!r} was unexpected)"
        elif key == "items":
            for i, item in enumerate(x if type(x) is list else ()):
                if found := _violation(rule, item, f"{path}[{i}]"):
                    return found
        elif key == "properties":
            for k, sub in rule.items():
                if type(x) is dict and k in x and (found := _violation(sub, x[k], f"{path}.{k}")):
                    return found
        elif key != "$schema":
            raise ValueError(f"schema keyword {key!r} is not supported")
    return None


def _network_ok(doc) -> bool:
    """Whether ``_violation(_HYPERGRAPH_INLINE_SCHEMA, doc)`` is None, from one
    pass over each list of the network document: its edges' keys, then each
    edge key's values and, for a list, their items, by type, as ``_TYPES``
    matches them, and by each bound of ``_BOUNDS``, which NaN fails."""
    required, rules = set(_HYPEREDGE_SCHEMA["required"]), _HYPEREDGE_SCHEMA["properties"]
    if not (type(doc) is dict and doc.keys() == _HYPERGRAPH_INLINE_SCHEMA["properties"].keys()
            and type(doc["num_nodes"]) is int and doc["num_nodes"] >= 0
            and type(edges := doc["edges"]) is list and set(map(type, edges)) <= {dict}
            and set().union(*edges) <= rules.keys() and all(map(required.issubset, edges))):
        return False
    for key, rule in rules.items():
        values = [edge[key] for edge in edges if key in edge]
        if rule["type"] == "array":
            lists, rule = values, rule["items"]
            values = list(chain.from_iterable(lists)) if set(map(type, lists)) <= {list} else [None]
        if not set(map(type, values)) <= set(_TYPES[rule["type"]]) or not all(
                all(map(_BOUNDS[kw][1], values, repeat(bound)))
                for kw, bound in rule.items() if kw in _BOUNDS):
            return False
    return True


def validate_config(doc: dict) -> dict:
    if error := _violation(CONFIG_SCHEMA, doc):
        raise ConfigError(f"invalid config: {error}")
    return doc


def validate_generator_spec(doc: dict) -> dict:
    if error := _violation(_GENERATOR_SCHEMA, doc):
        raise ConfigError(f"invalid generator spec: {error}")
    return doc


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} does not fit in a float")
    return value


def _float_sized_int(text: str) -> int:
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"integer of {len(text)} characters does not fit in a float") from None
    return value


def read_json(path: str | Path):
    """The JSON document in a file; ValueError on NaN or +-Infinity, which
    ``json`` reads though JSON has no such literal, and on a number literal
    too large for a float (``1e999`` would read as inf).  All of these slip
    past the schema's lower bounds."""
    return json.loads(
        Path(path).read_text(),
        parse_constant=_reject_constant,
        parse_float=_finite_float,
        parse_int=_float_sized_int,
    )


def load_config(path: str | Path) -> dict:
    try:
        doc = read_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(doc)


def resolve_hypergraph(doc: dict, base_dir: Path) -> DirectedHypergraph:
    """The configured hypergraph; any input the hypergraph types reject (a
    weight sum, an out-of-range node, an unreadable file) and a network with
    no nodes, which nothing downstream can design for, are ConfigErrors."""
    section = doc["hypergraph"]
    try:
        if "file" in section:
            path = Path(section["file"])
            if not path.is_absolute():
                path = base_dir / path
            file_doc = read_json(path)
            # a hypergraph file holds what the inline form holds
            if not _network_ok(file_doc) and (
                    error := _violation(_HYPERGRAPH_INLINE_SCHEMA, file_doc)):
                raise ValueError(f"file {path}: {error}")
            hypergraph = DirectedHypergraph.from_json_dict(file_doc)
        else:
            hypergraph = DirectedHypergraph.from_json_dict(section["inline"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"invalid config: hypergraph: {exc}") from exc
    if hypergraph.num_nodes == 0:
        raise ConfigError("invalid config: hypergraph: the network has no nodes")
    return hypergraph


def build_system(doc: dict, hypergraph: DirectedHypergraph) -> NetworkSystem:
    """The configured network; a value the dynamics types reject (an output
    matrix of the wrong shape, a nonpositive field parameter) is a
    ConfigError."""
    dyn = doc["dynamics"]
    for kind, models in (("field", _FIELDS), ("coupling", _COUPLINGS)):
        name, params = dyn[kind]["name"], dyn[kind]["params"]
        k = models[name][1]
        if len(params) != k:
            raise ConfigError(f"{name} {kind} takes {k} parameter{'s' * (k != 1)}")
    try:
        field = _FIELDS[dyn["field"]["name"]][0](*dyn["field"]["params"])
        coupling = _COUPLINGS[dyn["coupling"]["name"]][0](*dyn["coupling"]["params"])
        out = dyn["output"]
        n = field.state_dim
        output = identity_output(n) if "identity" in out else linear_output(out["matrix"])
        # NetworkSystem rejects an output matrix whose width is not n
        return NetworkSystem(hypergraph, field, coupling, output)
    except ValueError as exc:
        raise ConfigError(f"invalid config: dynamics: {exc}") from exc


# config key -> SimConfig field; SimConfig supplies the default of every
# field the config leaves out
_SIM_FIELDS = {
    "dt": "dt", "horizon": "horizon", "seed": "seed", "x0_box": "x0_box",
    "observer_init_width": "observer_init_width", "noise": "noise_amplitude",
    "param_spread": "param_rel_spread",
}


def build_design_options(doc: dict) -> DesignOptions:
    # the schema's design keys are DesignOptions fields, trajectories aside, and
    # seed, which no design step reads; the schema keeps it for configs that set it
    return DesignOptions(**{k: v for k, v in doc["design"].items()
                            if k not in ("trajectories", "seed")})


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
