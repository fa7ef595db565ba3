"""The config schema interpreter against jsonschema, the reference it replaces,
and the runtime's dependency set."""

import ast
import copy
import json
import math
import random
import re
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperobs
from hyperobs.config import (
    _GENERATOR_SCHEMA,
    _HYPERGRAPH_INLINE_SCHEMA,
    CONFIG_SCHEMA,
    _network_ok,
    _violation,
)
from hyperobs.hypergraph import HierarchicalGenSpec, generate_hierarchical
from test_config_cli import BENCH_WORKLOADS, cohead_config

ROOT = Path(__file__).resolve().parents[1]


def _bench_documents():
    """(schema, document) pairs: the bench config with its optional keys set,
    an inline-network config, the generator spec and its network."""
    spec, config = BENCH_WORKLOADS["lorenz12-partial"](1)
    spec = {**spec, "sigma": 2.0}
    config["design"]["use_inverse_shortcut"] = None
    config["design"]["trajectories"]["burn_in"] = 0.0
    config["sim"].update(param_spread=0.0, downsample_rows=100)
    config["batch"] = {"variable": "noise", "values": [0.0, 0.1]}
    network = generate_hierarchical(HierarchicalGenSpec(**spec)).to_json_dict()
    # three of its 14 edges: a mutant changes one position, and every edge is
    # checked against one schema
    network["edges"] = network["edges"][:3]
    inline = cohead_config()
    inline["dynamics"]["output"] = {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
    return [(CONFIG_SCHEMA, config), (CONFIG_SCHEMA, inline),
            (_GENERATOR_SCHEMA, spec), (_HYPERGRAPH_INLINE_SCHEMA, network)]


def _positions(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _positions(value, (*path, key))


# JSON values that are right at some keys and wrong at others; the integral
# floats sit where integers and numbers are read
VALUES = [0, 1, 2, -1, 100, 0.0, 1.0, 3.0, -2.0, 0.5, -0.5, 1e9, True, False, None,
          "", "x", "lorenz", "bistable", "tanh", "noise", "network.json",
          [], [1], [1.0, 2.0], [0, 1], [[1.0, 0.0, 0.0]], ["0"], {}, {"identity": True},
          {"num_nodes": 1, "edges": []}]
KEYS = ["typo", "seed", "sigma", "file", "inline", "identity", "matrix", "batch", "burn_in"]


def _mutant(doc, positions, rng: random.Random):
    """A copy of ``doc`` with one of its ``positions`` replaced, removed or
    given a sibling."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(positions)
    value = copy.deepcopy(rng.choice(VALUES))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    target, op = parent[path[-1]], rng.random()
    if op < 0.6:
        parent[path[-1]] = value
    elif op < 0.8:
        del parent[path[-1]]
    elif isinstance(target, dict):
        target[rng.choice(KEYS)] = value
    elif isinstance(target, list):
        target.append(value)
    else:
        parent[path[-1]] = [target]
    return doc


def _with_int_literals(doc):
    if isinstance(doc, dict):
        return {k: _with_int_literals(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_with_int_literals(v) for v in doc]
    return int(doc) if isinstance(doc, float) and doc.is_integer() else doc


def test_interpreter_agrees_with_jsonschema_on_mutants():
    # 10,000 seeded one-position mutants of the benchmark's config, generator
    # spec and network: the interpreter accepts what jsonschema accepts, but
    # for integral floats at integer keys, which it alone refuses
    rng = random.Random(20261018)
    tally = {"valid": 0, "invalid": 0, "integral_float": 0}
    for schema, base in _bench_documents():
        reference = jsonschema.Draft202012Validator(schema)
        assert _violation(schema, base) is None and reference.is_valid(base)
        positions = list(_positions(base))
        for _ in range(2500):
            doc = _mutant(base, positions, rng)
            ours, theirs = _violation(schema, doc), reference.is_valid(doc)
            if ours is not None and theirs and _violation(schema, _with_int_literals(doc)) is None:
                assert re.search(r"\d+(\.0|e\+\d+) is not of type 'integer'$", ours), ours
                tally["integral_float"] += 1
                continue
            assert (ours is None) == theirs, (doc, ours)
            tally["valid" if theirs else "invalid"] += 1
    assert min(tally.values()) >= 100, tally


def test_one_pass_network_check_agrees_with_the_interpreter_on_mutants():
    # the network document's 2,500 seeded mutants, and each of them with
    # integral floats read as integers: the one-pass check keeps exactly
    # the documents that the interpreter keeps
    rng = random.Random(20261022)
    (schema, base), = [(s, d) for s, d in _bench_documents() if s is _HYPERGRAPH_INLINE_SCHEMA]
    assert _network_ok(base)
    positions, kept = list(_positions(base)), 0
    for _ in range(2500):
        mutant = _mutant(base, positions, rng)
        for doc in (mutant, _with_int_literals(mutant)):
            assert _network_ok(doc) == (_violation(schema, doc) is None), doc
            kept += _network_ok(doc)
    assert 100 <= kept <= 4900, kept


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_one_pass_network_check_agrees_on_non_finite_numbers(value):
    # a non-finite number read from a file at each number of the network:
    # NaN fails every bound, wherever min() would pass over it
    (schema, base), = [(s, d) for s, d in _bench_documents() if s is _HYPERGRAPH_INLINE_SCHEMA]
    numbers = [p for p in _positions(base) if p and type(_at(base, p)) is float]
    assert len(numbers) > 10
    for path in numbers:
        doc = copy.deepcopy(base)
        _at(doc, path[:-1])[path[-1]] = value
        assert _network_ok(doc) == (_violation(schema, doc) is None), path


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("keyword", [{"pattern": "x"}, {"additionalProperties": {}},
                                     {"anyOf": [{"type": "string"}]}, {"maximum": 2}])
def test_unsupported_keyword_raises(keyword):
    with pytest.raises(ValueError, match="is not supported"):
        _violation({"type": "string", **keyword}, "x")


@pytest.mark.parametrize("value, schema", [
    (True, {"type": "integer"}), (True, {"type": "number"}), (1, {"type": "boolean"}),
    (1, {"const": True}), (1.0, {"const": True}), (3.0, {"type": "integer"}),
    (-1, {"type": "integer", "minimum": 0}), (0.0, {"exclusiveMinimum": 0}),
    ([0, 1, 2], {"maxItems": 2}), ({"a": 1, "b": 2}, {"maxProperties": 1}),
])
def test_refused(value, schema):
    assert _violation(schema, value) is not None


def test_violation_names_its_json_path():
    doc = cohead_config()
    doc["hypergraph"]["inline"]["edges"][1]["tails"] = [0, "1"]
    assert _violation(CONFIG_SCHEMA, doc) == (
        "$.hypergraph.inline.edges[1].tails[1]: '1' is not of type 'integer'")


@st.composite
def small_gen_specs(draw):
    c = draw(st.integers(2, 4))
    ell = draw(st.integers(1, 3))
    counts = st.lists(st.integers(0, 2), min_size=ell, max_size=ell)
    inter = st.lists(st.integers(0, 2), min_size=ell - 1, max_size=ell - 1)
    return HierarchicalGenSpec(
        tuple(draw(st.lists(st.integers(c, 7), min_size=ell, max_size=ell))), c,
        tuple(draw(counts)), tuple(draw(counts)), tuple(draw(inter)), tuple(draw(inter)),
        seed=draw(st.integers(0, 2**32 - 1)), sigma=draw(st.floats(0.01, 100.0)),
    )


@given(small_gen_specs())
def test_generated_network_passes_the_file_check(spec):
    # what ``hyperobs generate`` writes, ``hyperobs design`` reads
    assert _violation(_HYPERGRAPH_INLINE_SCHEMA, generate_hierarchical(spec).to_json_dict()) is None


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_bench_network_passes_the_file_check(name):
    spec, _ = BENCH_WORKLOADS[name](1)
    assert _violation(_GENERATOR_SCHEMA, spec) is None
    network = generate_hierarchical(HierarchicalGenSpec(**spec))
    assert _violation(_HYPERGRAPH_INLINE_SCHEMA, network.to_json_dict()) is None


def test_runtime_imports_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in Path(hyperobs.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"hyperobs"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    assert third_party == declared == {"numpy"}
