import copy
import functools
import json
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodlab.algorithms import random_greedy_dummies
from submodlab.continuous import (BoxPolytope, CardinalityPolytope,
                                  KnapsackPolytope, PartitionPolytope,
                                  random_quadratic_dr, random_sqrt_linear,
                                  random_weak_quadratic)
from submodlab.matroids import (PSystem, random_graphic_matroid,
                                random_partition_matroid)
from submodlab.oracles import (random_coverage, random_cut, random_modular,
                               random_perturbed)
from submodlab.serialization import (_CLASSES, CODECS, bundle_doc,
                                     canonical_json, from_doc, load,
                                     load_bundle, load_doc, save, to_doc)

from helpers import random_uniform_matroid, wrong_length_lists


def roundtrip(obj):
    return from_doc(to_doc(obj))


def test_set_function_roundtrips_bit_exact():
    for f in (random_modular(7, 1), random_coverage(7, 2), random_cut(7, 3),
              random_perturbed(7, 0.37, 4), random_perturbed(7, 0.37, 4, monotone=True)):
        g = roundtrip(f)
        assert np.array_equal(f.table(), g.table())
        assert g.family == f.family
        assert g.monotone == f.monotone


def test_matroid_roundtrips():
    for m in (random_uniform_matroid(8, 5), random_partition_matroid(8, 6),
              random_graphic_matroid(8, 7)):
        m2 = roundtrip(m)
        for mask in range(1 << 8):
            assert m.indep_mask(mask) == m2.indep_mask(mask)


def test_psystem_roundtrip():
    system = PSystem([random_partition_matroid(6, 8),
                      random_partition_matroid(6, 9)])
    s2 = roundtrip(system)
    assert s2.p == 2
    for mask in range(1 << 6):
        assert system.indep_mask(mask) == s2.indep_mask(mask)


def test_polytope_roundtrips():
    rng = np.random.default_rng(0)
    polys = [BoxPolytope([1.0, 0.25, 0.7]), CardinalityPolytope(3, 2),
             PartitionPolytope([[0, 1], [2]], [1, 1]),
             KnapsackPolytope([0.5, 1.0, 2.0], 2.2)]
    for p in polys:
        q = roundtrip(p)
        assert q.diameter == p.diameter
        for _ in range(50):
            c = rng.normal(size=3)
            assert np.array_equal(p.lmo(c), q.lmo(c))


def test_continuous_roundtrips_bit_exact():
    rng = np.random.default_rng(1)
    oracles = [random_quadratic_dr(4, 10, monotone=True),
               random_quadratic_dr(4, 11, monotone=False),
               random_weak_quadratic(4, 12),
               random_sqrt_linear(4, 13)]
    for f in oracles:
        g = roundtrip(f)
        assert g.smoothness == f.smoothness
        assert g.value_lipschitz == f.value_lipschitz
        for _ in range(25):
            x = rng.uniform(0, 1, f.n)
            assert g.value(x) == f.value(x)
            assert np.array_equal(g.grad(x), f.grad(x))


def test_trace_roundtrip_and_canonical_json():
    f = random_coverage(6, 15)
    trace = random_greedy_dummies(f, 2, seed=3)
    doc = to_doc(trace)
    again = to_doc(from_doc(doc))
    assert canonical_json(doc) == canonical_json(again)


def test_bundle_roundtrip():
    f = random_coverage(6, 16)
    system = PSystem([random_partition_matroid(6, 17)])
    doc = bundle_doc(2, {"objective": f, "system": system},
                     measured={"gamma": 1.0, "m": 1.0}, meta={"seed": 16})
    bundle = load_bundle(doc)
    assert np.array_equal(bundle["objective"].table(), f.table())
    assert bundle["_measured"]["gamma"] == 1.0
    assert set(bundle) == {"objective", "system", "_measured", "_meta"}


def test_a_bundle_is_not_read_as_one_object():
    # a bundle came back as its own dict, which no caller can use as a
    # component or a trace; load_bundle reads its components
    doc = bundle_doc(4, {"objective": random_coverage(4, 1)})
    with pytest.raises(ValueError, match="unknown document kind 'bundle'"):
        from_doc(doc)
    assert load_bundle(doc)["objective"].n == 4


def test_file_roundtrip(tmp_path):
    f = random_perturbed(6, 0.2, 18)
    path = save(f, tmp_path / "inst.json")
    g = load(path)
    assert np.array_equal(f.table(), g.table())
    # byte-identical re-serialization
    assert save(g, tmp_path / "again.json").read_text() == path.read_text()


def test_unknown_docs_rejected():
    with pytest.raises(ValueError):
        from_doc({"kind": "nonsense"})
    with pytest.raises(ValueError):
        from_doc({"kind": "matroid", "family": "nonsense"})
    with pytest.raises(TypeError):
        to_doc(object())


GOLDEN = Path(__file__).parent / "golden"
DOCUMENTS = sorted([*GOLDEN.glob("docs/*.json"),
                    *GOLDEN.glob("cli/instances/*.json")])


def _number_paths(doc, path=()):
    """The paths of the numeric leaves of every field the loader reads: the
    CODECS fields of a document, nested documents included, and those of
    each bundle component."""
    if doc["kind"] == "bundle":
        for name, sub in doc["components"].items():
            yield from _number_paths(sub, path + ("components", name))
        return
    for name in CODECS[_CLASSES[doc["kind"], doc.get("family")]][1]:
        yield from _leaf_paths(doc[name], path + (name,))


def _leaf_paths(value, path):
    if isinstance(value, dict):
        yield from _number_paths(value, path)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaf_paths(v, path + (i,))
    elif type(value) in (int, float):
        yield path


@pytest.mark.parametrize("mutate", [lambda v: True, str, lambda v: math.nan,
                                    lambda v: [v]],
                         ids=["bool", "string", "nan", "list"])
@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.name)
def test_every_document_number_is_checked(path, mutate):
    # a bool, a string, NaN or a one-entry list in any number slot is a
    # ValueError, never a TypeError and never a silent load: modular weights
    # ["0.5", true] loaded as [0.5, 1.0], and delta true as 1.0
    doc = load_doc(path)
    read = load_bundle if doc["kind"] == "bundle" else from_doc
    read(doc)
    leaves = list(_number_paths(doc))
    assert leaves
    for *head, last in leaves:
        bad = copy.deepcopy(doc)
        target = functools.reduce(operator.getitem, head, bad)
        target[last] = mutate(target[last])
        with pytest.raises(ValueError):
            read(bad)


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.name)
def test_every_list_of_the_wrong_length_loads_or_raises_value_error(path):
    # a list one entry short or long either loads or is a ValueError, never
    # another exception: the CLI reports a ValueError as one error line
    doc = load_doc(path)
    read = load_bundle if doc["kind"] == "bundle" else from_doc
    bad = []
    for label, mutant in wrong_length_lists(doc):
        try:
            read(mutant)
        except ValueError:
            pass
        except Exception as exc:
            bad.append(f"{label}: {exc!r}")
    assert bad == []


@pytest.mark.parametrize("value", ["no", "false", 1, None])
def test_monotone_noise_must_be_a_bool(value):
    # bool() read "no" and 1 as True, which changes the table that is built
    doc = to_doc(random_perturbed(5, 0.3, 1))
    doc["monotone_noise"] = value
    with pytest.raises(ValueError, match="^monotone_noise: .* is not a bool$"):
        from_doc(doc)


def _written(write, doc):
    """The text ``write`` gives for ``doc``, or its exception's type and
    message."""
    try:
        return write(doc)
    except Exception as exc:
        return type(exc), str(exc)


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


SCALARS = st.one_of(
    st.integers(), st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]),
    st.text(), st.text(st.characters(max_codepoint=0x1f)),
    st.sampled_from(["é", " ", "\ud800", "🙂", '"\\/', ""]))
KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(),
                 st.none())
# mostly one kind of key per dict (sortable), sometimes mixed (a TypeError
# from the sort in both writers), a tuple key (a TypeError of the key) or
# a value JSON has no text for (np.int64 and np.bool_ included)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.dictionaries(st.integers(-3, 3) | st.booleans() | st.none(),
                        inner, max_size=4),
        st.dictionaries(st.floats(), inner, max_size=3),
        st.dictionaries(KEYS, inner, max_size=2),
        st.dictionaries(st.tuples(st.integers()), inner, max_size=1),
        st.lists(st.sampled_from([np.int64(3), np.bool_(True), object()]),
                 max_size=1)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(DOCS)
def test_canonical_json_is_the_indented_json_encoder(doc):
    assert _written(canonical_json, doc) == _written(_dumps, doc)


def test_canonical_json_rejects_circular_documents():
    loop = {"a": [1]}
    loop["a"].append(loop)
    shared = [1.5]
    for doc in (loop, [loop], {"x": shared, "y": [shared, shared]}):
        assert _written(canonical_json, doc) == _written(_dumps, doc)
    assert _written(canonical_json, loop)[0] is ValueError
