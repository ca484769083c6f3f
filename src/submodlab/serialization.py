"""Shared structured text format for instances, polytopes, matroids, and
run traces.

Documents are plain JSON with sorted keys and an indent of two, written
by ``canonical_json`` in one pass; floats round-trip bit-exactly through
Python's shortest-repr float encoding. One table, CODECS, gives
each serializable class its document kind and constructor arguments; the
document stores those arguments under their own names and is read back by
calling the class with them. Seeded constructions (the perturbed family)
store only their seed and parameters and rebuild their noise tables
deterministically on load.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

import numpy as np

from .algorithms import RunTrace
from .continuous import (BoxPolytope, CardinalityPolytope,
                         KnapsackPolytope, PartitionPolytope,
                         QuadraticOracle, SqrtLinearOracle)
from .matroids import (GraphicMatroid, PartitionMatroid, PSystem,
                       UniformMatroid)
from .oracles import (CoverageOracle, CutOracle, ModularOracle,
                      PerturbedOracle)

SCHEMA = "submodlab/1"


def canonical_json(doc: dict) -> str:
    """``doc`` as text: ``json.dumps(doc, sort_keys=True, indent=2)`` and a
    line break, byte for byte, written in one recursive pass.

    It keeps that encoder's whole contract: keys sorted as
    ``sorted(d.items())`` sorts them, and float, int, bool and None keys
    turned into strings; strings escaped to ASCII; ints and floats
    (subclasses such as ``np.float64`` included) through ``int.__repr__``
    and ``float.__repr__``; NaN and the infinities as NaN, Infinity and
    -Infinity; empty containers as [] and {}; and the same errors, a
    TypeError for a value or key it cannot encode and a ValueError for a
    circular reference.
    """
    out: list[str] = []
    _write(doc, "\n", out, set())
    out.append("\n")
    return "".join(out)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# exact scalar type -> its text; subclasses take the isinstance chain
_TEXT = {str: _escape, int: int.__repr__, float: _float_text,
         bool: lambda v: "true" if v else "false",
         type(None): lambda v: "null"}


def _write(value, newline: str, out: list, open_ids: set) -> None:
    """Append the text of ``value`` to ``out``; ``newline`` is the line
    break and indent of its own line, and ``open_ids`` holds the ids of
    the containers being written around it."""
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        out.append(_scalar(value))
        return
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(value))
    inner = newline + "  "
    sep = "," + inner
    first = len(out) + 1  # the first item's separator, which loses its comma
    if is_dict:
        out.append("{")
        for key, item in sorted(value.items()):
            out.append(sep)
            out.append(_escape(key if isinstance(key, str) else _key(key)))
            out.append(": ")
            text = _TEXT.get(type(item))
            if text is not None:
                out.append(text(item))
            else:
                _write(item, inner, out, open_ids)
        out.append(newline + "}")
    else:
        out.append("[")
        for item in value:
            out.append(sep)
            text = _TEXT.get(type(item))
            if text is not None:
                out.append(text(item))
            else:
                _write(item, inner, out, open_ids)
        out.append(newline + "]")
    out[first] = inner
    open_ids.discard(id(value))


def _scalar(value) -> str:
    """The text of a value that is not a list, tuple or dict."""
    text = _TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")


def _key(key) -> str:
    """A dict key that is not a str as the string JSON writes for it."""
    if key is None or isinstance(key, (int, float)):
        return _scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


# class -> (document kind, constructor arguments). Each argument is stored
# under its own name, read from the object's attribute of that name; the
# document's family is the class's `family` attribute (p-systems and traces
# have none). The NESTED arguments hold documents of their own.
CODECS = {
    ModularOracle: ("set-function", ("weights",)),
    CoverageOracle: ("set-function", ("n", "covers", "universe_weights")),
    CutOracle: ("set-function", ("n", "edges")),
    PerturbedOracle: ("set-function",
                      ("base", "delta", "seed", "monotone_noise")),
    UniformMatroid: ("matroid", ("n", "k")),
    PartitionMatroid: ("matroid", ("blocks", "caps")),
    GraphicMatroid: ("matroid", ("num_vertices", "edges")),
    PSystem: ("p-system", ("matroids",)),
    BoxPolytope: ("polytope", ("upper",)),
    CardinalityPolytope: ("polytope", ("n", "k")),
    PartitionPolytope: ("polytope", ("blocks", "caps")),
    KnapsackPolytope: ("polytope", ("costs", "budget")),
    QuadraticOracle: ("continuous", ("b", "a")),
    SqrtLinearOracle: ("continuous", ("b", "shift")),
    RunTrace: ("trace", ("algorithm", "params", "seed", "iterations",
                         "final", "meta")),
}
NESTED = ("base", "matroids")
_CLASSES = {(kind, getattr(cls, "family", None)): cls
            for cls, (kind, _) in CODECS.items()}


def _plain(value):
    """A field value as plain JSON data."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if type(value) in CODECS:
        return to_doc(value)
    return value


def to_doc(obj) -> dict:
    """Serialize a supported object to a JSON-ready document."""
    cls = type(obj)
    if cls not in CODECS:
        raise TypeError(f"cannot serialize {cls.__name__}")
    kind, fields = CODECS[cls]
    doc = {"schema": SCHEMA, "kind": kind}
    if hasattr(cls, "family"):
        doc["family"] = cls.family
    return doc | {name: _plain(getattr(obj, name)) for name in fields}


def _rebuild(value):
    return [from_doc(v) for v in value] if isinstance(value, list) \
        else from_doc(value)


def from_doc(doc: dict):
    """Rebuild a supported object from its document."""
    if not isinstance(doc, dict):
        raise ValueError(f"a {type(doc).__name__} is not a document object")
    kind, family = doc.get("kind"), doc.get("family")
    cls = _CLASSES.get((kind, family))
    if cls is None:
        raise ValueError(f"unknown document kind {kind!r} / family {family!r}")
    try:
        return cls(**{name: _rebuild(doc[name]) if name in NESTED
                      else doc[name] for name in CODECS[cls][1]})
    except KeyError as exc:
        why = f"missing field {exc}"
    except TypeError as exc:  # a field of the wrong JSON type
        why = str(exc)
    raise ValueError(f"malformed {kind!r} / {family!r} document: {why}")


def bundle_doc(problem: int, components: dict, measured: dict | None = None,
               meta: dict | None = None) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "bundle",
        "problem": int(problem),
        "components": {name: to_doc(obj) for name, obj in components.items()},
        "measured": measured or {},
        "meta": meta or {},
    }


def object_field(doc: dict, name: str, default=None) -> dict:
    """``doc[name]``, or ``default`` when absent; a value that is not a JSON
    object raises ValueError."""
    value = doc.get(name, default)
    if not isinstance(value, dict):
        raise ValueError(f"document field {name!r} must be a JSON object")
    return value


def load_bundle(doc: dict) -> dict:
    if doc.get("kind") != "bundle":
        raise ValueError("not a bundle document")
    out = {name: from_doc(sub)
           for name, sub in object_field(doc, "components").items()}
    out["_measured"] = object_field(doc, "measured", {})
    out["_meta"] = object_field(doc, "meta", {})
    return out


def save(obj_or_doc, path) -> Path:
    doc = obj_or_doc if isinstance(obj_or_doc, dict) else to_doc(obj_or_doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(doc))
    return path


def load(path):
    return from_doc(load_doc(path))


def load_doc(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return doc
