"""The README's references to program names resolve, so that deleting or
renaming a name shows up as a failing test rather than as stale prose."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("oracles", "matroids", "continuous", "algorithms", "verify",
           "serialization", "cli")
# `module.attr` or `submodlab.module.attr(...)`, attr possibly dotted; the
# file name `cli.py` is no attribute
REFERENCE = re.compile(r"`(?:submodlab\.)?(%s)\.(?!py`)([A-Za-z_][\w.]*)[`(]"
                       % "|".join(MODULES))


def test_readme_module_references_resolve():
    refs = sorted(set(REFERENCE.findall(README.read_text())))
    assert len(refs) >= 20  # the pattern still finds the README's references
    missing = []
    for module, path in refs:
        obj = importlib.import_module(f"submodlab.{module}")
        for name in path.split("."):
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(f"{module}.{path}")
    assert not missing, missing
