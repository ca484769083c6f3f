"""The README's references to program names resolve, so that deleting or
renaming a name shows up as a failing test rather than as stale prose."""

import importlib
import re
from pathlib import Path

from submodlab.oracles import BUDGET

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


def test_readme_names_every_budget_entry_with_its_value():
    # one row of the "Capability limits" table per entry: its name, its
    # current value and the stderr line it gives one past the limit
    rows = {row.split("|")[1].strip(): row.split("|")
            for row in README.read_text().splitlines()
            if row.startswith("| `")}
    for name, (limit, message) in BUDGET.items():
        cells = rows.get(f"`{name}`")
        assert cells is not None, name
        assert cells[3].strip() == str(limit), name
        line = message.format(limit=limit, size=limit + 1, what="value table")
        assert f"`capability limit: {line}`" in cells[5], name
