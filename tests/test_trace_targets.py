"""Every function the benchmark's tracer wraps must still exist.

``perfbench/spans.py`` patches the names in its ``TARGETS`` table when
``perfbench/run.py --trace 1`` runs, and fails if one of them is gone. The
perfbench smoke tests are not part of the default suite, so this test loads
the table (without running or patching anything) and looks each name up.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Executed from its source text, so no bytecode cache is written next to it.
spans = {"__name__": "perfbench_spans"}
exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans)
TARGETS = spans["TARGETS"]


@pytest.mark.parametrize("module_name, attr, name", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_resolves(module_name, attr, name):
    owner = importlib.import_module(module_name)
    if "." in attr:  # "Class.method": the tracer patches the class's own attribute
        cls_name, method = attr.split(".")
        assert method in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
    assert name.split(".")[0] in spans["LAYERS"]
