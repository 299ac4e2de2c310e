"""Every call site that ``perfbench --trace 1`` wraps must still exist.

A renamed or deleted traced function breaks only the traced benchmark run,
so the names are resolved here against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _name in (*spans.SPANS, *spans.COUNTS)]


@pytest.mark.parametrize("module, attr", _traced_names())
def test_traced_name_resolves(module, attr):
    holder = importlib.import_module(module)
    *owners, name = attr.split(".")
    for part in owners:
        holder = getattr(holder, part)
    assert callable(vars(holder).get(name)), f"{module}.{attr}"
