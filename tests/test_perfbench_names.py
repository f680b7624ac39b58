"""Every name the benchmark's tracer wraps exists in clfsynth.

perfbench/tracer.py lists the traced (module, class, attribute) triples in
SPANS. The list is read from the file's source, without importing the
benchmark, so a change that removes or renames a traced name fails here
as well as in perfbench's own tests.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return [tuple(entry[:3]) for entry in ast.literal_eval(node.value)]
    raise AssertionError(f"no SPANS list in {TRACER}")


def test_tracer_lists_spans():
    assert len(traced_names()) > 10


@pytest.mark.parametrize("module, cls, attr", traced_names(),
                         ids=str)
def test_traced_name_resolves(module, cls, attr):
    owner = importlib.import_module("clfsynth." + module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))
