"""The benchmark in ``perfbench/`` finds package functions by name: a traced
run wraps every ``TRACED`` entry of ``perfbench/tracing.py``, and a CLI
workload marks set-up done at the first call of its ``ready_at`` name in
``freqguide.cli``.  An untraced run would not notice a renamed traced name,
so these tests read both files (without running them) and look the names up.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assigned(path: Path, name: str) -> list:
    """The literal value of every assignment to ``name`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]


(TRACED,) = assigned(PERFBENCH / "tracing.py", "TRACED")
READY_AT = assigned(PERFBENCH / "workloads.py", "ready_at")


@pytest.mark.parametrize("module, name", [entry[:2] for entry in TRACED], ids=[entry[2] for entry in TRACED])
def test_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"freqguide.{module}"), name, None))


def test_cli_workloads_wait_for_existing_names():
    assert {"sample", "freqcfg_combine"} <= set(READY_AT)
    cli = importlib.import_module("freqguide.cli")
    for name in READY_AT:
        assert callable(getattr(cli, name, None)), name
