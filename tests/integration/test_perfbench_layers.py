"""Every entry point the benchmark's traced run wraps by name still exists.

``perfbench/spans.py`` wraps the simulator's layer entry points by
``(module, class, attribute)`` import path (its ``LAYERS`` table).  A
change under ``src/`` that deletes or renames one of them would only
surface when a traced benchmark run fails to resolve it; this check
imports each entry instead.  Nothing is wrapped or run.
"""

from __future__ import annotations

import importlib

import pytest

from perfbench.spans import LAYERS


@pytest.mark.parametrize(
    "module, cls, attrs",
    [row[1:] for row in LAYERS],
    ids=[f"{layer}[{cls or module}]" for layer, module, cls, _ in LAYERS],
)
def test_wrapped_entry_point_resolves(module, cls, attrs):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    for attr in attrs:
        entry = getattr(owner, attr)
        if isinstance(entry, property):
            entry = entry.fget
        assert callable(entry), f"{module}.{cls}.{attr}"
