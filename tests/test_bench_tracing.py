"""The benchmark's traced names must exist in the library.

bench/tracing.py wraps functions by (module, attribute) name; a name that
no longer resolves is skipped there, and its per-layer metrics read zero.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    tracing = _tracing()
    names = [t for targets in tracing.SPANNED.values() for t in targets]
    return names + list(tracing.COUNTED.values())


@pytest.mark.parametrize("module, attr", _traced_names())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"knotsurgery.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
