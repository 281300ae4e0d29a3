"""The benchmark's tracer wraps program functions by module attribute
(``perfbench/tracing.py``, ``WRAPPED`` and ``GENERATORS``), and
``--trace 1`` fails on the first one that is missing.  Every seam it names
must resolve, so that moving an import cannot silently break it.

The tracer is imported read-only from its own directory; it needs numpy.
"""

import importlib
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_every_traced_seam_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.WRAPPED + tracing.GENERATORS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
