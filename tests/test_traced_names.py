"""Every name that the benchmark's tracer wraps is still a callable in the
module it patches, so a rename in ``fragpair`` fails here and not only in a
traced benchmark run.  The tracer's file is read; no tracer is installed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _wraps() -> tuple:
    if not TRACING.is_file():
        pytest.skip(f"{TRACING} is absent")
    spec = importlib.util.spec_from_file_location("_traced_names_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    if not hasattr(tracing, "WRAPS"):
        pytest.skip(f"{TRACING} defines no WRAPS")
    return tracing.WRAPS


def test_every_traced_name_resolves_to_a_callable() -> None:
    unresolved = []
    for module, attr, *_ in _wraps():
        owner = importlib.import_module(f"fragpair.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"fragpair.{module}.{attr}")
    assert not unresolved, f"traced names with no callable behind them: {unresolved}"
