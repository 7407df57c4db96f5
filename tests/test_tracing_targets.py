"""The benchmark's tracer (perfbench/tracing.py) wraps liftctl functions and
methods by name. A target it cannot find is only listed in ``missing`` and
its per-layer figures read 0, so a rename must fail here instead."""

import sys
from pathlib import Path

import liftctl.cli  # noqa: F401  (the tracer wraps only modules already imported)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_tracer_finds_every_target():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
