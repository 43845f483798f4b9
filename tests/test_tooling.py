"""The benchmark's per-layer metrics come from wrappers that `tracing.install`
puts around named functions of `randpde`; a renamed or moved function would
silently drop its layer from a traced run. These tests resolve the names
without installing anything."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"

# Wrapped by the benchmark but no longer imported by `randpde.sqs`; removing
# it from `TARGETS` is a change to the benchmark alone.
STALE = {"randpde.sqs.solve_singular_system"}


def _targets():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name, attr", [
    t for t in _targets() if ".".join(t) not in STALE])
def test_tracing_targets_resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
