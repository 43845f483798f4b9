"""The benchmark's per-layer metrics come from wrappers that `tracing.install`
puts around named functions of `randpde`; a renamed or moved function would
silently drop its layer from a traced run. These tests resolve the names
without installing anything. The README's list of config keys is checked
against the parser's schema in the same spirit, and its library tour against
the package's modules."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from randpde import experiments

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmark" / "tracing.py"

# Wrapped by the benchmark but no longer imported by `randpde.sqs`; removing
# it from `TARGETS` is a change to the benchmark alone.
STALE = {"randpde.sqs.solve_singular_system"}


def _tracing():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(mod, attr) for mod, attr, *_ in _tracing().TARGETS]


@pytest.mark.parametrize("module_name, attr", [
    t for t in _targets() if ".".join(t) not in STALE])
def test_tracing_targets_resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_runner_passes_baseline_method_as_fourth_argument(tmp_path, monkeypatch):
    # the benchmark splits the `msfem.baseline` span into its linear and q1
    # layers by `baseline_solve`'s positional argument 3
    baseline_solve = experiments.baseline_solve
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return baseline_solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "baseline_solve", recorded)
    config = tmp_path / "exp.ini"
    config.write_text(f"""
[experiment]
kind = msfem
out = {tmp_path / "archive"}

[geometry]
kind = none

[msfem]
h = 1/4
fine_n = 8
methods = linear, q1
""")
    assert experiments.run(experiments.parse_config(config)).status == "ok"
    assert [args[3] for args in calls] == ["msfem_linear", "coarse_q1"]
    span_name = _tracing().span_name
    assert [span_name({"name": "msfem.baseline", "method": args[3]}) for args in calls] \
        == ["msfem.linear", "msfem.q1"]


def test_readme_lists_the_config_keys():
    # README's per-section key list under "Command line runner" is the parser's
    # schema (the law's keys of every law kind), so the documented keys cannot
    # drift from the accepted ones
    readme = (ROOT / "README.md").read_text()
    runner = readme.split("## Command line runner", 1)[1].split("\n## ", 1)[0]
    listed = {section: {key.strip() for key in keys.split(",")}
              for section, keys in re.findall(r"^\[(\w+)\]\s+(.+)$", runner, re.M)}
    assert listed == {section: experiments._keys(section) for section in experiments._SCHEMA}


def test_readme_library_tour_names_every_module():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`randpde\.(\w+)`", tour))
    modules = {p.stem for p in (ROOT / "src" / "randpde").glob("*.py") if p.stem != "__init__"}
    assert named == modules
