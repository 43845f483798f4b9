"""Spans around the calls into each layer of `randpde`, and what they add up to.

`install` replaces public functions at the names where the program calls
them (for example `randpde.experiments.reference_solve`) with wrappers. In a
traced round every wrapper records a span: a name, a start, an end, the span
that caused it and a few attributes read from the call or its return value
(iteration counts come from the solvers' return values). Spans stay in
memory and are written out once, when the round ends.

In an untraced round only the hooks that the correctness checks need are
installed, and they record no time: they keep the reference solutions and
the offline solve counts that the archive does not contain.

A name that a later change removes or renames, or whose return value no
longer has the attribute a span reads, is reported as missing; the round
still runs.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute, span name, attributes taken from (args, kwargs, result))
TARGETS = [
    ("randpde.experiments", "validate", "experiments.validate",
     lambda a, k, r: {"estimated": int(r["estimated_pde_solves"])}),
    ("randpde.grid", "PeriodicGrid.assemble_stiffness", "grid.assemble", None),
    ("randpde.correctors", "solve_singular_system", "grid.cg",
     lambda a, k, r: {"iters": int(r[1])}),
    ("randpde.sqs", "solve_singular_system", "grid.cg",
     lambda a, k, r: {"iters": int(r[1])}),
    ("randpde.estimators", "homogenize", "estimators.homogenize", None),
    ("randpde.estimators", "sqs_condition_values", "sqs.rank", None),
    ("randpde.experiments", "mc_estimate", "estimators.online", None),
    ("randpde.experiments", "antithetic_estimate", "estimators.online", None),
    ("randpde.experiments", "control_variate_estimate", "estimators.online", None),
    ("randpde.experiments", "sqs_estimate", "estimators.online", None),
    ("randpde.experiments", "defect_coefficients", "defects",
     lambda a, k, r: {"solves": int(r.solves)}),
    ("randpde.experiments", "sqs_auxiliary", "sqs.aux",
     lambda a, k, r: {"solves": int(r.solves)}),
    ("randpde.experiments", "reference_solve", "poisson.reference",
     lambda a, k, r: {"ndof": (int(r.fine_n) - 1) ** 2}),
    ("randpde.poisson", "cg_spd", "femcore.cg", lambda a, k, r: {"iters": int(r[1])}),
    ("randpde.experiments", "build_cr_space", "msfem.cr_space",
     lambda a, k, r: {"solves": int(r.solves), "elements": int(r.mesh.m) ** 2}),
    ("randpde.experiments", "baseline_solve", "msfem.baseline",
     lambda a, k, r: {"method": a[3] if len(a) > 3 else k["method"],
                      "elements": int(r.m) ** 2}),
    ("randpde.msfem", "_coarse_galerkin", "msfem.coarse", None),
    ("randpde.experiments", "compute_errors", "msfem.errors", None),
]

# The hooks an untraced round keeps; they only capture return values.
CAPTURED = ("randpde.experiments.reference_solve",
            "randpde.experiments.defect_coefficients",
            "randpde.experiments.sqs_auxiliary")


class Recorder:
    """Spans of one round plus the values the checks need."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.references: list[tuple] = []   # (FineSolution, perforation object)
        self.offline_solves: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def span(self, qual: str, name: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            sid = len(self.spans)
            rec = {"id": sid, "parent": parent, "name": name, "start": time.perf_counter()}
            self.spans.append(rec)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                try:
                    rec.update(attrs(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    if qual not in self.missing:
                        self.missing.append(qual)
            self._capture(name, args, result)
            return result
        return wrapper

    def capture_only(self, name: str, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._capture(name, args, result)
            return result
        return wrapper

    def _capture(self, name: str, args, result) -> None:
        if name == "poisson.reference":
            self.references.append((result, args[0]))
        elif name in ("defects", "sqs.aux"):
            self.offline_solves[name] += result.solves

    def root(self, fn):
        """The span around `run()` itself: its self time is the archive work."""
        return self.span("randpde.experiments.run", "experiments.run", fn) if self.traced else fn


def install(rec: Recorder) -> None:
    """Wrap every target that exists; record the ones that do not."""
    for module_name, attr, name, attrs in TARGETS:
        qual = f"{module_name}.{attr}"
        if not rec.traced and qual not in CAPTURED:
            continue
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            rec.missing.append(qual)
            continue
        wrapped = rec.span(qual, name, fn, attrs) if rec.traced else rec.capture_only(name, fn)
        setattr(owner, leaf, wrapped)


def span_name(span: dict) -> str:
    """The span's name, with `baseline_solve` split by its method."""
    if span["name"] == "msfem.baseline":
        return "msfem.linear" if span.get("method") == "msfem_linear" else "msfem.q1"
    return span["name"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover
    (spans come from one thread, so children nest and never overlap)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Per-layer metrics: name -> unit. `layer_metrics` fills every one of them.
PER_LAYER = {
    "grid.assemble.calls": "count", "grid.assemble.s": "s",
    "grid.cg.solves": "count", "grid.cg.iters_p50": "count",
    "grid.cg.iters_max": "count", "grid.cg.s": "s",
    "estimators.online.s": "s", "estimators.samples_per_s": "1/s",
    "defects.s": "s", "defects.solves": "count",
    "sqs.aux.s": "s", "sqs.aux.solves": "count", "sqs.rank.s": "s",
    "poisson.reference.s": "s", "poisson.reference.ndof": "count",
    "femcore.cg.iters": "count", "femcore.cg.s": "s",
    "msfem.cr_space.s": "s", "msfem.cr_space.solves": "count",
    "msfem.linear.s": "s", "msfem.q1.s": "s", "msfem.coarse.s": "s",
    "msfem.errors.s": "s", "msfem.elements_per_s": "1/s",
    "experiments.validate.s": "s", "experiments.archive.s": "s",
    "experiments.solves.made": "count", "experiments.solves.estimated": "count",
    "trace.wall_s": "s", "trace.unaccounted_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict], wall_s: float, solves_made: int) -> dict:
    """Per-layer numbers of one traced round (trace.overhead_s is filled in
    by the caller, which also has the untraced rounds)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s, t in zip(spans, own):
        by_name[span_name(s)].append((s, t))

    def self_s(*names):
        return sum(t for n in names for _, t in by_name[n])

    def total(name, key):
        return sum(s.get(key, 0) for s, _ in by_name[name])

    cg_iters = [s.get("iters", 0) for s, _ in by_name["grid.cg"]]
    online_wall = sum(s["end"] - s["start"] for s, _ in by_name["estimators.online"])
    space_spans = [s for n in ("msfem.cr_space", "msfem.linear", "msfem.q1")
                   for s, _ in by_name[n]]
    space_wall = sum(s["end"] - s["start"] for s in space_spans)
    out = {
        "grid.assemble.calls": len(by_name["grid.assemble"]),
        "grid.assemble.s": self_s("grid.assemble"),
        "grid.cg.solves": len(cg_iters),
        "grid.cg.iters_p50": statistics.median(cg_iters) if cg_iters else 0,
        "grid.cg.iters_max": max(cg_iters, default=0),
        "grid.cg.s": self_s("grid.cg"),
        "estimators.online.s": self_s("estimators.online", "estimators.homogenize"),
        "estimators.samples_per_s": (len(by_name["estimators.homogenize"]) / online_wall
                                     if online_wall else 0.0),
        "defects.s": self_s("defects"),
        "defects.solves": total("defects", "solves"),
        "sqs.aux.s": self_s("sqs.aux"),
        "sqs.aux.solves": total("sqs.aux", "solves"),
        "sqs.rank.s": self_s("sqs.rank"),
        "poisson.reference.s": self_s("poisson.reference"),
        "poisson.reference.ndof": max((s.get("ndof", 0) for s, _ in by_name["poisson.reference"]),
                                      default=0),
        "femcore.cg.iters": total("femcore.cg", "iters"),
        "femcore.cg.s": self_s("femcore.cg"),
        "msfem.cr_space.s": self_s("msfem.cr_space"),
        "msfem.cr_space.solves": total("msfem.cr_space", "solves"),
        "msfem.linear.s": self_s("msfem.linear"),
        "msfem.q1.s": self_s("msfem.q1"),
        "msfem.coarse.s": self_s("msfem.coarse"),
        "msfem.errors.s": self_s("msfem.errors"),
        "msfem.elements_per_s": (sum(s.get("elements", 0) for s in space_spans) / space_wall
                                 if space_wall else 0.0),
        "experiments.validate.s": self_s("experiments.validate"),
        "experiments.archive.s": self_s("experiments.run"),
        "experiments.solves.made": solves_made,
        "experiments.solves.estimated": total("experiments.validate", "estimated"),
        "trace.wall_s": wall_s,
        "trace.unaccounted_s": wall_s - sum(own),
        "trace.overhead_s": 0.0,
    }
    return out


def breakdown(spans: list[dict]) -> list[tuple[str, int, float, float]]:
    """(span name, calls, inclusive s, self s) per name, largest self first.
    Inclusive time counts only outermost spans of a name, so recursion or
    repeated wrapping of one function is not counted twice."""
    own = self_times(spans)
    names = {s["id"]: span_name(s) for s in spans}
    calls = defaultdict(int)
    incl = defaultdict(float)
    selft = defaultdict(float)
    for s, t in zip(spans, own):
        name = names[s["id"]]
        calls[name] += 1
        selft[name] += t
        if s["parent"] is None or names[s["parent"]] != name:
            incl[name] += s["end"] - s["start"]
    rows = [(n, calls[n], incl[n], selft[n]) for n in calls]
    return sorted(rows, key=lambda row: -row[3])


def missing_layers(missing: list[str]) -> list[str]:
    """The layers (span-name prefixes) whose wrapped names were not found."""
    layer_of = {f"{mod}.{attr}": name.split(".")[0] for mod, attr, name, _ in TARGETS}
    return sorted({layer_of.get(qual, "experiments") for qual in missing})
