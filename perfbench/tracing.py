"""Spans around the benchmark's calls into smoothfem, kept in memory.

Nothing here edits the package: a traced pass calls wrapped versions of the
public layer functions, and for the study workload swaps the names that
``smoothfem.harness`` and ``smoothfem.gsif`` look up for the duration of the
pass.  An untraced pass uses ``NULL_TRACER``, which hands back the package's
own functions and objects unchanged.

A span is ``(id, name, parent, pass_id, start, end, attrs)``; ``attrs``
holds the counts read off the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import json
import logging
import statistics
import time
from types import SimpleNamespace

import smoothfem.gsif
import smoothfem.harness
from smoothfem.error import compute_error_report, convergence_rate
from smoothfem.recovery import build_recovered_field
from smoothfem.solver import assemble_and_solve

# the calls a pass makes into the package, untraced
PACKAGE_CALLS = SimpleNamespace(
    assemble_and_solve=assemble_and_solve,
    build_recovered_field=build_recovered_field,
    compute_error_report=compute_error_report,
    convergence_rate=convergence_rate,
)


def _mesh_counts(args, mesh):
    return {"elements": mesh.n_elements, "nodes": mesh.n_nodes}


def _solver_counts(args, sol):
    return {
        "dof": len(sol.U),
        "elements": sol.mesh.n_elements,
        "residual_rel": sol.residual_rel,
    }


def _recovery_counts(args, field):
    sol = args[0]
    n_e, n_cells = sol.cell_stress.shape[:2]
    # recovery samples 2x2 Gauss points per smoothing cell (SFEM) and one
    # sample per element Gauss point (FEM)
    per_cell = 4 if sol.formulation.kind == "sfem" else 1
    return {
        "patches": len(field.fits),
        "samples": n_e * n_cells * per_cell,
        "split_patches": int(field.split_flags.sum()),
    }


def _points_counts(args, stress):
    return {"points": len(stress.reshape(-1, 3))}


COUNTERS = {
    "mesh.build": _mesh_counts,
    "solver": _solver_counts,
    "recovery": _recovery_counts,
    "gsif": lambda args, est: {"ring_elements": est.ring_elements},
    "error": lambda args, report: {"excluded": report.excluded},
    "analytic.exact_stress": _points_counts,
    "harness.study": lambda args, study: {"cases": len(study.cases)},
    "harness.report": lambda args, text: {"bytes": len(text.encode("ascii"))},
}


class _NullTracer:
    """Untraced passes: every wrap is the identity."""

    def wrap(self, name, fn):
        return fn

    def benchmark(self, bm):
        return bm

    @property
    def calls(self):
        return PACKAGE_CALLS

    @contextlib.contextmanager
    def run_pass(self, pass_id):
        yield


NULL_TRACER = _NullTracer()


class Tracer:
    """Records nested spans and per-pass counts in memory."""

    def __init__(self):
        self.spans = []  # (id, name, parent, pass_id, start, end, attrs)
        self._stack = []
        self._pass_id = None
        self.pass_counts = {}  # pass_id -> {counter: n}

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        attrs = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, parent, self._pass_id, start, end, attrs)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if counter is not None:
                    attrs.update(counter(args, result))
            return result

        return traced

    def benchmark(self, bm):
        return _TracedBenchmark(bm, self)

    @property
    def calls(self):
        return SimpleNamespace(
            assemble_and_solve=self.wrap("solver", assemble_and_solve),
            build_recovered_field=self.wrap("recovery", build_recovered_field),
            compute_error_report=self.wrap("error", compute_error_report),
            convergence_rate=self.wrap("error.convergence_rate", convergence_rate),
        )

    def count(self, name):
        counts = self.pass_counts.setdefault(self._pass_id, {})
        counts[name] = counts.get(name, 0) + 1

    @contextlib.contextmanager
    def run_pass(self, pass_id):
        """One traced pass: the package's lookups point at traced wrappers."""
        self._pass_id = pass_id
        self.pass_counts.setdefault(pass_id, {})
        calls = self.calls
        # harness.run_case resolves these names in its module at call time;
        # recovery imports extract_gsifs from smoothfem.gsif when it runs
        patches = [
            (smoothfem.harness, "make_benchmark",
             lambda config, _mk=smoothfem.harness.make_benchmark: self.benchmark(_mk(config))),
            (smoothfem.harness, "assemble_and_solve", calls.assemble_and_solve),
            (smoothfem.harness, "build_recovered_field", calls.build_recovered_field),
            (smoothfem.harness, "compute_error_report", calls.compute_error_report),
            (smoothfem.harness, "convergence_rate", calls.convergence_rate),
            (smoothfem.gsif, "extract_gsifs", self.wrap("gsif", smoothfem.gsif.extract_gsifs)),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        handler = _FallbackCounter(self)
        recovery_log = logging.getLogger("smoothfem.recovery")
        recovery_log.addHandler(handler)
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            with self.span("pass"):
                yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)
            recovery_log.removeHandler(handler)
            self._pass_id = None

    def dump(self, path):
        keys = ("id", "name", "parent", "pass_id", "start", "end", "attrs")
        with open(path, "w", encoding="ascii") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)
            f.write("\n")


class _FallbackCounter(logging.Handler):
    """Counts the degree-1 fallback warnings recovery logs per patch."""

    def __init__(self, tracer):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if "falling back" in record.getMessage():
            self.tracer.count("recovery.fallbacks")


class _TracedBenchmark:
    """A benchmark object whose layer calls open spans."""

    def __init__(self, bm, tracer):
        self._bm = bm
        self._tracer = tracer
        self.mesh = tracer.wrap("mesh.build", bm.mesh)
        self.boundary_conditions = tracer.wrap("benchmarks.bcs", bm.boundary_conditions)
        self.exact_stress = tracer.wrap("analytic.exact_stress", bm.exact_stress)

    @property
    def singular_field(self):
        with self._tracer.span("benchmarks.singular_field"):
            return self._bm.singular_field

    def __getattr__(self, name):
        return getattr(self._bm, name)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _pass_metrics(spans, counts):
    """Per-layer metrics of one pass from its spans (all of one pass_id)."""
    dur = {}
    child = {}
    for sid, name, parent, _, start, end, _ in spans:
        dur[sid] = end - start
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)

    def total(name):
        return sum(dur[s[0]] for s in spans if s[1] == name)

    def self_time(name):
        return sum(dur[s[0]] - child.get(s[0], 0.0) for s in spans if s[1] == name)

    def attr(name, key, agg=sum):
        return agg([s[6][key] for s in spans if s[1] == name] or [0])

    error_ids = {s[0] for s in spans if s[1] == "error"}
    stress_in_error = [s for s in spans if s[1] == "analytic.exact_stress" and s[2] in error_ids]
    patches = attr("recovery", "patches")
    fallbacks = counts.get("recovery.fallbacks", 0)
    elements_solved = attr("solver", "elements")
    pass_span = next(s for s in spans if s[1] == "pass")
    pass_s = dur[pass_span[0]]
    remainder = pass_s - child.get(pass_span[0], 0.0)
    return {
        "mesh.s": total("mesh.build") + total("mesh.renumber"),
        "mesh.elements": attr("mesh.build", "elements"),
        "mesh.nodes": attr("mesh.build", "nodes"),
        "benchmarks.bcs_s": total("benchmarks.bcs"),
        "solver.s": total("solver"),
        "solver.us_per_element": 1e6 * total("solver") / max(elements_solved, 1),
        "solver.dof": attr("solver", "dof"),
        "solver.residual_rel": attr("solver", "residual_rel", max),
        "recovery.s": total("recovery"),
        "recovery.self_s": self_time("recovery"),
        "recovery.patches": patches,
        "recovery.samples": attr("recovery", "samples"),
        "recovery.split_patches": attr("recovery", "split_patches"),
        "recovery.fallbacks": fallbacks,
        "recovery.first_fit_ratio": patches / (patches + fallbacks) if patches else 0.0,
        "gsif.s": total("gsif"),
        "gsif.calls": sum(1 for s in spans if s[1] == "gsif"),
        "gsif.ring_elements": attr("gsif", "ring_elements"),
        "error.s": total("error"),
        "error.self_s": self_time("error"),
        "error.quad_points": sum(s[6]["points"] for s in stress_in_error),
        "error.excluded": attr("error", "excluded"),
        "analytic.exact_stress_s": total("analytic.exact_stress"),
        "analytic.exact_stress_calls": sum(1 for s in spans if s[1] == "analytic.exact_stress"),
        "analytic.exact_stress_points": attr("analytic.exact_stress", "points"),
        "harness.report_s": total("harness.report"),
        "harness.report_bytes": attr("harness.report", "bytes"),
        "harness.cases": attr("harness.study", "cases"),
        "harness.self_s": self_time("harness.study"),
        "trace.pass_s": pass_s,
        "trace.remainder_s": remainder,
        "trace.remainder_frac": remainder / pass_s,
    }


def layer_metrics(tracer, pass_ids):
    """Median over the given traced passes of every per-layer metric."""
    per_pass = [
        _pass_metrics(
            [s for s in tracer.spans if s[3] == pid], tracer.pass_counts.get(pid, {})
        )
        for pid in pass_ids
    ]
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}, per_pass
