"""Self-check of the benchmark's traced counts.

    python3 -m pytest perfbench/test_counts.py

Per workload: two traced passes on seed 0 and one on seed 1.  Every count
must repeat exactly across passes, the numbering-independent ones also
across seeds; every pass must pass the output check; and the layer spans
must account for all but the reported remainder of the pass.
"""

from __future__ import annotations

import pytest

from run import import_package

import_package()

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

COUNTS = (
    "mesh.elements",
    "mesh.nodes",
    "solver.dof",
    "recovery.patches",
    "recovery.samples",
    "recovery.split_patches",
    "recovery.fallbacks",
    "gsif.calls",
    "gsif.ring_elements",
    "error.quad_points",
    "error.excluded",
    "analytic.exact_stress_calls",
    "analytic.exact_stress_points",
    "harness.cases",
    "harness.report_bytes",
)

# counts that a renumbering or a reordering of the studies must not change
SEED_INDEPENDENT = (
    "mesh.elements",
    "recovery.patches",
    "recovery.samples",
    "error.quad_points",
    "analytic.exact_stress_calls",
    "gsif.ring_elements",
    "harness.report_bytes",
)


def _traced_passes(name, seed, n):
    workload = workloads.setup(name, seed)
    reference = workload.reference()
    tracer = Tracer()
    for pass_id in range(n):
        with tracer.run_pass(pass_id):
            outputs = workload.run_pass(tracer)
        assert workload.check(outputs, reference) == []
    return tracer, layer_metrics(tracer, range(n))[1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_across_passes_and_seeds(name):
    tracer, seed0 = _traced_passes(name, 0, 2)
    _, seed1 = _traced_passes(name, 1, 1)
    for key in COUNTS:
        assert seed0[0][key] == seed0[1][key], key
    for key in SEED_INDEPENDENT:
        assert seed0[0][key] == seed1[0][key], key
    assert seed0[0]["mesh.elements"] > 0
    assert seed0[0]["recovery.fallbacks"] == 0

    # every span of a pass nests inside it, and the layer spans cover it
    spans = [s for s in tracer.spans if s[3] == 0]
    roots = [s for s in spans if s[2] is None]
    assert [s[1] for s in roots] == ["pass"]
    assert seed0[0]["trace.remainder_frac"] < 0.05
