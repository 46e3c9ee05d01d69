"""Scaling relations of the estimator (metamorphic tests).

On the L-shape, under traction loading with pinned exact displacements,
multiplying Young's modulus by c leaves every stress unchanged and divides
every energy norm by sqrt(c); multiplying the load amplitude by c multiplies
every stress, every error and the extracted intensity factor by c.  Either
way the effectivity theta stays the same.  On the cylinder, scaling both
radii by s at fixed pressure leaves every stress field unchanged in scaled
coordinates, so every energy norm (the root of an area integral) scales by s
and theta and the local deviations D stay the same.
"""

import numpy as np
import pytest

from conftest import benchmark_variant
from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark
from smoothfem.error import compute_error_report
from smoothfem.gsif import extract_gsifs
from smoothfem.recovery import VARIANTS, RecoveryConfig, build_recovered_field
from smoothfem.solver import Formulation, assemble_and_solve

LEVEL = 1
FORMULATION = Formulation("sfem", 4)
RTOL = 1e-12


def estimates(bm):
    """{variant: (theta, estimated error)} and the extracted K_I of bm."""
    mesh = bm.mesh(LEVEL)
    bcs = bm.boundary_conditions(mesh)
    sol = assemble_and_solve(mesh, bm.material, FORMULATION, bcs)
    out = {}
    for variant in VARIANTS:
        recovered = build_recovered_field(
            sol,
            RecoveryConfig(variant=variant, gsif_mode="extracted"),
            singular_field=bm.singular_field,
            tractions=bcs.tractions,
            bcs=bcs,
        )
        report = compute_error_report(
            sol, recovered, bm.exact_stress, singular_point=bm.singular_vertex
        )
        out[variant] = (report.theta, report.estimated)
    return out, extract_gsifs(sol, bm.singular_field, bcs).K_I


@pytest.fixture(scope="module")
def reference():
    return estimates(LShapeBenchmark())


def test_stiffer_material_divides_the_estimate_by_root_of_the_factor(reference):
    base, _ = reference
    stiff, _ = estimates(benchmark_variant(LShapeBenchmark, E=7.0 * LShapeBenchmark.E))
    for variant in VARIANTS:
        (theta, est), (theta_s, est_s) = base[variant], stiff[variant]
        assert abs(theta_s - theta) <= RTOL * theta, variant
        assert abs(est_s * np.sqrt(7.0) - est) <= RTOL * est, variant


def test_larger_load_scales_the_extracted_intensity(reference):
    base, K_I = reference
    loaded, K_I_loaded = estimates(benchmark_variant(LShapeBenchmark, K_I=3.7))
    for variant in VARIANTS:
        (theta, est), (theta_l, est_l) = base[variant], loaded[variant]
        assert abs(theta_l - theta) <= RTOL * theta, variant
        assert abs(est_l - 3.7 * est) <= RTOL * 3.7 * est, variant
    assert abs(K_I_loaded - 3.7 * K_I) <= RTOL * 3.7 * abs(K_I)


def cylinder_report(s, formulation):
    bm = benchmark_variant(CylinderBenchmark, a=5.0 * s, b=20.0 * s)
    mesh = bm.mesh(2)
    bcs = bm.boundary_conditions(mesh)
    sol = assemble_and_solve(mesh, bm.material, formulation, bcs)
    recovered = build_recovered_field(sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions)
    return compute_error_report(sol, recovered, bm.exact_stress)


@pytest.mark.parametrize(
    "formulation", [Formulation("fem"), Formulation("sfem", 4)], ids=["fem", "sfem-nc4"]
)
@pytest.mark.parametrize("s", [1e-9, 1e-6, 1e6])
def test_scaled_cylinder_scales_the_estimate_by_the_factor(formulation, s):
    # measured: theta within 1.3e-15, estimated / s within 2.7e-15, m(|D|)
    # within 9.1e-14 and sigma(D) within 6.5e-14 relative
    base, scaled = cylinder_report(1.0, formulation), cylinder_report(s, formulation)
    assert abs(scaled.theta - base.theta) <= RTOL * base.theta
    assert abs(scaled.estimated / s - base.estimated) <= RTOL * base.estimated
    for stat in ("m_abs_D", "sigma_D"):
        assert abs(getattr(scaled, stat) - getattr(base, stat)) <= 1e-11 * getattr(base, stat)
