"""Acceptance gate: the eight headline checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines with their measured numbers.  Every criterion is timed and
asserts its own wall-clock budget (except the determinism suite, which has
none); the budgets hold when a criterion runs standalone — shared fixtures
only make them looser.
"""

import filecmp
import os
import time

import numpy as np

from conftest import evaluate_at, interpolate_solution
from smoothfem.analytic import (
    MODE_I,
    MODE_II,
    NotchFrame,
    SingularField,
    make_singular_solution,
    q_constant,
    solve_singularity_eigenvalue,
)
from smoothfem.error import element_error_squares, local_deviation
from smoothfem.gsif import PlateauFunction, extract_gsifs
from smoothfem.harness import PRESETS, run_preset
from smoothfem.mesh import quad_area, subcell_geometry
from smoothfem.recovery import (
    VARIANTS,
    RecoveryConfig,
    _basis,
    build_recovered_field,
    edge_normal,
)
from smoothfem.solver import (
    Formulation,
    _element_operators,
    assemble_and_solve,
)

ALPHA = 1.5 * np.pi
# every preset's CSV report, byte for byte; re-bless these on purpose only
GOLDEN_PRESETS = os.path.join(os.path.dirname(__file__), "golden", "presets")


def patch_values(field, node, points):
    """A node's patch polynomial in a recovered field at physical points (..., 2)."""
    fits = field.fits
    center, scale = field.mesh.coords[node], fits.scales[node]
    return _basis(np.asarray(points, float), center, scale, 2) @ fits.coeffs[node].T


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1. corner eigenpairs
# ---------------------------------------------------------------------------


def test_criterion_1_eigenpairs():
    t0 = time.perf_counter()
    lam_I = solve_singularity_eigenvalue(ALPHA, MODE_I)
    lam_II = solve_singularity_eigenvalue(ALPHA, MODE_II)
    Q_I = q_constant(ALPHA, lam_I, MODE_I)
    elapsed = time.perf_counter() - t0
    devs = (
        abs(lam_I - 0.544483736782464),
        abs(lam_II - 0.908529189846099),
        abs(Q_I - 0.543075578836737),
    )
    ok = max(devs) < 1e-9 and elapsed < 1.0
    _report(
        1, ok,
        f"lambda_I dev {devs[0]:.2e}, lambda_II dev {devs[1]:.2e}, "
        f"Q_I dev {devs[2]:.2e} ({elapsed:.3f}s)",
    )


# ---------------------------------------------------------------------------
# 2. patch test
# ---------------------------------------------------------------------------


def test_criterion_2_patch_test(patch_bm):
    t0 = time.perf_counter()
    mesh = patch_bm.mesh()
    bcs = patch_bm.boundary_conditions(mesh)
    exact_U = patch_bm.exact_displacement(mesh.coords).ravel()
    # a zero-amplitude notch field with its vertex far outside the mesh lets
    # the splitting variants run: nothing to subtract, no node inside the radius
    remote = SingularField(
        make_singular_solution(1.5 * np.pi, patch_bm.material, 0.0, 0.0),
        NotchFrame(vertex=(2.5, 2.5), bisector_angle=0.0),
    )
    forms = [Formulation("fem")] + [Formulation("sfem", nc) for nc in (1, 2, 4, 8)]
    worst_nodal = 0.0
    worst_zz = 0.0
    for form in forms:
        sol = assemble_and_solve(mesh, patch_bm.material, form, bcs)
        worst_nodal = max(worst_nodal, np.abs(sol.U - exact_U).max())
        for variant in VARIANTS:
            field = build_recovered_field(
                sol,
                RecoveryConfig(variant=variant),
                singular_field=remote if variant in ("SPR-X", "SPR-CX") else None,
                tractions=bcs.tractions,
            )
            est2, _, _ = element_error_squares(sol, field, patch_bm.exact_stress)
            worst_zz = max(worst_zz, float(np.sqrt(est2.sum())))
    elapsed = time.perf_counter() - t0
    ok = worst_nodal < 1e-10 and worst_zz < 1e-9 and elapsed < 5.0
    _report(
        2, ok,
        f"worst nodal error {worst_nodal:.2e}, worst ZZ estimate {worst_zz:.2e} "
        f"over {len(forms)} formulations x {len(VARIANTS)} variants ({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 3. cylinder convergence rates
# ---------------------------------------------------------------------------


def test_criterion_3_cylinder_rates(study_cached):
    t0 = time.perf_counter()
    study = study_cached(benchmark="cylinder", levels=(1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    s_ex = study.rates["exact"].s
    s_es = study.rates["estimated"].s
    s_rec = study.rates["recovered"].s
    ok = (
        0.44 <= s_es <= 0.54
        and 0.45 <= s_ex <= 0.55
        and s_rec > s_ex
        and elapsed < 120.0
    )
    _report(
        3, ok,
        f"rates: exact {s_ex:.4f} in [0.45,0.55], estimated {s_es:.4f} in "
        f"[0.44,0.54], recovered {s_rec:.4f} > exact ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 4. effectivity across subcell counts
# ---------------------------------------------------------------------------


def test_criterion_4_subcell_effectivity(study_cached):
    t0 = time.perf_counter()
    ok = True
    bits = []
    for nc in (2, 4, 8):
        study = study_cached(benchmark="cylinder", nc=nc, levels=(1, 2, 3, 4))
        thetas = [c.report.theta for c in study.cases]
        mds = [c.report.m_abs_D for c in study.cases]
        sds = [c.report.sigma_D for c in study.cases]
        ok &= all(0.95 < th < 1.10 for th in thetas[-2:])
        ok &= mds[-3] > mds[-2] > mds[-1]
        ok &= sds[-3] > sds[-2] > sds[-1]
        bits.append(f"nc{nc} theta {thetas[-2]:.4f}/{thetas[-1]:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 180.0
    _report(
        4, ok,
        f"{', '.join(bits)}; m|D| and sigma(D) strictly decreasing over the "
        f"last 3 levels ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 5. constrained vs unconstrained recovery
# ---------------------------------------------------------------------------


def test_criterion_5_constraints_pay_off(study_cached):
    t0 = time.perf_counter()
    spr = study_cached(benchmark="cylinder", levels=(1, 2, 3, 4), variant="SPR")
    cx = study_cached(benchmark="cylinder", levels=(1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    thetas = [c.report.theta for c in spr.cases]
    gap = cx.rates["estimated"].s - spr.rates["estimated"].s
    ok = all(th < 1.0 for th in thetas) and gap >= 0.03 and elapsed < 120.0
    _report(
        5, ok,
        f"plain SPR underestimates everywhere (theta "
        f"{'/'.join(f'{t:.3f}' for t in thetas)}), estimated-rate gap "
        f"{gap:.4f} >= 0.03 ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 6. singular problem: variant ranking
# ---------------------------------------------------------------------------


def test_criterion_6_lshape_variants(study_cached):
    t0 = time.perf_counter()
    studies = {
        v: study_cached(benchmark="lshape", levels=(0, 1, 2, 3), variant=v)
        for v in VARIANTS
    }
    elapsed = time.perf_counter() - t0
    theta = {v: [c.report.theta for c in studies[v].cases] for v in VARIANTS}
    ok = 0.85 < theta["SPR-CX"][-1] < 1.15
    for lvl in (-2, -1):
        for v in ("SPR", "SPR-C", "SPR-X"):
            ok &= abs(theta["SPR-CX"][lvl] - 1.0) <= abs(theta[v][lvl] - 1.0)
    ok &= elapsed < 300.0
    _report(
        6, ok,
        "finest-level theta "
        + ", ".join(f"{v} {theta[v][-1]:.4f}" for v in VARIANTS)
        + f"; SPR-CX closest to 1 on the finest two levels ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 7. GSIF extraction accuracy
# ---------------------------------------------------------------------------


def test_criterion_7_gsif_extraction(lshape_bm):
    t0 = time.perf_counter()
    mesh = lshape_bm.mesh(2)
    bcs = lshape_bm.boundary_conditions(mesh)
    sol = interpolate_solution(
        mesh, lshape_bm.material, Formulation("sfem", 4), lshape_bm.exact_displacement
    )
    est = extract_gsifs(sol, lshape_bm.singular_field, bcs)
    wide = PlateauFunction(center=(0.0, 0.0), r_plateau=0.45, r_outer=1.1)
    k_wide = extract_gsifs(sol, lshape_bm.singular_field, bcs, plateau=wide).K_I
    elapsed = time.perf_counter() - t0
    drift = abs(k_wide - est.K_I) / abs(est.K_I)
    ok = (
        0.98 < est.K_I < 1.02
        and abs(est.K_II) < 0.02
        and drift < 0.02
        and elapsed < 60.0
    )
    _report(
        7, ok,
        f"K_I {est.K_I:.6f}, |K_II| {abs(est.K_II):.2e}, r_outer 0.9->1.1 "
        f"drift {drift:.2e} ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 8. invariants and determinism
# ---------------------------------------------------------------------------


def test_criterion_8_invariants_and_determinism(tmp_path, solve_cached, cylinder_bm):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    checks = []

    # subcell areas partition the element; cell boundaries close
    from conftest import single_element_mesh

    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    area_dev = closure_dev = 0.0
    for _ in range(3):
        corners = unit + rng.uniform(-0.2, 0.2, size=(4, 2))
        exact = quad_area(corners)
        for nc in (1, 2, 4, 8):
            cells = subcell_geometry(corners[None], nc)
            area_dev = max(area_dev, abs(cells.areas[0].sum() - exact) / exact)
            cl = (cells.edge_lengths[..., None] * cells.edge_normals).sum(axis=-2)
            closure_dev = max(closure_dev, np.abs(cl).max())
    checks.append(("area partition", area_dev <= 1e-12))
    checks.append(("boundary closure", closure_dev <= 1e-12))

    # stiffness symmetry and rigid-body kernel
    corners = unit + rng.uniform(-0.2, 0.2, size=(4, 2))
    m = single_element_mesh(corners)
    sym_ok = kernel_ok = True
    for form in (Formulation("fem"), Formulation("sfem", 4)):
        _, stiffnesses = _element_operators(m, cylinder_bm.material, form)
        K = stiffnesses[0]
        sym_ok &= np.array_equal(K, K.T)
        w = np.linalg.eigvalsh(K)
        kernel_ok &= int(np.sum(w < 1e-12 * w.max())) == 3
    checks.append(("stiffness symmetry", sym_ok))
    checks.append(("rigid-body kernel", kernel_ok))

    # recovered-field continuity and constraint residuals on a solved case
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions
    )
    owners = {}
    for e in range(mesh.n_elements):
        conn = mesh.elements[e]
        for k in range(4):
            key = tuple(sorted((int(conn[k]), int(conn[(k + 1) % 4]))))
            owners.setdefault(key, []).append(e)
    jump = 0.0
    for (n1, n2), elems in owners.items():
        if len(elems) == 2:
            mid = 0.5 * (mesh.coords[n1] + mesh.coords[n2])
            jump = max(
                jump,
                np.abs(evaluate_at(field, elems[0], mid) - evaluate_at(field, elems[1], mid)).max(),
            )
    checks.append(("continuity", jump < 1e-10))

    h = 1e-5
    steps = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    resid = 0.0
    for node in range(mesh.n_nodes):
        v = patch_values(field, node, mesh.coords[node] + steps)
        sx, sy = (v[0] - v[1]) / (2 * h), (v[2] - v[3]) / (2 * h)
        div = np.array([sx[0] + sy[2], sx[2] + sy[1]])
        scale = max(np.abs(field.fits.coeffs[node]).max() / field.fits.scales[node], 1e-30)
        resid = max(resid, np.abs(div).max() / scale)
    traction_resid = 0.0
    for be in mesh.boundary:
        if be.name != "pressure":
            continue
        pa, pb = mesh.coords[list(be.node_ids)]
        n = edge_normal(pa, pb)
        s = evaluate_at(field, be.element_id, 0.5 * (pa + pb))
        t = np.array([s[0] * n[0] + s[2] * n[1], s[2] * n[0] + s[1] * n[1]])
        traction_resid = max(
            traction_resid, np.abs(t + cylinder_bm.P * n).max() / cylinder_bm.P
        )
    checks.append(("constraint residuals", max(resid, traction_resid) < 1e-9))

    # symmetric local deviation
    thetas = np.logspace(-3, 3, 25)
    d_dev = max(
        abs(local_deviation(t) + local_deviation(1.0 / t)) / max(1.0, abs(local_deviation(t)))
        for t in thetas
    )
    checks.append(("D antisymmetry", d_dev < 1e-12))

    # byte-identical reruns of every preset; each CSV equals its golden file
    identical = True
    csvs = []
    for name in sorted(PRESETS):
        d1 = tmp_path / "a" / name
        d2 = tmp_path / "b" / name
        w1 = run_preset(name, d1)
        w2 = run_preset(name, d2)
        for p1, p2 in zip(w1, w2):
            identical &= filecmp.cmp(p1, p2, shallow=False)
            identical &= os.path.basename(p1) == os.path.basename(p2)
        csvs += [p for p in w1 if p.endswith(".csv")]
    checks.append(("preset determinism", identical))
    golden = sorted(os.listdir(GOLDEN_PRESETS)) == sorted(map(os.path.basename, csvs))
    for path in csvs:
        golden &= filecmp.cmp(
            path, os.path.join(GOLDEN_PRESETS, os.path.basename(path)), shallow=False
        )
    checks.append(("preset CSVs equal the golden files", golden))

    elapsed = time.perf_counter() - t0
    ok = all(passed for _, passed in checks)
    failed = [name for name, passed in checks if not passed]
    _report(
        8, ok,
        (
            f"{len(checks)} invariant suites green, presets byte-identical "
            f"({elapsed:.1f}s)"
            if ok
            else f"failed: {', '.join(failed)} ({elapsed:.1f}s)"
        ),
    )
