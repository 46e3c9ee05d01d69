"""The benchmark workloads: inputs from a seed, one pass, and its output check.

lshape-sfem8    L-shape (grading 2) level 2, SFEM nc=8, SPR-CX with extracted
                GSIFs: subcell operators, singular-field paths, GSIF inside
                recovery.
cylinder-fem    cylinder quarter level 5, Q4 FEM, SPR-C: the large mesh with
                no subcells, no singular field and no GSIF.
variant-ladder  the lshape-variants preset cut to levels 0-2 (four studies,
                SFEM nc=4) through harness.run_convergence_study, rendered
                with study_csv and study_json: all four recovery paths, the
                harness layer, and every mesh solved once per variant.

The seed never reaches the package as a parameter.  On the two single-case
workloads it renumbers nodes and elements at random (seed 0 keeps the
natural numbering); on the ladder it permutes the order of the studies.
Permutations are drawn in ``setup``, outside the timed pass.  Each pass
builds fresh benchmark and mesh objects, so no cache carries over.

Outputs are compared with ``reference/``, recorded by ``record_reference.py``:
exactly on seed 0, to a relative ``SEED_RTOL`` on any other seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import numpy as np

import smoothfem.harness as harness
from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark
from smoothfem.mesh import BoundaryEdge, Mesh
from smoothfem.recovery import RecoveryConfig
from smoothfem.solver import Formulation

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"

# Renumbering changes only the order of summation.  Global norms, theta and
# the GSIFs then move by at most ~1e-13 relative (five seeds measured).  The
# D statistics average per-element ratios of error norms, each a difference
# of stresses that agree to ~1e-5 on the cylinder, so they move by up to
# ~1e-11 and get a looser tolerance.
SEED_RTOL = 1e-12
D_STATS_RTOL = 1e-10

SCALARS = ("theta", "estimated", "exact", "recovered", "m_abs_D", "sigma_D", "K_I", "K_II")


def renumber(mesh, node_perm, elem_perm):
    """The same mesh with node i renamed node_perm[i], element e elem_perm[e]."""
    coords = np.empty_like(mesh.coords)
    coords[node_perm] = mesh.coords
    elements = np.empty_like(mesh.elements)
    elements[elem_perm] = node_perm[mesh.elements]
    boundary = [
        BoundaryEdge(
            int(elem_perm[be.element_id]),
            be.local_edge,
            (int(node_perm[be.node_ids[0]]), int(node_perm[be.node_ids[1]])),
            be.kind,
            be.name,
        )
        for be in mesh.boundary
    ]
    return Mesh(coords, elements, boundary)


def _permutation(rng, n):
    return np.arange(n) if rng is None else rng.permutation(n)


def _rng(seed):
    return None if seed == 0 else np.random.default_rng(seed)


@dataclasses.dataclass
class CaseWorkload:
    """One solve/recover/error case, called layer by layer in run_case order."""

    name: str
    make_benchmark: object
    level: int
    formulation: Formulation
    recovery: RecoveryConfig
    n_nodes: int
    n_elements: int
    seed: int = 0

    def __post_init__(self):
        rng = _rng(self.seed)
        self.node_perm = _permutation(rng, self.n_nodes)
        self.elem_perm = _permutation(rng, self.n_elements)

    def run_pass(self, tracer):
        calls = tracer.calls
        bm = tracer.benchmark(self.make_benchmark())
        mesh = bm.mesh(self.level)
        if (mesh.n_nodes, mesh.n_elements) != (self.n_nodes, self.n_elements):
            raise ValueError(
                f"{self.name}: mesh has {mesh.n_nodes} nodes / {mesh.n_elements} "
                f"elements, expected {self.n_nodes} / {self.n_elements}"
            )
        mesh = tracer.wrap("mesh.renumber", renumber)(mesh, self.node_perm, self.elem_perm)
        bcs = bm.boundary_conditions(mesh)
        solution = calls.assemble_and_solve(mesh, bm.material, self.formulation, bcs)
        recovered = calls.build_recovered_field(
            solution,
            self.recovery,
            singular_field=bm.singular_field,
            tractions=bcs.tractions,
            bcs=bcs,
        )
        report = calls.compute_error_report(
            solution, recovered, bm.exact_stress, singular_point=bm.singular_vertex
        )
        field = recovered.singular_field
        return {
            "dof": report.dof,
            "excluded": report.excluded,
            "theta": report.theta,
            "estimated": report.estimated,
            "exact": report.exact,
            "recovered": report.recovered,
            "m_abs_D": report.m_abs_D,
            "sigma_D": report.sigma_D,
            "K_I": None if field is None else float(field.solution.K_I),
            "K_II": None if field is None else float(field.solution.K_II),
        }

    def reference(self):
        with open(REFERENCE_DIR / f"{self.name}.json", encoding="ascii") as f:
            return json.load(f)

    def check(self, outputs, reference):
        """Mismatches between a pass's outputs and the reference, as text."""
        bad = [
            f"{k}: {outputs[k]} != {reference[k]}"
            for k in ("dof", "excluded")
            if outputs[k] != reference[k]
        ]
        # K_II is ~0 on the mode-I load: scale its tolerance by |K_I|
        scale = {"K_II": reference["K_I"]}
        for k in SCALARS:
            rtol = D_STATS_RTOL if k in ("m_abs_D", "sigma_D") else SEED_RTOL
            if not _close(outputs[k], reference[k], self.seed == 0, rtol, scale.get(k)):
                bad.append(f"{k}: {outputs[k]!r} != {reference[k]!r}")
        return bad


@dataclasses.dataclass
class LadderWorkload:
    """Four convergence studies through the harness, rendered as reports."""

    name: str
    studies: tuple  # (label, StudyConfig) in run order
    seed: int = 0

    def __post_init__(self):
        rng = _rng(self.seed)
        order = _permutation(rng, len(self.studies))
        self.studies = tuple(self.studies[i] for i in order)

    def run_pass(self, tracer):
        run_study = tracer.wrap("harness.study", harness.run_convergence_study)
        csv = tracer.wrap("harness.report", harness.study_csv)
        js = tracer.wrap("harness.report", harness.study_json)
        outputs = {}
        for label, config in self.studies:
            study = run_study(config)
            outputs[label] = {"csv": csv(study), "json": js(study)}
        return outputs

    def reference(self):
        ref = {}
        for label, _ in self.studies:
            ref[label] = {
                ext: (REFERENCE_DIR / self.name / f"{label}.{ext}").read_text(encoding="ascii")
                for ext in ("csv", "json")
            }
        return ref

    def check(self, outputs, reference):
        bad = []
        for label, ref in reference.items():
            out = outputs[label]
            if self.seed == 0:
                bad += [f"{label}.{ext} bytes differ" for ext in ref if out[ext] != ref[ext]]
                continue
            if not _close(json.loads(out["json"]), json.loads(ref["json"]), False, SEED_RTOL):
                bad.append(f"{label}.json values differ")
            if not _close(_csv_cells(out["csv"]), _csv_cells(ref["csv"]), False, SEED_RTOL):
                bad.append(f"{label}.csv values differ")
        return bad


def _csv_cells(text):
    return [[_number(c) for c in line.split(",")] for line in text.splitlines()]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _close(a, b, exact, rtol=0.0, scale=None):
    """Equal structure; floats equal (exact) or within rtol of max(|b|, |scale|)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], exact, rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, exact, rtol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if not exact:
            ref = abs(b) if scale is None else max(abs(b), abs(scale))
            return abs(a - b) <= rtol * ref
    return type(a) is type(b) and a == b


def setup(name, seed):
    """Configs and permutations of a workload; no mesh is built here."""
    if name == "lshape-sfem8":
        return CaseWorkload(
            name,
            lambda: LShapeBenchmark(grading=2.0),
            level=2,
            formulation=Formulation("sfem", 8),
            recovery=RecoveryConfig(variant="SPR-CX", gsif_mode="extracted"),
            n_nodes=833,
            n_elements=768,
            seed=seed,
        )
    if name == "cylinder-fem":
        return CaseWorkload(
            name,
            CylinderBenchmark,
            level=5,
            formulation=Formulation("fem"),
            recovery=RecoveryConfig(variant="SPR-C"),
            n_nodes=4225,
            n_elements=4096,
            seed=seed,
        )
    if name == "variant-ladder":
        studies = tuple(
            (label, dataclasses.replace(config, levels=(0, 1, 2)))
            for label, config in harness.preset_cases("lshape-variants")
        )
        return LadderWorkload(name, studies, seed=seed)
    raise KeyError(name)


WORKLOADS = ("lshape-sfem8", "cylinder-fem", "variant-ladder")
