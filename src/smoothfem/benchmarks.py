"""The verification problems: pressurized cylinder, L-shaped notch, patch test.

Each benchmark bundles a mesh family, a material, boundary conditions and the
exact solution, so studies can be phrased uniformly: build mesh at a level,
solve, recover, compare against ``exact_stress``.  A study config sets the
fields of a benchmark that share a name with its own (the L-shape's grading).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticError, NotchFrame, SingularField, make_singular_solution
from .elasticity import PLANE_STRAIN, Material, elasticity_matrix
from .mesh import (
    Mesh,
    MeshError,
    build_cylinder_mesh,
    build_lshape_mesh,
    build_square_mesh,
    check_grading,
)
from .solver import BoundaryConditions, DirichletSpec

__all__ = ["CylinderBenchmark", "LShapeBenchmark", "PatchBenchmark"]


def _zero_traction(points, normal) -> np.ndarray:
    return np.zeros_like(np.asarray(points, dtype=float))


class _Benchmark:
    """A material built once at construction; no singular field or vertex by default.

    ``levels``, the mesh levels built, is open-ended or one level (one mesh).
    """

    state = PLANE_STRAIN
    levels = range(0, sys.maxsize)
    singular_field = None
    singular_vertex = None

    def __post_init__(self) -> None:
        self.material  # built once, here, so a bad E, nu or state fails at construction

    @functools.cached_property
    def material(self) -> Material:
        return Material(self.E, self.nu, self.state)


# Relative slack on the annulus containment check.  Quadrature points of
# elements along the curved walls fall inside the chord by O(h^2); the check
# exists to catch misuse (points in the hole / far outside), not that.
_ANNULUS_SLACK = 0.02


@dataclass(frozen=True)
class CylinderBenchmark(_Benchmark):
    """Quarter thick-wall cylinder under internal pressure (smooth solution).

    Inner wall carries the pressure as a Neumann traction -P n; the two
    straight cuts are symmetry planes (normal displacement fixed).  The exact
    solution is Lame's plane-strain closed form with c = b / a:

        u_r     = P (1+nu) / (E (c^2-1)) (r (1-2 nu) + b^2/r)
        sigma_r = P (1 - b^2/r^2) / (c^2 - 1)
        sigma_t = P (1 + b^2/r^2) / (c^2 - 1)
    """

    a: float = 5.0
    b: float = 20.0
    P: float = 1.0
    E: float = 3.0e7
    nu: float = 0.3

    name = "cylinder"
    levels = range(1, sys.maxsize)

    def __post_init__(self) -> None:
        if not (0.0 < self.a < self.b):
            raise AnalyticError(
                f"radii must satisfy 0 < a < b, got a={self.a}, b={self.b}"
            )
        if not np.isfinite(self.P):
            raise AnalyticError("pressure must be finite")
        super().__post_init__()

    def mesh(self, level: int) -> Mesh:
        return build_cylinder_mesh(self.a, self.b, level)

    def boundary_conditions(self, mesh: Mesh) -> BoundaryConditions:
        P = self.P

        def pressure(points, normal):
            # the wall pushes back along the (inward) boundary normal
            return np.broadcast_to(-P * normal, np.shape(points)).copy()

        return BoundaryConditions(
            tractions={"pressure": pressure, "free": _zero_traction},
            dirichlet={
                "sym_y": DirichletSpec(components=(1,)),
                "sym_x": DirichletSpec(components=(0,)),
            },
        )

    def _polar(self, points):
        """(x, y, r) of (..., 2) points, which must lie in the annulus."""
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        r = np.hypot(x, y)
        if np.any(r < (1.0 - _ANNULUS_SLACK) * self.a) or np.any(
            r > (1.0 + _ANNULUS_SLACK) * self.b
        ):
            raise AnalyticError(f"point outside the annulus [a={self.a}, b={self.b}]")
        return x, y, r

    def exact_displacement(self, points) -> np.ndarray:
        x, y, r = self._polar(points)
        E, nu = self.E, self.nu
        c2 = (self.b / self.a) ** 2
        ur = self.P * (1.0 + nu) / (E * (c2 - 1.0)) * (r * (1.0 - 2.0 * nu) + self.b**2 / r)
        scale = ur / r
        return np.stack([x * scale, y * scale], axis=-1)

    def exact_stress(self, points) -> np.ndarray:
        x, y, r = self._polar(points)
        c2 = (self.b / self.a) ** 2
        b2r2 = self.b**2 / r**2
        sr = self.P * (1.0 - b2r2) / (c2 - 1.0)
        st = self.P * (1.0 + b2r2) / (c2 - 1.0)
        cs, sn = x / r, y / r
        sxx = sr * cs * cs + st * sn * sn
        syy = sr * sn * sn + st * cs * cs
        sxy = (sr - st) * sn * cs
        return np.stack([sxx, syy, sxy], axis=-1)


@dataclass(frozen=True)
class LShapeBenchmark(_Benchmark):
    """L-shaped domain loaded with an exact two-mode notch eigenfield.

    The boundary is all-Neumann (exact tractions on the outer square, zero
    on the notch faces) plus three pins carrying the exact displacement to
    remove rigid motion.  The exact solution is the eigenfield itself, so
    every error in the discrete solution is discretization error.
    """

    E: float = 1000.0
    nu: float = 0.3
    K_I: float = 1.0
    K_II: float = 0.0
    grading: float = 2.0

    name = "lshape"
    opening_angle = 1.5 * np.pi
    singular_vertex = (0.0, 0.0)

    def __post_init__(self) -> None:
        for field in ("K_I", "K_II"):
            if not np.isfinite(getattr(self, field)):
                raise AnalyticError(f"{field} must be finite, got {getattr(self, field)}")
        check_grading(self.grading)
        super().__post_init__()

    @property
    def frame(self) -> NotchFrame:
        # material occupies global angles [0, 3 pi / 2]; its bisector is the
        # notch-frame x-axis
        return NotchFrame(vertex=self.singular_vertex, bisector_angle=0.75 * np.pi)

    @functools.cached_property
    def singular_field(self) -> SingularField:
        """The corner eigenfield, solved once per instance and then reused."""
        solution = make_singular_solution(
            self.opening_angle, self.material, self.K_I, self.K_II
        )
        return SingularField(solution, self.frame)

    def mesh(self, level: int) -> Mesh:
        return build_lshape_mesh(level, self.grading)

    def boundary_conditions(self, mesh: Mesh) -> BoundaryConditions:
        field = self.singular_field
        corner = mesh.find_node((-1.0, -1.0))
        upper = mesh.find_node((-1.0, 1.0))
        u_corner = field.displacement(np.array([[-1.0, -1.0]]))[0]
        u_upper = field.displacement(np.array([[-1.0, 1.0]]))[0]
        return BoundaryConditions(
            tractions={"outer": field.traction, "notch": _zero_traction},
            dirichlet={},
            pins=(
                (corner, 0, u_corner[0]),
                (corner, 1, u_corner[1]),
                (upper, 0, u_upper[0]),
            ),
        )

    def exact_displacement(self, points) -> np.ndarray:
        return self.singular_field.displacement(points)

    def exact_stress(self, points) -> np.ndarray:
        return self.singular_field.stress(points)


@dataclass(frozen=True)
class PatchBenchmark(_Benchmark):
    """Linear displacement field on a distorted square: the patch test.

    Any formulation/recovery pair must reproduce the constant stress state
    to machine precision.  Boundary displacements are prescribed exactly.
    """

    n: int = 4
    distortion: float = 0.2
    seed: int = 3
    E: float = 100.0
    nu: float = 0.3
    state: str = PLANE_STRAIN
    # u_x = c[0] + c[1] x + c[2] y, u_y = c[3] + c[4] x + c[5] y
    coeffs: tuple = (0.1, 0.02, 0.035, -0.04, 0.012, -0.009)

    name = "patch"
    levels = range(0, 1)

    def __post_init__(self) -> None:
        try:
            coeffs = np.array(self.coeffs, dtype=float)
        except (TypeError, ValueError):
            coeffs = None
        if coeffs is None or coeffs.shape != (6,) or not np.all(np.isfinite(coeffs)):
            raise AnalyticError(f"coeffs must hold six finite numbers, got {self.coeffs!r}")
        super().__post_init__()

    def mesh(self, level: int = 0) -> Mesh:
        """The one patch-test mesh; level must be 0."""
        if level not in self.levels:
            raise MeshError(f"the patch benchmark has one mesh, level 0; got level {level}")
        return build_square_mesh(self.n, self.distortion, seed=self.seed)

    def boundary_conditions(self, mesh: Mesh) -> BoundaryConditions:
        return BoundaryConditions(
            dirichlet={
                "exact": DirichletSpec(components=(0, 1), value=self.exact_displacement)
            }
        )

    def exact_displacement(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        c = self.coeffs
        return np.stack(
            [
                c[0] + c[1] * pts[..., 0] + c[2] * pts[..., 1],
                c[3] + c[4] * pts[..., 0] + c[5] * pts[..., 1],
            ],
            axis=-1,
        )

    def exact_stress(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        c = self.coeffs
        eps = np.array([c[1], c[5], c[2] + c[4]])  # engineering shear
        sigma = elasticity_matrix(self.material) @ eps
        return np.broadcast_to(sigma, pts.shape[:-1] + (3,)).copy()
