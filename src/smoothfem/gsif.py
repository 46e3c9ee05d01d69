"""Generalized stress-intensity-factor extraction.

The GSIFs of a solved notch problem are extracted with a reciprocal-work
(Betti) functional.  For each mode the extraction field is the dual
eigenfield with exponent -lambda (which solves the same characteristic
equation); pairing a unit primal mode with its own dual over any contour
around the vertex gives a nonzero constant C, while cross-mode pairings
vanish by parity.  The contour integral is evaluated as an equivalent
domain integral with a plateau weight q (1 near the vertex, linear ramp to
0), plus a boundary correction on the parts of the outer boundary the q
support reaches:

    K C = sum_{boundary edges, q>0} int q [(tau n) . u_h - t . v] ds
          - int_Omega grad(q) . F dOmega,
    F_j = tau_ij u_h_i - sigma_h_ij v_i,

with (v, tau) the calibrated dual and t the imposed traction (the raw
discrete traction on constrained edges).  Notch faces drop out exactly:
both t and tau n vanish there.  Each of the two sums builds its
mode-independent arrays once and evaluates both modes' duals on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (
    MODE_I,
    MODE_II,
    AnalyticError,
    NotchFrame,
    SingularField,
    SingularSolution,
    angular_displacement_eigenfunction,
    angular_stress_eigenfunction,
    q_constant,
    stress_traction,
)
from .elasticity import elastic_constants
from .quadmap import PARENT_CORNERS, gauss_points_1d, mapped_rule
from .solver import NEUMANN, BoundaryConditions, DiscreteSolution, boundary_values, edge_gauss_rule

__all__ = [
    "GsifError",
    "PlateauFunction",
    "GsifEstimate",
    "contour_pairing",
    "calibration_constant",
    "extract_gsifs",
]


# 1D Gauss orders: per element direction of the domain-term quadrature, and
# of contour_pairing's angular integral
DOMAIN_QUAD_ORDER = 6
PAIRING_QUAD_ORDER = 200


class GsifError(RuntimeError):
    """Extraction cannot proceed (empty ring, degenerate pairing)."""


@dataclass(frozen=True)
class PlateauFunction:
    """Radial cutoff weight: 1 up to r_plateau, linear ramp to 0 at r_outer.

    The gradient is supported only on the ramp annulus, where it points
    inward with magnitude 1/(r_outer - r_plateau).
    """

    center: tuple[float, float] = (0.0, 0.0)
    r_plateau: float = 0.45
    r_outer: float = 0.9

    def __post_init__(self) -> None:
        if np.shape(self.center) != (2,) or not np.isfinite(self.center).all():
            raise GsifError(f"plateau center must be a finite point (x, y), got {self.center!r}")
        if not 0.0 < self.r_plateau < self.r_outer:
            raise GsifError(
                f"need 0 < r_plateau < r_outer, got "
                f"({self.r_plateau}, {self.r_outer})"
            )
        if not np.isfinite(self.r_outer):
            raise GsifError(f"plateau r_outer must be finite, got {self.r_outer}")

    def _radii(self, points):
        d = np.asarray(points, dtype=float) - np.asarray(self.center)
        return d, np.hypot(d[..., 0], d[..., 1])

    def value(self, points) -> np.ndarray:
        _, r = self._radii(points)
        ramp = (self.r_outer - r) / (self.r_outer - self.r_plateau)
        return np.clip(ramp, 0.0, 1.0)

    def gradient(self, points) -> np.ndarray:
        d, r = self._radii(points)
        on_ramp = (r > self.r_plateau) & (r < self.r_outer)
        scale = np.where(on_ramp, -1.0 / (self.r_outer - self.r_plateau), 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            rhat = np.where(r[..., None] > 0.0, d / np.maximum(r, 1e-300)[..., None], 0.0)
        return scale[..., None] * rhat


def _mode_fields(lam, Q, mode, r, phi, mu, kappa):
    """(u, sigma) of the unit notch mode of exponent lam, in the notch frame.

    u = r^lam Psi(phi) / (2 mu) and sigma = lam r^(lam-1) Phi(phi); r is a
    scalar or broadcasts against phi[..., None].
    """
    u = r**lam * angular_displacement_eigenfunction(lam, Q, mode, phi, kappa) / (2.0 * mu)
    sigma = lam * r ** (lam - 1.0) * angular_stress_eigenfunction(lam, Q, mode, phi)
    return u, sigma


def _dual_fields(solution: SingularSolution, frame: NotchFrame, mode: str, polar):
    """(v, tau) of a mode's dual eigenfield at global points (..., 2), given
    as their ``polar`` = frame.to_polar(points), mapped once for both modes.

    v = r^(-lam) Psi(-lam, Q(-lam)) / (2 mu) and tau = -lam r^(-lam-1) Phi
    in the notch frame, lam the mode's exponent; returned in global
    components, shapes (..., 2) and (..., 3).
    """
    r, phi = polar
    if np.any(r <= 0.0):
        raise AnalyticError("extraction dual evaluated at the vertex")
    mu, kappa = elastic_constants(solution.material)
    lam = -(solution.lambda_I if mode == MODE_I else solution.lambda_II)
    Q = q_constant(solution.alpha, lam, mode)
    v, tau = _mode_fields(lam, Q, mode, r[..., None], phi, mu, kappa)
    return frame.vector_to_global(v), frame.stress_to_global(tau)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def contour_pairing(
    solution: SingularSolution,
    primal_mode: str,
    dual_mode: str,
    r: float = 1.0,
) -> float:
    """Reciprocal-work pairing of a unit primal mode with a dual mode.

    int_{-alpha/2}^{alpha/2} [(tau rhat) . u - (sigma rhat) . v] r dphi on the
    circle of radius r.  Radius-independent; zero for cross-mode pairs.
    Computed in the notch frame (the pairing is rotation invariant).
    """
    mu, kappa = elastic_constants(solution.material)
    lam_p = solution.lambda_I if primal_mode == MODE_I else solution.lambda_II
    Q_p = solution.Q_I if primal_mode == MODE_I else solution.Q_II
    lam_d = solution.lambda_I if dual_mode == MODE_I else solution.lambda_II
    Q_d = q_constant(solution.alpha, -lam_d, dual_mode)

    x, w = gauss_points_1d(PAIRING_QUAD_ORDER)
    half = 0.5 * solution.alpha
    phi = half * x
    w = half * w

    u, sig = _mode_fields(lam_p, Q_p, primal_mode, r, phi, mu, kappa)
    v, tau = _mode_fields(-lam_d, Q_d, dual_mode, r, phi, mu, kappa)

    rhat = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    integrand = np.einsum("ki,ki->k", stress_traction(tau, rhat), u) - np.einsum(
        "ki,ki->k", stress_traction(sig, rhat), v
    )
    return float(np.sum(w * integrand) * r)


def calibration_constant(solution: SingularSolution, mode: str) -> float:
    """The C in K C = (extraction functional of the mode's dual)."""
    C = contour_pairing(solution, mode, mode)
    if abs(C) < 1e-10:
        raise GsifError(f"degenerate extraction pairing for mode {mode}")
    return C


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GsifEstimate:
    """Extracted GSIFs with the raw functional pieces kept for diagnosis."""

    K_I: float
    K_II: float
    C_I: float
    C_II: float
    domain_terms: tuple  # (mode I, mode II) values of -int grad(q).F
    boundary_terms: tuple
    plateau: PlateauFunction
    ring_elements: int  # elements with quadrature points on the ramp


def _domain_terms(
    solution: DiscreteSolution, singular_field: SingularField, plateau: PlateauFunction
) -> tuple[list[float], int]:
    """-int grad(q) . F dOmega over the ring for each mode, and the ring size.

    All elements' points are mapped at once; the plateau gradient, weights
    and FE fields are kept only on the ring (elements with a point on the
    ramp), where each mode's dual is then evaluated, since it has no value
    at the vertex.  The per-element sums are added in element order.
    """
    mesh = solution.mesh
    pts, wdet, phys = mapped_rule(mesh.coords[mesh.elements], DOMAIN_QUAD_ORDER)
    gq = plateau.gradient(phys)
    ring = np.nonzero(gq.any(axis=(1, 2)))[0]
    if not len(ring):
        raise GsifError(
            f"no element quadrature points on the extraction ramp "
            f"({plateau.r_plateau}, {plateau.r_outer}); widen the plateau"
        )
    gq, phys, wdet = gq[ring], phys[ring], wdet[ring]
    u_h = solution.displacement_at_parents(ring, pts)
    s_h = solution.stress_at_parents(ring, pts)

    polar = singular_field.frame.to_polar(phys)

    def term(mode):  # one mode's fields are freed before the next mode's
        v, tau = _dual_fields(singular_field.solution, singular_field.frame, mode, polar)
        F = np.stack(
            [
                tau[..., 0] * u_h[..., 0] + tau[..., 2] * u_h[..., 1]
                - (s_h[..., 0] * v[..., 0] + s_h[..., 2] * v[..., 1]),
                tau[..., 2] * u_h[..., 0] + tau[..., 1] * u_h[..., 1]
                - (s_h[..., 2] * v[..., 0] + s_h[..., 1] * v[..., 1]),
            ],
            axis=-1,
        )
        per_element = np.sum(wdet * np.einsum("eki,eki->ek", gq, F), axis=-1)
        # running sum in element order, as a plain accumulation loop would
        return -float(np.cumsum(per_element)[-1])

    return [term(MODE_I), term(MODE_II)], len(ring)


def _boundary_terms(
    solution: DiscreteSolution,
    bcs: BoundaryConditions,
    singular_field: SingularField,
    plateau: PlateauFunction,
) -> list[float]:
    """sum over boundary edges with q > 0 of int q [(tau n) . u_h - t . v] ds
    for each mode.

    4-point Gauss per edge.  Geometry, q, u_h and t are built once for every
    edge in the support: t is the imposed traction on Neumann edges (one
    call per boundary name) or the discrete traction sigma_h n on
    constrained ones (one stress_at_parents call at per-edge parent points).
    The per-edge sums are added in edge order.
    """
    mesh = solution.mesh
    edges = mesh.boundary_arrays
    x, jac, normal, N, gw = edge_gauss_rule(mesh, edges.node_ids, 4)
    q = plateau.value(x)  # x: (edge, point, 2)
    inside = np.nonzero(np.any(q > 0.0, axis=1))[0]
    x, q, jac, normal = x[inside], q[inside], jac[inside], normal[inside][:, None]
    ends = edges.node_ids[inside]
    U = solution.U.reshape(-1, 2)
    Na, Nb = N.T
    u_h = Na[:, None] * U[ends[:, 0], None] + Nb[:, None] * U[ends[:, 1], None]

    t = np.empty_like(x)
    names, local_edges = edges.names[inside], edges.local_edges[inside]
    neumann = edges.kinds[inside] == NEUMANN
    t[neumann] = boundary_values(
        bcs.tractions, np.repeat(names[neumann], len(gw)), x[neumann].reshape(-1, 2),
        np.repeat(normal[neumann, 0], len(gw), axis=0), GsifError,
    ).reshape(-1, len(gw), 2)
    # constrained edges inside the support: sigma_h n at each edge's parent points
    k = local_edges[~neumann, None]
    par = Na[:, None] * PARENT_CORNERS[k] + Nb[:, None] * PARENT_CORNERS[(k + 1) % 4]
    stress = solution.stress_at_parents(edges.element_ids[inside][~neumann], par)
    t[~neumann] = stress_traction(stress, normal[~neumann])

    polar = singular_field.frame.to_polar(x)

    def term(mode):
        v, tau = _dual_fields(singular_field.solution, singular_field.frame, mode, polar)
        tau_n = stress_traction(tau, normal)
        integrand = np.einsum("eki,eki->ek", tau_n, u_h) - np.einsum("eki,eki->ek", t, v)
        per_edge = np.sum(gw * jac[:, None] * q * integrand, axis=-1)
        # running sum in edge order, as a plain accumulation loop would
        return float(np.cumsum(per_edge)[-1])

    return [term(MODE_I), term(MODE_II)] if len(x) else [0.0, 0.0]


def extract_gsifs(
    solution: DiscreteSolution,
    singular_field: SingularField,
    bcs: BoundaryConditions,
    plateau: PlateauFunction | None = None,
) -> GsifEstimate:
    """Extract both GSIFs of a solved notch problem.

    Args:
        solution: the discrete solution (any formulation).
        singular_field: supplies the notch placement and eigen-constants;
            its amplitudes are ignored.
        bcs: the boundary conditions the solution was computed with (the
            imposed tractions enter the boundary correction).
        plateau: cutoff weight; defaults to the 0.45 / 0.9 plateau centered
            at the notch vertex.
    """
    if plateau is None:
        plateau = PlateauFunction(center=tuple(np.asarray(singular_field.frame.vertex, float)))

    Cs = [calibration_constant(singular_field.solution, mode) for mode in (MODE_I, MODE_II)]
    doms, ring_elements = _domain_terms(solution, singular_field, plateau)
    bnds = _boundary_terms(solution, bcs, singular_field, plateau)
    Ks = [(dom + bnd) / C for dom, bnd, C in zip(doms, bnds, Cs)]
    return GsifEstimate(
        K_I=Ks[0],
        K_II=Ks[1],
        C_I=Cs[0],
        C_II=Cs[1],
        domain_terms=tuple(doms),
        boundary_terms=tuple(bnds),
        plateau=plateau,
        ring_elements=ring_elements,
    )
