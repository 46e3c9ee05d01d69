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
both t and tau n vanish there.
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
from .quadmap import PARENT_CORNERS, gauss_points_1d, gauss_points_2d, jacobian_det, map_point
from .solver import NEUMANN, BoundaryConditions, DiscreteSolution, boundary_values, edge_gauss_rule

__all__ = [
    "GsifError",
    "PlateauFunction",
    "ExtractionDual",
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
        if not 0.0 < self.r_plateau < self.r_outer:
            raise GsifError(
                f"need 0 < r_plateau < r_outer, got "
                f"({self.r_plateau}, {self.r_outer})"
            )

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


@dataclass(frozen=True)
class ExtractionDual:
    """The dual (negative-exponent) eigenfield of one mode, placed globally.

    v = r^(-lam) Psi(-lam, Q(-lam)) / (2 mu),  tau = -lam r^(-lam-1) Phi(...)
    in the notch frame; both are rotated to global components.
    """

    mode: str
    lam: float  # primal exponent; the dual uses -lam
    Q_dual: float
    frame: NotchFrame
    mu: float
    kappa: float

    def fields(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(v, tau) at global points (..., 2): shapes (..., 2) and (..., 3)."""
        r, phi = self.frame.to_polar(points)
        if np.any(r <= 0.0):
            raise AnalyticError("extraction dual evaluated at the vertex")
        lam, r = -self.lam, r[..., None]
        v, tau = _mode_fields(lam, self.Q_dual, self.mode, r, phi, self.mu, self.kappa)
        return self.frame.vector_to_global(v), self.frame.stress_to_global(tau)


def _dual_for(solution: SingularSolution, frame: NotchFrame, mode: str) -> ExtractionDual:
    mu, kappa = elastic_constants(solution.material)
    lam = solution.lambda_I if mode == MODE_I else solution.lambda_II
    return ExtractionDual(
        mode=mode,
        lam=lam,
        Q_dual=q_constant(solution.alpha, -lam, mode),
        frame=frame,
        mu=mu,
        kappa=kappa,
    )


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
    ring_elements: int = 0  # elements with quadrature points on the ramp


class _DomainTerm:
    """-int grad(q) . F dOmega of any dual, over the ring.

    The mode-independent arrays are built once: all elements' points are
    mapped at once, and the plateau gradient, Jacobians and FE fields are
    kept only on the ring (elements with a point on the ramp), where a dual
    is then evaluated, since it has no value at the vertex.  The
    per-element sums are added in element order.
    """

    def __init__(self, solution: DiscreteSolution, plateau: PlateauFunction, order: int):
        mesh = solution.mesh
        pts, self.w = gauss_points_2d(order)
        corners = mesh.coords[mesh.elements]
        phys = map_point(corners, pts[:, 0], pts[:, 1])  # (n_e, q, 2)
        gq = plateau.gradient(phys)
        ring = np.nonzero(gq.any(axis=(1, 2)))[0]
        if not len(ring):
            raise GsifError(
                f"no element quadrature points on the extraction ramp "
                f"({plateau.r_plateau}, {plateau.r_outer}); widen the plateau"
            )
        self.ring_elements = len(ring)
        self.gq, self.phys = gq[ring], phys[ring]
        self.det = jacobian_det(corners[ring][:, None], pts[:, 0], pts[:, 1])
        self.u_h = solution.displacement_at_parents(ring, pts)
        self.s_h = solution.stress_at_parents(ring, pts)

    def __call__(self, dual: ExtractionDual) -> float:
        u_h, s_h = self.u_h, self.s_h
        v, tau = dual.fields(self.phys)
        F = np.stack(
            [
                tau[..., 0] * u_h[..., 0] + tau[..., 2] * u_h[..., 1]
                - (s_h[..., 0] * v[..., 0] + s_h[..., 2] * v[..., 1]),
                tau[..., 2] * u_h[..., 0] + tau[..., 1] * u_h[..., 1]
                - (s_h[..., 2] * v[..., 0] + s_h[..., 1] * v[..., 1]),
            ],
            axis=-1,
        )
        per_element = np.sum(self.w * self.det * np.einsum("eki,eki->ek", self.gq, F), axis=-1)
        # running sum in element order, as a plain accumulation loop would
        return -float(np.cumsum(per_element)[-1])


class _BoundaryTerm:
    """sum over boundary edges with q > 0 of int q [(tau n) . u_h - t . v] ds.

    4-point Gauss per edge.  The mode-independent arrays are built once for
    every edge in the support: geometry, q, u_h and t, the imposed traction
    on Neumann edges (one call per boundary name) or the discrete traction
    sigma_h n on constrained ones (one stress_at_parents batch per local
    edge).  The per-edge sums are added in edge order.
    """

    def __init__(
        self, solution: DiscreteSolution, bcs: BoundaryConditions, plateau: PlateauFunction
    ):
        mesh = solution.mesh
        edges = mesh.boundary_arrays
        x, jac, normal, N, self.gw = edge_gauss_rule(mesh, edges.node_ids, 4)
        q = plateau.value(x)  # x: (edge, point, 2)
        inside = np.nonzero(np.any(q > 0.0, axis=1))[0]
        self.x, self.q, self.jac = x[inside], q[inside], jac[inside]
        self.normal = normal[inside][:, None]
        ends = edges.node_ids[inside]
        U = solution.U.reshape(-1, 2)
        Na, Nb = N.T
        self.u_h = Na[:, None] * U[ends[:, 0], None] + Nb[:, None] * U[ends[:, 1], None]

        self.t = np.empty_like(self.x)
        names, local_edges = edges.names[inside], edges.local_edges[inside]
        neumann = edges.kinds[inside] == NEUMANN
        self.t[neumann] = boundary_values(
            bcs.tractions, np.repeat(names[neumann], len(self.gw)), self.x[neumann].reshape(-1, 2),
            np.repeat(self.normal[neumann, 0], len(self.gw), axis=0), GsifError,
        ).reshape(-1, len(self.gw), 2)
        # constrained edges inside the support: use the discrete traction
        for k in np.unique(local_edges[~neumann]).tolist():
            sel = ~neumann & (local_edges == k)
            par = np.outer(Na, PARENT_CORNERS[k]) + np.outer(Nb, PARENT_CORNERS[(k + 1) % 4])
            stress = solution.stress_at_parents(edges.element_ids[inside][sel], par)
            self.t[sel] = stress_traction(stress, self.normal[sel])

    def __call__(self, dual: ExtractionDual) -> float:
        if not len(self.x):
            return 0.0
        v, tau = dual.fields(self.x)
        tau_n = stress_traction(tau, self.normal)
        integrand = np.einsum("eki,eki->ek", tau_n, self.u_h) - np.einsum("eki,eki->ek", self.t, v)
        per_edge = np.sum(self.gw * self.jac[:, None] * self.q * integrand, axis=-1)
        # running sum in edge order, as a plain accumulation loop would
        return float(np.cumsum(per_edge)[-1])


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
    frame = singular_field.frame
    sol = singular_field.solution
    if plateau is None:
        plateau = PlateauFunction(center=tuple(np.asarray(frame.vertex, float)))

    modes = (MODE_I, MODE_II)
    duals = [_dual_for(sol, frame, mode) for mode in modes]
    Cs = [calibration_constant(sol, mode) for mode in modes]
    domain = _DomainTerm(solution, plateau, DOMAIN_QUAD_ORDER)
    boundary = _BoundaryTerm(solution, bcs, plateau)
    doms = [domain(dual) for dual in duals]
    bnds = [boundary(dual) for dual in duals]
    Ks = [(dom + bnd) / C for dom, bnd, C in zip(doms, bnds, Cs)]
    return GsifEstimate(
        K_I=Ks[0],
        K_II=Ks[1],
        C_I=Cs[0],
        C_II=Cs[1],
        domain_terms=tuple(doms),
        boundary_terms=tuple(bnds),
        plateau=plateau,
        ring_elements=domain.ring_elements,
    )
