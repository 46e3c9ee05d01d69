"""Energy-norm error measures, effectivity statistics and convergence rates.

All norms are energy norms of stress differences,
||e||^2 = integral (ds)^T D^-1 (ds) dOmega, integrated element by element
with a 4x4 Gauss rule (16x16 on elements touching a singular vertex, where
the exact integrand is steep but integrable).  Global norms are the exact
sums of the element squares by construction — the same quadrature.

The quadrature runs in one batch per rule order.  A batch's points,
Jacobian determinants and stress fields are (n, q, ...) arrays from
whole-mesh calls (stress_at_parents, evaluate_at_parents, one exact_stress
call), and each element's square is reduced with the einsum and sum a
single element would use, so it is bit-identical to integrating that
element alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .elasticity import compliance_matrix
from .quadmap import gauss_points_2d, jacobian_det, map_point
from .recovery import RecoveredStressField
from .solver import DiscreteSolution

log = logging.getLogger(__name__)

# elements with exact error below this fraction of the global norm are
# excluded from local-effectivity statistics (0/0 noise)
_EXCLUDE_REL = 1e-14


class ErrorComputationError(ValueError):
    """Invalid input to an error/effectivity computation."""


@dataclass(frozen=True)
class ElementError:
    element_id: int
    estimated: float
    exact: float
    theta_e: float  # nan when excluded
    D: float  # nan when excluded


@dataclass(frozen=True)
class ErrorReport:
    """Global and per-element error metrics of one solved case."""

    dof: int
    estimated: float
    exact: float
    recovered: float
    theta: float
    m_abs_D: float
    sigma_D: float
    elements: tuple
    excluded: int


@dataclass(frozen=True)
class ConvergenceSeries:
    dofs: tuple
    values: tuple

    def __post_init__(self) -> None:
        if len(self.dofs) != len(self.values):
            raise ErrorComputationError("dof and value counts differ")
        if any(b <= a for a, b in zip(self.dofs, self.dofs[1:])):
            raise ErrorComputationError("dof counts must increase strictly")


@dataclass(frozen=True)
class RateResult:
    s: float  # global log-log least-squares slope, sign-flipped
    pairwise: tuple
    s_avg: float


def local_deviation(theta_e: float) -> float:
    """Symmetric local effectivity deviation.

    D = theta - 1 for theta >= 1 (overestimation), 1 - 1/theta otherwise, so
    that a factor-two overestimate and a factor-two underestimate sit at
    +1 / -1 symmetrically.
    """
    if theta_e >= 1.0:
        return theta_e - 1.0
    return 1.0 - 1.0 / theta_e


# ---------------------------------------------------------------------------
# quadrature core
# ---------------------------------------------------------------------------


def _element_quadrature(solution: DiscreteSolution, element_ids: np.ndarray, order: int):
    """Gauss points (q, 2), weights x Jacobian (n, q) and physical points
    (n, q, 2) of an order x order rule on each of the elements."""
    pts, w = gauss_points_2d(order)
    corners = solution.mesh.coords[solution.mesh.elements[element_ids]]
    det = jacobian_det(corners[:, None], pts[:, 0], pts[:, 1])
    phys = map_point(corners, pts[:, 0], pts[:, 1])
    return pts, w * det, phys


def _singular_elements(solution: DiscreteSolution, singular_point) -> np.ndarray:
    """Mask of elements with a corner at the singular vertex."""
    mesh = solution.mesh
    if singular_point is None:
        return np.zeros(mesh.n_elements, dtype=bool)
    sp = np.asarray(singular_point, float)
    on_vertex = np.linalg.norm(mesh.coords - sp, axis=1) < 1e-12
    return on_vertex[mesh.elements].any(axis=1)


def _energy_squares(d: np.ndarray, Dinv: np.ndarray, wdet: np.ndarray) -> np.ndarray:
    """Per-element sum over points of w det d^T D^-1 d; d (n, q, 3) -> (n,)."""
    return np.sum(wdet * np.einsum("eki,ij,ekj->ek", d, Dinv, d), axis=-1)


def element_error_squares(
    solution: DiscreteSolution,
    recovered_field: RecoveredStressField | None = None,
    exact_stress=None,
    singular_point=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element squared energy norms (estimated, exact, recovered-exact).

    estimated: ||sigma* - sigma_h||, exact: ||sigma_ex - sigma_h||,
    recovered: ||sigma* - sigma_ex||.  Entries stay zero when the
    corresponding field is not supplied.  Elements are integrated in one
    batch per rule order.
    """
    mesh = solution.mesh
    Dinv = compliance_matrix(solution.material)
    singular = _singular_elements(solution, singular_point)
    est2 = np.zeros(mesh.n_elements)
    ex2 = np.zeros(mesh.n_elements)
    rec2 = np.zeros(mesh.n_elements)
    for ids, order in ((np.nonzero(~singular)[0], 4), (np.nonzero(singular)[0], 16)):
        if not len(ids):
            continue
        pts, wdet, phys = _element_quadrature(solution, ids, order)
        # the fields are built one at a time and the points dropped once the
        # exact stress has used them, which keeps the peak memory low
        s_star = s_ex = None
        if recovered_field is not None:
            s_star = recovered_field.evaluate_at_parents(ids, pts)
        if exact_stress is not None:
            s_ex = np.asarray(exact_stress(phys), float)
        del phys
        if s_star is not None and s_ex is not None:
            rec2[ids] = _energy_squares(s_star - s_ex, Dinv, wdet)
        sh = solution.stress_at_parents(ids, pts)
        if s_star is not None:
            est2[ids] = _energy_squares(s_star - sh, Dinv, wdet)
        if s_ex is not None:
            ex2[ids] = _energy_squares(s_ex - sh, Dinv, wdet)
    return est2, ex2, rec2


# ---------------------------------------------------------------------------
# effectivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectivityStats:
    theta: float
    elements: tuple
    m_abs_D: float
    sigma_D: float
    excluded: int


def effectivity(estimated_elem: np.ndarray, exact_elem: np.ndarray) -> EffectivityStats:
    """Global theta plus the local-deviation statistics m(|D|), sigma(D).

    Inputs are per-element energy norms (not squares).  Elements whose exact
    error is below 1e-14 of the global exact norm are excluded from the D
    statistics (logged); sigma uses population normalization.
    """
    estimated_elem = np.asarray(estimated_elem, float)
    exact_elem = np.asarray(exact_elem, float)
    global_est = float(np.sqrt(np.sum(estimated_elem**2)))
    global_ex = float(np.sqrt(np.sum(exact_elem**2)))
    if global_ex <= 0.0:
        raise ErrorComputationError("global exact error is zero; theta undefined")
    theta = global_est / global_ex

    elements = []
    Ds = []
    excluded = 0
    cutoff = _EXCLUDE_REL * global_ex
    for e, (est, ex) in enumerate(zip(estimated_elem, exact_elem)):
        if ex <= cutoff:
            excluded += 1
            elements.append(ElementError(e, float(est), float(ex), np.nan, np.nan))
            continue
        th = float(est / ex)
        D = local_deviation(th)
        Ds.append(D)
        elements.append(ElementError(e, float(est), float(ex), th, D))
    if excluded:
        log.info("effectivity: excluded %d element(s) with ~zero exact error", excluded)
    Ds = np.asarray(Ds)
    if len(Ds) == 0:
        raise ErrorComputationError("all elements excluded from D statistics")
    return EffectivityStats(
        theta=theta,
        elements=tuple(elements),
        m_abs_D=float(np.mean(np.abs(Ds))),
        sigma_D=float(np.std(Ds)),  # population normalization
        excluded=excluded,
    )


def compute_error_report(
    solution: DiscreteSolution,
    recovered_field: RecoveredStressField,
    exact_stress,
    singular_point=None,
) -> ErrorReport:
    """One-pass estimated/exact/recovered norms + effectivity statistics."""
    est2, ex2, rec2 = element_error_squares(
        solution,
        recovered_field=recovered_field,
        exact_stress=exact_stress,
        singular_point=singular_point,
    )
    stats = effectivity(np.sqrt(est2), np.sqrt(ex2))
    return ErrorReport(
        dof=2 * solution.mesh.n_nodes,
        estimated=float(np.sqrt(est2.sum())),
        exact=float(np.sqrt(ex2.sum())),
        recovered=float(np.sqrt(rec2.sum())),
        theta=stats.theta,
        m_abs_D=stats.m_abs_D,
        sigma_D=stats.sigma_D,
        elements=stats.elements,
        excluded=stats.excluded,
    )


# ---------------------------------------------------------------------------
# convergence rates
# ---------------------------------------------------------------------------


def convergence_rate(series: ConvergenceSeries) -> RateResult:
    """Rate s of value ~ dof^(-s): global log-log fit + pairwise average."""
    dofs = np.asarray(series.dofs, float)
    vals = np.asarray(series.values, float)
    if len(dofs) < 2:
        raise ErrorComputationError("need at least two points for a rate")
    if np.any(vals <= 0.0):
        raise ErrorComputationError("rates need strictly positive values")
    ld, lv = np.log(dofs), np.log(vals)
    slope = np.polyfit(ld, lv, 1)[0]
    pair = -(np.diff(lv) / np.diff(ld))
    return RateResult(s=float(-slope), pairwise=tuple(pair), s_avg=float(np.mean(pair)))
