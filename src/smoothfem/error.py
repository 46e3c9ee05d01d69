"""Energy-norm error measures, effectivity statistics and convergence rates.

All norms are energy norms of stress differences,
||e||^2 = integral (ds)^T D^-1 (ds) dOmega, integrated element by element
with a 4x4 Gauss rule (16x16 on elements touching a singular vertex, where
the exact integrand is steep but integrable).  Global norms are the exact
sums of the element squares by construction — the same quadrature.

The quadrature runs per rule order in slices of solver.ELEMENT_SLICE
elements, which bounds its (n, q, ...) stacks on a large mesh.  A slice's
points, Jacobian determinants and stress fields come from one call each
(stress_at_parents, evaluate_at_parents, exact_stress).  Each point's energy
density d^T D^-1 d is an explicit in-order sum of its nine terms, equal bit
for bit to the per-element einsum "ki,ij,kj->k", and each element's square
is the sum over its points that a single element would use, so it is
bit-identical to integrating that element alone, whatever slice it is in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .elasticity import compliance_matrix
from .quadmap import mapped_rule
from .recovery import RecoveredStressField
from .solver import ELEMENT_SLICE, DiscreteSolution

log = logging.getLogger(__name__)

# elements with exact error below this fraction of the global norm are
# excluded from local-effectivity statistics (0/0 noise)
_EXCLUDE_REL = 1e-14


class ErrorComputationError(ValueError):
    """Invalid input to an error/effectivity computation."""


@dataclass(frozen=True)
class ErrorReport:
    """Global and per-element error metrics of one solved case.

    The per-element fields are read-only (n_e,) arrays; theta_e and D are
    nan where the element is excluded from the D statistics.
    """

    dof: int
    estimated: float
    exact: float
    recovered: float
    theta: float
    m_abs_D: float
    sigma_D: float
    excluded: int
    element_estimated: np.ndarray
    element_exact: np.ndarray
    theta_e: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class RateResult:
    s: float  # global log-log least-squares slope, sign-flipped
    pairwise: tuple
    s_avg: float


def local_deviation(theta_e):
    """Symmetric local effectivity deviation, elementwise.

    D = theta - 1 for theta >= 1 (overestimation), 1 - 1/theta otherwise, so
    that a factor-two overestimate and a factor-two underestimate sit at
    +1 / -1 symmetrically.  A nan theta gives a nan D.
    """
    theta_e = np.asarray(theta_e, float)
    return np.where(theta_e < 1.0, 1.0 - 1.0 / theta_e, theta_e - 1.0)[()]


# ---------------------------------------------------------------------------
# quadrature core
# ---------------------------------------------------------------------------


def _singular_elements(solution: DiscreteSolution, singular_point) -> np.ndarray:
    """Mask of elements with a corner at the singular vertex."""
    mesh = solution.mesh
    if singular_point is None:
        return np.zeros(mesh.n_elements, dtype=bool)
    sp = np.asarray(singular_point, float)
    on_vertex = np.linalg.norm(mesh.coords - sp, axis=1) < 1e-12
    return on_vertex[mesh.elements].any(axis=1)


def _energy_squares(d: np.ndarray, Dinv: np.ndarray, wdet: np.ndarray) -> np.ndarray:
    """Per-element sum over points of w det d^T D^-1 d; d (n, q, 3) -> (n,).

    The density d^T D^-1 d is summed term by term, i outer and j inner, the
    order of the einsum "eki,ij,ekj->ek" over (d, Dinv, d), so it equals
    that einsum bit for bit.
    """
    density = 0.0
    for i in range(3):
        for j in range(3):
            density = density + d[..., i] * Dinv[i, j] * d[..., j]
    return np.sum(wdet * density, axis=-1)


def element_error_squares(
    solution: DiscreteSolution,
    recovered_field: RecoveredStressField,
    exact_stress,
    singular_point=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element squared energy norms (estimated, exact, recovered-exact).

    estimated: ||sigma* - sigma_h||, exact: ||sigma_ex - sigma_h||,
    recovered: ||sigma* - sigma_ex||.  The elements of each rule order are
    integrated in slices of ELEMENT_SLICE, in element order.
    """
    mesh = solution.mesh
    Dinv = compliance_matrix(solution.material)
    singular = _singular_elements(solution, singular_point)
    est2 = np.zeros(mesh.n_elements)
    ex2 = np.zeros(mesh.n_elements)
    rec2 = np.zeros(mesh.n_elements)
    for group, order in ((np.nonzero(~singular)[0], 4), (np.nonzero(singular)[0], 16)):
        for start in range(0, len(group), ELEMENT_SLICE):
            ids = group[start : start + ELEMENT_SLICE]
            pts, wdet, phys = mapped_rule(mesh.coords[mesh.elements[ids]], order)
            # the fields are built one at a time, the points dropped once the
            # exact stress has used them and the fields before the next slice
            # is built, which keeps the peak memory low
            s_star = recovered_field.evaluate_at_parents(ids, pts)
            s_ex = np.asarray(exact_stress(phys), float)
            del phys
            rec2[ids] = _energy_squares(s_star - s_ex, Dinv, wdet)
            sh = solution.stress_at_parents(ids, pts)
            est2[ids] = _energy_squares(s_star - sh, Dinv, wdet)
            ex2[ids] = _energy_squares(s_ex - sh, Dinv, wdet)
            del s_star, s_ex, sh
    return est2, ex2, rec2


# ---------------------------------------------------------------------------
# effectivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectivityStats:
    """theta_e and D are read-only (n_e,) arrays, nan where excluded."""

    theta: float
    theta_e: np.ndarray
    D: np.ndarray
    m_abs_D: float
    sigma_D: float
    excluded: int


def effectivity(estimated_elem: np.ndarray, exact_elem: np.ndarray) -> EffectivityStats:
    """Global theta plus the local-deviation statistics m(|D|), sigma(D).

    Inputs are (n_e,) per-element energy norms (not squares), finite and
    non-negative.  Elements whose exact error is below 1e-14 of the global
    exact norm are excluded from the D statistics (logged); a kept element
    must have a nonzero estimate, or its D would be -inf.  sigma uses
    population normalization.
    """
    estimated_elem = np.asarray(estimated_elem, float)
    exact_elem = np.asarray(exact_elem, float)
    if estimated_elem.shape != exact_elem.shape or estimated_elem.ndim != 1:
        raise ErrorComputationError("estimated and exact norms must be two (n_e,) arrays")
    norms = np.stack([estimated_elem, exact_elem])
    bad = np.argwhere(~((norms >= 0.0) & (norms < np.inf)))  # nan fails both
    if len(bad):
        which, e = bad[0]
        raise ErrorComputationError(
            f"{('estimated', 'exact')[which]} error norm of element {e} is "
            f"{norms[which, e]}; norms must be finite and non-negative"
        )
    global_est = float(np.sqrt(np.sum(estimated_elem**2)))
    global_ex = float(np.sqrt(np.sum(exact_elem**2)))
    if global_ex <= 0.0:
        raise ErrorComputationError("global exact error is zero; theta undefined")
    theta = global_est / global_ex

    kept = exact_elem > _EXCLUDE_REL * global_ex
    excluded = int(np.count_nonzero(~kept))
    if excluded:
        log.info("effectivity: excluded %d element(s) with ~zero exact error", excluded)
    if excluded == len(kept):
        raise ErrorComputationError("all elements excluded from D statistics")
    zero = np.nonzero(kept & (estimated_elem == 0.0))[0]
    if len(zero):
        raise ErrorComputationError(
            f"element {zero[0]} has a zero estimated error but a nonzero exact "
            "error: its local deviation D is -inf"
        )
    theta_e = np.full(len(kept), np.nan)
    D = np.full(len(kept), np.nan)
    theta_e[kept] = estimated_elem[kept] / exact_elem[kept]
    D[kept] = local_deviation(theta_e[kept])
    theta_e.setflags(write=False)
    D.setflags(write=False)
    return EffectivityStats(
        theta=theta,
        theta_e=theta_e,
        D=D,
        m_abs_D=float(np.mean(np.abs(D[kept]))),
        sigma_D=float(np.std(D[kept])),  # population normalization
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
        solution, recovered_field, exact_stress, singular_point=singular_point
    )
    est, ex = np.sqrt(est2), np.sqrt(ex2)
    est.setflags(write=False)
    ex.setflags(write=False)
    return ErrorReport(
        dof=2 * solution.mesh.n_nodes,
        estimated=float(np.sqrt(est2.sum())),
        exact=float(np.sqrt(ex2.sum())),
        recovered=float(np.sqrt(rec2.sum())),
        element_estimated=est,
        element_exact=ex,
        **vars(effectivity(est, ex)),
    )


# ---------------------------------------------------------------------------
# convergence rates
# ---------------------------------------------------------------------------


def convergence_rate(dofs, values) -> RateResult:
    """Rate s of value ~ dof^(-s): global log-log fit + pairwise average."""
    if len(dofs) != len(values):
        raise ErrorComputationError("dof and value counts differ")
    if any(b <= a for a, b in zip(dofs, dofs[1:])):
        raise ErrorComputationError("dof counts must increase strictly")
    dofs = np.asarray(dofs, float)
    vals = np.asarray(values, float)
    if len(dofs) < 2:
        raise ErrorComputationError("need at least two points for a rate")
    if np.any(vals <= 0.0):
        raise ErrorComputationError("rates need strictly positive values")
    ld, lv = np.log(dofs), np.log(vals)
    slope = np.polyfit(ld, lv, 1)[0]
    pair = -(np.diff(lv) / np.diff(ld))
    return RateResult(s=float(-slope), pairwise=tuple(pair), s_avg=float(np.mean(pair)))
