"""Closed-form corner eigenfields of a traction-free V-notch.

The leading symmetric/antisymmetric eigenfields (displacement exponents
lambda_I, lambda_II from the characteristic equations), the eigenvalue
solver and the notch constant Q.  The benchmarks' other exact solutions
live with their problems in ``benchmarks``.

Notch-field conventions: the angle ``phi`` is measured from the notch
*bisector*, so the free faces sit at phi = +/- alpha/2, and vector/tensor
components refer to the frame whose x-axis is the bisector.  Callers working
in a rotated global frame (e.g. the L-shaped domain) apply the rotation
themselves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .elasticity import Material, elastic_constants

log = logging.getLogger(__name__)

MODE_I = "I"
MODE_II = "II"


class AnalyticError(ValueError):
    """Invalid input to an analytic evaluator (geometry, angle, mode...)."""


# ---------------------------------------------------------------------------
# characteristic equation
# ---------------------------------------------------------------------------


def characteristic_residual(lam, alpha: float, mode: str):
    """Residual of the notch characteristic equation.

    sin(lambda alpha) + lambda sin(alpha) = 0   (mode I)
    sin(lambda alpha) - lambda sin(alpha) = 0   (mode II)
    """
    lam = np.asarray(lam, dtype=float)
    sign = 1.0 if mode == MODE_I else -1.0
    return np.sin(lam * alpha) + sign * lam * np.sin(alpha)


def _angular_grid(alpha: float, n: int = 64) -> np.ndarray:
    return np.linspace(-alpha / 2.0, alpha / 2.0, n)


def _eigenfunction_scale(alpha: float, lam: float, mode: str) -> float:
    """Normalized magnitude of the stress eigenfunction over the notch sector.

    Spurious characteristic roots (e.g. lambda = 1 in mode II: a rigid
    rotation) have identically vanishing stress eigenfunctions; this scale is
    ~0 for them and O(1) for genuine roots.
    """
    try:
        Q = q_constant(alpha, lam, mode)
    except AnalyticError:
        return 1.0  # infinite Q: cannot be the zero eigenfunction
    phi = _angular_grid(alpha)
    F = angular_stress_eigenfunction(lam, Q, mode, phi)
    mag = np.sqrt(np.mean(F * F))
    ref = 1.0 + abs(Q) * (1.0 + abs(lam)) + abs(lam)
    return float(mag / ref)


def _search_residual(lam, alpha: float, mode: str):
    """Residual whose sign changes the eigenvalue search brackets.

    Mode II always has the spurious root lambda = 1 (a rigid rotation).  Near
    tan(alpha) = alpha the genuine root shares a grid interval with it and
    the two sign changes cancel, so the mode-II residual is divided by
    (lambda - 1); at lambda = 1 itself the quotient takes its limit, the
    derivative alpha cos(alpha) - sin(alpha).  The division flips the sign
    of every value below 1 alike, so brackets and bisection steps away from
    lambda = 1 are unchanged.
    """
    res = characteristic_residual(lam, alpha, mode)
    if mode != MODE_II:
        return res
    d = np.asarray(lam, dtype=float) - 1.0
    at_one = d == 0.0
    return np.where(
        at_one, alpha * np.cos(alpha) - np.sin(alpha), res / np.where(at_one, 1.0, d)
    )


def solve_singularity_eigenvalue(alpha: float, mode: str) -> float:
    """Smallest positive root of the characteristic equation for the mode.

    Brackets sign changes of the residual on a 400-interval grid over
    (0.1, 1.999) plus the interval up to 2 (mode II just above pi has its
    root there) and bisects each to 1e-14, skipping spurious roots whose
    stress eigenfunction vanishes identically.  The mode-II search runs on
    the deflated residual (see _search_residual).

    Raises:
        AnalyticError: alpha outside (pi, 2 pi], unknown mode, no root, or
            only roots with a vanishing eigenfunction (mode II at
            tan(alpha) = alpha, where the genuine root merges with 1).
    """
    if mode not in (MODE_I, MODE_II):
        raise AnalyticError(f"mode must be 'I' or 'II', got {mode!r}")
    if not (np.pi < alpha <= 2.0 * np.pi + 1e-12):
        raise AnalyticError(
            f"notch opening angle must lie in (pi, 2 pi], got {alpha!r}"
        )

    grid = np.append(np.linspace(0.1, 1.999, 401), 2.0)
    spurious = []
    res = _search_residual(grid, alpha, mode)
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        flo, fhi = res[i], res[i + 1]
        if flo == 0.0:
            root = float(lo)
        elif flo * fhi > 0.0:
            continue
        else:
            for _ in range(60):  # bisection: interval ~4.7e-3 -> < 1e-14
                mid = 0.5 * (lo + hi)
                fmid = _search_residual(mid, alpha, mode)
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
                if hi - lo < 1e-15:
                    break
            root = float(0.5 * (lo + hi))
        if _eigenfunction_scale(alpha, root, mode) < 1e-8:
            log.debug("skipping spurious characteristic root %g (mode %s)", root, mode)
            spurious.append(root)
            continue
        return root
    if spurious:
        raise AnalyticError(
            f"the only characteristic roots in (0, 2] for alpha={alpha}, mode {mode} "
            f"({', '.join(f'{r:.15g}' for r in spurious)}) have a vanishing stress "
            f"eigenfunction"
        )
    raise AnalyticError(
        f"no characteristic root in (0, 2] for alpha={alpha}, mode {mode}"
    )


def q_constant(alpha: float, lam: float, mode: str) -> float:
    """Notch constant Q tying the two trigonometric families of the eigenfield.

    Q_I  = -cos((lam-1) alpha/2) / cos((lam+1) alpha/2)
    Q_II = -sin((lam-1) alpha/2) / sin((lam+1) alpha/2)

    A characteristic root makes the formula 0/0 only at the crack,
    alpha = 2 pi.  There the root curve is flat (dF/dalpha = 0 for the
    characteristic function F), so the limit along it is L'Hopital's in alpha
    at fixed lam:

    Q_I  = (lam-1) sin((lam-1) alpha/2) / (-(lam+1) sin((lam+1) alpha/2))
    Q_II = -(lam-1) cos((lam-1) alpha/2) / ((lam+1) cos((lam+1) alpha/2))

    That is 1/3 at lam = 1/2 and 3 at lam = -1/2 in mode I, and 0 at
    lam = 1 in mode II.

    Raises:
        AnalyticError: unknown mode, or an infinite Q (also a 0/0 with an
            infinite limit, as mode II at lam = -1).
    """
    a, b = (lam - 1.0) * alpha / 2.0, (lam + 1.0) * alpha / 2.0
    if mode == MODE_I:
        num, den = -np.cos(a), np.cos(b)
    elif mode == MODE_II:
        num, den = -np.sin(a), np.sin(b)
    else:
        raise AnalyticError(f"mode must be 'I' or 'II', got {mode!r}")
    if abs(den) < 1e-14 and abs(num) < 1e-10:
        if mode == MODE_I:
            num, den = (lam - 1.0) * np.sin(a), -(lam + 1.0) * np.sin(b)
        else:
            num, den = -(lam - 1.0) * np.cos(a), (lam + 1.0) * np.cos(b)
    if abs(den) < 1e-14:
        raise AnalyticError(
            f"Q denominator vanishes at alpha={alpha}, lambda={lam} (mode {mode})"
        )
    return float(num / den)


# ---------------------------------------------------------------------------
# notch eigenfields
# ---------------------------------------------------------------------------


def angular_stress_eigenfunction(lam: float, Q: float, mode: str, phi):
    """Angular part Phi(phi) of the stress eigenfield, rows (xx, yy, xy).

    The full stress of a single mode is  sigma = K lam r^(lam-1) Phi(phi).
    Valid for any exponent (extraction duals use lam < 0).  Shape: phi (...,)
    -> (..., 3).
    """
    phi = np.asarray(phi, dtype=float)
    a = (lam - 1.0) * phi
    b = (lam - 3.0) * phi
    q1 = Q * (lam + 1.0)
    if mode == MODE_I:
        sxx = (2.0 - q1) * np.cos(a) - (lam - 1.0) * np.cos(b)
        syy = (2.0 + q1) * np.cos(a) + (lam - 1.0) * np.cos(b)
        sxy = q1 * np.sin(a) + (lam - 1.0) * np.sin(b)
    elif mode == MODE_II:
        sxx = (2.0 - q1) * np.sin(a) - (lam - 1.0) * np.sin(b)
        syy = (2.0 + q1) * np.sin(a) + (lam - 1.0) * np.sin(b)
        sxy = -q1 * np.cos(a) - (lam - 1.0) * np.cos(b)
    else:
        raise AnalyticError(f"mode must be 'I' or 'II', got {mode!r}")
    return np.stack([sxx, syy, sxy], axis=-1)


def angular_displacement_eigenfunction(lam: float, Q: float, mode: str, phi, kappa: float):
    """Angular part Psi(phi) of the displacement eigenfield.

    The full displacement of a single mode is u = K r^lam Psi(phi) / (2 mu);
    the 1/(2 mu) factor is NOT included here, so the material enters only
    through kappa.  Valid for any exponent (extraction duals use lam < 0).
    Shape: phi (...,) -> (..., 2).
    """
    phi = np.asarray(phi, dtype=float)
    q1 = Q * (lam + 1.0)
    if mode == MODE_I:
        ux = (kappa - q1) * np.cos(lam * phi) - lam * np.cos((lam - 2.0) * phi)
        uy = (kappa + q1) * np.sin(lam * phi) + lam * np.sin((lam - 2.0) * phi)
    elif mode == MODE_II:
        ux = (kappa - q1) * np.sin(lam * phi) - lam * np.sin((lam - 2.0) * phi)
        uy = -(kappa + q1) * np.cos(lam * phi) - lam * np.cos((lam - 2.0) * phi)
    else:
        raise AnalyticError(f"mode must be 'I' or 'II', got {mode!r}")
    return np.stack([ux, uy], axis=-1)


@dataclass(frozen=True)
class SingularSolution:
    """A two-mode V-notch eigenfield with generalized intensity factors.

    Attributes:
        alpha: notch opening angle (radians), in (pi, 2 pi].
        lambda_I, lambda_II: characteristic exponents of the two modes.
        Q_I, Q_II: notch constants.
        K_I, K_II: generalized stress intensity factors (amplitudes).
        material: elastic material (kappa, mu enter the displacements).
    """

    alpha: float
    lambda_I: float
    lambda_II: float
    Q_I: float
    Q_II: float
    K_I: float
    K_II: float
    material: Material

    def __post_init__(self) -> None:
        for lam, mode in ((self.lambda_I, MODE_I), (self.lambda_II, MODE_II)):
            res = abs(characteristic_residual(lam, self.alpha, mode))
            if res > 1e-12:
                raise AnalyticError(
                    f"lambda_{mode}={lam} does not solve the characteristic "
                    f"equation (residual {res:.2e})"
                )
            if not (0.0 < lam < 2.0):
                raise AnalyticError(f"lambda_{mode}={lam} outside (0, 2)")
        if self.alpha > np.pi and not self.lambda_I < 1.0:
            raise AnalyticError(
                f"reentrant notch (alpha={self.alpha}) must have a singular "
                f"mode I, got lambda_I={self.lambda_I}"
            )

    def with_gsifs(self, K_I: float, K_II: float) -> "SingularSolution":
        return SingularSolution(
            self.alpha, self.lambda_I, self.lambda_II,
            self.Q_I, self.Q_II, K_I, K_II, self.material,
        )


def make_singular_solution(
    alpha: float, material: Material, K_I: float = 1.0, K_II: float = 0.0
) -> SingularSolution:
    """Solve both characteristic equations and package a SingularSolution."""
    lam_I = solve_singularity_eigenvalue(alpha, MODE_I)
    lam_II = solve_singularity_eigenvalue(alpha, MODE_II)
    return SingularSolution(
        alpha=alpha,
        lambda_I=lam_I,
        lambda_II=lam_II,
        Q_I=q_constant(alpha, lam_I, MODE_I),
        Q_II=q_constant(alpha, lam_II, MODE_II),
        K_I=K_I,
        K_II=K_II,
        material=material,
    )


def _check_radius(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise AnalyticError("notch fields require r > 0")
    return r


def williams_displacement(solution: SingularSolution, r, phi) -> np.ndarray:
    """Two-mode notch displacement at polar points (r, phi), notch frame.

    u = K_I r^lambda_I Psi_I(phi) + K_II r^lambda_II Psi_II(phi), including
    the 1/(2 mu) factor.  Broadcasts over arrays; returns shape (..., 2).
    r = 0 is allowed (both exponents are positive, so u -> 0 there); negative
    radii are rejected.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise AnalyticError("notch fields require r >= 0")
    phi = np.asarray(phi, dtype=float)
    mu, kappa = elastic_constants(solution.material)
    u = np.zeros(np.broadcast_shapes(r.shape, phi.shape) + (2,))
    for K, lam, Q, mode in (
        (solution.K_I, solution.lambda_I, solution.Q_I, MODE_I),
        (solution.K_II, solution.lambda_II, solution.Q_II, MODE_II),
    ):
        if K == 0.0:
            continue
        psi = angular_displacement_eigenfunction(lam, Q, mode, phi, kappa)
        u = u + (K / (2.0 * mu)) * r[..., None] ** lam * psi
    return u


def williams_stress(solution: SingularSolution, r, phi) -> np.ndarray:
    """Two-mode notch stress at polar points (r, phi), notch frame.

    sigma = K_I lambda_I r^(lambda_I - 1) Phi_I(phi)
          + K_II lambda_II r^(lambda_II - 1) Phi_II(phi).
    Returns shape (..., 3) ordered (xx, yy, xy).
    """
    r = _check_radius(r)
    phi = np.asarray(phi, dtype=float)
    s = np.zeros(np.broadcast_shapes(r.shape, phi.shape) + (3,))
    for K, lam, Q, mode in (
        (solution.K_I, solution.lambda_I, solution.Q_I, MODE_I),
        (solution.K_II, solution.lambda_II, solution.Q_II, MODE_II),
    ):
        if K == 0.0:
            continue
        Phi = angular_stress_eigenfunction(lam, Q, mode, phi)
        s = s + K * lam * r[..., None] ** (lam - 1.0) * Phi
    return s


# ---------------------------------------------------------------------------
# notch frame: global-coordinates view of the eigenfields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NotchFrame:
    """Placement of a notch in global coordinates.

    The notch-frame x-axis is the bisector; ``bisector_angle`` is its global
    direction and ``vertex`` the corner position.  Provides the polar map and
    the vector/tensor rotations between frames.
    """

    vertex: tuple[float, float] = (0.0, 0.0)
    bisector_angle: float = 0.0

    def to_polar(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(r, phi) of global points, phi measured from the bisector."""
        p = np.asarray(points, dtype=float) - np.asarray(self.vertex)
        c, s = np.cos(self.bisector_angle), np.sin(self.bisector_angle)
        xn = c * p[..., 0] + s * p[..., 1]
        yn = -s * p[..., 0] + c * p[..., 1]
        return np.hypot(xn, yn), np.arctan2(yn, xn)

    def vector_to_global(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        c, s = np.cos(self.bisector_angle), np.sin(self.bisector_angle)
        return np.stack(
            [c * v[..., 0] - s * v[..., 1], s * v[..., 0] + c * v[..., 1]],
            axis=-1,
        )

    def stress_to_global(self, sig) -> np.ndarray:
        """Rotate stress 3-vectors (xx, yy, xy) from the notch frame."""
        sig = np.asarray(sig, dtype=float)
        c, s = np.cos(self.bisector_angle), np.sin(self.bisector_angle)
        sxx, syy, sxy = sig[..., 0], sig[..., 1], sig[..., 2]
        return np.stack(
            [
                c * c * sxx + s * s * syy - 2.0 * c * s * sxy,
                s * s * sxx + c * c * syy + 2.0 * c * s * sxy,
                c * s * (sxx - syy) + (c * c - s * s) * sxy,
            ],
            axis=-1,
        )


def stress_traction(stress3: np.ndarray, normal) -> np.ndarray:
    """sigma . n for stress 3-vectors (..., 3); the normal (..., 2) broadcasts."""
    normal = np.asarray(normal, dtype=float)
    nx, ny = normal[..., 0], normal[..., 1]
    sxx, syy, sxy = stress3[..., 0], stress3[..., 1], stress3[..., 2]
    return np.stack([sxx * nx + sxy * ny, sxy * nx + syy * ny], axis=-1)


@dataclass(frozen=True)
class SingularField:
    """A SingularSolution placed in global coordinates via a NotchFrame."""

    solution: SingularSolution
    frame: NotchFrame

    def displacement(self, points) -> np.ndarray:
        r, phi = self.frame.to_polar(points)
        return self.frame.vector_to_global(
            williams_displacement(self.solution, r, phi)
        )

    def stress(self, points) -> np.ndarray:
        r, phi = self.frame.to_polar(points)
        return self.frame.stress_to_global(williams_stress(self.solution, r, phi))

    def traction(self, points, normal) -> np.ndarray:
        """sigma . n; points (..., 2) and a unit normal that broadcasts
        against them, (2,) or (..., 2) -> (..., 2)."""
        return stress_traction(self.stress(points), normal)

    def with_gsifs(self, K_I: float, K_II: float) -> "SingularField":
        return SingularField(self.solution.with_gsifs(K_I, K_II), self.frame)
