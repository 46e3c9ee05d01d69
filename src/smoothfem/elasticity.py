"""Isotropic plane-stress / plane-strain material model.

Conventions used throughout the package:

* stress and strain 3-vectors are ordered (xx, yy, xy),
* the shear entry of a strain vector is the *engineering* shear gamma_xy = 2 eps_xy,
  so the constitutive law is simply ``sigma = D @ eps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PLANE_STRAIN = "plane_strain"
PLANE_STRESS = "plane_stress"


@dataclass(frozen=True)
class Material:
    """Linear isotropic material in a 2D reduction.

    Attributes:
        E: Young's modulus, > 0 and finite.
        nu: Poisson ratio in [0, 0.5).
        state: ``"plane_strain"`` or ``"plane_stress"``.
    """

    E: float
    nu: float
    state: str = PLANE_STRAIN

    def __post_init__(self) -> None:
        if not (0.0 < self.E < np.inf):
            raise ValueError(f"Young's modulus must be positive and finite, got {self.E}")
        if not (0.0 <= self.nu < 0.5):
            raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {self.nu}")
        if self.state not in (PLANE_STRAIN, PLANE_STRESS):
            raise ValueError(f"unknown plane state {self.state!r}")


def elasticity_matrix(material: Material) -> np.ndarray:
    """3x3 constitutive matrix D with sigma = D eps (engineering shear).

    Both reductions share D33 = E / (2 (1 + nu)) = mu.
    """
    E, nu = material.E, material.nu
    if material.state == PLANE_STRAIN:
        c = E / ((1.0 + nu) * (1.0 - 2.0 * nu))
        D = c * np.array(
            [
                [1.0 - nu, nu, 0.0],
                [nu, 1.0 - nu, 0.0],
                [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0],
            ]
        )
    else:
        c = E / (1.0 - nu * nu)
        D = c * np.array(
            [
                [1.0, nu, 0.0],
                [nu, 1.0, 0.0],
                [0.0, 0.0, (1.0 - nu) / 2.0],
            ]
        )
    return D


def compliance_matrix(material: Material) -> np.ndarray:
    """Inverse of the constitutive matrix (used by energy norms)."""
    return np.linalg.inv(elasticity_matrix(material))


def elastic_constants(material: Material) -> tuple[float, float]:
    """Shear modulus mu and Kolosov constant kappa.

    kappa = 3 - 4 nu in plane strain, (3 - nu)/(1 + nu) in plane stress.
    """
    mu = material.E / (2.0 * (1.0 + material.nu))
    if material.state == PLANE_STRAIN:
        kappa = 3.0 - 4.0 * material.nu
    else:
        kappa = (3.0 - material.nu) / (1.0 + material.nu)
    return mu, kappa
