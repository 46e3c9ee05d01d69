"""Constitutive matrices and Kolosov constants for both plane states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from smoothfem.elasticity import (
    PLANE_STRAIN,
    PLANE_STRESS,
    Material,
    MaterialError,
    compliance_matrix,
    elastic_constants,
    elasticity_matrix,
)


def test_nu_zero_gives_identity_like_matrix():
    for state in (PLANE_STRAIN, PLANE_STRESS):
        D = elasticity_matrix(Material(1.0, 0.0, state))
        assert_allclose(D, np.diag([1.0, 1.0, 0.5]), atol=1e-15)


def test_plane_strain_d11_value():
    # E (1-nu) / ((1+nu)(1-2nu)) evaluated independently
    E, nu = 3.0e7, 0.3
    D = elasticity_matrix(Material(E, nu, PLANE_STRAIN))
    assert_allclose(D[0, 0], E * (1 - nu) / ((1 + nu) * (1 - 2 * nu)), rtol=1e-14)
    assert_allclose(D[0, 0], 4.0385e7, rtol=1e-4)


@given(
    E=st.floats(1e-2, 1e12),
    nu=st.floats(0.0, 0.49),
    state=st.sampled_from([PLANE_STRAIN, PLANE_STRESS]),
)
@settings(max_examples=50, deadline=None)
def test_d_symmetric_positive_definite(E, nu, state):
    D = elasticity_matrix(Material(E, nu, state))
    assert_allclose(D, D.T, rtol=1e-15)
    assert np.all(np.linalg.eigvalsh(D) > 0.0)


def test_elastic_constants_printed_values():
    mu, kappa = elastic_constants(Material(3.0e7, 0.3, PLANE_STRAIN))
    assert_allclose(mu, 1.153846e7, rtol=1e-6)
    assert_allclose(kappa, 1.8, rtol=1e-14)

    _, kappa = elastic_constants(Material(1000.0, 0.3, PLANE_STRESS))
    assert_allclose(kappa, 2.7 / 1.3, rtol=1e-14)

    mu, kappa = elastic_constants(Material(1.0, 0.0, PLANE_STRAIN))
    assert mu == 0.5 and kappa == 3.0


def test_states_coincide_at_nu_zero():
    D1 = elasticity_matrix(Material(7.0, 0.0, PLANE_STRAIN))
    D2 = elasticity_matrix(Material(7.0, 0.0, PLANE_STRESS))
    assert_allclose(D1, D2, rtol=1e-15)


@given(nu=st.floats(0.0, 0.499))
@settings(max_examples=50, deadline=None)
def test_kolosov_ranges(nu):
    _, k_strain = elastic_constants(Material(1.0, nu, PLANE_STRAIN))
    _, k_stress = elastic_constants(Material(1.0, nu, PLANE_STRESS))
    assert 1.0 < k_strain <= 3.0
    assert 5.0 / 3.0 < k_stress <= 3.0


def test_compliance_is_inverse():
    for state in (PLANE_STRAIN, PLANE_STRESS):
        m = Material(3.0e7, 0.3, state)
        DDinv = elasticity_matrix(m) @ compliance_matrix(m)
        assert_allclose(DDinv, np.eye(3), atol=1e-12)


def test_invalid_material_rejected():
    with pytest.raises(MaterialError, match="Young's modulus"):
        Material(-1.0, 0.3, PLANE_STRAIN)
    with pytest.raises(MaterialError, match="Poisson ratio"):
        Material(1.0, 0.5, PLANE_STRAIN)
    with pytest.raises(MaterialError, match="unknown plane state"):
        Material(1.0, 0.3, "plane_chaos")
