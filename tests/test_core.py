"""Unit conventions, core types, and the three scalar building blocks.

Frozen expected values were computed by evaluating the defining formulas
directly at the quoted inputs before the implementation existed.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlat.core import (
    C_CM_PER_S,
    HBAR_AMU_A2_CM,
    KB_CM_PER_K,
    MUB_CM_PER_T,
    RATE_CM_TO_PER_S,
    RATE_CM_TO_PER_US,
    BathSpec,
    Geometry,
    GTensor,
    ModeSet,
    SpinSystem,
    bose_occupation,
    larmor_frequency,
    principal_g_values,
)
from conftest import REFERENCE_G, make_geometry, make_modeset


# ---------------------------------------------------------------- constants

def test_rate_conversion_factors():
    assert RATE_CM_TO_PER_S == pytest.approx(2 * math.pi * C_CM_PER_S, rel=1e-15)
    assert RATE_CM_TO_PER_US == pytest.approx(RATE_CM_TO_PER_S * 1e-6, rel=1e-15)


def test_hbar_constant_dimensional_analysis():
    # independent derivation: hbar[J s] -> amu A^2 / s, then divide by
    # the angular conversion 2*pi*c and the extra factor 2 from the
    # x = a + a^dagger coordinate normalization
    hbar_si = 1.054571817e-34
    amu = 1.66053906660e-27
    hbar_amu_a2_per_s = hbar_si / amu * 1e20
    expected = hbar_amu_a2_per_s / (2 * math.pi * C_CM_PER_S) / 2.0
    assert HBAR_AMU_A2_CM == pytest.approx(expected, rel=1e-12)
    assert HBAR_AMU_A2_CM == pytest.approx(16.8576, abs=5e-4)


# ---------------------------------------------------------- bose_occupation

def test_bose_frozen_values():
    # frozen: 1/(exp(12.6/(0.69503480*T)) - 1)
    assert bose_occupation(12.6, 20.0) == pytest.approx(0.6777510997974511, rel=1e-12)
    assert bose_occupation(12.6, 300.0) == pytest.approx(16.053483031673576, rel=1e-12)


def test_bose_zero_temperature_is_exact_zero():
    assert bose_occupation(12.6, 0.0) == 0.0
    assert bose_occupation(1e-3, 0.0) == 0.0


def test_bose_high_temperature_limit():
    # classical limit kT/w - 1/2, deviation below 1e-2 at T=300 for w=12.6
    n = bose_occupation(12.6, 300.0)
    assert abs(n - (KB_CM_PER_K * 300.0 / 12.6 - 0.5)) < 1e-2


def test_bose_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        bose_occupation(0.0, 10.0)
    with pytest.raises(ValueError):
        bose_occupation(-5.0, 10.0)
    with pytest.raises(ValueError):
        bose_occupation(12.6, -1.0)


def test_bose_vectorized_and_no_overflow():
    w = np.array([1.0, 10.0, 1000.0, 5000.0])
    n = bose_occupation(w, 0.1)  # w/kT up to ~7e4, must not warn or overflow
    assert n.shape == w.shape
    assert np.all(n >= 0.0)
    assert n[-1] == 0.0  # underflows to exactly zero


@settings(max_examples=50, deadline=None)
@given(
    w=st.floats(min_value=0.1, max_value=500.0),
    t1=st.floats(min_value=0.1, max_value=150.0),
    dt=st.floats(min_value=0.1, max_value=150.0),
)
def test_bose_monotone_in_temperature(w, t1, dt):
    hot, cold = bose_occupation(w, t1 + dt), bose_occupation(w, t1)
    if hot > 0.0:  # both may underflow to exactly 0 when w/kT > ~700
        assert hot > cold
    else:
        assert cold == 0.0


# --------------------------------------------------------- larmor_frequency

def test_larmor_frozen_values():
    # frozen: 1.991 * 0.4668644778 * 1.266
    assert larmor_frequency(1.991 * np.eye(3), [0.0, 0.0, 1266.0]) == pytest.approx(
        1.176781403929547, rel=1e-12
    )
    # frozen: 2 * 0.4668644778 * 1.0
    assert larmor_frequency(2.0 * np.eye(3), [0.0, 0.0, 1000.0]) == pytest.approx(
        0.9337289556, rel=1e-12
    )


def test_larmor_zero_field():
    assert larmor_frequency(2.0 * np.eye(3), [0.0, 0.0, 0.0]) == 0.0


def test_larmor_linear_in_field_magnitude():
    g = GTensor(REFERENCE_G)
    b = np.array([120.0, -340.0, 900.0])
    w1 = larmor_frequency(g, b)
    w2 = larmor_frequency(g, 2.0 * b)
    assert abs(w2 - 2.0 * w1) <= 1e-12 * w2


def test_larmor_anisotropic_direction_dependence():
    g = np.diag([1.9, 2.0, 2.1])
    wz = larmor_frequency(g, [0, 0, 1000.0])
    wx = larmor_frequency(g, [1000.0, 0, 0])
    assert wz == pytest.approx(2.1 * MUB_CM_PER_T, rel=1e-12)
    assert wx == pytest.approx(1.9 * MUB_CM_PER_T, rel=1e-12)


# -------------------------------------------------------- principal_g_values

def test_principal_values_reference_matrix():
    pv = principal_g_values(REFERENCE_G)
    assert pv == pytest.approx([1.979, 1.991, 1.991], abs=1e-3)
    assert np.all(np.diff(pv) >= 0.0)


def test_principal_values_diagonal_matrix():
    pv = principal_g_values(np.diag([2.3, 1.7, 2.0]))
    np.testing.assert_allclose(pv, [1.7, 2.0, 2.3], rtol=1e-14)


def test_principal_values_rotation_invariant():
    rng = np.random.default_rng(3)
    g = REFERENCE_G
    base = principal_g_values(g)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        np.testing.assert_allclose(principal_g_values(q @ g), base, atol=1e-10)
        np.testing.assert_allclose(principal_g_values(g @ q), base, atol=1e-10)


def test_principal_values_uses_svd_not_eigvals():
    # strongly asymmetric matrix: eigenvalues are complex, singular
    # values stay real and match sqrt(eig(g g^T))
    g = np.array([[2.0, 0.4, 0.0], [-0.4, 2.0, 0.0], [0.0, 0.0, 1.9]])
    pv = principal_g_values(g)
    expected = np.sort(np.sqrt(np.linalg.eigvalsh(g @ g.T)))
    np.testing.assert_allclose(pv, expected, rtol=1e-12)


def test_principal_values_rejects_nonfinite():
    bad = np.full((3, 3), np.nan)
    with pytest.raises(ValueError):
        principal_g_values(bad)


# -------------------------------------------------------------------- types

def test_gtensor_warns_outside_usual_range():
    with pytest.warns(UserWarning, match="g diagonal"):
        GTensor(np.diag([1.0, 2.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GTensor(REFERENCE_G)  # no warning


def test_gtensor_shape_check():
    with pytest.raises(ValueError):
        GTensor(np.eye(2))


def test_geometry_validation():
    with pytest.raises(ValueError, match="masses"):
        Geometry(("H", "O"), np.array([1.0, -16.0]), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Geometry(("H",), np.array([1.0]), np.zeros((2, 3)))


def test_modeset_rejects_nonorthonormal_columns():
    geom = make_geometry(2)
    vecs = np.zeros((6, 2))
    vecs[0, 0] = 1.0
    vecs[0, 1] = 1.0  # parallel columns
    with pytest.raises(ValueError, match="orthonormal"):
        ModeSet(geometry=geom, frequencies=np.array([10.0, 20.0]), eigenvectors=vecs)


def test_modeset_rejects_unsorted_frequencies():
    geom = make_geometry(2)
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 6)))
    with pytest.raises(ValueError, match="ascending"):
        ModeSet(geometry=geom, frequencies=np.array([20.0, 10.0]), eigenvectors=q[:, :2])


def test_modeset_cartesian_direction_is_unit_norm():
    ms = make_modeset(natoms=4, nmodes=5)
    for k in range(ms.nmodes):
        u = ms.cartesian_direction(k)
        assert u.shape == (4, 3)
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)


def test_spin_system_axis_and_override():
    # the axis is the field's direction, not a setting of its own
    g = GTensor(2.0 * np.eye(3))
    with pytest.raises(TypeError, match="axis"):
        SpinSystem(g0=g, field_mt=[0, 0, 1000.0], axis=(0, 0, 1.0))
    assert SpinSystem(g0=g, field_mt=np.zeros(3)).axis.tolist() == [0.0, 0.0, 1.0]
    assert SpinSystem(g0=g, field_mt=[0, 0, 1000.0]).axis.tolist() == [0.0, 0.0, 1.0]
    np.testing.assert_allclose(SpinSystem(g0=g, field_mt=[300.0, 0, -400.0]).axis,
                               [0.6, 0.0, -0.8], rtol=1e-15)
    s = SpinSystem(g0=g, field_mt=[0, 0, 1000.0], omega_override_cm=1.2)
    assert s.larmor_cm() == 1.2
    s2 = SpinSystem(g0=g, field_mt=[0, 0, 1000.0])
    assert s2.larmor_cm() == pytest.approx(0.9337289556, rel=1e-12)


def test_bathspec_validation_and_broadcast():
    with pytest.raises(ValueError):
        BathSpec(temperature_k=-1.0)
    with pytest.raises(ValueError):
        BathSpec(temperature_k=10.0, gamma_cm=0.0)
    with pytest.raises(ValueError, match="raman_pairing"):
        BathSpec(temperature_k=10.0, raman_pairing="pairs")
    b = BathSpec(temperature_k=20.0, gamma_cm=2.0, linewidth_cm=[1.0, 2.0, 3.0])
    np.testing.assert_allclose(b.gamma_per_mode(3), [2.0, 2.0, 2.0])
    np.testing.assert_allclose(b.linewidth_per_mode(3), [1.0, 2.0, 3.0])


def test_types_immutable():
    g = GTensor(REFERENCE_G)
    with pytest.raises(Exception):
        g.matrix = np.eye(3)
    with pytest.raises(Exception):
        g.matrix[0, 0] = 5.0
