"""Relaxation tensor assembly, projections, attribution, sweeps."""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlat.relaxation
from spinlat.core import (
    MUB_CM_PER_T,
    RATE_CM_TO_PER_US,
    BathSpec,
    GTensor,
    SpinSystem,
    bose_occupation,
    check_rate_matrix,
)
from spinlat.couplings import CouplingTensors
from spinlat.dynamics import JumpBasisDissipator
from spinlat.relaxation import (
    CONVENTIONS,
    RelaxationTensor,
    build_tensor,
    direct_rate,
    lambda_first,
    lambda_second,
    mode_attribution,
    principal_relaxation_axes,
    relaxation_times,
    sweep,
    sweep_csv,
    tensor_report,
)

FREQS = np.array([12.6, 18.0, 24.0])


def make_couplings(d1=None, d2=None, freqs=FREQS):
    n = len(freqs)
    if d1 is None:
        d1 = np.zeros((3, n))
    if d2 is None:
        d2 = np.zeros((3, n, n))
    return CouplingTensors(
        d1=d1,
        d2=d2,
        delta_angstrom=0.01,
        frequencies=np.asarray(freqs, dtype=float),
        field_direction=(0.0, 0.0, 1.0),
        mixed_computed=True,
    )


def make_spin(field_mt=1000.0, omega_override=None):
    return SpinSystem(
        g0=GTensor(2.0 * np.eye(3)),
        field_mt=np.array([0.0, 0.0, field_mt]),
        omega_override_cm=omega_override,
    )


def random_couplings(seed, n=4, scale=1e-3):
    rng = np.random.default_rng(seed)
    d1 = scale * rng.standard_normal((3, n))
    d2 = scale * rng.standard_normal((3, n, n))
    d2 = 0.5 * (d2 + np.swapaxes(d2, 1, 2))
    freqs = np.sort(rng.uniform(5.0, 300.0, n))
    return make_couplings(d1, d2, freqs)


def raman_test_system():
    """Three modes, each coupling one spin axis through diagonal G2 only."""
    n = len(FREQS)
    d2 = np.zeros((3, n, n))
    for q in range(n):
        d2[q, q, q] = 5e-3
    return make_couplings(d2=d2), make_spin(), BathSpec(temperature_k=200.0)


# ------------------------------------------------------------- direct rate

def test_direct_rate_frozen_value():
    n = bose_occupation(12.6, 20.0)
    assert direct_rate(2.0, 12.6, n) == pytest.approx(
        0.014744004754600038, rel=1e-12
    )


def test_direct_rate_zero_temperature_limit():
    g, w = 2.0, 12.6
    assert direct_rate(g, w, 0.0) == pytest.approx(
        2.0 * g / (g * g + 4.0 * w * w), rel=1e-14
    )


def test_direct_rate_small_frequency_approaches_4_over_gamma():
    val = direct_rate(2.0, 1e-9, 0.0)
    assert val == pytest.approx((4.0 / 2.0) * 0.5, rel=1e-6)


def test_direct_rate_vectorized_and_validated():
    out = direct_rate([2.0, 2.0], [12.6, 25.2], [0.1, 0.2])
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        direct_rate(0.0, 12.6, 0.1)
    with pytest.raises(ValueError):
        direct_rate(2.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        direct_rate(2.0, 12.6, -0.1)


# ------------------------------------------------------------ first order

def test_lambda_first_zero_couplings():
    c = make_couplings()
    first = lambda_first(c, BathSpec(temperature_k=100.0), make_spin())
    assert np.all(first.matrix == 0.0)
    assert np.all(first.per_mode == 0.0)


def test_lambda_first_single_mode_rank_one():
    g = 2.5e-3
    d1 = np.zeros((3, 3))
    d1[2, 0] = g
    c = make_couplings(d1=d1)
    bath = BathSpec(temperature_k=50.0)
    spin = make_spin(field_mt=1000.0)
    first = lambda_first(c, bath, spin)

    G = MUB_CM_PER_T * 1.0 * g
    n = bose_occupation(12.6, 50.0)
    expected_zz = direct_rate(2.0, 12.6, n) * G * G
    assert first.matrix[2, 2] == pytest.approx(expected_zz, rel=1e-12)
    mask = np.ones((3, 3), dtype=bool)
    mask[2, 2] = False
    assert np.all(first.matrix[mask] == 0.0)
    assert np.linalg.matrix_rank(first.matrix) == 1


def test_lambda_first_field_doubling_quadruples():
    c = random_couplings(0)
    bath = BathSpec(temperature_k=100.0)
    m1 = lambda_first(c, bath, make_spin(1000.0)).matrix
    m2 = lambda_first(c, bath, make_spin(2000.0)).matrix
    np.testing.assert_allclose(m2, 4.0 * m1, rtol=1e-12)


# ------------------------------------------------------------ second order

def test_lambda_second_resonant_peak_value():
    # single mode at omega = Omega/2, T = 0, one diagonal G2 entry
    omega0 = 0.6
    lamw = 2.0
    d2 = np.zeros((3, 1, 1))
    d2[2, 0, 0] = 4e-3
    c = make_couplings(d2=d2, freqs=[omega0])
    spin = make_spin(omega_override=2.0 * omega0)
    bath = BathSpec(temperature_k=0.0, linewidth_cm=lamw)
    second = lambda_second(c, bath, spin)
    G2 = MUB_CM_PER_T * 1.0 * 4e-3
    assert second.gsq[2, 2] == pytest.approx(G2 * G2 / (np.pi * lamw), rel=1e-12)
    assert np.all(second.quartic == 0.0)


def test_lambda_second_quartic_channel():
    # single mode coupling through d1 only; quartic term carries (G/w)^4
    omega0 = 10.0
    d1 = np.zeros((3, 1))
    d1[0, 0] = 2e-3
    c = make_couplings(d1=d1, d2=np.zeros((3, 1, 1)), freqs=[omega0])
    spin = make_spin(omega_override=1.2)
    bath = BathSpec(temperature_k=150.0, linewidth_cm=2.0)
    second = lambda_second(c, bath, spin)
    n = bose_occupation(omega0, 150.0)
    G = MUB_CM_PER_T * 1.0 * 2e-3
    lor = 2.0 / (np.pi * ((1.2 - 2.0 * omega0) ** 2 + 4.0))
    expected = (2.0 * n + 1.0) ** 2 * lor * (G / omega0) ** 4
    assert second.quartic[0, 0] == pytest.approx(expected, rel=1e-12)
    assert np.all(second.gsq == 0.0)


def all_pairs_gsq_loop(c, bath, spin):
    """gsq and its per-mode split, one ordered mode pair at a time."""
    G2 = MUB_CM_PER_T * spin.field_magnitude_t * c.d2
    w = c.frequencies
    n = bose_occupation(w, bath.temperature_k)
    lam = bath.linewidth_per_mode(c.nmodes)
    omega = spin.larmor_cm()

    def lor(x, width):
        return width / (np.pi * (x * x + width * width))

    expected = np.zeros((3, 3))
    expected_per = np.zeros((c.nmodes, 3, 3))
    for q in range(c.nmodes):
        for p in range(c.nmodes):
            wd = 0.5 * (lam[q] + lam[p])
            weight = (
                lor(omega - w[q] - w[p], wd) * n[q] * n[p]
                + lor(omega + w[q] + w[p], wd) * (n[q] + 1) * (n[p] + 1)
                + lor(omega + w[q] - w[p], wd) * (n[q] + 1) * n[p]
                + lor(omega - w[q] + w[p], wd) * n[q] * (n[p] + 1)
            )
            term = 0.25 * weight * np.outer(G2[:, q, p], G2[:, q, p])
            expected += term
            # each ordered pair is attributed half to q and half to p
            expected_per[q] += 0.5 * term
            expected_per[p] += 0.5 * term
    return expected, expected_per


def test_lambda_second_all_pairs_matches_bruteforce():
    c = random_couplings(3, n=4)
    spin = make_spin()
    bath = BathSpec(temperature_k=120.0, raman_pairing="all_pairs")
    second = lambda_second(c, bath, spin)
    expected, expected_per = all_pairs_gsq_loop(c, bath, spin)
    np.testing.assert_allclose(second.gsq, expected, rtol=1e-12)
    quartic_only = lambda_second(make_couplings(c.d1, None, c.frequencies), bath, spin)
    np.testing.assert_allclose(second.per_mode - quartic_only.per_mode, expected_per,
                               rtol=1e-12, atol=1e-12 * np.abs(expected_per).max())
    np.testing.assert_allclose(
        second.per_mode.sum(axis=0), second.quartic + second.gsq, rtol=1e-10
    )


def test_lambda_second_elastic_diagnostic():
    c, spin, _ = raman_test_system()
    bath = BathSpec(temperature_k=200.0)
    second = lambda_second(c, bath, spin)
    n = bose_occupation(c.frequencies, 200.0)
    omega = spin.larmor_cm()
    G2d = MUB_CM_PER_T * spin.field_magnitude_t * np.einsum("aqq->aq", c.d2)
    expected = (
        (2.0 * n + 1.0) ** 2
        * (2.0 / np.pi)
        * (2.0 / (omega * omega + 4.0))
        * G2d ** 2
    ).sum(axis=1)
    np.testing.assert_allclose(second.elastic, expected, rtol=1e-12)
    assert np.all(second.elastic >= 0.0)


def test_lambda_second_temperature_monotone_psd_ordering():
    c = random_couplings(5)
    spin = make_spin()
    for pairing in ("diagonal_only", "all_pairs"):
        lo = lambda_second(c, BathSpec(temperature_k=50.0, raman_pairing=pairing), spin)
        hi = lambda_second(c, BathSpec(temperature_k=250.0, raman_pairing=pairing), spin)
        lo_m = lo.quartic + lo.gsq
        hi_m = hi.quartic + hi.gsq
        assert np.all(np.diag(hi_m) >= np.diag(lo_m))
        assert np.linalg.eigvalsh(hi_m - lo_m).min() >= -1e-12 * np.trace(hi_m)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_lambda_parts_psd_and_quartic_nonnegative(seed):
    c = random_couplings(seed)
    spin = make_spin()
    bath = BathSpec(
        temperature_k=float(1 + (seed % 300)),
        raman_pairing="all_pairs" if seed % 2 else "diagonal_only",
    )
    tensor = build_tensor(c, bath, spin)
    assert np.all(tensor.lambda2_quartic >= 0.0)
    for m in (tensor.lambda1, tensor.lambda2):
        np.testing.assert_allclose(m, m.T, atol=1e-15 * max(np.abs(m).max(), 1e-30))
        assert np.linalg.eigvalsh(m).min() >= -1e-12 * max(np.trace(m), 1e-300)


def test_sign_gauge_flip_leaves_tensors_invariant():
    c = random_couplings(9)
    d1 = c.d1.copy()
    d2 = c.d2.copy()
    # flipping eigenvector column k negates d1[:, k] and the mixed d2
    # entries with exactly one index at k; [k, k] double-flips back
    k = 2
    d1[:, k] *= -1.0
    d2[:, k, :] *= -1.0
    d2[:, :, k] *= -1.0
    flipped = make_couplings(d1, d2, c.frequencies)
    spin = make_spin()
    for pairing in ("diagonal_only", "all_pairs"):
        bath = BathSpec(temperature_k=150.0, raman_pairing=pairing)
        a = build_tensor(c, bath, spin)
        b = build_tensor(flipped, bath, spin)
        np.testing.assert_array_equal(a.lambda1, b.lambda1)
        np.testing.assert_array_equal(a.lambda2, b.lambda2)


def test_field_scaling_with_fixed_omega():
    c = random_couplings(11)
    bath = BathSpec(temperature_k=77.0, raman_pairing="all_pairs")
    t1 = build_tensor(c, bath, make_spin(1000.0, omega_override=1.2))
    t2 = build_tensor(c, bath, make_spin(2000.0, omega_override=1.2))
    np.testing.assert_allclose(t2.lambda1, 4.0 * t1.lambda1, rtol=1e-12)
    np.testing.assert_allclose(t2.lambda2_gsq, 4.0 * t1.lambda2_gsq, rtol=1e-12)
    np.testing.assert_allclose(
        t2.lambda2_quartic, 16.0 * t1.lambda2_quartic, rtol=1e-12
    )


# ------------------------------------------------------------------- times

def test_relaxation_times_projection_diagonal():
    lam = np.diag([0.1, 0.2, 0.4])
    t = relaxation_times(lam, axis=(0.0, 0.0, 1.0), convention="projection")
    assert t.rate1_cm == pytest.approx(0.8, rel=1e-14)
    assert t.rate2_cm == pytest.approx(0.3, rel=1e-14)
    assert t.t1_us == pytest.approx(1.0 / (0.8 * RATE_CM_TO_PER_US), rel=1e-14)


def test_relaxation_times_lindblad_diagonal():
    lam = np.diag([0.1, 0.2, 0.4])
    t = relaxation_times(lam, convention="lindblad")
    assert t.rate1_cm == pytest.approx(2.0 * (0.1 + 0.2), rel=1e-14)
    assert t.rate2_cm == pytest.approx(0.7 + 0.4, rel=1e-14)


def test_relaxation_times_x_axis_matches_rotation_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    lam = a @ a.T
    t = relaxation_times(lam, axis=(1.0, 0.0, 0.0), convention="projection")
    # rotate x into z, then apply the z-axis formulas
    rot = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    lam_r = rot @ lam @ rot.T
    assert t.rate1_cm == pytest.approx(2.0 * lam_r[2, 2], rel=1e-12)
    assert t.rate2_cm == pytest.approx(
        np.trace(lam_r) - lam_r[2, 2], rel=1e-12
    )


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_projection_identity_t2_from_t1(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    lam = a @ a.T
    t = relaxation_times(lam, convention="projection")
    lhs = t.rate2_cm
    rhs = np.trace(lam) - 0.5 * t.rate1_cm
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_relaxation_times_zero_tensor_is_infinite():
    t = relaxation_times(np.zeros((3, 3)))
    assert np.isinf(t.t1_us) and np.isinf(t.t2_us)


def test_relaxation_times_input_validation():
    with pytest.raises(ValueError, match="unit"):
        relaxation_times(np.eye(3), axis=(1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="convention"):
        relaxation_times(np.eye(3), convention="other")
    with pytest.raises(ValueError, match="symmetric"):
        relaxation_times(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_relaxation_times_accepts_tensor_object():
    c, spin, bath = raman_test_system()
    tensor = build_tensor(c, bath, spin)
    t = relaxation_times(tensor, axis=spin.axis)
    assert t.t1_us > 0.0
    assert t.rate1_cm == pytest.approx(2.0 * tensor.lambda_total[2, 2], rel=1e-12)


# -------------------------------------------------------------- principal

def test_principal_axes_diagonal_input():
    values, vectors = principal_relaxation_axes(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(values, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(vectors, np.eye(3))


def test_principal_axes_rank_one():
    w = np.array([0.3, -0.4, 1.2])
    values, vectors = principal_relaxation_axes(np.outer(w, w))
    assert values[0] == pytest.approx(0.0, abs=1e-14)
    assert values[2] == pytest.approx(w @ w, rel=1e-12)
    direction = vectors[:, 2]
    np.testing.assert_allclose(np.abs(direction @ w), np.linalg.norm(w), rtol=1e-12)


def test_principal_axes_reconstruction_random_psd():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        lam = a @ a.T
        values, vectors = principal_relaxation_axes(lam)
        rebuilt = (vectors * values) @ vectors.T
        np.testing.assert_allclose(rebuilt, lam, atol=1e-10 * values.max())


def test_principal_axes_degenerate_uses_coordinate_axes():
    values, vectors = principal_relaxation_axes(np.eye(3) * 0.7)
    np.testing.assert_allclose(values, 0.7)
    np.testing.assert_allclose(vectors, np.eye(3), atol=1e-12)

    values, vectors = principal_relaxation_axes(np.diag([2.0, 1.0, 1.0]))
    np.testing.assert_allclose(values, [1.0, 1.0, 2.0])
    np.testing.assert_allclose(np.abs(vectors[:, 2]), [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(vectors[:, 0], [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(vectors[:, 1], [0.0, 0.0, 1.0], atol=1e-12)


def test_principal_axes_rejects_asymmetric():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        principal_relaxation_axes(m)


def test_rate_matrix_check_is_shared():
    # the tensor, the dissipator and the principal axes reject a bad rate
    # matrix with the message of the one check in core
    zero = np.zeros((3, 3))
    asymmetric = zero.copy()
    asymmetric[0, 1] = 1e-3
    for m, word in ((asymmetric, "symmetric"), (np.diag([1e-3, -1e-3, 0.0]), "PSD")):
        builders = {
            "lambda1": lambda: RelaxationTensor(
                lambda1=m, lambda2_quartic=zero, lambda2_gsq=zero,
                per_mode_lambda1=m[None], per_mode_lambda2=zero[None],
                elastic_dephasing=np.zeros(3), temperature_k=10.0,
                field_mt=1000.0, omega_cm=1.0, gamma_cm=[2.0],
                linewidth_cm=[2.0], pairing="diagonal_only",
                frequencies=[20.0], source_modes=[1],
            ),
            "lam_cm": lambda: JumpBasisDissipator(m, 0.0),
            "tensor": lambda: principal_relaxation_axes(m),
        }
        for name, build in builders.items():
            with pytest.raises(ValueError, match=word) as got:
                build()
            with pytest.raises(ValueError) as shared:
                check_rate_matrix(m, name)
            assert str(got.value) == str(shared.value)


def _rate_matrix(kind, rng):
    a = rng.standard_normal((3, 3)) * 10.0 ** rng.integers(-6, 3)
    m = np.outer(a[0], a[0]) if kind == "rank1" else a @ a.T
    if kind == "not_psd":
        m = m - (np.linalg.eigvalsh(m)[0] + 1e-3 * np.trace(m)) * np.eye(3)
    if kind == "asymmetric":
        m[0, 1] += 1e-6 * max(np.abs(m).max(), 1.0)
    return m


@settings(max_examples=80, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["psd", "rank1", "not_psd", "asymmetric"]),
                   min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    two_axes=st.booleans(),
)
def test_stacked_rate_check_matches_per_matrix_loop(kinds, seed, two_axes):
    # one batched check gives the verdict and message of checking each
    # matrix in flat order, the first failure named by its index
    rng = np.random.default_rng(seed)
    stack = np.array([_rate_matrix(kind, rng) for kind in kinds])
    if two_axes and len(kinds) % 2 == 0:
        stack = stack.reshape(2, -1, 3, 3)
    expected = None
    for idx in np.ndindex(stack.shape[:-2]):
        try:
            check_rate_matrix(stack[idx], f"lam at index {', '.join(map(str, idx))}")
        except ValueError as e:
            expected = str(e)
            break
    if expected is None:
        check_rate_matrix(stack, "lam")
    else:
        with pytest.raises(ValueError) as got:
            check_rate_matrix(stack, "lam")
        assert str(got.value) == expected


def test_failing_sweep_point_names_itself(monkeypatch):
    # a non-finite occupation at 80 K fails that row; the message names
    # its first point, in the field-by-field order of the checks
    def occupation(omega_cm, temperature_k):
        n = bose_occupation(omega_cm, temperature_k)
        return n * np.nan if temperature_k == 80.0 else n

    monkeypatch.setattr(spinlat.relaxation, "bose_occupation", occupation)
    bath = BathSpec(temperature_k=1.0, raman_pairing="all_pairs")
    with pytest.raises(ValueError) as got:
        sweep(random_couplings(3), make_spin(), [40.0, 80.0], [1000.0, 2000.0], bath)
    assert str(got.value) == "rates at 80.0 K, 1000.0 mT contain non-finite entries"


# ------------------------------------------------------------ attribution

def test_attribution_single_mode_full_share():
    d2 = np.zeros((3, 1, 1))
    d2[2, 0, 0] = 1e-3
    c = make_couplings(d2=d2, freqs=[20.0])
    att = mode_attribution(c, BathSpec(temperature_k=100.0), make_spin())
    assert att.mode_numbers.tolist() == [1]
    assert att.trace_share2[0] == pytest.approx(1.0, rel=1e-12)
    assert att.shares2[0, 2, 2] == pytest.approx(1.0, rel=1e-12)


def test_attribution_identical_modes_split_evenly():
    d2 = np.zeros((3, 2, 2))
    d2[2, 0, 0] = 1e-3
    d2[2, 1, 1] = 1e-3
    c = make_couplings(d2=d2, freqs=[20.0, 20.0])
    att = mode_attribution(c, BathSpec(temperature_k=100.0), make_spin())
    np.testing.assert_allclose(att.trace_share2, [0.5, 0.5], rtol=1e-12)


def test_attribution_ranking_and_top_m():
    d2 = np.zeros((3, 3, 3))
    d2[0, 0, 0] = 1e-3   # weakest: frequency raises resonance denominator
    d2[1, 1, 1] = 3e-3
    d2[2, 2, 2] = 2e-3
    c = make_couplings(d2=d2, freqs=[30.0, 30.0, 30.0])
    att = mode_attribution(c, BathSpec(temperature_k=100.0), make_spin(), top_m=2)
    assert att.mode_numbers.tolist() == [2, 3]
    assert att.trace_share2.shape == (2,)
    assert att.trace_share2[0] > att.trace_share2[1]


def test_attribution_diagonal_shares_sum_to_one():
    c = random_couplings(21)
    att = mode_attribution(c, BathSpec(temperature_k=150.0), make_spin())
    sums = att.shares2.sum(axis=0)
    np.testing.assert_allclose(np.diag(sums), 1.0, rtol=1e-10)
    sums1 = att.shares1.sum(axis=0)
    np.testing.assert_allclose(np.diag(sums1), 1.0, rtol=1e-10)


# ------------------------------------------------------------------ sweeps

def test_sweep_single_point_matches_pipeline():
    # every row is bitwise what build_tensor and relaxation_times give there
    c, spin, bath = raman_test_system()
    cases = (
        (c, bath, [200.0], [1000.0]),
        (random_couplings(13), replace(bath, raman_pairing="all_pairs"),
         [80.0, 160.0, 240.0], [800.0, 1600.0]),
        # N=40 on 60 x 2, so the per-point BLAS product runs at a size
        # where a temperature-batched product would change its bits
        (random_couplings(41, n=40), replace(bath, raman_pairing="all_pairs"),
         list(np.linspace(5.0, 300.0, 60)), [500.0, 2000.0]),
    )
    for c, bath, temps, fields in cases:
        points = sweep(c, spin, temps, fields, bath)
        assert len(points) == len(temps) * len(fields)
        for p, (t, b) in zip(points, itertools.product(temps, fields)):
            tensor = build_tensor(c, replace(bath, temperature_k=t), make_spin(b))
            times = relaxation_times(tensor, axis=spin.axis)
            assert (p.temperature_k, p.field_mt, p.omega_cm) == (t, b, tensor.omega_cm)
            assert (p.t1_us, p.t2_us) == (times.t1_us, times.t2_us)
            for name in ("lambda1", "lambda2", "lambda2_quartic", "lambda2_gsq"):
                np.testing.assert_array_equal(getattr(p, name), getattr(tensor, name))


SWEEP_CASES = {
    "z-field": {},
    "tilted-field": {"direction": (1.0, -2.0, -2.0)},
    "omega-override": {"omega_override_cm": 1.5},
    "mode-linewidths": {"linewidth_cm": [1.0, 2.5, 0.7, 4.0]},
    "zero-field-row": {"first_field_mt": 0.0},
}


@pytest.mark.parametrize("case", list(SWEEP_CASES))
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (4, 1), (3, 2)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
def test_sweep_rows_bitwise_equal_build_tensor(pairing, shape, case):
    # the grid kernel shares work across rows; no row may depend on that
    opts = SWEEP_CASES[case]
    direction = np.asarray(opts.get("direction", (0.0, 0.0, 1.0)))
    direction = direction / np.linalg.norm(direction)
    spin = SpinSystem(
        g0=GTensor(np.diag([1.9, 2.0, 2.1])), field_mt=direction, axis=direction,
        omega_override_cm=opts.get("omega_override_cm"),
    )
    bath = BathSpec(temperature_k=1.0, linewidth_cm=opts.get("linewidth_cm", 2.0),
                    raman_pairing=pairing)
    c = random_couplings(17)
    temps = [40.0 * (k + 1) for k in range(shape[0])]
    fields = [opts.get("first_field_mt", 700.0) + 450.0 * k for k in range(shape[1])]
    points = sweep(c, spin, temps, fields, bath)
    assert len(points) == len(temps) * len(fields)
    for p, (t, b) in zip(points, itertools.product(temps, fields)):
        spin_b = replace(spin, field_mt=spin.field_direction * b)
        tensor = build_tensor(c, replace(bath, temperature_k=t), spin_b)
        times = relaxation_times(tensor, axis=spin.axis)
        assert (p.temperature_k, p.field_mt, p.omega_cm) == (t, b, tensor.omega_cm)
        assert (p.t1_us, p.t2_us) == (times.t1_us, times.t2_us)
        for name in ("lambda1", "lambda2", "lambda2_quartic", "lambda2_gsq"):
            np.testing.assert_array_equal(getattr(p, name), getattr(tensor, name))


def test_sweep_computes_occupations_once_per_temperature(monkeypatch):
    calls = []

    def counting(omega_cm, temperature_k):
        calls.append(temperature_k)
        return bose_occupation(omega_cm, temperature_k)

    monkeypatch.setattr(spinlat.relaxation, "bose_occupation", counting)
    c = random_couplings(29, n=5)
    bath = BathSpec(temperature_k=1.0, linewidth_cm=[1.0, 3.0, 2.0, 0.5, 2.5],
                    raman_pairing="all_pairs")
    temps = [30.0, 90.0, 150.0, 210.0, 270.0]
    fields = [400.0, 900.0, 1400.0, 1900.0]
    points = sweep(c, make_spin(), temps, fields, bath)
    assert calls == temps
    for p, (t, b) in zip(points, itertools.product(temps, fields)):
        expected, _ = all_pairs_gsq_loop(c, replace(bath, temperature_k=t), make_spin(b))
        np.testing.assert_allclose(p.lambda2_gsq, expected, rtol=1e-13,
                                   atol=1e-13 * np.abs(expected).max())


def test_sweep_grid_order_and_omega_recomputed():
    c, spin, bath = raman_test_system()
    points = sweep(c, spin, [100.0, 200.0], [500.0, 1000.0], bath)
    assert [(p.temperature_k, p.field_mt) for p in points] == [
        (100.0, 500.0), (100.0, 1000.0), (200.0, 500.0), (200.0, 1000.0),
    ]
    assert points[1].omega_cm == pytest.approx(2.0 * points[0].omega_cm, rel=1e-12)


def test_sweep_rejects_empty_grid():
    c, spin, bath = raman_test_system()
    with pytest.raises(ValueError, match="nonempty"):
        sweep(c, spin, [], [1000.0], bath)


def test_sweep_t_squared_scaling_of_raman_rate():
    c, spin, bath = raman_test_system()
    temps = np.linspace(100.0, 300.0, 9)
    points = sweep(c, spin, temps, [1000.0], bath)
    rates = np.array([1.0 / p.t1_us for p in points])
    slope = np.polyfit(np.log(temps), np.log(rates), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_sweep_csv_shape_and_determinism():
    c, spin, bath = raman_test_system()
    points = sweep(c, spin, [100.0, 200.0], [1000.0], bath)
    text = sweep_csv(points)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "temperature_k" and "l2_zz" in header
    assert sweep_csv(points) == text
    row = lines[1].split(",")
    assert float(row[0]) == 100.0


def test_tensor_report_round_trips_through_json():
    c, spin, bath = raman_test_system()
    tensor = build_tensor(c, bath, spin)
    report = tensor_report(tensor, axis=spin.axis, top_m=2)
    text = json.dumps(report, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["metadata"]["pairing"] == "diagonal_only"
    assert len(parsed["mode_attribution"]) == 2
    assert set(parsed["times_us"]) == set(CONVENTIONS)
    shares = [row["lambda2_trace_share"] for row in parsed["mode_attribution"]]
    assert all(0.0 <= s <= 1.0 for s in shares)
