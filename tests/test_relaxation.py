"""Relaxation tensor assembly, projections, attribution, sweeps."""

import itertools
import json
from dataclasses import astuple, replace

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
from spinlat.dynamics import (
    JumpBasisDissipator,
    fit_decay_rate,
    frame_rotation,
    lindblad_evolve,
    redfield_evolve,
    spectral_density,
)
from spinlat.relaxation import (
    CONVENTIONS,
    RelaxationTensor,
    RelaxationTimes,
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


@pytest.mark.parametrize("times", [(0.0, 1.0), (1.0, -1.0), (np.nan, 1.0)],
                         ids=["zero-t1", "negative-t2", "nan-t1"])
def test_relaxation_times_record_refuses_a_time_that_is_not_positive(times):
    with pytest.raises(ValueError, match="^relaxation times must be positive$"):
        RelaxationTimes(*times, rate1_cm=1.0, rate2_cm=1.0)


def test_times_do_not_depend_on_the_tensors_memory_layout():
    # one symmetric tensor C-ordered, Fortran-ordered and as a strided view
    # gives the same times bit for bit in each convention, so a sweep row
    # stays bitwise its point whatever layout the kernel stacks points in
    rng = np.random.default_rng(2000)
    for case in range(200):
        a = rng.standard_normal((3, 3))
        m = a @ a.T
        m = 0.5 * (m + m.T)
        wide = np.zeros((3, 6))
        wide[:, ::2] = m
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        for convention in CONVENTIONS:
            times = [astuple(relaxation_times(x, axis, convention))
                     for x in (m, np.asfortranarray(m), wide[:, ::2])]
            assert times[1:] == times[:1] * 2, (case, convention, times)


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


@pytest.mark.parametrize("spectrum", [
    [1.0, 1.0, 3.0], [1.0, 3.0, 3.0], [2.0, 2.0, 2.0], [0.0, 1.5, 1.5], [0.0, 0.0, 1.5],
    [1.0, 1.0 + 4e-9, 3.0], [1.0, 1.0 + 3e-9, 1.0 + 6e-9],
], ids=["axial-low", "axial-high", "isotropic", "rank-2", "rank-1", "near-pair",
        "near-triple"])
def test_principal_axes_of_rotated_degenerate_tensors(spectrum):
    # a degenerate cluster (eigenvalues within 1e-8 of the largest) is rebuilt
    # from x, y and z, which must always give the cluster a full basis
    rng = np.random.default_rng(31)
    for _ in range(300):
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        lam = (rot * spectrum) @ rot.T
        values, vectors = principal_relaxation_axes(0.5 * (lam + lam.T))
        assert np.all(np.diff(values) >= 0.0)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(3), atol=1e-12)
        lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(3)]
        assert np.all(lead > 0.0)


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
    for m, word in ((asymmetric, "symmetric"), (np.diag([1e-3, -1e-3, 0.0]), "PSD"),
                    (np.diag([1e-3, np.nan, 0.0]), "non-finite"),
                    (np.eye(2), r"3x3, got shape \(2, 2\)")):
        builders = {
            "lambda1": lambda: RelaxationTensor(
                lambda1=m, lambda2_quartic=zero, lambda2_gsq=zero,
                per_mode_lambda1=m[None], per_mode_lambda2=zero[None], temperature_k=10.0,
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


def test_all_pairs_refused_without_mixed_couplings():
    # couplings built without pair runs hold zero mixed second derivatives,
    # so an all_pairs rate would leave every mixed channel out; every
    # caller of the rate kernel refuses, naming mixed_computed
    c = replace(random_couplings(5), mixed_computed=False)
    bath = BathSpec(temperature_k=50.0, raman_pairing="all_pairs")
    spin = make_spin()
    calls = [lambda: build_tensor(c, bath, spin), lambda: lambda_first(c, bath, spin),
             lambda: lambda_second(c, bath, spin), lambda: mode_attribution(c, bath, spin),
             lambda: sweep(c, spin, [20.0, 50.0], [1000.0], bath)]
    for call in calls:
        with pytest.raises(ValueError, match="mixed_computed false"):
            call()
    diagonal = replace(bath, raman_pairing="diagonal_only")
    assert np.array_equal(build_tensor(c, diagonal, spin).lambda2,
                          build_tensor(replace(c, mixed_computed=True), diagonal,
                                       spin).lambda2)
    # one mode has no mixed derivative to leave out
    one = make_couplings(d2=np.full((3, 1, 1), 1e-3), freqs=[20.0])
    build_tensor(replace(one, mixed_computed=False), bath, spin)


@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
def test_lambda_first_and_second_are_the_parts_of_build_tensor(pairing, monkeypatch):
    # build_tensor is the one entry to a point: the orders criterion 04 reads
    # are its parts bit for bit, and pass or fail its checks with its message
    c, spin = random_couplings(11, n=5), make_spin(1266.0)
    bath = BathSpec(temperature_k=80.0, raman_pairing=pairing)
    tensor = build_tensor(c, bath, spin)
    first, second = lambda_first(c, bath, spin), lambda_second(c, bath, spin)
    parts = ((first.matrix, tensor.lambda1), (first.per_mode, tensor.per_mode_lambda1),
             (second.quartic, tensor.lambda2_quartic), (second.gsq, tensor.lambda2_gsq),
             (second.per_mode, tensor.per_mode_lambda2))
    for got, want in parts:
        assert got.shape == want.shape and np.array_equal(got, want)

    def negative_rate(gamma_cm, omega_cm, occupation):
        return -np.ones(np.shape(occupation))

    refused = [
        (make_spin(1e90), None),  # (muB|B|/hc)^4 overflows: lambda2_quartic is inf
        (SpinSystem(g0=GTensor(2.0 * np.eye(3)), field_mt=[1000.0, 0.0, 0.0]), None),
        (make_spin(), ("bose_occupation", lambda w, t: np.full(np.shape(w), np.nan))),
        (make_spin(), ("direct_rate", negative_rate)),  # lambda1 not PSD
    ]
    for spin, patch in refused:
        with monkeypatch.context() as m:
            if patch:
                m.setattr(spinlat.relaxation, *patch)
            messages = []
            for call in (build_tensor, lambda_first, lambda_second):
                with pytest.raises(ValueError) as got:
                    call(c, bath, spin)
                messages.append(str(got.value))
        assert messages[1:] == messages[:1] * 2, messages


# --------------------------------------------------------- symmetry oracle

def _rotation_case(seed, pairing, field_mt=1266.0):
    """The (couplings, bath, spin) of a seeded six-mode set (anisotropic g0,
    random field direction, 100 K), those of the set turned by a seeded
    proper rotation R (d1, d2's spin index, the field direction,
    g0 -> R g0 R^T), and R."""
    rng = np.random.default_rng(seed)
    d1 = 1e-3 * rng.standard_normal((3, 6))
    d2 = 1e-3 * rng.standard_normal((3, 6, 6))
    d2 = 0.5 * (d2 + np.swapaxes(d2, 1, 2))
    freqs = np.sort(rng.uniform(20.0, 300.0, 6))
    g0 = np.diag([1.98, 2.01, 2.25]) + 0.01 * rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    b /= np.linalg.norm(b)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = q if np.linalg.det(q) > 0.0 else -q
    bath = BathSpec(temperature_k=100.0, raman_pairing=pairing)

    def inputs(r):
        c = CouplingTensors(d1=r @ d1, d2=np.einsum("ab,bqp->aqp", r, d2),
                            delta_angstrom=0.01, frequencies=freqs, field_direction=r @ b,
                            mixed_computed=True)
        spin = SpinSystem(g0=GTensor(r @ g0 @ r.T), field_mt=field_mt * (r @ b))
        return c, bath, spin

    return inputs(np.eye(3)), inputs(rot), rot


def _worst_rotation_error(part, pairing):
    """max over five sets of |L(R) - R L R^T| over the largest entry of L."""
    worst = 0.0
    for seed in range(5):
        *frames, rot = _rotation_case(seed, pairing)
        want, got = (getattr(build_tensor(*inputs), part) for inputs in frames)
        worst = max(worst, np.abs(got - rot @ want @ rot.T).max() / np.abs(want).max())
    return worst


@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
@pytest.mark.parametrize("part", ["lambda1", "lambda2_gsq"])
def test_rate_tensors_turn_with_the_input(part, pairing):
    # one rotation of the couplings, the field and g0 turns each order as a
    # tensor, L -> R L R^T
    assert _worst_rotation_error(part, pairing) <= 1e-12


@pytest.mark.xfail(strict=True, reason="frame-dependent until the one-bath rework "
                   "(ROADMAP item 4): the quartic part squares each spin component "
                   "of d1 / omega")
@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
def test_lab_frame_outputs_turn_with_the_input(pairing):
    assert _worst_rotation_error("lambda2_quartic", pairing) <= 1e-12


@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
def test_reversed_field_leaves_every_tensor_bitwise(pairing):
    names = ("lambda1", "lambda2_quartic", "lambda2_gsq", "per_mode_lambda1",
             "per_mode_lambda2")
    for seed in range(5):
        up, down = (build_tensor(*_rotation_case(seed, pairing, field)[0])
                    for field in (1266.0, -1266.0))
        for name in names:
            assert np.array_equal(getattr(up, name), getattr(down, name)), (seed, name)


@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
def test_times_and_shares_do_not_turn_with_the_input(pairing):
    # what the rotation leaves alone: both conventions' rates within 1e-12 of
    # Tr L (worst measured 1.0e-13), the times of a 2x2 sweep within 1e-12
    # relative (4.3e-13), the trace shares within 1e-12 (5.4e-14) and the
    # ranked order exactly; the frame-dependent quartic part is about 3e-16
    # of Tr L at 1266 mT, below each bound
    for seed in range(5):
        *frames, _ = _rotation_case(seed, pairing)
        tensors = [build_tensor(*inputs) for inputs in frames]
        bound = 1e-12 * np.trace(tensors[0].lambda_total)
        for convention in CONVENTIONS:
            plain, turned = (relaxation_times(t, axis=spin.axis, convention=convention)
                             for t, (_, _, spin) in zip(tensors, frames))
            assert abs(turned.rate1_cm - plain.rate1_cm) <= bound, (seed, convention)
            assert abs(turned.rate2_cm - plain.rate2_cm) <= bound, (seed, convention)
            plain, turned = (sweep(c, spin, [5.0, 100.0], [500.0, 1266.0], bath, convention)
                             for c, bath, spin in frames)
            for time in ("t1_us", "t2_us"):
                np.testing.assert_allclose(turned[time], plain[time], rtol=1e-12, atol=0.0)
        plain, turned = (mode_attribution(*inputs) for inputs in frames)
        assert turned.mode_numbers.tolist() == plain.mode_numbers.tolist(), seed
        for share in ("trace_share1", "trace_share2"):
            np.testing.assert_allclose(getattr(turned, share), getattr(plain, share),
                                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
def test_fitted_t1_does_not_turn_with_the_input(pairing):
    # both engines' fitted T1 over four analytic T1, from the excited state:
    # Redfield within 1e-12 relative, the lab-frame Lindblad engine within
    # 1e-9, since the fit's search stops at 1e-10 relative in the rate
    # (worst measured 3.7e-10). Each frame carries its L to the field axis
    # by its own rotation, and the two differ by a turn about z, which
    # leaves sz(t) from m = z alone. Lab-frame T2 is checked through the
    # CLI, which starts the coherence along an in-plane principal axis of L
    # (test_lab_frame_fitted_t2_does_not_turn_with_the_input in test_cli).
    # The Redfield bath has no pair channel, so it runs the diagonal_only
    # bath under either pairing
    excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for seed in range(5):
        *frames, _ = _rotation_case(seed, pairing)
        tensors = [build_tensor(*inputs) for inputs in frames]
        analytic = relaxation_times(tensors[0], axis=frames[0][2].axis, convention="lindblad")
        grid = np.linspace(0.0, 4.0 * analytic.t1_us, 401)
        redfield, lab = [], []
        for (c, bath, spin), tensor in zip(frames, tensors):
            traj = redfield_evolve(excited, c, replace(bath, raman_pairing="diagonal_only"),
                                   spin, grid)
            redfield.append(fit_decay_rate(traj, "sz_minus_eq").rate_per_us)
            rot = frame_rotation(spin.axis)
            diss = JumpBasisDissipator(rot @ tensor.lambda_total @ rot.T, spin.larmor_cm())
            lab.append(fit_decay_rate(lindblad_evolve(excited, diss, grid),
                                      "sz_minus_eq").rate_per_us)
        assert abs(redfield[1] / redfield[0] - 1.0) <= 1e-12, seed
        assert abs(lab[1] / lab[0] - 1.0) <= 1e-9, seed


@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
def test_permuting_the_modes_permutes_the_splits(pairing):
    # the splits and the ranked rows follow the source numbers; every total
    # and split agrees within 1e-14 of its largest entry (worst measured
    # 4.4e-16), and the shares within 1e-14
    for seed in range(5):
        (c, bath, spin), _, _ = _rotation_case(seed, pairing)
        order = np.random.default_rng(seed).permutation(c.nmodes)
        shuffled = CouplingTensors(
            d1=c.d1[:, order], d2=c.d2[:, order][:, :, order], delta_angstrom=0.01,
            frequencies=c.frequencies[order], field_direction=c.field_direction,
            mixed_computed=True, source_indices=c.source_indices[order])
        plain, permuted = build_tensor(c, bath, spin), build_tensor(shuffled, bath, spin)
        assert permuted.source_modes.tolist() == plain.source_modes[order].tolist()
        for name in ("lambda1", "lambda2_quartic", "lambda2_gsq", "per_mode_lambda1",
                     "per_mode_lambda2"):
            want = getattr(plain, name)[order] if name.startswith("per_mode") else \
                getattr(plain, name)
            error = np.abs(getattr(permuted, name) - want).max()
            assert error <= 1e-14 * np.abs(want).max(), (seed, name)
        plain, permuted = (mode_attribution(x, bath, spin).rows() for x in (c, shuffled))
        assert [row["mode"] for row in permuted] == [row["mode"] for row in plain], seed
        for got, want in zip(permuted, plain):
            assert got["frequency_cm"] == want["frequency_cm"]
            for share in ("trace_share1", "trace_share2"):
                assert abs(got[share] - want[share]) <= 1e-14, (seed, share)


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
    # the first order keeps its trace shares only
    np.testing.assert_allclose(att.trace_share1.sum(), 1.0, rtol=1e-10)


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
    "60-modes": {"nmodes": 60},
    "60-modes-tilted": {"nmodes": 60, "direction": (1.0, -2.0, -2.0)},
}


# all_pairs contracts temperatures in blocks of 16 columns: 16 fills one,
# 17 and 40 add a partial tail block, so every block position is checked
@pytest.mark.parametrize("case", list(SWEEP_CASES))
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (4, 1), (3, 2), (16, 1), (17, 2), (40, 1)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
def test_sweep_rows_bitwise_equal_build_tensor(pairing, shape, case):
    # the grid kernel shares work across rows; no row may depend on that
    opts = SWEEP_CASES[case]
    direction = np.asarray(opts.get("direction", (0.0, 0.0, 1.0)))
    direction = direction / np.linalg.norm(direction)
    spin = SpinSystem(
        g0=GTensor(np.diag([1.9, 2.0, 2.1])), field_mt=direction,
        omega_override_cm=opts.get("omega_override_cm"),
    )
    bath = BathSpec(temperature_k=1.0, linewidth_cm=opts.get("linewidth_cm", 2.0),
                    raman_pairing=pairing)
    c = replace(random_couplings(17, n=opts.get("nmodes", 4)), field_direction=direction)
    temps = [40.0 * (k + 1) for k in range(shape[0])]
    fields = [opts.get("first_field_mt", 700.0) + 450.0 * k for k in range(shape[1])]
    points = sweep(c, spin, temps, fields, bath)
    assert len(points) == len(temps) * len(fields)
    for p, (t, b) in zip(points, itertools.product(temps, fields)):
        # the field the CLI's tensor uses: the couplings' direction times B
        spin_b = replace(spin, field_mt=c.field_direction * b)
        tensor = build_tensor(c, replace(bath, temperature_k=t), spin_b)
        times = relaxation_times(tensor, axis=spin_b.axis)
        assert (p.temperature_k, p.field_mt, p.omega_cm) == (t, b, tensor.omega_cm)
        assert (p.t1_us, p.t2_us) == (times.t1_us, times.t2_us)
        for name in ("lambda1", "lambda2", "lambda2_quartic", "lambda2_gsq"):
            np.testing.assert_array_equal(getattr(p, name), getattr(tensor, name))


def test_times_project_on_the_field_direction():
    # a spin's quantization axis is its field's direction, so a tensor for a
    # field along x is projected along x
    c = replace(random_couplings(6), field_direction=(1.0, 0.0, 0.0))
    spin = SpinSystem(g0=GTensor(2.0 * np.eye(3)), field_mt=np.array([1266.0, 0.0, 0.0]))
    tensor = build_tensor(c, BathSpec(temperature_k=100.0), spin)
    assert spin.axis.tolist() == [1.0, 0.0, 0.0]
    times = relaxation_times(tensor, axis=spin.axis)
    assert times.rate1_cm == 2.0 * tensor.lambda_total[0, 0]


def test_field_off_the_couplings_direction_refused():
    # couplings hold the derivatives of g . b for their own b; a field along
    # another line would be scaled with the wrong couplings
    c = random_couplings(6)  # along z
    bath = BathSpec(temperature_k=100.0)
    along_x = SpinSystem(g0=GTensor(2.0 * np.eye(3)), field_mt=np.array([1266.0, 0.0, 0.0]))
    for compute in (lambda s: build_tensor(c, bath, s),
                    lambda s: sweep(c, s, [100.0], [1266.0], bath),
                    lambda s: spectral_density(c, bath, s)):
        with pytest.raises(ValueError, match="not along"):
            compute(along_x)
    # either sense of b gives the same rates, and zero field has no direction
    np.testing.assert_array_equal(build_tensor(c, bath, make_spin(-1266.0)).lambda_total,
                                  build_tensor(c, bath, make_spin(1266.0)).lambda_total)
    assert not build_tensor(c, bath, make_spin(0.0)).lambda_total.any()


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
    shares = [row["trace_share2"] for row in parsed["mode_attribution"]]
    assert all(0.0 <= s <= 1.0 for s in shares)
