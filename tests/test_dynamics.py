"""Integrator, Redfield generator, and rate-extraction tests."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlat.dynamics as dyn
from spinlat.core import RATE_CM_TO_PER_US, BathSpec, GTensor, SpinSystem
from spinlat.couplings import CouplingTensors
from spinlat.dynamics import (
    JumpBasisDissipator,
    SpinTrajectory,
    fit_decay_rate,
    frame_rotation,
    lindblad_evolve,
    redfield_evolve,
    redfield_generator,
    spectral_density,
)
from spinlat.relaxation import build_tensor, relaxation_times

RHO_EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
RHO_PLUS_X = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


def diag_diss(lx, ly, lz, omega=0.0):
    return JumpBasisDissipator(np.diag([lx, ly, lz]), omega)


def grid_for_rate(rate_per_us, periods=4.0, samples=400):
    return np.linspace(0.0, periods / rate_per_us, samples)


# ------------------------------------------------------------- dissipator

def test_dissipator_validation():
    with pytest.raises(ValueError, match="symmetric"):
        JumpBasisDissipator(np.array([[0.0, 1e-3, 0.0]] + [[0.0] * 3] * 2), 1.0)
    with pytest.raises(ValueError, match="PSD"):
        JumpBasisDissipator(np.diag([1e-3, -1e-3, 0.0]), 1.0)
    with pytest.raises(ValueError, match="omega"):
        JumpBasisDissipator(np.zeros((3, 3)), -1.0)


def test_unitary_limit_pure_precession():
    omega_cm = 0.01
    diss = diag_diss(0.0, 0.0, 0.0, omega=omega_cm)
    omega_us = omega_cm * RATE_CM_TO_PER_US
    grid = np.linspace(0.0, 6.0 * 2.0 * np.pi / omega_us, 600)
    traj = lindblad_evolve(RHO_PLUS_X, diss, grid)
    assert np.abs(traj.coherence_abs - 0.5).max() < 1e-9
    np.testing.assert_allclose(traj.sx, np.cos(omega_us * grid), atol=1e-7)
    np.testing.assert_allclose(traj.sz, 0.0, atol=1e-9)


# ------------------------------------------------------------ Bloch rates

def test_sz_decay_matches_bloch_reduction():
    lam = np.diag([3e-6, 5e-6, 2e-6])
    rate = 2.0 * (lam[0, 0] + lam[1, 1]) * RATE_CM_TO_PER_US
    traj = lindblad_evolve(
        RHO_EXCITED, JumpBasisDissipator(lam, 0.0), grid_for_rate(rate)
    )
    fit = fit_decay_rate(traj, "sz_minus_eq")
    assert fit.rate_per_us == pytest.approx(rate, rel=1e-3)


def test_sz_decay_ignores_precession_frequency():
    # a diagonal state never reaches the coherence sector, so a huge
    # omega must not change the rate
    lam = np.diag([3e-6, 5e-6, 0.0])
    rate = 2.0 * (lam[0, 0] + lam[1, 1]) * RATE_CM_TO_PER_US
    traj = lindblad_evolve(
        RHO_EXCITED, JumpBasisDissipator(lam, 1.2), grid_for_rate(rate)
    )
    fit = fit_decay_rate(traj, "sz_minus_eq")
    assert fit.rate_per_us == pytest.approx(rate, rel=1e-3)


def test_coherence_decay_matches_bloch_reduction():
    lam = np.diag([3e-6, 5e-6, 2e-6])
    rate = (lam[0, 0] + lam[1, 1] + 2.0 * lam[2, 2]) * RATE_CM_TO_PER_US
    omega_cm = 40.0 * rate / RATE_CM_TO_PER_US
    traj = lindblad_evolve(
        RHO_PLUS_X,
        JumpBasisDissipator(lam, omega_cm),
        grid_for_rate(rate, samples=600),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_decay_rate(traj, "coherence_abs")
    assert fit.rate_per_us == pytest.approx(rate, rel=0.01)


def test_pure_dephasing_keeps_populations():
    lam = np.diag([0.0, 0.0, 4e-6])
    rate = 2.0 * lam[2, 2] * RATE_CM_TO_PER_US
    traj = lindblad_evolve(
        RHO_PLUS_X, JumpBasisDissipator(lam, 0.0), grid_for_rate(rate)
    )
    np.testing.assert_allclose(traj.sz, 0.0, atol=1e-10)
    fit = fit_decay_rate(traj, "coherence_abs")
    assert fit.rate_per_us == pytest.approx(rate, rel=1e-3)


def test_coarse_and_fine_grids_agree_on_shared_samples():
    # propagation is exact, so refining the grid changes no sample
    lam = np.diag([3e-6, 5e-6, 2e-6])
    rate = 2.0 * (lam[0, 0] + lam[1, 1]) * RATE_CM_TO_PER_US
    diss = JumpBasisDissipator(lam, 50.0 * rate / RATE_CM_TO_PER_US)
    coarse = lindblad_evolve(RHO_PLUS_X, diss, grid_for_rate(rate, samples=41))
    fine = lindblad_evolve(RHO_PLUS_X, diss, grid_for_rate(rate, samples=161))
    assert np.abs(fine.rhos[::4] - coarse.rhos).max() < 1e-10


def test_full_tensor_matches_bloch_matrix():
    # with off-diagonal entries the Bloch vector obeys
    # dm/dt = -2 (tr(L) I - L) m, a multi-exponential mixture
    from scipy.linalg import expm

    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) * 2e-3
    lam = a @ a.T
    t_end = 1.0 / (np.trace(lam) * RATE_CM_TO_PER_US)
    grid = np.linspace(0.0, t_end, 50)
    traj = lindblad_evolve(RHO_EXCITED, JumpBasisDissipator(lam, 0.0), grid)
    bloch = -2.0 * (np.trace(lam) * np.eye(3) - lam) * RATE_CM_TO_PER_US
    pred = np.array([expm(bloch * t) @ [0.0, 0.0, 1.0] for t in grid])
    got = np.stack([traj.sx, traj.sy, traj.sz], axis=1)
    assert np.abs(got - pred).max() < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_trajectory_invariants_random_psd(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) * 2e-6
    lam = a @ a.T
    diss = JumpBasisDissipator(lam, 0.0)
    rate = max(np.trace(lam) * RATE_CM_TO_PER_US, 1e-9)
    traj = lindblad_evolve(RHO_PLUS_X, diss, np.linspace(0.0, 2.0 / rate, 100))
    r = traj.rhos
    assert np.abs(np.einsum("tii->t", r) - 1.0).max() < 1e-9
    assert np.abs(r - np.conj(np.swapaxes(r, 1, 2))).max() < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_random_psd_with_precession_matches_bloch_oracle(seed):
    # Bloch-vector oracle: dm/dt = -2 (tr(L) I - L) m plus precession
    # about z at omega, evaluated directly at each sample time
    from scipy.linalg import expm

    m0 = np.array([0.6, 0.0, 0.8])
    rho0 = 0.5 * (np.eye(2) + sum(m * p for m, p in zip(m0, dyn.PAULI)))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) * 2e-6
    lam = a @ a.T
    omega_cm = rng.uniform(1.0, 100.0) * np.trace(lam)
    rate = np.trace(lam) * RATE_CM_TO_PER_US
    grid = np.linspace(0.0, 3.0 / rate, 80)
    traj = lindblad_evolve(rho0, JumpBasisDissipator(lam, omega_cm), grid)
    precession = omega_cm * np.array(
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )
    bloch = (precession - 2.0 * (np.trace(lam) * np.eye(3) - lam)) * RATE_CM_TO_PER_US
    pred = np.array([expm(bloch * t) @ m0 for t in grid])
    got = np.stack([traj.sx, traj.sy, traj.sz], axis=1)
    assert np.abs(got - pred).max() < 1e-10


def test_trace_guard_rejects_leaky_generator():
    # the Lindblad construction preserves trace exactly, so feed the
    # integrator a generator with a deliberate trace leak instead
    gen = JumpBasisDissipator(np.diag([1e-4, 1e-4, 0.0]), 0.0).superoperator_per_us()
    gen = gen.astype(complex).copy()
    gen[0, 0] -= 1e-6
    with pytest.raises(ValueError, match="preserve the trace"):
        dyn._integrate(gen, RHO_EXCITED, np.linspace(0.0, 10.0, 40))


def test_unstable_run_never_escapes_silently():
    # negative jump rates preserve the trace but are not completely
    # positive: populations leave [0, 1] and the trajectory is refused;
    # the generator is built around the dissipator's PSD check
    unchecked = SimpleNamespace(lam_cm=np.diag([-1e-4, -1e-4, 0.0]), omega_cm=0.0)
    gen = JumpBasisDissipator.superoperator_per_us(unchecked)
    rate = 4.0 * 1e-4 * RATE_CM_TO_PER_US
    with pytest.raises(ValueError, match="eigenvalue"):
        dyn._integrate(gen, RHO_EXCITED, np.linspace(0.0, 2.0 / rate, 20))


def test_rho0_validation():
    diss = diag_diss(1e-6, 1e-6, 0.0)
    grid = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="Hermitian"):
        lindblad_evolve(np.array([[1.0, 1e-3], [0.0, 0.0]]), diss, grid)
    with pytest.raises(ValueError, match="trace"):
        lindblad_evolve(np.eye(2), diss, grid)
    with pytest.raises(ValueError, match="positive"):
        lindblad_evolve(np.diag([1.5, -0.5]), diss, grid)
    with pytest.raises(ValueError, match="increase"):
        lindblad_evolve(RHO_PLUS_X, diss, np.array([0.0, 1.0, 0.5]))


# ---------------------------------------------------------------- redfield

def flat_spectrum(values):
    arr = np.asarray(values, dtype=float)
    return lambda omega: arr


def zero_couplings(freqs=(20.0,)):
    n = len(freqs)
    return CouplingTensors(
        d1=np.zeros((3, n)),
        d2=np.zeros((3, n, n)),
        delta_angstrom=0.01,
        frequencies=np.asarray(freqs, dtype=float),
        field_direction=(0.0, 0.0, 1.0),
        mixed_computed=True,
    )


def plain_spin(omega_override=None):
    return SpinSystem(
        g0=GTensor(2.0 * np.eye(3)),
        field_mt=np.array([0.0, 0.0, 1000.0]),
        omega_override_cm=omega_override,
    )


def test_redfield_zero_couplings_is_unitary():
    spin = plain_spin(omega_override=0.01)
    omega_us = 0.01 * RATE_CM_TO_PER_US
    grid = np.linspace(0.0, 4.0 * 2.0 * np.pi / omega_us, 200)
    traj = redfield_evolve(
        RHO_PLUS_X, zero_couplings(), BathSpec(temperature_k=100.0), spin, grid
    )
    reference = lindblad_evolve(RHO_PLUS_X, diag_diss(0, 0, 0, omega=0.01), grid)
    np.testing.assert_allclose(traj.rhos, reference.rhos, atol=1e-9)


def test_flat_spectrum_nonsecular_equals_lindblad_generator():
    values = np.array([3e-6, 5e-6, 2e-6])
    gen_rf = redfield_generator(flat_spectrum(values), 0.05, secular=False)
    gen_lb = JumpBasisDissipator(np.diag(values), 0.05).superoperator_per_us()
    assert np.abs(gen_rf - gen_lb).max() < 1e-12 * np.abs(gen_lb).max()


def test_flat_spectrum_nonsecular_trajectories_match():
    values = np.array([3e-6, 5e-6, 2e-6])
    rate = values.sum() * RATE_CM_TO_PER_US
    omega_cm = 20.0 * rate / RATE_CM_TO_PER_US
    grid = grid_for_rate(rate, samples=300)
    gen_rf = redfield_generator(flat_spectrum(values), omega_cm, secular=False)
    traj_rf = dyn._integrate(gen_rf, RHO_PLUS_X, grid)
    traj_lb = lindblad_evolve(
        RHO_PLUS_X, JumpBasisDissipator(np.diag(values), omega_cm), grid
    )
    assert np.abs(traj_rf.rhos - traj_lb.rhos).max() < 1e-9


def test_flat_spectrum_secular_matches_at_zero_omega():
    values = np.array([2e-6, 6e-6, 3e-6])
    gen_rf = redfield_generator(flat_spectrum(values), 0.0, secular=True)
    gen_lb = JumpBasisDissipator(np.diag(values), 0.0).superoperator_per_us()
    assert np.abs(gen_rf - gen_lb).max() < 1e-12 * np.abs(gen_lb).max()


def test_flat_spectrum_secular_transverse_isotropic():
    # with lxx = lyy the secular approximation drops nothing that acts,
    # so trajectories agree at finite precession frequency too
    values = np.array([4e-6, 4e-6, 2e-6])
    rate = values.sum() * RATE_CM_TO_PER_US
    omega_cm = 20.0 * rate / RATE_CM_TO_PER_US
    grid = grid_for_rate(rate, samples=300)
    gen_rf = redfield_generator(flat_spectrum(values), omega_cm, secular=True)
    traj_rf = dyn._integrate(gen_rf, RHO_PLUS_X, grid)
    traj_lb = lindblad_evolve(
        RHO_PLUS_X, JumpBasisDissipator(np.diag(values), omega_cm), grid
    )
    assert np.abs(traj_rf.rhos - traj_lb.rhos).max() < 1e-6


def test_detailed_balance_equilibrium():
    beta_scale = 10.0
    base = 1e-5

    def s_db(omega):
        if omega == 0.0:
            return np.array([base, base, 0.0])
        n = 1.0 / np.expm1(abs(omega) / beta_scale)
        side = n + 1.0 if omega > 0.0 else n
        return np.array([side * base, side * base, 0.0])

    omega_cm = 2.0
    gen = redfield_generator(s_db, omega_cm, secular=True)
    rate = abs(gen[0, 0].real)
    grid = np.linspace(0.0, 8.0 / rate, 300)
    traj = dyn._integrate(gen, RHO_EXCITED, grid)
    n = 1.0 / np.expm1(omega_cm / beta_scale)
    expected_sz = (n - (n + 1.0)) / (2.0 * n + 1.0)
    assert traj.sz[-1] == pytest.approx(expected_sz, abs=1e-6)


def test_redfield_t1_within_factor_two_of_lindblad_analytic():
    # three modes, each coupling one axis through a diagonal G2 entry
    freqs = np.array([12.6, 18.0, 24.0])
    d2 = np.zeros((3, 3, 3))
    for q in range(3):
        d2[q, q, q] = 5e-3
    c = CouplingTensors(
        d1=np.zeros((3, 3)), d2=d2, delta_angstrom=0.01,
        frequencies=freqs, field_direction=(0.0, 0.0, 1.0),
        mixed_computed=True,
    )
    spin = plain_spin()
    bath = BathSpec(temperature_k=200.0)
    analytic = relaxation_times(
        build_tensor(c, bath, spin), axis=spin.axis, convention="lindblad"
    )
    grid = np.linspace(0.0, 4.0 * analytic.t1_us, 2001)
    traj = redfield_evolve(RHO_EXCITED, c, bath, spin, grid)
    fit = fit_decay_rate(traj, "sz_minus_eq")
    t1 = 1.0 / fit.rate_per_us
    assert 0.5 < t1 / analytic.t1_us < 2.0


def test_spectral_density_values():
    c = zero_couplings(freqs=(20.0,))
    d1 = np.zeros((3, 1))
    d1[2, 0] = 1e-3
    d2 = np.zeros((3, 1, 1))
    d2[0, 0, 0] = 2e-3
    c = CouplingTensors(
        d1=d1, d2=d2, delta_angstrom=0.01, frequencies=np.array([20.0]),
        field_direction=(0.0, 0.0, 1.0), mixed_computed=True,
    )
    bath = BathSpec(temperature_k=150.0, linewidth_cm=2.0)
    spin = plain_spin()
    from spinlat.core import MUB_CM_PER_T, bose_occupation

    pref = MUB_CM_PER_T * 1.0
    n = bose_occupation(20.0, 150.0)
    s = spectral_density(c, bath, spin)

    def lor(x):
        return 2.0 / (x * x + 4.0)

    w = 5.0
    expected_z = (2.0 / np.pi) * (pref * 1e-3) ** 2 * (
        (n + 1.0) * lor(w - 20.0) + n * lor(w + 20.0)
    )
    expected_x = (2.0 / np.pi) * (pref * 2e-3) ** 2 * (
        (n + 1.0) ** 2 * lor(w - 40.0) + n ** 2 * lor(w + 40.0)
    )
    got = s(w)
    assert got[2] == pytest.approx(expected_z, rel=1e-12)
    assert got[0] == pytest.approx(expected_x, rel=1e-12)


def test_spectral_density_follows_quantization_axis():
    # a coupling along the field is longitudinal, whatever the field's
    # direction: it must land on the generator's z axis
    d1 = np.zeros((3, 1))
    d1[0, 0] = 1e-3
    c = CouplingTensors(
        d1=d1, d2=np.zeros((3, 1, 1)), delta_angstrom=0.01,
        frequencies=np.array([20.0]), field_direction=(1.0, 0.0, 0.0),
        mixed_computed=True,
    )
    spin = SpinSystem(
        g0=GTensor(2.0 * np.eye(3)), field_mt=np.array([1000.0, 0.0, 0.0]),
        axis=(1.0, 0.0, 0.0),
    )
    got = spectral_density(c, BathSpec(temperature_k=150.0), spin)(5.0)
    assert got[2] > 0.0
    assert got[0] == 0.0 and got[1] == 0.0


def test_frame_rotation_carries_axis_to_z():
    assert np.array_equal(frame_rotation((0.0, 0.0, 1.0)), np.eye(3))
    rng = np.random.default_rng(11)
    axes = [(0.0, 0.0, -1.0), (1.0, 0.0, 0.0)] + list(rng.standard_normal((20, 3)))
    for axis in axes:
        n = np.asarray(axis) / np.linalg.norm(axis)
        r = frame_rotation(n)
        np.testing.assert_allclose(r @ n, [0.0, 0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)


# -------------------------------------------------------------------- fits

def synthetic_coherence_traj(rates, weights, t_end=50.0, samples=500):
    t = np.linspace(0.0, t_end, samples)
    y = sum(w * np.exp(-r * t) for r, w in zip(rates, weights))
    rhos = np.empty((samples, 2, 2), dtype=complex)
    rhos[:, 0, 0] = 0.5
    rhos[:, 1, 1] = 0.5
    rhos[:, 0, 1] = 0.5 * y
    rhos[:, 1, 0] = 0.5 * y
    return SpinTrajectory(times_us=t, rhos=rhos)


def test_fit_recovers_synthetic_rate():
    traj = synthetic_coherence_traj([0.2], [1.0])
    fit = fit_decay_rate(traj, "coherence_abs")
    assert fit.rate_per_us == pytest.approx(0.2, rel=1e-9)
    assert not fit.non_decaying


def test_fit_constant_signal_flagged():
    traj = synthetic_coherence_traj([0.0], [0.8])
    fit = fit_decay_rate(traj, "coherence_abs")
    assert fit.rate_per_us == 0.0
    assert fit.non_decaying


def test_fit_two_exponential_window_recovers_slow_rate():
    r_fast, r_slow = 2.0, 0.2
    traj = synthetic_coherence_traj([r_fast, r_slow], [0.5, 0.5], t_end=40.0,
                                    samples=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_decay_rate(
            traj, "coherence_abs", window=(3.0 / r_fast, 40.0)
        )
    assert fit.rate_per_us == pytest.approx(r_slow, rel=0.05)


def test_fit_warns_on_poor_fit():
    r_fast, r_slow = 2.0, 0.2
    traj = synthetic_coherence_traj([r_fast, r_slow], [0.5, 0.5])
    with pytest.warns(UserWarning, match="residual"):
        fit_decay_rate(traj, "coherence_abs")


def test_fit_requires_enough_samples():
    traj = synthetic_coherence_traj([0.2], [1.0], samples=40)
    with pytest.raises(ValueError, match="10 samples"):
        fit_decay_rate(traj, "coherence_abs", window=(0.0, 0.5))
    with pytest.raises(ValueError, match="observable"):
        fit_decay_rate(traj, "sx")


# ------------------------------------------------------------------- misc

def test_trajectory_csv_round_trip():
    traj = synthetic_coherence_traj([0.2], [1.0], samples=12)
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert len(lines) == 13
    assert lines[0].startswith("t_us,rho00_re")
    row = lines[1].split(",")
    assert float(row[1]) == 0.5
    assert traj.to_csv() == text


def test_trajectory_validation():
    t = np.linspace(0.0, 1.0, 5)
    good = np.tile(0.5 * np.eye(2, dtype=complex), (5, 1, 1))
    bad_trace = good.copy()
    bad_trace[2] *= 1.1
    with pytest.raises(ValueError, match="trace"):
        SpinTrajectory(times_us=t, rhos=bad_trace)
    bad_herm = good.copy()
    bad_herm[1, 0, 1] = 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        SpinTrajectory(times_us=t, rhos=bad_herm)
    bad_pos = good.copy()
    bad_pos[3] = np.diag([1.5, -0.5])
    with pytest.raises(ValueError, match="eigenvalue"):
        SpinTrajectory(times_us=t, rhos=bad_pos)
