"""Integrator, Bloch generators, and rate-extraction tests.

The closed-form Bloch generators are checked against two oracles kept
here: the Lindblad superoperator and the index-loop Bloch-Redfield
superoperator (secular or not) on the row-major vectorized density
matrix, carried to the Bloch basis.
"""

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
M_EXCITED = np.array([0.0, 0.0, 1.0])
M_PLUS_X = np.array([1.0, 0.0, 0.0])

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


# ------------------------------------------------------- vec(rho) oracles

def _kron_rm(a, b):
    """Superoperator matrix of rho -> a @ rho @ b for row-major vec(rho)."""
    return np.kron(a, b.T)


def lindblad_superop(lam_cm, omega_cm):
    """4x4 generator of vec(rho), row-major ordering, units rad/us."""
    gen = -0.5j * omega_cm * (
        _kron_rm(SIGMA_Z, IDENTITY2) - _kron_rm(IDENTITY2, SIGMA_Z)
    )
    for a in range(3):
        for b in range(3):
            sa, sb = PAULI[a], PAULI[b]
            sba = sb @ sa
            gen = gen + lam_cm[a, b] * (
                _kron_rm(sa, sb)
                - 0.5 * _kron_rm(sba, IDENTITY2)
                - 0.5 * _kron_rm(IDENTITY2, sba)
            )
    return gen * RATE_CM_TO_PER_US


def redfield_superop(s_of, omega_cm, secular):
    """Bloch-Redfield superoperator (rad/us) for S=1/2 with sigma couplings.

    Built in the energy eigenbasis with level 0 the upper state, so the
    transition frequency from 0 to 1 is +omega_cm and detailed balance
    in S_alpha pushes population toward level 1.
    """
    energies = np.array([0.5 * omega_cm, -0.5 * omega_cm])
    gap = energies[:, None] - energies[None, :]
    s_at = {float(w): s_of(float(w)) for w in np.unique(gap)}
    gen = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            row = 2 * a + b
            gen[row, row] += -1.0j * gap[a, b]
            for cc in range(2):
                for d in range(2):
                    if secular and gap[a, b] != gap[cc, d]:
                        continue
                    col = 2 * cc + d
                    term = 0.0j
                    for alpha, sig in enumerate(PAULI):
                        term += 0.5 * sig[a, cc] * sig[d, b] * (
                            s_at[float(gap[cc, a])][alpha]
                            + s_at[float(gap[d, b])][alpha]
                        )
                        if b == d:
                            for nn in range(2):
                                term -= 0.5 * sig[a, nn] * sig[nn, cc] * (
                                    s_at[float(gap[cc, nn])][alpha]
                                )
                        if a == cc:
                            for nn in range(2):
                                term -= 0.5 * sig[d, nn] * sig[nn, b] * (
                                    s_at[float(gap[b, nn])][alpha]
                                )
                    gen[row, col] += term
    return gen * RATE_CM_TO_PER_US


# rows take row-major vec(rho) to (tr rho, mx, my, mz); since
# tr(sigma_a sigma_b) = 2 delta_ab, half the conjugate transpose inverts it
TO_BLOCH = np.array([s.reshape(4).conj() for s in (IDENTITY2, *PAULI)])
FROM_BLOCH = 0.5 * TO_BLOCH.conj().T


def to_bloch(gen):
    """A vec(rho) generator carried to (1, mx, my, mz); must come out real."""
    bloch = TO_BLOCH @ gen @ FROM_BLOCH
    assert np.abs(bloch.imag).max() <= 1e-15 * np.abs(bloch).max()
    return bloch.real


def assert_generators_match(got, ref, rtol=1e-14):
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


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


def test_lindblad_generator_matches_superoperator_oracle():
    rng = np.random.default_rng(20)
    for _ in range(500):
        a = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-7.0, -2.0)
        lam = a @ a.T
        omega = rng.uniform(0.0, 5.0)
        assert_generators_match(
            JumpBasisDissipator(lam, omega).generator_per_us(),
            to_bloch(lindblad_superop(lam, omega)),
        )


def random_spectrum(rng):
    """Positive per-axis S_alpha(omega): Lorentzians at random centres."""
    centres = rng.uniform(-10.0, 10.0, 4)
    width = rng.uniform(0.5, 3.0)
    weights = rng.uniform(0.0, 1.0, (3, 4)) * 10.0 ** rng.uniform(-8.0, -3.0)
    return lambda w: weights @ (width / ((w - centres) ** 2 + width**2))


def test_redfield_generator_matches_index_loop_oracle():
    # every fifth case is Omega = 0, the limit of the secular generator: the
    # oracle's at Omega = 1e-12 cm^-1 less its precession, within 1e-11
    # (worst measured 1.1e-12)
    rng = np.random.default_rng(21)
    for k in range(500):
        s_of = random_spectrum(rng)
        if k % 5 == 0:
            oracle = redfield_superop(s_of, 1e-12, secular=True)
            precession = JumpBasisDissipator(np.zeros((3, 3)), 1e-12).generator_per_us()
            assert_generators_match(redfield_generator(s_of, 0.0),
                                    to_bloch(oracle) - precession, rtol=1e-11)
            continue
        omega = rng.uniform(0.0, 5.0)
        assert_generators_match(
            redfield_generator(s_of, omega),
            to_bloch(redfield_superop(s_of, omega, secular=True)),
        )


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
    assert np.abs(fine.bloch[::4] - coarse.bloch).max() < 1e-10


def test_full_tensor_matches_bloch_matrix():
    # with off-diagonal entries the Bloch vector obeys
    # dm/dt = -2 (tr(L) I - L) m, a multi-exponential mixture
    pytest.importorskip("scipy")  # the oracle is SciPy's
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
    # -2 (Tr L I - L) is negative semidefinite for PSD L, so with no
    # affine part |m| never grows from its start at 1
    norms = np.linalg.norm(traj.bloch, axis=1)
    assert norms[0] == 1.0
    assert np.all(np.diff(norms) <= 1e-15)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_random_psd_with_precession_matches_bloch_oracle(seed):
    # Bloch-vector oracle: dm/dt = -2 (tr(L) I - L) m plus precession
    # about z at omega, evaluated directly at each sample time
    pytest.importorskip("scipy")  # the oracle is SciPy's
    from scipy.linalg import expm

    m0 = np.array([0.6, 0.0, 0.8])
    rho0 = 0.5 * (np.eye(2) + sum(m * p for m, p in zip(m0, PAULI)))
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


@pytest.mark.parametrize("rho0, observable, kind", [
    (RHO_EXCITED, "sz_minus_eq", "t1"), (RHO_PLUS_X, "coherence_abs", "t2"),
])
def test_large_precession_keeps_trajectory_hermitian(rho0, observable, kind):
    # at Omega/rate ~ 1e5, rounding in a complex vec(rho) propagator
    # pulled rho01 away from conj(rho10) by more than 1e-12 over 2,000
    # products; a real Bloch vector is Hermitian by construction, and the
    # fit still finds the analytic time
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) * 2e-3
    lam = a @ a.T
    analytic = relaxation_times(lam, axis=(0.0, 0.0, 1.0), convention="lindblad")
    span = 4.0 * (analytic.t1_us if kind == "t1" else analytic.t2_us)
    traj = lindblad_evolve(
        rho0, JumpBasisDissipator(lam, 3.0), np.linspace(0.0, span, 2001)
    )
    fit = fit_decay_rate(traj, observable)
    assert 1.0 / fit.rate_per_us == pytest.approx(span / 4.0, rel=1e-3)


@pytest.mark.parametrize("scale", [1e-3, 0.5, 5.0, 10.0])
def test_expm_matches_scipy(scale):
    # Lindblad and Redfield generators scaled to ||gen dt||_1 = scale,
    # with and without precession, the non-secular Redfield oracle, and
    # the zero matrix
    pytest.importorskip("scipy")  # the oracle is SciPy's
    from scipy.linalg import expm

    rng = np.random.default_rng(8)
    gens = [np.zeros((4, 4))]
    for k in range(12):
        a = rng.standard_normal((3, 3)) * 1e-4
        lam = a @ a.T
        omega = 0.0 if k % 3 == 0 else rng.uniform(0.5, 50.0) * np.trace(lam)
        gens.append(JumpBasisDissipator(lam, omega).generator_per_us())
        values = rng.uniform(0.0, 1e-4, 3)

        def s_of(w, v=values):
            return v * (1.0 + 0.5 * np.tanh(w))

        gens.append(redfield_generator(s_of, omega))
        gens.append(to_bloch(redfield_superop(s_of, omega, secular=False)))
    for gen in gens:
        norm = np.abs(gen).sum(axis=0).max()
        gdt = gen * (scale / norm) if norm else gen
        ref = expm(gdt)
        assert np.abs(dyn._expm(gdt) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_unstable_run_never_escapes_silently():
    # negative jump rates preserve the trace but are not completely
    # positive: populations leave [0, 1] and the trajectory is refused;
    # the generator is built around the dissipator's PSD check
    unchecked = SimpleNamespace(lam_cm=np.diag([-1e-4, -1e-4, 0.0]), omega_cm=0.0)
    gen = JumpBasisDissipator.generator_per_us(unchecked)
    rate = 4.0 * 1e-4 * RATE_CM_TO_PER_US
    with pytest.raises(ValueError, match="eigenvalue"):
        dyn._integrate(gen, M_EXCITED, np.linspace(0.0, 2.0 / rate, 20))


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


@pytest.mark.parametrize("rho0, grid, message", [
    (np.eye(3) / 3.0, [0.0, 1.0], "rho0 must be a finite 2x2 matrix"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), [0.0, 1.0], "rho0 must be a finite 2x2 matrix"),
    (RHO_PLUS_X, [0.0], "time grid needs at least two points"),
    (RHO_PLUS_X, [[0.0, 1.0]], "time grid needs at least two points"),
], ids=["3x3-rho0", "nan-rho0", "one-time", "2d-grid"])
def test_rho0_and_time_grid_of_the_wrong_shape_are_refused(rho0, grid, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        lindblad_evolve(rho0, diag_diss(1e-6, 1e-6, 0.0), grid)


@pytest.mark.parametrize("grid", [[0.0, 1.0, np.inf], [0.0, np.nan, 1.0], [0.0, 1.0, np.nan],
                                  [0.0, np.inf, np.inf]])
def test_non_finite_time_grid_is_refused_before_propagating(monkeypatch, grid):
    # a step of inf or NaN would reach the propagator, whose scaling warns
    def forbidden(*args):
        raise AssertionError("a propagator was built for a non-finite grid")

    monkeypatch.setattr(dyn, "_expm", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^time grid must be finite$"):
            lindblad_evolve(RHO_PLUS_X, diag_diss(1e-6, 1e-6, 0.0), grid)


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
    np.testing.assert_allclose(traj.bloch, reference.bloch, atol=1e-9)


def test_flat_spectrum_nonsecular_equals_lindblad_generator():
    # with a flat spectrum nothing depends on frequency, so the full
    # Redfield oracle is the Lindblad generator with L = diag S
    values = np.array([3e-6, 5e-6, 2e-6])
    gen_rf = to_bloch(redfield_superop(flat_spectrum(values), 0.05, secular=False))
    gen_lb = JumpBasisDissipator(np.diag(values), 0.05).generator_per_us()
    assert_generators_match(gen_lb, gen_rf, rtol=1e-12)


def test_flat_spectrum_nonsecular_trajectories_match():
    values = np.array([3e-6, 5e-6, 2e-6])
    rate = values.sum() * RATE_CM_TO_PER_US
    omega_cm = 20.0 * rate / RATE_CM_TO_PER_US
    grid = grid_for_rate(rate, samples=300)
    gen_rf = to_bloch(
        redfield_superop(flat_spectrum(values), omega_cm, secular=False)
    )
    traj_rf = dyn._integrate(gen_rf, M_PLUS_X, grid)
    traj_lb = lindblad_evolve(
        RHO_PLUS_X, JumpBasisDissipator(np.diag(values), omega_cm), grid
    )
    assert np.abs(traj_rf.bloch - traj_lb.bloch).max() < 2e-9


def test_flat_spectrum_secular_matches_at_zero_omega():
    # at Omega = 0 the secular generator keeps only the xy block's trace, as
    # the Lindblad engine's rotating frame does: L = diag(t, t, lz)
    lx, ly, lz = 2e-6, 6e-6, 3e-6
    gen_rf = redfield_generator(flat_spectrum(np.array([lx, ly, lz])), 0.0)
    t = 0.5 * (lx + ly)
    gen_lb = JumpBasisDissipator(np.diag([t, t, lz]), 0.0).generator_per_us()
    assert_generators_match(gen_rf, gen_lb, rtol=1e-12)


def test_flat_spectrum_secular_transverse_isotropic():
    # with lxx = lyy the secular approximation drops nothing that acts,
    # so trajectories agree at finite precession frequency too
    values = np.array([4e-6, 4e-6, 2e-6])
    rate = values.sum() * RATE_CM_TO_PER_US
    omega_cm = 20.0 * rate / RATE_CM_TO_PER_US
    grid = grid_for_rate(rate, samples=300)
    gen_rf = redfield_generator(flat_spectrum(values), omega_cm)
    traj_rf = dyn._integrate(gen_rf, M_PLUS_X, grid)
    traj_lb = lindblad_evolve(
        RHO_PLUS_X, JumpBasisDissipator(np.diag(values), omega_cm), grid
    )
    assert np.abs(traj_rf.bloch - traj_lb.bloch).max() < 2e-6


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
    gen = redfield_generator(s_db, omega_cm)
    # mz relaxes at G_down + G_up; the population of level 0 leaves at G_down
    rate = -0.5 * (gen[3, 3] + gen[3, 0])
    grid = np.linspace(0.0, 8.0 / rate, 300)
    traj = dyn._integrate(gen, M_EXCITED, grid)
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
    )
    got = spectral_density(c, BathSpec(temperature_k=150.0), spin)(5.0)
    assert got[2] > 0.0
    assert got[0] == 0.0 and got[1] == 0.0


def test_redfield_refuses_the_all_pairs_bath():
    # the Redfield bath has no two-phonon pair channel; it used to run the
    # diagonal_only bath under an all_pairs one without a word
    c = zero_couplings()
    bath = BathSpec(temperature_k=150.0, raman_pairing="all_pairs")
    spin = plain_spin()
    for run in (lambda: spectral_density(c, bath, spin),
                lambda: redfield_evolve(RHO_EXCITED, c, bath, spin, [0.0, 1.0])):
        with pytest.raises(ValueError, match="^raman_pairing 'all_pairs' is refused: "):
            run()


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


# ------------------------------------------------------ propagation oracle

def _step_by_step(gen, m0, t):
    """_integrate's loop as it was once written, one subtraction, lookup and
    product per step, kept as the oracle of the in-place propagation."""
    samples = np.empty((t.size, 4))
    samples[0] = (1.0, *m0)
    propagators = {}
    for i in range(1, t.size):
        dt = t[i] - t[i - 1]
        p = propagators.get(dt)
        if p is None:
            p = propagators[dt] = dyn._expm(gen * dt)
        samples[i] = p @ samples[i - 1]
    return samples[:, 1:]


def _oracle_grids(rate):
    """A 2001-point linspace grid over four decay times, and two non-uniform
    ones: geometric spacing, and two uniform pieces of different steps."""
    return (
        np.linspace(0.0, 4.0 / rate, 2001),
        np.concatenate(([0.0], np.geomspace(1e-3, 4.0, 300))) / rate,
        np.concatenate((np.linspace(0.0, 1.0, 101), np.linspace(1.0, 4.0, 31)[1:])) / rate,
    )


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("precession", [0.0, 400.0])  # Omega / rate
@pytest.mark.parametrize("rho0", [RHO_EXCITED, RHO_PLUS_X], ids=["t1", "t2"])
def test_lindblad_propagation_bitwise_step_by_step(precession, rho0):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) * 2e-6
    lam = a @ a.T
    rate_cm = 2.0 * np.trace(lam)
    diss = JumpBasisDissipator(lam, precession * rate_cm)
    for grid in _oracle_grids(rate_cm * RATE_CM_TO_PER_US):
        got = lindblad_evolve(rho0, diss, grid).bloch
        _assert_bitwise(got, _step_by_step(diss.generator_per_us(),
                                           dyn._validate_rho0(rho0), grid))


@pytest.mark.parametrize("precession", [0.0, 400.0])  # Omega / rate
@pytest.mark.parametrize("rho0", [RHO_EXCITED, RHO_PLUS_X], ids=["t1", "t2"])
def test_redfield_propagation_bitwise_step_by_step(precession, rho0):
    rng = np.random.default_rng(6)
    d1 = 1e-3 * rng.standard_normal((3, 3))
    d2 = np.zeros((3, 3, 3))
    d2[:, range(3), range(3)] = 5e-3 * rng.standard_normal((3, 3))

    def couplings(scale):
        return CouplingTensors(
            d1=scale * d1, d2=scale * d2,
            delta_angstrom=0.01, frequencies=np.array([12.6, 18.0, 24.0]),
            field_direction=(0.0, 0.0, 1.0), mixed_computed=True,
        )

    bath = BathSpec(temperature_k=100.0)
    omega_cm = 1.0 if precession else 0.0
    spin = plain_spin(omega_override=omega_cm)

    def generator(c):
        return redfield_generator(spectral_density(c, bath, spin), omega_cm)

    c = couplings(1.0)
    if precession:
        # the spectral density goes as the couplings squared, so scaling
        # them sets mz's rate to Omega / precession
        rate = -generator(c)[3, 3]
        c = couplings(np.sqrt(omega_cm * RATE_CM_TO_PER_US / precession / rate))
        assert -generator(c)[3, 3] == pytest.approx(omega_cm * RATE_CM_TO_PER_US
                                                    / precession, rel=1e-6)
    gen = generator(c)
    for grid in _oracle_grids(-gen[3, 3]):
        got = redfield_evolve(rho0, c, bath, spin, grid).bloch
        _assert_bitwise(got, _step_by_step(gen, dyn._validate_rho0(rho0), grid))


# -------------------------------------------------------------------- fits

def synthetic_coherence_traj(rates, weights, t_end=50.0, samples=500):
    # rho01 = rho10 = y/2 on the diagonal 1/2, i.e. m = (y, 0, 0)
    t = np.linspace(0.0, t_end, samples)
    y = sum(w * np.exp(-r * t) for r, w in zip(rates, weights))
    bloch = np.zeros((samples, 3))
    bloch[:, 0] = y
    return SpinTrajectory(times_us=t, bloch=bloch)


def test_fit_recovers_synthetic_rate():
    traj = synthetic_coherence_traj([0.2], [1.0])
    fit = fit_decay_rate(traj, "coherence_abs")
    assert fit.rate_per_us == pytest.approx(0.2, rel=1e-9)


def test_fit_constant_signal_flagged():
    traj = synthetic_coherence_traj([0.0], [0.8])
    fit = fit_decay_rate(traj, "coherence_abs")
    assert fit.rate_per_us == 0.0


def test_fit_growing_signal_flagged():
    # rates are bounded below by 0: a growing signal fits best as a
    # constant, which is reported as rate 0
    traj = synthetic_coherence_traj([-0.01], [0.5])
    with pytest.warns(UserWarning, match="residual"):
        fit = fit_decay_rate(traj, "coherence_abs")
    assert fit.rate_per_us == 0.0


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


def curve_fit_rate(traj, observable):
    """fit_decay_rate's model and start handed to SciPy's curve_fit.

    Converged tightly, so it lands on the least-squares minimum that the
    variable-projection search finds.
    """
    from scipy.optimize import curve_fit

    y = traj.sz if observable == "sz_minus_eq" else traj.coherence_abs
    ts = traj.times_us - traj.times_us[0]
    offset0 = y[-1] if observable == "sz_minus_eq" else 0.0
    amp0 = y[0] - offset0
    drop = np.nonzero(np.abs(y - offset0) <= abs(amp0) / np.e)[0]
    rate0 = 1.0 / ts[drop[0]] if drop.size and ts[drop[0]] > 0 else 1.0 / ts[-1]
    if observable == "sz_minus_eq":
        def f(tt, a, r, c):
            return a * np.exp(-r * tt) + c
        p0, lower = (amp0, rate0, offset0), [-np.inf, 0.0, -np.inf]
    else:
        def f(tt, a, r):
            return a * np.exp(-r * tt)
        p0, lower = (amp0, rate0), [-np.inf, 0.0]
    popt, _ = curve_fit(f, ts, y, p0=p0, bounds=(lower, np.inf), maxfev=20000,
                        ftol=1e-12, xtol=1e-12, gtol=1e-12)
    return popt[1]


def test_fit_matches_curve_fit_reference():
    # single exponentials (diagonal tensor, and the synthetic signal) and
    # multi-exponential mixtures (full tensor, two synthetic rates)
    pytest.importorskip("scipy")  # the oracle is SciPy's
    rng = np.random.default_rng(12)
    cases = [
        (synthetic_coherence_traj([0.2], [1.0]), "coherence_abs"),
        (synthetic_coherence_traj([2.0, 0.2], [0.5, 0.5]), "coherence_abs"),
    ]
    for k in range(6):
        a = rng.standard_normal((3, 3)) * 2e-3
        lam = np.diag(np.diag(a @ a.T)) if k < 2 else a @ a.T
        omega = 0.0 if k % 2 == 0 else 20.0 * np.trace(lam)
        grid = np.linspace(0.0, 4.0 / (np.trace(lam) * RATE_CM_TO_PER_US), 401)
        diss = JumpBasisDissipator(lam, omega)
        cases.append((lindblad_evolve(RHO_EXCITED, diss, grid), "sz_minus_eq"))
        cases.append((lindblad_evolve(RHO_PLUS_X, diss, grid), "coherence_abs"))
    for traj, observable in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = fit_decay_rate(traj, observable).rate_per_us
        assert got == pytest.approx(curve_fit_rate(traj, observable), rel=1e-5)


def _lstsq_solver(ts, y, with_offset):
    """fit_decay_rate's solve as it was once written, by np.linalg.lstsq on
    the (decay, 1) columns, kept as the oracle of the closed form."""
    def solve(rate):
        decay = np.exp(-rate * ts)[:, None]
        x = np.hstack((decay, np.ones_like(decay))) if with_offset else decay
        coef = np.linalg.lstsq(x, y, rcond=None)[0]
        return coef, x @ coef - y
    return solve


@pytest.mark.parametrize("observable", dyn.OBSERVABLES)
def test_closed_form_solve_matches_lstsq(observable):
    # from rate 1e-2 / span up, the decay column is far enough from the
    # constant one for both solves to be accurate; at rate 0 they are
    # collinear, and both split the mean evenly (the minimum-norm solution)
    rng = np.random.default_rng(21)
    with_offset = observable == "sz_minus_eq"
    for _ in range(40):
        ts = np.linspace(0.0, rng.uniform(1.0, 100.0), rng.integers(10, 2002))
        y = (rng.normal() * np.exp(-rng.uniform(0.1, 10.0) * ts / ts[-1])
             + with_offset * rng.normal() + 1e-3 * rng.normal(size=ts.size))
        solve, oracle = dyn._solver(ts, y, with_offset), _lstsq_solver(ts, y, with_offset)
        tol = 1e-12 * np.abs(y).max()
        for rate in (0.0, *(10.0 ** rng.uniform(-2.0, 3.0, 10) / ts[-1])):
            coef, res = solve(rate)
            ref_coef, ref_res = oracle(rate)
            if not with_offset:
                assert coef[1] == 0.0
            assert np.abs(coef[:len(ref_coef)] - ref_coef).max() <= tol, rate
            assert np.abs(res - ref_res).max() <= tol, rate


def _fit_both(monkeypatch, traj, observable, window=None):
    """The fit with the closed-form solve, then with the lstsq oracle."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = fit_decay_rate(traj, observable, window)
        with monkeypatch.context() as m:
            m.setattr(dyn, "_solver", _lstsq_solver)
            ref = fit_decay_rate(traj, observable, window)
    assert (got.rate_per_us == 0.0) == (ref.rate_per_us == 0.0)
    return got, ref


def _sz_traj(y, t):
    bloch = np.zeros((t.size, 3))
    bloch[:, 2] = y
    return SpinTrajectory(times_us=t, bloch=bloch)


def test_closed_form_fit_matches_lstsq_fit(monkeypatch):
    # the fit cases above, then signals a little off constant
    t = np.linspace(0.0, 50.0, 500)
    cases = [
        (synthetic_coherence_traj([0.2], [1.0]), "coherence_abs", None),
        (synthetic_coherence_traj([0.0], [0.8]), "coherence_abs", None),
        (synthetic_coherence_traj([-0.01], [0.5]), "coherence_abs", None),
        (synthetic_coherence_traj([2.0, 0.2], [0.5, 0.5], t_end=40.0, samples=2000),
         "coherence_abs", (1.5, 40.0)),
        (synthetic_coherence_traj([2.0, 0.2], [0.5, 0.5]), "coherence_abs", None),
        (synthetic_coherence_traj([-1e-7], [0.5]), "coherence_abs", None),
    ]
    for eps in (1e-8, 1e-6, 1e-4):
        cases.append((synthetic_coherence_traj([0.0, 0.1], [0.3, eps]), "coherence_abs", None))
    for eps in (1e-6, 1e-4):
        cases.append((_sz_traj(0.3 + eps * np.exp(-0.1 * t), t), "sz_minus_eq", None))
        cases.append((_sz_traj(-0.3 - eps * np.exp(-0.1 * t), t), "sz_minus_eq", None))
    rng = np.random.default_rng(12)
    for k in range(6):
        a = rng.standard_normal((3, 3)) * 2e-3
        lam = np.diag(np.diag(a @ a.T)) if k < 2 else a @ a.T
        omega = 0.0 if k % 2 == 0 else 20.0 * np.trace(lam)
        grid = np.linspace(0.0, 4.0 / (np.trace(lam) * RATE_CM_TO_PER_US), 401)
        diss = JumpBasisDissipator(lam, omega)
        cases.append((lindblad_evolve(RHO_EXCITED, diss, grid), "sz_minus_eq", None))
        cases.append((lindblad_evolve(RHO_PLUS_X, diss, grid), "coherence_abs", None))
    for traj, observable, window in cases:
        got, ref = _fit_both(monkeypatch, traj, observable, window)
        assert abs(got.rate_per_us - ref.rate_per_us) <= 1e-8 * ref.rate_per_us


def test_closed_form_fit_no_worse_where_rate_is_ill_determined(monkeypatch):
    # an offset plus a decay below ~1e-8 of it, growth on an offset, or
    # noise: the cost is flat in the rate to rounding, lstsq cuts the small
    # singular value and the closed form does not, so the rates differ;
    # the closed form never fits worse than the oracle beyond rounding
    t = np.linspace(0.0, 50.0, 500)
    rng = np.random.default_rng(7)
    signals = [0.3 + eps * np.exp(-0.1 * t) for eps in (2e-9, 1e-8)]
    signals += [0.3 + 0.5 * np.exp(1e-4 * (t - 50.0)), 0.3 + 2e-9 * np.sin(t),
                0.3 + 1e-6 * rng.normal(size=t.size)]
    for y in signals:
        got, ref = _fit_both(monkeypatch, _sz_traj(y, t), "sz_minus_eq")
        assert got.residual_rms <= ref.residual_rms + 1e-15 * np.abs(y).max()


@pytest.mark.parametrize("y", [
    lambda t: 0.3 + 0.5 * np.exp(1e-4 * (t - 50.0)),
    lambda t: 0.3 + 0.5 * np.exp(0.1 * (t - 50.0)),
    lambda t: 0.3 - 0.5 * np.exp(-1e-4 * (50.0 - t)),
], ids=["slow-growth", "fast-growth", "slow-growth-down"])
def test_growth_toward_an_offset_is_not_decaying(y):
    # no rate r > 0 bends the right way, so the best fit is the r -> 0
    # limit of amp exp(-r t) + offset, a line; that optimum sits at the
    # boundary and is reported as rate 0, keeping the residual of the fit
    t = np.linspace(0.0, 50.0, 500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_decay_rate(_sz_traj(y(t), t), "sz_minus_eq")
    assert fit.rate_per_us == 0.0
    line = np.polyval(np.polyfit(t, y(t), 1), t) - y(t)
    assert fit.residual_rms <= 1.01 * np.sqrt(np.mean(line**2))


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
    assert lines[0] == "t_us,sx,sy,sz"
    row = lines[1].split(",")
    assert len(row) == 4 and float(row[1]) == 1.0
    # repr round-trips every float, so the file rebuilds the trajectory
    table = np.loadtxt(lines[1:], delimiter=",")
    assert np.array_equal(table[:, 0], traj.times_us)
    assert np.array_equal(table[:, 1:], traj.bloch)
    assert traj.to_csv() == text


def _row_wise_csv(traj):
    """SpinTrajectory.to_csv as it was written row by row, kept as the oracle."""
    lines = ["t_us,sx,sy,sz"]
    for t, (x, y, z) in zip(traj.times_us, traj.bloch):
        lines.append(",".join(repr(float(v)) for v in (t, x, y, z)))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_by_columns_matches_row_wise_writer():
    # signed zeros, a zero Bloch vector, and a decay with and without
    # precession, as the default and lab frames write them
    signed = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [0.0, 0.0, 0.0],
                       [-0.25, -0.0, 1e-300], [0.6, -0.8, 0.0]])
    trajs = [SpinTrajectory(times_us=np.arange(5.0), bloch=signed)]
    lam = np.diag([0.3, 0.5, 0.7]) * 1e-6
    rho0 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    grid = np.linspace(0.0, 3.0, 201)
    for omega in (0.0, 2e-5):
        trajs.append(lindblad_evolve(rho0, JumpBasisDissipator(lam, omega), grid))
    for traj in trajs:
        assert traj.to_csv() == _row_wise_csv(traj)
    assert "-0.0" in trajs[0].to_csv()


def test_trajectory_validation():
    # the eigenvalues of rho are (1 -+ |m|)/2, so the bound |m| <= 1 + 2e-8
    # is the eigenvalue floor -1e-8; trace and Hermiticity hold by form
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match=r"^bloch must be \(5, 3\), got \(5, 2\)$"):
        SpinTrajectory(times_us=t, bloch=np.zeros((5, 2)))
    edge = np.zeros((5, 3))
    edge[3] = (0.6, 0.0, 0.8 * (1.0 + 2e-8))
    SpinTrajectory(times_us=t, bloch=edge)
    for bad in ((0.0, 0.0, 1.0 + 3e-8), (0.6, -0.8, 0.01), (np.nan, 0.0, 0.0)):
        bloch = np.zeros((5, 3))
        bloch[3] = bad
        with pytest.raises(ValueError, match="eigenvalue"):
            SpinTrajectory(times_us=t, bloch=bloch)
    with pytest.raises(ValueError, match="^times_us contains non-finite entries$"):
        SpinTrajectory(times_us=[0.0, 1.0, np.nan, 3.0, 4.0], bloch=np.zeros((5, 3)))
