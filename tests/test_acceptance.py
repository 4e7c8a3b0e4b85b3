"""Acceptance gate: ten pinned end-to-end checks.

Each test is one numbered criterion; the conftest summary hook prints a
one-line PASS/FAIL verdict per criterion after the run.  Tolerances and
runtime budgets here are contractual, not tunable.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import REFERENCE_G
from spinlat.core import (
    RATE_CM_TO_PER_US,
    BathSpec,
    GTensor,
    SpinSystem,
    larmor_frequency,
    principal_g_values,
)
from spinlat.couplings import CouplingTensors, build_couplings
from spinlat.dynamics import (
    JumpBasisDissipator,
    fit_decay_rate,
    lindblad_evolve,
    redfield_evolve,
)
from spinlat.ingest import load_run_set, parse_modes
from spinlat.relaxation import (
    build_tensor,
    lambda_first,
    lambda_second,
    mode_attribution,
    relaxation_times,
    sweep,
)
from test_couplings import quadratic_surface, relmax


def relmax_or_zero(got, want):
    scale = np.abs(want).max()
    if scale == 0.0:
        return np.abs(got).max()
    return np.abs(got - want).max() / scale


def raman_system():
    """Three modes, each coupling one spin axis through a diagonal G2 entry."""
    freqs = np.array([12.6, 18.0, 24.0])
    d2 = np.zeros((3, 3, 3))
    for q in range(3):
        d2[q, q, q] = 5e-3
    c = CouplingTensors(
        d1=np.zeros((3, 3)),
        d2=d2,
        delta_angstrom=0.01,
        frequencies=freqs,
        field_direction=(0.0, 0.0, 1.0),
        mixed_computed=True,
    )
    spin = SpinSystem(
        g0=GTensor(2.0 * np.eye(3)), field_mt=np.array([0.0, 0.0, 1000.0])
    )
    return c, spin


def test_criterion_01_principal_g_values():
    runtimes = []
    for _ in range(5):
        start = time.perf_counter()
        values = principal_g_values(REFERENCE_G)
        runtimes.append(time.perf_counter() - start)
    np.testing.assert_allclose(values, [1.979, 1.991, 1.991], atol=1e-3)
    assert min(runtimes) < 1e-3


def test_criterion_02_larmor_consistency():
    omega = larmor_frequency(1.991 * np.eye(3), [0.0, 0.0, 1266.0])
    assert omega == pytest.approx(1.176781403929547, rel=1e-12)
    assert abs(omega - 1.2) / 1.2 < 0.05


def test_criterion_03_t_squared_scaling():
    start = time.perf_counter()
    c, spin = raman_system()
    temps = np.geomspace(100.0, 300.0, 9)
    rates = [
        relaxation_times(
            build_tensor(c, BathSpec(temperature_k=t), spin), axis=spin.axis
        ).rate1_cm
        for t in temps
    ]
    slope = np.polyfit(np.log(temps), np.log(rates), 1)[0]
    assert abs(slope - 2.0) <= 0.05
    assert time.perf_counter() - start < 1.0


def test_criterion_04_field_scaling():
    c, _ = raman_system()
    c = CouplingTensors(
        d1=np.full((3, 3), 2e-4),
        d2=c.d2,
        delta_angstrom=c.delta_angstrom,
        frequencies=c.frequencies,
        field_direction=c.field_direction,
        mixed_computed=True,
    )
    bath = BathSpec(temperature_k=150.0)

    def parts(field_mt):
        spin = SpinSystem(
            g0=GTensor(2.0 * np.eye(3)),
            field_mt=np.array([0.0, 0.0, field_mt]),
            omega_override_cm=0.9,
        )
        return (
            lambda_first(c, bath, spin).matrix,
            lambda_second(c, bath, spin).gsq,
        )

    l1_b, g2_b = parts(700.0)
    l1_2b, g2_2b = parts(1400.0)
    assert relmax_or_zero(l1_2b, 4.0 * l1_b) < 1e-12
    assert relmax_or_zero(g2_2b, 4.0 * g2_b) < 1e-12


def test_criterion_05_dynamics_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    rho_exc = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rho_x = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    worst = 0.0
    for _ in range(100):
        lam = 10.0 ** rng.uniform(-6.5, -5.5, size=3)
        oracle_sz = 2.0 * (lam[0] + lam[1]) * RATE_CM_TO_PER_US
        oracle_coh = (lam[0] + lam[1] + 2.0 * lam[2]) * RATE_CM_TO_PER_US

        traj = lindblad_evolve(
            rho_exc,
            JumpBasisDissipator(np.diag(lam), 0.0),
            np.linspace(0.0, 4.0 / oracle_sz, 400),
        )
        rate_sz = fit_decay_rate(traj, "sz_minus_eq").rate_per_us

        omega = 40.0 * oracle_coh / RATE_CM_TO_PER_US
        traj = lindblad_evolve(
            rho_x,
            JumpBasisDissipator(np.diag(lam), omega),
            np.linspace(0.0, 4.0 / oracle_coh, 600),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rate_coh = fit_decay_rate(traj, "coherence_abs").rate_per_us

        worst = max(
            worst,
            abs(rate_sz / oracle_sz - 1.0),
            abs(rate_coh / oracle_coh - 1.0),
        )
    assert worst < 0.01
    assert time.perf_counter() - start < 30.0


def test_criterion_06_finite_difference_exactness():
    from conftest import make_modeset
    from spinlat.ingest import sample_g_surface

    modeset = make_modeset(natoms=4, nmodes=5, seed=3)
    gfun, d1_exact, d2_exact = quadratic_surface(modeset, seed=12)
    runset = sample_g_surface(modeset, gfun, delta=0.01, pairing="all_pairs")
    c = build_couplings(runset, field_direction=(0.0, 0.0, 1.0))
    bdir = np.array([0.0, 0.0, 1.0])
    assert relmax(c.d1, d1_exact(bdir)) < 1e-12
    assert relmax(c.d2, d2_exact(bdir)) < 1e-12


def test_criterion_07_sign_gauge_invariance():
    rng = np.random.default_rng(77)
    n = 6
    freqs = np.sort(rng.uniform(10.0, 250.0, n))
    d1 = rng.normal(scale=1e-3, size=(3, n))
    d2 = rng.normal(scale=1e-3, size=(3, n, n))
    d2 = 0.5 * (d2 + d2.transpose(0, 2, 1))

    def tensors(d1_g, d2_g):
        c = CouplingTensors(
            d1=d1_g, d2=d2_g, delta_angstrom=0.01, frequencies=freqs,
            field_direction=(0.0, 0.0, 1.0), mixed_computed=True,
        )
        spin = SpinSystem(
            g0=GTensor(2.0 * np.eye(3)), field_mt=np.array([0.0, 0.0, 1000.0])
        )
        t = build_tensor(
            c, BathSpec(temperature_k=77.0, raman_pairing="all_pairs"), spin
        )
        return t.lambda1, t.lambda2

    ref1, ref2 = tensors(d1, d2)
    for _ in range(50):
        signs = rng.choice([-1.0, 1.0], size=n)
        got1, got2 = tensors(d1 * signs, d2 * np.outer(signs, signs))
        assert relmax_or_zero(got1, ref1) < 1e-12
        assert relmax_or_zero(got2, ref2) < 1e-12


def test_criterion_08_time_identity():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        a = rng.standard_normal((3, 3))
        lam = a @ a.T
        times = relaxation_times(lam, axis=(0.0, 0.0, 1.0), convention="projection")
        lhs = times.rate2_cm
        rhs = np.trace(lam) - 0.5 * times.rate1_cm
        assert abs(lhs - rhs) <= 1e-12 * max(abs(np.trace(lam)), 1.0)


def test_criterion_09_dataset_reproduction():
    root = os.environ.get("SPINLAT_REFERENCE_DATASET")
    if not root:
        pytest.skip("published coupling dataset not present "
                    "(set SPINLAT_REFERENCE_DATASET to run)")
    root = Path(root)
    modeset = parse_modes(root / "modes.txt", skip_soft=True)
    runset = load_run_set(root / "manifest.json", modeset)
    c = build_couplings(runset, field_direction=(0.0, 0.0, 1.0))
    spin = SpinSystem(
        g0=GTensor(runset.baseline), field_mt=np.array([0.0, 0.0, 1266.0])
    )
    bath = BathSpec(temperature_k=20.0)

    att = mode_attribution(c, bath, spin, top_m=4)
    assert set(att.mode_numbers.tolist()) == {2, 7, 8, 9}
    idx = int(np.nonzero(att.mode_numbers == 2)[0][0])
    assert abs(att.shares2[idx, 2, 2]) < 0.05  # mode 2 transverse only

    temps = np.geomspace(70.0, 300.0, 12)
    points = sweep(c, spin, temps, [1266.0], bath)
    inv_t1 = np.array([1.0 / p.t1_us for p in points])
    assert np.all(np.diff(inv_t1) > 0.0)
    slope = np.polyfit(np.log(temps[-6:]), np.log(inv_t1[-6:]), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_dataset_reproduction_calls_run_offline():
    # criterion 09 is skipped without its dataset, so its calls run here, as
    # written there, on a synthetic all_pairs run set: attribution arrays,
    # and sweep rows read by attribute, counted and indexed
    from conftest import make_modeset
    from spinlat.ingest import sample_g_surface

    modeset = make_modeset(natoms=4, nmodes=4, seed=3)
    gfun, _, _ = quadratic_surface(modeset, seed=9, lin_scale=1e-3, quad_scale=1e-2,
                                   g0=np.diag([1.98, 1.99, 2.0]))
    runset = sample_g_surface(modeset, gfun, delta=0.01, pairing="all_pairs")
    c = build_couplings(runset, field_direction=(0.0, 0.0, 1.0))
    spin = SpinSystem(
        g0=GTensor(runset.baseline), field_mt=np.array([0.0, 0.0, 1266.0])
    )
    bath = BathSpec(temperature_k=20.0)

    att = mode_attribution(c, bath, spin, top_m=4)
    assert set(att.mode_numbers.tolist()) == {1, 2, 3, 4}
    idx = int(np.nonzero(att.mode_numbers == 2)[0][0])
    assert 0.0 <= att.shares2[idx, 2, 2] <= 1.0

    temps = np.geomspace(70.0, 300.0, 12)
    points = sweep(c, spin, temps, [1266.0], bath)
    inv_t1 = np.array([1.0 / p.t1_us for p in points])
    assert len(points) == 12
    assert np.all(np.isfinite(inv_t1)) and np.all(inv_t1 > 0.0)
    for i, t in enumerate(temps):
        tensor = build_tensor(c, BathSpec(temperature_k=t), spin)
        np.testing.assert_array_equal(points[i].lambda1, tensor.lambda1)
        assert inv_t1[i] == 1.0 / relaxation_times(tensor, axis=spin.axis).t1_us


def test_criterion_10_redfield_lindblad_cross_check():
    c, spin = raman_system()
    bath = BathSpec(temperature_k=200.0)
    analytic = relaxation_times(
        build_tensor(c, bath, spin), axis=spin.axis, convention="lindblad"
    )
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    grid = np.linspace(0.0, 4.0 * analytic.t1_us, 2001)
    traj = redfield_evolve(rho0, c, bath, spin, grid)
    fit = fit_decay_rate(traj, "sz_minus_eq")
    t1 = 1.0 / fit.rate_per_us
    assert 0.5 < t1 / analytic.t1_us < 2.0
