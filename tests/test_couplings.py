"""Finite-difference coupling assembly against analytic surfaces."""

import json

import numpy as np
import pytest

from spinlat.core import ModeSet
from spinlat.couplings import (
    ConvergenceReport,
    CouplingTensors,
    build_couplings,
    convergence_check,
    dimensionless_steps,
    export_couplings,
    load_couplings,
)
from spinlat.ingest import DisplacedGTensorSet, sample_g_surface

from conftest import make_modeset

# Independent value of hbar in amu * Angstrom^2 * cm^-1; any drift in the
# centralized constant must show up here.
HBAR_UNITS = 16.857629181311186


def mode_step_vectors(modeset):
    """c[k] = sqrt(hbar/omega_k) * M^(-1/2) l_k, the Cartesian displacement
    per unit dimensionless coordinate, flattened to length 3*natoms."""
    inv_sqrt_m = 1.0 / np.sqrt(np.repeat(modeset.geometry.masses, 3))
    out = []
    for k in range(modeset.nmodes):
        w = modeset.eigenvectors[:, k] * inv_sqrt_m
        out.append(np.sqrt(HBAR_UNITS / modeset.frequencies[k]) * w)
    return np.array(out)


def quadratic_surface(modeset, seed=7, lin_scale=0.1, quad_scale=1.0, g0=None):
    """Random degree-2 g surface plus its exact derivatives in x_k.

    The default constant term is kept of the same order as the curvature
    so subtractive cancellation in the stencils stays near machine eps;
    pass g0 for realistic magnitudes (and looser achievable accuracy).
    """
    rng = np.random.default_rng(seed)
    dim = 3 * modeset.geometry.natoms
    if g0 is None:
        g0 = 0.05 * rng.standard_normal((3, 3))
    lin = lin_scale * rng.standard_normal((dim, 3, 3))
    quad = quad_scale * rng.standard_normal((dim, dim, 3, 3))
    quad = 0.5 * (quad + quad.transpose(1, 0, 2, 3))
    r0 = modeset.geometry.positions.copy()

    def gfun(positions):
        d = (positions - r0).ravel()
        return (
            g0
            + np.einsum("iab,i->ab", lin, d)
            + 0.5 * np.einsum("ijab,i,j->ab", quad, d, d)
        )

    c = mode_step_vectors(modeset)

    def d1_exact(b):
        return np.einsum("iab,b,ki->ak", lin, b, c)

    def d2_exact(b):
        return np.einsum("ijab,b,ki,pj->akp", quad, b, c, c)

    return gfun, d1_exact, d2_exact


def relmax(computed, exact):
    return np.abs(computed - exact).max() / np.abs(exact).max()


def flip_column(modeset, k):
    ev = modeset.eigenvectors.copy()
    ev[:, k] *= -1.0
    return ModeSet(
        geometry=modeset.geometry,
        frequencies=modeset.frequencies.copy(),
        eigenvectors=ev,
        source_indices=modeset.source_indices.copy(),
    )


# ------------------------------------------------------------------ steps

def test_dimensionless_steps_oracle(toy_modes):
    delta = 0.01
    steps = dimensionless_steps(toy_modes, delta)
    inv_sqrt_m = 1.0 / np.sqrt(np.repeat(toy_modes.geometry.masses, 3))
    for k in range(toy_modes.nmodes):
        w = toy_modes.eigenvectors[:, k] * inv_sqrt_m
        expected = delta / (
            np.linalg.norm(w) * np.sqrt(HBAR_UNITS / toy_modes.frequencies[k])
        )
        assert steps[k] == pytest.approx(expected, rel=1e-14)


def test_dimensionless_steps_rejects_nonpositive_delta(toy_modes):
    with pytest.raises(ValueError, match="delta"):
        dimensionless_steps(toy_modes, 0.0)


# ------------------------------------------------------------ FD exactness

def test_constant_surface_gives_zero_derivatives(toy_modes):
    g0 = np.diag([1.99, 1.99, 1.99])
    runset = sample_g_surface(toy_modes, lambda pos: g0, pairing="all_pairs")
    c = build_couplings(runset)
    assert np.all(c.d1 == 0.0)
    assert np.all(c.d2 == 0.0)
    assert c.mixed_computed


@pytest.mark.parametrize("bdir", [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
def test_polynomial_surface_matches_analytic(toy_modes, bdir):
    gfun, d1_exact, d2_exact = quadratic_surface(toy_modes)
    runset = sample_g_surface(toy_modes, gfun, delta=0.01, pairing="all_pairs")
    c = build_couplings(runset, field_direction=bdir)
    b = np.asarray(bdir) / np.linalg.norm(bdir)
    assert relmax(c.d1, d1_exact(b)) < 1e-12
    assert relmax(c.d2, d2_exact(b)) < 1e-12


def test_polynomial_surface_realistic_baseline(toy_modes):
    # A free-electron-sized constant term costs ~3 digits in d2 through
    # the 1/dx^2 amplification of its rounding; the stencil itself is
    # still exact, so the error stays at that floor.
    gfun, d1_exact, d2_exact = quadratic_surface(
        toy_modes, g0=np.diag([2.0, 2.0, 2.0])
    )
    runset = sample_g_surface(toy_modes, gfun, delta=0.01, pairing="all_pairs")
    c = build_couplings(runset)
    b = np.array([0.0, 0.0, 1.0])
    assert relmax(c.d1, d1_exact(b)) < 1e-12
    assert relmax(c.d2, d2_exact(b)) < 1e-11


def test_single_mode_quadratic_recovers_coefficients(toy_modes):
    # g_zz = a + b x_0 + c x_0^2: slope b, curvature 2c, both exact.
    r0 = toy_modes.geometry.positions.copy()
    a, bcoef, ccoef = 2.0, 3.7e-3, -1.3e-2
    # x_0 recovered by projecting the Cartesian displacement onto the
    # mass-weighted eigenvector, undoing the sqrt(hbar/omega) scaling.
    l0 = toy_modes.eigenvectors[:, 0]
    sqrt_m = np.sqrt(np.repeat(toy_modes.geometry.masses, 3))
    scale = np.sqrt(HBAR_UNITS / toy_modes.frequencies[0])

    def gfun(positions):
        d = (positions - r0).ravel()
        x0 = (sqrt_m * d) @ l0 / scale
        g = np.zeros((3, 3))
        g[2, 2] = a + bcoef * x0 + ccoef * x0 * x0
        return g

    runset = sample_g_surface(toy_modes, gfun, pairing="all_pairs")
    c = build_couplings(runset)
    d1, d2 = c.d1, c.d2
    assert c.mixed_computed
    assert d1[2, 0] == pytest.approx(bcoef, rel=1e-12)
    assert d2[2, 0, 0] == pytest.approx(2.0 * ccoef, rel=1e-12)
    # other modes see a constant surface through their own stencils
    assert abs(d1[2, 1]) < 1e-15 and abs(d1[2, 2]) < 1e-15


def test_bilinear_surface_mixed_entry(toy_modes):
    # g_xx = x_0 * x_1 has unit mixed second derivative and nothing else.
    r0 = toy_modes.geometry.positions.copy()
    sqrt_m = np.sqrt(np.repeat(toy_modes.geometry.masses, 3))

    def xk(positions, k):
        d = (positions - r0).ravel()
        lk = toy_modes.eigenvectors[:, k]
        return (sqrt_m * d) @ lk / np.sqrt(HBAR_UNITS / toy_modes.frequencies[k])

    def gfun(positions):
        g = np.zeros((3, 3))
        g[0, 0] = xk(positions, 0) * xk(positions, 1)
        return g

    runset = sample_g_surface(toy_modes, gfun, pairing="all_pairs")
    c = build_couplings(runset, field_direction=(1.0, 0.0, 0.0))
    assert c.d2[0, 0, 1] == pytest.approx(1.0, rel=1e-12)
    assert c.d2[0, 1, 0] == pytest.approx(1.0, rel=1e-12)
    assert abs(c.d2[0, 0, 0]) < 1e-12
    assert abs(c.d1).max() < 1e-12


def test_d2_symmetrized_bitwise(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes, seed=11)
    runset = sample_g_surface(toy_modes, gfun, pairing="all_pairs")
    c = build_couplings(runset)
    assert np.array_equal(c.d2, np.swapaxes(c.d2, 1, 2))


def test_sign_gauge_flip_relabels_consistently(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes, seed=3)
    flipped_modes = flip_column(toy_modes, 1)
    c_ref = build_couplings(sample_g_surface(toy_modes, gfun, pairing="all_pairs"))
    c_flip = build_couplings(
        sample_g_surface(flipped_modes, gfun, pairing="all_pairs")
    )
    sign = np.array([1.0, -1.0, 1.0])
    np.testing.assert_allclose(c_flip.d1, c_ref.d1 * sign, atol=1e-15)
    expected_d2 = c_ref.d2 * sign[None, :, None] * sign[None, None, :]
    np.testing.assert_allclose(c_flip.d2, expected_d2, atol=1e-15)


def _loop_stencils(runset, b):
    """Per-mode and per-pair stencil loops: the bitwise reference for the
    array stencils of build_couplings."""
    dx = dimensionless_steps(runset.modeset, runset.delta_angstrom)
    n = runset.modeset.nmodes
    d1, d2 = np.empty((3, n)), np.zeros((3, n, n))
    g0 = runset.baseline @ b
    for k in range(n):
        gp, gm = runset.singles[(k, 1)] @ b, runset.singles[(k, -1)] @ b
        d1[:, k] = (gp - gm) / (2.0 * dx[k])
        d2[:, k, k] = (gp - 2.0 * g0 + gm) / dx[k] ** 2
    for (k, kp, s, sp) in runset.pairs:
        if (s, sp) == (1, 1):
            q = {key: runset.pairs[(k, kp, *key)] @ b
                 for key in ((1, 1), (1, -1), (-1, 1), (-1, -1))}
            mixed = (q[(1, 1)] - q[(1, -1)] - q[(-1, 1)] + q[(-1, -1)]) / (
                4.0 * dx[k] * dx[kp])
            d2[:, k, kp] = d2[:, kp, k] = mixed
    return d1, d2


@pytest.mark.parametrize("direction", [(0, 0, 1), (1, -2, -2), (0.3, 0.1, -0.7)])
def test_array_stencils_equal_loop_stencils(direction):
    ms = make_modeset(natoms=4, nmodes=7, frequencies=np.linspace(15.0, 300.0, 7))
    gfun, _, _ = quadratic_surface(ms, seed=11)
    runset = sample_g_surface(ms, gfun, pairing="all_pairs")
    c = build_couplings(runset, direction)
    # the runs are projected on exactly the unit direction the tensors store
    b = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    assert np.array_equal(c.field_direction, b)
    d1, d2 = _loop_stencils(runset, b)
    assert np.array_equal(c.d1, d1)
    assert np.array_equal(c.d2, d2)


# ---------------------------------------------------------------- errors

def test_missing_single_names_mode(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes)
    runset = sample_g_surface(toy_modes, gfun)
    singles = dict(runset.singles)
    del singles[(1, -1)]
    broken = DisplacedGTensorSet(
        modeset=toy_modes,
        delta_angstrom=runset.delta_angstrom,
        baseline=runset.baseline,
        singles=singles,
        pairs={},
    )
    with pytest.raises(ValueError, match=r"\(2, '-'\)"):
        build_couplings(broken)


def test_incomplete_pair_names_pair(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes)
    runset = sample_g_surface(toy_modes, gfun, pairing="all_pairs")
    pairs = dict(runset.pairs)
    del pairs[(0, 2, -1, -1)]
    broken = DisplacedGTensorSet(
        modeset=toy_modes,
        delta_angstrom=runset.delta_angstrom,
        baseline=runset.baseline,
        singles=dict(runset.singles),
        pairs=pairs,
    )
    with pytest.raises(ValueError, match=r"pair \(1, 3\)"):
        build_couplings(broken)


def test_diagonal_only_flags_mixed_not_computed(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes)
    runset = sample_g_surface(toy_modes, gfun, pairing="diagonal_only")
    c = build_couplings(runset)
    assert not c.mixed_computed
    off = c.d2 * (1.0 - np.eye(toy_modes.nmodes))
    assert np.all(off == 0.0)
    assert np.abs(np.einsum("akk->ak", c.d2)).max() > 0.0


# ------------------------------------------------------------ convergence

def test_convergence_exact_polynomial_all_clean(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes)
    full = build_couplings(sample_g_surface(toy_modes, gfun, delta=0.02,
                                            pairing="all_pairs"))
    half = build_couplings(sample_g_surface(toy_modes, gfun, delta=0.01,
                                            pairing="all_pairs"))
    report = convergence_check(full, half)
    assert isinstance(report, ConvergenceReport)
    assert report.ok
    assert report.d1_deviation.max() < 1e-9
    assert report.d2_deviation.max() < 1e-9


def test_convergence_flags_noise_amplification(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes)
    rng = np.random.default_rng(19)

    def noisy(positions):
        return gfun(positions) + 1e-6 * rng.standard_normal((3, 3))

    full = build_couplings(sample_g_surface(toy_modes, noisy, delta=0.02,
                                            pairing="all_pairs"))
    half = build_couplings(sample_g_surface(toy_modes, noisy, delta=0.01,
                                            pairing="all_pairs"))
    report = convergence_check(full, half, threshold=0.05)
    assert not report.ok
    assert any(name == "d2" for name, *_ in report.flagged)


def test_convergence_rejects_wrong_half_delta(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes)
    full = build_couplings(sample_g_surface(toy_modes, gfun, delta=0.02))
    bad_half = build_couplings(sample_g_surface(toy_modes, gfun, delta=0.015))
    with pytest.raises(ValueError, match="delta/2"):
        convergence_check(full, bad_half)


def test_convergence_rejects_mode_count_mismatch(toy_modes):
    other = make_modeset(natoms=3, nmodes=2, frequencies=[12.6, 45.0], seed=5)
    gfun, _, _ = quadratic_surface(toy_modes)
    full = build_couplings(sample_g_surface(toy_modes, gfun, delta=0.02))
    half = build_couplings(sample_g_surface(other, gfun, delta=0.01))
    with pytest.raises(ValueError, match="mode count"):
        convergence_check(full, half)


def test_convergence_rejects_other_field_direction(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes)
    full = build_couplings(sample_g_surface(toy_modes, gfun, delta=0.02))
    half = build_couplings(sample_g_surface(toy_modes, gfun, delta=0.01),
                           field_direction=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="different field directions"):
        convergence_check(full, half)


# ----------------------------------------------------------------- export

def test_export_load_round_trip(toy_modes, tmp_path):
    gfun, _, _ = quadratic_surface(toy_modes)
    c = build_couplings(
        sample_g_surface(toy_modes, gfun, pairing="all_pairs"),
        field_direction=(0.0, 1.0, 0.0),
    )
    path = tmp_path / "couplings.json"
    export_couplings(c, path)
    loaded = load_couplings(path)
    assert np.array_equal(loaded.d1, c.d1)
    assert np.array_equal(loaded.d2, c.d2)
    assert np.array_equal(loaded.frequencies, c.frequencies)
    assert np.array_equal(loaded.field_direction, c.field_direction)
    assert np.array_equal(loaded.source_indices, c.source_indices)
    assert loaded.delta_angstrom == c.delta_angstrom
    assert loaded.mixed_computed == c.mixed_computed
    doc = json.loads(path.read_text())
    assert doc["units"]["frequencies_cm"] == "cm^-1"


def test_load_single_line_json_text(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes)
    c = build_couplings(sample_g_surface(toy_modes, gfun))
    text = json.dumps(json.loads(export_couplings(c)))
    assert "\n" not in text
    loaded = load_couplings(text)
    assert np.array_equal(loaded.d1, c.d1)
    assert np.array_equal(loaded.d2, c.d2)
    assert np.array_equal(load_couplings("  " + export_couplings(c)).d1, c.d1)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something/9"}))
    with pytest.raises(ValueError, match="spinlat-couplings/1"):
        load_couplings(path)


def test_tensor_validation_rejects_asymmetric_d2(toy_modes):
    n = toy_modes.nmodes
    d2 = np.zeros((3, n, n))
    d2[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        CouplingTensors(
            d1=np.zeros((3, n)),
            d2=d2,
            delta_angstrom=0.01,
            frequencies=toy_modes.frequencies,
            field_direction=(0.0, 0.0, 1.0),
            mixed_computed=True,
        )
