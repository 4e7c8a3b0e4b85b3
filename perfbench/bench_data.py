"""Seeded synthetic inputs for the CLI benchmark.

Every input file is written with the package's own writers
(`write_modes`, `plan_displacements`, `write_displacement_set`,
`write_g_matrix`, `export_couplings`).  The g surface is a seeded
quadratic in the Cartesian displacement with a realistic g0 near 2, so
the exact first and second derivatives along every mode are known in
closed form and the `couplings` artifact can be checked against them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bench_checks import Couplings, Point, reference_omega, reference_tensor
from spinlat.core import HBAR_AMU_A2_CM, Geometry, ModeSet
from spinlat.couplings import CouplingTensors, export_couplings
from spinlat.ingest import (
    plan_displacements,
    write_displacement_set,
    write_g_matrix,
    write_modes,
)

DELTA_ANGSTROM = 0.01
FIELD_DIRECTION = np.array([0.0, 0.0, 1.0])
BASE_G = np.diag([1.981, 1.989, 1.990])
_SYMBOLS = ("V", "O", "C", "H", "N", "S")
_MASSES = {"V": 50.942, "O": 15.999, "C": 12.011, "H": 1.008, "N": 14.007, "S": 32.06}


def make_modeset(rng: np.random.Generator, natoms: int, nmodes: int,
                 fmin: float, fmax: float) -> ModeSet:
    """Random orthonormal mass-weighted modes over a random geometry."""
    symbols = tuple(_SYMBOLS[i % len(_SYMBOLS)] for i in range(natoms))
    masses = np.array([_MASSES[s] for s in symbols])
    positions = rng.normal(scale=1.5, size=(natoms, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3 * natoms, 3 * natoms)))
    freqs = np.sort(rng.uniform(fmin, fmax, nmodes))
    return ModeSet(
        geometry=Geometry(symbols, masses, positions),
        frequencies=freqs,
        eigenvectors=q[:, :nmodes],
    )


@dataclass(frozen=True)
class QuadraticSurface:
    """g(r) = g0 + lin.d + d.quad.d / 2 with d = r - r0 flattened."""

    g0: np.ndarray      # (3, 3)
    lin: np.ndarray     # (dim, 3, 3)
    quad: np.ndarray    # (dim, dim, 3, 3), symmetric in the first two axes
    r0: np.ndarray      # (natoms, 3)

    @classmethod
    def random(cls, rng, modeset: ModeSet, lin_scale: float, quad_scale: float):
        dim = 3 * modeset.geometry.natoms
        g0 = BASE_G + 1e-3 * rng.standard_normal((3, 3))
        lin = lin_scale * rng.standard_normal((dim, 3, 3))
        quad = quad_scale * rng.standard_normal((dim, dim, 3, 3))
        quad = 0.5 * (quad + quad.transpose(1, 0, 2, 3))
        return cls(g0, lin, quad, modeset.geometry.positions.copy())

    def g_many(self, positions: np.ndarray) -> np.ndarray:
        """g matrices (M, 3, 3) for a stack of geometries (M, natoms, 3)."""
        d = (positions - self.r0).reshape(len(positions), -1)
        dim = d.shape[1]
        quad_d = (d @ self.quad.reshape(dim, dim * 9)).reshape(-1, dim, 9)
        second = 0.5 * np.einsum("mj,mja->ma", d, quad_d).reshape(-1, 3, 3)
        return self.g0 + np.einsum("iab,mi->mab", self.lin, d) + second

    def exact_couplings(self, modeset: ModeSet, b=FIELD_DIRECTION):
        """Exact d1 (3, N) and d2 (3, N, N) per unit dimensionless coordinate."""
        inv_sqrt_m = 1.0 / np.sqrt(np.repeat(modeset.geometry.masses, 3))
        steps = (modeset.eigenvectors * inv_sqrt_m[:, None]).T * np.sqrt(
            HBAR_AMU_A2_CM / modeset.frequencies
        )[:, None]                                  # (N, dim)
        lin_b = self.lin @ b                        # (dim, 3)
        quad_b = self.quad @ b                      # (dim, dim, 3)
        d1 = (steps @ lin_b).T
        d2 = np.einsum("ki,ija,pj->akp", steps, quad_b, steps, optimize=True)
        return d1, 0.5 * (d2 + d2.transpose(0, 2, 1))


def write_config(path: Path, g0: np.ndarray) -> Path:
    """CLI config naming the baseline g matrix, needed with --couplings."""
    path.write_text(json.dumps(
        {"format": "spinlat-config/1", "physics": {"g0": g0.tolist()}}
    ) + "\n")
    return path


@dataclass(frozen=True)
class RunDataset:
    """A modes file and its all_pairs displacement directory."""

    modes: Path
    manifest: Path
    modeset: ModeSet
    surface: QuadraticSurface


def build_run_dataset(root: Path, seed: int, nmodes: int,
                      results: bool = True) -> RunDataset:
    """Modes file and displaced geometries; with results, the g files an
    engine would leave next to them."""
    rng = np.random.default_rng([seed, nmodes, 1])
    natoms = -(-nmodes // 3)
    modeset = make_modeset(rng, natoms, nmodes, 20.0, 1600.0)
    surface = QuadraticSurface.random(rng, modeset, 2e-3, 5e-2)
    root.mkdir(parents=True, exist_ok=True)
    modes = root / "modes.txt"
    write_modes(modeset, modes)
    plan = plan_displacements(modeset, delta=DELTA_ANGSTROM, order=2,
                              pairing="all_pairs")
    runs = root / "runs"
    manifest = write_displacement_set(plan, modeset, runs, DELTA_ANGSTROM)
    if results:
        gs = surface.g_many(np.stack([g.positions for g in plan]))
        for g, m in zip(plan, gs):
            write_g_matrix(m, runs / (g.label() + ".gout"))
    return RunDataset(modes, manifest, modeset, surface)


@dataclass(frozen=True)
class CouplingsDataset:
    """A couplings JSON plus the config holding its baseline g matrix."""

    couplings: Path
    config: Path
    exact: Couplings


def _surface_couplings(seed: int, nmodes: int, fmin: float, fmax: float,
                       lin_scale: float, quad_scale: float) -> Couplings:
    rng = np.random.default_rng([seed, nmodes, 2])
    modeset = make_modeset(rng, -(-nmodes // 3), nmodes, fmin, fmax)
    surface = QuadraticSurface.random(rng, modeset, lin_scale, quad_scale)
    d1, d2 = surface.exact_couplings(modeset)
    return Couplings(d1, d2, modeset.frequencies, modeset.source_indices, surface.g0)


def write_couplings_dataset(root: Path, exact: Couplings) -> CouplingsDataset:
    """Export couplings as the CLI reads them, plus a config naming g0."""
    tensors = CouplingTensors(
        d1=exact.d1, d2=exact.d2, delta_angstrom=DELTA_ANGSTROM,
        frequencies=exact.frequencies, field_direction=FIELD_DIRECTION,
        mixed_computed=True, source_indices=exact.source_indices,
    )
    root.mkdir(parents=True, exist_ok=True)
    path = root / "couplings.json"
    export_couplings(tensors, path)
    return CouplingsDataset(path, write_config(root / "config.json", exact.g0), exact)


def build_sweep_dataset(root: Path, seed: int, nmodes: int) -> CouplingsDataset:
    """Exact couplings of a seeded surface over nmodes modes."""
    return write_couplings_dataset(
        root, _surface_couplings(seed, nmodes, 20.0, 1600.0, 2e-3, 5e-2))


# Spin-space shape of the dynamics tensor, in units of 1/T1: strongly
# non-axial, with Lindblad rates along z of 1/T1 = 2(xx + yy) = 1 and
# 1/T2 = Tr + zz = 1.
DYNAMICS_SHAPE = np.array([[0.155, 0.175, -0.135],
                           [0.175, 0.345, -0.255],
                           [-0.135, -0.255, 0.25]])


def _sqrtm(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(w)) @ v.T


def build_dynamics_dataset(root: Path, seed: int, nmodes: int, pt: Point,
                           omega_per_rate1: float) -> CouplingsDataset:
    """Couplings whose rate tensor at pt is DYNAMICS_SHAPE * Omega / omega_per_rate1.

    The spin-space rows of a seeded surface's couplings are mixed by
    A = S^(1/2) L^(-1/2), which maps the tensor L to S for every part but
    the tiny quartic one; three rounds fix that.  Every seed then has the
    same tensor and T1, so a lab-frame run, whose step count is set by the
    precession over a span of a few T1, costs the same for every seed,
    while the per-mode couplings, and with them the Redfield spectra,
    still vary with the seed.
    """
    exact = _surface_couplings(seed, nmodes, 20.0, 400.0, 2e-3, 5e-2)
    target = DYNAMICS_SHAPE * reference_omega(exact.g0, pt.field_mt) / omega_per_rate1
    root_target = _sqrtm(target)
    for _ in range(3):
        ref = reference_tensor(exact.d1, exact.d2, exact.frequencies, exact.g0, pt)
        a = root_target @ np.linalg.inv(_sqrtm(ref["lambda1"] + ref["lambda2"]))
        exact = replace(exact, d1=a @ exact.d1,
                        d2=np.einsum("ab,bqp->aqp", a, exact.d2))
    return write_couplings_dataset(root, exact)
