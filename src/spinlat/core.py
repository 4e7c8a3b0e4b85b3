"""Core types and unit conventions.

Everything downstream works in wavenumbers: energies, frequencies and
rates are cm^-1, temperatures K, magnetic fields mT, lengths Angstrom,
masses amu, times microseconds.  A rate r in cm^-1 corresponds to
2*pi*c*r events per second.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# CODATA-derived constants in the wavenumber unit system.
KB_CM_PER_K = 0.69503480            # Boltzmann constant, cm^-1 per K
MUB_CM_PER_T = 0.4668644778         # Bohr magneton over hc, cm^-1 per T
C_CM_PER_S = 2.99792458e10          # speed of light, cm/s

# rate conversion: r [cm^-1] -> 2*pi*c*r [1/s]
RATE_CM_TO_PER_S = 2.0 * math.pi * C_CM_PER_S
RATE_CM_TO_PER_US = RATE_CM_TO_PER_S * 1e-6

_HBAR_JS = 1.054571817e-34
_AMU_KG = 1.66053906660e-27

# hbar expressed so that sqrt(HBAR_AMU_A2_CM / omega[cm^-1]) is the
# characteristic length of a mass-weighted normal coordinate in
# sqrt(amu)*Angstrom, for the x = a + a^dagger normalization where the
# coordinate autocorrelation at t=0 equals 2n+1.
HBAR_AMU_A2_CM = _HBAR_JS / (_AMU_KG * 1e-20 * 4.0 * math.pi * C_CM_PER_S)

PAIRING_MODES = ("diagonal_only", "all_pairs")


def _as_matrix3(values, name: str) -> np.ndarray:
    m = np.array(values, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    m.setflags(write=False)
    return m


def freeze(obj, **arrays: np.ndarray) -> None:
    """Set fields of the frozen dataclass obj to the arrays, made read-only."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def raise_first_failure(bad, subject: str, problem, labels=None) -> None:
    """Raise ValueError(f"{subject} {problem}") at the first set entry of bad.

    A 0-d mask is one item.  In a stack the subject gains " at " and the
    entry's label (flat order) or index; a callable problem gets the
    entry's flat index.
    """
    bad = np.asarray(bad)
    if bad.any():
        i = int(np.argmax(bad))
        if bad.ndim:
            where = labels[i] if labels else "index " + ", ".join(
                map(str, np.unravel_index(i, bad.shape)))
            subject = f"{subject} at {where}"
        raise ValueError(f"{subject} {problem(i) if callable(problem) else problem}")


def check_rate_matrix(m: np.ndarray, name: str, labels=None) -> None:
    """Raise ValueError unless each 3x3 rate matrix in m (..., 3, 3) is symmetric and PSD.

    Per matrix, asymmetry may reach 1e-10 of max(|m|, 1), eigenvalues -1e-12
    of Tr m.  A stack takes one eigen-solve; see raise_first_failure.
    """
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    asym = np.ravel(np.abs(m - np.swapaxes(m, -2, -1)).max(axis=(-2, -1)) > 1e-10 * scale)
    floor = np.ravel(-1e-12 * np.maximum(np.trace(m, axis1=-2, axis2=-1), 1e-300))
    low = np.ravel(np.linalg.eigvalsh(m)[..., 0])
    raise_first_failure(
        (asym | (low < floor)).reshape(np.shape(m)[:-2]), name,
        lambda i: "is not symmetric within 1e-10" if asym[i]
        else f"is not PSD: eigenvalue {low[i]:.3e} below {floor[i]:.3e}", labels)


@dataclass(frozen=True)
class GTensor:
    """Zeeman coupling matrix g, dimensionless, not assumed symmetric."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix3(self.matrix, "g matrix")
        object.__setattr__(self, "matrix", m)
        d = np.diagonal(m)
        if np.any(d < 1.5) or np.any(d > 2.5):
            warnings.warn(
                f"g diagonal {d.tolist()} outside the usual (1.5, 2.5) range",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Geometry:
    """Molecular geometry: element symbols, masses in amu, positions in Angstrom."""

    symbols: tuple[str, ...]
    masses: np.ndarray          # (natoms,)
    positions: np.ndarray       # (natoms, 3)

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        pos = np.asarray(self.positions, dtype=float)
        n = len(self.symbols)
        if masses.shape != (n,):
            raise ValueError(f"expected {n} masses, got shape {masses.shape}")
        if pos.shape != (n, 3):
            raise ValueError(f"expected positions ({n}, 3), got {pos.shape}")
        if np.any(masses <= 0.0) or not np.all(np.isfinite(masses)):
            raise ValueError("masses must be positive and finite")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions contain non-finite entries")
        object.__setattr__(self, "symbols", tuple(self.symbols))
        freeze(self, masses=masses, positions=pos)

    @property
    def natoms(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class ModeSet:
    """Harmonic modes: frequencies ascending in cm^-1, mass-weighted
    eigenvector columns orthonormal, source_indices keeping the original
    1-based numbering from the input file."""

    geometry: Geometry
    frequencies: np.ndarray       # (nmodes,), cm^-1, ascending
    eigenvectors: np.ndarray      # (3*natoms, nmodes), orthonormal columns
    source_indices: np.ndarray = None  # (nmodes,), int

    ORTHO_TOL = 1e-6

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        if freqs.ndim != 1:
            raise ValueError("frequencies must be a 1-d array")
        n3 = 3 * self.geometry.natoms
        if vecs.shape != (n3, freqs.size):
            raise ValueError(
                f"eigenvectors must be ({n3}, {freqs.size}), got {vecs.shape}"
            )
        if np.any(~np.isfinite(freqs)) or np.any(~np.isfinite(vecs)):
            raise ValueError("mode data contains non-finite entries")
        if np.any(np.diff(freqs) < 0.0):
            raise ValueError("frequencies must be sorted ascending")
        gram = vecs.T @ vecs
        dev = np.abs(gram - np.eye(freqs.size)).max() if freqs.size else 0.0
        if dev > self.ORTHO_TOL:
            raise ValueError(
                f"eigenvector columns not orthonormal, max deviation {dev:.3e}"
            )
        if self.source_indices is None:
            src = np.arange(1, freqs.size + 1, dtype=int)
        else:
            src = np.asarray(self.source_indices, dtype=int)
            if src.shape != freqs.shape:
                raise ValueError("source_indices shape mismatch")
        freeze(self, frequencies=freqs, eigenvectors=vecs, source_indices=src)

    @property
    def nmodes(self) -> int:
        return self.frequencies.size

    def mass_weighted_norm(self, k: int) -> float:
        """Euclidean norm of column k after dividing each atom block by sqrt(m)."""
        w = self.eigenvectors[:, k] / np.sqrt(np.repeat(self.geometry.masses, 3))
        return float(np.linalg.norm(w))

    def cartesian_direction(self, k: int) -> np.ndarray:
        """Unit-norm Cartesian displacement pattern of mode k, shape (natoms, 3)."""
        w = self.eigenvectors[:, k] / np.sqrt(np.repeat(self.geometry.masses, 3))
        u = w / np.linalg.norm(w)
        return u.reshape(self.geometry.natoms, 3)


@dataclass(frozen=True)
class SpinSystem:
    """Effective S=1/2 center: g matrix and static field in mT."""

    g0: GTensor
    field_mt: np.ndarray                    # (3,)
    omega_override_cm: float | None = None  # pins the spin frequency if set

    def __post_init__(self):
        b = np.asarray(self.field_mt, dtype=float)
        if b.shape != (3,):
            raise ValueError(f"field_mt must be a 3-vector, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("field_mt contains non-finite entries")
        if self.omega_override_cm is not None and self.omega_override_cm < 0.0:
            raise ValueError("omega_override_cm must be nonnegative")
        freeze(self, field_mt=b)

    @property
    def field_magnitude_t(self) -> float:
        return float(np.linalg.norm(self.field_mt)) * 1e-3

    @property
    def field_direction(self) -> np.ndarray:
        if not self.field_mt.any():
            raise ValueError("field direction undefined at zero field")
        return self.axis

    @property
    def axis(self) -> np.ndarray:
        """The quantization axis: the field's unit direction, or z at zero
        field, where every rate is zero."""
        b = np.linalg.norm(self.field_mt)
        return self.field_mt / b if b else np.array([0.0, 0.0, 1.0])

    def larmor_cm(self) -> float:
        if self.omega_override_cm is not None:
            return float(self.omega_override_cm)
        return larmor_frequency(self.g0, self.field_mt)


@dataclass(frozen=True)
class BathSpec:
    """Phonon bath parameters.

    gamma_cm is the one-phonon damping rate, linewidth_cm the Lorentzian
    half-width used wherever a delta function is regularized.  Either may
    be a scalar or a per-mode array.
    """

    temperature_k: float
    gamma_cm: float | np.ndarray = 2.0
    linewidth_cm: float | np.ndarray = 2.0
    raman_pairing: str = "diagonal_only"

    def __post_init__(self):
        if self.temperature_k < 0.0:
            raise ValueError("temperature_k must be >= 0")
        if self.raman_pairing not in PAIRING_MODES:
            raise ValueError(
                f"raman_pairing must be one of {PAIRING_MODES}, "
                f"got {self.raman_pairing!r}"
            )
        for name in ("gamma_cm", "linewidth_cm"):
            v = np.asarray(getattr(self, name), dtype=float)
            if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")

    def gamma_per_mode(self, nmodes: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.gamma_cm, float), (nmodes,)).copy()

    def linewidth_per_mode(self, nmodes: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.linewidth_cm, float), (nmodes,)).copy()


def bose_occupation(omega_cm, temperature_k: float):
    """Bose-Einstein occupation of a mode at omega_cm (cm^-1) and T (K).

    Returns exactly 0 at T=0.  omega_cm must be positive.
    """
    w = np.asarray(omega_cm, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("bose_occupation requires omega_cm > 0")
    if temperature_k < 0.0:
        raise ValueError("temperature_k must be >= 0")
    if temperature_k == 0.0:
        out = np.zeros_like(w)
    else:
        with np.errstate(over="ignore"):
            out = 1.0 / np.expm1(w / (KB_CM_PER_K * temperature_k))
    return float(out) if np.isscalar(omega_cm) else out


def larmor_frequency(g, field_mt) -> float:
    """Spin transition frequency |g.B| * muB/hc in cm^-1, field in mT."""
    m = g.matrix if isinstance(g, GTensor) else _as_matrix3(g, "g matrix")
    b = np.asarray(field_mt, dtype=float)
    if b.shape != (3,):
        raise ValueError("field_mt must be a 3-vector")
    return MUB_CM_PER_T * float(np.linalg.norm(m @ (b * 1e-3)))


def principal_g_values(g) -> np.ndarray:
    """Principal g values: singular values of the g matrix, ascending.

    Singular values, not eigenvalues: g enters observables through g.g^T,
    so an asymmetric matrix still yields three real nonnegative values.
    """
    m = g.matrix if isinstance(g, GTensor) else _as_matrix3(g, "g matrix")
    return np.sort(np.linalg.svd(m, compute_uv=False))
