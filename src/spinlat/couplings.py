"""Finite-difference spin-phonon couplings from displaced g matrices.

Derivatives are taken with respect to the dimensionless coordinate x_q
of each mode (the a + a^dagger normalization).  A geometric step of
delta Angstrom along the unit Cartesian pattern of mode q corresponds to

    dx_q = delta / (n_q * sqrt(HBAR_AMU_A2_CM / omega_q))

where n_q is the Euclidean norm of the mass-unweighted eigenvector
column, the factor divided out when the pattern was normalized.

The stored couplings are contracted with the unit field direction and
carry no field magnitude: the Zeeman prefactor muB*|B|/hc is applied
when relaxation tensors are assembled, which makes the field scaling
of the rates exact by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import HBAR_AMU_A2_CM, ModeSet
from .ingest import DisplacedGTensorSet

COUPLINGS_FORMAT = "spinlat-couplings/1"


def dimensionless_steps(modeset: ModeSet, delta: float) -> np.ndarray:
    """Per-mode dimensionless coordinate step for a geometric step of delta."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    norms = np.array([modeset.mass_weighted_norm(k) for k in range(modeset.nmodes)])
    lengths = np.sqrt(HBAR_AMU_A2_CM / modeset.frequencies)
    return delta / (norms * lengths)


@dataclass(frozen=True)
class CouplingTensors:
    """First and second g-surface derivatives over modes.

    d1[a, q]    = d(g . b)_a / dx_q
    d2[a, q, p] = d^2(g . b)_a / dx_q dx_p   (symmetric in q, p)

    with b the unit field direction; entries are dimensionless.
    """

    d1: np.ndarray
    d2: np.ndarray
    delta_angstrom: float
    frequencies: np.ndarray
    field_direction: np.ndarray
    mixed_computed: bool
    source_indices: np.ndarray = None
    modeset: ModeSet | None = None

    def __post_init__(self):
        d1 = np.asarray(self.d1, dtype=float)
        d2 = np.asarray(self.d2, dtype=float)
        freqs = np.asarray(self.frequencies, dtype=float)
        n = freqs.size
        if d1.shape != (3, n):
            raise ValueError(f"d1 must be (3, {n}), got {d1.shape}")
        if d2.shape != (3, n, n):
            raise ValueError(f"d2 must be (3, {n}, {n}), got {d2.shape}")
        if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
            raise ValueError("coupling tensors contain non-finite entries")
        if np.any(freqs <= 0.0):
            raise ValueError("mode frequencies must be positive")
        sym_dev = np.abs(d2 - np.swapaxes(d2, 1, 2)).max()
        scale = max(np.abs(d2).max(), 1.0)
        if sym_dev > 1e-10 * scale:
            raise ValueError(f"d2 not symmetric in mode indices, dev {sym_dev:.3e}")
        b = np.asarray(self.field_direction, dtype=float)
        if b.shape != (3,) or abs(np.linalg.norm(b) - 1.0) > 1e-10:
            raise ValueError("field_direction must be a unit 3-vector")
        if self.source_indices is None:
            src = np.arange(1, n + 1, dtype=int)
        else:
            src = np.asarray(self.source_indices, dtype=int)
            if src.shape != (n,):
                raise ValueError("source_indices shape mismatch")
        for arr in (d1, d2, freqs, b, src):
            arr.setflags(write=False)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "field_direction", b)
        object.__setattr__(self, "source_indices", src)

    @property
    def nmodes(self) -> int:
        return self.frequencies.size


def _project(matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Spin-space component vector (g . b)_a for a g matrix sample."""
    return np.asarray(matrix, dtype=float) @ b


def first_order_couplings(
    runset: DisplacedGTensorSet, field_direction=(0.0, 0.0, 1.0)
) -> np.ndarray:
    """Central-difference d(g.b)_a/dx_q, shape (3, nmodes)."""
    b = _unit(field_direction)
    ms = runset.modeset
    _require_singles(runset)
    dx = dimensionless_steps(ms, runset.delta_angstrom)
    d1 = np.empty((3, ms.nmodes))
    for k in range(ms.nmodes):
        gp = _project(runset.singles[(k, +1)], b)
        gm = _project(runset.singles[(k, -1)], b)
        d1[:, k] = (gp - gm) / (2.0 * dx[k])
    return d1


def second_order_couplings(
    runset: DisplacedGTensorSet, field_direction=(0.0, 0.0, 1.0)
) -> tuple[np.ndarray, bool]:
    """Second derivatives d2 (3, N, N) and whether mixed entries were computed.

    Diagonal entries use the three-point stencil through the baseline.
    Mixed entries need the four sign combinations of a displaced pair;
    without pair runs they are left at zero and flagged.
    """
    b = _unit(field_direction)
    ms = runset.modeset
    _require_singles(runset)
    dx = dimensionless_steps(ms, runset.delta_angstrom)
    n = ms.nmodes
    d2 = np.zeros((3, n, n))
    g0 = _project(runset.baseline, b)
    for k in range(n):
        gp = _project(runset.singles[(k, +1)], b)
        gm = _project(runset.singles[(k, -1)], b)
        d2[:, k, k] = (gp - 2.0 * g0 + gm) / dx[k] ** 2

    grouped: dict[tuple[int, int], dict[tuple[int, int], np.ndarray]] = {}
    for (k, kp, s, sp), m in runset.pairs.items():
        grouped.setdefault((k, kp), {})[(s, sp)] = m
    for (k, kp), quad in grouped.items():
        needed = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        if set(quad) != needed:
            raise ValueError(
                f"pair ({k + 1}, {kp + 1}) needs all four sign combinations, "
                f"got {sorted(quad)}"
            )
        gpp = _project(quad[(1, 1)], b)
        gpm = _project(quad[(1, -1)], b)
        gmp = _project(quad[(-1, 1)], b)
        gmm = _project(quad[(-1, -1)], b)
        mixed = (gpp - gpm - gmp + gmm) / (4.0 * dx[k] * dx[kp])
        d2[:, k, kp] = mixed
        d2[:, kp, k] = mixed
    return d2, bool(grouped)


def build_couplings(
    runset: DisplacedGTensorSet, field_direction=(0.0, 0.0, 1.0)
) -> CouplingTensors:
    b = _unit(field_direction)
    d1 = first_order_couplings(runset, b)
    d2, mixed = second_order_couplings(runset, b)
    ms = runset.modeset
    return CouplingTensors(
        d1=d1,
        d2=d2,
        delta_angstrom=runset.delta_angstrom,
        frequencies=ms.frequencies.copy(),
        field_direction=b,
        mixed_computed=mixed,
        source_indices=ms.source_indices.copy(),
        modeset=ms,
    )


# ------------------------------------------------------------- convergence

@dataclass(frozen=True)
class ConvergenceReport:
    """Step-halving comparison of two coupling builds.

    Central differences converge as dx^2, so the Richardson value
    (4*half - full)/3 cancels the leading error and the full-vs-half
    deviation measures how far from converged each entry is.
    """

    d1_richardson: np.ndarray
    d2_richardson: np.ndarray
    d1_deviation: np.ndarray
    d2_deviation: np.ndarray
    threshold: float
    flagged: tuple

    @property
    def ok(self) -> bool:
        return len(self.flagged) == 0


def convergence_check(
    full,
    half,
    threshold: float = 0.05,
    field_direction=(0.0, 0.0, 1.0),
) -> ConvergenceReport:
    """Compare builds at delta and delta/2; accepts run sets or tensors."""
    if isinstance(full, DisplacedGTensorSet):
        full = build_couplings(full, field_direction)
    if isinstance(half, DisplacedGTensorSet):
        half = build_couplings(half, field_direction)
    if full.nmodes != half.nmodes:
        raise ValueError(
            f"mode count mismatch: {full.nmodes} vs {half.nmodes}"
        )
    if not np.allclose(full.frequencies, half.frequencies, rtol=1e-12):
        raise ValueError("frequency grids differ between coupling sets")
    if abs(half.delta_angstrom - 0.5 * full.delta_angstrom) > 1e-12 * full.delta_angstrom:
        raise ValueError(
            f"half set must use delta/2: {half.delta_angstrom} vs "
            f"{full.delta_angstrom}"
        )

    def compare(a_full, a_half):
        rich = (4.0 * a_half - a_full) / 3.0
        scale = np.maximum(np.abs(rich), np.abs(rich).max() * 1e-12 + 1e-300)
        dev = np.abs(a_full - a_half) / scale
        return rich, dev

    r1, dev1 = compare(full.d1, half.d1)
    r2, dev2 = compare(full.d2, half.d2)
    flagged = [("d1", *idx) for idx in zip(*np.nonzero(dev1 > threshold))]
    flagged += [("d2", *idx) for idx in zip(*np.nonzero(dev2 > threshold))]
    return ConvergenceReport(
        d1_richardson=r1,
        d2_richardson=r2,
        d1_deviation=dev1,
        d2_deviation=dev2,
        threshold=threshold,
        flagged=tuple(
            (name, *(int(i) for i in idx)) for name, *idx in flagged
        ),
    )


# ------------------------------------------------------------------- export

def export_couplings(c: CouplingTensors, path=None) -> str:
    doc = {
        "format": COUPLINGS_FORMAT,
        "delta_angstrom": c.delta_angstrom,
        "field_direction": c.field_direction.tolist(),
        "frequencies_cm": c.frequencies.tolist(),
        "source_indices": c.source_indices.tolist(),
        "mixed_computed": c.mixed_computed,
        "d1": c.d1.tolist(),
        "d2": c.d2.tolist(),
        "units": {
            "d1": "dimensionless, per unit field direction",
            "d2": "dimensionless, per unit field direction",
            "frequencies_cm": "cm^-1",
            "delta_angstrom": "Angstrom",
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def load_couplings(source) -> CouplingTensors:
    """Couplings from a path, or from JSON text given as a str.

    A str whose first non-blank character is '{' is JSON text; any other
    str, and every Path, names a file.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        text = Path(source).read_text()
    doc = json.loads(text)
    if doc.get("format") != COUPLINGS_FORMAT:
        raise ValueError(
            f"unsupported couplings format {doc.get('format')!r}, "
            f"expected {COUPLINGS_FORMAT!r}"
        )
    return CouplingTensors(
        d1=np.array(doc["d1"], dtype=float),
        d2=np.array(doc["d2"], dtype=float),
        delta_angstrom=float(doc["delta_angstrom"]),
        frequencies=np.array(doc["frequencies_cm"], dtype=float),
        field_direction=np.array(doc["field_direction"], dtype=float),
        mixed_computed=bool(doc["mixed_computed"]),
        source_indices=np.array(doc["source_indices"], dtype=int),
        modeset=None,
    )


def _unit(v) -> np.ndarray:
    b = np.asarray(v, dtype=float)
    if b.shape != (3,):
        raise ValueError("field direction must be a 3-vector")
    norm = np.linalg.norm(b)
    if norm == 0.0 or not np.all(np.isfinite(b)):
        raise ValueError("field direction must be finite and nonzero")
    return b / norm


def _require_singles(runset: DisplacedGTensorSet) -> None:
    if not runset.complete_singles():
        n = runset.modeset.nmodes
        missing = [
            (k + 1, "+" if s > 0 else "-")
            for k in range(n)
            for s in (+1, -1)
            if (k, s) not in runset.singles
        ]
        raise ValueError(f"run set lacks single displacements: {missing}")
