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
from .ingest import DisplacedGTensorSet, read_source

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


def _singles(runset: DisplacedGTensorSet, b: np.ndarray) -> np.ndarray:
    """Projected single runs (N, 2, 3): [:, 0] stepped +delta, [:, 1] -delta."""
    s, n = runset.singles, runset.modeset.nmodes
    try:
        return np.array([[s[(k, +1)], s[(k, -1)]] for k in range(n)], dtype=float) @ b
    except KeyError:
        missing = [(k + 1, "+" if sign > 0 else "-")
                   for k in range(n) for sign in (+1, -1) if (k, sign) not in s]
        raise ValueError(f"run set lacks single displacements: {missing}") from None


def first_order_couplings(
    runset: DisplacedGTensorSet, field_direction=(0.0, 0.0, 1.0)
) -> np.ndarray:
    """Central-difference d(g.b)_a/dx_q, shape (3, nmodes)."""
    return _first_order(runset, _singles(runset, _unit(field_direction)))


def _first_order(runset: DisplacedGTensorSet, g: np.ndarray) -> np.ndarray:
    dx = dimensionless_steps(runset.modeset, runset.delta_angstrom)
    return ((g[:, 0] - g[:, 1]) / (2.0 * dx)[:, None]).T


def second_order_couplings(
    runset: DisplacedGTensorSet, field_direction=(0.0, 0.0, 1.0)
) -> tuple[np.ndarray, bool]:
    """Second derivatives d2 (3, N, N) and whether mixed entries were computed.

    Diagonal entries use the three-point stencil through the baseline.
    Mixed entries need the four sign combinations of a displaced pair;
    without pair runs they are left at zero and flagged.
    """
    b = _unit(field_direction)
    return _second_order(runset, b, _singles(runset, b))


def _second_order(runset: DisplacedGTensorSet, b: np.ndarray, g: np.ndarray):
    """second_order_couplings for unit b and the singles g projected on it."""
    dx = dimensionless_steps(runset.modeset, runset.delta_angstrom)
    n = runset.modeset.nmodes
    d2 = np.zeros((3, n, n))
    g0 = np.asarray(runset.baseline, dtype=float) @ b
    diag = np.arange(n)
    d2[:, diag, diag] = ((g[:, 0] - 2.0 * g0 + g[:, 1]) / (dx ** 2)[:, None]).T

    if runset.pairs:
        k, kp, q = _pair_quads(runset.pairs, n, b)
        mixed = ((q[:, 0] - q[:, 1] - q[:, 2] + q[:, 3])
                 / (4.0 * dx[k] * dx[kp])[:, None]).T
        d2[:, k, kp] = mixed
        d2[:, kp, k] = mixed
    return d2, bool(runset.pairs)


def _pair_quads(pairs: dict, n: int, b: np.ndarray):
    """Mode indices k < kp, each (P,), and projected runs (P, 4, 3) per pair.

    The four runs of a pair come in sign order ++, +-, -+, --; a pair
    missing any of them is an error.
    """
    keys = np.array(list(pairs))
    ids, first, counts = np.unique(keys[:, 0] * n + keys[:, 1], return_index=True,
                                   return_counts=True)
    if (counts != 4).any():
        k, kp = keys[first[counts != 4].min(), :2]
        signs = sorted((s, sp) for kk, kkp, s, sp in pairs if (kk, kkp) == (k, kp))
        raise ValueError(f"pair ({k + 1}, {kp + 1}) needs all four sign combinations, "
                         f"got {signs}")
    order = np.lexsort((-keys[:, 3], -keys[:, 2], keys[:, 1], keys[:, 0]))
    projected = np.array(list(pairs.values()), dtype=float) @ b
    return ids // n, ids % n, projected[order].reshape(-1, 4, 3)


def build_couplings(
    runset: DisplacedGTensorSet, field_direction=(0.0, 0.0, 1.0)
) -> CouplingTensors:
    # project the singles once, on exactly the direction the tensors store
    b = _unit(field_direction)
    g = _singles(runset, b)
    d1 = _first_order(runset, g)
    d2, mixed = _second_order(runset, b, g)
    ms = runset.modeset
    return CouplingTensors(
        d1=d1,
        d2=d2,
        delta_angstrom=runset.delta_angstrom,
        frequencies=ms.frequencies.copy(),
        field_direction=b,
        mixed_computed=mixed,
        source_indices=ms.source_indices.copy(),
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

def export_couplings(c: CouplingTensors, path=None, config=None) -> str:
    """The couplings JSON document; a given config is embedded under "config"."""
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
    if config is not None:
        doc["config"] = config
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def load_couplings(source) -> CouplingTensors:
    """Couplings from a path, or from JSON text given as a str (see read_source)."""
    doc = json.loads(read_source(source))
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
    )


def _unit(v) -> np.ndarray:
    b = np.asarray(v, dtype=float)
    if b.shape != (3,):
        raise ValueError("field direction must be a 3-vector")
    norm = np.linalg.norm(b)
    if norm == 0.0 or not np.all(np.isfinite(b)):
        raise ValueError("field direction must be finite and nonzero")
    return b / norm
