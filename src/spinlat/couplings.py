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

from .core import HBAR_AMU_A2_CM, MUB_CM_PER_T, ModeSet, SpinSystem, freeze
from .ingest import (DisplacedGTensorSet, ParseError, json_object, numbers, positive,
                     refusal, require)

COUPLINGS_FORMAT = "spinlat-couplings/1"


def dimensionless_steps(modeset: ModeSet, delta: float) -> np.ndarray:
    """Per-mode dimensionless coordinate step for a geometric step of delta."""
    if not positive(delta):
        raise ValueError("delta must be positive and finite")
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
        if not positive(self.delta_angstrom):
            raise ValueError("delta_angstrom must be positive and finite")
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
        freeze(self, d1=d1, d2=d2, frequencies=freqs, field_direction=b,
               source_indices=src)

    @property
    def nmodes(self) -> int:
        return self.frequencies.size


def build_couplings(
    runset: DisplacedGTensorSet, field_direction=(0.0, 0.0, 1.0)
) -> CouplingTensors:
    """Central-difference derivatives of g . b, b the unit field direction.

    Diagonal d2 entries use the three-point stencil through the baseline.
    Mixed entries need the four sign combinations of a displaced pair;
    without pair runs they are left at zero and flagged.  Every run is
    projected on exactly the b the tensors store.
    """
    b = _unit(field_direction)
    ms = runset.modeset
    n = ms.nmodes
    g = (runset.singles @ b).reshape(n, 2, 3)  # mode k's + and - runs
    dx = dimensionless_steps(ms, runset.delta_angstrom)
    d1 = ((g[:, 0] - g[:, 1]) / (2.0 * dx)[:, None]).T
    d2 = np.zeros((3, n, n))
    diag = np.arange(n)
    d2[:, diag, diag] = ((g[:, 0] - 2.0 * (runset.baseline @ b) + g[:, 1])
                         / (dx ** 2)[:, None]).T
    mixed = len(runset.pairs) > 0
    if mixed:
        k, kp = np.triu_indices(n, 1)
        q = (runset.pairs @ b).reshape(-1, 4, 3)  # signs ++, +-, -+, --
        d2[:, k, kp] = d2[:, kp, k] = ((q[:, 0] - q[:, 1] - q[:, 2] + q[:, 3])
                                       / (4.0 * dx[k] * dx[kp])[:, None]).T
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
    full: CouplingTensors, half: CouplingTensors, threshold: float = 0.05
) -> ConvergenceReport:
    """Compare couplings built at delta and delta/2 along one field direction."""
    if full.nmodes != half.nmodes:
        raise ValueError(f"mode count mismatch: {full.nmodes} vs {half.nmodes}")
    if not np.allclose(full.frequencies, half.frequencies, rtol=1e-12):
        raise ValueError("frequency grids differ between coupling sets")
    if abs(half.delta_angstrom - 0.5 * full.delta_angstrom) > 1e-12 * full.delta_angstrom:
        raise ValueError(
            f"half set must use delta/2: {half.delta_angstrom} vs "
            f"{full.delta_angstrom}"
        )
    if not same_direction(full.field_direction, half.field_direction):
        raise ValueError(f"coupling sets built along different field directions: "
                         f"{full.field_direction.tolist()} vs {half.field_direction.tolist()}")

    def compare(a_full, a_half):
        rich = (4.0 * a_half - a_full) / 3.0
        scale = np.maximum(np.abs(rich), np.abs(rich).max() * 1e-12 + 1e-300)
        dev = np.abs(a_full - a_half) / scale
        return rich, dev

    r1, dev1 = compare(full.d1, half.d1)
    r2, dev2 = compare(full.d2, half.d2)
    return ConvergenceReport(
        d1_richardson=r1,
        d2_richardson=r2,
        d1_deviation=dev1,
        d2_deviation=dev2,
        threshold=threshold,
        flagged=tuple((name, *map(int, idx)) for name, dev in (("d1", dev1), ("d2", dev2))
                      for idx in zip(*np.nonzero(dev > threshold))),
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


def load_couplings(path) -> CouplingTensors:
    """Couplings from the file at path.

    A malformed document raises ValueError naming the file and the key.
    """
    where = f"couplings file {path}"
    doc = json_object(Path(path).read_text(), where, COUPLINGS_FORMAT)
    delta, mixed, d1, d2, freqs, direction, src = require(
        doc, where, "delta_angstrom", "mixed_computed", "d1", "d2", "frequencies_cm",
        "field_direction", "source_indices")
    if not positive(delta):
        raise ParseError(refusal(where, "delta_angstrom", "positive and finite", delta))
    if type(mixed) is not bool:
        raise ParseError(refusal(where, "mixed_computed", "true or false", mixed))

    def array(key: str, value, kinds: str = "if") -> np.ndarray:
        arr = numbers(value, kinds=kinds)
        if arr is None:
            what = "an array of " + ("integers" if kinds == "i" else "numbers")
            raise ParseError(refusal(where, key, what, value))
        return arr

    values = dict(d1=array("d1", d1), d2=array("d2", d2), delta_angstrom=float(delta),
                  frequencies=array("frequencies_cm", freqs),
                  field_direction=array("field_direction", direction),
                  mixed_computed=mixed, source_indices=array("source_indices", src, "i"))
    try:
        return CouplingTensors(**values)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def field_prefactor(c: CouplingTensors, spin: SpinSystem) -> float:
    """The Zeeman prefactor muB|B|/hc in cm^-1 of spin, whose field must lie
    along the b that c holds the derivatives of g . b for (in either sense)."""
    pref = MUB_CM_PER_T * spin.field_magnitude_t
    if pref and not any(same_direction(s * spin.field_mt, c.field_direction) for s in (1, -1)):
        raise ValueError(f"field {spin.field_mt.tolist()} mT is not along "
                         f"{c.field_direction.tolist()}, the couplings' direction")
    return pref


def same_direction(a, b) -> bool:
    """Whether two field directions agree, once made unit, within 1e-10."""
    return bool(np.abs(_unit(a) - _unit(b)).max() <= 1e-10)


def _unit(v) -> np.ndarray:
    b = np.asarray(v, dtype=float)
    if b.shape != (3,):
        raise ValueError("field direction must be a 3-vector")
    norm = np.linalg.norm(b)
    if norm == 0.0 or not np.all(np.isfinite(b)):
        raise ValueError("field direction must be finite and nonzero")
    return b / norm
