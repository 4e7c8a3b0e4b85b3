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
    """Central-difference derivatives of g . b, b the unit field direction.

    Diagonal d2 entries use the three-point stencil through the baseline.
    Mixed entries need the four sign combinations of a displaced pair;
    without pair runs they are left at zero and flagged.  Every run is
    projected on exactly the b the tensors store.
    """
    b = _unit(field_direction)
    ms, s = runset.modeset, runset.singles
    n = ms.nmodes
    missing = [(k + 1, "+" if sign > 0 else "-")
               for k in range(n) for sign in (+1, -1) if (k, sign) not in s]
    if missing:
        raise ValueError(f"run set lacks single displacements: {missing}")
    g = np.array([[s[(k, +1)], s[(k, -1)]] for k in range(n)], dtype=float) @ b
    dx = dimensionless_steps(ms, runset.delta_angstrom)
    d1 = ((g[:, 0] - g[:, 1]) / (2.0 * dx)[:, None]).T
    d2 = np.zeros((3, n, n))
    diag = np.arange(n)
    d2[:, diag, diag] = ((g[:, 0] - 2.0 * (runset.baseline @ b) + g[:, 1])
                         / (dx ** 2)[:, None]).T
    if runset.pairs:
        k, kp, q = _pair_quads(runset.pairs, n, b)
        d2[:, k, kp] = d2[:, kp, k] = ((q[:, 0] - q[:, 1] - q[:, 2] + q[:, 3])
                                       / (4.0 * dx[k] * dx[kp])[:, None]).T
    return CouplingTensors(
        d1=d1,
        d2=d2,
        delta_angstrom=runset.delta_angstrom,
        frequencies=ms.frequencies.copy(),
        field_direction=b,
        mixed_computed=bool(runset.pairs),
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


def load_couplings(source) -> CouplingTensors:
    """Couplings from a path, or from JSON text given as a str (see read_source).

    A malformed document raises ValueError naming the file and the key.
    """
    text = read_source(source)
    where = "couplings text" if text is source else f"couplings file {source}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{where} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    if doc.get("format") != COUPLINGS_FORMAT:
        raise ValueError(f"{where}: unsupported couplings format {doc.get('format')!r}, "
                         f"expected {COUPLINGS_FORMAT!r}")

    def get(key: str):
        if key not in doc:
            raise ValueError(f"{where} has no {key!r}")
        return doc[key]

    def array(key: str, kinds: str = "if") -> np.ndarray:
        value = get(key)
        try:
            arr = np.array(value)
        except ValueError:  # ragged nesting
            arr = np.array(None)
        if arr.dtype.kind not in kinds:  # ragged, or text, null or bool leaves
            raise ValueError(f"{where}: {key!r} must be an array of "
                             f"{'integers' if kinds == 'i' else 'numbers'}")
        return arr

    delta, mixed = get("delta_angstrom"), get("mixed_computed")
    if not (type(delta) in (int, float) and 0.0 < delta < np.inf):
        raise ValueError(f"{where}: 'delta_angstrom' must be a positive number")
    if type(mixed) is not bool:
        raise ValueError(f"{where}: 'mixed_computed' must be true or false")
    values = dict(d1=array("d1"), d2=array("d2"), delta_angstrom=float(delta),
                  frequencies=array("frequencies_cm"), field_direction=array("field_direction"),
                  mixed_computed=mixed, source_indices=array("source_indices", "i"))
    try:
        return CouplingTensors(**values)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


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
