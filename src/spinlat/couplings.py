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
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (HBAR_AMU_A2_CM, MUB_CM_PER_T, ModeSet, ParseError, SpinSystem, _set_array,
                   json_object, numbers, positive, refusal, require)

COUPLINGS_FORMAT = "spinlat-couplings/1"


def dimensionless_steps(modeset: ModeSet, delta: float) -> np.ndarray:
    """Per-mode dimensionless coordinate step for a geometric step of delta."""
    if not positive(delta):
        raise ValueError("delta must be positive and finite")
    norms = np.array([modeset.mass_weighted_norm(k) for k in range(modeset.nmodes)])
    lengths = np.sqrt(HBAR_AMU_A2_CM / modeset.frequencies)
    return delta / (norms * lengths)


@dataclass(frozen=True, eq=False)
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
        freqs = _set_array(self, "frequencies", (np.size(self.frequencies),))  # 1-d
        n = freqs.size
        _set_array(self, "d1", (3, n))
        d2 = _set_array(self, "d2", (3, n, n))
        if np.any(freqs <= 0.0):
            raise ValueError("mode frequencies must be positive")
        if not positive(self.delta_angstrom):
            raise ValueError("delta_angstrom must be positive and finite")
        if type(self.mixed_computed) is not bool:  # the file holds true or false
            raise ValueError("mixed_computed must be True or False")
        sym_dev = np.abs(d2 - np.swapaxes(d2, 1, 2)).max()
        scale = max(np.abs(d2).max(), 1.0)
        if sym_dev > 1e-10 * scale:
            raise ValueError(f"d2 not symmetric in mode indices, dev {sym_dev:.3e}")
        if abs(np.linalg.norm(_set_array(self, "field_direction", (3,))) - 1.0) > 1e-10:
            raise ValueError("field_direction must be a unit 3-vector")
        _set_array(self, "source_indices", (n,))

    @property
    def nmodes(self) -> int:
        return self.frequencies.size


def build_couplings(
    runset: "DisplacedGTensorSet", field_direction=(0.0, 0.0, 1.0)
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
        frequencies=ms.frequencies,
        field_direction=b,
        mixed_computed=mixed,
        source_indices=ms.source_indices,
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
        data = text.encode()
        Path(path).write_bytes(data)
        record = np.zeros((), _record_dtype(c.nmodes))
        record["json_bytes"], record["json_crc32"] = len(data), zlib.crc32(data)
        for name in _RECORD_FIELDS:
            record[name] = getattr(c, name)
        with open(os.fspath(path) + ".npy", "wb") as f:
            np.save(f, record, allow_pickle=False)
    return text


# every field load_couplings returns, as the record beside a couplings file holds it
_RECORD_FIELDS = ("delta_angstrom", "field_direction", "frequencies", "source_indices",
                  "d1", "d2", "mixed_computed")


def _record_dtype(n: int) -> np.dtype:
    """The record of the couplings file of n modes: the file's byte length and
    CRC-32, then the fields, little-endian whatever the machine."""
    return np.dtype([("json_bytes", "<i8"), ("json_crc32", "<i8"), ("delta_angstrom", "<f8"),
                     ("field_direction", "<f8", (3,)), ("frequencies", "<f8", (n,)),
                     ("source_indices", "<i8", (n,)), ("d1", "<f8", (3, n)),
                     ("d2", "<f8", (3, n, n)), ("mixed_computed", "?")])


def _recorded(path, data: bytes) -> dict | None:
    """The fields of the record export_couplings wrote beside the couplings
    file at path, when its length and CRC-32 are those of data, the file's
    bytes; None when there is no such record or it cannot be read."""
    try:
        record = np.load(os.fspath(path) + ".npy", allow_pickle=False)
        modes = record.dtype["frequencies"].shape
    except (OSError, EOFError, ValueError, KeyError):  # absent, cut short, not a record
        return None
    if not (len(modes) == 1 and record.shape == () and record.dtype == _record_dtype(*modes)
            and record["json_bytes"] == len(data)
            and record["json_crc32"] == zlib.crc32(data)):
        return None
    values = {name: record[name] for name in _RECORD_FIELDS}
    values.update(delta_angstrom=float(values["delta_angstrom"]),
                  mixed_computed=bool(values["mixed_computed"]))
    return values


def load_couplings(path) -> CouplingTensors:
    """Couplings from the file at path.

    The file is read once.  When the record that export_couplings wrote
    beside it (path + ".npy") holds the length and CRC-32 of the file's
    bytes, the values come from the record, bitwise those the JSON parses
    to; otherwise from the JSON.  A malformed document raises ValueError
    naming the file and the key.
    """
    where = f"couplings file {path}"
    data = Path(path).read_bytes()
    values = _recorded(path, data) or _parsed(data, where)
    try:
        return CouplingTensors(**values)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _parsed(data: bytes, where: str) -> dict:
    """The fields of the couplings document data, refusing a malformed one."""
    doc = json_object(data, where, COUPLINGS_FORMAT)
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

    return dict(d1=array("d1", d1), d2=array("d2", d2), delta_angstrom=float(delta),
                frequencies=array("frequencies_cm", freqs),
                field_direction=array("field_direction", direction),
                mixed_computed=mixed, source_indices=array("source_indices", src, "i"))


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
    if not (np.all(np.isfinite(b)) and b.any()):
        raise ValueError("field direction must be finite and nonzero")
    # scaled exactly, by the power of two of its largest |component|, so the
    # norm neither overflows nor underflows
    b = np.ldexp(b, -np.frexp(np.abs(b).max())[1])
    return b / np.linalg.norm(b)
