"""Core types and unit conventions.

Everything downstream works in wavenumbers: energies, frequencies and
rates are cm^-1, temperatures K, magnetic fields mT, lengths Angstrom,
masses amu, times microseconds.  A rate r in cm^-1 corresponds to
2*pi*c*r events per second.  The module also holds the leaf rules that
every JSON document spinlat reads is checked with.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import warnings
from dataclasses import dataclass
from itertools import chain

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


def _as_matrix3(values, name: str, stack: bool = False) -> np.ndarray:
    """values as floats, refused unless finite and 3x3, or (..., 3, 3) if stack."""
    m = np.asarray(values, dtype=float)
    if m.shape[-2:] != (3, 3) or (m.ndim > 2 and not stack):
        raise ValueError(f"{name} must be 3x3, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _set_array(record, name: str, shape=None, finite: bool = True) -> np.ndarray:
    """Set the frozen record's field name to a read-only copy of its value.

    The copy is int for source_indices (1..N when the value is None) and
    float otherwise.  A shape other than shape, when given, or a non-finite
    entry, unless finite is False, is refused naming the field.  Every
    record's arrays go through here, so none shares or freezes the caller's.
    """
    value = getattr(record, name)
    if name != "source_indices":
        arr = np.array(value, dtype=float)
    else:
        arr = np.arange(1, shape[0] + 1) if value is None else np.array(value, dtype=int)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must be {shape}, got {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)
    return arr


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


def check_rate_matrix(m, name: str, labels=None, stack: bool = True) -> np.ndarray:
    """m as floats once each matrix in it is finite, 3x3 (one matrix unless
    stack), symmetric and PSD; the one check of every rate matrix.

    Per matrix, asymmetry may reach 1e-10 of max(|m|, 1), eigenvalues -1e-12
    of Tr m.  A stack takes one eigen-solve; see raise_first_failure.
    """
    m = _as_matrix3(m, name, stack)
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    asym = np.ravel(np.abs(m - np.swapaxes(m, -2, -1)).max(axis=(-2, -1)) > 1e-10 * scale)
    floor = np.ravel(-1e-12 * np.maximum(np.trace(m, axis1=-2, axis2=-1), 1e-300))
    low = np.ravel(np.linalg.eigvalsh(m)[..., 0])
    raise_first_failure(
        (asym | (low < floor)).reshape(np.shape(m)[:-2]), name,
        lambda i: "is not symmetric within 1e-10" if asym[i]
        else f"is not PSD: eigenvalue {low[i]:.3e} below {floor[i]:.3e}", labels)
    return m


# records holding arrays take eq=False: a generated __eq__ would raise on them
@dataclass(frozen=True, eq=False)
class GTensor:
    """Zeeman coupling matrix g, dimensionless, not assumed symmetric."""

    matrix: np.ndarray

    def __post_init__(self):
        _as_matrix3(self.matrix, "g matrix")  # the finite-3x3 rule of every g matrix
        d = np.diagonal(_set_array(self, "matrix"))
        if np.any(d < 1.5) or np.any(d > 2.5):
            warnings.warn(
                f"g diagonal {d.tolist()} outside the usual (1.5, 2.5) range",
                stacklevel=2,
            )


@dataclass(frozen=True, eq=False)
class Geometry:
    """Molecular geometry: element symbols, masses in amu, positions in Angstrom."""

    symbols: tuple[str, ...]
    masses: np.ndarray          # (natoms,)
    positions: np.ndarray       # (natoms, 3)

    def __post_init__(self):
        n = len(self.symbols)
        if np.any(_set_array(self, "masses", (n,)) <= 0.0):
            raise ValueError("masses must be positive")
        _set_array(self, "positions", (n, 3))
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def natoms(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True, eq=False)
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
        freqs = _set_array(self, "frequencies", (np.size(self.frequencies),))  # 1-d
        vecs = _set_array(self, "eigenvectors", (3 * self.geometry.natoms, freqs.size))
        _set_array(self, "source_indices", freqs.shape)
        if np.any(np.diff(freqs) < 0.0):
            raise ValueError("frequencies must be sorted ascending")
        gram = vecs.T @ vecs
        dev = np.abs(gram - np.eye(freqs.size)).max() if freqs.size else 0.0
        if dev > self.ORTHO_TOL:
            raise ValueError(
                f"eigenvector columns not orthonormal, max deviation {dev:.3e}"
            )

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


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Effective S=1/2 center: g matrix and static field in mT."""

    g0: GTensor
    field_mt: np.ndarray                    # (3,)
    omega_override_cm: float | None = None  # pins the spin frequency if set

    def __post_init__(self):
        _set_array(self, "field_mt", (3,))
        if self.omega_override_cm is not None and not 0.0 <= self.omega_override_cm < np.inf:
            raise ValueError("omega_override_cm must be finite and nonnegative")

    @property
    def field_magnitude_t(self) -> float:
        return float(np.linalg.norm(self.field_mt)) * 1e-3

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


@dataclass(frozen=True, eq=False)
class BathSpec:
    """Phonon bath parameters.

    gamma_cm is the one-phonon damping rate, linewidth_cm the Lorentzian
    half-width used wherever a delta function is regularized.  Either may
    be a scalar or a per-mode array; each is kept as a float array, 0-d
    for a scalar.
    """

    temperature_k: float
    gamma_cm: float | np.ndarray = 2.0
    linewidth_cm: float | np.ndarray = 2.0
    raman_pairing: str = "diagonal_only"

    def __post_init__(self):
        if not 0.0 <= self.temperature_k < np.inf:
            raise ValueError("temperature_k must be finite and >= 0")
        if self.raman_pairing not in PAIRING_MODES:
            raise ValueError(
                f"raman_pairing must be one of {PAIRING_MODES}, "
                f"got {self.raman_pairing!r}"
            )
        for name in ("gamma_cm", "linewidth_cm"):
            if np.any(_set_array(self, name) <= 0.0):
                raise ValueError(f"{name} must be positive")

    def gamma_per_mode(self, nmodes: int) -> np.ndarray:
        return np.broadcast_to(self.gamma_cm, (nmodes,)).copy()

    def linewidth_per_mode(self, nmodes: int) -> np.ndarray:
        return np.broadcast_to(self.linewidth_cm, (nmodes,)).copy()


def bose_occupation(omega_cm, temperature_k: float):
    """Bose-Einstein occupation of a mode at omega_cm (cm^-1) and T (K).

    Returns exactly 0 at T=0.  omega_cm must be positive.
    """
    w = np.asarray(omega_cm, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("bose_occupation requires omega_cm > 0")
    if not 0.0 <= temperature_k < np.inf:
        raise ValueError("temperature_k must be finite and >= 0")
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


class ParseError(ValueError):
    """Input file violates the expected format; message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


# -------------------------------------------------------------- JSON leaves
# The config, the run manifest and the couplings file share these rules.
# A refusal names the document and the key, and is built only on failure.

def json_object(data: bytes, where: str, form: str | None = None) -> dict:
    """The UTF-8 bytes data parsed as a JSON object, whose "format" is form
    when form is given."""
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"{where} is not valid JSON: {e}") from None
    require(doc, where)
    if form is not None and doc.get("format") != form:
        raise ParseError(refusal(where, "format", repr(form), doc.get("format")))
    return doc


def require(doc, where: str, *keys: str, at: int | None = None) -> list:
    """The values of keys in the JSON object doc; an absent key is named.

    doc is named by where, or by where % at when at is given.
    """
    try:
        if type(doc) is dict:
            return [doc[key] for key in keys]
    except KeyError:
        pass
    where = where if at is None else where % at
    if type(doc) is not dict:
        raise ParseError(f"{where} must be a JSON object")
    absent = ", ".join(repr(key) for key in keys if key not in doc)
    raise ParseError(f"{where} has no {absent}")


_SHORT = reprlib.Repr()  # a refused value as shown: six items a level, two levels
_SHORT.maxlevel = 2


def refusal(where: str, key: str, what: str, value) -> str:
    """The message refusing where's key, which must be what but is value."""
    return f"{where}: {key!r} must be {what}, got {_SHORT.repr(value)}"


def positive(value) -> bool:
    """A positive, finite JSON number."""
    return numbers(value, ()) is not None and 0.0 < value < np.inf


def integer(value, lo, hi) -> bool:
    """A JSON integer in lo..hi; neither true nor 1.0 is the integer 1."""
    return type(value) is int and lo <= value <= hi


def one_of(value, choices) -> bool:
    """A JSON string or integer among choices; neither true nor 1.0 is 1."""
    return (type(value) is str or type(value) is int) and value in choices


def file_name(value) -> bool:
    """A nonempty JSON string without a NUL, which no path can hold."""
    return type(value) is str and value != "" and "\0" not in value


def os_path(text: str) -> str:
    """The path named by text's UTF-8 bytes, as the file system's encoding
    spells it: the one rule for a path read from a document, so that it
    names the same file under any locale.  A path the system gave (argv,
    a directory listing) is returned unchanged."""
    return os.fsdecode(text.encode("utf-8", "surrogateescape"))


def numbers(value, shape=None, kinds: str = "if", finite: bool = False):
    """value as an array of JSON numbers, or None when it is not one.

    Text, null, bools and ragged nesting are not numbers.  The array must
    have shape, when given, and be finite, when asked.  NumPy reads a bool
    among numbers as 0 or 1, so only an array holding a 0 or a 1 has its
    leaves scanned in Python.
    """
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        return None
    if arr.dtype.kind not in kinds or shape not in (None, arr.shape) or (
            finite and not np.isfinite(arr).all()):
        return None
    if arr.ndim and ((arr == 0) | (arr == 1)).any():
        for _ in range(arr.ndim - 1):
            value = chain.from_iterable(value)
        if bool in map(type, value):
            return None
    return arr
