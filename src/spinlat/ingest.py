"""File ingestion and displacement bookkeeping.

Covers the plain-text normal-mode format (NMODES v1), g-matrix extraction
from electronic-structure output, displaced-geometry generation, the
JSON run manifest that ties displaced runs back to their mode labels, and
the leaf rules that every JSON document spinlat reads is checked with.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import reprlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .core import PAIRING_MODES, Geometry, ModeSet

G_MATRIX_MARKER = "ELECTRONIC G-MATRIX"
RESULT_SUFFIX = ".gout"     # engine result file next to each geometry
SOFT_CUTOFF_CM = 1.0        # skip_soft drops modes below this frequency


class ParseError(ValueError):
    """Input file violates the expected format; message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class IncompleteRunSetError(RuntimeError):
    """Manifest references result files that are missing.

    The attributes list every missing run; the message gives their count
    and names the first five, since a plan no engine has run yet misses
    thousands.
    """

    def __init__(self, missing_runs, missing_baseline=False):
        runs = list(missing_runs)
        self.missing_singles = [run for run in runs if len(run) == 2]
        self.missing_pairs = [run for run in runs if len(run) == 4]
        self.missing_baseline = missing_baseline
        count = missing_baseline + len(runs)
        names = ["baseline"] * missing_baseline + [*map(_name, runs[:5])]
        super().__init__(f"{count} missing displaced-run results: " + ", ".join(names[:5])
                         + (f" and {count - 5} more" if count > 5 else ""))


# -------------------------------------------------------------- JSON leaves
# The config, the run manifest and the couplings file share these rules.
# A refusal names the document and the key, and is built only on failure.

def json_object(text: str, where: str, form: str | None = None) -> dict:
    """text parsed as a JSON object, whose "format" is form when form is given."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
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
    """A nonempty JSON string."""
    return type(value) is str and value != ""


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


# ------------------------------------------------------------------ NMODES

def _effective_lines(text: str):
    """Yield (lineno, content) with comments and blanks removed.

    The first non-blank line is returned verbatim so the #NMODES magic
    survives comment stripping.
    """
    first = True
    for i, raw in enumerate(text.splitlines(), start=1):
        if first:
            if raw.strip():
                yield i, raw.strip()
                first = False
            continue
        content = raw.split("#", 1)[0].strip()
        if content:
            yield i, content


def parse_modes(path, *, skip_soft: bool = False) -> ModeSet:
    """Parse the NMODES v1 file at path into a ModeSet.

    Frequencies come out sorted ascending with eigenvector columns
    permuted to match; the file's mode numbers, each >= 1 and used once,
    are kept in source_indices.  Nonpositive frequencies are an error
    unless skip_soft is set, in which case every mode below
    SOFT_CUTOFF_CM is dropped.
    """
    lines = list(_effective_lines(Path(path).read_text()))
    if not lines:
        raise ParseError("empty file", line=1)
    rest = iter(lines[1:])

    def take(what: str) -> tuple[int, str]:
        if (line := next(rest, None)) is None:
            raise ParseError(f"unexpected end of file, expected {what}", line=lines[-1][0])
        return line

    def section(name: str) -> int:
        """The line number of section name's header, which must come next."""
        lineno, content = take(f"'{name}' section")
        if content != name:
            raise ParseError(f"expected '{name}' section header, got {content!r}", line=lineno)
        return lineno

    def rows(count: int, what: str, form: str, *kinds) -> tuple[list, list]:
        """The line numbers and the fields of the next count lines, each
        holding the fields of form, read by kinds."""
        linenos, fields = [], []
        for _ in range(count):
            lineno, content = take(f"{what} line")
            tok = content.split()
            if len(tok) != len(kinds):
                raise ParseError(f"{what} line needs '{form}', got {content!r}", line=lineno)
            try:
                fields.append([kind(t) for kind, t in zip(kinds, tok)])
            except ValueError:
                raise ParseError(f"bad number in {what} line {content!r}", line=lineno) from None
            linenos.append(lineno)
        return linenos, fields

    lineno, magic = lines[0]
    if magic.split() != ["#NMODES", "1"]:
        raise ParseError(f"expected '#NMODES 1' magic, got {magic!r}", line=lineno)
    counts = []
    for key in ("natoms", "modes"):
        lineno, content = take(f"'{key} <int>'")
        tok = content.split()
        if len(tok) != 2 or tok[0] != key:
            raise ParseError(f"expected '{key} <int>', got {content!r}", line=lineno)
        try:
            counts.append(int(tok[1]))
        except ValueError:
            raise ParseError(f"bad integer in '{key}' line: {tok[1]!r}", line=lineno) from None
        if counts[-1] <= 0:
            raise ParseError(f"{key} must be positive, got {counts[-1]}", line=lineno)
    natoms, nmodes = counts

    section("atoms")
    _, atoms = rows(natoms, "atom", "element mass x y z", str, float, float, float, float)
    section("frequencies_cm")
    freq_lines, modes = rows(nmodes, "frequency", "index value", int, float)
    seen = set()  # reports name a mode by its number
    for lineno, (index, _) in zip(freq_lines, modes):
        if index < 1 or index in seen:
            raise ParseError(f"mode index {index} is below 1 or repeated", line=lineno)
        seen.add(index)
    header_lineno = section("normal_modes")
    values = []
    for lineno, content in rest:
        for tok in content.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"bad float {tok!r} in normal_modes", line=lineno) from None
    if len(values) != 3 * natoms * nmodes:
        raise ParseError(f"normal_modes needs {3 * natoms * nmodes} floats for "
                         f"modes={nmodes}, found {len(values)}", line=header_lineno)
    vecs = np.array(values).reshape(3 * natoms, nmodes)

    src_idx, freqs = map(np.array, zip(*modes))
    if skip_soft:
        keep = freqs >= SOFT_CUTOFF_CM
        freqs, src_idx, vecs = freqs[keep], src_idx[keep], vecs[:, keep]
        if freqs.size == 0:
            raise ParseError(f"all modes fall below the {SOFT_CUTOFF_CM} cm^-1 cutoff",
                             line=freq_lines[0])
    elif (bad := np.nonzero(freqs <= 0.0)[0]).size:
        raise ParseError(f"nonpositive frequency {freqs[bad[0]]} (pass skip_soft to drop)",
                         line=freq_lines[bad[0]])

    order = np.argsort(freqs, kind="stable")
    symbols, masses, *xyz = zip(*atoms)
    geometry = Geometry(symbols, np.array(masses), np.column_stack(xyz))
    try:
        return ModeSet(geometry, freqs[order], vecs[:, order], src_idx[order])
    except ValueError as e:
        raise ParseError(str(e), line=header_lineno)


def write_modes(modeset: ModeSet, path=None) -> str:
    """Serialize a ModeSet back to NMODES v1 text.

    Floats are written with repr so parse(write(ms)) reproduces every
    array bit for bit.
    """
    geom = modeset.geometry
    out = ["#NMODES 1", f"natoms {geom.natoms}", f"modes {modeset.nmodes}", "atoms"]
    for sym, m, xyz in zip(geom.symbols, geom.masses, geom.positions):
        out.append(
            f"{sym} {float(m)!r} {float(xyz[0])!r} {float(xyz[1])!r} {float(xyz[2])!r}"
        )
    out.append("frequencies_cm")
    for idx, w in zip(modeset.source_indices, modeset.frequencies):
        out.append(f"{int(idx)} {float(w)!r}")
    out.append("normal_modes")
    for row in modeset.eigenvectors:
        out.append(" ".join(repr(float(v)) for v in row))
    text = "\n".join(out) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


# --------------------------------------------------------------- g matrices

# A matrix entry is a whole whitespace- or comma-delimited field with a
# decimal point or an exponent; bare integers are row/column labels.
_G_FIELD = re.compile(
    r"(?<![^\s,])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+|\d+[eE][-+]?\d+)(?![^\s,])"
)


def _g_fields(text: str) -> list[float]:
    """The nine entries of the first g block in text, row by row.

    Fields start on the line after the first ELECTRONIC G-MATRIX marker;
    lines without fields are skipped until the block starts, and end it
    after.  Every entry must be finite.
    """
    pos = text.find(G_MATRIX_MARKER)
    if pos < 0:
        raise ParseError(f"no '{G_MATRIX_MARKER}' marker found")
    values: list[str] = []
    for raw in text[pos:].splitlines()[1:]:
        row = _G_FIELD.findall(raw)
        if row:
            values += row
            if len(values) >= 9:
                entries = [float(v) for v in values[:9]]
                if not all(map(math.isfinite, entries)):
                    raise ParseError("g matrix block contains non-finite values",
                                     line=_marker_line(text))
                return entries
        elif values:
            break  # numeric block ended before 9 entries
    raise ParseError(
        f"found {len(values)} of 9 numeric fields after the "
        f"'{G_MATRIX_MARKER}' marker",
        line=_marker_line(text),
    )


def _marker_line(text: str) -> int:
    """1-based number of the line holding the first g-block marker."""
    return len((text[:text.find(G_MATRIX_MARKER)] + "x").splitlines())


def parse_g_matrix(path) -> np.ndarray:
    """The 3x3 g matrix after the first ELECTRONIC G-MATRIX marker in the file at path.

    Tolerant of prose around the block and of row labels; strict about
    finding nine finite float fields in a contiguous run of lines.  The
    file is read as `load_run_set` reads a result.
    """
    m = np.empty(9)
    if not _read_result(path, path, m):
        raise FileNotFoundError(errno.ENOENT, "no result file", str(path))
    return m.reshape(3, 3)


def _read_result(path, name, out: np.ndarray) -> bool:
    """Read the nine g entries of the result at path into out; False when
    no file is there.  A result that cannot be decoded or parsed raises
    ParseError naming it as name."""
    # a raw descriptor skips the buffered text-file layers, which cost
    # more than the system calls for results of a few hundred bytes
    try:
        fd = os.open(path, os.O_RDONLY)
    except (FileNotFoundError, NotADirectoryError):
        return False
    chunks = []
    try:
        while chunk := os.read(fd, 65536):
            chunks.append(chunk)
    except IsADirectoryError:  # os.open succeeds on a directory on Linux
        return False
    finally:
        os.close(fd)
    try:
        out[:] = _g_fields(b"".join(chunks).decode())
    except (ParseError, UnicodeDecodeError) as e:
        raise ParseError(f"{name}: {e}") from None
    return True


def write_g_matrix(matrix, path=None, prose: str = "") -> str:
    """Emit a minimal engine-style output file carrying a g-matrix block."""
    m = np.asarray(matrix, dtype=float)
    lines = []
    if prose:
        lines.append(prose)
    lines.append(G_MATRIX_MARKER)
    for row in m:
        lines.append("  " + "  ".join(f"{v:.12e}" for v in row))
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


# ------------------------------------------------------------- displacements

@dataclass(frozen=True, eq=False)
class DisplacedGeometry:
    """One displaced structure and the run it is: its _runs entry, or () for
    the baseline."""

    run: tuple                 # () | (mode, sign) | (mode, mode', sign, sign')
    positions: np.ndarray      # (natoms, 3), Angstrom

    def label(self) -> str:
        """The file stem: baseline, single0002_m or pair0001_0003_pm."""
        if not self.run:
            return "baseline"
        half = len(self.run) // 2
        nums = "_".join(f"{k:04d}" for k in self.run[:half])
        tag = "".join(self.run[half:]).replace("+", "p").replace("-", "m")
        return f"{('single', 'pair')[half - 1]}{nums}_{tag}"


def plan_displacements(
    modeset: ModeSet,
    delta: float = 0.01,
    order: int = 2,
    pairing: str = "diagonal_only",
) -> list[DisplacedGeometry]:
    """Displaced geometries for finite differences of the g surface.

    Each single run moves the geometry by delta (Angstrom) along the
    unit Cartesian pattern of one mode.  Mixed second derivatives need
    the four sign combinations of every mode pair, so they are planned
    only for order=2 with pairing='all_pairs'.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if pairing not in PAIRING_MODES:
        raise ValueError(f"unknown pairing {pairing!r}")
    base = modeset.geometry.positions
    plan = [DisplacedGeometry((), base.copy())]
    dirs = [modeset.cartesian_direction(k) for k in range(modeset.nmodes)]
    for run in _runs(modeset.nmodes, order == 2 and pairing == "all_pairs"):
        half = len(run) // 2
        positions = base  # base + s delta dir_k + s' delta dir_k', summed left to right
        for k, s in zip(run[:half], run[half:]):
            positions = positions + (delta if s == "+" else -delta) * dirs[k - 1]
        plan.append(DisplacedGeometry(run, positions))
    return plan


def write_xyz(geometry_positions, symbols, path, comment: str = "") -> None:
    pos = np.asarray(geometry_positions, dtype=float)
    lines = [str(len(symbols)), comment]
    for sym, xyz in zip(symbols, pos):
        lines.append(f"{sym} {xyz[0]:.10f} {xyz[1]:.10f} {xyz[2]:.10f}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_displacement_set(
    plan: list[DisplacedGeometry],
    modeset: ModeSet,
    outdir,
    delta: float,
) -> Path:
    """Write geometry files plus the run manifest; returns the manifest path.

    Manifest paths point at the result files an electronic-structure
    engine is expected to produce next to each geometry.  delta must be
    the step the plan moved each single run by, since the couplings are
    built with the manifest's step; another one is refused before any
    file is written.
    """
    base = next(g.positions for g in plan if not g.run)
    steps = np.array([np.linalg.norm(g.positions - base) for g in plan if len(g.run) == 2])
    if not np.allclose(steps, delta, rtol=1e-9, atol=0.0):
        raise ValueError(f"delta {delta} is not the plan's step {steps[0]:.6g}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "delta_angstrom": delta,
        "baseline": "baseline" + RESULT_SUFFIX,
        "runs": [],
        "pairs": [],
    }
    for g in plan:
        stem = g.label()
        write_xyz(g.positions, modeset.geometry.symbols, outdir / f"{stem}.xyz",
                  comment=stem)
        path = stem + RESULT_SUFFIX
        if len(g.run) == 2:
            manifest["runs"].append({"mode": g.run[0], "sign": g.run[1], "path": path})
        elif g.run:
            manifest["pairs"].append({"modes": g.run[:2], "signs": g.run[2:], "path": path})
    mpath = outdir / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return mpath


# ------------------------------------------------------------------ run sets

@dataclass(frozen=True, eq=False)
class DisplacedGTensorSet:
    """g matrices sampled on the displacement grid of one ModeSet.

    The runs are stacked in the order _runs lists them, which
    plan_displacements follows.  Row 2k of singles is mode k's + run and
    row 2k + 1 its - run.  pairs is empty, or holds every mode pair k < kp
    in np.triu_indices(N, 1) order, four rows each with signs ++, +-, -+, --.
    """

    modeset: ModeSet
    delta_angstrom: float
    baseline: np.ndarray    # (3, 3)
    singles: np.ndarray     # (2N, 3, 3)
    pairs: np.ndarray       # (0, 3, 3) or (2N(N - 1), 3, 3)

    def __post_init__(self):
        if not positive(self.delta_angstrom):
            raise ValueError("delta_angstrom must be positive and finite")
        n = self.modeset.nmodes
        # each field, its allowed shapes and the _runs row of its first run
        for name, shapes, first in (("baseline", [(3, 3)], None),
                                    ("singles", [(2 * n, 3, 3)], 0),
                                    ("pairs", [(0, 3, 3), (2 * n * (n - 1), 3, 3)], 2 * n)):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape not in shapes:
                raise ValueError(f"{name} must have shape "
                                 f"{' or '.join(map(str, shapes))}, got {arr.shape}")
            bad = ~np.isfinite(arr).all(axis=(-2, -1))
            if bad.any():
                run = "" if first is None else " " + _name(_runs(n, True)[first + np.argmax(bad)])
                raise ValueError(f"{name}{run} g matrix is not finite")
            object.__setattr__(self, name, arr)


def _runs(n: int, pairs: bool) -> list:
    """Every displaced run of an n-mode set in stack order, as manifests and
    messages name it: (mode, sign) for each single, then, when pairs is set,
    (mode, mode', sign, sign') for each pair mode < mode' in np.triu_indices
    order with signs ++, +-, -+, --.  Modes are 1-based, signs "+" or "-"."""
    modes = range(1, n + 1)
    singles = [(k, s) for k in modes for s in "+-"]
    return singles + [(k, kp, s, sp) for k in modes for kp in modes[k:]
                      for s in "+-" for sp in "+-"] if pairs else singles


def _name(run: tuple) -> str:
    """A run as messages name it: (mode 2, -) or (modes 1 3, +-)."""
    return "(mode %d, %s)" % run if len(run) == 2 else "(modes %d %d, %s%s)" % run


_SIGNS = {"+": "+", "plus": "+", 1: "+", "-": "-", "minus": "-", -1: "-"}  # as _runs spells it


def _planned_paths(run_entries: list, pair_entries: list, n: int) -> list:
    """The result paths of the single runs, then of the pair runs, in row order.

    Every entry is checked, and a run listed twice or not at all is
    refused, before any result file is read; pair runs are listed for
    every mode pair or for none.  An entry's name is formatted only when
    it is refused, since a manifest can list tens of thousands.
    """
    runs = _runs(n, bool(pair_entries))
    row_of = {run: row for row, run in enumerate(runs)}
    paths = [None] * len(runs)
    listed_at = paths.copy()  # the index of the entry that fills each row
    where = "manifest runs[%d]"
    for i, run in enumerate(run_entries):
        mode, sign, path = require(run, where, "mode", "sign", "path", at=i)
        if not integer(mode, 1, n):
            raise ParseError(refusal(where % i, "mode", f"an integer in 1..{n}", mode))
        if not one_of(sign, _SIGNS):
            raise ParseError(refusal(where % i, "sign", f"one of {[*_SIGNS]}", sign))
        _place(paths, listed_at, row_of[mode, _SIGNS[sign]], path, "runs", i)
    where = "manifest pairs[%d]"
    for i, run in enumerate(pair_entries):
        modes, signs, path = require(run, where, "modes", "signs", "path", at=i)
        if not (type(modes) is list and len(modes) == 2 and modes[0] != modes[1]
                and integer(modes[0], 1, n) and integer(modes[1], 1, n)):
            raise ParseError(refusal(where % i, "modes",
                                     f"two different integers in 1..{n}", modes))
        if not (type(signs) is list and len(signs) == 2
                and one_of(signs[0], _SIGNS) and one_of(signs[1], _SIGNS)):
            raise ParseError(refusal(where % i, "signs", f"two of {[*_SIGNS]}", signs))
        (ka, kb), sa, sb = modes, _SIGNS[signs[0]], _SIGNS[signs[1]]
        if ka > kb:
            ka, kb, sa, sb = kb, ka, sb, sa
        _place(paths, listed_at, row_of[ka, kb, sa, sb], path, "pairs", i)
    if None in paths:
        raise ParseError(f"manifest lists no run for {_name(runs[paths.index(None)])}")
    return paths


def _place(paths: list, listed_at: list, row: int, path, section: str, i: int) -> None:
    """Put the path of manifest entry section[i] at row, refusing a path that
    is not a file name and a row already filled."""
    if not file_name(path):
        raise ParseError(refusal(f"manifest {section}[{i}]", "path", "a file name", path))
    if paths[row] is not None:
        raise ParseError(f"manifest {section}[{listed_at[row]}] and "
                         f"{section}[{i}] list the same displacement")
    paths[row], listed_at[row] = path, i


def load_run_set(manifest_path, modeset: ModeSet) -> DisplacedGTensorSet:
    """Assemble a DisplacedGTensorSet from a run manifest.

    The manifest must list every single run, and every pair run or none.
    Result paths are resolved relative to the manifest location.  Each
    result is read to its end as UTF-8 text, with any line ending.  A
    missing baseline or missing results abort with IncompleteRunSetError,
    which lists every gap; mode numbers in it are 1-based.  A result that
    cannot be opened for another reason (PermissionError) is not a gap:
    its error is raised as is.  A result that cannot be decoded or parsed
    aborts naming its path as the manifest gives it.
    """
    doc = json_object(Path(manifest_path).read_text(), "manifest")
    root = os.path.dirname(manifest_path)
    delta, baseline_path, *entries = require(doc, "manifest", "delta_angstrom",
                                             "baseline", "runs", "pairs")
    if not positive(delta):
        raise ParseError(refusal("manifest", "delta_angstrom", "positive and finite",
                                 delta))
    if not file_name(baseline_path):
        raise ParseError(refusal("manifest", "baseline", "a file name", baseline_path))
    for key, value in zip(("runs", "pairs"), entries):
        if type(value) is not list:
            raise ParseError(refusal("manifest", key, "an array", value))
    n = modeset.nmodes
    paths = [baseline_path, *_planned_paths(*entries, n)]
    del doc, entries  # every entry is checked; free them before the results are read
    stack = np.empty((len(paths), 9))  # one parsed result per row

    found = [_read_result(os.path.join(root, path), path, row)
             for path, row in zip(paths, stack)]
    if not all(found):
        runs = _runs(n, len(paths) > 1 + 2 * n)
        raise IncompleteRunSetError([run for run, ok in zip(runs, found[1:]) if not ok],
                                    missing_baseline=not found[0])
    del paths  # needed for messages only; free it before the views are made
    stack = stack.reshape(-1, 3, 3)
    return DisplacedGTensorSet(modeset, float(delta), stack[0], stack[1:1 + 2 * n],
                               stack[1 + 2 * n:])


def sample_g_surface(
    modeset: ModeSet,
    g_func,
    delta: float = 0.01,
    order: int = 2,
    pairing: str = "diagonal_only",
) -> DisplacedGTensorSet:
    """Evaluate a g(positions) callable on the displacement grid.

    The in-memory equivalent of running an engine over the geometries
    from plan_displacements; used for synthetic surfaces and testing.
    """
    plan = plan_displacements(modeset, delta=delta, order=order, pairing=pairing)
    stack = np.array([g_func(g.positions) for g in plan], dtype=float)
    end = 1 + 2 * modeset.nmodes
    return DisplacedGTensorSet(modeset, delta, stack[0], stack[1:end], stack[end:])
