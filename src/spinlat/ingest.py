"""File ingestion and displacement bookkeeping.

Covers the plain-text normal-mode format (NMODES v1), g-matrix extraction
from electronic-structure output, displaced-geometry generation, and the
JSON run manifest that ties displaced runs back to their mode labels.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Geometry, ModeSet

G_MATRIX_MARKER = "ELECTRONIC G-MATRIX"
MANIFEST_KEYS = {"delta_angstrom", "baseline", "runs", "pairs"}
RESULT_SUFFIX = ".gout"     # engine result file next to each geometry
SOFT_CUTOFF_CM = 1.0        # skip_soft drops modes below this frequency


class ParseError(ValueError):
    """Input file violates the expected format; message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IncompleteRunSetError(RuntimeError):
    """Manifest references result files that are missing or unreadable."""

    def __init__(self, missing_singles, missing_pairs, missing_baseline=False):
        self.missing_singles = list(missing_singles)
        self.missing_pairs = list(missing_pairs)
        self.missing_baseline = missing_baseline
        parts = []
        if missing_baseline:
            parts.append("baseline")
        parts += [f"(mode {k}, {s})" for k, s in self.missing_singles]
        parts += [
            f"(modes {k} {kp}, {s}{sp})" for k, kp, s, sp in self.missing_pairs
        ]
        super().__init__("missing displaced-run results: " + ", ".join(parts))


def read_source(source) -> str:
    """The text of a file, or the text itself.

    A str is text when it contains a newline or, after leading
    whitespace, starts with '{'; any other str, and every Path, names a
    file.
    """
    if isinstance(source, str) and (
        "\n" in source or source.lstrip().startswith("{")
    ):
        return source
    if isinstance(source, (str, Path)):
        return Path(source).read_text()
    raise TypeError(f"cannot read from {type(source)!r}")


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


def parse_modes(source, *, skip_soft: bool = False) -> ModeSet:
    """Parse an NMODES v1 file into a ModeSet.

    Frequencies come out sorted ascending with eigenvector columns
    permuted to match; the original 1-based file numbering is kept in
    source_indices.  Nonpositive frequencies are an error unless
    skip_soft is set, in which case every mode below SOFT_CUTOFF_CM
    is dropped.
    """
    text = read_source(source)
    lines = list(_effective_lines(text))
    if not lines:
        raise ParseError("empty file", line=1)
    pos = 0

    def expect(what: str):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of file, expected {what}",
                             line=lines[-1][0])
        return lines[pos]

    lineno, magic = expect("#NMODES header")
    if magic.split() != ["#NMODES", "1"]:
        raise ParseError(f"expected '#NMODES 1' magic, got {magic!r}", line=lineno)
    pos += 1

    counts = {}
    for key in ("natoms", "modes"):
        lineno, content = expect(f"'{key} <int>'")
        tok = content.split()
        if len(tok) != 2 or tok[0] != key:
            raise ParseError(f"expected '{key} <int>', got {content!r}", line=lineno)
        try:
            counts[key] = int(tok[1])
        except ValueError:
            raise ParseError(f"bad integer in '{key}' line: {tok[1]!r}", line=lineno)
        if counts[key] <= 0:
            raise ParseError(f"{key} must be positive, got {counts[key]}", line=lineno)
        pos += 1
    natoms, nmodes = counts["natoms"], counts["modes"]

    lineno, content = expect("'atoms' section")
    if content != "atoms":
        raise ParseError(f"expected 'atoms' section header, got {content!r}",
                         line=lineno)
    pos += 1
    symbols, masses, positions = [], [], []
    for _ in range(natoms):
        lineno, content = expect("atom line")
        tok = content.split()
        if len(tok) != 5:
            raise ParseError(
                f"atom line needs 'element mass x y z', got {content!r}", line=lineno
            )
        try:
            masses.append(float(tok[1]))
            positions.append([float(v) for v in tok[2:5]])
        except ValueError:
            raise ParseError(f"bad number in atom line {content!r}", line=lineno)
        symbols.append(tok[0])
        pos += 1

    lineno, content = expect("'frequencies_cm' section")
    if content != "frequencies_cm":
        raise ParseError(
            f"expected 'frequencies_cm' section header, got {content!r}", line=lineno
        )
    pos += 1
    freqs, src_idx, freq_lines = [], [], []
    for _ in range(nmodes):
        lineno, content = expect("frequency line")
        tok = content.split()
        if len(tok) != 2:
            raise ParseError(
                f"frequency line needs 'index value', got {content!r}", line=lineno
            )
        try:
            src_idx.append(int(tok[0]))
            freqs.append(float(tok[1]))
        except ValueError:
            raise ParseError(f"bad number in frequency line {content!r}", line=lineno)
        freq_lines.append(lineno)
        pos += 1

    header_lineno, content = expect("'normal_modes' section")
    if content != "normal_modes":
        raise ParseError(
            f"expected 'normal_modes' section header, got {content!r}",
            line=header_lineno,
        )
    pos += 1
    values = []
    for lineno, content in lines[pos:]:
        for tok in content.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"bad float {tok!r} in normal_modes", line=lineno)
    need = 3 * natoms * nmodes
    if len(values) != need:
        raise ParseError(
            f"normal_modes needs {need} floats for modes={nmodes}, "
            f"found {len(values)}",
            line=header_lineno,
        )
    vecs = np.array(values).reshape(3 * natoms, nmodes)

    freqs = np.array(freqs)
    src_idx = np.array(src_idx, dtype=int)
    if skip_soft:
        keep = freqs >= SOFT_CUTOFF_CM
        freqs, src_idx, vecs = freqs[keep], src_idx[keep], vecs[:, keep]
        if freqs.size == 0:
            raise ParseError(
                f"all modes fall below the {SOFT_CUTOFF_CM} cm^-1 cutoff",
                line=freq_lines[0],
            )
    else:
        bad = np.nonzero(freqs <= 0.0)[0]
        if bad.size:
            raise ParseError(
                f"nonpositive frequency {freqs[bad[0]]} (pass skip_soft to drop)",
                line=freq_lines[bad[0]],
            )

    order = np.argsort(freqs, kind="stable")
    geometry = Geometry(tuple(symbols), np.array(masses), np.array(positions))
    try:
        return ModeSet(
            geometry=geometry,
            frequencies=freqs[order],
            eigenvectors=vecs[:, order],
            source_indices=src_idx[order],
        )
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
    after.  Finiteness is left to the caller.
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
                return [float(v) for v in values[:9]]
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


def parse_g_matrix(source) -> np.ndarray:
    """Extract the 3x3 g matrix following the first ELECTRONIC G-MATRIX marker.

    Tolerant of prose around the block and of row labels; strict about
    finding nine float fields in a contiguous run of lines.
    """
    text = read_source(source)
    m = np.array(_g_fields(text)).reshape(3, 3)
    if not np.all(np.isfinite(m)):
        raise ParseError("g matrix block contains non-finite values",
                         line=_marker_line(text))
    return m


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

@dataclass(frozen=True)
class DisplacedGeometry:
    """One displaced structure: which modes were stepped and with what signs."""

    kind: str                  # baseline | single | pair
    modes: tuple[int, ...]     # 0-based mode indices into the ModeSet
    signs: tuple[int, ...]     # +1 / -1 per displaced mode
    positions: np.ndarray      # (natoms, 3), Angstrom

    def label(self) -> str:
        if self.kind == "baseline":
            return "baseline"
        tag = "".join("p" if s > 0 else "m" for s in self.signs)
        nums = "_".join(f"{k + 1:04d}" for k in self.modes)
        return f"{self.kind}{nums}_{tag}"


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
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if pairing not in ("diagonal_only", "all_pairs"):
        raise ValueError(f"unknown pairing {pairing!r}")
    base = modeset.geometry.positions
    plan = [DisplacedGeometry("baseline", (), (), base.copy())]
    dirs = [modeset.cartesian_direction(k) for k in range(modeset.nmodes)]
    for k in range(modeset.nmodes):
        for s in (+1, -1):
            plan.append(
                DisplacedGeometry("single", (k,), (s,), base + s * delta * dirs[k])
            )
    if order == 2 and pairing == "all_pairs":
        for k in range(modeset.nmodes):
            for kp in range(k + 1, modeset.nmodes):
                for s in (+1, -1):
                    for sp in (+1, -1):
                        plan.append(
                            DisplacedGeometry(
                                "pair",
                                (k, kp),
                                (s, sp),
                                base + s * delta * dirs[k] + sp * delta * dirs[kp],
                            )
                        )
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
    engine is expected to produce next to each geometry.
    """
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
        if g.kind == "single":
            manifest["runs"].append(
                {
                    "mode": g.modes[0] + 1,
                    "sign": "+" if g.signs[0] > 0 else "-",
                    "path": stem + RESULT_SUFFIX,
                }
            )
        elif g.kind == "pair":
            manifest["pairs"].append(
                {
                    "modes": [k + 1 for k in g.modes],
                    "signs": ["+" if s > 0 else "-" for s in g.signs],
                    "path": stem + RESULT_SUFFIX,
                }
            )
    mpath = outdir / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return mpath


# ------------------------------------------------------------------ run sets

@dataclass(frozen=True)
class DisplacedGTensorSet:
    """g matrices sampled on the displacement grid of one ModeSet."""

    modeset: ModeSet
    delta_angstrom: float
    baseline: np.ndarray                                # (3, 3)
    singles: dict = field(default_factory=dict)         # (k, s) -> (3, 3)
    pairs: dict = field(default_factory=dict)           # (k, kp, s, sp) -> (3, 3)

    def __post_init__(self):
        if self.delta_angstrom <= 0.0:
            raise ValueError("delta_angstrom must be positive")
        b = np.asarray(self.baseline, dtype=float)
        if b.shape != (3, 3) or not np.all(np.isfinite(b)):
            raise ValueError("baseline g must be a finite 3x3 matrix")
        object.__setattr__(self, "baseline", b)
        n = self.modeset.nmodes
        for k, s in self.singles:
            if not (0 <= k < n) or s not in (+1, -1):
                raise ValueError(f"bad single key ({k}, {s})")
        for k, kp, s, sp in self.pairs:
            if not (0 <= k < kp < n) or s not in (+1, -1) or sp not in (+1, -1):
                raise ValueError(f"bad pair key ({k}, {kp}, {s}, {sp})")
        _check_matrices("single", self.singles)
        _check_matrices("pair", self.pairs)


def _check_matrices(kind: str, entries: dict) -> None:
    """Raise naming the first entry that is not a finite 3x3 g matrix."""
    mats = list(entries.values())
    try:
        stack = np.array(mats, dtype=float)
    except (TypeError, ValueError):  # ragged or not numeric
        stack = np.empty(0)
    if stack.shape[1:] == (3, 3):
        bad = ~np.isfinite(stack).all(axis=(1, 2))
    else:  # find the culprit entry by entry
        bad = [np.shape(m) != (3, 3) or not np.all(np.isfinite(np.asarray(m, float)))
               for m in mats]
    hit = np.nonzero(bad)[0]
    if hit.size:
        key = ", ".join(map(str, list(entries)[hit[0]]))
        raise ValueError(f"{kind} ({key}) g matrix invalid")


def load_manifest(path) -> dict:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"manifest is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("manifest must be a JSON object")
    missing = MANIFEST_KEYS - doc.keys()
    if missing:
        raise ParseError(f"manifest missing keys: {sorted(missing)}")
    if not isinstance(doc["runs"], list) or not isinstance(doc["pairs"], list):
        raise ParseError("manifest 'runs' and 'pairs' must be arrays")
    return doc


_SIGNS = {1: +1, "+": +1, "plus": +1, -1: -1, "-": -1, "minus": -1}


def _fields(entry, where: str, names: tuple[str, ...]) -> list:
    """The named fields of one manifest entry; the last names a result file."""
    try:
        values = [entry[name] for name in names]
    except (KeyError, TypeError):
        if not isinstance(entry, dict):
            raise ParseError(f"{where} is not an object: {entry!r}") from None
        absent = ", ".join(repr(name) for name in names if name not in entry)
        raise ParseError(f"{where} has no {absent}") from None
    if not isinstance(values[-1], str) or not values[-1]:
        raise ParseError(f"{where}: {names[-1]} {values[-1]!r} is not a file name")
    return values


def _mode_sign(mode, sign, n: int, where: str) -> tuple[int, int]:
    """0-based index and +1 / -1 of a manifest's 1-based mode and its sign."""
    if type(mode) is not int or not 1 <= mode <= n:
        raise ParseError(f"{where}: mode {mode!r} is not an integer in 1..{n}")
    try:
        return mode - 1, _SIGNS[sign]
    except (KeyError, TypeError):
        raise ParseError(f"{where}: bad sign {sign!r}") from None


def _planned_runs(doc: dict, n: int) -> tuple[list, list]:
    """DisplacedGTensorSet keys of the single and of the pair runs.

    Keys come in manifest order, pairs in canonical k < kp order.  Every
    entry is checked, and a displacement listed twice is refused, before
    any result file is read.
    """
    singles, pairs = [], []
    for i, run in enumerate(doc["runs"]):
        where = f"manifest runs[{i}]"
        mode, sign, _ = _fields(run, where, ("mode", "sign", "path"))
        singles.append(_mode_sign(mode, sign, n, where))
    for i, run in enumerate(doc["pairs"]):
        where = f"manifest pairs[{i}]"
        modes, signs, _ = _fields(run, where, ("modes", "signs", "path"))
        if not (type(modes) is type(signs) is list and len(modes) == len(signs) == 2):
            raise ParseError(f"{where}: modes {modes!r} and signs {signs!r} "
                             "must list two each")
        ka, sa = _mode_sign(modes[0], signs[0], n, where)
        kb, sb = _mode_sign(modes[1], signs[1], n, where)
        if ka == kb:
            raise ParseError(f"{where}: pair repeats mode {ka + 1}")
        pairs.append((ka, kb, sa, sb) if ka < kb else (kb, ka, sb, sa))
    for section, keys in (("runs", singles), ("pairs", pairs)):
        if len(set(keys)) < len(keys):
            first: dict = {}
            for i, key in enumerate(keys):
                if first.setdefault(key, i) != i:
                    raise ParseError(f"manifest {section}[{first[key]}] and "
                                     f"{section}[{i}] list the same displacement")
    return singles, pairs


def _label(key: tuple) -> tuple:
    """A run key as the missing-runs report gives it: 1-based, signs as +/-."""
    half = len(key) // 2
    return (*(k + 1 for k in key[:half]), *("+" if s > 0 else "-" for s in key[half:]))


def load_run_set(manifest_path, modeset: ModeSet) -> DisplacedGTensorSet:
    """Assemble a DisplacedGTensorSet from a run manifest.

    Result paths are resolved relative to the manifest location.  A
    missing baseline or missing runs abort with the full list of gaps;
    mode numbers in the report are 1-based.  A result that cannot be
    parsed aborts naming its path as the manifest gives it.
    """
    doc = load_manifest(manifest_path)
    root = os.path.dirname(manifest_path)
    delta = doc["delta_angstrom"]
    if type(delta) not in (int, float) or not 0.0 < delta < np.inf:
        raise ParseError(f"manifest delta_angstrom {delta!r} is not a positive number")
    (baseline_path,) = _fields(doc, "manifest", ("baseline",))
    singles, pairs = _planned_runs(doc, modeset.nmodes)
    paths = [baseline_path] + [run["path"] for run in doc["runs"] + doc["pairs"]]
    del doc  # every entry is checked; free it before the results are read
    stack = np.empty((len(paths), 9))  # one parsed result per row

    def read(i: int) -> bool:
        try:
            with open(os.path.join(root, paths[i])) as f:
                text = f.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            return False
        try:
            stack[i] = _g_fields(text)
        except ParseError as e:
            raise ParseError(f"{paths[i]}: {e}") from None
        return True

    found = [read(i) for i in range(len(paths))]
    if not all(found):
        raise IncompleteRunSetError(
            [_label(key) for key, ok in zip(singles, found[1:]) if not ok],
            [_label(key) for key, ok in zip(pairs, found[1 + len(singles):]) if not ok],
            missing_baseline=not found[0],
        )
    bad = np.nonzero(~np.isfinite(stack).all(axis=1))[0]
    if bad.size:
        raise ParseError(f"{paths[bad[0]]}: g matrix block contains non-finite values")
    del paths  # needed for messages only; free it before the views are made
    stack = stack.reshape(-1, 3, 3)
    return DisplacedGTensorSet(
        modeset=modeset,
        delta_angstrom=float(delta),
        baseline=stack[0],
        singles=dict(zip(singles, stack[1:])),
        pairs=dict(zip(pairs, stack[1 + len(singles):])),
    )


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
    baseline = None
    singles, pairs = {}, {}
    for g in plan:
        m = np.asarray(g_func(g.positions), dtype=float)
        if g.kind == "baseline":
            baseline = m
        elif g.kind == "single":
            singles[(g.modes[0], g.signs[0])] = m
        else:
            pairs[(g.modes[0], g.modes[1], g.signs[0], g.signs[1])] = m
    return DisplacedGTensorSet(
        modeset=modeset,
        delta_angstrom=delta,
        baseline=baseline,
        singles=singles,
        pairs=pairs,
    )
