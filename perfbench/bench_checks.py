"""Output checks for every command the benchmark runs.

Each check raises CheckFailed with a reason; the runner counts a command
as failed when its exit code is non-zero or its check raises.  The rate
tensors are re-derived here with plain numpy loops over the documented
formulas (README and `spinlat.relaxation` docstrings), independently of
the package's vectorized kernel.  Only physical constants come from the
package.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spinlat.core import KB_CM_PER_K, MUB_CM_PER_T, RATE_CM_TO_PER_US

# couplings.json against the exact derivatives of the quadratic surface,
# as max|computed - exact| / max|exact|.  The g files carry 13 significant
# digits, which costs about 1e-8 in d1 and 1e-7 in d2 at delta = 0.01 A.
COUPLINGS_RTOL = 1e-5
# rate-tensor entries against the reference, relative to the largest entry
TENSOR_RTOL = 1e-9
# lab-frame Lindblad fit against the analytic "lindblad" time
LAB_FIT_RTOL = 1e-3
# Redfield and rotating-frame fits only need to land inside this band of
# fitted / analytic time; the rotating frame is known to be biased on a
# non-axial tensor
LOOSE_FIT_BAND = (0.2, 5.0)
# sweep.csv rows re-derived per sweep
SWEEP_SAMPLE_ROWS = 8


class CheckFailed(Exception):
    """An artifact differs from what the inputs determine."""


# ------------------------------------------------------------ reference


@dataclass(frozen=True)
class Couplings:
    """Exact couplings an artifact is checked against, with the baseline g."""

    d1: np.ndarray
    d2: np.ndarray
    frequencies: np.ndarray
    source_indices: np.ndarray
    g0: np.ndarray


@dataclass(frozen=True)
class Point:
    """One (T, B) evaluation with the bath and pairing the CLI was given."""

    temperature_k: float
    field_mt: float
    pairing: str
    gamma_cm: float = 2.0
    linewidth_cm: float = 2.0


def _lorentzian(x, width):
    return width / (np.pi * (x * x + width * width))


def reference_omega(g0, field_mt: float) -> float:
    """Larmor frequency for a field of field_mt along z, in cm^-1."""
    return MUB_CM_PER_T * float(np.linalg.norm(np.asarray(g0)[:, 2] * field_mt * 1e-3))


def reference_tensor(d1, d2, freqs, g0, pt: Point) -> dict:
    """Lambda1, Lambda2 parts and per-mode traces, one mode at a time."""
    pref = MUB_CM_PER_T * pt.field_mt * 1e-3
    G, G2 = pref * np.asarray(d1), pref * np.asarray(d2)
    w = np.asarray(freqs)
    n = 1.0 / np.expm1(w / (KB_CM_PER_K * pt.temperature_k))
    omega = reference_omega(g0, pt.field_mt)
    gam, lw = pt.gamma_cm, pt.linewidth_cm
    nmodes = w.size
    lam1 = np.zeros((3, 3))
    quartic = np.zeros((3, 3))
    gsq = np.zeros((3, 3))
    tr1 = np.zeros(nmodes)
    tr2 = np.zeros(nmodes)
    for q in range(nmodes):
        rate = 4.0 * gam / (gam * gam + 4.0 * w[q] ** 2) * (n[q] + 0.5)
        part = rate * np.outer(G[:, q], G[:, q])
        lam1 += part
        tr1[q] += np.trace(part)
        resonant = (2.0 * n[q] + 1.0) ** 2 * _lorentzian(omega - 2.0 * w[q], lw)
        a = (G[:, q] / w[q]) ** 2
        part = resonant * np.outer(a, a)
        quartic += part
        tr2[q] += np.trace(part)
        if pt.pairing == "diagonal_only":
            part = resonant * np.outer(G2[:, q, q], G2[:, q, q])
            gsq += part
            tr2[q] += np.trace(part)
            continue
        weight = (
            _lorentzian(omega - w[q] - w, lw) * n[q] * n
            + _lorentzian(omega + w[q] + w, lw) * (n[q] + 1.0) * (n + 1.0)
            + _lorentzian(omega + w[q] - w, lw) * (n[q] + 1.0) * n
            + _lorentzian(omega - w[q] + w, lw) * n[q] * (n + 1.0)
        )
        row = G2[:, q, :]                              # (3, N) over partners p
        part = 0.25 * (row * weight) @ row.T
        gsq += part
        # each ordered pair counts half to q and half to p
        pair_traces = 0.25 * weight * (row * row).sum(axis=0)
        tr2[q] += 0.5 * pair_traces.sum()
        tr2 += 0.5 * pair_traces
    return {"omega": omega, "lambda1": lam1, "quartic": quartic, "gsq": gsq,
            "lambda2": quartic + gsq, "trace1": tr1, "trace2": tr2}


def lindblad_times(total: np.ndarray) -> tuple[float, float]:
    """(T1, T2) in us a Pauli-basis dissipator with this tensor produces along z."""
    tr, zz = float(np.trace(total)), float(total[2, 2])
    return (1.0 / (2.0 * (tr - zz) * RATE_CM_TO_PER_US),
            1.0 / ((tr + zz) * RATE_CM_TO_PER_US))


def _close(name: str, got, want, rtol: float, scale=None) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != {want.shape}")
    if scale is None:
        scale = np.abs(want)
    err = np.abs(got - want) - rtol * np.maximum(scale, 1e-300)
    if not np.all(np.isfinite(got)) or err.max() > 0.0:
        worst = np.abs(got - want).max()
        raise CheckFailed(f"{name}: off by {worst:.3e} (rtol {rtol:g})")


# --------------------------------------------------------------- checks


def check_couplings(path: Path, d1_exact, d2_exact) -> None:
    doc = json.loads(path.read_text())
    for key, exact in (("d1", d1_exact), ("d2", d2_exact)):
        got = np.asarray(doc[key], dtype=float)
        _close(f"couplings.json {key}", got, exact, COUPLINGS_RTOL,
               scale=np.abs(exact).max())


_VALIDATE_LINE = re.compile(r"^CHECK \S+\s+PASS$")


def check_validate(stdout: str) -> None:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise CheckFailed("validate printed no checks")
    bad = [ln for ln in lines if not _VALIDATE_LINE.match(ln)]
    if bad:
        raise CheckFailed(f"validate line not PASS: {bad[0]!r}")


def _tri(m: np.ndarray) -> np.ndarray:
    return m[np.triu_indices(3)]


def _times_projection(total: np.ndarray) -> tuple[float, float]:
    zz, tr = float(total[2, 2]), float(np.trace(total))
    return (1.0 / (2.0 * zz * RATE_CM_TO_PER_US),
            1.0 / ((tr - zz) * RATE_CM_TO_PER_US))


def check_sweep(path: Path, coup, temps, fields, pairing: str) -> None:
    """Rows on the grid; sampled rows against the reference tensor."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# config:"):
        raise CheckFailed("sweep.csv lacks its config line")
    header = lines[1].split(",")
    rows = [np.array([float(v) for v in ln.split(",")]) for ln in lines[2:]]
    if len(rows) != len(temps) * len(fields):
        raise CheckFailed(f"sweep.csv has {len(rows)} rows, "
                          f"expected {len(temps) * len(fields)}")
    col = {name: i for i, name in enumerate(header)}
    l1_cols = [col[f"l1_{c}"] for c in ("xx", "xy", "xz", "yy", "yz", "zz")]
    l2_cols = [col[f"l2_{c}"] for c in ("xx", "xy", "xz", "yy", "yz", "zz")]
    picks = np.unique(np.linspace(0, len(rows) - 1, SWEEP_SAMPLE_ROWS).astype(int))
    for i in picks:
        row = rows[i]
        t, b = temps[i // len(fields)], fields[i % len(fields)]
        if (row[col["temperature_k"]], row[col["field_mt"]]) != (t, b):
            raise CheckFailed(f"sweep.csv row {i} is not grid point ({t}, {b})")
        ref = reference_tensor(coup.d1, coup.d2, coup.frequencies, coup.g0,
                               Point(t, b, pairing))
        scale = np.abs(ref["lambda1"] + ref["lambda2"]).max()
        _close(f"sweep row {i} omega", row[col["omega_cm"]], ref["omega"], 1e-12)
        _close(f"sweep row {i} l1", row[l1_cols], _tri(ref["lambda1"]),
               TENSOR_RTOL, scale)
        _close(f"sweep row {i} l2", row[l2_cols], _tri(ref["lambda2"]),
               TENSOR_RTOL, scale)
        _close(f"sweep row {i} l2 traces",
               row[[col["l2_quartic_trace"], col["l2_gsq_trace"]]],
               [np.trace(ref["quartic"]), np.trace(ref["gsq"])], TENSOR_RTOL, scale)
        # T1/T2 follow from the row's own entries (projection convention)
        total = np.zeros((3, 3))
        total[np.triu_indices(3)] = row[l1_cols] + row[l2_cols]
        total = total + np.triu(total, 1).T
        t1, t2 = row[col["t1_us"]], row[col["t2_us"]]
        _close(f"sweep row {i} T1/T2", [t1, t2], _times_projection(total), 1e-12)
        inv_t2 = float(np.trace(total)) - 0.5 / (t1 * RATE_CM_TO_PER_US)
        _close(f"sweep row {i} 1/T2 identity", 1.0 / (t2 * RATE_CM_TO_PER_US),
               inv_t2, 1e-9)


def check_tensor(path: Path, coup, pt: Point) -> None:
    doc = json.loads(path.read_text())
    ref = reference_tensor(coup.d1, coup.d2, coup.frequencies, coup.g0, pt)
    total = ref["lambda1"] + ref["lambda2"]
    scale = np.abs(total).max()
    _close("tensor.json lambda1", doc["lambda1"], ref["lambda1"], TENSOR_RTOL, scale)
    _close("tensor.json lambda2", doc["lambda2"], ref["lambda2"], TENSOR_RTOL, scale)
    times = doc["times_us"]
    _close("tensor.json projection times",
           [times["projection"]["t1"], times["projection"]["t2"]],
           _times_projection(total), 1e-8)
    _close("tensor.json lindblad times",
           [times["lindblad"]["t1"], times["lindblad"]["t2"]],
           lindblad_times(total), 1e-8)


def check_attribution(path: Path, coup, pt: Point, top: int) -> None:
    rows = json.loads(path.read_text())["modes"]
    ref = reference_tensor(coup.d1, coup.d2, coup.frequencies, coup.g0, pt)
    weight = ref["trace1"] + ref["trace2"]
    order = np.argsort(-weight, kind="stable")[:top]
    want_modes = [int(coup.source_indices[q]) for q in order]
    if [r["mode"] for r in rows] != want_modes:
        raise CheckFailed(f"attribution ranks {[r['mode'] for r in rows]}, "
                          f"expected {want_modes}")
    for name, tr in (("trace_share1", ref["trace1"]), ("trace_share2", ref["trace2"])):
        _close(f"attribution {name}", [r[name] for r in rows], tr[order] / tr.sum(),
               TENSOR_RTOL, scale=np.ones(len(rows)))


def check_dynamics(out: Path, coup, pt: Point, kind: str, strict: bool,
                   samples: int) -> float:
    """Fitted time against the analytic Lindblad time; returns their ratio."""
    doc = json.loads((out / "dynamics.json").read_text())
    ref = reference_tensor(coup.d1, coup.d2, coup.frequencies, coup.g0, pt)
    t1, t2 = lindblad_times(ref["lambda1"] + ref["lambda2"])
    _close("dynamics.json analytic times",
           [doc["analytic_t1_us"], doc["analytic_t2_us"]], [t1, t2], 1e-8)
    ratio = doc["fitted_time_us"] / (t1 if kind == "t1" else t2)
    if strict and abs(ratio - 1.0) > LAB_FIT_RTOL:
        raise CheckFailed(f"lab-frame {kind} fit is {ratio:.6f} x analytic")
    lo, hi = LOOSE_FIT_BAND
    if not lo <= ratio <= hi:
        raise CheckFailed(f"{kind} fit is {ratio:.4f} x analytic, outside {LOOSE_FIT_BAND}")
    nlines = (out / "trajectory.csv").read_text().count("\n")
    if nlines != samples + 2:
        raise CheckFailed(f"trajectory.csv has {nlines} lines, expected {samples + 2}")
    return ratio


# ---------------------------------------------------------- determinism


def digest_files(root: Path, patterns) -> str:
    """sha256 over the names and bytes of the files below root matching patterns."""
    h = hashlib.sha256()
    paths = {p for pattern in patterns for p in root.glob(pattern) if p.is_file()}
    for p in sorted(paths):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def digest(out: Path | None, stdout: str) -> str:
    """sha256 over the command's stdout and every file below its output dir."""
    files = digest_files(out, ("**/*",)) if out is not None else ""
    return hashlib.sha256(stdout.encode() + b"\0" + files.encode()).hexdigest()
