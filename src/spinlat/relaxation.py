"""Relaxation tensors, T1/T2 projections, mode attribution, sweeps.

All tensor entries are rates in cm^-1; `relaxation_times` converts to
microseconds.  Couplings enter field-scaled: G = (muB*|B|/hc) * d1 and
likewise for d2, so every rate carries its field dependence explicitly.

Two conventions map a tensor onto scalar times:

- "projection": 1/T1 = 2 n'Ln, 1/T2 = Tr L - n'Ln.  The closed-form
  expressions the tensor was derived with; identities below hold in it.
- "lindblad": 1/T1 = 2(Tr L - n'Ln), 1/T2 = Tr L + n'Ln.  The decay
  rates a jump-operator dissipator with coefficient matrix L actually
  generates (see the dynamics module, which arbitrates numerically).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    MUB_CM_PER_T,
    RATE_CM_TO_PER_US,
    BathSpec,
    SpinSystem,
    bose_occupation,
)
from .couplings import CouplingTensors

CONVENTIONS = ("projection", "lindblad")

_SYM_TOL = 1e-10
_PSD_TOL = 1e-12


def direct_rate(gamma_cm, omega_cm, occupation):
    """One-phonon absorption/emission rate 4g/(g^2+4w^2) * (n + 1/2)."""
    g = np.asarray(gamma_cm, dtype=float)
    w = np.asarray(omega_cm, dtype=float)
    n = np.asarray(occupation, dtype=float)
    if np.any(g <= 0.0) or np.any(w <= 0.0):
        raise ValueError("gamma_cm and omega_cm must be positive")
    if np.any(n < 0.0):
        raise ValueError("occupation must be nonnegative")
    out = 4.0 * g / (g * g + 4.0 * w * w) * (n + 0.5)
    return float(out) if out.ndim == 0 else out


def _lorentzian(x, width):
    """Normalized Lorentzian (1/pi) w/(x^2+w^2), the regularized delta."""
    return width / (np.pi * (x * x + width * width))


def _field_scaled(c: CouplingTensors, spin: SpinSystem):
    """G (3,N) and G2 (3,N,N) in cm^-1 for the spin system's field."""
    pref = MUB_CM_PER_T * spin.field_magnitude_t
    return pref * c.d1, pref * c.d2


class FirstOrder(NamedTuple):
    matrix: np.ndarray      # (3, 3)
    per_mode: np.ndarray    # (N, 3, 3)


class SecondOrder(NamedTuple):
    quartic: np.ndarray     # (3, 3) from first-order couplings squared twice
    gsq: np.ndarray         # (3, 3) from diagonal/pair second derivatives
    per_mode: np.ndarray    # (N, 3, 3) quartic + gsq, pairs split evenly
    elastic: np.ndarray     # (3,) zero-frequency dephasing diagnostic


def lambda_first(c: CouplingTensors, bath: BathSpec, spin: SpinSystem) -> FirstOrder:
    G, _ = _field_scaled(c, spin)
    n = bose_occupation(c.frequencies, bath.temperature_k)
    rates = direct_rate(bath.gamma_per_mode(c.nmodes), c.frequencies, n)
    per_mode = rates[:, None, None] * np.einsum("aq,bq->qab", G, G)
    return FirstOrder(per_mode.sum(axis=0), per_mode)


def lambda_second(c: CouplingTensors, bath: BathSpec, spin: SpinSystem) -> SecondOrder:
    """Two-phonon tensor, split into its quartic and second-derivative parts.

    The quartic part always sums single modes with the lumped thermal
    weight (2n+1)^2 at the two-phonon resonance.  The second-derivative
    part does the same in diagonal_only pairing; in all_pairs pairing it
    sums ordered mode pairs with the four emission/absorption
    combinations weighted by their occupations, each delta regularized
    as a Lorentzian whose width is the mean of the two mode widths.
    """
    G, G2 = _field_scaled(c, spin)
    omega = c.frequencies
    n = bose_occupation(omega, bath.temperature_k)
    lam = bath.linewidth_per_mode(c.nmodes)
    big_omega = spin.larmor_cm()

    thermal = (2.0 * n + 1.0) ** 2
    resonant = thermal * _lorentzian(big_omega - 2.0 * omega, lam)

    a = (G / omega) ** 2
    per_quartic = resonant[:, None, None] * np.einsum("aq,bq->qab", a, a)
    quartic = per_quartic.sum(axis=0)

    diag_g2 = np.einsum("aqq->aq", G2)
    if bath.raman_pairing == "diagonal_only":
        per_gsq = resonant[:, None, None] * np.einsum(
            "aq,bq->qab", diag_g2, diag_g2
        )
    else:
        width = 0.5 * (lam[:, None] + lam[None, :])
        npl = n + 1.0
        weight = (
            _lorentzian(big_omega - omega[:, None] - omega[None, :], width)
            * n[:, None] * n[None, :]
            + _lorentzian(big_omega + omega[:, None] + omega[None, :], width)
            * npl[:, None] * npl[None, :]
            + _lorentzian(big_omega + omega[:, None] - omega[None, :], width)
            * npl[:, None] * n[None, :]
            + _lorentzian(big_omega - omega[:, None] + omega[None, :], width)
            * n[:, None] * npl[None, :]
        )
        # weight and G2 are symmetric in (q, p), so summing each row gives
        # every ordered pair half to q and half to p, the q == p terms whole
        per_gsq = 0.25 * np.einsum("aqp,bqp->qab", G2 * weight, G2)
    gsq = per_gsq.sum(axis=0)
    per_mode = per_quartic + per_gsq

    elastic = thermal[None, :] * (2.0 / np.pi) * (
        lam / (big_omega * big_omega + lam * lam)
    )[None, :] * diag_g2 ** 2
    return SecondOrder(quartic, gsq, per_mode, elastic.sum(axis=1))


# ------------------------------------------------------------------ tensor

def _check_symmetric(m: np.ndarray, name: str) -> None:
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > _SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")


def _check_psd(m: np.ndarray, name: str) -> None:
    floor = -_PSD_TOL * max(np.trace(m), 1e-300)
    w = np.linalg.eigvalsh(m)
    if w.min() < floor:
        raise ValueError(
            f"{name} has negative eigenvalue {w.min():.3e} below {floor:.3e}"
        )


@dataclass(frozen=True)
class RelaxationTensor:
    """First- and second-order rate tensors with their per-mode split."""

    lambda1: np.ndarray             # (3, 3)
    lambda2_quartic: np.ndarray     # (3, 3)
    lambda2_gsq: np.ndarray         # (3, 3)
    per_mode_lambda1: np.ndarray    # (N, 3, 3)
    per_mode_lambda2: np.ndarray    # (N, 3, 3)
    elastic_dephasing: np.ndarray   # (3,) diagnostic, kept out of T2
    temperature_k: float
    field_mt: float
    omega_cm: float
    gamma_cm: np.ndarray            # (N,)
    linewidth_cm: np.ndarray        # (N,)
    pairing: str
    frequencies: np.ndarray         # (N,)
    source_modes: np.ndarray        # (N,) 1-based input file numbering

    def __post_init__(self):
        for name in (
            "lambda1", "lambda2_quartic", "lambda2_gsq", "per_mode_lambda1",
            "per_mode_lambda2", "elastic_dephasing", "gamma_cm",
            "linewidth_cm", "frequencies", "source_modes",
        ):
            v = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} contains non-finite entries")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        _check_symmetric(self.lambda1, "lambda1")
        _check_symmetric(self.lambda2, "lambda2")
        _check_psd(self.lambda1, "lambda1")
        _check_psd(self.lambda2, "lambda2")
        if self.lambda2_quartic.min() < 0.0:
            raise ValueError("quartic part must be entrywise nonnegative")
        if np.any(self.elastic_dephasing < 0.0):
            raise ValueError("elastic diagnostic must be nonnegative")
        for total, per in (
            (self.lambda1, self.per_mode_lambda1),
            (self.lambda2, self.per_mode_lambda2),
        ):
            dev = np.abs(per.sum(axis=0) - total).max()
            if dev > 1e-10 * max(np.abs(total).max(), 1e-300):
                raise ValueError(f"per-mode split does not sum to total ({dev:.3e})")

    @property
    def lambda2(self) -> np.ndarray:
        return self.lambda2_quartic + self.lambda2_gsq

    @property
    def lambda_total(self) -> np.ndarray:
        return self.lambda1 + self.lambda2

    @property
    def gsq_dominance(self) -> np.ndarray:
        """How much the second-derivative channel exceeds the quartic one."""
        return self.lambda2_gsq - self.lambda2_quartic

    @property
    def nmodes(self) -> int:
        return self.frequencies.size


def build_tensor(c: CouplingTensors, bath: BathSpec, spin: SpinSystem) -> RelaxationTensor:
    first = lambda_first(c, bath, spin)
    second = lambda_second(c, bath, spin)
    return RelaxationTensor(
        lambda1=first.matrix,
        lambda2_quartic=second.quartic,
        lambda2_gsq=second.gsq,
        per_mode_lambda1=first.per_mode,
        per_mode_lambda2=second.per_mode,
        elastic_dephasing=second.elastic,
        temperature_k=bath.temperature_k,
        field_mt=float(np.linalg.norm(spin.field_mt)),
        omega_cm=spin.larmor_cm(),
        gamma_cm=bath.gamma_per_mode(c.nmodes),
        linewidth_cm=bath.linewidth_per_mode(c.nmodes),
        pairing=bath.raman_pairing,
        frequencies=c.frequencies,
        source_modes=c.source_indices,
    )


# ------------------------------------------------------------------- times

@dataclass(frozen=True)
class RelaxationTimes:
    t1_us: float
    t2_us: float
    axis: np.ndarray
    convention: str
    rate1_cm: float
    rate2_cm: float

    def __post_init__(self):
        if not (self.t1_us > 0.0 and self.t2_us > 0.0):
            raise ValueError("relaxation times must be positive")


def _as_tensor_matrix(lam) -> np.ndarray:
    if isinstance(lam, RelaxationTensor):
        return lam.lambda_total
    m = np.asarray(lam, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        raise ValueError("expected a finite 3x3 tensor")
    _check_symmetric(m, "tensor")
    return m


def relaxation_times(lam, axis=(0.0, 0.0, 1.0), convention: str = "projection") -> RelaxationTimes:
    """Project a rate tensor onto scalar T1/T2 along the quantization axis."""
    m = _as_tensor_matrix(lam)
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError("axis must be a unit 3-vector")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    longitudinal = float(n @ m @ n)
    trace = float(np.trace(m))
    if convention == "projection":
        rate1 = 2.0 * longitudinal
        rate2 = trace - longitudinal
    else:
        rate1 = 2.0 * (trace - longitudinal)
        rate2 = trace + longitudinal

    def to_time(rate_cm: float) -> float:
        if rate_cm <= 0.0:
            return np.inf
        return 1.0 / (rate_cm * RATE_CM_TO_PER_US)

    return RelaxationTimes(
        t1_us=to_time(rate1),
        t2_us=to_time(rate2),
        axis=n,
        convention=convention,
        rate1_cm=rate1,
        rate2_cm=rate2,
    )


def principal_relaxation_axes(lam):
    """Eigenvalues (ascending, clipped at 0) and orthonormal axes of a tensor.

    Within a degenerate eigenvalue cluster the axes are rebuilt to
    maximize overlap with the coordinate axes, taken in x, y, z order,
    so repeated runs and equivalent inputs give identical output.  Every
    axis has its largest-magnitude component made positive.
    """
    m = _as_tensor_matrix(lam)
    values, vectors = np.linalg.eigh(m)
    floor = -_PSD_TOL * max(np.trace(m), 1e-300)
    if values.min() < floor:
        raise ValueError(f"tensor is not positive semi-definite ({values.min():.3e})")
    values = np.clip(values, 0.0, None)

    scale = max(abs(values[-1]), 1e-300)
    out = np.empty_like(vectors)
    i = 0
    while i < 3:
        j = i
        while j + 1 < 3 and values[j + 1] - values[i] <= 1e-8 * scale:
            j += 1
        block = vectors[:, i : j + 1]
        if j > i:
            block = _axis_aligned_basis(block)
        out[:, i : j + 1] = block
        i = j + 1
    for k in range(3):
        col = out[:, k]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0.0:
            out[:, k] = -col
    return values, out


def _axis_aligned_basis(block: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(block) greedily aligned with x, y, z."""
    basis = []

    def try_add(v):
        for b in basis:
            v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)

    proj = block @ block.T
    for e in np.eye(3):
        if len(basis) == block.shape[1]:
            break
        try_add(proj @ e)
    for col in block.T:
        if len(basis) == block.shape[1]:
            break
        try_add(col.copy())
    return np.column_stack(basis)


# ------------------------------------------------------------ attribution

@dataclass(frozen=True)
class ModeAttribution:
    """Per-mode shares of each tensor component, ranked by trace weight.

    Shares are normalized per component and per order; components whose
    total is zero get share 0.  Off-diagonal components can have shares
    outside [0, 1] when mode contributions carry opposite signs; the
    diagonal (and trace) shares always lie in [0, 1].
    """

    mode_numbers: np.ndarray     # (M,) 1-based numbering of the input file
    frequencies_cm: np.ndarray   # (M,)
    shares1: np.ndarray          # (M, 3, 3)
    shares2: np.ndarray          # (M, 3, 3)
    trace_share1: np.ndarray     # (M,)
    trace_share2: np.ndarray     # (M,)


def _component_shares(per_mode: np.ndarray, total: np.ndarray) -> np.ndarray:
    out = np.zeros_like(per_mode)
    np.divide(per_mode, total[None, :, :], out=out, where=total[None, :, :] != 0.0)
    return out


def _rank_modes(key: np.ndarray, top_m: int | None, *traces: np.ndarray):
    """Modes by descending key (stable), cut to top_m, and each trace's shares.

    A share is the mode's trace over the summed trace, 0 when that sum is
    0; the shares come back in the ranked order.
    """
    order = np.argsort(-key, kind="stable")[:top_m]
    shares = []
    for tr in traces:
        total = tr.sum()
        share = tr / total if total != 0.0 else np.zeros_like(tr)
        shares.append(share[order])
    return order, shares


def mode_attribution(
    c: CouplingTensors,
    bath: BathSpec,
    spin: SpinSystem,
    top_m: int | None = None,
) -> ModeAttribution:
    tensor = build_tensor(c, bath, spin)
    tr1 = np.einsum("qaa->q", tensor.per_mode_lambda1)
    tr2 = np.einsum("qaa->q", tensor.per_mode_lambda2)
    order, (trace_share1, trace_share2) = _rank_modes(tr1 + tr2, top_m, tr1, tr2)
    return ModeAttribution(
        mode_numbers=tensor.source_modes[order].astype(int),
        frequencies_cm=tensor.frequencies[order],
        shares1=_component_shares(tensor.per_mode_lambda1, tensor.lambda1)[order],
        shares2=_component_shares(tensor.per_mode_lambda2, tensor.lambda2)[order],
        trace_share1=trace_share1,
        trace_share2=trace_share2,
    )


# ------------------------------------------------------------------ sweeps

@dataclass(frozen=True)
class SweepPoint:
    temperature_k: float
    field_mt: float
    omega_cm: float
    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda2_quartic: np.ndarray
    lambda2_gsq: np.ndarray
    t1_us: float
    t2_us: float


def sweep(
    c: CouplingTensors,
    spin: SpinSystem,
    temperatures,
    fields_mt,
    bath: BathSpec,
    convention: str = "projection",
) -> list[SweepPoint]:
    """Tensor and times over a (T, B) grid, one row per point.

    Rows are ordered with temperature outermost.  Each row is what
    `build_tensor` and `relaxation_times` give at that point, with the
    field along `spin`'s direction.
    """
    temperatures = [float(t) for t in np.atleast_1d(temperatures)]
    fields_mt = [float(b) for b in np.atleast_1d(fields_mt)]
    if not temperatures or not fields_mt:
        raise ValueError("sweep grid must be nonempty")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    points = []
    for temperature in temperatures:
        bath_t = replace(bath, temperature_k=temperature)
        for field_mt in fields_mt:
            spin_b = replace(spin, field_mt=spin.field_direction * field_mt)
            tensor = build_tensor(c, bath_t, spin_b)
            times = relaxation_times(tensor, axis=spin.axis, convention=convention)
            points.append(SweepPoint(
                temperature_k=temperature,
                field_mt=field_mt,
                omega_cm=tensor.omega_cm,
                lambda1=tensor.lambda1,
                lambda2=tensor.lambda2,
                lambda2_quartic=tensor.lambda2_quartic,
                lambda2_gsq=tensor.lambda2_gsq,
                t1_us=times.t1_us,
                t2_us=times.t2_us,
            ))
    return points


_CSV_COLUMNS = (
    "temperature_k", "field_mt", "omega_cm", "t1_us", "t2_us",
    "l1_xx", "l1_xy", "l1_xz", "l1_yy", "l1_yz", "l1_zz",
    "l2_xx", "l2_xy", "l2_xz", "l2_yy", "l2_yz", "l2_zz",
    "l2_quartic_trace", "l2_gsq_trace",
)


def sweep_csv(points: list[SweepPoint]) -> str:
    """CSV rows in _CSV_COLUMNS order; floats via repr, so byte-stable."""
    iu = np.triu_indices(3)

    def fmt(x):
        return repr(float(x))

    lines = [",".join(_CSV_COLUMNS)]
    for p in points:
        row = [
            fmt(p.temperature_k), fmt(p.field_mt), fmt(p.omega_cm),
            fmt(p.t1_us), fmt(p.t2_us),
            *(fmt(v) for v in p.lambda1[iu]),
            *(fmt(v) for v in p.lambda2[iu]),
            fmt(np.trace(p.lambda2_quartic)),
            fmt(np.trace(p.lambda2_gsq)),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def tensor_report(tensor: RelaxationTensor, axis=(0.0, 0.0, 1.0), top_m: int | None = None) -> dict:
    """JSON-ready summary: metadata, tensors, times in both conventions."""
    times = {
        name: relaxation_times(tensor, axis=axis, convention=name)
        for name in CONVENTIONS
    }
    values, vectors = principal_relaxation_axes(tensor.lambda_total)
    tr2 = np.einsum("qaa->q", tensor.per_mode_lambda2)
    order, (share2,) = _rank_modes(tr2, top_m, tr2)
    return {
        "metadata": {
            "temperature_k": tensor.temperature_k,
            "field_mt": tensor.field_mt,
            "omega_cm": tensor.omega_cm,
            "pairing": tensor.pairing,
            "gamma_cm": tensor.gamma_cm.tolist(),
            "linewidth_cm": tensor.linewidth_cm.tolist(),
        },
        "lambda1": tensor.lambda1.tolist(),
        "lambda2": tensor.lambda2.tolist(),
        "lambda2_quartic": tensor.lambda2_quartic.tolist(),
        "lambda2_gsq": tensor.lambda2_gsq.tolist(),
        "elastic_dephasing": tensor.elastic_dephasing.tolist(),
        "principal_rates_cm": values.tolist(),
        "principal_axes": vectors.T.tolist(),
        "times_us": {
            name: {"t1": t.t1_us, "t2": t.t2_us} for name, t in times.items()
        },
        "mode_attribution": [
            {
                "mode": int(tensor.source_modes[q]),
                "frequency_cm": float(tensor.frequencies[q]),
                "lambda2_trace_share": float(share),
            }
            for q, share in zip(order, share2)
        ],
    }
