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
    RATE_CM_TO_PER_US,
    BathSpec,
    SpinSystem,
    bose_occupation,
    check_rate_matrix,
    freeze,
    raise_first_failure,
)
from .couplings import CouplingTensors, field_prefactor

CONVENTIONS = ("projection", "lindblad")


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


# component index of (a, b) among the upper-triangle entries a <= b
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _lorentzian(x, width):
    """Normalized Lorentzian (1/pi) w/(x^2+w^2), the regularized delta."""
    return width / (np.pi * (x * x + width * width))


class FirstOrder(NamedTuple):
    matrix: np.ndarray      # (3, 3)
    per_mode: np.ndarray    # (N, 3, 3)


class SecondOrder(NamedTuple):
    quartic: np.ndarray     # (3, 3) from first-order couplings squared twice
    gsq: np.ndarray         # (3, 3) from diagonal/pair second derivatives
    per_mode: np.ndarray    # (N, 3, 3) quartic + gsq, pairs split evenly
    elastic: np.ndarray     # (3,) zero-frequency dephasing diagnostic


def _rate_grid(c: CouplingTensors, bath: BathSpec, temperatures, spins):
    """Yield (i, j, FirstOrder, SecondOrder) at temperatures[i], spins[j].

    First order is the one-phonon direct rate times G G'.  The quartic
    part of second order sums single modes with the lumped thermal weight
    (2n+1)^2 at the two-phonon resonance, and so does the second-derivative
    part in diagonal_only pairing.  In all_pairs it sums ordered mode pairs
    over the four emission/absorption processes weighted by their
    occupations, each delta a Lorentzian of the two modes' mean width, so
    it refuses couplings of more than one mode without mixed derivatives.

    Each piece of work is done once at the level it depends on: the
    coupling products once, occupations and direct rates per temperature,
    the spin frequency, Lorentzians and the all_pairs pair sums per field
    (the outer loop, so one field's arrays are held at a time).  A point
    is one fixed-shape matrix-vector product with n(T) plus O(N) work, and
    applies the field prefactor (muB|B|/hc)^2 as a scalar (field_prefactor,
    which refuses a field off the couplings' direction).  No point's
    arithmetic depends on the rest of the grid, so each is bitwise what a
    1x1 grid gives.
    """
    omega = c.frequencies
    n_modes = c.nmodes
    gamma = bath.gamma_per_mode(n_modes)
    lam = bath.linewidth_per_mode(n_modes)
    all_pairs = bath.raman_pairing == "all_pairs"
    if all_pairs and not c.mixed_computed and n_modes > 1:
        raise ValueError("pairing 'all_pairs' needs the mixed second derivatives, but "
                         "the couplings have mixed_computed false; build them from "
                         "pair runs or use 'diagonal_only'")

    def outer(x):
        return np.einsum("aq,bq->qab", x, x)

    d1_sq = outer(c.d1)
    quartic_sq = outer((c.d1 / omega) ** 2)
    diag_d2 = np.einsum("aqq->aq", c.d2)
    diag_sq, diag_d2_sq = outer(diag_d2), diag_d2**2
    if all_pairs:
        # d2_aqp d2_bqp for the six components a <= b, shape (6, N, N);
        # _SYM expands them back to 3x3, so every tensor is exactly symmetric
        pair_sq = np.empty((6, n_modes, n_modes))
        for k, (a, b) in enumerate(zip(*np.triu_indices(3))):
            np.multiply(c.d2[a], c.d2[b], out=pair_sq[k])
        width = 0.5 * (lam[:, None] + lam[None, :])
        by_n = np.empty((2,) + pair_sq.shape)

    thermal = []
    for temperature in temperatures:
        n = bose_occupation(omega, temperature)
        thermal.append((n, direct_rate(gamma, omega, n), (2.0 * n + 1.0) ** 2))

    for j, spin in enumerate(spins):
        big_omega = spin.larmor_cm()
        pref2 = field_prefactor(c, spin) ** 2
        two_phonon = _lorentzian(big_omega - 2.0 * omega, lam)
        zero_freq = (2.0 / np.pi) * (lam / (big_omega * big_omega + lam * lam))
        if all_pairs:
            # absorb both, emit both, emit q and absorb p, and its transpose;
            # with n + 1 for each emission the pair weight is
            # W = lor_nn n_q n_p + lor_q n_q + lor_p n_p + emit, so
            # sum_p W d2 d2 = n_q (by_n[0] n + sum_p lor_q d2 d2)
            #                 + by_n[1] n + sum_p emit d2 d2
            emit = _lorentzian((big_omega + omega)[:, None] + omega, width)
            emit_q = _lorentzian((big_omega + omega)[:, None] - omega, width)
            lor_nn = _lorentzian((big_omega - omega)[:, None] - omega, width)
            lor_nn += emit
            lor_nn += emit_q
            lor_nn += emit_q.T
            by_q = np.einsum("kqp,qp->kq", pair_sq, emit + emit_q.T)
            fixed = np.einsum("kqp,qp->kq", pair_sq, emit)
            np.multiply(pair_sq, lor_nn, out=by_n[0])
            np.multiply(pair_sq, emit + emit_q, out=by_n[1])
        for i, (n, direct, lumped) in enumerate(thermal):
            per1 = (pref2 * direct)[:, None, None] * d1_sq
            resonant = lumped * two_phonon
            per_quartic = (pref2 * pref2 * resonant)[:, None, None] * quartic_sq
            if all_pairs:
                # a per-point product keeps its shape on any grid, so its
                # bits do not depend on how many temperatures are swept; W
                # and d2 are symmetric in (q, p), so summing each row gives
                # every ordered pair half to q and half to p, q == p whole
                nn, by_p = (by_n.reshape(-1, n_modes) @ n).reshape(2, 6, n_modes)
                per6 = (0.25 * pref2) * ((nn + by_q) * n + by_p + fixed)
                per_gsq = per6.T[:, _SYM]
            else:
                per_gsq = (pref2 * resonant)[:, None, None] * diag_sq
            elastic = pref2 * (lumped * zero_freq * diag_d2_sq).sum(axis=1)
            yield (
                i, j,
                FirstOrder(per1.sum(axis=0), per1),
                SecondOrder(per_quartic.sum(axis=0), per_gsq.sum(axis=0),
                            per_quartic + per_gsq, elastic),
            )


def _one_point(c: CouplingTensors, bath: BathSpec, spin: SpinSystem):
    ((_, _, first, second),) = _rate_grid(c, bath, [bath.temperature_k], [spin])
    return first, second


def lambda_first(c: CouplingTensors, bath: BathSpec, spin: SpinSystem) -> FirstOrder:
    return _one_point(c, bath, spin)[0]


def lambda_second(c: CouplingTensors, bath: BathSpec, spin: SpinSystem) -> SecondOrder:
    """Two-phonon tensor, split into its quartic and second-derivative parts."""
    return _one_point(c, bath, spin)[1]


def _check_rates(lambda1, quartic, gsq, elastic, split1, split2, labels=None) -> None:
    """Raise ValueError unless the rates of a point, or of a stack, are physical.

    Finite; lambda1 and lambda2 = quartic + gsq symmetric PSD; the quartic
    part and the elastic diagnostic nonnegative; the per-mode splits,
    summed over modes, equal to their totals.  Arrays carry the stack's
    axes first; a stack takes one eigen-solve per order, and a message
    names its first failing point (see raise_first_failure).
    """
    def per_point(v):
        return np.reshape(v, np.shape(lambda1)[:-2] + (-1,))

    def require(ok, subject, problem):
        raise_first_failure(~ok, subject, problem, labels)

    arrays = (lambda1, quartic, gsq, elastic, split1, split2)
    require(np.logical_and.reduce([np.isfinite(per_point(v)).all(axis=-1) for v in arrays]),
            "rates", "contain non-finite entries")
    lambda2 = quartic + gsq
    check_rate_matrix(lambda1, "lambda1", labels)
    check_rate_matrix(lambda2, "lambda2", labels)
    require(per_point(quartic).min(axis=-1) >= 0.0, "quartic part",
            "must be entrywise nonnegative")
    require(per_point(elastic).min(axis=-1) >= 0.0, "elastic diagnostic",
            "must be nonnegative")
    for total, split in ((lambda1, split1), (lambda2, split2)):
        dev = np.abs(per_point(split - total)).max(axis=-1)
        scale = np.maximum(np.abs(per_point(total)).max(axis=-1), 1e-300)
        require(dev <= 1e-10 * scale, "per-mode split",
                lambda i: f"does not sum to total ({np.ravel(dev)[i]:.3e})")


# ------------------------------------------------------------------ tensor

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
            freeze(self, **{name: v})
        _check_rates(self.lambda1, self.lambda2_quartic, self.lambda2_gsq,
                     self.elastic_dephasing, self.per_mode_lambda1.sum(axis=0),
                     self.per_mode_lambda2.sum(axis=0))

    @property
    def lambda2(self) -> np.ndarray:
        return self.lambda2_quartic + self.lambda2_gsq

    @property
    def lambda_total(self) -> np.ndarray:
        return self.lambda1 + self.lambda2


def build_tensor(c: CouplingTensors, bath: BathSpec, spin: SpinSystem) -> RelaxationTensor:
    first, second = _one_point(c, bath, spin)
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
    check_rate_matrix(m, "tensor")
    return m


def relaxation_times(lam, axis=(0.0, 0.0, 1.0), convention: str = "projection") -> RelaxationTimes:
    """Project a rate tensor onto scalar T1/T2 along the quantization axis."""
    m = _as_tensor_matrix(lam)
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError("axis must be a unit 3-vector")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    return _project(m, n, convention)


def _project(m: np.ndarray, n: np.ndarray, convention: str) -> RelaxationTimes:
    """relaxation_times for a checked tensor, unit axis and known convention."""
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
    values, vectors = np.linalg.eigh(_as_tensor_matrix(lam))
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
    spins = [replace(spin, field_mt=spin.field_direction * b) for b in fields_mt]
    omegas = [s.larmor_cm() for s in spins]
    rows = [[None] * len(fields_mt) for _ in temperatures]
    field = []
    for i, j, first, second in _rate_grid(c, bath, temperatures, spins):
        # keep each point's totals, not its per-mode arrays, and check a
        # field's points together once its last temperature is in
        field.append((first.matrix, second.quartic, second.gsq, second.elastic,
                      first.per_mode.sum(axis=0), second.per_mode.sum(axis=0)))
        if i < len(temperatures) - 1:
            continue
        stacks = [np.array(v) for v in zip(*field)]
        field = []
        _check_rates(*stacks, [f"{t!r} K, {fields_mt[j]!r} mT" for t in temperatures])
        lambda1, quartic, gsq = stacks[:3]
        lambda2 = quartic + gsq
        for k, temperature in enumerate(temperatures):
            # lambda1 and lambda2 are checked, so their sum needs no check
            times = _project(lambda1[k] + lambda2[k], spin.axis, convention)
            rows[k][j] = SweepPoint(
                temperature_k=temperature,
                field_mt=fields_mt[j],
                omega_cm=omegas[j],
                lambda1=lambda1[k],
                lambda2=lambda2[k],
                lambda2_quartic=quartic[k],
                lambda2_gsq=gsq[k],
                t1_us=times.t1_us,
                t2_us=times.t2_us,
            )
    return [p for row in rows for p in row]


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
