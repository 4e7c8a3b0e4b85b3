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


# shapes at one point; a grid batch adds a leading temperature axis
class FirstOrder(NamedTuple):
    matrix: np.ndarray      # (3, 3)
    per_mode: np.ndarray    # (N, 3, 3)


class SecondOrder(NamedTuple):
    quartic: np.ndarray     # (3, 3) from first-order couplings squared twice
    gsq: np.ndarray         # (3, 3) from diagonal/pair second derivatives
    per_mode: np.ndarray    # (N, 3, 3) quartic + gsq, pairs split evenly
    elastic: np.ndarray     # (3,) zero-frequency dephasing diagnostic


def _rate_grid(c: CouplingTensors, bath: BathSpec, temperatures, spins):
    """Yield (j, FirstOrder, SecondOrder) for spins[j], row i at temperatures[i].

    First order is the one-phonon direct rate times G G'.  The quartic
    part of second order sums single modes with the lumped thermal weight
    (2n+1)^2 at the two-phonon resonance, and so does the second-derivative
    part in diagonal_only pairing.  In all_pairs it sums ordered mode pairs
    over the four emission/absorption processes weighted by their
    occupations, each delta a Lorentzian of the two modes' mean width, so
    it refuses couplings of more than one mode without mixed derivatives.

    Each piece of work is done once at the level it depends on: the
    coupling products once, occupations and direct rates as (T, N) arrays,
    the spin frequency, Lorentzians and the all_pairs pair sums per field
    (the outer loop).  A field's temperatures are one set of elementwise
    operations on (T, N, 3, 3) per-mode stacks, O(T N 9) floats each, and
    one sum over the mode axis; the field prefactor (muB|B|/hc)^2 enters as
    a scalar (field_prefactor, which refuses a field off the couplings'
    direction).  The all_pairs contraction stays one fixed-shape
    matrix-vector product per temperature: the columns of a product with
    all temperatures at once change their last bits with the number of
    temperatures.  Elementwise arithmetic and a sum over the mode axis
    give each row the bits of a one-row batch, so every point is bitwise
    what a 1x1 grid gives.
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

    n = np.array([bose_occupation(omega, t) for t in temperatures])
    direct = direct_rate(gamma, omega, n)
    lumped = (2.0 * n + 1.0) ** 2

    for j, spin in enumerate(spins):
        big_omega = spin.larmor_cm()
        pref2 = field_prefactor(c, spin) ** 2
        two_phonon = _lorentzian(big_omega - 2.0 * omega, lam)
        zero_freq = (2.0 / np.pi) * (lam / (big_omega * big_omega + lam * lam))
        resonant = lumped * two_phonon
        # (T, N) weights times (N, 3, 3) products
        per1 = (pref2 * direct)[..., None, None] * d1_sq
        per_quartic = (pref2 * pref2 * resonant)[..., None, None] * quartic_sq
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
            products = np.array([by_n.reshape(-1, n_modes) @ n_i for n_i in n])
            nn, by_p = products.reshape(-1, 2, 6, n_modes).transpose(1, 0, 2, 3)
            # W and d2 are symmetric in (q, p), so summing each row gives
            # every ordered pair half to q and half to p, q == p whole
            per6 = (0.25 * pref2) * ((nn + by_q) * n[:, None, :] + by_p + fixed)
            per_gsq = per6.transpose(0, 2, 1)[:, :, _SYM]
        else:
            per_gsq = (pref2 * resonant)[..., None, None] * diag_sq
        elastic = pref2 * ((lumped * zero_freq)[:, None, :] * diag_d2_sq).sum(axis=2)
        yield (
            j,
            FirstOrder(per1.sum(axis=1), per1),
            SecondOrder(per_quartic.sum(axis=1), per_gsq.sum(axis=1),
                        per_quartic + per_gsq, elastic),
        )


def _one_point(c: CouplingTensors, bath: BathSpec, spin: SpinSystem):
    ((_, first, second),) = _rate_grid(c, bath, [bath.temperature_k], [spin])
    return FirstOrder(*(v[0] for v in first)), SecondOrder(*(v[0] for v in second))


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

@dataclass(frozen=True, eq=False)
class RelaxationTensor:
    """First- and second-order rate tensors with their per-mode split."""

    lambda1: np.ndarray             # (3, 3)
    lambda2_quartic: np.ndarray     # (3, 3)
    lambda2_gsq: np.ndarray         # (3, 3)
    per_mode_lambda1: np.ndarray    # (N, 3, 3)
    per_mode_lambda2: np.ndarray    # (N, 3, 3)
    elastic_dephasing: np.ndarray   # (3,) diagnostic, kept out of T2
    temperature_k: float
    field_mt: float                 # signed along the couplings' direction, as in sweep
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
    field = float(np.linalg.norm(spin.field_mt))
    return RelaxationTensor(
        lambda1=first.matrix,
        lambda2_quartic=second.quartic,
        lambda2_gsq=second.gsq,
        per_mode_lambda1=first.per_mode,
        per_mode_lambda2=second.per_mode,
        elastic_dephasing=second.elastic,
        temperature_k=bath.temperature_k,
        field_mt=-field if spin.field_mt @ c.field_direction < 0 else field,
        omega_cm=spin.larmor_cm(),
        gamma_cm=bath.gamma_per_mode(c.nmodes),
        linewidth_cm=bath.linewidth_per_mode(c.nmodes),
        pairing=bath.raman_pairing,
        frequencies=c.frequencies,
        source_modes=c.source_indices,
    )


# ------------------------------------------------------------------- times

@dataclass(frozen=True, eq=False)
class RelaxationTimes:
    t1_us: float
    t2_us: float
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
    rate1, rate2 = _rates(m, n, convention)
    t1, t2 = _times_us(np.array([rate1, rate2])).tolist()
    return RelaxationTimes(t1_us=t1, t2_us=t2, rate1_cm=rate1, rate2_cm=rate2)


def _rates(m: np.ndarray, n: np.ndarray, convention: str) -> tuple[float, float]:
    """1/T1 and 1/T2 in cm^-1 of a checked tensor along a unit axis.

    One point at a time: n @ m @ n batched over points changes its last
    bits with the batch, and a sweep row must be bitwise its point alone.
    """
    longitudinal = float(n @ m @ n)
    trace = float(np.trace(m))
    if convention == "projection":
        return 2.0 * longitudinal, trace - longitudinal
    return 2.0 * (trace - longitudinal), trace + longitudinal


def _times_us(rates_cm: np.ndarray) -> np.ndarray:
    """Times in us of rates in cm^-1, elementwise; inf where a rate is <= 0."""
    times = np.full(rates_cm.shape, np.inf)
    np.divide(1.0, rates_cm * RATE_CM_TO_PER_US, out=times, where=rates_cm > 0.0)
    return times


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
    # the squared projections of x, y and z onto a k-dimensional span sum to
    # k, so the three axes always complete the basis
    for e in np.eye(3):
        if len(basis) == block.shape[1]:
            break
        try_add(proj @ e)
    return np.column_stack(basis)


# ------------------------------------------------------------ attribution

@dataclass(frozen=True, eq=False)
class ModeAttribution:
    """Modes ranked by descending tr L1_q + tr L2_q (stable), with their shares.

    A trace share is the mode's trace of one order over that order's
    summed trace (0 when the sum is 0), so it lies in [0, 1].  shares2
    divides each second-order component by its total (0 where the total
    is 0); an off-diagonal share can lie outside [0, 1] when mode
    contributions carry opposite signs.
    """

    mode_numbers: np.ndarray     # (M,) 1-based numbering of the input file
    frequencies_cm: np.ndarray   # (M,)
    shares2: np.ndarray          # (M, 3, 3)
    trace_share1: np.ndarray     # (M,)
    trace_share2: np.ndarray     # (M,)

    def rows(self) -> list[dict]:
        """The JSON rows that tensor.json and attribution.json both list."""
        columns = (self.mode_numbers, self.frequencies_cm, self.trace_share1,
                   self.trace_share2)
        return [{"mode": m, "frequency_cm": f, "trace_share1": s1, "trace_share2": s2}
                for m, f, s1, s2 in zip(*(col.tolist() for col in columns))]


def _attribution(tensor: RelaxationTensor, top_m: int | None) -> ModeAttribution:
    """The only mode ranking: tensor's modes by descending tr L1_q + tr L2_q
    (stable, so ties keep input order), cut to top_m."""
    tr1, tr2 = (np.einsum("qaa->q", m)
                for m in (tensor.per_mode_lambda1, tensor.per_mode_lambda2))
    order = np.argsort(-(tr1 + tr2), kind="stable")[:top_m]

    def shares(tr):
        total = tr.sum()
        return tr[order] / total if total != 0.0 else np.zeros(order.size)

    lambda2 = tensor.lambda2
    return ModeAttribution(
        mode_numbers=tensor.source_modes[order].astype(int),
        frequencies_cm=tensor.frequencies[order],
        shares2=np.divide(tensor.per_mode_lambda2[order], lambda2,
                          out=np.zeros((order.size, 3, 3)), where=lambda2 != 0.0),
        trace_share1=shares(tr1),
        trace_share2=shares(tr2),
    )


def mode_attribution(
    c: CouplingTensors,
    bath: BathSpec,
    spin: SpinSystem,
    top_m: int | None = None,
) -> ModeAttribution:
    return _attribution(build_tensor(c, bath, spin), top_m)


# ------------------------------------------------------------------ sweeps

# one row of a sweep's table
_SWEEP_ROW = np.dtype([
    ("temperature_k", float), ("field_mt", float), ("omega_cm", float),
    ("t1_us", float), ("t2_us", float),
    ("lambda1", float, (3, 3)), ("lambda2", float, (3, 3)),
    ("lambda2_quartic", float, (3, 3)), ("lambda2_gsq", float, (3, 3)),
])


def sweep(
    c: CouplingTensors,
    spin: SpinSystem,
    temperatures,
    fields_mt,
    bath: BathSpec,
    convention: str = "projection",
) -> np.recarray:
    """Tensor and times over a (T, B) grid, as one record array of T*B rows.

    Rows are ordered with temperature outermost.  Their fields are
    temperature_k, field_mt, omega_cm, t1_us, t2_us and the (3, 3)
    lambda1, lambda2, lambda2_quartic and lambda2_gsq: points.t1_us is a
    column, points[i].t1_us one row's time.  Each row is what
    `build_tensor` and `relaxation_times` give at that point, for the
    field `c.field_direction * B` projected on its own axis.  `spin`
    gives g0 and the frequency override; a nonzero field of `spin` must
    lie along the couplings' direction.
    """
    temperatures = [float(t) for t in np.atleast_1d(temperatures)]
    fields_mt = [float(b) for b in np.atleast_1d(fields_mt)]
    if not temperatures or not fields_mt:
        raise ValueError("sweep grid must be nonempty")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    field_prefactor(c, spin)  # refuses a field off the couplings' direction
    spins = [replace(spin, field_mt=c.field_direction * b) for b in fields_mt]
    points = np.zeros(len(temperatures) * len(fields_mt), _SWEEP_ROW).view(np.recarray)
    rows = points.reshape(len(temperatures), len(fields_mt))
    rows.temperature_k = np.array(temperatures)[:, None]
    rows.field_mt = fields_mt
    for j, first, second in _rate_grid(c, bath, temperatures, spins):
        # check a field's points together, then keep their totals only
        lambda1, quartic, gsq = first.matrix, second.quartic, second.gsq
        _check_rates(lambda1, quartic, gsq, second.elastic, first.per_mode.sum(axis=1),
                     second.per_mode.sum(axis=1),
                     [f"{t!r} K, {fields_mt[j]!r} mT" for t in temperatures])
        lambda2 = quartic + gsq
        column = rows[:, j]
        column.omega_cm = spins[j].larmor_cm()
        column.lambda1, column.lambda2 = lambda1, lambda2
        column.lambda2_quartic, column.lambda2_gsq = quartic, gsq
        # lambda1 and lambda2 are checked, so their sum needs no check
        axis = spins[j].axis
        rates = np.array([_rates(m, axis, convention) for m in lambda1 + lambda2])
        column.t1_us, column.t2_us = _times_us(rates).T
    return points


_CSV_COLUMNS = (
    "temperature_k", "field_mt", "omega_cm", "t1_us", "t2_us",
    "l1_xx", "l1_xy", "l1_xz", "l1_yy", "l1_yz", "l1_zz",
    "l2_xx", "l2_xy", "l2_xz", "l2_yy", "l2_yz", "l2_zz",
    "l2_quartic_trace", "l2_gsq_trace",
)


def sweep_csv(points: np.recarray) -> str:
    """CSV rows of a sweep's table in _CSV_COLUMNS order, formatted column by
    column; floats via repr, so byte-stable."""
    iu = np.triu_indices(3)
    # the first five columns are named as _SWEEP_ROW's scalar fields
    columns = [points[name] for name in _CSV_COLUMNS[:5]]
    for name in ("lambda1", "lambda2"):
        columns.extend(points[name][:, iu[0], iu[1]].T)
    for name in ("lambda2_quartic", "lambda2_gsq"):
        columns.append(np.trace(points[name], axis1=1, axis2=2))
    text = [map(repr, col.tolist()) for col in columns]
    return "\n".join([",".join(_CSV_COLUMNS), *map(",".join, zip(*text))]) + "\n"


def tensor_report(tensor: RelaxationTensor, axis=(0.0, 0.0, 1.0), top_m: int | None = None) -> dict:
    """JSON-ready summary: metadata, tensors, times in both conventions and
    the ranked modes' rows, as `attribute` writes them."""
    times = {
        name: relaxation_times(tensor, axis=axis, convention=name)
        for name in CONVENTIONS
    }
    values, vectors = principal_relaxation_axes(tensor.lambda_total)
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
        "mode_attribution": _attribution(tensor, top_m).rows(),
    }
