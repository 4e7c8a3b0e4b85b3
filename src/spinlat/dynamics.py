"""Two-level density-matrix propagation and decay-rate extraction.

Generators are assembled in cm^-1 and scaled once to rad/us, so
trajectory times are microseconds throughout.  The generator is a
constant 4x4 matrix on the row-major vectorized density matrix, so
propagation is exact: each distinct grid spacing dt gets one
propagator expm(L dt) (SciPy's scaling-and-squaring method of Al-Mohy
and Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009) and each sample
costs one 4x4 product, whatever the ratio of precession to decay.

Before propagating, the generator must preserve the trace to rounding;
nothing is renormalized afterwards, and every trajectory is checked for
unit trace, Hermiticity and positivity when it is built.

The dissipator and precession are written with z as the quantization
axis.  `frame_rotation` gives the rotation that carries any other axis
to z, for rotating tensors and couplings into that frame.

SciPy is imported inside the functions that use it, so importing this
module (and the command-line runner) does not load it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import RATE_CM_TO_PER_US, BathSpec, MUB_CM_PER_T, SpinSystem, bose_occupation
from .couplings import CouplingTensors

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

TRACE_TOL = 1e-12

CHANNELS = ("one_phonon", "two_phonon")


def _kron_rm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> a @ rho @ b for row-major vec(rho)."""
    return np.kron(a, b.T)


@dataclass(frozen=True)
class JumpBasisDissipator:
    """Pauli-basis dissipator coefficients (cm^-1) plus the precession Omega."""

    lam_cm: np.ndarray
    omega_cm: float

    def __post_init__(self):
        m = np.asarray(self.lam_cm, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise ValueError("lam_cm must be a finite 3x3 matrix")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > 1e-10 * scale:
            raise ValueError("lam_cm must be symmetric within 1e-10")
        w = np.linalg.eigvalsh(m)
        if w.min() < -1e-12 * max(np.trace(m), 1e-300):
            raise ValueError(f"lam_cm must be PSD, got eigenvalue {w.min():.3e}")
        if not np.isfinite(self.omega_cm) or self.omega_cm < 0.0:
            raise ValueError("omega_cm must be finite and nonnegative")
        m.setflags(write=False)
        object.__setattr__(self, "lam_cm", m)

    def superoperator_per_us(self) -> np.ndarray:
        """4x4 generator of vec(rho), row-major ordering, units rad/us."""
        gen = -0.5j * self.omega_cm * (
            _kron_rm(SIGMA_Z, IDENTITY2) - _kron_rm(IDENTITY2, SIGMA_Z)
        )
        for a in range(3):
            for b in range(3):
                w = self.lam_cm[a, b]
                if w == 0.0:
                    continue
                sa, sb = PAULI[a], PAULI[b]
                sba = sb @ sa
                gen = gen + w * (
                    _kron_rm(sa, sb)
                    - 0.5 * _kron_rm(sba, IDENTITY2)
                    - 0.5 * _kron_rm(IDENTITY2, sba)
                )
        return gen * RATE_CM_TO_PER_US


def frame_rotation(axis) -> np.ndarray:
    """Proper rotation R with R @ axis = z, from Rodrigues' formula.

    Exactly the identity for axis z, so runs along z are unchanged bit
    for bit.  An axis with a negative z component is first turned by pi
    about x, which keeps the formula away from its singularity at -z.
    """
    n = np.asarray(axis, dtype=float)
    flip = np.diag([1.0, -1.0, -1.0]) if n[2] < 0.0 else np.eye(3)
    n = flip @ n
    v = np.cross(n, (0.0, 0.0, 1.0))
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return (np.eye(3) + k + k @ k / (1.0 + n[2])) @ flip


# -------------------------------------------------------------- trajectory

@dataclass(frozen=True)
class SpinTrajectory:
    """Density-matrix samples on a time grid, with derived observables."""

    times_us: np.ndarray
    rhos: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times_us, dtype=float)
        r = np.asarray(self.rhos, dtype=complex)
        if t.ndim != 1 or r.shape != (t.size, 2, 2):
            raise ValueError("need times (T,) and matrices (T, 2, 2)")
        traces = np.einsum("tii->t", r)
        if np.abs(traces - 1.0).max() > 1e-9:
            raise ValueError("trajectory trace deviates beyond 1e-9")
        if np.abs(r - np.conj(np.swapaxes(r, 1, 2))).max() > 1e-12:
            raise ValueError("trajectory is not Hermitian within 1e-12")
        if np.linalg.eigvalsh(r).min() < -1e-8:
            raise ValueError("trajectory has eigenvalue below -1e-8")
        t.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "times_us", t)
        object.__setattr__(self, "rhos", r)

    @property
    def sx(self) -> np.ndarray:
        return 2.0 * self.rhos[:, 0, 1].real

    @property
    def sy(self) -> np.ndarray:
        return -2.0 * self.rhos[:, 0, 1].imag

    @property
    def sz(self) -> np.ndarray:
        return (self.rhos[:, 0, 0] - self.rhos[:, 1, 1]).real

    @property
    def coherence_abs(self) -> np.ndarray:
        return np.abs(self.rhos[:, 0, 1])

    def to_csv(self) -> str:
        cols = [
            "t_us",
            "rho00_re", "rho00_im", "rho01_re", "rho01_im",
            "rho10_re", "rho10_im", "rho11_re", "rho11_im",
            "sx", "sy", "sz", "coherence_abs",
        ]
        lines = [",".join(cols)]
        sx, sy, sz, coh = self.sx, self.sy, self.sz, self.coherence_abs
        for i, t in enumerate(self.times_us):
            r = self.rhos[i]
            vals = [t]
            for entry in (r[0, 0], r[0, 1], r[1, 0], r[1, 1]):
                vals.extend((entry.real, entry.imag))
            vals.extend((sx[i], sy[i], sz[i], coh[i]))
            lines.append(",".join(repr(float(v)) for v in vals))
        return "\n".join(lines) + "\n"


def _validate_rho0(rho0) -> np.ndarray:
    r = np.asarray(rho0, dtype=complex)
    if r.shape != (2, 2) or not np.all(np.isfinite(r)):
        raise ValueError("rho0 must be a finite 2x2 matrix")
    if np.abs(r - r.conj().T).max() > 1e-12:
        raise ValueError("rho0 must be Hermitian within 1e-12")
    if abs(np.trace(r) - 1.0) > 1e-12:
        raise ValueError("rho0 must have unit trace within 1e-12")
    if np.linalg.eigvalsh(r).min() < -1e-10:
        raise ValueError("rho0 must be positive semi-definite")
    return r


def _integrate(gen: np.ndarray, rho0: np.ndarray, t_grid) -> SpinTrajectory:
    from scipy.linalg import expm

    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid needs at least two points")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("time grid must start at 0 and increase strictly")
    # d tr(rho)/dt is the sum of the rho00 and rho11 rows
    rows = gen[[0, 3]]
    leak = np.abs(rows.sum(axis=0)).max()
    if leak > TRACE_TOL * np.abs(rows).max():
        raise ValueError(
            f"generator does not preserve the trace: rows 0 and 3 sum to "
            f"{leak:.3e} rad/us"
        )

    samples = np.empty((t.size, 4), dtype=complex)
    samples[0] = rho0.reshape(4)
    propagators: dict[float, np.ndarray] = {}
    for i in range(1, t.size):
        dt = t[i] - t[i - 1]
        m = propagators.get(dt)
        if m is None:
            m = propagators[dt] = expm(gen * dt)
        samples[i] = m @ samples[i - 1]
    return SpinTrajectory(times_us=t, rhos=samples.reshape(t.size, 2, 2))


def lindblad_evolve(rho0, diss: JumpBasisDissipator, t_grid) -> SpinTrajectory:
    """Propagate rho0 under precession plus the Pauli-basis dissipator."""
    r = _validate_rho0(rho0)
    return _integrate(diss.superoperator_per_us(), r, t_grid)


# ---------------------------------------------------------------- redfield

def spectral_density(
    c: CouplingTensors,
    bath: BathSpec,
    spin: SpinSystem,
    channels=CHANNELS,
    include_elastic: bool = False,
):
    """Per-axis bath spectral density S_alpha(omega) in cm^-1.

    One-phonon channel: Lorentzians at +-omega_q weighted n+1 on the
    emission side and n on the absorption side.  Two-phonon channel:
    the same structure at +-2*omega_q with squared occupation factors
    from the diagonal second-order couplings; its zero-frequency
    (elastic) peak is excluded unless include_elastic is set, and is
    reported separately by the relaxation module instead.

    The couplings' spin index is rotated so that spin.axis becomes z,
    the quantization axis of the Redfield generator.
    """
    unknown = set(channels) - set(CHANNELS)
    if unknown:
        raise ValueError(f"unknown channels {sorted(unknown)}")
    pref = MUB_CM_PER_T * spin.field_magnitude_t
    rot = frame_rotation(spin.axis)
    G = pref * (rot @ c.d1)
    G2d = pref * (rot @ np.einsum("aqq->aq", c.d2))
    w_q = c.frequencies
    n = bose_occupation(w_q, bath.temperature_k)
    lam = bath.linewidth_per_mode(c.nmodes)

    def lor(x):
        return lam / (x * x + lam * lam)

    def s_of(omega: float) -> np.ndarray:
        out = np.zeros(3)
        if "one_phonon" in channels:
            weights = (n + 1.0) * lor(omega - w_q) + n * lor(omega + w_q)
            out += (2.0 / np.pi) * (G * G) @ weights
        if "two_phonon" in channels:
            weights = (n + 1.0) ** 2 * lor(omega - 2.0 * w_q) + n * n * lor(
                omega + 2.0 * w_q
            )
            if include_elastic:
                weights = weights + 2.0 * n * (n + 1.0) * lor(omega)
            out += (2.0 / np.pi) * (G2d * G2d) @ weights
        return out

    return s_of


def redfield_generator(
    s_of,
    omega_cm: float,
    secular: bool = True,
) -> np.ndarray:
    """Bloch-Redfield superoperator (rad/us) for S=1/2 with sigma couplings.

    Built in the energy eigenbasis with level 0 the upper state, so the
    transition frequency from 0 to 1 is +omega_cm and detailed balance
    in S_alpha pushes population toward level 1.
    """
    energies = np.array([0.5 * omega_cm, -0.5 * omega_cm])
    gap = energies[:, None] - energies[None, :]
    s_at = {}
    for w in np.unique(gap):
        s_at[float(w)] = s_of(float(w))

    gen = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            row = 2 * a + b
            gen[row, row] += -1.0j * gap[a, b]
            for cc in range(2):
                for d in range(2):
                    if secular and gap[a, b] != gap[cc, d]:
                        continue
                    col = 2 * cc + d
                    term = 0.0j
                    for alpha, sig in enumerate(PAULI):
                        term += 0.5 * sig[a, cc] * sig[d, b] * (
                            s_at[float(gap[cc, a])][alpha]
                            + s_at[float(gap[d, b])][alpha]
                        )
                        if b == d:
                            for nn in range(2):
                                term -= 0.5 * sig[a, nn] * sig[nn, cc] * (
                                    s_at[float(gap[cc, nn])][alpha]
                                )
                        if a == cc:
                            for nn in range(2):
                                term -= 0.5 * sig[d, nn] * sig[nn, b] * (
                                    s_at[float(gap[b, nn])][alpha]
                                )
                    gen[row, col] += term
    return gen * RATE_CM_TO_PER_US


def redfield_evolve(
    rho0,
    c: CouplingTensors,
    bath: BathSpec,
    spin: SpinSystem,
    t_grid,
    secular: bool = True,
    channels=CHANNELS,
    include_elastic: bool = False,
    spectrum_override=None,
) -> SpinTrajectory:
    """Propagate rho0 under the Bloch-Redfield generator of the bath.

    spectrum_override replaces the built-in spectral densities with a
    callable omega -> (3,) array; couplings and bath temperature are
    then ignored.
    """
    r = _validate_rho0(rho0)
    s_of = spectrum_override
    if s_of is None:
        s_of = spectral_density(c, bath, spin, channels, include_elastic)
    gen = redfield_generator(s_of, spin.larmor_cm(), secular=secular)
    return _integrate(gen, r, t_grid)


# --------------------------------------------------------------- rate fits

OBSERVABLES = ("sz_minus_eq", "coherence_abs")


@dataclass(frozen=True)
class DecayFit:
    rate_per_us: float
    amplitude: float
    offset: float
    residual_rms: float
    non_decaying: bool
    observable: str
    model: str


def _observable_series(traj: SpinTrajectory, observable: str) -> np.ndarray:
    if observable == "sz_minus_eq":
        return traj.sz
    if observable == "coherence_abs":
        return traj.coherence_abs
    raise ValueError(f"observable must be one of {OBSERVABLES}")


def fit_decay_rate(
    traj: SpinTrajectory,
    observable: str,
    model: str | None = None,
    window=None,
    residual_warn: float = 0.01,
) -> DecayFit:
    """Single-exponential fit of a trajectory observable.

    sz fits include a free equilibrium offset by default since the
    dissipator need not relax toward sz = 0.  window = (t_lo, t_hi)
    restricts the samples used, e.g. to skip an initial fast transient.
    """
    from scipy.optimize import curve_fit

    y = _observable_series(traj, observable)
    t = traj.times_us
    if model is None:
        model = "exp_offset" if observable == "sz_minus_eq" else "exp"
    if model not in ("exp", "exp_offset"):
        raise ValueError("model must be 'exp' or 'exp_offset'")
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, y = t[keep], y[keep]
    if t.size < 10:
        raise ValueError("need at least 10 samples to fit")

    ts = t - t[0]
    span = y.max() - y.min()
    if span <= max(1e-12, 1e-9 * np.abs(y).max()):
        return DecayFit(0.0, 0.0, float(y.mean()), 0.0, True, observable, model)

    offset0 = float(y[-1]) if model == "exp_offset" else 0.0
    amp0 = float(y[0] - offset0)
    drop = np.nonzero(np.abs(y - offset0) <= abs(amp0) / np.e)[0]
    rate0 = 1.0 / ts[drop[0]] if drop.size and ts[drop[0]] > 0 else 1.0 / ts[-1]

    if model == "exp_offset":
        def f(tt, a, r, cc):
            return a * np.exp(-r * tt) + cc
        p0 = (amp0, rate0, offset0)
        bounds = ([-np.inf, 0.0, -np.inf], [np.inf, np.inf, np.inf])
    else:
        def f(tt, a, r):
            return a * np.exp(-r * tt)
        p0 = (amp0, rate0)
        bounds = ([-np.inf, 0.0], [np.inf, np.inf])

    popt, _ = curve_fit(f, ts, y, p0=p0, bounds=bounds, maxfev=20000)
    amplitude = float(popt[0])
    rate = float(popt[1])
    offset = float(popt[2]) if model == "exp_offset" else 0.0
    residual = float(np.sqrt(np.mean((f(ts, *popt) - y) ** 2)))
    if residual > residual_warn * max(abs(amplitude), 1e-300):
        warnings.warn(
            f"decay fit residual {residual:.3e} exceeds "
            f"{residual_warn:.0%} of the amplitude", stacklevel=2
        )
    return DecayFit(
        rate_per_us=rate,
        amplitude=amplitude,
        offset=offset,
        residual_rms=residual,
        non_decaying=rate == 0.0,
        observable=observable,
        model=model,
    )
