"""Two-level master-equation propagation and decay-rate extraction.

The state is the real Bloch vector m = (mx, my, mz) of
rho = (1 + m.sigma)/2, with z the quantization axis.  Both engines make
dm/dt = A m + b a constant real flow, held as one 4x4 affine generator
on (1, mx, my, mz).  It is assembled in cm^-1 and scaled once to rad/us,
so trajectory times are microseconds throughout.

Lindblad engine: for jump-basis coefficients L (real symmetric, PSD)
and precession Omega about z, the generator is
Omega K_z - 2 (Tr L I - L), where K_z generates rotation about z.  It
has no affine part, so the spin relaxes toward m = 0.

Redfield engine: the secular Bloch-Redfield generator for S = 1/2 with
sigma couplings (Slichter, Principles of Magnetic Resonance, ch. 5;
Breuer and Petruccione, The Theory of Open Quantum Systems, 2002,
ch. 3).  Level 0 is the upper state, so with
G_down = S_x(Omega) + S_y(Omega) and G_up = S_x(-Omega) + S_y(-Omega),

    dmz/dt = -(G_down + G_up) mz + (G_up - G_down),

and mx, my precess at Omega while decaying at
(G_down + G_up)/2 + 2 S_z(0).  At Omega = 0 this is the Omega -> 0
limit: G_down = G_up, so there is no drift, and mx, my decay at
S_x(0) + S_y(0) + 2 S_z(0), as under the Lindblad engine's rotating
frame with L = diag(t, t, S_z(0)), t = (S_x(0) + S_y(0))/2.

Propagation is exact: each distinct grid spacing dt gets one propagator
exp(G dt), from scaling and squaring with the [13/13] Pade approximant
(Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005), and each sample
costs one 4x4 product, whatever the ratio of precession to decay.
Every sample is Hermitian with unit trace by construction; rho is
positive exactly when |m| <= 1, which every trajectory is checked for.

Decay rates come from a variable-projection least-squares fit (Golub
and Pereyra, SIAM J. Numer. Anal. 10, 413, 1973): the amplitude and
offset are solved in closed form at each trial rate, leaving a 1-D
search over the log of the rate.

`frame_rotation` gives the rotation that carries any field axis to z,
for rotating tensors and couplings into that frame.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    RATE_CM_TO_PER_US,
    BathSpec,
    SpinSystem,
    _set_array,
    bose_occupation,
    check_rate_matrix,
)
from .couplings import CouplingTensors, field_prefactor
from .relaxation import lorentzian

# a fit whose rms residual exceeds this fraction of its amplitude warns
RESIDUAL_WARN = 0.01

# dm/dt = K_z m rotates m about z by +1 rad per unit time
_K_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _affine(block: np.ndarray, drift: float = 0.0) -> np.ndarray:
    """Generator (rad/us) on (1, mx, my, mz) of dm/dt = block m + drift z.

    block and drift are in cm^-1.
    """
    gen = np.zeros((4, 4))
    gen[1:, 1:] = block
    gen[3, 0] = drift
    return gen * RATE_CM_TO_PER_US


@dataclass(frozen=True, eq=False)
class JumpBasisDissipator:
    """Pauli-basis dissipator coefficients (cm^-1) plus the precession Omega."""

    lam_cm: np.ndarray
    omega_cm: float

    def __post_init__(self):
        check_rate_matrix(_set_array(self, "lam_cm", finite=False), "lam_cm", stack=False)
        if not np.isfinite(self.omega_cm) or self.omega_cm < 0.0:
            raise ValueError("omega_cm must be finite and nonnegative")

    def generator_per_us(self) -> np.ndarray:
        """Affine Bloch generator Omega K_z - 2 (Tr L I - L), rad/us."""
        lam = self.lam_cm
        return _affine(
            self.omega_cm * _K_Z - 2.0 * (np.trace(lam) * np.eye(3) - lam)
        )


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

@dataclass(frozen=True, eq=False)
class SpinTrajectory:
    """Bloch-vector samples (T, 3) on a time grid, with derived observables."""

    times_us: np.ndarray
    bloch: np.ndarray

    def __post_init__(self):
        t = _set_array(self, "times_us", (np.size(self.times_us),))  # 1-d
        m = _set_array(self, "bloch", (t.size, 3), finite=False)
        # the eigenvalues of rho are (1 -+ |m|)/2; NaN fails this test too
        if not np.linalg.norm(m, axis=1).max() <= 1.0 + 2e-8:
            raise ValueError("trajectory has eigenvalue below -1e-8")

    @property
    def sx(self) -> np.ndarray:
        return self.bloch[:, 0]

    @property
    def sy(self) -> np.ndarray:
        return self.bloch[:, 1]

    @property
    def sz(self) -> np.ndarray:
        return self.bloch[:, 2]

    @property
    def coherence_abs(self) -> np.ndarray:
        """|rho01| = |mx - i my| / 2."""
        return 0.5 * np.hypot(self.sx, self.sy)

    def to_csv(self) -> str:
        """Columns t_us, sx, sy, sz; rho = (1 + m.sigma)/2."""
        columns = (self.times_us, self.sx, self.sy, self.sz)
        text = (map(repr, column.tolist()) for column in columns)
        return "\n".join(["t_us,sx,sy,sz", *map(",".join, zip(*text))]) + "\n"


def _validate_rho0(rho0) -> np.ndarray:
    """The Bloch vector of a checked 2x2 density matrix."""
    r = np.asarray(rho0, dtype=complex)
    if r.shape != (2, 2) or not np.all(np.isfinite(r)):
        raise ValueError("rho0 must be a finite 2x2 matrix")
    if np.abs(r - r.conj().T).max() > 1e-12:
        raise ValueError("rho0 must be Hermitian within 1e-12")
    if abs(np.trace(r) - 1.0) > 1e-12:
        raise ValueError("rho0 must have unit trace within 1e-12")
    if np.linalg.eigvalsh(r).min() < -1e-10:
        raise ValueError("rho0 must be positive semi-definite")
    return np.real([r[0, 1] + r[1, 0], 1j * (r[0, 1] - r[1, 0]), r[0, 0] - r[1, 1]])


# [13/13] Pade coefficients and the 1-norm up to which the approximant
# is accurate to double precision (Higham 2005, table 2.3)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with the [13/13] Pade approximant."""
    norm = np.abs(a).sum(axis=0).max()
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    ident = np.eye(a.shape[0])
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _integrate(gen: np.ndarray, m0: np.ndarray, t_grid) -> SpinTrajectory:
    """Samples of (1, m) propagated under the affine Bloch generator gen."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid needs at least two points")
    if not np.isfinite(t).all():
        raise ValueError("time grid must be finite")
    steps = np.diff(t)
    if t[0] != 0.0 or np.any(steps <= 0.0):
        raise ValueError("time grid must start at 0 and increase strictly")
    samples = np.empty((t.size, 4))
    samples[0] = (1.0, *m0)
    spacings, step_of = np.unique(steps, return_inverse=True)
    propagators = [_expm(gen * dt) for dt in spacings]
    for i, k in enumerate(step_of.tolist(), 1):
        np.matmul(propagators[k], samples[i - 1], out=samples[i])
    return SpinTrajectory(times_us=t, bloch=samples[:, 1:])


def lindblad_evolve(rho0, diss: JumpBasisDissipator, t_grid) -> SpinTrajectory:
    """Propagate rho0 under precession plus the Pauli-basis dissipator."""
    return _integrate(diss.generator_per_us(), _validate_rho0(rho0), t_grid)


# ---------------------------------------------------------------- redfield

def spectral_density(c: CouplingTensors, bath: BathSpec, spin: SpinSystem):
    """Per-axis bath spectral density S_alpha(omega) in cm^-1.

    One-phonon channel: Lorentzians at +-omega_q weighted n+1 on the
    emission side and n on the absorption side.  Two-phonon channel:
    the same structure at +-2*omega_q with squared occupation factors
    from the diagonal second-order couplings; its zero-frequency
    (elastic) peak is left out.  There is no two-phonon pair channel, so
    a bath whose raman_pairing is all_pairs is refused.

    The couplings' spin index is rotated so that spin.axis becomes z,
    the quantization axis of the Redfield generator.
    """
    if bath.raman_pairing != "diagonal_only":
        raise ValueError(f"raman_pairing {bath.raman_pairing!r} is refused: the Redfield "
                         "bath has no two-phonon pair channel")
    pref = field_prefactor(c, spin)
    rot = frame_rotation(spin.axis)
    G = pref * (rot @ c.d1)
    G2d = pref * (rot @ np.einsum("aqq->aq", c.d2))
    w_q = c.frequencies
    n = bose_occupation(w_q, bath.temperature_k)
    lam = bath.linewidth_per_mode(c.nmodes)

    def lor(x):
        return 2.0 * lorentzian(x, lam)

    def s_of(omega: float) -> np.ndarray:
        return ((G * G) @ ((n + 1.0) * lor(omega - w_q) + n * lor(omega + w_q))
                + (G2d * G2d) @ ((n + 1.0) ** 2 * lor(omega - 2.0 * w_q)
                                 + n * n * lor(omega + 2.0 * w_q)))

    return s_of


def redfield_generator(s_of, omega_cm: float) -> np.ndarray:
    """Affine Bloch generator (rad/us) of the secular Bloch-Redfield equation.

    S = 1/2 with sigma couplings and spectral density s_of (cm^-1); one
    closed form, given in the module docstring, holds at every omega_cm,
    0 included, and reads S_x and S_y only through their sum.
    """
    down = s_of(omega_cm)[:2].sum()
    up = s_of(-omega_cm)[:2].sum()
    transverse = 0.5 * (down + up) + 2.0 * s_of(0.0)[2]
    block = omega_cm * _K_Z - np.diag([transverse, transverse, down + up])
    return _affine(block, up - down)


def redfield_evolve(
    rho0, c: CouplingTensors, bath: BathSpec, spin: SpinSystem, t_grid
) -> SpinTrajectory:
    """Propagate rho0 under the secular Bloch-Redfield generator of the bath."""
    gen = redfield_generator(spectral_density(c, bath, spin), spin.larmor_cm())
    return _integrate(gen, _validate_rho0(rho0), t_grid)


# --------------------------------------------------------------- rate fits

OBSERVABLES = ("sz_minus_eq", "coherence_abs")


@dataclass(frozen=True)
class DecayFit:
    rate_per_us: float
    residual_rms: float


def _observable_series(traj: SpinTrajectory, observable: str) -> np.ndarray:
    if observable == "sz_minus_eq":
        return traj.sz
    if observable == "coherence_abs":
        return traj.coherence_abs
    raise ValueError(f"observable must be one of {OBSERVABLES}")


_GOLD = 0.5 * (np.sqrt(5.0) - 1.0)
# bracket width at which the search over log r stops: 1e-10 relative in r
_LOG_RATE_TOL = 1e-10


def _local_min(f, u0: float) -> float:
    """A local minimum of f reached downhill from u0.

    The bracket grows by golden-ratio steps until f rises, then golden
    section narrows it below _LOG_RATE_TOL (Press et al., Numerical
    Recipes, 3rd ed., 2007, sections 10.1-10.2).  The growth ends once
    f stops falling, as it does when exp(-r t) saturates at 1 or 0.
    """
    a, b = u0, u0 + 1.0
    fa, fb = f(a), f(b)
    if fb > fa:
        a, b, fb = b, a, fa
    c = b + (b - a) / _GOLD
    fc = f(c)
    while fc < fb:
        a, b, fb = b, c, fc
        c = b + (b - a) / _GOLD
        fc = f(c)
    lo, hi = min(a, c), max(a, c)
    x1, x2 = hi - _GOLD * (hi - lo), lo + _GOLD * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > _LOG_RATE_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLD * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLD * (hi - lo)
            f2 = f(x2)
    return x1 if f1 <= f2 else x2


def _solver(ts: np.ndarray, y: np.ndarray, with_offset: bool):
    """solve(rate): the least-squares amplitude of exp(-rate ts) and offset (0
    unless with_offset) for y, in closed form, and the residual fit - y."""
    y_mean = y.mean() if with_offset else 0.0
    y_centred = y - y_mean

    def solve(rate: float) -> tuple[tuple[float, float], np.ndarray]:
        decay = np.exp(-rate * ts)
        d_mean = decay.mean() if with_offset else 0.0
        centred = decay - d_mean
        norm2 = centred @ centred
        # decay[0] is 1, so a constant decay is the offset: split the mean evenly
        amp = centred @ y_centred / norm2 if norm2 > 0.0 else 0.5 * y_mean
        offset = y_mean - amp * d_mean
        return (amp, offset), amp * decay + offset - y

    return solve


def fit_decay_rate(traj: SpinTrajectory, observable: str, window=None) -> DecayFit:
    """Single-exponential least-squares fit of a trajectory observable.

    sz fits include a free equilibrium offset since the dissipator need
    not relax toward sz = 0.  window = (t_lo, t_hi) restricts the samples
    used, e.g. to skip an initial fast transient.  The amplitude and
    offset are linear, so each trial rate r >= 0 solves for them in
    closed form, the centred two-column solution, and only log r is
    searched, from the time the signal takes to fall by 1/e.  At r = 0
    the decay is collinear with the offset, and gets half the mean, the
    minimum-norm split.  A best rate too small for its decay to bend over
    the window, as growth away from the offset gives, is reported as 0.
    """
    y = _observable_series(traj, observable)
    t = traj.times_us
    with_offset = observable == "sz_minus_eq"
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, y = t[keep], y[keep]
    if t.size < 10:
        raise ValueError("need at least 10 samples to fit")

    ts = t - t[0]
    span = y.max() - y.min()
    if span <= max(1e-12, 1e-9 * np.abs(y).max()):
        return DecayFit(0.0, 0.0)

    offset0 = float(y[-1]) if with_offset else 0.0
    amp0 = float(y[0] - offset0)
    drop = np.nonzero(np.abs(y - offset0) <= abs(amp0) / np.e)[0]
    rate0 = 1.0 / ts[drop[0]] if drop.size and ts[drop[0]] > 0 else 1.0 / ts[-1]

    solve = _solver(ts, y, with_offset)

    def cost(log_rate: float) -> float:
        res = solve(np.exp(log_rate))[1]
        return res @ res

    rate = float(np.exp(_local_min(cost, np.log(rate0))))
    coef, res = solve(rate)
    # r = 0 is allowed: a constant wins when no decay fits better
    coef0, res0 = solve(0.0)
    if res0 @ res0 <= res @ res:
        rate, coef, res = 0.0, coef0, res0
    amplitude = float(coef[0])
    residual = float(np.sqrt(np.mean(res**2)))
    if residual > RESIDUAL_WARN * max(abs(amplitude), 1e-300):
        warnings.warn(
            f"decay fit residual {residual:.3e} exceeds "
            f"{RESIDUAL_WARN:.0%} of the amplitude", stacklevel=2
        )
    # at (r span)^2 <= 2 eps the decay's bend, r span / 2 of its slope, is below
    # its rounding, eps / (r span): the fit is the r -> 0 limit, so r = 0
    if (rate * ts[-1]) ** 2 <= 2.0 * np.finfo(float).eps:
        rate = 0.0
    return DecayFit(rate, residual)
