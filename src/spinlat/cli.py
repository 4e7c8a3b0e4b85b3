"""Command-line batch runner.

Every subcommand reads one effective configuration (built-in defaults,
then an optional JSON config file, then flags, flags winning) and
writes deterministic artifacts that embed that configuration.  Identical
inputs give bitwise-identical outputs, so any result file can be traced
back to exactly one invocation.

Exit codes: 0 success, 2 for bad flags, malformed config, or missing
input files, 1 for errors raised while computing.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from .core import (PAIRING_MODES, RATE_CM_TO_PER_US, BathSpec, GTensor, SpinSystem,
                   raise_first_failure)
from .couplings import (
    CouplingTensors,
    build_couplings,
    export_couplings,
    load_couplings,
    same_direction,
)
from .dynamics import (
    JumpBasisDissipator,
    fit_decay_rate,
    frame_rotation,
    lindblad_evolve,
    redfield_evolve,
)
from .ingest import (
    ParseError,
    integer,
    json_object,
    load_run_set,
    numbers,
    one_of,
    parse_modes,
    plan_displacements,
    positive,
    refusal,
    write_displacement_set,
)
from .relaxation import (
    CONVENTIONS,
    build_tensor,
    mode_attribution,
    relaxation_times,
    sweep,
    sweep_csv,
    tensor_report,
)

CONFIG_FORMAT = "spinlat-config/1"


class UsageError(Exception):
    """Bad flags, bad config, or missing input files."""


# ------------------------------------------------------------ config


def _finite(shape=None, test=lambda arr: True, null=False):
    """The rule for finite JSON numbers of shape (any shape when None) whose
    array passes test, and for null when null is set."""
    def rule(value) -> bool:
        if value is None:
            return null
        arr = numbers(value, shape, finite=True)
        return arr is not None and bool(test(arr))
    return rule


def _grid(lo: float = -np.inf):
    """The rule for a nonempty list of finite numbers >= lo."""
    return _finite(test=lambda arr: arr.ndim == 1 and arr.size > 0 and (arr >= lo).all())


_PATH = (lambda v: v is None or type(v) is str, "a path string or null")
_POSITIVE = (positive, "positive and finite")

# every config key: its default, the test a value must pass, and what the
# test asks for
_CONFIG_KEYS = {
    "paths": {
        "modes": (None, *_PATH),
        "manifest": (None, *_PATH),
        "couplings": (None, *_PATH),
        "output_dir": (".", lambda v: type(v) is str, "a path string"),
    },
    "physics": {
        "temperatures_k": ([20.0], _grid(0.0), "a nonempty list of finite numbers >= 0"),
        "fields_mt": ([1266.0], _grid(), "a nonempty list of finite numbers"),
        "field_direction": ([0.0, 0.0, 1.0], _finite((3,), np.any),
                            "a finite nonzero 3-vector"),
        "g0": (None, _finite((3, 3), null=True), "null or a finite 3x3 matrix"),
        "linewidth_cm": (2.0, *_POSITIVE),
        "linewidth_overrides": (
            {}, lambda v: (type(v) is dict and all(map(str.isdecimal, v))
                           and len(set(map(int, v))) == len(v)
                           and all(map(positive, v.values()))),
            "an object mapping distinct mode numbers to positive finite numbers"),
        "gamma_cm": (2.0, *_POSITIVE),
        "pairing": ("diagonal_only", lambda v: one_of(v, PAIRING_MODES),
                    f"one of {PAIRING_MODES}"),
        "convention": ("projection", lambda v: one_of(v, CONVENTIONS),
                       f"one of {CONVENTIONS}"),
        "omega_override_cm": (None, _finite((), lambda arr: arr >= 0, null=True),
                              "null or a finite number >= 0"),
    },
    "numerics": {
        "delta_angstrom": (0.01, *_POSITIVE),
        "fit_window_us": (None, _finite((2,), lambda arr: arr[0] < arr[1], null=True),
                          "null or [lo, hi] with finite lo < hi"),
        "time_samples": (2001, lambda v: integer(v, 10, np.inf), "an integer >= 10"),
    },
}
_DEFAULTS = {"format": CONFIG_FORMAT, **{
    section: {key: rule[0] for key, rule in keys.items()}
    for section, keys in _CONFIG_KEYS.items()}}


def _merge_config(path) -> dict:
    cfg = copy.deepcopy(_DEFAULTS)
    if path is None:
        return cfg
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        doc = json_object(p.read_text(), "config", CONFIG_FORMAT)
    except ParseError as e:
        raise UsageError(str(e)) from None
    for section, values in doc.items():
        if section == "format":
            continue
        if section not in cfg:
            raise UsageError(f"unknown config key {section!r}")
        if not isinstance(values, dict):
            raise UsageError(refusal("config", section, "an object", values))
        for key, value in values.items():
            if key not in cfg[section]:
                raise UsageError(f"unknown config key '{section}.{key}'")
            cfg[section][key] = value
    return cfg


def _parse_grid(text: str, flag: str) -> list[float]:
    """'20' -> [20.0]; '10,20' -> list; '5:300:60' -> inclusive grid."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"{flag} range must be start:stop:count, got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise UsageError(f"{flag} range must be numeric, got {text!r}") from None
        if count < 1:
            raise UsageError(f"{flag} range count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"{flag} must be a number, list, or range, got {text!r}") from None


def _parse_vector(text: str, flag: str, names=("x", "y", "z")) -> list[float]:
    """The comma-separated numbers of a flag, one for each of names."""
    try:
        vec = [float(tok) for tok in text.split(",")]
    except ValueError:
        vec = []
    if len(vec) != len(names):
        raise UsageError(f"{flag} must be {','.join(names)}, got {text!r}")
    return vec


def _apply_flags(cfg: dict, args: argparse.Namespace) -> None:
    paths, phys, num = cfg["paths"], cfg["physics"], cfg["numerics"]
    flag_map = [
        ("modes", paths, "modes", str),
        ("manifest", paths, "manifest", str),
        ("couplings", paths, "couplings", str),
        ("out", paths, "output_dir", str),
        ("linewidth", phys, "linewidth_cm", float),
        ("gamma", phys, "gamma_cm", float),
        ("pairing", phys, "pairing", str),
        ("convention", phys, "convention", str),
        ("omega", phys, "omega_override_cm", float),
        ("delta", num, "delta_angstrom", float),
        ("samples", num, "time_samples", int),
        ("temp", phys, "temperatures_k", lambda v: _parse_grid(v, "--temp")),
        ("field_mt", phys, "fields_mt", lambda v: _parse_grid(v, "--field-mt")),
        ("field_dir", phys, "field_direction", lambda v: _parse_vector(v, "--field-dir")),
        ("fit_window", num, "fit_window_us",
         lambda v: _parse_vector(v, "--fit-window", ("lo", "hi"))),
    ]
    for attr, section, key, cast in flag_map:
        value = getattr(args, attr, None)
        if value is not None:
            section[key] = cast(value)
    if getattr(args, "top", None) is not None and args.top < 1:
        raise UsageError(f"--top must be >= 1, got {args.top}")
    t_end = getattr(args, "t_end", None)
    if t_end is not None and not positive(t_end):
        raise UsageError(f"--t-end must be positive and finite, got {t_end}")


def _validate_config(cfg: dict, need: tuple[str, ...]) -> None:
    """Refuse a value that fails its key's rule, naming the key; drop repeated
    grid values.

    Repeats are dropped keeping the first occurrence, so the config that
    artifacts embed holds the grid actually computed.
    """
    for section, keys in _CONFIG_KEYS.items():
        for key, (_, test, what) in keys.items():
            if not test(cfg[section][key]):
                raise UsageError(refusal("config", f"{section}.{key}", what,
                                         cfg[section][key]))
    paths, phys = cfg["paths"], cfg["physics"]
    for key in ("temperatures_k", "fields_mt"):
        phys[key] = list(dict.fromkeys(phys[key]))
    for key in need:
        value = paths[key]
        if value is None:
            raise UsageError(f"paths.{key} is required (flag --{key})")
        if not Path(value).is_file():
            raise UsageError(f"paths.{key} file not found: {value}")


# ---------------------------------------------------- shared assembly


def _config_comment(cfg: dict) -> str:
    return "# config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["paths"]["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _assemble_couplings(cfg: dict) -> tuple[CouplingTensors, np.ndarray | None]:
    """Couplings plus the baseline g matrix when runs are available.

    Records the finite-difference step the couplings were built with in
    the config, so every artifact embeds the step actually used.  A
    couplings file built along another field direction is refused.
    """
    paths, direction = cfg["paths"], cfg["physics"]["field_direction"]
    if paths["couplings"] is not None:
        _validate_config(cfg, need=("couplings",))
        c, baseline = load_couplings(Path(paths["couplings"])), None
        if not same_direction(c.field_direction, direction):
            raise UsageError(
                f"physics.field_direction {direction} differs from "
                f"{c.field_direction.tolist()}, the direction couplings file "
                f"{paths['couplings']} was built along"
            )
    else:
        _validate_config(cfg, need=("modes", "manifest"))
        modeset = parse_modes(Path(paths["modes"]))
        runset = load_run_set(paths["manifest"], modeset)
        c = build_couplings(runset, field_direction=direction)
        baseline = runset.baseline
    cfg["numerics"]["delta_angstrom"] = c.delta_angstrom
    return c, baseline


def _spin_system(cfg: dict, c: CouplingTensors, baseline_g, field_mt: float) -> SpinSystem:
    """The spin in a field of field_mt along the couplings' direction."""
    phys = cfg["physics"]
    if baseline_g is None:
        if phys["g0"] is None:
            raise UsageError(
                "physics.g0 is required when starting from a couplings file"
            )
        baseline_g = np.asarray(phys["g0"], dtype=float)
    return SpinSystem(
        g0=GTensor(baseline_g),
        field_mt=c.field_direction * field_mt,
        axis=c.field_direction,
        omega_override_cm=phys["omega_override_cm"],
    )


def _bath(cfg: dict, c: CouplingTensors, temperature_k: float) -> BathSpec:
    phys = cfg["physics"]
    linewidth = np.full(c.nmodes, float(phys["linewidth_cm"]))
    for num, value in phys["linewidth_overrides"].items():
        hit = np.nonzero(c.source_indices == int(num))[0]
        if hit.size == 0:
            raise UsageError(
                f"physics.linewidth_overrides names unknown mode {num!r}"
            )
        linewidth[hit] = float(value)
    return BathSpec(
        temperature_k=temperature_k,
        gamma_cm=float(phys["gamma_cm"]),
        linewidth_cm=linewidth,
        raman_pairing=phys["pairing"],
    )


def _sweep_grid(cfg: dict, c: CouplingTensors, spin: SpinSystem) -> list:
    """`sweep` over the configured (T, B) grid.

    `sweep` takes only the field direction from `spin`, so callers build
    it at any nonzero field and the grid may include B = 0.
    """
    phys = cfg["physics"]
    return sweep(
        c,
        spin,
        phys["temperatures_k"],
        phys["fields_mt"],
        _bath(cfg, c, phys["temperatures_k"][0]),
        convention=phys["convention"],
    )


def _one_point(cfg: dict, command: str) -> tuple[CouplingTensors, BathSpec, SpinSystem]:
    """Couplings, bath and spin at the one (T, B) point command runs at."""
    c, baseline = _assemble_couplings(cfg)
    point = []
    for key, flag in (("temperatures_k", "--temp"), ("fields_mt", "--field-mt")):
        values = cfg["physics"][key]
        if len(values) != 1:
            raise UsageError(f"{command} {flag} needs exactly one value, got {len(values)}")
        point.append(float(values[0]))
    spin = _spin_system(cfg, c, baseline, point[1])
    return c, _bath(cfg, c, point[0]), spin


# --------------------------------------------------------- subcommands


def _cmd_displace(args: argparse.Namespace, cfg: dict) -> int:
    _validate_config(cfg, need=("modes",))
    modeset = parse_modes(Path(cfg["paths"]["modes"]), skip_soft=args.skip_soft)
    plan = plan_displacements(
        modeset,
        delta=cfg["numerics"]["delta_angstrom"],
        order=args.order,
        pairing=cfg["physics"]["pairing"],
    )
    out = _outdir(cfg)
    manifest = write_displacement_set(
        plan, modeset, out, cfg["numerics"]["delta_angstrom"]
    )
    _write_json(out / "displace.config.json", {
        "config": cfg,
        "geometries": len(plan),
        "manifest": manifest.name,
    })
    print(f"wrote {len(plan)} geometries + {manifest.name} to {out}")
    return 0


def _cmd_couplings(args: argparse.Namespace, cfg: dict) -> int:
    c, _ = _assemble_couplings(cfg)
    out = _outdir(cfg)
    export_couplings(c, out / "couplings.json", config=cfg)
    kinds = "d1+d2 mixed" if c.mixed_computed else "d1+d2 diagonal"
    print(f"wrote couplings.json ({c.nmodes} modes, {kinds}) to {out}")
    return 0


def _cmd_tensor(args: argparse.Namespace, cfg: dict) -> int:
    c, bath, spin = _one_point(cfg, "tensor")
    phys = cfg["physics"]
    tensor = build_tensor(c, bath, spin)
    report = tensor_report(tensor, axis=spin.axis, top_m=args.top)
    report["config"] = cfg
    out = _outdir(cfg)
    _write_json(out / "tensor.json", report)
    times = report["times_us"][phys["convention"]]
    print(
        f"omega = {tensor.omega_cm:.6g} cm^-1, "
        f"T1 = {times['t1']:.6g} us, T2 = {times['t2']:.6g} us "
        f"({phys['convention']}) -> tensor.json"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    c, baseline = _assemble_couplings(cfg)
    phys = cfg["physics"]
    points = _sweep_grid(cfg, c, _spin_system(cfg, c, baseline, 1.0))
    out = _outdir(cfg)
    header = _config_comment(cfg)
    (out / "sweep.csv").write_text(header + "\n" + sweep_csv(points))
    fields = phys["fields_mt"]
    for field in fields:
        rows = [p for p in points if p.field_mt == field]
        for name, pick in (("t1", lambda p: p.t1_us), ("t2", lambda p: p.t2_us)):
            lines = [header, "# columns: temperature_k inv_%s_per_us" % name]
            for p in rows:
                rate = 0.0 if np.isinf(pick(p)) else 1.0 / pick(p)
                lines.append(f"{p.temperature_k!r} {rate!r}")
            tag = np.format_float_positional(field, trim="-")
            path = out / f"inv_{name}_vs_temp_{tag}mT.dat"
            path.write_text("\n".join(lines) + "\n")
    print(
        f"wrote sweep.csv ({len(points)} points) and "
        f"{2 * len(fields)} plot files to {out}"
    )
    return 0


def _cmd_attribute(args: argparse.Namespace, cfg: dict) -> int:
    c, bath, spin = _one_point(cfg, "attribute")
    att = mode_attribution(c, bath, spin, top_m=args.top)
    rows = [
        {
            "mode": int(att.mode_numbers[i]),
            "frequency_cm": float(att.frequencies_cm[i]),
            "trace_share1": float(att.trace_share1[i]),
            "trace_share2": float(att.trace_share2[i]),
        }
        for i in range(att.mode_numbers.size)
    ]
    out = _outdir(cfg)
    _write_json(out / "attribution.json", {"config": cfg, "modes": rows})
    for row in rows:
        print(
            f"mode {row['mode']:4d}  {row['frequency_cm']:10.3f} cm^-1  "
            f"share1 {row['trace_share1']:.4f}  share2 {row['trace_share2']:.4f}"
        )
    return 0


def _cmd_dynamics(args: argparse.Namespace, cfg: dict) -> int:
    if args.engine == "redfield" and cfg["physics"]["pairing"] == "all_pairs":
        # the Redfield bath has no two-phonon pair channel, so it would
        # silently run the diagonal_only bath
        raise UsageError("physics.pairing 'all_pairs' is not supported by "
                         "--engine redfield; use 'diagonal_only'")
    c, bath, spin = _one_point(cfg, "dynamics")
    num = cfg["numerics"]
    tensor = build_tensor(c, bath, spin)
    analytic = relaxation_times(tensor, axis=spin.axis, convention="lindblad")

    if args.kind == "t1":
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        observable = "sz_minus_eq"
        span = 4.0 * analytic.t1_us
    else:
        rho0 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        observable = "coherence_abs"
        span = 4.0 * analytic.t2_us
    if args.t_end is not None:
        span = float(args.t_end)
    if not np.isfinite(span):
        raise UsageError(
            "analytic relaxation time is infinite; pass --t-end explicitly"
        )
    grid = np.linspace(0.0, span, int(num["time_samples"]))
    window = num["fit_window_us"]
    if window is not None and np.sum((grid >= window[0]) & (grid <= window[1])) < 10:
        raise UsageError(f"numerics.fit_window_us {window} holds fewer than 10 "
                         f"of the {grid.size} time samples")

    if args.engine == "lindblad":
        rot = frame_rotation(spin.axis)
        lam = rot @ tensor.lambda_total @ rot.T
        omega = spin.larmor_cm()
        if args.rotating_frame:
            # secular approximation (Breuer & Petruccione, The Theory of Open
            # Quantum Systems, 2002, ch. 3): the xz and yz terms rotate at
            # Omega and the xy anisotropy at 2 Omega, so they average out;
            # Tr L and n.L.n, hence the analytic times, are kept
            transverse = 0.5 * (lam[0, 0] + lam[1, 1])
            lam = np.diag([transverse, transverse, lam[2, 2]])
            omega = 0.0
        diss = JumpBasisDissipator(lam, omega)
        traj = lindblad_evolve(rho0, diss, grid)
    else:
        traj = redfield_evolve(rho0, c, bath, spin, grid)
    fit = fit_decay_rate(
        traj, observable, window=None if window is None else tuple(window)
    )
    out = _outdir(cfg)
    (out / "trajectory.csv").write_text(
        _config_comment(cfg) + "\n" + traj.to_csv()
    )
    fitted_time = float("inf") if fit.rate_per_us == 0.0 else 1.0 / fit.rate_per_us
    _write_json(out / "dynamics.json", {
        "config": cfg,
        "engine": args.engine,
        "kind": args.kind,
        "observable": observable,
        "fitted_rate_per_us": fit.rate_per_us,
        "fitted_time_us": fitted_time,
        "residual_rms": fit.residual_rms,
        "non_decaying": fit.non_decaying,
        "analytic_t1_us": analytic.t1_us,
        "analytic_t2_us": analytic.t2_us,
    })
    print(
        f"{args.kind} fit: {fitted_time:.6g} us "
        f"(analytic {analytic.t1_us if args.kind == 't1' else analytic.t2_us:.6g} us) "
        f"-> trajectory.csv, dynamics.json"
    )
    return 0


def _cmd_validate(args: argparse.Namespace, cfg: dict) -> int:
    _validate_config(cfg, need=("modes", "manifest"))
    paths, phys = cfg["paths"], cfg["physics"]
    checks: list[tuple[str, bool, str]] = []
    state: dict = {}

    def run(name: str, func) -> None:
        try:
            func()
            checks.append((name, True, ""))
        except Exception as e:  # report, never abort the table
            checks.append((name, False, str(e)))

    def parse():
        state["modeset"] = parse_modes(Path(paths["modes"]))

    def manifest():
        state["runset"] = load_run_set(paths["manifest"], state["modeset"])

    def baseline_g():
        state["g0"] = GTensor(state["runset"].baseline)

    def couplings():
        state["c"] = build_couplings(
            state["runset"], field_direction=phys["field_direction"]
        )

    def tensors():
        # sweep runs RelaxationTensor's checks (finite, symmetric PSD, split
        # sums) on each field's grid points at once, naming a failing point
        state["spin"] = _spin_system(cfg, state["c"], state["runset"].baseline, 1.0)
        state["points"] = _sweep_grid(cfg, state["c"], state["spin"])

    def identity():
        # criterion 08 on the rows' reported times, stacked, no eigen-solve:
        # 1/T2 + 1/(2 T1) is Tr L (projection) or 2 Tr L (lindblad)
        points = state["points"]
        rate1, rate2 = (1.0 / np.array([(p.t1_us, p.t2_us) for p in points])
                        / RATE_CM_TO_PER_US).T
        trace = np.trace(np.array([p.lambda1 + p.lambda2 for p in points]),
                         axis1=1, axis2=2)
        scale = 1.0 if phys["convention"] == "projection" else 2.0
        dev = np.abs(rate2 + 0.5 * rate1 - scale * trace)
        raise_first_failure(
            ~(dev <= 1e-12 * trace), "T2 identity",
            lambda i: f"violated by {dev[i]:.3e}",
            [f"{p.temperature_k!r} K, {p.field_mt!r} mT" for p in points])

    run("modes-parse", parse)
    if state.get("modeset") is not None:
        run("manifest-complete", manifest)
    if state.get("runset") is not None:
        run("baseline-g", baseline_g)
        run("couplings-assemble", couplings)
    if state.get("c") is not None:
        run("tensor-psd", tensors)
    if state.get("points") is not None:
        run("time-identity", identity)

    width = max(len(name) for name, _, _ in checks)
    failed = False
    for name, ok, message in checks:
        line = f"CHECK {name:<{width}} {'PASS' if ok else 'FAIL'}"
        if message:
            line += f"  ({message})"
        print(line)
        failed = failed or not ok
    return 1 if failed else 0


# -------------------------------------------------------------- parser


def _add_io_flags(sp: argparse.ArgumentParser, couplings: bool = True) -> None:
    sp.add_argument("--config", help="JSON config file (spinlat-config/1)")
    sp.add_argument("--modes", help="NMODES file")
    sp.add_argument("--manifest", help="displacement run manifest")
    if couplings:
        sp.add_argument("--couplings", help="precomputed couplings JSON")
    sp.add_argument("--out", help="output directory (default '.')")


def _add_physics_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--temp", help="temperature K: value, list, or start:stop:count")
    sp.add_argument("--field-mt", help="field mT: value, list, or start:stop:count")
    sp.add_argument("--field-dir", help="field direction as x,y,z")
    sp.add_argument("--linewidth", type=float, help="Lorentzian half-width, cm^-1")
    sp.add_argument("--gamma", type=float, help="one-phonon damping rate, cm^-1")
    sp.add_argument("--pairing", choices=PAIRING_MODES)
    sp.add_argument("--convention", choices=CONVENTIONS)
    sp.add_argument("--omega", type=float, help="pin the spin frequency, cm^-1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlat",
        description="Mode-resolved spin-lattice relaxation batch runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("displace", help="write displaced geometries + manifest")
    _add_io_flags(sp, couplings=False)
    sp.add_argument("--delta", type=float, help="step size, Angstrom")
    sp.add_argument("--order", type=int, choices=(1, 2), default=2)
    sp.add_argument("--pairing", choices=PAIRING_MODES)
    sp.add_argument("--skip-soft", action="store_true",
                    help="drop modes below 1 cm^-1 instead of failing")

    sp = sub.add_parser("couplings", help="finite-difference couplings from runs")
    _add_io_flags(sp, couplings=False)
    sp.add_argument("--field-dir", help="field direction as x,y,z")

    sp = sub.add_parser("tensor", help="rate tensor report at one (T, B) point")
    _add_io_flags(sp)
    _add_physics_flags(sp)
    sp.add_argument("--top", type=int, help="modes listed in the report")

    sp = sub.add_parser("sweep", help="T1/T2 over a temperature and field grid")
    _add_io_flags(sp)
    _add_physics_flags(sp)

    sp = sub.add_parser("attribute", help="per-mode contribution ranking")
    _add_io_flags(sp)
    _add_physics_flags(sp)
    sp.add_argument("--top", type=int, help="keep the top M modes")

    sp = sub.add_parser("dynamics", help="integrate the master equation and fit")
    _add_io_flags(sp)
    _add_physics_flags(sp)
    sp.add_argument("--kind", choices=("t1", "t2"), default="t1")
    sp.add_argument("--engine", choices=("lindblad", "redfield"), default="lindblad")
    sp.add_argument("--t-end", type=float, help="trajectory span, us")
    sp.add_argument("--samples", type=int, help="trajectory sample count")
    sp.add_argument("--fit-window", help="fit window lo,hi in us")
    sp.add_argument("--no-rotating-frame", dest="rotating_frame",
                    action="store_false",
                    help="keep coherent precession in the lindblad engine")

    sp = sub.add_parser("validate", help="run invariant checks on a dataset")
    _add_io_flags(sp, couplings=False)
    _add_physics_flags(sp)

    return parser


_HANDLERS = {
    "displace": _cmd_displace,
    "couplings": _cmd_couplings,
    "tensor": _cmd_tensor,
    "sweep": _cmd_sweep,
    "attribute": _cmd_attribute,
    "dynamics": _cmd_dynamics,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _merge_config(args.config)
        _apply_flags(cfg, args)
        return _HANDLERS[args.command](args, cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
