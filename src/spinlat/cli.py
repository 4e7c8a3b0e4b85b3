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
import atexit
import copy
import gc
import importlib
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .core import (PAIRING_MODES, RATE_CM_TO_PER_US, BathSpec, GTensor, ParseError,
                   SpinSystem, integer, json_object, numbers, one_of, os_path, positive,
                   raise_first_failure, refusal)
from .couplings import (
    CouplingTensors,
    build_couplings,
    export_couplings,
    load_couplings,
    same_direction,
)
from .relaxation import (
    CONVENTIONS,
    FIELD_BOUND_MT,
    build_tensor,
    fields_evaluable,
    mode_attribution,
    relaxation_times,
    sweep,
    sweep_csv,
    tensor_report,
)


def _on_call(module: str, name: str):
    """A stand-in for name of spinlat.<module> that imports the module on its
    first call, so that only the commands that read runs or propagate load
    ingest or dynamics."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"spinlat.{module}"), name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


parse_modes = _on_call("ingest", "parse_modes")
plan_displacements = _on_call("ingest", "plan_displacements")
write_displacement_set = _on_call("ingest", "write_displacement_set")
load_run_set = _on_call("ingest", "load_run_set")
lindblad_evolve = _on_call("dynamics", "lindblad_evolve")
redfield_evolve = _on_call("dynamics", "redfield_evolve")
fit_decay_rate = _on_call("dynamics", "fit_decay_rate")
JumpBasisDissipator = _on_call("dynamics", "JumpBasisDissipator")
frame_rotation = _on_call("dynamics", "frame_rotation")

CONFIG_FORMAT = "spinlat-config/1"
_exit_freeze = None  # gc.freeze once main has registered it to run at exit


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


def _grid(test):
    """The rule for a nonempty list of finite numbers whose array passes test."""
    return _finite(test=lambda arr: arr.ndim == 1 and arr.size > 0 and test(arr))


def _directory(value) -> bool:
    """Whether value is a path string that mkdir can make a directory of:
    it holds no NUL, and neither it nor any of its parents names a file."""
    if type(value) is not str or "\0" in value:
        return False
    path = Path(os_path(value))
    return not any(p.exists() and not p.is_dir() for p in (path, *path.parents))


def _utf8_text(arg: str) -> str:
    """A path flag's value as the text of its UTF-8 bytes, as a document
    spells a path, so that artifacts embed the same config under any locale;
    os_path maps it back to the same file."""
    return os.fsencode(arg).decode("utf-8", "surrogateescape")


def _parse_grid(text: str) -> list[float]:
    """'20' -> [20.0]; '10,20' -> list; '5:300:60' -> inclusive grid."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"range must be start:stop:count, got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise argparse.ArgumentTypeError(f"range must be numeric, got {text!r}") from None
        if count < 1:
            raise argparse.ArgumentTypeError("range count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number, list, or range, got {text!r}") from None


def _vector_reader(*names: str):
    """The reader of comma-separated numbers, one for each of names."""
    def read(text: str) -> list[float]:
        try:
            vec = [float(tok) for tok in text.split(",")]
        except ValueError:
            vec = []
        if len(vec) != len(names):
            raise argparse.ArgumentTypeError(f"must be {','.join(names)}, got {text!r}")
        return vec
    return read


_PATH = (lambda v: v is None or type(v) is str and "\0" not in v,
         "a path string without a NUL, or null")
_POSITIVE = (positive, "positive and finite")
_BOOL = (lambda v: type(v) is bool, "true or false")
_KINDS, _ENGINES = ("t1", "t2"), ("lindblad", "redfield")

# every config key: its default, the test a value must pass and what the
# test asks for, then, for a key a flag sets, that flag, how its text is
# read (for a switch, the value it sets) and its help; a flag is only a
# way to set its key
_CONFIG_KEYS = {
    "paths": {
        "modes": (None, *_PATH, "--modes", _utf8_text, "NMODES file"),
        "manifest": (None, *_PATH, "--manifest", _utf8_text, "displacement run manifest"),
        "couplings": (None, *_PATH, "--couplings", _utf8_text, "precomputed couplings JSON"),
        "output_dir": (".", _directory, "a path string that names a directory or nothing",
                       "--out", _utf8_text, "output directory (default '.')"),
    },
    "physics": {
        "temperatures_k": ([20.0], _grid(lambda arr: (arr >= 0.0).all()),
                           "a nonempty list of finite numbers >= 0",
                           "--temp", _parse_grid,
                           "temperature K: value, list, or start:stop:count"),
        "fields_mt": ([1266.0], _grid(fields_evaluable), "a nonempty list of numbers below "
                      f"{FIELD_BOUND_MT:.3g} in magnitude, where the rate kernel's "
                      "(muB|B|/hc)^4 is finite",
                      "--field-mt", _parse_grid, "field mT: value, list, or start:stop:count"),
        "field_direction": ([0.0, 0.0, 1.0], _finite((3,), np.any),
                            "a finite nonzero 3-vector",
                            "--field-dir", _vector_reader("x", "y", "z"),
                            "field direction as x,y,z"),
        "g0": (None, _finite((3, 3), null=True), "null or a finite 3x3 matrix"),
        "linewidth_cm": (2.0, *_POSITIVE, "--linewidth", float,
                         "Lorentzian half-width, cm^-1"),
        "gamma_cm": (2.0, *_POSITIVE, "--gamma", float, "one-phonon damping rate, cm^-1"),
        "pairing": ("diagonal_only", lambda v: one_of(v, PAIRING_MODES),
                    f"one of {PAIRING_MODES}", "--pairing", str, " or ".join(PAIRING_MODES)),
        "convention": ("projection", lambda v: one_of(v, CONVENTIONS),
                       f"one of {CONVENTIONS}", "--convention", str, " or ".join(CONVENTIONS)),
        "omega_override_cm": (None, _finite((), lambda arr: arr >= 0, null=True),
                              "null or a finite number >= 0",
                              "--omega", float, "pin the spin frequency, cm^-1"),
    },
    "numerics": {
        "delta_angstrom": (0.01, *_POSITIVE, "--delta", float, "step size, Angstrom"),
        "order": (2, lambda v: one_of(v, (1, 2)), "1 or 2",
                  "--order", int, "finite-difference order, 1 or 2"),
        "skip_soft": (False, *_BOOL, "--skip-soft", True,
                      "drop modes below 1 cm^-1 instead of failing"),
        "fit_window_us": (None, _finite((2,), lambda arr: arr[0] < arr[1], null=True),
                          "null or [lo, hi] with finite lo < hi",
                          "--fit-window", _vector_reader("lo", "hi"), "fit window lo,hi in us"),
        "time_samples": (2001, lambda v: integer(v, 10, np.inf), "an integer >= 10",
                         "--samples", int, "trajectory sample count"),
        "t_end_us": (None, lambda v: v is None or positive(v),
                     "null or positive and finite", "--t-end", float, "trajectory span, us"),
    },
    "dynamics": {
        "kind": ("t1", lambda v: one_of(v, _KINDS), f"one of {_KINDS}",
                 "--kind", str, " or ".join(_KINDS)),
        "engine": ("lindblad", lambda v: one_of(v, _ENGINES), f"one of {_ENGINES}",
                   "--engine", str, " or ".join(_ENGINES)),
        "rotating_frame": (True, *_BOOL, "--no-rotating-frame", False,
                           "keep coherent precession in the lindblad engine"),
    },
    "report": {
        "top_modes": (None, lambda v: v is None or integer(v, 1, np.inf),
                      "null or an integer >= 1", "--top", int, "modes listed in the report"),
    },
}
_DEFAULTS = {"format": CONFIG_FORMAT, **{
    section: {key: rule[0] for key, rule in keys.items()}
    for section, keys in _CONFIG_KEYS.items()}}
_FLAGS = {row[3]: (f"{section}.{key}", *row[4:]) for section, keys in _CONFIG_KEYS.items()
          for key, row in keys.items() if len(row) > 3}  # flag: key, reader, help
_FLAG_OF = {key: flag for flag, (key, _, _) in _FLAGS.items()}

_SET = object()  # a value in _CONFLICTS that any value but null meets
# the settings (key, value) some commands refuse together: the commands,
# the setting that is refused with any one of the others, and why
_CONFLICTS = (
    (("displace",), (("numerics.order", 1), ("physics.pairing", "all_pairs")),
     "order 1 plans no pair runs, and all_pairs needs them"),
    (("dynamics",), (("dynamics.engine", "redfield"), ("physics.pairing", "all_pairs")),
     "the Redfield bath has no two-phonon pair channel, so it would run the diagonal_only bath"),
    (("couplings", "tensor", "sweep", "attribute", "dynamics"),
     (("paths.couplings", _SET), ("paths.modes", _SET), ("paths.manifest", _SET)),
     "a couplings file and runs are two sources of the couplings; give one"),
)


def _config(path, flags: dict, command: str) -> dict:
    """The defaults, then the config file at path (when given), then the keys
    flags gives values for.

    A value that fails its key's rule, or settings that command refuses
    together, are refused naming each key and, when a flag gave it, the
    flag.  Repeated grid values are dropped keeping the first, so the
    config that artifacts embed holds the grid actually computed.
    """
    cfg = copy.deepcopy(_DEFAULTS)
    if path is not None:
        if not Path(path).is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            doc = json_object(Path(path).read_bytes(), "config", CONFIG_FORMAT)
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
    for key, value in flags.items():
        section, name = key.split(".")
        cfg[section][name] = value

    def given(key: str) -> str:
        return f" (flag {_FLAG_OF[key]})" if key in flags else ""

    for section, keys in _CONFIG_KEYS.items():
        for name, (_, test, what, *_) in keys.items():
            key, value = f"{section}.{name}", cfg[section][name]
            if not test(value):
                raise UsageError(refusal("config", key, what, value) + given(key))

    def setting(key: str):
        section, name = key.split(".")
        return cfg[section][name]

    for commands, settings, why in _CONFLICTS:
        met = [key for key, value in settings
               if (setting(key) is not None if value is _SET else setting(key) == value)]
        if command in commands and len(met) > 1 and met[0] == settings[0][0]:
            raise UsageError(" with ".join(f"{key} {setting(key)!r}" + given(key) for key in met)
                             + f" is refused: {why}")
    phys = cfg["physics"]
    for key in ("temperatures_k", "fields_mt"):
        phys[key] = list(dict.fromkeys(phys[key]))
    return cfg


def _need_files(cfg: dict, *names: str) -> None:
    """Refuse a paths key among names that is unset or names no file."""
    for name in names:
        value = cfg["paths"][name]
        if value is None:
            raise UsageError(f"paths.{name} is required (flag {_FLAG_OF['paths.' + name]})")
        if not Path(os_path(value)).is_file():
            raise UsageError(f"paths.{name} file not found: {value}")


# ---------------------------------------------------- shared assembly


def _config_comment(cfg: dict) -> str:
    return "# config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _strict(doc):
    """doc with each infinite float, a time whose rate is zero, as None.

    Rates, tensors and the config are checked finite before they are
    written, so only a time can be infinite.
    """
    if isinstance(doc, dict):
        return {key: _strict(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_strict(value) for value in doc]
    return None if isinstance(doc, float) and np.isinf(doc) else doc


def _write_json(path: Path, doc: dict) -> None:
    """doc as strict JSON: an infinite time is written as null."""
    path.write_text(json.dumps(_strict(doc), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _outdir(cfg: dict) -> Path:
    out = Path(os_path(cfg["paths"]["output_dir"]))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _assemble_couplings(cfg: dict) -> CouplingTensors:
    """The couplings from a couplings file or from runs.

    Records in the config the finite-difference step the couplings were
    built with and, from runs, the baseline g matrix as physics.g0, so
    every artifact embeds the values actually used.  A couplings file
    built along another field direction is refused.
    """
    paths, direction = cfg["paths"], cfg["physics"]["field_direction"]
    if paths["couplings"] is not None:
        _need_files(cfg, "couplings")
        c = load_couplings(os_path(paths["couplings"]))
        if not same_direction(c.field_direction, direction):
            raise UsageError(
                f"physics.field_direction {direction} differs from "
                f"{c.field_direction.tolist()}, the direction couplings file "
                f"{paths['couplings']} was built along"
            )
    else:
        _need_files(cfg, "modes", "manifest")
        modeset = parse_modes(os_path(paths["modes"]), skip_soft=cfg["numerics"]["skip_soft"])
        runset = load_run_set(os_path(paths["manifest"]), modeset)
        c = build_couplings(runset, field_direction=direction)
        cfg["physics"]["g0"] = runset.baseline.tolist()
    cfg["numerics"]["delta_angstrom"] = c.delta_angstrom
    return c


def _spin_system(cfg: dict, c: CouplingTensors, field_mt: float) -> SpinSystem:
    """The spin of g matrix physics.g0 in a field of field_mt along the
    couplings' direction."""
    phys = cfg["physics"]
    if phys["g0"] is None:
        raise UsageError("physics.g0 is required when starting from a couplings file")
    return SpinSystem(
        g0=GTensor(phys["g0"]),
        field_mt=c.field_direction * field_mt,
        omega_override_cm=phys["omega_override_cm"],
    )


def _bath(cfg: dict, temperature_k: float) -> BathSpec:
    phys = cfg["physics"]
    return BathSpec(
        temperature_k=temperature_k,
        gamma_cm=float(phys["gamma_cm"]),
        linewidth_cm=float(phys["linewidth_cm"]),
        raman_pairing=phys["pairing"],
    )


def _sweep_grid(cfg: dict, c: CouplingTensors) -> np.recarray:
    """`sweep` over the configured (T, B) grid, along the couplings' direction."""
    phys = cfg["physics"]
    return sweep(
        c,
        _spin_system(cfg, c, 1.0),
        phys["temperatures_k"],
        phys["fields_mt"],
        _bath(cfg, phys["temperatures_k"][0]),
        convention=phys["convention"],
    )


def _point(cfg: dict, command: str) -> tuple[CouplingTensors, BathSpec, SpinSystem]:
    """Couplings, bath and spin at the one (T, B) point command runs at."""
    c = _assemble_couplings(cfg)
    point = []
    for key in ("temperatures_k", "fields_mt"):
        values, flag = cfg["physics"][key], _FLAG_OF["physics." + key]
        if len(values) != 1:
            raise UsageError(f"{command} {flag} needs exactly one value, got {len(values)}")
        point.append(float(values[0]))
    spin = _spin_system(cfg, c, point[1])
    return c, _bath(cfg, point[0]), spin


# --------------------------------------------------------- subcommands


def _cmd_displace(cfg: dict) -> int:
    _need_files(cfg, "modes")
    # results beside an old manifest would be read with the new plan's step
    old = Path(os_path(cfg["paths"]["output_dir"])) / "manifest.json"
    if old.exists():
        raise UsageError(f"paths.output_dir (flag --out) already holds {old}; "
                         "displace into a new directory")
    num = cfg["numerics"]
    modeset = parse_modes(os_path(cfg["paths"]["modes"]), skip_soft=num["skip_soft"])
    plan = plan_displacements(
        modeset,
        delta=num["delta_angstrom"],
        order=num["order"],
        pairing=cfg["physics"]["pairing"],
    )
    out = _outdir(cfg)
    manifest = write_displacement_set(plan, modeset, out, num["delta_angstrom"])
    _write_json(out / "displace.config.json", {
        "config": cfg,
        "geometries": len(plan),
        "manifest": manifest.name,
    })
    print(f"wrote {len(plan)} geometries + {manifest.name} to {out}")
    return 0


def _cmd_couplings(cfg: dict) -> int:
    c = _assemble_couplings(cfg)
    out = _outdir(cfg)
    export_couplings(c, out / "couplings.json", config=cfg)
    kinds = "d1+d2 mixed" if c.mixed_computed else "d1+d2 diagonal"
    print(f"wrote couplings.json ({c.nmodes} modes, {kinds}) to {out}")
    return 0


def _cmd_tensor(cfg: dict) -> int:
    c, bath, spin = _point(cfg, "tensor")
    phys = cfg["physics"]
    tensor = build_tensor(c, bath, spin)
    report = tensor_report(tensor, axis=spin.axis, top_m=cfg["report"]["top_modes"])
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


def _cmd_sweep(cfg: dict) -> int:
    points = _sweep_grid(cfg, _assemble_couplings(cfg))
    out = _outdir(cfg)
    (out / "sweep.csv").write_text(_config_comment(cfg) + "\n" + sweep_csv(points))
    print(f"wrote sweep.csv ({len(points)} points) to {out}")
    return 0


def _cmd_attribute(cfg: dict) -> int:
    c, bath, spin = _point(cfg, "attribute")
    rows = mode_attribution(c, bath, spin, top_m=cfg["report"]["top_modes"]).rows()
    out = _outdir(cfg)
    _write_json(out / "attribution.json", {"config": cfg, "modes": rows})
    for row in rows:
        print(
            f"mode {row['mode']:4d}  {row['frequency_cm']:10.3f} cm^-1  "
            f"share1 {row['trace_share1']:.4f}  share2 {row['trace_share2']:.4f}"
        )
    return 0


def _cmd_dynamics(cfg: dict) -> int:
    num, dyn = cfg["numerics"], cfg["dynamics"]
    kind, engine = dyn["kind"], dyn["engine"]
    c, bath, spin = _point(cfg, "dynamics")
    tensor = build_tensor(c, bath, spin)
    analytic = relaxation_times(tensor, axis=spin.axis, convention="lindblad")
    analytic_time = analytic.t1_us if kind == "t1" else analytic.t2_us

    if kind == "t1":
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        observable = "sz_minus_eq"
    else:
        rho0 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        observable = "coherence_abs"
    span = num["t_end_us"] or 4.0 * analytic_time  # a set t_end_us is positive
    if not np.isfinite(span):
        raise UsageError("analytic relaxation time is infinite; set numerics.t_end_us "
                         f"(flag {_FLAG_OF['numerics.t_end_us']})")
    grid = np.linspace(0.0, span, int(num["time_samples"]))
    window = num["fit_window_us"]
    if window is not None and np.sum((grid >= window[0]) & (grid <= window[1])) < 10:
        raise UsageError(f"numerics.fit_window_us {window} holds fewer than 10 "
                         f"of the {grid.size} time samples")

    if engine == "lindblad":
        rot = frame_rotation(spin.axis)
        lam = rot @ tensor.lambda_total @ rot.T
        omega = spin.larmor_cm()
        if dyn["rotating_frame"]:
            # secular approximation (Breuer & Petruccione, The Theory of Open
            # Quantum Systems, 2002, ch. 3): the xz and yz terms rotate at
            # Omega and the xy anisotropy at 2 Omega, so they average out;
            # Tr L and n.L.n, hence the analytic times, are kept
            transverse = 0.5 * (lam[0, 0] + lam[1, 1])
            lam = np.diag([transverse, transverse, lam[2, 2]])
            omega = 0.0
        elif kind == "t2":
            # the frame's x axis comes from Rodrigues' formula, not from the
            # sample, so start along the in-plane principal axis of L's larger
            # eigenvalue, which turns with the input
            phase = np.exp(0.5j * np.arctan2(2.0 * lam[0, 1], lam[0, 0] - lam[1, 1]))
            rho0 = 0.5 * np.array([[1.0, phase.conjugate()], [phase, 1.0]])
        diss = JumpBasisDissipator(lam, omega)
        traj = lindblad_evolve(rho0, diss, grid)
    else:
        dyn["rotating_frame"] = False  # record the lab frame this engine runs in
        traj = redfield_evolve(rho0, c, bath, spin, grid)
    fit = fit_decay_rate(traj, observable, window=window)
    out = _outdir(cfg)
    (out / "trajectory.csv").write_text(
        _config_comment(cfg) + "\n" + traj.to_csv()
    )
    fitted_time = float("inf") if fit.rate_per_us == 0.0 else 1.0 / fit.rate_per_us
    _write_json(out / "dynamics.json", {
        "config": cfg,
        "observable": observable,
        "fitted_rate_per_us": fit.rate_per_us,
        "fitted_time_us": fitted_time,
        "residual_rms": fit.residual_rms,
        "non_decaying": fit.non_decaying,
        "analytic_t1_us": analytic.t1_us,
        "analytic_t2_us": analytic.t2_us,
    })
    print(
        f"{kind} fit: {fitted_time:.6g} us "
        f"(analytic {analytic_time:.6g} us) "
        f"-> trajectory.csv, dynamics.json"
    )
    return 0


def _cmd_validate(cfg: dict) -> int:
    _need_files(cfg, "modes", "manifest")
    paths, phys = cfg["paths"], cfg["physics"]

    def baseline_g(runset):
        phys["g0"] = runset.baseline.tolist()
        GTensor(runset.baseline)

    def identity(points):
        # criterion 08 on the table's reported times, by column, no eigen-solve:
        # 1/T2 + 1/(2 T1) is Tr L (projection) or 2 Tr L (lindblad)
        rate1 = 1.0 / points.t1_us / RATE_CM_TO_PER_US
        rate2 = 1.0 / points.t2_us / RATE_CM_TO_PER_US
        trace = np.trace(points.lambda1 + points.lambda2, axis1=1, axis2=2)
        scale = 1.0 if phys["convention"] == "projection" else 2.0
        dev = np.abs(rate2 + 0.5 * rate1 - scale * trace)
        raise_first_failure(
            ~(dev <= 1e-12 * trace), "T2 identity",
            lambda i: f"violated by {dev[i]:.3e}",
            [f"{t!r} K, {b!r} mT" for t, b in zip(points.temperature_k.tolist(),
                                                   points.field_mt.tolist())])

    # each check: its name, the check whose result its step takes (None: no
    # result) and the step; a check runs only when that check passed
    table = (
        ("modes-parse", None,
         lambda _: parse_modes(os_path(paths["modes"]),
                               skip_soft=cfg["numerics"]["skip_soft"])),
        ("manifest-complete", "modes-parse",
         lambda modeset: load_run_set(os_path(paths["manifest"]), modeset)),
        ("baseline-g", "manifest-complete", baseline_g),
        ("couplings-assemble", "manifest-complete",
         lambda runset: build_couplings(runset, field_direction=phys["field_direction"])),
        # sweep runs RelaxationTensor's checks (finite, symmetric PSD, split
        # sums) on each field's grid points at once, naming a failing point
        ("tensor-psd", "couplings-assemble", lambda c: _sweep_grid(cfg, c)),
        ("time-identity", "tensor-psd", identity),
    )
    results, lines = {None: None}, []
    for name, needs, step in table:
        if needs in results:
            try:
                results[name] = step(results[needs])
                lines.append((name, "PASS", ""))
            except Exception as e:  # report, never abort the table
                lines.append((name, "FAIL", str(e)))
    width = max(len(name) for name, _, _ in lines)
    # a message names a result as its manifest spells it; what stdout's
    # encoding cannot spell (an ASCII locale's) is escaped, as on stderr
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    for name, verdict, message in lines:
        line = f"CHECK {name:<{width}} {verdict}" + (f"  ({message})" if message else "")
        print(line.encode(encoding, "backslashreplace").decode(encoding))
    return 0 if all(name in results for name, _, _ in table) else 1


# -------------------------------------------------------------- parser


_IO = ("--modes", "--skip-soft", "--manifest", "--couplings", "--out")
_PHYSICS = ("--temp", "--field-mt", "--field-dir", "--linewidth", "--gamma",
            "--pairing", "--convention", "--omega")
# each command: its handler, its help and its flags
_COMMANDS = {
    "displace": (_cmd_displace, "write displaced geometries + manifest",
                 ("--modes", "--out", "--delta", "--order", "--pairing", "--skip-soft")),
    "couplings": (_cmd_couplings, "finite-difference couplings from runs",
                  ("--modes", "--skip-soft", "--manifest", "--out", "--field-dir")),
    "tensor": (_cmd_tensor, "rate tensor report at one (T, B) point",
               (*_IO, *_PHYSICS, "--top")),
    "sweep": (_cmd_sweep, "T1/T2 over a temperature and field grid", (*_IO, *_PHYSICS)),
    "attribute": (_cmd_attribute, "per-mode contribution ranking",
                  (*_IO, *_PHYSICS, "--top")),
    "dynamics": (_cmd_dynamics, "integrate the master equation and fit",
                 (*_IO, *_PHYSICS, "--kind", "--engine", "--t-end", "--samples",
                  "--fit-window", "--no-rotating-frame")),
    "validate": (_cmd_validate, "run invariant checks on a dataset",
                 ("--modes", "--skip-soft", "--manifest", *_PHYSICS)),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """One subcommand per _COMMANDS entry, each with its flags or, when only
    is given, only the one only names; a given flag is stored under its
    config key, and a flag not given is left out of the namespace."""
    parser = argparse.ArgumentParser(
        prog="spinlat",
        description="Mode-resolved spin-lattice relaxation batch runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        # no flag prefixes: the minus-value join in main matches full names
        sp = sub.add_parser(command, help=text, argument_default=argparse.SUPPRESS,
                            allow_abbrev=False)
        if only not in (None, command):
            continue
        sp.add_argument("--config", help="JSON config file (spinlat-config/1)")
        for flag in flags:
            key, read, text = _FLAGS[flag]
            if type(read) is bool:
                sp.add_argument(flag, dest=key, action="store_const", const=read,
                                help=f"{text}; sets {key} to {json.dumps(read)}")
            else:
                sp.add_argument(flag, dest=key, type=read, help=text)
    return parser


def main(argv=None) -> int:
    # interpreter shutdown collects every object still alive, which costs a short
    # run about as much as its work; frozen at exit, they are skipped.  Registered
    # here, not at import, so that a library's importer exits as before; not frozen
    # now, which would keep an in-process caller's garbage cycles; not os._exit,
    # which skips the other exit handlers and the stdio flush
    global _exit_freeze
    _exit_freeze = _exit_freeze or atexit.register(gc.freeze)
    args = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a token such as '-500,0' for an option, so a value flag
    # followed by a minus and a digit or a point is joined into --flag=value
    for i in range(len(args) - 1, 0, -1):
        flag, value = args[i - 1], args[i]
        if flag in _FLAGS and type(_FLAGS[flag][1]) is not bool and re.match(r"-[0-9.]", value):
            args[i - 1:i + 1] = [f"{flag}={value}"]
    try:
        # only the command, which comes first, needs its flags
        flags = vars(build_parser(args[0] if args else None).parse_args(args))
    except SystemExit as e:
        return int(e.code or 0)
    command, config = flags.pop("command"), flags.pop("config", None)
    try:
        cfg = _config(config, flags, command)
        return _COMMANDS[command][0](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
