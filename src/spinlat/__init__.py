"""Mode-resolved spin-lattice relaxation for two-level molecular spins.

Each exported name is imported from its module on first access, so that
importing one module (the command line, say) loads only what it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("BathSpec", "GTensor", "Geometry", "ModeSet", "SpinSystem",
             "bose_occupation", "larmor_frequency", "principal_g_values"),
    "couplings": ("CouplingTensors", "build_couplings", "export_couplings",
                  "load_couplings"),
    "dynamics": ("JumpBasisDissipator", "SpinTrajectory", "fit_decay_rate",
                 "lindblad_evolve", "redfield_evolve", "spectral_density"),
    "ingest": ("load_run_set", "parse_modes", "plan_displacements", "sample_g_surface",
               "write_displacement_set"),
    "relaxation": ("RelaxationTensor", "build_tensor", "mode_attribution",
                   "principal_relaxation_axes", "relaxation_times", "sweep",
                   "tensor_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
