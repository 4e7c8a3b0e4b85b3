"""Mode-resolved spin-lattice relaxation for two-level molecular spins."""

from .core import (
    BathSpec,
    GTensor,
    Geometry,
    ModeSet,
    SpinSystem,
    bose_occupation,
    larmor_frequency,
    principal_g_values,
)
from .couplings import (
    CouplingTensors,
    build_couplings,
    export_couplings,
    load_couplings,
)
from .dynamics import (
    JumpBasisDissipator,
    SpinTrajectory,
    fit_decay_rate,
    lindblad_evolve,
    redfield_evolve,
    spectral_density,
)
from .ingest import (
    load_run_set,
    parse_modes,
    plan_displacements,
    sample_g_surface,
    write_displacement_set,
)
from .relaxation import (
    RelaxationTensor,
    build_tensor,
    mode_attribution,
    principal_relaxation_axes,
    relaxation_times,
    sweep,
    tensor_report,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "CouplingTensors",
    "GTensor",
    "Geometry",
    "JumpBasisDissipator",
    "ModeSet",
    "RelaxationTensor",
    "SpinSystem",
    "SpinTrajectory",
    "bose_occupation",
    "build_couplings",
    "build_tensor",
    "export_couplings",
    "fit_decay_rate",
    "larmor_frequency",
    "lindblad_evolve",
    "load_couplings",
    "load_run_set",
    "mode_attribution",
    "parse_modes",
    "plan_displacements",
    "principal_g_values",
    "principal_relaxation_axes",
    "redfield_evolve",
    "relaxation_times",
    "sample_g_surface",
    "spectral_density",
    "sweep",
    "tensor_report",
    "write_displacement_set",
]
