"""The three workloads: a fixed list of CLI commands per pass, and their checks.

Every command writes below the pass directory it runs in (`--out` is
relative and named after the command), so the embedded configuration,
and with it every artifact byte, is the same in each pass of a run.  Inputs are absolute paths to
the data built once at set-up.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bench_checks as bc
import bench_data as bd
from spinlat.core import BathSpec, GTensor, SpinSystem
from spinlat.couplings import load_couplings
from spinlat.relaxation import build_tensor

POINT_T, POINT_B = 20.0, 1266.0          # single-point tensor / attribute / validate
DYNAMICS_T, DYNAMICS_B = 200.0, 1266.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark runs FULL, its tests run TINY."""

    ingest_modes: int
    displace_modes: int
    sweep_modes: int
    sweep_temps: str
    sweep_fields: str
    dynamics_modes: int
    omega_per_rate1: float     # precession cycles a lab-frame T1 run resolves
    samples: int


FULL = Sizes(ingest_modes=60, displace_modes=20, sweep_modes=150, sweep_temps="5:300:60",
             sweep_fields="200:2000:10", dynamics_modes=12,
             omega_per_rate1=400.0, samples=2001)
TINY = Sizes(ingest_modes=4, displace_modes=3, sweep_modes=6, sweep_temps="5:300:3",
             sweep_fields="200:2000:2", dynamics_modes=3,
             omega_per_rate1=100.0, samples=201)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of what it produced.

    A command with `writes` set gets `--out <name>`, so each command of a
    pass has a directory of its own.  check(out_dir, stdout) raises
    bc.CheckFailed; a dynamics check returns the fitted / analytic ratio.
    """

    name: str
    args: tuple[str, ...]
    check: Callable[[Path | None, str], float | None]
    writes: bool = True

    @property
    def argv(self) -> list[str]:
        return [*self.args, "--out", self.name] if self.writes else list(self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    peak_alloc_mb: Callable[[], float] | None = None


def _grid(text: str) -> list[float]:
    """The CLI's inclusive start:stop:count grid."""
    start, stop, count = text.split(":")
    return [float(v) for v in np.linspace(float(start), float(stop), int(count))]


def ingest_allpairs(data: Path, seed: int, sizes: Sizes) -> Workload:
    ds = bd.build_run_dataset(data / "complete", seed, sizes.ingest_modes)
    d1, d2 = ds.surface.exact_couplings(ds.modeset)
    # displace writes a smaller set: on a 2-vCPU KVM guest, creating a
    # small file cost 40 or 330 us depending on the host's memory and
    # file-system state, which swamped the command's own time at 7,201 files
    planned = bd.build_run_dataset(data / "plan", seed, sizes.displace_modes,
                                   results=False)
    plan_digest = bc.digest_files(planned.manifest.parent, ("*.xyz", "manifest.json"))
    runs = ("--modes", str(ds.modes), "--manifest", str(ds.manifest))
    point = ("--temp", str(POINT_T), "--field-mt", str(POINT_B))

    def check_displace(out, stdout):
        got = bc.digest_files(out, ("*.xyz", "manifest.json"))
        if got != plan_digest:
            raise bc.CheckFailed("displace output differs from the planned set")

    return Workload("ingest-allpairs", (
        Command("displace", ("displace", "--modes", str(planned.modes), "--delta",
                             str(bd.DELTA_ANGSTROM), "--order", "2",
                             "--pairing", "all_pairs"), check_displace),
        Command("couplings", ("couplings", *runs),
                lambda out, _: bc.check_couplings(out / "couplings.json", d1, d2)),
        Command("validate", ("validate", *runs, "--pairing", "all_pairs", *point),
                lambda _, stdout: bc.check_validate(stdout), writes=False),
    ))


def sweep_grid(data: Path, seed: int, sizes: Sizes) -> Workload:
    ds = bd.build_sweep_dataset(data, seed, sizes.sweep_modes)
    exact = ds.exact
    common = ("--config", str(ds.config), "--couplings", str(ds.couplings),
              "--linewidth", "2", "--gamma", "2")
    grid = ("--temp", sizes.sweep_temps, "--field-mt", sizes.sweep_fields)
    point = ("--temp", str(POINT_T), "--field-mt", str(POINT_B))
    temps, fields = _grid(sizes.sweep_temps), _grid(sizes.sweep_fields)
    pt = bc.Point(POINT_T, POINT_B, "all_pairs")

    def check_sweep(pairing):
        return lambda out, _: bc.check_sweep(out / "sweep.csv", exact, temps,
                                             fields, pairing)

    def peak_alloc_mb():
        c = load_couplings(ds.couplings)
        spin = SpinSystem(GTensor(exact.g0), np.array([0.0, 0.0, POINT_B]))
        bath = BathSpec(POINT_T, 2.0, 2.0, "all_pairs")
        tracemalloc.start()
        try:
            build_tensor(c, bath, spin)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return Workload("sweep-grid", (
        Command("sweep", ("sweep", *common, "--pairing", "all_pairs", *grid),
                check_sweep("all_pairs")),
        Command("sweep_diag", ("sweep", *common, "--pairing", "diagonal_only", *grid),
                check_sweep("diagonal_only")),
        Command("tensor", ("tensor", *common, "--pairing", "all_pairs", *point),
                lambda out, _: bc.check_tensor(out / "tensor.json", exact, pt)),
        Command("attribute", ("attribute", *common, "--pairing", "all_pairs",
                              *point, "--top", "10"),
                lambda out, _: bc.check_attribution(out / "attribution.json",
                                                    exact, pt, 10)),
    ), peak_alloc_mb)


def dynamics_lab(data: Path, seed: int, sizes: Sizes) -> Workload:
    pt = bc.Point(DYNAMICS_T, DYNAMICS_B, "diagonal_only")
    ds = bd.build_dynamics_dataset(data, seed, sizes.dynamics_modes, pt,
                                   sizes.omega_per_rate1)
    common = ("--config", str(ds.config), "--couplings", str(ds.couplings),
              "--temp", str(DYNAMICS_T), "--field-mt", str(DYNAMICS_B),
              "--linewidth", "2", "--gamma", "2", "--pairing", "diagonal_only",
              "--samples", str(sizes.samples))

    def command(name, kind, strict, *flags):
        return Command(
            name, ("dynamics", *common, "--kind", kind, *flags),
            lambda out, _: bc.check_dynamics(out, ds.exact, pt, kind, strict,
                                             sizes.samples))

    return Workload("dynamics-lab", (
        command("dynamics_t1", "t1", True, "--no-rotating-frame"),
        command("dynamics_t2", "t2", True, "--no-rotating-frame"),
        command("redfield_t2", "t2", False, "--engine", "redfield"),
        command("dynamics_default", "t1", False),
    ))


WORKLOADS = {
    "ingest-allpairs": ingest_allpairs,
    "sweep-grid": sweep_grid,
    "dynamics-lab": dynamics_lab,
}
