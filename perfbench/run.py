"""Layered benchmark of the spinlat CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's commands one at a time, each
in a fresh interpreter (perfbench/child.py, which imports spinlat.cli from
the checkout's src/ and calls main), on inputs built from the seed.  It
repeats that pass until S seconds are spent, checks every output, and
prints medians.  With --trace 1 it also times the spinlat imports and
replays one pass in process twice, untraced and then with spans around
the calls into each module, and prints the per-layer metrics instead.

The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
the line before it records versions, seed, sample counts and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 120.0
IMPORT_REPEATS = 3


@dataclass
class Sample:
    """One subprocess command: walls in seconds, peak RSS in MiB."""

    wall_s: float
    import_s: float | None = None
    main_s: float | None = None
    rss_mb: float | None = None


@dataclass
class Tally:
    """Attempted and failed commands, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)

    def verify(self, cmd, pass_dir: Path, code: int, stdout: str, label: str) -> bool:
        """Check one command's outputs and that they match the first pass's bytes."""
        import bench_checks as bc

        self.attempted += 1
        out = pass_dir / cmd.name if cmd.writes else None
        if code != 0:
            self.failures.append(f"{label} {cmd.name}: exit {code}")
            return False
        try:
            ratio = cmd.check(out, stdout)
            digest = bc.digest(out, stdout)
        except Exception as e:  # any malformed artifact counts as a failure
            self.failures.append(f"{label} {cmd.name}: {type(e).__name__}: {e}")
            return False
        if ratio is not None:
            self.ratios[cmd.name] = ratio
        first = self.digests.setdefault(cmd.name, digest)
        if digest != first:
            self.failures.append(f"{label} {cmd.name}: artifacts differ from the first pass")
            return False
        return True


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], cwd: Path, env: dict) -> tuple[int, str, Sample]:
    timing = cwd / ".timing.json"
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(timing), *argv],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        code, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, stdout = -1, ""
    sample = Sample(time.perf_counter() - start)
    if timing.is_file():
        t = json.loads(timing.read_text())
        timing.unlink()
        if not Path(t["module"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"child imported spinlat from {t['module']}, not {SRC}")
        sample.import_s, sample.main_s = t["import_s"], t["main_s"]
        sample.rss_mb = t["maxrss_kb"] / 1024.0
    return code, stdout, sample


def subprocess_pass(wl, pass_dir: Path, env: dict, tally: Tally) -> tuple[float, list[Sample]]:
    pass_dir.mkdir(parents=True)
    results = []
    start = time.perf_counter()
    for cmd in wl.commands:
        results.append(run_child(cmd.argv, pass_dir, env))
    pass_s = time.perf_counter() - start
    for cmd, (code, stdout, _) in zip(wl.commands, results):
        tally.verify(cmd, pass_dir, code, stdout, "subprocess")
    return pass_s, [sample for _, _, sample in results]


def replay(wl, pass_dir: Path, tally: Tally, tracer=None) -> dict[str, float]:
    """Run one pass through spinlat.cli.main in this process; main wall per command."""
    import bench_trace
    import spinlat.cli

    pass_dir.mkdir(parents=True)
    restore = bench_trace.install(tracer) if tracer is not None else None
    walls, outputs = {}, []
    cwd = Path.cwd()
    try:
        for i, cmd in enumerate(wl.commands):
            buf = io.StringIO()
            os.chdir(pass_dir)
            try:
                with contextlib.redirect_stdout(buf):
                    start = time.perf_counter()
                    if tracer is None:
                        code = spinlat.cli.main(cmd.argv)
                    else:
                        tracer.command = i
                        span = tracer.open(f"cli.{cmd.name}")
                        code = spinlat.cli.main(cmd.argv)
                        tracer.close(span)
                    walls[cmd.name] = time.perf_counter() - start
            finally:
                os.chdir(cwd)
            outputs.append((cmd, code, buf.getvalue()))
    finally:
        if restore is not None:
            restore()
    label = "traced replay" if tracer is not None else "replay"
    for cmd, code, stdout in outputs:
        tally.verify(cmd, pass_dir, code, stdout, label)
    return walls


def dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def median(values):
    return statistics.median(values) if values else None


def tail(values) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    pct = (100 * (n - 10)) // n
    return {"pct": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}


def end_to_end(passes: list[tuple[float, list[Sample]]]) -> tuple[dict, dict]:
    """Metric medians and, for the record, each metric's sample summary."""
    rows = [row for _, row in passes if all(s.import_s is not None for s in row)]
    series = {
        "setup_s": [s.import_s for row in rows for s in row],
        "pass_s": [p for p, _ in passes],
        "peak_rss_mb": [max(s.rss_mb for s in row) for row in rows],
    }
    metrics = {name: median(v) for name, v in series.items() if v}
    record = {name: {"n": len(v), "median": median(v), "tail": tail(v)}
              for name, v in series.items()}
    record["walls_s"] = [[s.wall_s for s in row] for _, row in passes]
    return metrics, record


def per_layer(wl, passes, tally: Tally, tracer, plain: dict, traced: dict,
              imports: list[dict], traced_dir: Path) -> dict:
    import bench_trace

    m: dict[str, float] = {}
    for name in bench_trace.IMPORT_MODULES.values():
        values = [row[name] for row in imports if name in row]
        if values:
            m[name] = median(values)
    m.update(bench_trace.layer_metrics(tracer, [c.name for c in wl.commands]))
    counts = tracer.counts
    m.update(counts)
    m["ingest.bytes_read"] = bench_trace.bytes_read(tracer.manifests)
    m["ingest.bytes_written"] = bench_trace.bytes_written(tracer.written)
    load_s = m.get("ingest.load_run_set_s", 0.0)
    m["ingest.files_per_s"] = counts["ingest.files_read"] / load_s if load_s else 0.0
    points = counts["relaxation.sweep.points"]
    m["relaxation.sweep.s_per_point"] = (m.get("relaxation.sweep_s", 0.0) / points
                                         if points else 0.0)
    calls = counts["core.bose_occupation.calls"]
    m["core.bose_occupation.useful_ratio"] = (len(tracer.temperatures) / calls
                                              if calls else 0.0)
    m["relaxation.peak_alloc_mb"] = wl.peak_alloc_mb() if wl.peak_alloc_mb else 0.0
    for name, ratio in tally.ratios.items():
        m[f"dynamics.fit_ratio.{name}"] = ratio
    for k, cmd in enumerate(wl.commands):
        rows = [row[k] for _, row in passes if row[k].main_s is not None]
        m[f"{cmd.name}_s"] = median([row[k].wall_s for _, row in passes])
        m[f"cli.{cmd.name}.process_s"] = median([s.wall_s - s.main_s for s in rows]) or 0.0
        m[f"cli.{cmd.name}.bytes_written"] = dir_bytes(traced_dir / cmd.name)
        m[f"trace.{cmd.name}.overhead_s"] = traced[cmd.name] - plain[cmd.name]
    m["trace.overhead_s"] = sum(traced.values()) - sum(plain.values())
    m["fail_ratio"] = len(tally.failures) / max(tally.attempted, 1)
    for name in tracer.missing:
        m.pop(name, None)
    return m


def provenance(args) -> dict:
    import numpy
    import scipy

    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((SRC / "spinlat").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "notes": [
            "g-file reads are warm page-cache reads: the files are written at "
            "set-up, and dropping the page cache needs system privileges",
            "the field is along z, so the field-direction dynamics defect "
            "cannot show here",
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "spinlat" / "cli.py").is_file():
        print(f"error: no spinlat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinlat
    if not Path(spinlat.__file__).resolve().is_relative_to(SRC):
        print(f"error: spinlat imported from {spinlat.__file__}", file=sys.stderr)
        return 2
    import bench_trace
    from workloads import FULL, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # The work directory is left in place: deleting the thousands of small
    # files an ingest run writes made file creation in the next run several
    # times slower on the machine this benchmark was tuned on.
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](work / "data", args.seed, FULL)
    env = child_env()
    run_child(["--help"], work, env)     # compile and cache, untimed
    tally = Tally()
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(subprocess_pass(wl, work / f"pass{len(passes)}", env, tally))
        spent = time.perf_counter() - start
        if spent + (time.perf_counter() - began) > args.seconds:
            break
    if args.trace:
        imports = [bench_trace.import_times(env, work) for _ in range(IMPORT_REPEATS)]
        plain = replay(wl, work / "replay", tally)
        tracer = bench_trace.Tracer()
        traced = replay(wl, work / "traced", tally, tracer)
        tracer.to_json(work / "trace.json")
        metrics = per_layer(wl, passes, tally, tracer, plain, traced, imports,
                            work / "traced")
        wanted = spec["per_layer"]
        # layers and commands this workload never reaches read as zero
        for m in wanted:
            if m["name"] not in tracer.missing:
                metrics.setdefault(m["name"], 0.0)
        record = {"passes": len(passes), "spans": len(tracer.spans),
                  "missing": sorted(tracer.missing)}
    else:
        metrics, record = end_to_end(passes)
        wanted = spec["end_to_end"]

    out = {}
    for m in wanted:
        if metrics.get(m["name"]) is None:
            print(f"metric {m['name']} missing", file=sys.stderr)
            continue
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    for reason in tally.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"record": {**provenance(args), "samples": record,
                                 "failures": tally.failures}}))
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
