"""vacfilter benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from span-recording
wrappers) with ``--trace 1``.  End-to-end timings are wall seconds scaled to
a reference machine speed measured by a timer-driven probe.  The line
before it holds the provenance (nproc, Python/numpy/scipy versions, git SHA
and source hash, seed), the sample counts behind each percentile, the raw
wall-clock timings and the workload's figures under their per-workload
names.  Metric names and units are read from BENCHMARK.json; workloads,
metrics and the layer map are described in perfbench/README.md and
perfbench/layers.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One client thread plus at most two Monte-Carlo workers on a 2-core machine:
# keep BLAS from adding threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
TAIL_PERCENTILE = 75
IMPORT_MODULES = ("vacfilter", "vacfilter.detectors", "vacfilter.montecarlo", "vacfilter.cli")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, scipy.integrate, "
                "scipy.linalg, scipy.optimize, scipy.special, scipy.stats; "
                "print(time.perf_counter() - t)")
IMPORT_REF = 1.0  # IMPORT_PROBE seconds on the machine the bounds were set on


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile q among n samples."""
    return int(max(1, -(-n * q // 100)))


def percentile(samples: list, q: float) -> float:
    return sorted(samples)[_rank(len(samples), q) - 1]


def setup_probe(workload: str, seed: int) -> float:
    """Fresh-process set-up: import the CLI, build its parser, generate the
    workload's first round of inputs.  The benchmark's own modules are
    imported outside the timed parts, so the modules they import cannot
    hide a change to what ``vacfilter.cli`` imports."""
    t0 = time.perf_counter()
    import vacfilter.cli

    vacfilter.cli.build_parser()
    cli_s = time.perf_counter() - t0
    import workloads

    t0 = time.perf_counter()
    next(workloads.rounds(workload, seed, WORKDIR))
    return cli_s + time.perf_counter() - t0


def _child(args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def measure_setup(workload: str, seed: int) -> tuple:
    """(scaled, raw) median set-up seconds over SETUP_REPEATS fresh processes.

    Each set-up is followed by a fresh-process import of the installed numpy
    and scipy modules, which does not depend on vacfilter; the set-up time is
    scaled by IMPORT_REF over that time, which removes the machine's speed
    swings (about 30% between 10-second windows) from the comparison.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        setup = float(_child([str(HERE / "run.py"), "--setup-probe", "--workload", workload,
                              "--seed", str(seed)]).stdout.split()[-1])
        imports = float(_child(["-c", IMPORT_PROBE]).stdout)
        raw.append(setup)
        scaled.append(setup * IMPORT_REF / imports)
    return statistics.median(scaled), statistics.median(raw)


def import_times() -> dict:
    """Cumulative import time of the package modules, from -X importtime."""
    cumulative = {}
    for line in _child(["-X", "importtime", "-c", "import vacfilter.cli"]).stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {f"import.{m}.s": cumulative.get(m, 0.0) for m in IMPORT_MODULES}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest(),
    }


def workload_figures(name: str, res) -> dict:
    """The workload's figures under their per-workload names, in raw wall time."""
    tail = f"p{TAIL_PERCENTILE}"
    primary, secondary = res.samples("primary", False), res.samples("secondary", False)
    if name == "security":
        return {"pmin_s.p50": statistics.median(primary),
                f"pmin_s.{tail}": percentile(primary, TAIL_PERCENTILE),
                "optimize_s.p50": statistics.median(secondary),
                f"optimize_s.{tail}": percentile(secondary, TAIL_PERCENTILE),
                "pmin_unfiltered_s.p50": statistics.median(res.tagged("pmin_unfiltered")),
                "optimize_unfiltered_s.p50": statistics.median(res.tagged("optimize_unfiltered"))}
    if name == "montecarlo":
        return {"mc_trials_per_s": res.rate("w1"), "mc_trials_per_s.2w": res.rate("w2"),
                "mc_records_per_s": res.rate("records")}
    if name == "figures":
        commands = [dt for _, _, dt, *_ in res.ops]
        return {"cli_cmd_s.p50": statistics.median(commands),
                f"cli_cmd_s.{tail}": percentile(commands, TAIL_PERCENTILE),
                "figure_set_s": statistics.median(secondary)}
    return {"oracle_scenarios_per_s": res.rate("scenario")}


def latencies(res, normalized: bool) -> dict:
    out = {}
    for role in ("primary", "secondary"):
        samples = res.samples(role, normalized)
        out[f"{role}_s.p50"] = statistics.median(samples)
        out[f"{role}_s.tail"] = percentile(samples, TAIL_PERCENTILE)
    return out


def end_to_end(res, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (res.attempted - res.failed) / res.attempted,
        **latencies(res, normalized=True),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "vacfilter" / "__init__.py").is_file():
        print(f"error: no vacfilter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import tracer as tracing

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = None
    if args.trace:
        span_s = tracing.span_cost()
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup_s, setup_raw = measure_setup(args.workload, args.seed)

    res = workloads.execute(args.workload, args.seed, args.seconds, WORKDIR, tracer=tracer)

    if tracer is not None:
        tracer.uninstall()
        values = tracing.layer_metrics(tracer, res.attempted, res.wall, span_s)
        values.update(import_times())
        tracer.dump(WORKDIR / f"spans-{args.workload}-{args.seed}.csv")
        kind = "per_layer"
    else:
        values = end_to_end(res, setup_s)
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[kind]}
    (WORKDIR / "op.out").unlink(missing_ok=True)

    tail_n = {role: len(res.samples(role, False)) for role in ("primary", "secondary")}
    info = {
        "provenance": provenance(args.workload, args.seed, args.seconds, args.trace),
        "samples": {**tail_n, "rounds": res.rounds, "tail_percentile": TAIL_PERCENTILE,
                    "beyond_tail": {k: n - _rank(n, TAIL_PERCENTILE)
                                    for k, n in tail_n.items()}},
        "raw_wall": {**latencies(res, normalized=False),
                     **({} if args.trace else {"setup_s": setup_raw})},
        "scaled": latencies(res, normalized=True),
        "speed_scale_median": statistics.median(res.speed_scales()),
        "workload_figures": workload_figures(args.workload, res),
        "error_rate": res.failed / res.attempted,
        "failures": res.failures[:5],
    }
    if tracer is not None:
        info["trace"] = {"spans": tracer.spans, "span_cost_s": span_s}
    print(json.dumps(info))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
