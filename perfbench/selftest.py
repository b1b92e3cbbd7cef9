"""Self-test of the benchmark in smoke mode: every workload at minimal size.

    python3 perfbench/selftest.py

Runs one small round of each workload untraced and once more traced, and
fails (exit 1) unless
  * every operation passes its correctness check in both runs;
  * the traced run's outputs are identical to the untraced run's;
  * every per-layer metric that perfbench/layers.json names for a workload
    is non-zero on that workload;
  * run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and perfbench/.
It takes seconds and is not collected by the repository's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run  # sets the BLAS thread limits before numpy is imported

sys.path.insert(0, str(run.SRC))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 20240615


def check_refuses_without_sources() -> list:
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py did not refuse to run without the package sources"]
    return []


def main() -> int:
    run.WORKDIR.mkdir(exist_ok=True)
    layers = json.loads((run.HERE / "layers.json").read_text())
    problems = []
    imports = run.import_times()
    span_s = tracing.span_cost()
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        plain = workloads.execute(name, SEED, 0, run.WORKDIR, smoke=True, max_rounds=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workloads.execute(name, SEED, 0, run.WORKDIR, smoke=True, max_rounds=1,
                                       tracer=tracer)
        finally:
            tracer.uninstall()
        for label, res in (("untraced", plain), ("traced", traced)):
            problems += [f"{name} {label}: {f}" for f in res.failures]
        if plain.outputs != traced.outputs:
            problems.append(f"{name}: traced outputs differ from untraced outputs")
        values = tracing.layer_metrics(tracer, traced.attempted, traced.wall, span_s)
        values.update(imports)
        zero = [metric for metric, m in layers.items()
                if name in m["nonzero_on"] and not values[metric] > 0]
        if zero:
            problems.append(f"{name}: zero per-layer metrics {zero}")
        print(f"{name}: {traced.attempted} ops, {tracer.spans} spans, "
              f"{time.perf_counter() - t0:.1f}s", flush=True)
    problems += check_refuses_without_sources()
    (run.WORKDIR / "op.out").unlink(missing_ok=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
